#!/usr/bin/env python3
"""Re-records the counts the correctness gates compare against.

    python3 perfbench/record.py

Runs test-gw4 once (its template and case counts do not depend on the
seed: GwConfig::seed and the Sender seed change neither gw-4's rules nor
its cases) and one fuzz campaign per fuzz seed class, then rewrites
perfbench/recorded.json. Run it only after a change that is meant to alter
these counts, and say so in the change.
"""

import argparse
import json
import sys

import run


def record(binary, workload, seed):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1,
                              trace=0)
    rec = run.run_binary(binary, args, None)
    if not all(rec["gates"].values()) or rec["failed"] != 0:
        sys.exit("record.py: %s seed %d failed its gates" % (workload, seed))
    return rec


def main():
    binary = run.build()
    test = record(binary, "test-gw4", 0)
    by_seed = {}
    execs = None
    for seed in range(run.FUZZ_SEED_CLASSES):
        op = record(binary, "fuzz-gw4", seed)["ops"][0]
        execs = op["execs"]
        by_seed[str(op["fuzz_seed"])] = [op["coverage_edges"], op["corpus"]]
    out = {
        "test-gw4": {"templates": test["templates"], "cases": test["cases"]},
        "fuzz-gw4": {"execs": execs, "by_seed": by_seed},
    }
    with open(run.RECORDED, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
