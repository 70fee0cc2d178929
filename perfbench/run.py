#!/usr/bin/env python3
"""Repository benchmark: seeded, closed-loop workloads on gw-4.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the gw4bench binary from the sources of this checkout (CMake, into
.bench_build/perfbench), runs one workload for S seconds, checks its
correctness gates and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics, derived from the spans the
binary writes. A human-readable report, including the per-workload names
the metrics stand for, goes to stderr. See perfbench/README.md.

Exit codes: 0 correct; 1 a correctness gate failed (the result is printed
with "correct": false); 2 usage or build error; 3 the workload binary
failed or timed out (no result is printed in either case).
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RECORDED = HERE / "recorded.json"

WORKLOADS = ("test-gw4", "churn-gw4", "fuzz-gw4")
# The workload binary must finish well inside the 180 s a run may take.
BINARY_TIMEOUT_S = 170
# Fuzz campaigns run seeds modulo this (gw4bench's kFuzzSeedClasses);
# recorded.json holds the coverage of each.
FUZZ_SEED_CLASSES = 256

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cfg.build_frac": "frac",
    "analysis.smt_skipped": "count",
    "summary.frac": "frac",
    "sym.dfs_frac": "frac",
    "sym.templates": "count",
    "smt.checks": "count",
    "smt.cache_lookups": "count",
    "smt.cache_hit_ratio": "frac",
    "smt.model_reuse": "count",
    "sender.concretize_frac": "frac",
    "sender.concretize_calls": "count",
    "sender.hash_repairs": "count",
    "sender.removed_by_hash": "count",
    "sim.run_batch_frac": "frac",
    "checker.check_frac": "frac",
    "impact.dirty_frac": "frac",
    "incremental.summaries_reused": "count",
    "fuzz.self_frac": "frac",
    "fuzz.mutate_frac": "frac",
    "fuzz.coverage_edges": "count",
    "fuzz.corpus": "count",
    "trace.overhead_frac": "frac",
    "trace.unaccounted_frac": "frac",
}

# Candidate percentiles for a latency tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


class UsageError(Exception):
    pass


class BuildError(Exception):
    pass


# ------------------------------------------------------------- statistics

def rank(p, n):
    """1-based nearest rank of percentile p among n samples (rounded first,
    so that 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 6)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[rank(p, len(values)) - 1]


def tail_percentile(n):
    """The highest candidate percentile with at least MIN_BEYOND of n
    samples beyond it, or None when even the median has fewer."""
    for p in TAIL_CANDIDATES:
        if n - rank(p, n) >= MIN_BEYOND:
            return p
    return None


def pname(p):
    """90.0 -> 'p90', 99.9 -> 'p99.9'."""
    return "p" + ("%g" % p)


# -------------------------------------------------------------- arguments

def parse_seed(text):
    """A seed is a decimal integer in [0, 2^64)."""
    if not re.fullmatch(r"[0-9]{1,20}", text or ""):
        raise UsageError("--seed must be a non-negative decimal integer")
    seed = int(text)
    if seed >= 2 ** 64:
        raise UsageError("--seed must be below 2^64")
    return seed


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="run.py", add_help=True)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        raise UsageError("bad arguments") from e
    args.seed = parse_seed(args.seed)
    if not 1 <= args.seconds <= 600:
        raise UsageError("--seconds must be in [1, 600]")
    return args


# -------------------------------------------------------- build and run

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds gw4bench; returns the binary path. Build
    output goes to stderr so stdout carries only the result."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                "--target", "gw4bench"]
    for cmd in (configure, compile_):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           cwd=ROOT, check=False)
        if r.returncode != 0:
            raise BuildError("build step failed: " + " ".join(cmd))
    binary = BUILD_DIR / "gw4bench"
    if not binary.is_file():
        raise BuildError("build produced no gw4bench binary")
    return binary


def run_binary(binary, args, spans):
    """Runs one workload; returns the raw record the binary prints."""
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       cwd=ROOT, timeout=BINARY_TIMEOUT_S, check=False,
                       text=True)
    if r.returncode != 0:
        raise RuntimeError("gw4bench exited with %d" % r.returncode)
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("gw4bench printed no record")
    return json.loads(lines[-1])


def load_spans(path):
    with open(path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    return [{"name": e["name"], "dur_s": e["dur"] / 1e6,
             "id": e["args"]["id"], "parent": e["args"]["parent"],
             "n": e["args"]["n"], "synthetic": e["args"]["synthetic"]}
            for e in events]


# ------------------------------------------------------------- gates

def recorded_gates(rec, recorded):
    """Gates comparing counts with the values recorded for the seed."""
    w = rec["workload"]
    gates = {}
    if w == "test-gw4":
        want = recorded["test-gw4"]
        gates["templates_as_recorded"] = rec["templates"] == want["templates"]
        gates["cases_as_recorded"] = rec["cases"] == want["cases"]
    elif w == "fuzz-gw4":
        want = recorded["fuzz-gw4"]
        ops = rec["ops"]
        gates["execs_as_recorded"] = all(o["execs"] == want["execs"]
                                         for o in ops)
        gates["coverage_as_recorded"] = all(
            want["by_seed"].get(str(o["fuzz_seed"]))
            == [o["coverage_edges"], o["corpus"]] for o in ops)
    return gates


def phase_gate(spans):
    """Phase timers read from GenStats never exceed the outside-timed call
    that contains them (1% + 1 ms slack for clock granularity)."""
    child_sum = {}
    for s in spans:
        if s["synthetic"]:
            child_sum[s["parent"]] = child_sum.get(s["parent"], 0.0) + s["dur_s"]
    for s in spans:
        if s["id"] in child_sum and child_sum[s["id"]] > s["dur_s"] * 1.01 + 1e-3:
            return False
    return True


# ---------------------------------------------------------- aggregation

def mean(values):
    return sum(values) / len(values) if values else 0.0


def end_to_end(rec):
    """Returns (metrics, report) for an untraced run. `report` holds the
    same measurements under the names each workload gives them."""
    ops = rec["ops"]
    ms = [o["ms"] for o in ops]
    w = rec["workload"]
    report = {"setup_s": (statistics.median(rec["setup_s"]), "s",
                          len(rec["setup_s"]))}
    if w == "test-gw4":
        work = statistics.median(o["cases"] / o["test_s"] for o in ops)
        report["gen_s"] = (statistics.median(o["gen_s"] for o in ops), "s",
                           len(ops))
        report["test_s"] = (statistics.median(o["test_s"] for o in ops), "s",
                            len(ops))
        report["verdicts_per_s"] = (work, "1/s", len(ops))
    elif w == "churn-gw4":
        work = len(ops) / rec["stream_s"]
        report["update_p50_ms"] = (statistics.median(ms), "ms", len(ms))
        tail = tail_percentile(len(ms))
        if tail is not None and tail > 50:
            report["update_%s_ms" % pname(tail)] = (percentile(ms, tail),
                                                    "ms", len(ms))
        report["updates_per_s"] = (work, "1/s", len(ms))
    else:
        work = statistics.median(o["execs"] / (o["ms"] / 1e3) for o in ops)
        report["fuzz_execs_per_s"] = (work, "1/s", len(ops))
    report["peak_rss_mb"] = (rec["peak_rss_mb"], "MB", 1)
    report["fail_frac"] = (rec["failed"] / rec["attempted"], "frac",
                           rec["attempted"])
    metrics = {
        "setup_s": report["setup_s"][0],
        "op_p50_ms": statistics.median(ms),
        "work_per_s": work,
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    return metrics, report


def per_layer(rec, spans):
    """Returns (metrics, report) for a traced run. Times are shares of
    the traced operations' wall time; counts are means per operation."""
    ops = rec["ops"]
    traced = [o["ms"] for o in ops if o["traced"]]
    untraced = [o["ms"] for o in ops if not o["traced"]]
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name):
        return sum(s["dur_s"] for s in by_name.get(name, []))

    def calls(name):
        return sum(s["n"] for s in by_name.get(name, []))

    op_s = total("op")
    parents = {s["parent"] for s in spans}
    op_ids = {s["id"] for s in by_name.get("op", [])}
    parent_of = {s["id"]: s["parent"] for s in spans}

    def under_op(s):
        p = s["parent"]
        while p != 0 and p not in op_ids:
            p = parent_of.get(p, 0)
        return p != 0

    leaves = sum(s["dur_s"] for s in spans
                 if s["id"] not in parents and under_op(s))
    frac = (lambda t: t / op_s) if op_s > 0 else (lambda t: 0.0)

    def count(key):
        return mean([o.get(key, 0) for o in ops])

    hits = sum(o.get("cache_hits", 0) for o in ops)
    lookups = hits + sum(o.get("cache_misses", 0) for o in ops)
    regions = sum(o.get("regions", 0) for o in ops)
    fuzz_run = total("fuzz.run")
    device = total("sim.run_batch")
    overhead = (statistics.median(traced) - statistics.median(untraced)) \
        / statistics.median(untraced)

    m = {
        "cfg.build_frac": frac(total("cfg.build")),
        "analysis.smt_skipped": count("smt_skipped"),
        "summary.frac": frac(total("summary")),
        "sym.dfs_frac": frac(total("sym.dfs")),
        "sym.templates": count("templates"),
        "smt.checks": count("smt_checks"),
        "smt.cache_lookups": lookups / len(ops),
        "smt.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "smt.model_reuse": count("model_reuse"),
        "sender.concretize_frac": frac(total("sender.concretize")),
        "sender.concretize_calls": count("concretize_calls"),
        "sender.hash_repairs": count("hash_repairs"),
        "sender.removed_by_hash": count("removed_by_hash"),
        "sim.run_batch_frac": frac(device),
        "checker.check_frac": frac(total("checker.check_case")),
        "impact.dirty_frac": (sum(o.get("dirty", 0) for o in ops) / regions
                              if regions else 0.0),
        "incremental.summaries_reused": count("summaries_reused"),
        "fuzz.self_frac": frac(fuzz_run - device) if fuzz_run > 0 else 0.0,
        "fuzz.mutate_frac": frac(total("fuzz.mutate")),
        "fuzz.coverage_edges": count("coverage_edges"),
        "fuzz.corpus": count("corpus"),
        "trace.overhead_frac": overhead,
        "trace.unaccounted_frac": frac(op_s - leaves),
    }

    # Absolute times and per-call costs, with their sample counts.
    n_ops = len(traced)
    report = {"traced_ops": (n_ops, "count", n_ops),
              "untraced_ops": (len(untraced), "count", len(untraced))}
    for name, key in (("cfg.build", "cfg.build_s"), ("summary", "summary.s"),
                      ("sym.dfs", "sym.dfs_s"),
                      ("sender.concretize", "sender.concretize_s"),
                      ("sim.run_batch", "sim.run_batch_s"),
                      ("checker.check_case", "checker.check_s"),
                      ("incremental.run", "incremental.run_s"),
                      ("fuzz.run", "fuzz.run_s")):
        if name in by_name:
            report[key] = (total(name) / n_ops, "s/op", len(by_name[name]))
    if fuzz_run > 0:
        report["fuzz.self_s"] = ((fuzz_run - device) / n_ops, "s/op", n_ops)
    if calls("sim.run_batch"):
        report["sim.ns_per_packet"] = (device * 1e9 / calls("sim.run_batch"),
                                       "ns", calls("sim.run_batch"))
    if calls("fuzz.mutate"):
        report["fuzz.mutate_ns"] = (total("fuzz.mutate") * 1e9
                                    / calls("fuzz.mutate"), "ns",
                                    calls("fuzz.mutate"))
    conc = [s["dur_s"] * 1e3 for s in by_name.get("sender.concretize", [])]
    if conc:
        report["sender.concretize_ms_p50"] = (statistics.median(conc), "ms",
                                              len(conc))
        tail = tail_percentile(len(conc))
        if tail is not None and tail > 50:
            report["sender.concretize_ms_%s" % pname(tail)] = (
                percentile(conc, tail), "ms", len(conc))
    report["smt.cache_hit_ratio_base"] = (lookups, "lookups", len(ops))
    report["impact.dirty_frac_base"] = (regions, "regions", len(ops))
    return m, report


def evaluate(rec, recorded, spans=None):
    """Turns a raw record into (result, report, gates)."""
    gates = dict(rec["gates"])
    gates.update(recorded_gates(rec, recorded))
    if spans is not None:
        gates["phase_timers_within_call"] = phase_gate(spans)
        metrics, report = per_layer(rec, spans)
        units = PER_LAYER
    else:
        metrics, report = end_to_end(rec)
        units = END_TO_END
    correct = all(gates.values()) and rec["failed"] == 0 \
        and rec["attempted"] > 0
    if "fault_cases_run" in rec:
        report["fault_cases_run"] = (rec["fault_cases_run"], "cases", 1)
    result = {
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    return result, report, gates


# ------------------------------------------------------------------ main

def default_runner(args):
    binary = build()
    spans = None
    if args.trace == 1:
        spans = BUILD_DIR / "spans" / ("%s-seed%d.json"
                                       % (args.workload, args.seed))
        spans.parent.mkdir(parents=True, exist_ok=True)
    rec = run_binary(binary, args, spans)
    return rec, (load_spans(spans) if spans is not None else None)


def main(argv, runner=default_runner):
    try:
        args = parse_args(argv)
    except UsageError as e:
        log("run.py: %s" % e)
        return 2
    try:
        rec, spans = runner(args)
    except BuildError as e:
        log("run.py: %s" % e)
        return 2
    except subprocess.TimeoutExpired:
        log("run.py: gw4bench timed out")
        return 3
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log("run.py: %s" % e)
        return 3
    with open(RECORDED, encoding="utf-8") as f:
        recorded = json.load(f)
    result, report, gates = evaluate(rec, recorded, spans)

    log("== %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    for name, (value, unit, n) in report.items():
        log("  %-30s %14.6g %-8s n=%d" % (name, value, unit, n))
    for name, value in result["metrics"].items():
        log("  metric %-23s %14.6g %s" % (name, value["value"],
                                          value["unit"]))
    for name, ok in gates.items():
        log("  gate   %-23s %s" % (name, "ok" if ok else "FAILED"))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
