"""Tests of the benchmark driver's own rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need no build: the workload binary is replaced by canned records.
"""

import contextlib
import io
import json
import unittest

import run


def canned_record(**overrides):
    """A canned untraced test-gw4 record that passes every gate."""
    rec = {
        "workload": "test-gw4", "seed": 3, "trace": 0,
        "attempted": 1342, "failed": 0, "peak_rss_mb": 160.5,
        "setup_s": [0.004, 0.003, 0.005],
        "gates": {"clean_device_all_pass": True, "ops_agree": True,
                  "fault_detected": True},
        "ops": [{"traced": False, "ms": 8000.0 + i, "gen_s": 0.8,
                 "test_s": 8.0 + i / 1e3, "cases": 671}
                for i in range(2)],
        "templates": 671, "cases": 671,
    }
    rec.update(overrides)
    return rec


RECORDED = {"test-gw4": {"templates": 671, "cases": 671},
            "fuzz-gw4": {"execs": 20000, "by_seed": {"3": [652, 178]}}}


def run_main(argv, rec):
    """Runs run.main with a canned record; returns (exit code, last stdout
    line or None)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv, runner=lambda args: (rec, None))
    lines = out.getvalue().strip().splitlines()
    return code, (lines[-1] if lines else None)


ARGV = ["--workload", "test-gw4", "--seed", "3", "--seconds", "5",
        "--trace", "0"]


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile([7.0], 90), 7.0)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(99), 75.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertIsNone(run.tail_percentile(19))

    def test_tail_has_ten_samples_beyond(self):
        for n in range(20, 2000, 37):
            p = run.tail_percentile(n)
            values = list(range(n))
            beyond = sum(v > run.percentile(values, p) for v in values)
            self.assertGreaterEqual(beyond, run.MIN_BEYOND, n)

    def test_churn_reports_p90_only_with_enough_updates(self):
        ops = [{"ms": float(i)} for i in range(100)]
        rec = {"workload": "churn-gw4", "ops": ops, "setup_s": [0.3],
               "stream_s": 20.0, "peak_rss_mb": 40.0, "failed": 0,
               "attempted": 100}
        _, report = run.end_to_end(rec)
        self.assertIn("update_p90_ms", report)
        rec["ops"] = ops[:99]
        _, report = run.end_to_end(rec)
        self.assertNotIn("update_p90_ms", report)
        self.assertIn("update_p75_ms", report)


class SeedArgument(unittest.TestCase):
    def test_accepts_decimal_integers(self):
        self.assertEqual(run.parse_seed("0"), 0)
        self.assertEqual(run.parse_seed("42"), 42)
        self.assertEqual(run.parse_seed(str(2 ** 64 - 1)), 2 ** 64 - 1)

    def test_rejects_everything_else(self):
        for bad in ("", "-1", "+1", "1.5", "0x10", " 7", "seven",
                    str(2 ** 64)):
            with self.assertRaises(run.UsageError, msg=bad):
                run.parse_seed(bad)

    def test_bad_seed_is_a_usage_error(self):
        argv = list(ARGV)
        argv[3] = "-5"
        code, last = run_main(argv, canned_record())
        self.assertEqual(code, 2)
        self.assertIsNone(last)

    def test_seed_reaches_the_runner(self):
        seen = []

        def runner(args):
            seen.append(args.seed)
            return canned_record(), None

        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            run.main(ARGV, runner=runner)
        self.assertEqual(seen, [3])


class FailedGateExitsNonZero(unittest.TestCase):
    def test_passing_run_exits_zero(self):
        code, last = run_main(ARGV, canned_record())
        self.assertEqual(code, 0)
        result = json.loads(last)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))

    def test_binary_gate(self):
        rec = canned_record()
        rec["gates"]["fault_detected"] = False
        code, last = run_main(ARGV, rec)
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(last)["correct"])

    def test_recorded_count_mismatch(self):
        code, last = run_main(ARGV, canned_record(templates=670))
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(last)["correct"])

    def test_failed_operations(self):
        code, last = run_main(ARGV, canned_record(failed=1))
        self.assertEqual(code, 1)
        self.assertEqual(json.loads(last)["failed"], 1)

    def test_fuzz_coverage_must_match_seed_class(self):
        op = {"fuzz_seed": 3, "execs": 20000, "coverage_edges": 652,
              "corpus": 178}
        rec = {"workload": "fuzz-gw4", "ops": [op]}
        self.assertTrue(all(run.recorded_gates(rec, RECORDED).values()))
        op["corpus"] = 177
        self.assertFalse(all(run.recorded_gates(rec, RECORDED).values()))

    def test_phase_timers_may_not_exceed_their_call(self):
        spans = [
            {"id": 1, "parent": 0, "dur_s": 1.0, "synthetic": 0},
            {"id": 2, "parent": 1, "dur_s": 0.6, "synthetic": 1},
            {"id": 3, "parent": 1, "dur_s": 0.3, "synthetic": 1},
        ]
        self.assertTrue(run.phase_gate(spans))
        spans[2]["dur_s"] = 0.5
        self.assertFalse(run.phase_gate(spans))

    def test_build_failure_prints_no_result(self):
        def runner(args):
            raise run.BuildError("build step failed")

        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run.main(ARGV, runner=runner)
        self.assertEqual(code, 2)
        self.assertEqual(out.getvalue(), "")


if __name__ == "__main__":
    unittest.main()
