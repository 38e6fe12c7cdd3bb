"""Tests of the benchmark's own arithmetic and output checks.

    python3 -m unittest discover -s perfbench

They need numpy; only the mc check test imports votephase (from src/).
"""

from __future__ import annotations

import json
import math
import sys
import threading
import types
import unittest
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import checks
import layers
import run
from checks import CheckFailed
from spans import Tracer
from stats import error_rate, self_time, tail
from workloads import CliResult, Op, Workload


class TailRule(unittest.TestCase):
    def test_eleventh_largest_with_percentile_and_count(self):
        t = tail(list(range(1, 31)))
        self.assertEqual(t.value, 20)
        self.assertAlmostEqual(t.percentile, 100.0 * 20 / 30)
        self.assertEqual((t.samples, t.beyond), (30, 10))

    def test_exactly_ten_beyond_and_no_more(self):
        xs = [0.5 * i for i in range(57)]
        t = tail(xs)
        self.assertEqual(sum(x > t.value for x in xs), 10)
        self.assertEqual(tail([7.0] + xs).value, t.value)  # one more low sample moves nothing

    def test_eleven_samples_give_the_minimum(self):
        self.assertEqual(tail(list(range(11, 0, -1))).value, 1)

    def test_too_few_samples_fall_back_to_the_median(self):
        t = tail(list(range(1, 11)))
        self.assertEqual((t.value, t.beyond, t.percentile), (5, 5, 50.0))

    def test_rank_depends_on_the_cycle_count(self):
        # why a run is a fixed number of cycles: the tail's kind moves with it
        kinds = [0.02, 0.05, 0.06, 0.2, 0.8, 4.5]
        self.assertEqual(tail(kinds * 5).value, 0.2)
        self.assertEqual(tail(kinds * run.MIN_CYCLES).value, 0.8)
        self.assertEqual(tail(kinds * 11).value, 4.5)

    def test_cycle_count_follows_seconds(self):
        self.assertEqual(run.cycles_for("cli", 24), 8)
        self.assertEqual(run.cycles_for("exact", 24), run.MIN_CYCLES)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            tail([])


class SelfTime(unittest.TestCase):
    def test_overlapping_and_protruding_children(self):
        # children cover [1, 5] and [8, 10] of the parent's [0, 10]
        self.assertEqual(self_time(0.0, 10.0, [(2.0, 5.0), (1.0, 3.0), (8.0, 12.0)]), 4.0)

    def test_no_children(self):
        self.assertEqual(self_time(1.0, 3.5, []), 2.5)

    def test_child_outside_the_parent(self):
        self.assertEqual(self_time(0.0, 1.0, [(2.0, 3.0), (-2.0, -1.0)]), 1.0)

    def test_nested_spans_subtract_only_direct_children(self):
        tracer = Tracer()
        mod = types.ModuleType("fake_layers")
        mod.leaf = lambda: sum(range(20000))
        mod.middle = lambda: [mod.leaf() for _ in range(3)]
        sys.modules["fake_layers"] = mod
        try:
            tracer.wrap("fake_layers.leaf", "leaf")
            tracer.wrap("fake_layers.middle", "middle")
            tracer.wrap("fake_layers.absent", "absent")
            tracer.begin_op()
            tracer.active = True
            tracer.span("op", mod.middle)
            tracer.active = False
        finally:
            tracer.restore()
            del sys.modules["fake_layers"]
        self.assertEqual(tracer.missing, ["fake_layers.absent"])
        by = {s.name: s for s in tracer.spans}
        kids = tracer.children()
        self.assertEqual([s.name for s in kids[by["op"].sid]], ["middle"])
        leaves = kids[by["middle"].sid]
        self.assertEqual([s.name for s in leaves], ["leaf"] * 3)
        own_middle = self_time(by["middle"].start, by["middle"].end, [(s.start, s.end) for s in leaves])
        self.assertAlmostEqual(own_middle, by["middle"].duration - sum(s.duration for s in leaves), places=12)
        own_op = self_time(by["op"].start, by["op"].end, [(by["middle"].start, by["middle"].end)])
        self.assertAlmostEqual(own_op, by["op"].duration - by["middle"].duration, places=12)

    def test_pool_threads_nest_under_the_submitting_span(self):
        tracer = Tracer()
        mod = types.ModuleType("fake_pool")
        mod.chunk = lambda i: threading.get_ident()

        def fan_out():
            with ThreadPoolExecutor(2) as pool:
                return list(pool.map(mod.chunk, range(4)))

        mod.fan_out = fan_out
        sys.modules["fake_pool"] = mod
        try:
            tracer.wrap("fake_pool.chunk", "chunk")
            tracer.wrap("fake_pool.fan_out", "fan_out")
            tracer.begin_op()
            tracer.active = True
            mod.fan_out()
            tracer.active = False
        finally:
            tracer.restore()
            del sys.modules["fake_pool"]
        fan_out = next(s for s in tracer.spans if s.name == "fan_out")
        chunks = [s for s in tracer.spans if s.name == "chunk"]
        self.assertEqual(len(chunks), 4)
        self.assertTrue(all(s.parent == fan_out.sid for s in chunks))


def _fail(_result):
    raise CheckFailed("wrong")


class ErrorRate(unittest.TestCase):
    def test_raising_wrong_and_nonzero_exit_operations_fail(self):
        ops = [
            Op("ok", lambda: 1, lambda r: checks.equals(r, 1, "ok")),
            Op("raises", lambda: 1 / 0, lambda r: None),
            Op("wrong", lambda: 2, _fail),
            Op("exit", lambda: CliResult(1, b"", b"boom\n"), lambda r: checks.exited_ok(r.returncode, r.stderr)),
        ]
        loop = run.run_loop(Workload("fake", ops), cycles=3)
        errors = [r[2] for r in loop["records"] if r[2]]
        self.assertEqual((len(loop["records"]), len(errors)), (12, 9))
        self.assertEqual(error_rate(len(errors), len(loop["records"])), 0.75)
        self.assertTrue(any("ZeroDivisionError" in e for e in errors))
        self.assertTrue(any("boom" in e for e in errors))

    def test_nothing_attempted_counts_as_failure(self):
        self.assertEqual(error_rate(0, 0), 1.0)
        self.assertEqual(error_rate(0, 7), 0.0)


class ChecksRejectWrongValues(unittest.TestCase):
    def test_monte_carlo_within_five_standard_errors(self):
        checks.within_sigmas(0.3 + 4.9e-3, 1e-3, 0.3, "mc")
        with self.assertRaises(CheckFailed):
            checks.within_sigmas(0.3 + 5.1e-3, 1e-3, 0.3, "mc")
        with self.assertRaises(CheckFailed):
            checks.within_sigmas(0.3, 0.0, 0.31, "mc")

    def test_repeats_are_bit_identical(self):
        memo: dict = {}
        checks.repeats(memo, "k", (0.25, 1e-3))
        checks.repeats(memo, "k", (0.25, 1e-3))
        with self.assertRaises(CheckFailed):
            checks.repeats(memo, "k", (np.nextafter(0.25, 1.0), 1e-3))
        checks.repeats(memo, "a", np.eye(3))
        wrong = np.eye(3)
        wrong[0, 1] = 5e-324
        with self.assertRaises(CheckFailed):
            checks.repeats(memo, "a", wrong)

    def test_lag1_mean_near_gamma(self):
        checks.lag1_near_gamma(0.5 + 1e-3, 0.5, 200_000)
        with self.assertRaises(CheckFailed):
            checks.lag1_near_gamma(0.5 + 1e-2, 0.5, 200_000)

    def test_pmf_mean_and_variance(self):
        n, r = 30, 0.3
        mass = np.array([math.comb(n, k) * r**k * (1 - r) ** (n - k) for k in range(n + 1)])
        checks.pmf_moments(mass, n, r, n * r * (1 - r))
        with self.assertRaises(CheckFailed):
            checks.pmf_moments(np.roll(mass, 1), n, r, n * r * (1 - r))
        with self.assertRaises(CheckFailed):
            checks.pmf_moments(mass, n, r, n * r * (1 - r) * (1 + 1e-7))

    def test_brute_force_agreement(self):
        checks.agrees(0.1 + 5e-13, 0.1, checks.BRUTE_FORCE_ATOL, "brute")
        with self.assertRaises(CheckFailed):
            checks.agrees(0.1 + 2e-12, 0.1, checks.BRUTE_FORCE_ATOL, "brute")

    def test_cli_exit_status(self):
        checks.exited_ok(0, b"")
        with self.assertRaises(CheckFailed):
            checks.exited_ok(2, b"votephase: i/o error: nope\n")

    def test_cli_json_values(self):
        out = json.dumps({"err_exact": 0.125, "estimate": {"value": 0.5}})
        checks.json_fields(out, {"err_exact": 0.125, "estimate.value": 0.5})
        with self.assertRaises(CheckFailed):
            checks.json_fields(out, {"estimate.value": 0.5000000000000001})

    def test_cli_csv_columns(self):
        out = "p,q,err_hat\n0.01,0.02,0.3\n0.01,0.03,0.4\n"
        checks.csv_columns(out, {"q": ["0.02", "0.03"], "err_hat": ["0.3", "0.4"]})
        with self.assertRaises(CheckFailed):
            checks.csv_columns(out, {"err_hat": ["0.3", "0.41"]})
        with self.assertRaises(CheckFailed):
            checks.csv_columns(out, {"err_hat": ["0.3"]})

    def test_cli_text_report(self):
        checks.equals("a\nb\n", "a\nb\n", "report")
        with self.assertRaises(CheckFailed):
            checks.equals("a\nb\n", "a\nc\n", "report")


class WorkloadChecks(unittest.TestCase):
    """The mc workload's own checks, fed results that are off."""

    @classmethod
    def setUpClass(cls):
        cls.vp = run.import_votephase()
        cls.wl = run.build("mc", cls.vp, run.workloads.Inputs.from_seed(3), None, {}, False)

    def test_mc_error_far_from_exact_fails(self):
        op = self.wl.ops[0]
        good = op.call()
        op.check(good)
        far = types.SimpleNamespace(value=good.value + 6 * good.std_error, std_error=good.std_error)
        with self.assertRaises(CheckFailed):
            op.check(far)

    def test_correlation_matrix_wrong_lag_fails(self):
        op = next(o for o in self.wl.ops if o.kind == "mc_correlation_matrix")
        good = op.call()
        op.check(good)
        lags = np.array(good.lag_means)
        lags[0] += 0.05
        with self.assertRaises(CheckFailed):
            op.check(types.SimpleNamespace(lag_means=lags, correlation=good.correlation))


class BenchmarkFile(unittest.TestCase):
    """BENCHMARK.json names exactly what the runner reports."""

    def setUp(self):
        self.spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

    def test_metrics_match_the_runner(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in self.spec["per_layer"]}, layers.PER_LAYER
        )
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), run.WORKLOADS)

    def test_bounds_within_the_contract(self):
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in self.spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
