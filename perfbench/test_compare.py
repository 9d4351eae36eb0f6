#!/usr/bin/env python3
"""Tests of compare.py's quartiles and verdict rules, and of BENCHMARK.json
against the metric lists the harness prints.

    python3 perfbench/test_compare.py
"""

import contextlib
import io
import json
import os
import re
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from compare import compare, interleaved, paired_runs, quartiles, share, verdict  # noqa: E402

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        q1, q2, q3 = statistics.quantiles(BASE, n=4)
        self.assertEqual(quartiles(BASE), (q1, q2, q3))

    def test_single_value(self):
        self.assertEqual(quartiles([3.0]), (3.0, 3.0, 3.0))

    def test_share_of_zero_median(self):
        self.assertEqual(share(0.0, 0.0), 0.0)
        self.assertEqual(share(1.0, 0.0), float("inf"))


class Verdict(unittest.TestCase):
    def test_better_needs_nine_of_ten_wins_beyond_the_spread(self):
        new = [v * 0.9 for v in BASE]
        self.assertEqual(verdict(BASE, new, "lower", 0.1), "better")
        # Eight of ten wins is not enough, however large the gain.
        new = [v * 0.9 for v in BASE[:8]] + [v * 1.01 for v in BASE[8:]]
        self.assertNotEqual(verdict(BASE, new, "lower", 0.1), "better")

    def test_ties_count_for_neither_side(self):
        new = [v * 0.9 for v in BASE[:8]] + BASE[8:]
        self.assertNotEqual(verdict(BASE, new, "lower", 0.1), "better")

    def test_win_inside_the_spread_is_not_better(self):
        # Every pair wins by 0.1 %, well inside BASE's quartile spread.
        new = [v * 0.999 for v in BASE]
        self.assertEqual(verdict(BASE, new, "lower", 0.1), "same")

    def test_worse_beyond_the_bound(self):
        new = [v * 1.2 for v in BASE]
        self.assertEqual(verdict(BASE, new, "lower", 0.1), "worse")
        self.assertEqual(verdict(BASE, new, "lower", 0.25), "same")

    def test_direction_follows_better(self):
        up = [v * 1.2 for v in BASE]
        self.assertEqual(verdict(BASE, up, "higher", 0.1), "better")
        down = [v * 0.8 for v in BASE]
        self.assertEqual(verdict(BASE, down, "higher", 0.1), "worse")

    def test_wide_spread_is_unresolved(self):
        base = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
        new = [v * 1.02 for v in base]
        self.assertEqual(verdict(base, new, "lower", 0.1), "unresolved")

    def test_wide_spread_but_every_new_run_better_is_not_unresolved(self):
        base = [100.0, 150.0, 120.0, 140.0, 110.0, 130.0, 100.0, 150.0, 120.0, 140.0]
        new = [v - 60.0 for v in [100.0] * 10]
        self.assertEqual(verdict(base, new, "lower", 0.1), "better")

    def test_every_new_run_better_inside_the_spread_is_same(self):
        # NEW beats every BASE run, but by less than BASE's wide spread:
        # no gain is claimed and no regression is reported either.
        base = [100.0, 150.0, 120.0, 140.0, 110.0, 130.0, 100.0, 150.0, 120.0, 140.0]
        new = [99.0] * 10
        self.assertEqual(verdict(base, new, "lower", 0.1), "same")

    def test_pairs_follow_seeds(self):
        base = [{"seed": s, "v": s} for s in (1, 2, 3)]
        new = [{"seed": s, "v": s} for s in (3, 1, 4)]
        b, n = paired_runs(base, new)
        self.assertEqual([r["seed"] for r in b], [1, 3])
        self.assertEqual([r["seed"] for r in n], [1, 3])


def result_set(walls, failed, pair_id=None):
    runs = [{"seed": i, "correct": True, "attempted": 200, "failed": f,
             "metrics": {"wall_s": w}} for i, (w, f) in enumerate(zip(walls, failed))]
    s = {"git_sha": "x", "workloads": {"testbed": {"runs": runs}}}
    if pair_id is not None:
        s["pair_id"] = pair_id
    return s


SPEC = {
    "workloads": [{"name": "testbed"}],
    "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
}


def quiet_compare(base, new):
    with contextlib.redirect_stdout(io.StringIO()):
        return compare(base, new, SPEC)


class Compare(unittest.TestCase):
    def verdicts(self, rows):
        return {row[1]: row[-1] for row in rows}

    def test_fewer_or_equal_failures_keep_better(self):
        base = result_set(BASE, [1] + [0] * 9)
        new = result_set([v * 0.8 for v in BASE], [1] + [0] * 9)
        rows, bad = quiet_compare(base, new)
        self.assertEqual(self.verdicts(rows), {"wall_s": "better"})
        self.assertFalse(bad)

    def test_more_failures_cancel_better_and_read_worse(self):
        base = result_set(BASE, [0] * 10)
        # Faster on every seed, but one more task lost on one seed.
        new = result_set([v * 0.8 for v in BASE], [0] * 9 + [1])
        rows, bad = quiet_compare(base, new)
        v = self.verdicts(rows)
        self.assertEqual(v["failed_frac"], "worse")
        self.assertNotEqual(v["wall_s"], "better")
        self.assertTrue(bad)

    def test_failures_compare_on_paired_seeds_only(self):
        base = result_set(BASE, [0] * 10)
        new = result_set(BASE + [100.0], [0] * 10 + [5])
        rows, bad = quiet_compare(base, new)
        self.assertNotIn("failed_frac", self.verdicts(rows))
        self.assertFalse(bad)

    def test_interleaved_needs_one_pair_id_on_both_sets(self):
        a, b = result_set(BASE, [0] * 10, "p1"), result_set(BASE, [0] * 10, "p1")
        self.assertTrue(interleaved(a, b))
        self.assertFalse(interleaved(a, result_set(BASE, [0] * 10, "p2")))
        self.assertFalse(interleaved(result_set(BASE, [0] * 10), result_set(BASE, [0] * 10)))


class Spec(unittest.TestCase):
    """BENCHMARK.json lists exactly the metrics the harness prints."""

    def harness_metrics(self, const):
        with open(os.path.join(HERE, "src", "main.rs")) as f:
            block = f.read().split(f"pub const {const}")[1].split("];")[0]
        return re.findall(r'\("([^"]+)", "([^"]+)"\)', block)

    def spec(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            return json.load(f)

    def test_metric_lists_match(self):
        spec = self.spec()
        for key, const in (("end_to_end", "END_TO_END"), ("per_layer", "PER_LAYER")):
            listed = [(m["name"], m["unit"]) for m in spec[key]]
            self.assertEqual(listed, self.harness_metrics(const), key)

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.spec()["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()), bounds)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
