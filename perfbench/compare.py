#!/usr/bin/env python3
"""Compare two result sets, or check the spread of one.

    python3 perfbench/compare.py BASE.json NEW.json
    python3 perfbench/compare.py --spread SET.json

Compare prints one row per workload and end-to-end metric: each side's median
and quartiles, the change of the median, how many same-seed pairs NEW wins,
and a verdict under the bounds in BENCHMARK.json:

  better      NEW wins at least 9 of 10 pairs (ties count for neither) and
              the medians differ by more than BASE's interquartile spread;
  worse       NEW's median is worse than BASE's by more than the bound;
  unresolved  BASE's own interquartile spread exceeds the bound, unless every
              NEW run reads better than every BASE run;
  same        none of the above: no worse than the bound.

Failed operations gate every workload on their own: when NEW's failed over
attempted, summed over the paired seeds, is above BASE's, the workload gets a
failed_frac row with the verdict worse, and none of its metrics can read
better. Pairs measure host drift fairly only when collect.py ran the two
sides alternately (--base-root); compare says so when the sets were not
collected that way.

--spread prints each metric's interquartile spread as a share of its median
beside its bound and the bound/3 target. Quartiles are those of
statistics.quantiles(values, n=4). Exit status 1 means a verdict of worse, an
incorrect run, or (with --spread) a spread over its bound.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def share(delta, base):
    if base == 0:
        return 0.0 if delta == 0 else float("inf")
    return delta / abs(base)


def verdict(base, new, better, bound):
    """Verdict of NEW against BASE for one metric.

    base, new: values of the same seeds in the same order; better: "lower" or
    "higher"; bound: the worsening share BENCHMARK.json allows."""
    sign = 1.0 if better == "higher" else -1.0
    q1, med_b, q3 = quartiles(base)
    med_n = statistics.median(new)
    gain = sign * (med_n - med_b)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "better"
    if share(-gain, med_b) > bound:
        return "worse"
    all_better = all(sign * (n - b) > 0 for b in base for n in new)
    if share(q3 - q1, med_b) > bound and not all_better:
        return "unresolved"
    return "same"


def metric_values(runs, name):
    return [r["metrics"][name] for r in runs]


def paired_runs(base, new):
    """Runs of both sets on the seeds they share, in seed order."""
    by_seed = {r["seed"]: r for r in new}
    common = [r for r in base if r["seed"] in by_seed]
    return common, [by_seed[r["seed"]] for r in common]


def incorrect(runs):
    return [r["seed"] for r in runs if not r["correct"]]


def failed_frac(runs):
    """Failed operations over attempted, summed over runs."""
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def interleaved(base_set, new_set):
    """Were the two sets collected as alternating pairs, against each other?"""
    pair_id = base_set.get("pair_id")
    return pair_id is not None and pair_id == new_set.get("pair_id")


COMPARE_HEADER = ["workload", "metric", "unit", "base median [q1, q3]",
                  "new median [q1, q3]", "change", "new wins", "bound", "verdict"]


def compare(base_set, new_set, spec):
    """Rows of COMPARE_HEADER, and whether any of them is a failure."""
    rows, bad = [], False
    if not interleaved(base_set, new_set):
        print("note: the sets were not collected as alternating pairs "
              "(collect.py --base-root), so host drift between them counts "
              "against one side")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base_set["workloads"] or name not in new_set["workloads"]:
            continue
        b_runs, n_runs = paired_runs(base_set["workloads"][name]["runs"],
                                     new_set["workloads"][name]["runs"])
        for side, runs in (("base", b_runs), ("new", n_runs)):
            if incorrect(runs):
                print(f"{name}: {side} runs on seeds {incorrect(runs)} failed their output check")
                bad = True
        if not b_runs:
            continue
        fb, fn = failed_frac(b_runs), failed_frac(n_runs)
        more_failed = fn > fb
        if more_failed:
            bad = True
            rows.append([name, "failed_frac", "frac", f"{fb:.6g}", f"{fn:.6g}",
                         f"{fn - fb:+.6g}", "", "0", "worse"])
        for m in spec["end_to_end"]:
            b = metric_values(b_runs, m["name"])
            n = metric_values(n_runs, m["name"])
            bq, nq = quartiles(b), quartiles(n)
            sign = 1.0 if m["better"] == "higher" else -1.0
            wins = sum(1 for x, y in zip(b, n) if sign * (y - x) > 0)
            v = verdict(b, n, m["better"], m["bound"])
            if v == "better" and more_failed:
                v = "cancelled: more failed"
            bad |= v == "worse"
            rows.append([
                name, m["name"], m["unit"],
                f"{bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]",
                f"{nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}]",
                f"{100 * share(nq[1] - bq[1], bq[1]):+.1f}%",
                f"{wins}/{len(b)}", f"{m['bound']:g}", v,
            ])
    return rows, bad


def spread(result_set, spec):
    rows, bad = [], False
    for w in spec["workloads"]:
        name = w["name"]
        if name not in result_set["workloads"]:
            continue
        runs = result_set["workloads"][name]["runs"]
        if incorrect(runs):
            print(f"{name}: runs on seeds {incorrect(runs)} failed their output check")
            bad = True
        for m in spec["end_to_end"]:
            q1, med, q3 = quartiles(metric_values(runs, m["name"]))
            s = share(q3 - q1, med)
            status = "ok" if s < m["bound"] / 3 else ("WIDE" if s <= m["bound"] else "OVER")
            bad |= s > m["bound"]
            rows.append([name, m["name"], f"{med:.6g}", f"{100 * s:.2f}%",
                         f"{100 * m['bound'] / 3:.2f}%", f"{100 * m['bound']:.0f}%", status])
    print_table(["workload", "metric", "median", "IQR/median", "bound/3", "bound", "status"], rows)
    return bad


def print_table(header, rows):
    widths = [max(len(str(x)) for x in col) for col in zip(header, *rows)]
    for row in [header] + rows:
        print("  ".join(str(x).ljust(wd) for x, wd in zip(row, widths)).rstrip())


def main(argv):
    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    if len(argv) == 2 and argv[0] == "--spread":
        return 1 if spread(load(argv[1]), spec) else 0
    if len(argv) == 2:
        rows, bad = compare(load(argv[0]), load(argv[1]), spec)
        print_table(COMPARE_HEADER, rows)
        return 1 if bad else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
