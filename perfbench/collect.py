#!/usr/bin/env python3
"""Record a result set: every workload on ten seeds, plus one traced run each.

    python3 perfbench/collect.py --out perfbench/results/<name>.json
    python3 perfbench/collect.py --out NEW.json --base-root ../parent --base-out BASE.json

Run from the repository root with no INT_* variables set. Every run lasts
BENCHMARK.json's run_seconds, and the traced runs use the first seed. Seeds
run in the outer loop and workloads in the inner one, so slow drift of the
host hits every workload alike.

With --base-root, a second checkout (for example the parent commit, made with
`git worktree add`) is measured in the same session: for each seed and
workload the two sides run back to back, and the side that goes first
alternates, so drift of the host falls on both sides alike. The base checkout
must hold the benchmark directory; copy it in if the commit predates it. Each
side builds into its own `.bench_build`. Both sets get the same pair_id, which
compare.py looks for.

A set records host_cores, the rustc version and the git sha beside every run's
metrics, so sets can be compared with compare.py.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
FIRST_SEED = 1


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def tool_output(cmd, root):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, cwd=root,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(root, spec, workload, seed, seconds, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {root} failed with exit {proc.returncode}")
    res = json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: v["value"] for k, v in res["metrics"].items()},
    }


def new_set(root, seconds, names, created):
    return {
        "schema": "perfbench-results/1",
        "git_sha": tool_output(["git", "rev-parse", "HEAD"], root),
        "rustc": tool_output(["rustc", "--version"], root),
        "host_cores": len(os.sched_getaffinity(0)),
        "run_seconds": seconds,
        "created_utc": created,
        "workloads": {w: {"runs": [], "traced": None} for w in names},
    }


def save(result_set, path):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(result_set, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv):
    spec = load_spec(ROOT)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--base-root", help="second checkout measured alternately")
    ap.add_argument("--base-out", help="where the base checkout's set goes")
    args = ap.parse_args(argv)
    if (args.base_root is None) != (args.base_out is None):
        ap.error("--base-root and --base-out go together")
    seconds = spec["run_seconds"]
    created = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")

    # (label, root, result set, output path); the first side is NEW.
    sides = [("new", ROOT, new_set(ROOT, seconds, names, created), args.out)]
    if args.base_root:
        base_root = os.path.abspath(args.base_root)
        sides.append(("base", base_root, new_set(base_root, seconds, names, created),
                      args.base_out))
        pair_id = f"{created} {sides[1][2]['git_sha']}..{sides[0][2]['git_sha']}"
        for side in sides:
            side[2]["pair_id"] = pair_id

    for i, seed in enumerate(range(FIRST_SEED, FIRST_SEED + RUNS)):
        for j, w in enumerate(names):
            order = sides if (i + j) % 2 == 0 else sides[::-1]
            for label, root, result_set, _ in order:
                r = run_once(root, spec, w, seed, seconds, 0)
                result_set["workloads"][w]["runs"].append(r)
                print(f"{label} {w} seed {seed}: " + ", ".join(
                    f"{k}={v:.6g}" for k, v in r["metrics"].items()), file=sys.stderr)
    for j, w in enumerate(names):
        order = sides if j % 2 == 0 else sides[::-1]
        for label, root, result_set, _ in order:
            result_set["workloads"][w]["traced"] = run_once(root, spec, w, FIRST_SEED, seconds, 1)
            print(f"{label} {w} traced seed {FIRST_SEED} done", file=sys.stderr)

    for _, _, result_set, path in sides:
        save(result_set, path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
