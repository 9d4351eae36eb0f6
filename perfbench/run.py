#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The harness is built with
`cargo build --release --offline` into $CARGO_TARGET_DIR (default
`.bench_build`); build output goes to stderr. The harness prints the result
JSON as the last line of stdout.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode


def main(argv):
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    code = build(target_dir)
    if code != 0:
        print(f"perfbench: build failed (exit {code})", file=sys.stderr)
        return code
    exe = os.path.join(target_dir, "release", "perfbench")
    return subprocess.run([exe] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
