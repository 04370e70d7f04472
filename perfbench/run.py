#!/usr/bin/env python3
"""Build and run the HIGGS open-loop benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <ingest_durable|query_dashboard|mixed_rw> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, depending on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it. Stores and snapshots live under
`perfbench/work/` for the length of the run; traced runs write their spans
to `perfbench/out/`. The last line of standard output is the JSON result.
Exits non-zero when the build fails, a correctness check fails, or the run
is invalid.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "higgs", "Cargo.toml")):
        print("perfbench: crates/higgs is missing; run from a full checkout", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    exe = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:] + [
        "--workdir", os.path.join(HERE, "work"),
        "--outdir", os.path.join(HERE, "out"),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run([exe] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
