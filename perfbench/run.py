#!/usr/bin/env python3
"""Build tabular-serve and perfbench from source, then run one benchmark pass.

Run from the repository root:

    python3 perfbench/run.py --workload point_reads --seed 1 --seconds 15 --trace 0

Both builds go to $CARGO_TARGET_DIR (default: .bench_build). perfbench's
last line of standard output is the result object; spans and the
reconciliation report of a traced run are written to perfbench/out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest, *extra]
    return subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr).returncode


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    if build(env, os.path.join(ROOT, "Cargo.toml"), "-p", "tabular-server", "--bin", "tabular-serve"):
        return 1
    if build(env, os.path.join(HERE, "Cargo.toml")):
        return 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--server", os.path.join(release, "tabular-serve"),
        "--out", os.path.join(HERE, "out"),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
