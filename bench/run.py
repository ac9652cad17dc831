#!/usr/bin/env python3
"""Build the Bifrost benchmark from this checkout's sources and run it.

Usage, from the root of the checkout:

    python3 bench/run.py --workload release --seed 1 --seconds 15 --trace 0

Every argument is passed to bench/cmd/bifrost-bench (see bench/README.md).
The build cache, the binary, journal temp dirs, and traced runs' span files
all live under .bench_build/ in the checkout; nothing is written elsewhere.
The first run compiles the standard library into that cache and takes a
few minutes; later runs reuse it.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
# A run that has not ended after this long is stopped and counts as failed.
RUN_TIMEOUT_S = 175


def main():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    os.makedirs(tmp, exist_ok=True)
    binary = os.path.join(BUILD, "bifrost-bench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "./cmd/bifrost-bench"],
        cwd=os.path.join(ROOT, "bench"),
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("bench/run.py: build failed", file=sys.stderr)
        return 1
    args = [binary] + sys.argv[1:] + ["--spans-dir", os.path.join(BUILD, "spans")]
    proc = subprocess.Popen(args, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("bench/run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
