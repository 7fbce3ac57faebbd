#!/usr/bin/env python3
"""Build and run the confluence benchmark.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload exact_grid --seed 1 --seconds 10 --trace 0

Builds the benchmark package (benchmark/, which compiles the repository's
packages from source) into .bench_build/, keeping the Go build cache and
every other file the toolchain writes under .bench_build/ too, then runs
it. The benchmark prints progress to standard error and one JSON result
line as the last line of standard output. Exits non-zero, printing no
result, when the checkout lacks the program's sources or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        sys.exit("run.py: no go.mod at %s: the program's sources are missing" % root)
    go = shutil.which("go")
    if go is None:
        sys.exit("run.py: the go toolchain is not on PATH")

    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOENV="off", GOWORK="off", GOFLAGS="")

    binary = os.path.join(build, "bin", "confluence-bench")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=bench_dir, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: build timed out")
    if built.returncode != 0:
        sys.exit("run.py: build failed")

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-dir", build]
    try:
        ran = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark timed out")
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
