#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the Go program in this directory from the checkout's own
sources, then runs it with the same arguments. The build cache, temporary
files, results, spans and CPU profiles all go under .bench_build/ at the
repository root. The last line of standard output is the result JSON;
README.md describes the workloads and metrics.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TIMEOUT_S = 170  # a run must end within 180 s


def main():
    if not (os.path.isfile(os.path.join(ROOT, "go.mod")) and os.path.isdir(os.path.join(ROOT, "internal"))):
        sys.exit("perfbench: the program's sources (go.mod, internal/) are not beside " + HERE)
    go = shutil.which("go")
    if go is None:
        sys.exit("perfbench: no go toolchain on PATH")

    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("PPROF_TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache"), ("HOME", "home")):
        env[var] = os.path.join(BUILD, sub)
        os.makedirs(env[var], exist_ok=True)
    # Build offline from the checkout alone: the benchmark module replaces
    # the program's module with ../ and needs nothing downloaded.
    env.update(GOPROXY="off", GOWORK="off", GOTOOLCHAIN="local", GOENV="off", GOFLAGS="",
               GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    binary = os.path.join(BUILD, "bin", "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [binary, *sys.argv[1:], "--go", go, "--out", os.path.join(BUILD, "out")]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
