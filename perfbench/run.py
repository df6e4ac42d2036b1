#!/usr/bin/env python3
"""Build crimsond and the perfbench load generator from this checkout, then
run one workload.

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 10 --trace 0

Everything the build and the run write goes under .bench_build/ at the root
of the checkout (Go build cache included). The last line of standard output
is the run's JSON result; the exit code is the load generator's.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        # The go command's config and telemetry counters live under the
        # user config directory; keep them in the checkout too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build(env, pkg_dir, target, out):
    cmd = ["go", "build", "-o", out, target]
    proc = subprocess.run(cmd, cwd=pkg_dir, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        print("perfbench: build of %s failed" % target, file=sys.stderr)
        sys.exit(proc.returncode or 1)


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(
        os.path.join(ROOT, "cmd", "crimson")
    ):
        print("perfbench: no crimson source tree at %s" % ROOT, file=sys.stderr)
        return 2
    env = go_env()
    for d in ("gocache", "gopath", "tmp", "config", "bin"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    crimson = os.path.join(BUILD, "bin", "crimson")
    bench = os.path.join(BUILD, "bin", "perfbench")
    build(env, ROOT, "./cmd/crimson", crimson)
    build(env, os.path.join(ROOT, "perfbench"), ".", bench)
    proc = subprocess.Popen([bench, "-crimson", crimson, "-work", BUILD] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait()
    except KeyboardInterrupt:
        proc.terminate()
        return proc.wait()


if __name__ == "__main__":
    sys.exit(main())
