#!/usr/bin/env python3
"""Build and run jinjing's benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload oneshot-check --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

Builds perfbench (this directory's Go module) and the jinjingd daemon
from source into the build directory -- $CARGO_TARGET_DIR when set, else
.bench_build -- with the Go build cache kept there too, then runs
perfbench with the given arguments. Its last line of standard output is
the JSON result; its exit code is passed through. --all runs every
workload of BENCHMARK.json, untraced and then traced, and fails if any
run does.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        # The go command keeps telemetry under the user config directory;
        # keep it in the build directory too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        # The environment stamp asks git for the commit; stop it from
        # finding a repository above the checkout.
        GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    bindir = os.path.join(build, "bin")
    built = subprocess.run(
        ["go", "build", "-o", bindir + os.sep, ".", "jinjing/cmd/jinjingd"],
        cwd=HERE, env=env, stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    def run(args):
        cmd = [os.path.join(bindir, "perfbench"),
               "-jinjingd", os.path.join(bindir, "jinjingd"),
               "-workdir", os.path.join(build, "run")] + args
        return subprocess.run(cmd, cwd=ROOT, env=env).returncode

    args = sys.argv[1:]
    if args[:1] != ["--all"]:
        return run(args)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    failed = 0
    for name in names:
        for trace in ("0", "1"):
            failed |= run(["--workload", name, "--trace", trace] + args[1:]) != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
