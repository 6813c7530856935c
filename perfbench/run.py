#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload map-lowk --seed 1 --seconds 10 --trace 0

Every argument is passed through to the program (see main.go). The Go
build cache, temporary files and the serving container all live in the
build directory (CARGO_TARGET_DIR when set, else .bench_build), so a run
writes nothing outside the checkout. A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    commit = "unknown"
    try:
        # The ceiling keeps git from reporting the commit of some
        # repository that merely contains a checkout without .git.
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(root)),
            capture_output=True,
            text=True,
            timeout=10,
        )
        if rev.returncode == 0:
            commit = rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass

    args = [binary, "--workdir", build, "--commit", commit] + sys.argv[1:]
    return subprocess.run(args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
