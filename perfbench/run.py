#!/usr/bin/env python3
"""Build and run the dms perf ledger.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload serve-tc --seed 1 --seconds 20 --trace 0

`--workload all` runs every workload in turn. Other arguments pass
through to the benchmark executable (see perfbench/README.md). The
executable is built from the checkout's sources with dune first; the
exit code is non-zero when the build fails, a run fails, or a run's
final database disagrees with the from-scratch oracle.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-tc", "dred-mix"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def build(env):
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        return fail("no dune-project and lib/ next to perfbench/: "
                    "run from a full source checkout")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail("build failed: %s" % e)
    return proc.returncode


def run_one(env, args):
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    try:
        return subprocess.run([exe] + args, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)


def main(argv):
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = build(env)
    if code != 0:
        return code
    if "--workload" in argv and argv[argv.index("--workload") + 1:][:1] == ["all"]:
        i = argv.index("--workload")
        rest = argv[:i] + argv[i + 2:]
        codes = [run_one(env, ["--workload", w] + rest) for w in WORKLOADS]
        return max(codes)
    return run_one(env, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
