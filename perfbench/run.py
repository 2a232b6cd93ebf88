#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload split|deferred \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The executable is built with dune into
$CARGO_TARGET_DIR when that is set (a path inside the checkout), else into
_build.  Everything the run writes stays inside the checkout: the AOT
plugin cache and temporary files go to a fresh directory under
.perfbench-run/, removed afterwards; the Chrome traces of a traced run are
kept as .perfbench-run/trace-<workload>-{serve,pipeline}.json.  The last line of standard
output is the JSON result printed by the executable.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("split", "deferred")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout), 3)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code = run(
            ["dune", "build", "--root", ".", "--build-dir", build_dir,
             "--display", "quiet", "./perfbench/main.exe"],
            BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    except FileNotFoundError:
        fail("dune not found on PATH", 2)
    if code != 0:
        fail("build failed (exit %d)" % code, 2)
    exe = os.path.join(ROOT, build_dir, "default", "perfbench", "main.exe")

    runs = os.path.join(ROOT, ".perfbench-run")
    run_dir = os.path.join(runs, "%s-%d" % (args.workload, os.getpid()))
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp)
    try:
        code = run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--run-dir", run_dir,
             "--trace-prefix",
             os.path.join(runs, "trace-%s" % args.workload)],
            RUN_TIMEOUT_S, env=dict(os.environ, TMPDIR=tmp))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
