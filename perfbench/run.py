#!/usr/bin/env python3
"""Builds and runs the served-stack benchmark (see BENCHMARK.json).

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 20 --trace 0

It builds the `perfbench` package from source (release profile, offline,
into $CARGO_TARGET_DIR or .bench_build), runs it with the same arguments,
and passes its output through: the last line of standard output is the
result object. Scratch files go to .bench_work. The exit code is the
benchmark's own, or 2 when the checkout or the build is unusable.

While hot-read runs, one busy loop per CPU at SCHED_IDLE keeps the CPUs
out of their idle state. Hot-read's open loop leaves the CPUs idle
between requests; on a virtual machine an idle vCPU halts, and every
wakeup then waits for the host to schedule it again. On a busy host that
wait came and went by the minute and moved hot-read's median latency
between 3.5 and 10 ms. SCHED_IDLE work runs only when nothing else can
and any wakeup preempts it. The closed loops keep the CPUs busy
themselves, and there a busy loop costs time: the parallel runtime's
idle workers yield, and a yield hands the CPU to the loop until the
next tick.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 170

# One busy loop at SCHED_IDLE that ends when its parent (the pid it is
# given) does, so a run killed from outside leaves no loop behind. It
# exits at once where the policy is unavailable rather than compete
# with the benchmark.
SPIN = """
import os, sys
parent = int(sys.argv[1])
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    sys.exit(0)
while os.getppid() == parent:
    for _ in range(100000):  # a few ms between checks, no system calls
        pass
"""


def start_spinners():
    return [subprocess.Popen([sys.executable, "-c", SPIN, str(os.getpid())])
            for _ in range(len(os.sched_getaffinity(0)))]


def stop(procs):
    for p in procs:
        p.kill()
    for p in procs:
        p.wait()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()

    # The benchmark builds against the repository's crates by path.
    if not os.path.isfile(os.path.join(ROOT, "crates", "serve", "Cargo.toml")):
        print("perfbench: no crates/ next to perfbench/; run from a full checkout", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                       "release", "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(ROOT, ".bench_work")]
    spinners = start_spinners() if args.workload == "hot-read" else []
    try:
        # A process group of its own, so a timeout stops the benchmark
        # and the store-preparation process it may have started. It stays
        # in this session: with scheduler autogroups each session shares
        # the CPUs as a whole, and the busy loops would otherwise take
        # their session's share from the benchmark.
        run = subprocess.Popen(cmd, cwd=ROOT, preexec_fn=os.setpgrp)
        try:
            return run.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)
            run.wait()
            print("perfbench: run exceeded %d s" % TIMEOUT_S, file=sys.stderr)
            return 2
    finally:
        stop(spinners)


if __name__ == "__main__":
    sys.exit(main())
