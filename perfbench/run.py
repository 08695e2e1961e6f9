#!/usr/bin/env python3
"""Fleet-tick benchmark entry point.

    python3 perfbench/run.py --workload <fleet-tune|meta-transfer|rpc-apply>
                             --seed N --seconds S --trace <0|1>

Run from the repository root. The first call builds the sparktune library,
the shard worker and the fleetbench program from source into .bench_build/
(Release, one CMake project in this directory); later calls only rebuild
what changed. The output of fleetbench is passed through; its last line is
the JSON result. A failed build exits non-zero without a result line; a
failed self-check prints "correct": false and exits non-zero. See
perfbench/README.md for the metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("fleet-tune", "meta-transfer", "rpc-apply")


def run(cmd, **kwargs):
    """Runs cmd to completion in its own process group. If this script is
    told to stop, the whole group (compilers, shard workers) is killed and
    waited for first, so nothing outlives the run."""
    child = subprocess.Popen(cmd, start_new_session=True, **kwargs)

    def stop(signum, _frame):
        os.killpg(child.pid, signal.SIGKILL)
        # Reap directly: the interrupted child.wait() holds Popen's lock.
        os.waitpid(child.pid, 0)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return child.wait()


def build():
    """Configures and builds (both incremental); logs go to stderr."""
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", "4"]]
    return all(run(step, stdout=sys.stderr) == 0 for step in steps)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1

    # fleetbench writes its rpc-apply sockets and repository under
    # .bench_run/ in the working directory, i.e. inside the checkout.
    cmd = [os.path.join(BUILD, "fleetbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code = run(cmd, cwd=ROOT)
    if code != 0:
        print(f"run.py: fleetbench exited with {code}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
