#!/usr/bin/env python3
"""Build the host-time benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload batch_cold --seed 1 --seconds 15 --trace 0

Builds bin/infs_run.exe and perfbench/perfbench.exe with dune into
.bench_build/, then runs the benchmark (which starts its own server
processes for serve_mix and shard_mix). The last stdout line is the JSON
result. The exit code is 0 only when the run finished and every output
check passed.
"""

import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def stop_group(pgid):
    """Kill whatever is left of the benchmark's process group and wait
    until it is gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def steal_s():
    """Seconds of CPU time the hypervisor took from this machine (Linux
    /proc/stat "steal", summed over CPUs); None where unavailable."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def main():
    for path in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            return fail(path + " not found: run from the repository root")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "./perfbench/perfbench.exe", "./bin/infs_run.exe"],
            stdin=subprocess.DEVNULL, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail("build failed: " + str(e))
    if build.returncode != 0:
        return fail("build failed")
    default = os.path.join(BUILD_DIR, "default")
    workdir = os.path.join(BUILD_DIR, "perfbench-run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(default, "perfbench", "perfbench.exe"), *sys.argv[1:],
           "--exe", os.path.join(default, "bin", "infs_run.exe"),
           "--workdir", workdir]
    steal0 = steal_s()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    stop_group(proc.pid)
    steal1 = steal_s()
    if steal0 is not None and steal1 is not None:
        # host contention explains most run-to-run spread on shared machines
        print("perfbench: host CPU steal during the run: %.1f s" % (steal1 - steal0),
              file=sys.stderr)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
