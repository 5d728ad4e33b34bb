#!/usr/bin/env python3
"""End-to-end benchmark of the spi-variants serve daemon.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload synth-stream --seed 1 --seconds 10 --trace 0

Builds the daemon (bin/main.exe) and the benchmark program
(perfbench/main.exe) from source with dune, release profile, into
.bench_build/, then runs one workload.  --trace 0 is the end-to-end run
against a spawned daemon; --trace 1 is the traced in-process replay with
per-layer attribution.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Working files
(socket, journals) live in .bench_run/ and are removed afterwards, except
the traced run's spans, kept as .bench_run/spans-<workload>-<seed>.json.
See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("synth-stream", "sim-family", "large-model")
BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "bin/main.ml", "lib", "perfbench/dune"):
        if not os.path.exists(needed):
            fail("not a source checkout: %s is missing" % needed)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    cmd = [
        "dune", "build", "--root", ".", "--profile", "release",
        "--build-dir", BUILD_DIR, "--cache", "disabled",
        "./bin/main.exe", "./perfbench/main.exe",
    ]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")


def run(args):
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    daemon = os.path.join(BUILD_DIR, "default", "bin", "main.exe")
    tag = "%s-%d" % (args.workload, args.seed)
    work_dir = os.path.join(RUN_DIR, "%s-%d" % (tag, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [
        exe, "--daemon", daemon, "--dir", work_dir,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    # its own process group, so a timeout also takes down the daemon
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run timed out")
    finally:
        spans = os.path.join(work_dir, "spans.json")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(RUN_DIR, "spans-%s.json" % tag))
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    build()
    sys.stdout.flush()
    sys.exit(run(args))


if __name__ == "__main__":
    main()
