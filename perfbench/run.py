#!/usr/bin/env python3
"""Engine benchmark: build from this checkout, run one workload, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the engine libraries, graph_engine_node and the perfbench program
into .bench_build/ (once; later runs only check that the build is current),
runs the workload in its own process group, checks the result line against
BENCHMARK.json and forwards the program's output. The last line printed is
the result: {"correct", "attempted", "failed", "metrics"}. Exits non-zero,
printing no result, when the build, the run or the check fails.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("serve_open", "ingest_mixed", "tcp_cluster")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for rel in ("src/CMakeLists.txt", "tools/graph_engine_node.cpp"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            fail("engine source %s not found; run from a full checkout" % rel, 2)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_build_step(cmd, deadline)
        run_build_step(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 4),
                        "--target", "perfbench", "graph_engine_node"], deadline)


def run_build_step(cmd, deadline):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("build timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("build failed: " + " ".join(cmd))


def group_members(pgid):
    """Pids still alive in process group `pgid`."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # After the command name: state, ppid, pgrp, ...
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def stop_group(pgid):
    """Kill whatever the workload left in its process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def run(args, work_dir):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--node-bin", os.path.join(BUILD, "graph_engine_node"),
           "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        fail("workload %s timed out" % args.workload)
    stop_group(proc.pid)
    if proc.returncode != 0:
        fail("workload %s exited with code %d" % (args.workload, proc.returncode))
    return out.decode()


def check(output, trace):
    """The result line must name only BENCHMARK.json metrics, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    lines = [line for line in output.splitlines() if line.strip()]
    if not lines:
        fail("no result line")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line has keys %s" % sorted(result))
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for name, value in result["metrics"].items():
        if expected.get(name) != value["unit"]:
            fail("metric %s (%s) is not in BENCHMARK.json" % (name, value["unit"]))
    absent = sorted(set(expected) - set(result["metrics"]))
    # Per-layer figures may be absent when a registry name they read is
    # gone (the detail line lists it); end-to-end figures never are.
    if absent and not trace:
        fail("end-to-end metrics missing: %s" % ", ".join(absent))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    build()
    # Relative to ROOT, where the workload process runs: the path goes into
    # the cluster config, whose parser would cut an absolute path at a '#'.
    work_dir = os.path.join(os.path.basename(BUILD), "run-%d" % os.getpid())
    os.makedirs(os.path.join(ROOT, work_dir), exist_ok=True)
    try:
        output = run(args, work_dir)
    finally:
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    check(output, args.trace == 1)
    sys.stdout.write(output)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
