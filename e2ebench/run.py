#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark (e2ebench/CMakeLists.txt,
which compiles ../src) into .bench_build/, sets the workload up from the seed
in one process, runs the timed passes and the serve phase in a second process
whose peak RSS is measured, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 the per-layer metrics, and the recorded spans are written to
.bench_build/traces/. Exits non-zero without a result line when the benchmark
cannot run (for instance when the sources are missing).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "e2ebench")
SETUP_TIMEOUT_S = 300
RUN_TIMEOUT_S = 170


def log(message):
    print("e2ebench: " + message, file=sys.stderr, flush=True)


def declared_metrics():
    """The metric names and units BENCHMARK.json declares, per mode."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2e_bench",
                  "-j", "4"])
    with open(build_log, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                log("build failed; see " + build_log)
                return None
    return os.path.join(BUILD_DIR, "e2e_bench")


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.startswith("{")]
    return json.loads(lines[-1]) if lines else None


def set_up(exe, args, work):
    result = subprocess.run(
        [exe, "setup", "--workload", args.workload, "--seed", str(args.seed),
         "--dir", work],
        stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
    report = last_json_line(result.stdout) if result.returncode == 0 else None
    if report is None:
        log("set-up failed")
    return report


def timed_run(exe, args, work):
    """Runs the timed process; returns (its JSON report, peak RSS in MB)."""
    command = [exe, "run", "--workload", args.workload, "--seed",
               str(args.seed), "--dir", work, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(".bench_build", "traces",
                             "%s-%d.spans.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        command += ["--spans", spans]
    out_path = os.path.join(work, "run.out")
    with open(out_path, "w") as out:
        proc = subprocess.Popen(command, stdout=out)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    while True:
        # wait4 gives this child's own resource usage, so the peak RSS is
        # that of the timed process alone.
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            break
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            log("timed run exceeded %d s" % RUN_TIMEOUT_S)
            return None, 0.0
        time.sleep(0.05)
    with open(out_path) as f:
        report = last_json_line(f.read()) if proc.returncode == 0 else None
    if report is None:
        log("timed run failed (exit %d)" % proc.returncode)
    return report, usage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = declared_metrics()[args.trace]
    exe = build()
    if exe is None:
        return 1
    work = os.path.join(".bench_build", "work",
                        "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup = set_up(exe, args, work)
        if setup is None:
            return 1
        report, peak_rss_mb = timed_run(exe, args, work)
        if report is None:
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(report["metrics"])
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setup["setup_s"]),
                              "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    missing = [name for name in declared if name not in metrics]
    wrong_unit = [name for name in declared
                  if name in metrics and metrics[name]["unit"] != declared[name]]
    if missing or wrong_unit:
        log("metrics missing %s, units differ for %s" % (missing, wrong_unit))
        return 1
    log("info " + json.dumps({"kernel": report.get("kernel"),
                              "first_failure": report.get("first_failure"),
                              "setup_reps_s": setup["setup_s"],
                              "pass_s": report.get("pass_s")}))
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: metrics[name] for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
