#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs run.py K times per workload, each with another seed and with
BENCHMARK.json's run_seconds, and prints for each metric its median and
quartiles, the spread (Q3 - Q1) / median, and the metric's bound from
BENCHMARK.json. With --compare, it also prints how far each median moved from
an earlier set, in either direction. It exits 1 when a move exceeds its
bound, or a spread does, except that of setup_s: set-up time is judged by
its median alone. Run from the root of a checkout:

    python3 e2ebench/steady.py --runs 10 --out e2ebench/results/<label>.json
    python3 e2ebench/steady.py --runs 10 --seed0 101 --compare e2ebench/results/<label>.json
    python3 e2ebench/steady.py --runs 3 --trace 1 --out e2ebench/results/calibration-<label>.json

With --trace 1 the metrics are the per-layer ones, which have no bound; the
serve capacities frozen in workloads.cc are the serve.max_rps medians of such
a set. The saved file records the machine (nproc, CPU, compiler, counting
kernel) next to every run's metrics, so results can be committed and compared
later.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        return json.load(f)


def machine():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        compiler = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        compiler = ""
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "system": platform.platform()}


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    info = {}
    for line in proc.stderr.splitlines():
        if line.startswith("e2ebench: info "):
            info = json.loads(line[len("e2ebench: info "):])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    return json.loads(lines[-1]), info


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def moved_by(old, new):
    """How far `new` moved from `old`, as a signed share of `old`."""
    return 0.0 if old == 0 else (new - old) / abs(old)


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the runs and summary here")
    parser.add_argument("--compare", help="an earlier --out file")
    parser.add_argument("--label", default="", help="free text, e.g. a commit")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    previous = {}
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)

    result = {"label": args.label, "machine": machine(), "seconds": seconds,
              "trace": args.trace, "compared_with": args.compare,
              "workloads": {}}
    worst_spread = 0.0
    worst_move = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.seed0 + i
            line, info = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, "result": line, "info": info})
            print("%s seed %d: correct=%s failed=%d/%d" % (
                workload, seed, line["correct"], line["failed"],
                line["attempted"]), flush=True)
        before = previous.get("workloads", {}).get(workload, {}).get(
            "summary", {})
        summary = {}
        print("\n%-34s %12s %12s %12s %7s %6s %s" % (
            workload, "median", "q1", "q3", "spread", "bound", "vs before"))
        for m in metrics:
            name = m["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread}
            bound = m.get("bound")
            note = ""
            if name == "setup_s":
                note = "spread not checked"
            elif bound is not None:
                worst_spread = max(worst_spread, spread / bound)
                if spread > bound:
                    note = "SPREAD > BOUND"
                elif spread > bound / 3:
                    note = "spread > bound/3"
            if name in before:
                change = moved_by(before[name]["median"], med)
                summary[name]["change"] = change
                note += " %+.3f" % change
                if bound is not None:
                    worst_move = max(worst_move, abs(change) / bound)
                    if abs(change) > bound:
                        note += " MOVED > BOUND"
            print("%-34s %12.5g %12.5g %12.5g %7.3f %6s %s" % (
                name, med, q1, q3, spread,
                "-" if bound is None else "%.2f" % bound, note))
        result["workloads"][workload] = {
            "kernel": runs[0]["info"].get("kernel"), "runs": runs,
            "summary": summary}
        print(flush=True)
    print("largest spread / bound: %.3f" % worst_spread)
    if previous:
        print("largest |median change| / bound: %.3f" % worst_move)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
    return 1 if worst_spread > 1 or worst_move > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
