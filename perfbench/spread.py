#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports how much each metric spreads.

For every workload and end-to-end metric it prints the median of the runs,
their first and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workloads stream-bulk --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --json runs.json
    python3 perfbench/spread.py --trace 1 --seeds 1-3

Without --workloads every workload in BENCHMARK.json runs. --seconds
overrides BENCHMARK.json's run_seconds. --json writes every run's result and
report lines and the summary to a file.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = args.seconds or bench["run_seconds"]

    runs, summary = {}, {}
    for w in workloads:
        runs[w] = []
        for s in seeds(args.seeds):
            line, report = run(bench, w, s, seconds, args.trace)
            runs[w].append({"seed": s, **line, "report": report})
            print(f"{w} seed {s}: " + ", ".join(
                f"{m['name']}={line['metrics'][m['name']]['value']:.6g}" for m in metrics), flush=True)
        summary[w] = {}
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            summary[w][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread}

    print()
    for w in workloads:
        for m in metrics:
            s = summary[w][m["name"]]
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                flag = "ok" if s["spread"] < bound / 3 else ("within bound" if s["spread"] <= bound else "TOO WIDE")
            print(f"{w:15s} {m['name']:26s} median {s['median']:<12.6g} spread {s['spread']:.4f}"
                  + (f"  bound {bound}  {flag}" if bound is not None else ""))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seconds": seconds, "trace": args.trace, "runs": runs, "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()
