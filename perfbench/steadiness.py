#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end
metric's spread: the distance between the first and third quartile of its
values as a share of their median, next to the metric's bound in
BENCHMARK.json.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b]

Run from the repository root. It runs BENCHMARK.json's command untraced.
Raw results are appended to perfbench/out/steadiness.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    os.makedirs("perfbench/out", exist_ok=True)
    ok = True
    for w in names:
        values = {m["name"]: [] for m in metrics}
        raw = {}
        for s in seeds(a.seeds):
            args = ["--workload", w, "--seed", str(s),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(command + args, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
            with open("perfbench/out/steadiness.jsonl", "a") as f:
                f.write(json.dumps({"workload": w, "seed": s, "exit": p.returncode,
                                    "result": last}) + "\n")
            if p.returncode != 0:
                print(f"{w} seed {s}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            r = json.loads(last)
            for line in p.stdout.splitlines():
                f = line.split()
                if f and f[0] == "raw":
                    raw.setdefault(f[1], []).append(float(f[2]))
            for m in metrics:
                values[m["name"]].append(r["metrics"][m["name"]]["value"])
            print(f"{w} seed {s}: " + " ".join(
                f"{k}={r['metrics'][k]['value']:.4g}" for k in values), flush=True)
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m["bound"]
            flag = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER")
            print(f"  {w:16s} {m['name']:18s} median {med:.5g} spread {spread:.3f}"
                  f" bound {bound} {flag}")
        for name, v in raw.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            print(f"  {w:16s} raw {name:14s} median {med:.5g} spread {(q3 - q1) / med:.3f}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
