#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload of BENCHMARK.json several times, each with another
seed, and prints for each end-to-end metric its median, first and third
quartile (as statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median beside the metric's bound. Run it from the repository
root:

    python3 perfbench/steady.py                   # 10 seeds per workload
    python3 perfbench/steady.py --runs 5 --workloads mining
    python3 perfbench/steady.py --set-bounds      # write bounds, then re-check
    python3 perfbench/steady.py --overhead        # traced against untraced

It exits 1 when a spread exceeds its bound (setup_s's too), or when the
share of failed operations differs between runs of a workload.
--set-bounds sets each bound to three times the largest spread seen for
the metric (at least 0.05, at most 0.25; setup_s, which carries the most
host noise, always gets the largest, 0.25) and writes BENCHMARK.json
back.
"""

import argparse
import fractions
import json
import math
import statistics
import subprocess
import sys

BENCH = "BENCHMARK.json"


def run_once(bench, workload, seed, seconds, trace):
    cmd = list(bench["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {p.returncode}")
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def traced_table(lines):
    """The end-to-end figures a traced run prints in its table."""
    out, on = {}, False
    for line in lines:
        if line.startswith("end to end"):
            on = True
            continue
        if on and not line.startswith("  "):
            break
        if on:
            name, value = line.split()[:2]
            out[name] = float(value)
    return out


def spread_of(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else math.inf


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--set-bounds", action="store_true")
    ap.add_argument("--overhead", action="store_true")
    ap.add_argument("--save", default="", help="write every run's result line to this JSON file")
    args = ap.parse_args()

    with open(BENCH) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    if args.overhead:
        for w in names:
            plain, _ = run_once(bench, w, args.first_seed, seconds, 0)
            _, lines = run_once(bench, w, args.first_seed, seconds, 1)
            traced = traced_table(lines)
            for name, m in sorted(plain["metrics"].items()):
                if name in traced and m["value"]:
                    pct = 100 * (traced[name] / m["value"] - 1)
                    print(f"{w:8s} {name:24s} untraced {m['value']:12.6g} traced {traced[name]:12.6g} {pct:+7.1f}%")
        return 0

    ok = True
    worst = {}
    saved = {}
    for w in names:
        values, shares = {}, set()
        for i in range(args.runs):
            seed = args.first_seed + i
            res, _ = run_once(bench, w, seed, seconds, 0)
            saved.setdefault(w, []).append({"seed": seed, **res})
            shares.add(fractions.Fraction(res["failed"], res["attempted"]))
            if not res["correct"]:
                ok = False
                print(f"{w} seed {seed}: correct is false")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: attempted {res['attempted']} failed {res['failed']}", file=sys.stderr)
        if len(shares) > 1:
            ok = False
            print(f"{w}: the share of failed operations differs between runs: {sorted(map(str, shares))}")
        print(f"\n{w}: {args.runs} runs of {seconds} s")
        print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name in sorted(values):
            q1, q2, q3, sp = spread_of(values[name])
            bound = bounds.get(name)
            mark = ""
            if bound is None:
                mark = "  (not an end-to-end metric)"
            elif sp > bound:
                mark, ok = "  OVER BOUND", False
            elif sp > bound / 3:
                mark = "  above a third of the bound"
            print(f"  {name:24s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.3f} {bound if bound is not None else '-':>6}{mark}")
            worst[name] = max(worst.get(name, 0), sp)

    if args.save:
        with open(args.save, "w") as fh:
            json.dump(saved, fh, indent=1)
    if args.set_bounds:
        for m in bench["end_to_end"]:
            if m["name"] == "setup_s":
                m["bound"] = 0.25
            elif m["name"] in worst:
                m["bound"] = round(min(0.25, max(0.05, math.ceil(300 * worst[m["name"]]) / 100)), 2)
        with open(BENCH, "w") as fh:
            json.dump(bench, fh, indent=2)
            fh.write("\n")
        print("\nbounds written to BENCHMARK.json:")
        for m in bench["end_to_end"]:
            print(f"  {m['name']:24s} {m['bound']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
