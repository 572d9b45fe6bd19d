#!/usr/bin/env python3
"""Run one benchmark workload many times and compare two sides.

    python3 perfbench/repeat.py --workload queens-local --pairs 10 \
        --a <checkout> [--b <other checkout>]

Each side is a checkout holding `BENCHMARK.json` and `perfbench/`. The
script builds each side once (into `<checkout>/.bench_build`), then runs
pair i, with seed i + 1, as A then B for even i and B then A for odd i, so
neither side always runs first. Every run lasts side A's `run_seconds`.
With two checkouts both sides of a pair get the same seed. With one
checkout (`--b` omitted) the two sides are two sets of runs of the same
build; side B then takes seeds 1000 higher, so the sets differ in their
inputs as two independent sets of runs would.

For every end-to-end metric it prints each side's median, quartiles
(`statistics.quantiles(n=4)`) and spread (quartile distance over median),
how many pairs each side won (ties count for neither), and how far B's
median is from A's as a share of A's. It also prints each side's share of
failed operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def build(checkout):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(checkout, "perfbench", "Cargo.toml")],
        cwd=checkout, env=env, check=True)
    return os.path.join(checkout, ".bench_build", "release", "macs-perfbench")


def run_once(binary, checkout, workload, seed, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--a", required=True, help="checkout of side A")
    ap.add_argument("--b", help="checkout of side B (default: side A again)")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")

    a = os.path.abspath(args.a)
    b = os.path.abspath(args.b) if args.b else a
    bench = benchmark(a)
    seconds = bench["run_seconds"]
    bins = {"A": build(a), "B": build(b) if b != a else None}
    bins["B"] = bins["B"] or bins["A"]
    dirs = {"A": a, "B": b}
    offset = {"A": 0, "B": 0 if b != a else 1000}

    results = {"A": [], "B": []}
    for i in range(args.pairs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in order:
            seed = 1 + i + offset[side]
            r = run_once(bins[side], dirs[side], args.workload, seed, seconds)
            results[side].append(r)
            print(f"pair {i} side {side} seed {seed}: {json.dumps(r['metrics'])}",
                  file=sys.stderr, flush=True)

    print(f"workload {args.workload}, {args.pairs} pairs, {seconds} s runs")
    for side in ("A", "B"):
        att = sum(r["attempted"] for r in results[side])
        fail = sum(r["failed"] for r in results[side])
        ok = all(r["correct"] for r in results[side])
        print(f"side {side}: correct={ok} failed {fail}/{att}")
    print("| metric | unit | A median | A q1 | A q3 | A spread | B median | B q1 | B q3 "
          "| B spread | A wins | B wins | B vs A |")
    print("|---|---|---|---|---|---|---|---|---|---|---|---|---|")
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        va = [r["metrics"][name]["value"] for r in results["A"]]
        vb = [r["metrics"][name]["value"] for r in results["B"]]
        sa, sb = summary(va), summary(vb)
        a_wins = sum((x < y) if lower else (x > y) for x, y in zip(va, vb))
        b_wins = sum((y < x) if lower else (y > x) for x, y in zip(va, vb))
        delta = (sb[0] - sa[0]) / sa[0] if sa[0] else float("nan")
        print(f"| {name} | {m['unit']} | {sa[0]:.6g} | {sa[1]:.6g} | {sa[2]:.6g} | {sa[3]:.3f} "
              f"| {sb[0]:.6g} | {sb[1]:.6g} | {sb[2]:.6g} | {sb[3]:.3f} "
              f"| {a_wins} | {b_wins} | {delta:+.3f} |")


if __name__ == "__main__":
    main()
