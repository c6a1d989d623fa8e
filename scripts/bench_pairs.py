#!/usr/bin/env python3
"""bench_pairs.py — the alternating parent/change pairs a perf PR quotes.

Runs `sh bench/run.sh --workload W --seed S --seconds 15 --trace 0` in two
checkouts, pair by pair, alternating which side goes first, keeps every run as
a JSON line, and prints the Markdown tables EXPERIMENTS.md carries: per
workload and end-to-end metric the parent's median and quartiles, the change's
median, the ratio, and in how many pairs the change read better. With
--trace-seed it adds one `--trace 1` pair and prints the named per-layer
metrics of both sides. Standard library only; one run at a time (the
benchmark pins itself to one processor).

    python3 scripts/bench_pairs.py --parent /root/scratch/parent --change . \\
        --pairs 10 --out /root/scratch/runs --trace-seed 1 \\
        --layers shard.assert_us,http.write_p50_us,core.plan.refresh_us

    python3 scripts/bench_pairs.py --out /root/scratch/runs --report-only
"""
import argparse
import json
import os
import statistics
import subprocess

WORKLOADS = ["vocab-write", "context-churn", "hot-read", "cold-rank"]
LOWER = {"setup_s", "rank_floor_us", "poll_floor_us", "apply_floor_us", "push_floor_us", "cpu_us_per_op", "rss_mb"}
ORDER = ["throughput_ops_s", "cpu_us_per_op", "rank_floor_us", "poll_floor_us", "push_floor_us",
         "apply_floor_us", "setup_s", "rss_mb"]


def run(checkout, workload, seed, trace):
    out = subprocess.run(
        ["sh", "bench/run.sh", "--workload", workload, "--seed", str(seed), "--seconds", "15", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
    res = json.loads(last)
    res["exit"] = out.returncode
    return res


def measure(args):
    os.makedirs(args.out, exist_ok=True)
    sides = {"parent": args.parent, "change": args.change}
    for w in args.workloads:
        with open(os.path.join(args.out, w + ".jsonl"), "a") as f:
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                for side in order:
                    res = run(sides[side], w, seed, 0)
                    f.write(json.dumps({"side": side, "seed": seed, "first": order[0], "result": res}) + "\n")
                    f.flush()
    if args.trace_seed is not None:
        with open(os.path.join(args.out, "trace.jsonl"), "a") as f:
            for w in args.trace_workloads:
                for side in ["parent", "change"]:
                    res = run(sides[side], w, args.trace_seed, 1)
                    f.write(json.dumps({"side": side, "workload": w, "seed": args.trace_seed, "result": res}) + "\n")
                    f.flush()


def fmt(x):
    if x == int(x) and x < 1000:
        return str(int(x))
    if x >= 1000:
        return f"{x:,.0f}".replace(",", " ")
    if x >= 100:
        return f"{x:.1f}"
    return f"{x:.3g}" if x < 10 else f"{x:.2f}"


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def report(args):
    for w in args.workloads:
        path = os.path.join(args.out, w + ".jsonl")
        if not os.path.exists(path):
            continue
        runs = [json.loads(l) for l in open(path)]
        by = {"parent": {}, "change": {}}
        failed = attempted = bad = 0
        for r in runs:
            res = r["result"]
            failed += res.get("failed", 0)
            attempted += res.get("attempted", 0)
            bad += 0 if res.get("correct") and res.get("exit") == 0 else 1
            by[r["side"]][r["seed"]] = {k: v["value"] for k, v in res.get("metrics", {}).items()}
        seeds = sorted(set(by["parent"]) & set(by["change"]))
        print(f"\n`{w}` — {len(seeds)} pairs (seeds {seeds[0]}–{seeds[-1]}), "
              f"{failed} failed of {attempted} ops, {bad} runs with a check not holding\n")
        print("| metric | parent median [q1 q3] | change median [q1 q3] | change/parent | change better |")
        print("| --- | ---: | ---: | ---: | ---: |")
        for m in ORDER:
            p = [by["parent"][s][m] for s in seeds]
            c = [by["change"][s][m] for s in seeds]
            wins = sum(1 for a, b in zip(p, c) if (b < a if m in LOWER else b > a))
            pq, cq = quartiles(p), quartiles(c)
            pm, cm = statistics.median(p), statistics.median(c)
            print(f"| `{m}` | {fmt(pm)} [{fmt(pq[0])} {fmt(pq[1])}] | {fmt(cm)} [{fmt(cq[0])} {fmt(cq[1])}] "
                  f"| {cm / pm:.3f} | {wins}/{len(seeds)} |")
    path = os.path.join(args.out, "trace.jsonl")
    if os.path.exists(path):
        runs = [json.loads(l) for l in open(path)]
        for w in sorted({r["workload"] for r in runs}):
            sides = {r["side"]: {k: v["value"] for k, v in r["result"].get("metrics", {}).items()}
                     for r in runs if r["workload"] == w}
            print(f"\n`{w}`, `--trace 1 --seed {runs[0]['seed']}`, one pair\n")
            print("| per-layer metric | parent | change |")
            print("| --- | ---: | ---: |")
            for m in args.layers:
                if m in sides.get("parent", {}) and m in sides.get("change", {}):
                    print(f"| `{m}` | {fmt(sides['parent'][m])} | {fmt(sides['change'][m])} |")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", type=lambda s: s.split(","), default=WORKLOADS)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--trace-workloads", type=lambda s: s.split(","), default=["vocab-write"])
    ap.add_argument("--layers", type=lambda s: s.split(","), default=[])
    ap.add_argument("--report-only", action="store_true")
    args = ap.parse_args()
    if not args.report_only:
        if not args.parent or not args.change:
            ap.error("--parent and --change are required to measure")
        args.parent, args.change = os.path.abspath(args.parent), os.path.abspath(args.change)
        measure(args)
    report(args)


if __name__ == "__main__":
    main()
