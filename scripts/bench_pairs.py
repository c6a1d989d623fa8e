#!/usr/bin/env python3
"""bench_pairs.py — the alternating parent/change pairs a perf PR quotes.

Runs `sh bench/run.sh --workload W --seed S --seconds 15 --trace 0` in two
checkouts, pair by pair, alternating which side goes first, keeps every run as
a JSON line, and prints the Markdown tables EXPERIMENTS.md carries: per
workload and end-to-end metric the parent's median and quartiles, the change's
median, the ratio, in how many pairs the change read better, and the verdict
of the choosing-metrics guide's rule under the bound BENCHMARK.json fixes for
the metric. A run that crashed or printed no metrics is kept as a failed run
(exit code and the tail of its stderr); its pair is left out of the medians
and counts as a pair the change did not win, and the failed runs are counted
above the table beside each side's failed and attempted operations. With
--trace-seed it adds one `--trace 1` pair and prints the named per-layer
metrics of both sides.
Standard library only; one run at a time (the benchmark pins itself to one
processor). CI's lint job runs the doctests: python3 -m doctest
scripts/bench_pairs.py

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
BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def load_bench(path=BENCHMARK):
    """The end-to-end metrics the benchmark declares, in its order: name ->
    (which way is better, the bound by which it may worsen).

    >>> load_bench()["poll_floor_us"]
    ('lower', 0.25)
    """
    with open(path) as f:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(f)["end_to_end"]}


def parse_run(code, stdout, stderr):
    """One run's result: the JSON object on the last line of its stdout, with
    the exit code — or, when that line is not a JSON object with metrics, a
    failed run that names the exit code and the tail of stderr.

    >>> parse_run(0, 'built\\n{"metrics": {"rss_mb": {"value": 70}}}\\n', '')["metrics"]["rss_mb"]["value"]
    70
    >>> parse_run(2, 'built\\npanic: boom\\n', 'goroutine 1\\nexit status 2\\n')["failed_run"]
    'exit 2: goroutine 1 | exit status 2'
    >>> parse_run(0, '{"correct": true}', '')["failed_run"]
    'exit 0: no metrics'
    """
    lines = stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if lines else None
    except ValueError:
        res = None
    if not isinstance(res, dict) or not res.get("metrics"):
        tail = " | ".join(stderr.strip().splitlines()[-3:]) or "no metrics"
        return {"exit": code, "failed_run": f"exit {code}: {tail}"}
    res["exit"] = code
    return res


def run(checkout, workload, seed, trace):
    out = subprocess.run(
        ["sh", "bench/run.sh", "--workload", workload, "--seed", str(seed), "--seconds", "15", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    return parse_run(out.returncode, out.stdout, out.stderr)


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
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def collect(records):
    """Per side and seed, the metric values of every run that completed; and
    the runs that did not (a record written before failed runs were kept as
    such, with no metrics, counts as one).

    >>> ok = {"metrics": {"rss_mb": {"value": 70}}, "exit": 0, "correct": True}
    >>> crashed = parse_run(2, "panic: boom", "exit status 2")
    >>> by, failed = collect([{"side": "parent", "seed": 1, "result": ok},
    ...                       {"side": "change", "seed": 1, "result": crashed},
    ...                       {"side": "parent", "seed": 2, "result": ok},
    ...                       {"side": "change", "seed": 2, "result": {"exit": 0}}])
    >>> paired(by), failed
    ([], ['change seed 1: exit 2: exit status 2', 'change seed 2: exit 0: no metrics'])
    """
    by, failed = {"parent": {}, "change": {}}, []
    for r in records:
        res = r["result"]
        if "failed_run" in res or not res.get("metrics"):
            failed.append(f"{r['side']} seed {r['seed']}: {res.get('failed_run', 'exit %s: no metrics' % res.get('exit'))}")
            continue
        by[r["side"]][r["seed"]] = {k: v["value"] for k, v in res["metrics"].items()}
    return by, failed


def paired(by):
    """The seeds both sides completed."""
    return sorted(set(by["parent"]) & set(by["change"]))


def ops(records):
    """Per side, the operations that failed and those attempted, summed over
    the side's runs; and whether the change's failed share is the higher.

    >>> run = lambda side, failed: {"side": side, "result": {"failed": failed, "attempted": 1000}}
    >>> ops([run("parent", 0), run("change", 0), run("parent", 1), run("change", 0)])
    ({'parent': (1, 2000), 'change': (0, 2000)}, False)
    >>> ops([run("parent", 0), run("change", 3), run("parent", 0), run("change", 0)])[1]
    True
    """
    sums = {"parent": (0, 0), "change": (0, 0)}
    for r in records:
        failed, attempted = sums[r["side"]]
        sums[r["side"]] = (failed + r["result"].get("failed", 0), attempted + r["result"].get("attempted", 0))
    share = {side: f / a if a else 0 for side, (f, a) in sums.items()}
    return sums, share["change"] > share["parent"]


def verdict(parent, change, better, bound, pairs=None, more_failed=False):
    """The guide's rule for one metric over the pairs (parent[i] and change[i]
    are one pair): 'gain' when the change reads better in at least nine tenths
    of the pairs run — pairs, which counts the ones a failed run left out of
    parent and change, and defaults to the completed ones — and its median is
    better by more than the parent's q3 - q1, unless more_failed says a larger
    share of the change's operations failed; 'worse' when its median is worse
    by more than bound times the parent's; otherwise 'unresolved' when the
    parent's q3 - q1 alone exceeds the bound (unless every change run beats
    every parent run), else 'within bound'.

    >>> parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    >>> verdict(parent, [80, 81, 79, 80, 82, 78, 80, 81, 79, 80], "lower", 0.25)
    'gain'
    >>> verdict(parent, [140] * 10, "lower", 0.25)
    'worse'
    >>> verdict(parent, [101, 100, 99, 101, 100, 99, 101, 100, 98, 102], "lower", 0.25)
    'within bound'
    >>> verdict([50, 150, 60, 140, 70, 130, 80, 120, 90, 110], [100] * 10, "lower", 0.25)
    'unresolved'
    >>> verdict([10, 11, 10, 11, 10, 11, 10, 11, 10, 11], [12] * 10, "higher", 0.25)
    'gain'

    Eight wins of eight completed pairs are not nine tenths of ten run, and a
    gain does not count when more of the change's operations failed:

    >>> verdict(parent[:8], [80] * 8, "lower", 0.25)
    'gain'
    >>> verdict(parent[:8], [80] * 8, "lower", 0.25, pairs=10)
    'within bound'
    >>> verdict(parent, [80] * 10, "lower", 0.25, more_failed=True)
    'within bound'
    """
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (pm - cm)  # > 0: the change's median is better
    if wins >= 0.9 * (pairs or len(parent)) and gain > q3 - q1 and not more_failed:
        return "gain"
    if -gain > bound * abs(pm):
        return "worse"
    if q3 - q1 > bound * abs(pm) and not all(sign * (p - c) > 0 for p in parent for c in change):
        return "unresolved"
    return "within bound"


def report(args):
    bench = load_bench()
    for w in args.workloads:
        path = os.path.join(args.out, w + ".jsonl")
        if not os.path.exists(path):
            continue
        records = [json.loads(l) for l in open(path)]
        by, failed = collect(records)
        seeds = paired(by)
        pairs_run = len({r["seed"] for r in records})
        sums, more_failed = ops(records)
        bad = sum(0 if "failed_run" in r["result"] or (r["result"].get("correct") and r["result"].get("exit") == 0) else 1
                  for r in records)
        span = f"seeds {seeds[0]}–{seeds[-1]}" if seeds else "none complete"
        print(f"\n`{w}` — {len(seeds)} of {pairs_run} pairs complete ({span}), {len(failed)} failed runs left out; "
              f"failed/attempted ops: parent {sums['parent'][0]}/{sums['parent'][1]}, "
              f"change {sums['change'][0]}/{sums['change'][1]}; {bad} runs with a check not holding\n")
        for f in failed:
            print(f"- failed run: {f}")
        if not seeds:
            continue
        print("| metric | parent median [q1 q3] | change median [q1 q3] | change/parent | change better | verdict |")
        print("| --- | ---: | ---: | ---: | ---: | --- |")
        for m, (better, bound) in bench.items():
            if not all(m in by[side][s] for side in by for s in seeds):
                continue
            p = [by["parent"][s][m] for s in seeds]
            c = [by["change"][s][m] for s in seeds]
            wins = sum(1 for a, b in zip(p, c) if (b < a if better == "lower" else b > a))
            pq, cq = quartiles(p), quartiles(c)
            pm, cm = statistics.median(p), statistics.median(c)
            print(f"| `{m}` | {fmt(pm)} [{fmt(pq[0])} {fmt(pq[1])}] | {fmt(cm)} [{fmt(cq[0])} {fmt(cq[1])}] "
                  f"| {cm / pm:.3f} | {wins}/{pairs_run} | {verdict(p, c, better, bound, pairs_run, more_failed)} (±{bound:.0%}) |")
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
