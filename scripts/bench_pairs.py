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
metrics of both sides. With --record it also writes the runs it keeps as
BENCH_PR<NN>.json, the repo's perf trajectory (see record for its fields);
--backfill writes such a record from an EXPERIMENTS.md section's tables, and
--trajectory chains the committed records' in-pair ratios into each metric's
running product since the first record.
Standard library only; one run at a time (the benchmark pins itself to one
processor). CI's lint job runs the doctests: python3 -m doctest
scripts/bench_pairs.py

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --pairs 10 --out /tmp/runs --trace-seed 1 \\
        --layers shard.assert_us,http.write_p50_us,core.plan.refresh_us \\
        --record BENCH_PR46.json

    python3 scripts/bench_pairs.py --out /tmp/runs --report-only

    python3 scripts/bench_pairs.py --backfill ROWS --record BENCH_PR45.json

    python3 scripts/bench_pairs.py --trajectory
"""
import argparse
import json
import math
import os
import platform
import re
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


def summarize(args):
    """Per workload with kept runs, what its report shows: the pairs, the
    failed runs and operations, and per end-to-end metric the figures of
    metric_row. report prints it and record stores it.

    >>> import tempfile
    >>> out = tempfile.mkdtemp()
    >>> run = lambda side, seed, v: json.dumps({"side": side, "seed": seed, "result": {
    ...     "metrics": {"rank_floor_us": {"value": v}}, "exit": 0, "correct": True, "failed": 0, "attempted": 9}})
    >>> with open(os.path.join(out, "cold-rank.jsonl"), "w") as f:
    ...     _ = f.write("\\n".join([run("parent", 1, 10), run("change", 1, 8), run("parent", 2, 12), run("change", 2, 9)]))
    >>> s = summarize(argparse.Namespace(out=out, workloads=["cold-rank", "hot-read"]))
    >>> list(s), s["cold-rank"]["seeds"], s["cold-rank"]["ops"]
    (['cold-rank'], [1, 2], {'parent': (0, 18), 'change': (0, 18)})
    >>> s["cold-rank"]["metrics"]["rank_floor_us"]["change"]
    {'median': 8.5, 'q1': 8.25, 'q3': 8.75}
    """
    bench = load_bench()
    summary = {}
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
        metrics = {}
        for m, (better, bound) in bench.items():
            if not seeds or not all(m in by[side][s] for side in by for s in seeds):
                continue
            p = [by["parent"][s][m] for s in seeds]
            c = [by["change"][s][m] for s in seeds]
            metrics[m] = metric_row(p, c, better, bound, pairs_run, more_failed)
        summary[w] = {"seeds": seeds, "pairs_run": pairs_run, "failed": failed, "ops": sums, "bad": bad,
                      "metrics": metrics}
    return summary


def metric_row(p, c, better, bound, pairs_run, more_failed):
    """One metric's figures over the completed pairs (p[i] and c[i] are one
    pair): each side's median and quartiles, the ratio, the pairs the change
    read better in, and the verdict.

    >>> metric_row([10, 12, 11], [8, 9, 13], "lower", 0.25, 3, False)["wins"]
    2
    """
    side = lambda xs: dict(zip(("median", "q1", "q3"), (statistics.median(xs),) + quartiles(xs)))
    pm, cm = statistics.median(p), statistics.median(c)
    return {"better": better, "bound": bound, "parent": side(p), "change": side(c), "ratio": cm / pm,
            "wins": sum(1 for a, b in zip(p, c) if (b < a if better == "lower" else b > a)), "pairs": pairs_run,
            "verdict": verdict(p, c, better, bound, pairs_run, more_failed)}


def trace_layers(args):
    """The --trace 1 pair: its seed and per workload each side's metrics, the
    named layers only when --layers names some."""
    path = os.path.join(args.out, "trace.jsonl")
    if not os.path.exists(path):
        return None, {}
    runs = [json.loads(l) for l in open(path)]
    layers = {}
    for w in sorted({r["workload"] for r in runs}):
        layers[w] = {r["side"]: {k: v["value"] for k, v in r["result"].get("metrics", {}).items()
                                 if not args.layers or k in args.layers}
                     for r in runs if r["workload"] == w}
    return runs[0]["seed"], layers


def report(args):
    for w, s in summarize(args).items():
        seeds, pairs_run, sums = s["seeds"], s["pairs_run"], s["ops"]
        span = f"seeds {seeds[0]}–{seeds[-1]}" if seeds else "none complete"
        print(f"\n`{w}` — {len(seeds)} of {pairs_run} pairs complete ({span}), {len(s['failed'])} failed runs left out; "
              f"failed/attempted ops: parent {sums['parent'][0]}/{sums['parent'][1]}, "
              f"change {sums['change'][0]}/{sums['change'][1]}; {s['bad']} runs with a check not holding\n")
        for f in s["failed"]:
            print(f"- failed run: {f}")
        if not seeds:
            continue
        print("| metric | parent median [q1 q3] | change median [q1 q3] | change/parent | change better | verdict |")
        print("| --- | ---: | ---: | ---: | ---: | --- |")
        for m, r in s["metrics"].items():
            p, c = r["parent"], r["change"]
            print(f"| `{m}` | {fmt(p['median'])} [{fmt(p['q1'])} {fmt(p['q3'])}] | {fmt(c['median'])} [{fmt(c['q1'])} {fmt(c['q3'])}] "
                  f"| {r['ratio']:.3f} | {r['wins']}/{r['pairs']} | {r['verdict']} (±{r['bound']:.0%}) |")
    seed, layers = trace_layers(args)
    for w, sides in layers.items():
        print(f"\n`{w}`, `--trace 1 --seed {seed}`, one pair\n")
        print("| per-layer metric | parent | change |")
        print("| --- | ---: | ---: |")
        for m in args.layers:
            if m in sides.get("parent", {}) and m in sides.get("change", {}):
                print(f"| `{m}` | {fmt(sides['parent'][m])} | {fmt(sides['change'][m])} |")


def output(cmd, cwd):
    """cmd's stdout in cwd, stripped; "" when it cannot run or fails."""
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, check=False)
    except OSError:
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def git_commit(checkout):
    """The checkout's HEAD commit, with "-dirty" when a tracked file differs
    from it; None when the checkout is no git work tree of its own (a copy of
    a change not yet committed: the commit that adds the record)."""
    top = output(["git", "rev-parse", "--show-toplevel"], checkout)
    if not top or os.path.realpath(top) != os.path.realpath(checkout):
        return None
    dirty = output(["git", "status", "--porcelain", "--untracked-files=no"], checkout)
    return output(["git", "rev-parse", "HEAD"], checkout) + ("-dirty" if dirty else "")


def host(checkout):
    """The host line: cpu model, processors, kernel and the Go toolchain the
    checkout builds with."""
    cpu = None
    if os.path.exists("/proc/cpuinfo"):
        cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name")), None)
    return {"cpu": cpu or platform.processor(), "nproc": os.cpu_count(), "kernel": platform.release(),
            "go": output(["go", "version"], checkout) or None}


def parse_loc(text):
    """scripts/loc.sh's table: row name -> code lines.

    >>> parse_loc("internal/core          1277\\ntotal                  6996\\ndata layer             4305\\n")
    {'internal/core': 1277, 'total': 6996, 'data layer': 4305}
    """
    rows = {}
    for line in text.splitlines():
        name, _, n = line.rstrip().rpartition(" ")
        if name.strip() and n.isdigit():
            rows[name.strip()] = int(n)
    return rows


def loc(checkout):
    return parse_loc(output(["sh", "scripts/loc.sh"], checkout))


def pr_number(path):
    """The PR a record's file name carries.

    >>> pr_number("/x/BENCH_PR46.json"), pr_number("runs.json")
    (46, None)
    """
    m = re.fullmatch(r"BENCH_PR(\d+)\.json", os.path.basename(path))
    return int(m.group(1)) if m else None


def record(args, summary, seed, layers):
    """The perf trajectory's record of one measured change (BENCH_PR<NN>.json):
    per workload and end-to-end metric both sides' medians and quartiles, the
    ratio, the pairs won and the verdict; the --trace 1 pair's layers; the host;
    both commits; and both checkouts' loc.sh rows. A back-filled record
    (backfill) has the same shape, "backfilled": true, and only what its
    source gave.

    >>> args = argparse.Namespace(record="BENCH_PR7.json", parent=".", change=".")
    >>> summary = {"hot-read": {"seeds": [1, 2], "pairs_run": 2, "failed": [], "ops": {"parent": (0, 9), "change": (1, 9)},
    ...     "bad": 0, "metrics": {"rss_mb": metric_row([70, 72], [60, 61], "lower", 0.15, 2, False)}}}
    >>> r = record(args, summary, 1, {"hot-read": {"parent": {"shard.rank_us": 1.5}, "change": {"shard.rank_us": 1.2}}})
    >>> list(r)
    ['schema', 'pr', 'backfilled', 'commits', 'host', 'loc', 'workloads', 'trace']
    >>> list(r["host"]), list(r["commits"]), list(r["loc"])
    (['cpu', 'nproc', 'kernel', 'go'], ['parent', 'change'], ['parent', 'change'])
    >>> w = r["workloads"]["hot-read"]
    >>> list(w), w["ops"]
    (['pairs_complete', 'pairs_run', 'failed_runs', 'checks_not_holding', 'ops', 'metrics'], {'parent': {'failed': 0, 'attempted': 9}, 'change': {'failed': 1, 'attempted': 9}})
    >>> w["metrics"]["rss_mb"]
    {'better': 'lower', 'bound': 0.15, 'parent': {'median': 71.0, 'q1': 70.5, 'q3': 71.5}, 'change': {'median': 60.5, 'q1': 60.25, 'q3': 60.75}, 'ratio': 0.852112676056338, 'wins': 2, 'pairs': 2, 'verdict': 'gain'}
    >>> r["trace"]
    {'seed': 1, 'workloads': {'hot-read': {'parent': {'shard.rank_us': 1.5}, 'change': {'shard.rank_us': 1.2}}}}
    """
    workloads = {}
    for w, s in summary.items():
        workloads[w] = {
            "pairs_complete": len(s["seeds"]), "pairs_run": s["pairs_run"], "failed_runs": len(s["failed"]),
            "checks_not_holding": s["bad"],
            "ops": {side: {"failed": f, "attempted": a} for side, (f, a) in s["ops"].items()},
            "metrics": s["metrics"],
        }
    sides = {"parent": args.parent, "change": args.change}
    rec = {
        "schema": 1, "pr": pr_number(args.record), "backfilled": False,
        "commits": {side: git_commit(d) for side, d in sides.items()},
        "host": host(args.change),
        "loc": {side: loc(d) for side, d in sides.items()},
        "workloads": workloads,
        "trace": {"seed": seed, "workloads": layers} if layers else None,
    }
    if getattr(args, "claim", None):
        rec["claims"] = args.claim
    return rec


def split_pair(tokens, median):
    """Two numbers printed by fmt, side by side, whose thousands are groups
    split by spaces — "10 773 11 333" — cut where the groups allow and the
    two sit closest to the median (q1 and q3 straddle it).

    >>> split_pair("10 773 11 333".split(), 10944), split_pair("0.105 0.11".split(), 0.107)
    ((10773.0, 11333.0), (0.105, 0.11))
    """
    best = None
    for i in range(1, len(tokens)):
        if any(len(t) != 3 or not t.isdigit() for t in tokens[1:i] + tokens[i + 1:]):
            continue
        q1, q3 = float("".join(tokens[:i])), float("".join(tokens[i:]))
        off = abs(math.log((q1 or 1e-12) / median)) + abs(math.log((q3 or 1e-12) / median)) if median else 0
        if best is None or off < best[0]:
            best = (off, q1, q3)
    return best[1], best[2]


HEAD_RE = re.compile(r"^`([\w-]+)` — (\d+) of (\d+) pairs complete .*?, (\d+) failed runs left out; failed/attempted ops: "
                     r"parent (\d+)/(\d+), change (\d+)/(\d+); (\d+) runs with a check not holding")
ROW_RE = re.compile(r"^\| `([\w.]+)` \| ([\d. ]+) \[([\d. ]+)\] \| ([\d. ]+) \[([\d. ]+)\] \| ([\d.]+) \| "
                    r"(\d+)/(\d+) \| ([a-z ]+) \(±(\d+)%\) \|$")
TRACE_RE = re.compile(r"^`([\w-]+)`, `--trace 1 --seed (\d+)`, one pair$")
LAYER_RE = re.compile(r"^\| `([\w.]+)` \| ([\d. ]+) \| ([\d. ]+) \|$")


def backfill(text, heading, path):
    """A back-filled record from the report tables of the EXPERIMENTS.md
    section whose heading starts with heading: only the fields the tables
    give.

    >>> md = "\\n".join(["## ROWS — a PR", "", "`hot-read` — 10 of 10 pairs complete (seeds 1–10), 0 failed runs left out; "
    ...     "failed/attempted ops: parent 0/1753920, change 0/1753920; 0 runs with a check not holding", "",
    ...     "| `throughput_ops_s` | 56 698 [54 527 58 222] | 58 237 [56 301 59 596] | 1.027 | 7/10 | within bound (±25%) |",
    ...     "", "`hot-read`, `--trace 1 --seed 1`, one pair", "", "| `runtime.alloc_bytes_per_op` | 5 356 | 5 300 |",
    ...     "## NEXT", "| `rss_mb` | 1 [1 1] | 1 [1 1] | 1.000 | 0/1 | within bound (±15%) |"])
    >>> r = backfill(md, "ROWS", "BENCH_PR45.json")
    >>> list(r), r["pr"], r["backfilled"]
    (['schema', 'pr', 'backfilled', 'source', 'workloads', 'trace'], 45, True)
    >>> r["workloads"]["hot-read"]["metrics"]
    {'throughput_ops_s': {'bound': 0.25, 'parent': {'median': 56698.0, 'q1': 54527.0, 'q3': 58222.0}, 'change': {'median': 58237.0, 'q1': 56301.0, 'q3': 59596.0}, 'ratio': 1.027, 'wins': 7, 'pairs': 10, 'verdict': 'within bound'}}
    >>> r["trace"]
    {'seed': 1, 'workloads': {'hot-read': {'parent': {'runtime.alloc_bytes_per_op': 5356.0}, 'change': {'runtime.alloc_bytes_per_op': 5300.0}}}}
    """
    lines = text.splitlines()
    first = next(i for i, l in enumerate(lines) if l.startswith("## " + heading))
    end = next((i for i in range(first + 1, len(lines)) if lines[i].startswith("## ")), len(lines))
    num = lambda s: float(s.replace(" ", ""))
    workloads, trace, at = {}, {}, None
    seed = None
    for line in lines[first:end]:
        if m := HEAD_RE.match(line):
            at = workloads.setdefault(m[1], {
                "pairs_complete": int(m[2]), "pairs_run": int(m[3]), "failed_runs": int(m[4]),
                "checks_not_holding": int(m[9]),
                "ops": {"parent": {"failed": int(m[5]), "attempted": int(m[6])},
                        "change": {"failed": int(m[7]), "attempted": int(m[8])}},
                "metrics": {}})["metrics"]
        elif m := TRACE_RE.match(line):
            seed, at = int(m[2]), trace.setdefault(m[1], {"parent": {}, "change": {}})
        elif (m := ROW_RE.match(line)) and at is not None:
            pm, cm = num(m[2]), num(m[4])
            pq, cq = split_pair(m[3].split(), pm), split_pair(m[5].split(), cm)
            at[m[1]] = {"bound": int(m[10]) / 100, "parent": {"median": pm, "q1": pq[0], "q3": pq[1]},
                        "change": {"median": cm, "q1": cq[0], "q3": cq[1]}, "ratio": float(m[6]),
                        "wins": int(m[7]), "pairs": int(m[8]), "verdict": m[9]}
        elif (m := LAYER_RE.match(line)) and at is not None and "parent" in at:
            at["parent"][m[1]], at["change"][m[1]] = num(m[2]), num(m[3])
    return {"schema": 1, "pr": pr_number(path), "backfilled": True, "source": "EXPERIMENTS.md, " + lines[first][3:],
            "workloads": workloads, "trace": {"seed": seed, "workloads": trace} if trace else None}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--out")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", type=lambda s: s.split(","), default=WORKLOADS)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--trace-workloads", type=lambda s: s.split(","), default=["vocab-write"])
    ap.add_argument("--layers", type=lambda s: s.split(","), default=[])
    ap.add_argument("--report-only", action="store_true")
    ap.add_argument("--record", help="write the runs' record here (BENCH_PR<NN>.json)")
    ap.add_argument("--backfill", metavar="HEADING", help="write --record from the EXPERIMENTS.md section instead")
    ap.add_argument("--claim", action="append", metavar="WORKLOAD:METRIC", help="name a metric the record claims (repeatable)")
    ap.add_argument("--trajectory", action="store_true", help="print the committed records' chained ratios and exit")
    args = ap.parse_args()
    if args.trajectory:
        print(trajectory(committed_records()))
        return
    if args.backfill:
        if not args.record:
            ap.error("--backfill needs --record")
        with open(os.path.join(os.path.dirname(BENCHMARK), "EXPERIMENTS.md")) as f:
            write_record(args.record, backfill(f.read(), args.backfill, args.record))
        return
    if not args.out:
        ap.error("--out is required")
    if (not args.report_only or args.record) and (not args.parent or not args.change):
        ap.error("--parent and --change are required to measure or record")
    if args.parent and args.change:
        args.parent, args.change = os.path.abspath(args.parent), os.path.abspath(args.change)
    if not args.report_only:
        measure(args)
    report(args)
    if args.record:
        seed, layers = trace_layers(args)
        write_record(args.record, record(args, summarize(args), seed, layers))


def trajectory(records, workloads=WORKLOADS):
    """Per workload and end-to-end metric, the running product of the
    records' in-pair change/parent ratios in PR order: a record's absolute
    medians do not compare with another's (each pair shares its host's state),
    its ratios chain. A cell is marked * when the record claims the metric
    ("claims": ["workload:metric", ...]), + when its verdict was a gain it
    did not claim; - when the record lacks the metric.

    >>> m = lambda ratio, verdict="within bound": {"ratio": ratio, "verdict": verdict}
    >>> r1 = {"pr": 7, "workloads": {"hot-read": {"metrics": {"rss_mb": m(0.8, "gain"), "setup_s": m(1.1)}}}}
    >>> r2 = {"pr": 8, "claims": ["hot-read:rss_mb"], "workloads": {"hot-read": {"metrics": {"rss_mb": m(0.5, "gain")}}}}
    >>> print(trajectory([r2, r1]))
    <BLANKLINE>
    `hot-read` — running product of change/parent ratios (* claimed, + unclaimed gain)
    <BLANKLINE>
    | metric | PR7 | PR8 |
    | --- | ---: | ---: |
    | `setup_s` | 1.100 | - |
    | `rss_mb` | 0.800+ | 0.400* |
    """
    records = sorted(records, key=lambda r: r["pr"])
    order = list(load_bench())
    out = []
    for w in workloads:
        names = {m for r in records for m in r["workloads"].get(w, {}).get("metrics", {})}
        if not names:
            continue
        out += ["", f"`{w}` — running product of change/parent ratios (* claimed, + unclaimed gain)", "",
                "| metric | " + " | ".join(f"PR{r['pr']}" for r in records) + " |",
                "| --- |" + " ---: |" * len(records)]
        for name in sorted(names, key=lambda n: order.index(n) if n in order else len(order)):
            product, cells = 1.0, []
            for r in records:
                got = r["workloads"].get(w, {}).get("metrics", {}).get(name)
                if got is None:
                    cells.append("-")
                    continue
                product *= got["ratio"]
                mark = "*" if f"{w}:{name}" in r.get("claims", []) else "+" if got["verdict"] == "gain" else ""
                cells.append(f"{product:.3f}{mark}")
            out.append(f"| `{name}` | " + " | ".join(cells) + " |")
    return "\n".join(out)


def committed_records(root=os.path.dirname(BENCHMARK)):
    """The BENCH_PR<NN>.json records at the repo root."""
    paths = [os.path.join(root, n) for n in os.listdir(root) if pr_number(n) is not None]
    return [json.load(open(p)) for p in paths]


def write_record(path, rec):
    with open(path, "w") as f:
        json.dump(rec, f, indent=1, ensure_ascii=False)
        f.write("\n")


if __name__ == "__main__":
    main()
