#!/usr/bin/env python3
"""Collect, check and compare perfbench result sets.

A result set is a directory of run outputs named <workload>.seed<n>.trace<t>.out,
each holding one run's standard output (its last line is the JSON result).
Metrics the run prints on a line of their own but keeps out of the result line
(closed_rps, recommend_p99_ms, slo_rps, ...) are read from those lines; they have no bound
and get no verdict.

  python3 perfbench/compare.py collect DIR --workloads recommend-hot,observe-mix --seeds 1-10 [--trace 0]
      Runs the benchmark once per workload and seed (from the repository root)
      and stores each output in DIR.

  python3 perfbench/compare.py spread DIR
      Per workload and metric: median, quartiles and the spread (quartile
      distance over median) next to the metric's bound from BENCHMARK.json.
      Exits 1 when any spread, setup_s's included, exceeds its bound, or when
      any run failed an operation or its correctness gate.

  python3 perfbench/compare.py compare BASE_DIR CHANGE_DIR
      Per workload and metric: each side's median and quartiles, pair wins
      (runs paired by seed) and a verdict. A change is "better" when it wins at
      least nine tenths of the pairs (ties count for neither) and the medians
      differ by more than the base's quartile distance; "unresolved" when the
      base's spread exceeds the bound and not every change run beats every
      base run; "worse" when its median is worse than the base's by more than
      the bound; "same" otherwise. Per-layer metrics have no bound and get no
      verdict. Failures overrule all of that: when any change run has
      correct=false, or the change fails a larger share of its operations
      than the base, every end-to-end metric of that workload is "worse". A
      metric missing from some change runs (a percentile that failures made
      infinite, which JSON cannot carry) is "worse" as well; one missing from
      base runs only gets no verdict. Exits 1 on any "worse".

Quartiles are Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

NAME = re.compile(r"^(?P<workload>[A-Za-z0-9_.-]+)\.seed(?P<seed>-?\d+)\.trace(?P<trace>[01])\.out$")


def load_benchmark(path):
    with open(path) as f:
        bench = json.load(f)
    metrics = {}
    for m in bench["end_to_end"]:
        metrics[m["name"]] = dict(m, kind="end_to_end")
    for m in bench["per_layer"]:
        metrics[m["name"]] = dict(m, kind="per_layer")
    return bench, metrics


class Run:
    """One run's result line, plus the metrics printed only."""

    def __init__(self, workload, lines):
        result = json.loads(lines[-1])
        self.correct = bool(result["correct"])
        self.attempted = int(result["attempted"])
        self.failed = int(result["failed"])
        self.values = {k: v["value"] for k, v in result["metrics"].items()}
        for line in lines[:-1]:  # "<workload> <metric> <value> <unit> ..."
            parts = line.split()
            if len(parts) >= 4 and parts[0] == workload and parts[1] != "verified" and parts[1] not in self.values:
                try:
                    self.values[parts[1]] = float(parts[2])
                except ValueError:
                    pass


def load_set(directory):
    """Returns {(workload, trace): {seed: Run}}."""
    runs = {}
    for entry in sorted(os.listdir(directory)):
        m = NAME.match(entry)
        if not m:
            continue
        with open(os.path.join(directory, entry)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines:
            continue
        try:
            run = Run(m["workload"], lines)
        except (json.JSONDecodeError, KeyError, TypeError):
            print(f"{entry}: no result line", file=sys.stderr)
            continue
        key = (m["workload"], int(m["trace"]))
        runs.setdefault(key, {})[int(m["seed"])] = run
    return runs


def fail_share(runs):
    """Failed over attempted operations, summed over the runs."""
    return sum(r.failed for r in runs) / max(1, sum(r.attempted for r in runs))


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def cmd_collect(args):
    bench, _ = load_benchmark(args.benchmark)
    os.makedirs(args.dir, exist_ok=True)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            out = os.path.join(args.dir, f"{w}.seed{seed}.trace{args.trace}.out")
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds or bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            with open(out, "w") as f:
                status = subprocess.run(cmd, stdout=f).returncode
            print(f"{w} seed {seed}: exit {status}", file=sys.stderr)
    return 0


def cmd_spread(args):
    _, metrics = load_benchmark(args.benchmark)
    worst = 0
    for (workload, trace), by_seed in sorted(load_set(args.dir).items()):
        runs = list(by_seed.values())
        bad = sum(1 for r in runs if not r.correct)
        print(f"{workload} (trace {trace}, {len(runs)} runs, fail share {fail_share(runs):.3g}, "
              f"{bad} runs incorrect)")
        if bad or fail_share(runs):
            worst = 1
        names = sorted({k for r in runs for k in r.values})
        for name in names:
            values = [r.values[name] for r in runs if name in r.values]
            if len(values) < len(runs):
                print(f"  {name:28s} missing from {len(runs) - len(values)} runs")
                worst = 1
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = metrics.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = f"bound {bound:.2f}  {'ok' if spread <= bound / 3 else 'WIDE' if spread <= bound else 'OVER'}"
                if spread > bound:
                    worst = 1
            print(f"  {name:28s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.3f}  {flag}")
    return worst


def verdict(meta, base, change, failing):
    if meta.get("kind") != "end_to_end":
        return "n/a"
    if failing:
        return "worse"
    lower = meta["better"] == "lower"
    bound = meta["bound"]
    seeds = sorted(set(base) & set(change))
    wins = sum(1 for s in seeds if (change[s] < base[s]) == lower and change[s] != base[s])
    bq1, bmed, bq3 = quartiles(list(base.values()))
    _, cmed, _ = quartiles(list(change.values()))
    gain = (bmed - cmed) if lower else (cmed - bmed)
    all_better = all((c < b) == lower and c != b for c in change.values() for b in base.values())
    if seeds and wins >= 0.9 * len(seeds) and gain > bq3 - bq1:
        return "better"
    if bmed and (bq3 - bq1) / bmed > bound and not all_better:
        return "unresolved"
    if bmed and -gain / bmed > bound:
        return "worse"
    return "same"


def cmd_compare(args):
    _, metrics = load_benchmark(args.benchmark)
    base, change = load_set(args.base), load_set(args.change)
    status = 0
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        bruns, cruns = list(base[key].values()), list(change[key].values())
        bfail, cfail = fail_share(bruns), fail_share(cruns)
        incorrect = sum(1 for r in cruns if not r.correct)
        failing = incorrect > 0 or cfail > bfail
        print(f"{workload} (trace {trace})  fail share base {bfail:.3g} change {cfail:.3g}, "
              f"{incorrect} change runs incorrect{'  FAILING' if failing else ''}")
        if failing:
            status = 1
        names = sorted({k for r in bruns + cruns for k in r.values})
        for name in names:
            b = {s: r.values[name] for s, r in base[key].items() if name in r.values}
            c = {s: r.values[name] for s, r in change[key].items() if name in r.values}
            meta = metrics.get(name, {})
            if len(c) < len(cruns) or len(b) < len(bruns):
                v = "worse" if len(c) < len(cruns) and meta.get("kind") == "end_to_end" else "n/a"
                print(f"  {name:28s} missing from {len(bruns) - len(b)} base and "
                      f"{len(cruns) - len(c)} change runs  {v}")
                if v == "worse":
                    status = 1
                continue
            seeds = sorted(set(b) & set(c))
            lower = meta.get("better", "lower") == "lower"
            wins = sum(1 for s in seeds if (c[s] < b[s]) == lower and c[s] != b[s])
            bq = quartiles(list(b.values()))
            cq = quartiles(list(c.values()))
            v = verdict(meta, b, c, failing)
            if v == "worse":
                status = 1
            print(f"  {name:28s} base {bq[1]:11.5g} [{bq[0]:.5g}, {bq[2]:.5g}]  "
                  f"change {cq[1]:11.5g} [{cq[0]:.5g}, {cq[2]:.5g}]  wins {wins}/{len(seeds)}  {v}")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dir")
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=int, default=0)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("spread")
    s.add_argument("dir")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("change")
    args = ap.parse_args()
    return {"collect": cmd_collect, "spread": cmd_spread, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
