#!/usr/bin/env python3
"""Collect and compare sets of e2ebench runs.

A set of runs is a directory holding one captured stdout per run
(<workload>-seed<N>-trace<T>.out), as `collect` writes them:

    python3 e2ebench/compare.py collect .bench_build/runs/base --seeds 1-10
    python3 e2ebench/compare.py collect .bench_build/runs/base --seeds 1-3 --trace 1 \\
        --workloads serve-hot
    python3 e2ebench/compare.py show .bench_build/runs/base
    python3 e2ebench/compare.py diff .bench_build/runs/base .bench_build/runs/new

`show` prints, per workload and metric, the median, the quartiles and
the spread (interquartile range over median); `diff` adds the change of
the median against the base set.  Bounds and directions come from
BENCHMARK.json.  A metric whose spread in either set exceeds its bound
is marked unresolved: the runs cannot tell a change of that size from
noise.  Quartiles are those of Python's statistics.quantiles(n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = dict(m, kind="end_to_end")
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, kind="per_layer")
    return spec, metrics


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def collect(args):
    spec, _ = load_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    os.makedirs(args.dir, exist_ok=True)
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            name = "%s-seed%d-trace%d.out" % (workload, seed, args.trace)
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds or spec["run_seconds"]),
                "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            with open(os.path.join(args.dir, name), "w") as f:
                f.write(proc.stdout)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            print("%s exit %d %s" % (name, proc.returncode, last[0][:160]),
                  flush=True)


def read_set(path):
    """{workload: {"runs": [...], "metrics": {name: [values]}}}"""
    runs = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".out"):
            continue
        with open(os.path.join(path, name)) as f:
            lines = f.read().strip().splitlines()
        if not lines:
            continue
        workload = name.split("-seed")[0]
        entry = runs.setdefault(workload, {"runs": [], "metrics": {}})
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = {"correct": False, "attempted": 0, "failed": 0,
                      "metrics": {}}
        entry["runs"].append(result)
        for metric, v in result["metrics"].items():
            entry["metrics"].setdefault(metric, []).append(v["value"])
    return runs


def stats(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def show(args):
    _, metrics = load_spec()
    base = read_set(args.base)
    new = read_set(args.new) if args.new else None
    for workload in sorted(base):
        runs = base[workload]["runs"]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print("== %s: %d runs, correct=%s, failed %d of %d attempted"
              % (workload, len(runs), correct, failed, attempted))
        header = "  %-30s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound")
        if new is not None:
            header += " %12s %8s %8s  verdict" % ("new median", "delta",
                                                  "spread")
        print(header)
        for metric, values in base[workload]["metrics"].items():
            info = metrics.get(metric, {})
            bound = info.get("bound")
            med, q1, q3, spread = stats(values)
            line = "  %-30s %12.6g %12.6g %12.6g %7.2f%% %6s" % (
                metric, med, q1, q3, 100 * spread,
                "%.0f%%" % (100 * bound) if bound is not None else "-")
            if new is not None:
                other = new.get(workload, {}).get("metrics", {}).get(metric)
                if other:
                    nmed, _, _, nspread = stats(other)
                    delta = (nmed - med) / abs(med) if med else 0.0
                    line += " %12.6g %+7.2f%% %7.2f%%  %s" % (
                        nmed, 100 * delta, 100 * nspread,
                        verdict(info, delta, spread, nspread))
            elif bound is not None and spread > bound:
                line += "  unresolved (spread > bound)"
            print(line)


def verdict(info, delta, spread, nspread):
    bound = info.get("bound")
    if bound is None:
        return "(no bound)"
    worse = delta > 0 if info.get("better") == "lower" else delta < 0
    if max(spread, nspread) > bound:
        return "unresolved (spread > bound)"
    if worse and abs(delta) > bound:
        return "REGRESSED (beyond bound)"
    return "worse, within bound" if worse else "same or better"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark into a directory")
    c.add_argument("dir")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", nargs="*")
    c.add_argument("--trace", type=int, choices=[0, 1], default=0)
    c.add_argument("--seconds", type=int)
    s = sub.add_parser("show", help="summarize one set of runs")
    s.add_argument("base")
    d = sub.add_parser("diff", help="compare a new set against a base set")
    d.add_argument("base")
    d.add_argument("new")
    args = parser.parse_args()
    if args.cmd == "collect":
        collect(args)
    else:
        args.new = getattr(args, "new", None)
        show(args)


if __name__ == "__main__":
    sys.exit(main())
