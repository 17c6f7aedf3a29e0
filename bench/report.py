"""Collect benchmark runs, print them, and compare two commits.

    # ten untraced runs of every workload of this checkout
    python3 bench/report.py collect --out runs.jsonl --seeds 0:10
    # one traced run of each workload
    python3 bench/report.py collect --out trace.jsonl --seeds 0:1 --trace 1
    # alternating parent/change pairs, the benchmark code of this checkout
    # driving the program of each of two checkouts
    python3 bench/report.py pairs --parent ../parent --change . --out pairs.jsonl --seeds 0:10
    python3 bench/report.py show runs.jsonl
    python3 bench/report.py compare pairs.jsonl

`show` prints every metric by name and unit, one row per workload, with
median, quartiles, spread (inter-quartile distance over the median) and
sample count.  `compare` applies the pairing rules to each end-to-end
metric and workload: a gain needs the change to win at least 9 of 10
pairs and to move the median by more than the parent's inter-quartile
distance; a regression is a median worse than the parent's by more than
the metric's bound; a metric whose parent spread is wider than its bound
is unresolved unless every change run beats every parent run.  A change
that answers worse than the parent (a lower `correct_ratio` in any pair,
or a larger share of failed requests) is a `correct_ratio` regression,
and none of its gains count.  Every run lasts `run_seconds` of
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Pairing rules for one metric on one workload; `parent[i]` and
    `change[i]` come from the same pair.  Returns the figures the rules
    read (medians, quartiles, wins) and the verdict."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    mp, q1, q3 = summary(parent)
    mc, cq1, cq3 = summary(change)
    gain = sign * (mc - mp)
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        label = "gain"
    elif -gain > bound * abs(mp):
        label = "regression"
    elif q3 - q1 > bound * abs(mp) and not separated:
        label = "unresolved"
    else:
        label = "within bound"
    return {"parent": (mp, q1, q3), "change": (mc, cq1, cq3), "wins": wins, "pairs": len(parent),
            "verdict": label}


def correctness_regressed(parent: list[dict], change: list[dict]) -> bool:
    """True when the change answers worse than the parent: a lower
    `correct_ratio` in any pair, or a larger share of failed requests
    over all pairs.  `parent[i]` and `change[i]` are the results of one
    pair."""
    def ratio(result):
        return result["metrics"]["correct_ratio"]["value"]

    def failed_share(results):
        return sum(r["failed"] for r in results) / max(1, sum(r["attempted"] for r in results))

    return any(ratio(c) < ratio(p) for p, c in zip(parent, change)) or failed_share(change) > failed_share(parent)


def judge(metric: dict, parent: list[dict], change: list[dict]) -> dict:
    """`verdict` for one end-to-end metric of BENCHMARK.json over paired
    run results.  When the change answers worse than the parent,
    `correct_ratio` is a regression whatever its median, and no other
    metric may claim a gain."""
    name = metric["name"]
    figures = verdict([r["metrics"][name]["value"] for r in parent],
                      [r["metrics"][name]["value"] for r in change], metric["better"], metric["bound"])
    if correctness_regressed(parent, change):
        if name == "correct_ratio":
            figures["verdict"] = "regression"
        elif figures["verdict"] == "gain":
            figures["verdict"] = "gain withheld: answers regressed"
    return figures


def run_once(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _seeds(text: str) -> range:
    lo, _, hi = text.partition(":")
    return range(int(lo), int(hi))


def _append(path: str, row: dict) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")
    metrics = row["result"]["metrics"]
    brief = " ".join(f"{k}={v['value']:.4g}" for k, v in list(metrics.items())[:6])
    print(f"{row['side']} {row['workload']} seed={row['seed']} correct={row['result']['correct']} {brief}",
          flush=True)


def load_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def cmd_collect(args, spec) -> None:
    for seed in _seeds(args.seeds):
        for workload in args.workload or [w["name"] for w in spec["workloads"]]:
            result = run_once(".", workload, seed, spec["run_seconds"], args.trace)
            _append(args.out, {"side": args.side, "workload": workload, "seed": seed,
                               "trace": args.trace, "result": result})


def cmd_pairs(args, spec) -> None:
    for i, seed in enumerate(_seeds(args.seeds)):
        for workload in args.workload or [w["name"] for w in spec["workloads"]]:
            order = [("parent", args.parent), ("change", args.change)]
            for side, checkout in order if i % 2 == 0 else order[::-1]:
                result = run_once(checkout, workload, seed, spec["run_seconds"], 0)
                _append(args.out, {"side": side, "workload": workload, "seed": seed,
                                   "trace": 0, "result": result})


def cmd_show(args, spec) -> None:
    groups: dict[tuple[str, int], dict[str, list[dict]]] = {}
    for row in load_rows(args.file):
        groups.setdefault((row["side"], row["trace"]), {}).setdefault(row["workload"], []).append(row)
    for (side, trace), by_workload in sorted(groups.items()):
        print(f"== {side}, {'traced (per-layer)' if trace else 'untraced (end-to-end)'}")
        for workload, rows in by_workload.items():
            failed = sum(r["result"]["failed"] for r in rows)
            wrong = sum(not r["result"]["correct"] for r in rows)
            attempted = sum(r["result"]["attempted"] for r in rows)
            print(f"   {workload}: {len(rows)} runs, {attempted} requests, {failed} failed, "
                  f"{wrong} runs with a wrong answer")
        names = list(next(iter(by_workload.values()))[0]["result"]["metrics"])
        for name in names:
            unit = next(iter(by_workload.values()))[0]["result"]["metrics"][name]["unit"]
            print(f"{name} [{unit}]")
            for workload, rows in by_workload.items():
                values = [r["result"]["metrics"][name]["value"] for r in rows if name in r["result"]["metrics"]]
                median, q1, q3 = summary(values)
                spread = (q3 - q1) / abs(median) if median else 0.0
                print(f"   {workload:16s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                      f"spread {spread:<7.3f} n={len(values)}")


def cmd_compare(args, spec) -> None:
    by_key: dict[tuple[str, str, int], dict] = {}
    for row in load_rows(args.file):
        by_key[(row["side"], row["workload"], row["seed"])] = row["result"]
    workloads = [w["name"] for w in spec["workloads"]]
    for metric in spec["end_to_end"]:
        print(f"{metric['name']} [{metric['unit']}], {metric['better']} is better, bound {metric['bound']}")
        for workload in workloads:
            seeds = sorted(s for side, w, s in by_key if side == "parent" and w == workload
                           and ("change", w, s) in by_key)
            if not seeds:
                continue
            figures = judge(metric, [by_key[("parent", workload, s)] for s in seeds],
                            [by_key[("change", workload, s)] for s in seeds])
            (mp, pq1, pq3), (mc, cq1, cq3) = figures["parent"], figures["change"]
            print(f"   {workload:16s} parent {mp:.6g} [{pq1:.6g}, {pq3:.6g}]  change {mc:.6g} "
                  f"[{cq1:.6g}, {cq3:.6g}]  wins {figures['wins']}/{figures['pairs']}  {figures['verdict']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Collect, show and compare benchmark runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_collect = sub.add_parser("collect")
    p_collect.add_argument("--out", required=True)
    p_collect.add_argument("--side", default="this")
    p_pairs = sub.add_parser("pairs")
    p_pairs.add_argument("--out", required=True)
    p_pairs.add_argument("--parent", required=True)
    p_pairs.add_argument("--change", required=True)
    for p in (p_collect, p_pairs):
        p.add_argument("--workload", action="append")
        p.add_argument("--seeds", default="0:10", help="LO:HI, half-open")
    p_collect.add_argument("--trace", type=int, choices=(0, 1), default=0)
    for name in ("show", "compare"):
        sub.add_parser(name).add_argument("file")
    args = parser.parse_args(argv)
    {"collect": cmd_collect, "pairs": cmd_pairs, "show": cmd_show, "compare": cmd_compare}[args.command](
        args, load_spec()
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
