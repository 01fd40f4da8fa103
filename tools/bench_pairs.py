"""Alternating parent/change runs of the benchmark, summarised per metric.

Usage (from any directory):

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --workload NAME --seed N --pairs 10 --seconds 40 --out BENCH_<n>.json

DIR is a checkout of the repository (a `git clone` or `git archive` of
the commit to measure).  Each pair runs `perfbench/run.py` once in each
checkout, one run at a time, the parent first in odd pairs and the change
first in even ones, so a drift in host speed falls on both sides alike.
Every run gets PYTHONDONTWRITEBYTECODE=1, and a checkout that holds a
`__pycache__` under `src/` is refused: cached bytecode cuts setup_s.

The last stdout line of each run is kept as it is, with one key added
from the samples line before it: "min_raw_steps", per step metric the
smallest raw (not normalised) step time over the run's passes.  The
progress line prints it, since a step that ends before the first 5 ms
probe fires aborts the run (perfbench/speed.py); a traced run records
no raw step times, so it gets no such key.  The entry
"<workload>@<seed>" of --out (with "/trace" appended under --trace 1)
gets the command, the runs, and per metric the median and quartiles of
each side and the number of pairs the change won (the direction read
from the change's BENCHMARK.json).  Each metric also gets the two
verdicts of the paired rules:
- gain_shown: the change won at least 9 in 10 of the pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range;
- within_bound (for the metrics with a bound in BENCHMARK.json): the
  change's median is worse than the parent's by at most bound times the
  parent's median.
An existing --out is updated, so one file collects several workloads
and seeds.  A run that exits nonzero or prints no result is listed
under "aborted" and its pair is not counted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict | None, str]:
    """One perfbench/run.py in the checkout: (result or None, detail)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(lines[-1])
    if len(lines) > 1:
        fastest = min_raw_steps(json.loads(lines[-2]))
        if fastest:
            result["min_raw_steps"] = fastest
    return result, ""


def min_raw_steps(info: dict) -> dict:
    """Per step metric (step1_s, ...), the smallest raw time of that step
    over the passes on a run's samples line; empty when it lists none."""
    raw = info.get("samples", {}).get("raw_steps")
    if not raw:
        return {}
    return {metric: min(p[name] for p in raw)
            for metric, name in info["steps"].items()}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list, better: dict, bounds: dict) -> dict:
    """Per metric: each side's median and quartiles over the pairs, the
    pairs in which the change was strictly better, and the gain_shown
    and (for a metric in bounds) within_bound verdicts."""
    out = {}
    if len(runs) < 2:
        return out
    for name, direction in better.items():
        if not all(name in r[side]["metrics"] for r in runs for side in SIDES):
            continue
        values = {side: [r[side]["metrics"][name]["value"] for r in runs]
                  for side in SIDES}
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (c - p) < 0
                   for p, c in zip(values["parent"], values["change"]))
        out[name] = entry = {side: spread(values[side]) for side in SIDES}
        parent, change = entry["parent"], entry["change"]
        # how far the change's median is better than the parent's
        gain = sign * (parent["median"] - change["median"])
        entry.update(change_better_in_pairs=wins, pairs=len(runs),
                     gain_shown=(10 * wins >= 9 * len(runs)
                                 and gain > parent["q3"] - parent["q1"]))
        if name in bounds:
            entry["within_bound"] = (
                -gain <= bounds[name] * abs(parent["median"]))
    return out


def step_metrics(names) -> list:
    """The per-step timings among the metric names, in their order."""
    return [name for name in names
            if name.startswith("step") and name.endswith("_s")]


def progress(key: str, pair: dict, names) -> str:
    """One line per pair: each side's value of each of the named metrics
    that it has, then the smallest raw time of each step it recorded."""
    sides = []
    for side in SIDES:
        if side in pair:
            metrics = pair[side]["metrics"]
            fastest = pair[side].get("min_raw_steps", {})
            sides.append(" ".join(
                [side] + [f"{name}={metrics[name]['value']}"
                          for name in names if name in metrics]
                + [f"min_raw_{name}={value:.4f}"
                   for name, value in fastest.items()]))
    return f"{key} pair {pair['pair']}: " + " ".join(sides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--about", help="free text stored under 'about'")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no perfbench/run.py")
        if any((path / "src").rglob("__pycache__")):
            parser.error(f"--{side} {path} holds __pycache__ under src/")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]
              if "bound" in m}
    # a traced run reports no step timings; its line shows the overhead
    shown = ["trace.overhead_s"] if args.trace else step_metrics(better)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.about:
        doc["about"] = args.about
    key = f"{args.workload}@{args.seed}" + ("/trace" if args.trace else "")
    entry = doc.setdefault("pairs", {}).setdefault(key, {"runs": []})
    entry["command"] = (f"python3 perfbench/run.py --workload {args.workload}"
                        f" --seed {args.seed} --seconds {args.seconds}"
                        f" --trace {args.trace}")
    aborted = doc.setdefault("aborted", [])
    for _ in range(args.pairs):
        number = len(entry["runs"]) + 1
        order = SIDES if number % 2 else SIDES[::-1]
        pair = {"pair": number, "first": order[0]}
        for side in order:
            result, detail = run_once(checkouts[side], args.workload,
                                      args.seed, args.seconds, args.trace)
            if result is None:
                aborted.append({"key": key, "pair": number, "side": side,
                                "detail": detail})
                break
            pair[side] = result
        else:
            entry["runs"].append(pair)
        entry["summary"] = summarise(entry["runs"], better, bounds)
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
        print(progress(key, pair, shown), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
