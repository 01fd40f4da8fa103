"""fusionhom benchmark: time-to-verdict on three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every timed pass runs in a fresh interpreter (one_pass.py) with BLAS and
OpenMP pinned to one thread, one pass at a time, so each pass pays what
a CLI user pays: interpreter start, package import, lazy numpy/scipy
import and cold in-process caches.  With --trace 0 the passes are
untraced and the end-to-end metrics are reported as medians over the
passes that fit in --seconds (at least three).  With --trace 1
traced and untraced passes alternate for --seconds (at least two traced
and one untraced) and the per-layer metrics are reported; their counts
must repeat exactly.  Every output is
checked against its known answer outside the timed region, and the first
pass also shows that tampered outputs are rejected.

Every reported time is in seconds at a fixed reference host speed: each
pass probes the host's speed while it runs, and its raw times are
normalised by it (speed.py), because the shared host's own speed swings
far more than the bounds allow.

The last line of stdout is the result object; the line before it holds
the environment and the samples, normalised and raw.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from speed import REFERENCE_UNIT_S, normalise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "fusionhom"

WORKLOADS = ("annular-homology", "fusion-ladder", "light-mix")
SEEDED = ("light-mix",)         # the other workloads use fixed inputs
WALL_BUDGET_S = 165             # a run must end within 180 s
MIN_PASSES = 3
SETUP_LAUNCHES = 10             # setup-only launches, two before each pass
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# per-layer metrics, named after the traced spans and counters (spans.py)
SELF_TIMED = (
    "exactarith.poly_gcd", "exactarith.rank", "exactarith.kernel_basis",
    "exactarith.mat_mul", "exactarith.span_solve",
    "annular.boundary_matrix", "annular.enumerate_diagrams",
    "annular.h1_vanishing_check", "annular.h2_vanishing_check",
    "fusion.verify_axioms", "fusion.tlj_ladder",
    "amenability.from_fusion_ring", "amenability.folner_search",
    "amenability.kesten_check", "amenability.tlj_kesten_window",
    "tube.verify_identities", "tube.trivial_homology",
    "tube.bar_boundary_matrix", "betti.free_product", "betti.tensor_product",
    "cli.main",
)
CALL_COUNTED = ("exactarith.poly_gcd", "exactarith.rank",
                "exactarith.span_solve")
COUNTED = ("exactarith.ratfunc.constructions", "annular.boundary.calls",
           "annular.boundary_matrix.nnz", "annular.h2.columns_used",
           "fusion.support.calls", "fusion.tlj_ladder.entries",
           "amenability.folner_search.candidates")
CRITERIA = ("tlj-global-index", "pointed-beta0", "tube-identities",
            "tube-homology", "annular-golden", "d2-d3-zero", "h0-dimension",
            "hochschild-contrast", "betti-combinators", "amenability",
            "exact-rank-oracle")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """Runs one_pass.py children one at a time within the wall budget."""

    def __init__(self, workload, seed):
        self.base = [sys.executable, str(HERE / "one_pass.py"),
                     "--workload", workload, "--seed", str(seed)]
        self.env = child_env()
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def launch(self, *flags) -> dict:
        timeout = WALL_BUDGET_S - self.elapsed()
        if timeout <= 0:
            raise BenchError("wall budget exhausted")
        launched = time.perf_counter()
        try:
            proc = subprocess.run(self.base + list(flags), cwd=ROOT,
                                  env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass {flags} exceeded the wall budget")
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"pass {flags} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        result = json.loads(lines[-1])
        normalise_pass(result, launched)
        return result


def normalise_pass(result, launched):
    """Turn a pass's raw timestamps into times at the reference host speed
    (speed.py); the raw seconds are kept alongside as raw_*."""
    result["raw_setup_s"] = result["ready"] - launched
    result["setup_s"] = normalise(result["raw_setup_s"],
                                  result["probe_ready"])
    if "done" not in result:
        return
    probes = result["probe_done"]
    result["raw_wall_s"] = result["done"] - launched
    result["wall_s"] = normalise(result["raw_wall_s"], probes)
    result["raw_steps"] = result["steps"]
    result["steps"] = {name: normalise(raw, result["step_probes"][name])
                       for name, raw in result["raw_steps"].items()}
    # the speed of the whole pass, for times measured inside it (spans)
    result["speed_factor"] = REFERENCE_UNIT_S * probes[0] / probes[1]


def verdict_counts(passes):
    attempted = sum(p["verdicts"] for p in passes)
    failed = sum(len(p["errors"]) for p in passes)
    return attempted, failed


def run_rounds(launcher, seconds, min_rounds, one_round):
    """Call one_round(i) until --seconds is used up, at least min_rounds
    times, never starting a round that could overrun the wall budget."""
    rounds, longest = [], 0.0
    while True:
        enough = len(rounds) >= min_rounds
        if enough and launcher.elapsed() + longest > seconds:
            break
        if launcher.elapsed() + longest * 1.5 > WALL_BUDGET_S:
            break
        start = time.perf_counter()
        rounds.append(one_round(len(rounds)))
        longest = max(longest, time.perf_counter() - start)
    return rounds


def first_pass_flags(i):
    return [] if i else ["--selftest"]


def untraced_run(launcher, seconds):
    """Passes until --seconds is used up, with set-up-only launches between
    them."""
    setup_only = []

    def one_round(i):
        if len(setup_only) < SETUP_LAUNCHES:
            setup_only.extend(launcher.launch("--setup-only")
                              for _ in range(2))
        return launcher.launch(*first_pass_flags(i))

    passes = run_rounds(launcher, seconds, MIN_PASSES, one_round)
    setups = [p["setup_s"] for p in setup_only + passes]
    raw_setups = [p["raw_setup_s"] for p in setup_only + passes]
    step_names = list(passes[0]["steps"])
    median = statistics.median
    attempted, failed = verdict_counts(passes)
    metrics = {
        "wall_s": (median(p["wall_s"] for p in passes), "s"),
        "setup_s": (median(setups), "s"),
        "step1_s": (median(p["steps"][step_names[0]] for p in passes), "s"),
        "step2_s": (median(p["steps"][step_names[1]] for p in passes), "s"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in passes), "MB"),
        "verdict_ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    samples = {"wall_s": [p["wall_s"] for p in passes], "setup_s": setups,
               "steps": [p["steps"] for p in passes],
               "raw_wall_s": [p["raw_wall_s"] for p in passes],
               "raw_setup_s": raw_setups,
               "raw_steps": [p["raw_steps"] for p in passes],
               "peak_rss_mb": [p["peak_rss_mb"] for p in passes]}
    return passes, metrics, samples, []


def layer_metrics(summary, factor) -> dict:
    """Per-layer metrics of one traced pass; span times are scaled to the
    reference host speed by the pass's speed factor."""
    calls, self_s = summary["calls"], summary["self_s"]
    total_s, counts = summary["total_s"], summary["counts"]
    out = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (self_s.get(name, 0.0) * factor, "s")
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in COUNTED:
        out[name] = (counts.get(name, 0), "count")
    used = counts.get("annular.h2.columns_used", 0)
    available = counts.get("annular.h2.columns_available", 0)
    out["annular.h2.columns_ratio"] = (used / available if available else 0.0,
                                       "ratio")
    for key in CRITERIA:
        out[f"acceptance.{key}.wall_s"] = (
            total_s.get(f"acceptance.{key}", 0.0) * factor, "s")
    return out


def traced_run(launcher, seconds):
    """Traced and untraced passes in turn until --seconds is used up,
    starting traced, untraced, traced; every traced pass must make the
    same calls."""
    def one_round(i):
        if i % 2 == 0:
            return launcher.launch("--trace")
        return launcher.launch(*first_pass_flags(i // 2))

    passes = run_rounds(launcher, seconds, 3, one_round)
    traced, plain = passes[0::2], passes[1::2]
    problems = []
    first = traced[0]["trace"]
    for p in traced[1:]:
        for key in ("calls", "counts"):
            a, b = first[key], p["trace"][key]
            if a != b:
                diff = sorted(k for k in set(a) | set(b)
                              if a.get(k) != b.get(k))
                problems.append(f"trace {key} differ between passes: {diff}")
    layers = [layer_metrics(p["trace"], p["speed_factor"]) for p in traced]
    metrics = {}
    for name, (value, unit) in layers[0].items():
        if unit == "s":
            value = statistics.median(layer[name][0] for layer in layers)
        metrics[name] = (value, unit)
    median_wall = [statistics.median(p["wall_s"] for p in side)
                   for side in (traced, plain)]
    metrics["trace.overhead_s"] = (median_wall[0] - median_wall[1], "s")
    samples = {"untraced_wall_s": [p["wall_s"] for p in plain],
               "traced_wall_s": [p["wall_s"] for p in traced],
               "raw_untraced_wall_s": [p["raw_wall_s"] for p in plain],
               "raw_traced_wall_s": [p["raw_wall_s"] for p in traced]}
    return plain + traced, metrics, samples, problems


def environment(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload, "seed": args.seed,
        "inputs": ("seeded random matrix batch" if args.workload in SEEDED
                   else "fixed (seed unused)"),
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: fusionhom sources not found under {PACKAGE.parent}",
              file=sys.stderr)
        return 2

    info = environment(args)
    launcher = Launcher(args.workload, args.seed)
    run = traced_run if args.trace else untraced_run
    try:
        launcher.launch("--setup-only")  # writes bytecode caches; discarded
        passes, metrics, samples, problems = run(launcher, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = verdict_counts(passes)
    selftest = passes[0]["selftest"]
    if selftest["missed"]:
        problems.append("tampered outputs passed the checker: "
                        f"{selftest['missed']}")
    if not all(p["restored"] for p in passes):
        problems.append("tracer left a wrapped function in place")
    info.update({
        "passes": len(passes),
        "steps": {f"step{i + 1}_s": name
                  for i, name in enumerate(passes[0]["steps"])},
        "samples": samples,
        "selftest": selftest,
        "errors": [e for p in passes for e in p["errors"]][:20],
        "problems": problems,
        "elapsed_s": launcher.elapsed(),
    })
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
