"""tools/bench_pairs.py: the per-metric summary and the progress line,
on canned runs (no benchmark is run)."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"step1_s": "lower", "step2_s": "lower",
          "verdict_ok_ratio": "higher"}
BOUNDS = {"step1_s": 0.2, "verdict_ok_ratio": 0.01}


def _result(**values):
    return {"correct": True, "failed": 0,
            "metrics": {name: {"value": v, "unit": "s"}
                        for name, v in values.items()}}


def _pair(number, parent, change):
    return {"pair": number, "first": "parent" if number % 2 else "change",
            "parent": _result(**parent), "change": _result(**change)}


def test_wins_are_strict_and_ties_count_for_neither_side():
    runs = [_pair(1, {"step1_s": 2.0, "verdict_ok_ratio": 1.0},
                  {"step1_s": 1.0, "verdict_ok_ratio": 1.0}),
            _pair(2, {"step1_s": 2.0, "verdict_ok_ratio": 0.5},
                  {"step1_s": 2.0, "verdict_ok_ratio": 1.0}),
            _pair(3, {"step1_s": 2.0, "verdict_ok_ratio": 1.0},
                  {"step1_s": 3.0, "verdict_ok_ratio": 0.5})]
    summary = bench_pairs.summarise(runs, BETTER, BOUNDS)
    assert summary["step1_s"]["change_better_in_pairs"] == 1
    assert summary["verdict_ok_ratio"]["change_better_in_pairs"] == 1
    assert summary["step1_s"]["pairs"] == 3


def test_quartiles_are_inclusive():
    runs = [_pair(i, {"step1_s": float(i)}, {"step1_s": float(10 * i)})
            for i in range(1, 6)]
    summary = bench_pairs.summarise(runs, BETTER, BOUNDS)["step1_s"]
    assert summary["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert summary["change"] == {"median": 30.0, "q1": 20.0, "q3": 40.0}
    assert summary["change_better_in_pairs"] == 0


def test_a_metric_missing_on_one_side_is_skipped():
    runs = [_pair(1, {"step1_s": 2.0, "step2_s": 1.0}, {"step1_s": 1.0}),
            _pair(2, {"step1_s": 2.0, "step2_s": 1.0},
                  {"step1_s": 1.0, "step2_s": 0.5})]
    summary = bench_pairs.summarise(runs, BETTER, BOUNDS)
    assert set(summary) == {"step1_s"}
    assert bench_pairs.summarise(runs[:1], BETTER, BOUNDS) == {}


def _runs(name, parent, change):
    return [_pair(i + 1, {name: p}, {name: c})
            for i, (p, c) in enumerate(zip(parent, change))]


def test_a_clear_win_shows_its_gain_within_the_bound():
    parent = [0.0355, 0.0360, 0.0358, 0.0362, 0.0359,
              0.0361, 0.0357, 0.0363, 0.0356, 0.0360]
    summary = bench_pairs.summarise(
        _runs("step1_s", parent, [p - 0.010 for p in parent]),
        BETTER, BOUNDS)["step1_s"]
    assert summary["change_better_in_pairs"] == 10
    assert summary["gain_shown"] is True
    assert summary["within_bound"] is True


def test_a_gain_needs_nine_wins_in_ten_pairs():
    # ties win for neither side: eight wins fall short, nine do not
    for ties, shown in ((2, False), (1, True)):
        change = [2.0] * ties + [1.0] * (10 - ties)
        summary = bench_pairs.summarise(
            _runs("step1_s", [2.0] * 10, change), BETTER, BOUNDS)["step1_s"]
        assert summary["change_better_in_pairs"] == 10 - ties
        assert summary["gain_shown"] is shown
        assert summary["within_bound"] is True


def test_a_gain_must_clear_the_parent_quartile_spread():
    # ten wins, but the medians are 0.1 apart and the parent's quartiles
    # 0.45 apart
    parent = [1.0 + i / 10 for i in range(10)]
    summary = bench_pairs.summarise(
        _runs("step1_s", parent, [p - 0.1 for p in parent]),
        BETTER, BOUNDS)["step1_s"]
    assert summary["change_better_in_pairs"] == 10
    assert summary["parent"]["q3"] - summary["parent"]["q1"] > 0.1
    assert summary["gain_shown"] is False


def test_a_median_worse_than_its_bound_is_a_breach():
    for worse, within in ((1.15, True), (1.25, False)):
        summary = bench_pairs.summarise(
            _runs("step1_s", [1.0] * 4, [worse] * 4),
            BETTER, BOUNDS)["step1_s"]
        assert (summary["gain_shown"], summary["within_bound"]) == (
            False, within)
    # the direction comes from BETTER: a ratio that falls is worse
    summary = bench_pairs.summarise(
        _runs("verdict_ok_ratio", [1.0] * 4, [0.98] * 4), BETTER, BOUNDS)
    assert summary["verdict_ok_ratio"]["within_bound"] is False
    # a metric with no bound gets no bound verdict
    summary = bench_pairs.summarise(
        _runs("step2_s", [1.0] * 4, [2.0] * 4), BETTER, BOUNDS)
    assert "within_bound" not in summary["step2_s"]


def test_progress_prints_each_step_metric():
    pair = _pair(3, {"step1_s": 0.046, "step2_s": 0.026, "wall_s": 0.2},
                 {"step1_s": 0.044, "step2_s": 0.018, "wall_s": 0.19})
    assert (bench_pairs.progress("fusion-ladder@2020", pair,
                                 ["step1_s", "step2_s"])
            == "fusion-ladder@2020 pair 3: parent step1_s=0.046 "
               "step2_s=0.026 change step1_s=0.044 step2_s=0.018")
    del pair["change"]  # an aborted run leaves one side
    del pair["parent"]["metrics"]["step2_s"]
    assert (bench_pairs.progress("k", pair, ["step1_s", "step2_s"])
            == "k pair 3: parent step1_s=0.046")


def test_progress_names_the_benchmark_step_metrics():
    spec = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    assert bench_pairs.step_metrics(names) == ["step1_s", "step2_s"]


def test_a_traced_pair_shows_each_side_overhead(tmp_path, monkeypatch,
                                                capsys):
    # a traced run has per-layer metrics and its overhead, no step timings
    root = SCRIPT.parents[1]
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        (root / "BENCHMARK.json").read_text())
    overhead = {"parent": 0.0019, "change": 0.0021}

    def canned(checkout, workload, seed, seconds, trace):
        assert trace == 1
        return _result(**{"trace.overhead_s": overhead[checkout.name],
                          "fusion.tlj_ladder.self_s": 0.0034}), ""

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([
        "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"), "--workload", "fusion-ladder",
        "--pairs", "1", "--trace", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "fusion-ladder@2020/trace pair 1: parent trace.overhead_s=0.0019 "
        "change trace.overhead_s=0.0021\n")
    assert json.loads(out.read_text())["pairs"]["fusion-ladder@2020/trace"][
        "runs"][0]["change"]["metrics"]["trace.overhead_s"]["value"] == 0.0021
