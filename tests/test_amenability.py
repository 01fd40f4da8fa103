"""Folner sets and Kesten norms on weighted fusion graphs."""

import math
from fractions import Fraction

import pytest

from fusionhom.amenability import (TruncationInconclusive, WeightedFusionGraph,
                                   boundary_measure, folner_search,
                                   from_fusion_ring, graph_from_text,
                                   kesten_check, tlj_kesten_window)
from fusionhom.fusion import from_group, tlj_ladder
from fusionhom.groups import cyclic, symmetric


def ladder_graph(width, delta):
    return from_fusion_ring(tlj_ladder(width, delta=delta), generators=["f1"])


def test_constructor_validation():
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="weight"):
            WeightedFusionGraph(("a",), {"a": bad}, ("a",), {"a": ("a",)})
    with pytest.raises(ValueError, match="symmetric"):
        WeightedFusionGraph(("a", "b"), {"a": 1.0, "b": 1.0}, ("a",),
                            {"a": ("b",), "b": ()})


def test_generators_must_be_dual_closed():
    ring = from_group(cyclic(3))
    with pytest.raises(ValueError, match="dual"):
        from_fusion_ring(ring, generators=[1])
    g = from_fusion_ring(ring, generators=[1, 2])
    assert g.generators == (1, 2)


def test_graph_weights_need_float_dims():
    ring = from_group(cyclic(3))
    ring.dims = None
    with pytest.raises(ValueError, match="^ring carries no float dims$"):
        from_fusion_ring(ring)


def test_group_graph_is_complete_and_amenable():
    g = from_fusion_ring(from_group(cyclic(3)))
    assert g.ball(1) == set(g.vertices)
    bd, vol = boundary_measure(g, set(g.vertices))
    assert bd == 0 and vol == pytest.approx(3.0)
    rep = folner_search(g, 0.05, 10)
    assert rep.found and rep.ratio == 0.0


def test_ladder_ball_ratio():
    g = ladder_graph(60, 2.0)
    assert g.truncated and g.frontier == frozenset({"f58", "f59"})
    F = {f"f{k}" for k in range(51)}
    bd, vol = boundary_measure(g, F)
    assert bd / vol == pytest.approx(0.11652681983921276, abs=1e-12)


def test_frontier_contact_is_inconclusive():
    g = ladder_graph(60, 2.0)
    F = {f"f{k}" for k in range(59)}
    with pytest.raises(TruncationInconclusive):
        boundary_measure(g, F)


def test_folner_search_on_flat_ladder():
    g = ladder_graph(60, 2.0)
    rep = folner_search(g, 0.2, 55)
    assert rep.found
    assert rep.ratio < 0.2
    assert rep.epsilon == 0.2
    greedy = folner_search(g, 0.2, 55, strategy="greedy")
    assert greedy.found and greedy.ratio == rep.ratio


def test_folner_search_fails_on_expanding_ladder():
    g = ladder_graph(60, 3.0)
    rep = folner_search(g, 0.05, 40)
    assert not rep.found
    assert rep.best_ratio > 0.05
    # the best candidate is still reported for inspection
    assert rep.set and rep.ratio == rep.best_ratio


def test_folner_report_repeatable():
    g = ladder_graph(40, 2.0)
    a = folner_search(g, 0.3, 30)
    b = folner_search(g, 0.3, 30)
    assert (a.found, a.ratio, a.set) == (b.found, b.ratio, b.set)


def test_kesten_window_matches_full_ring():
    slim = kesten_check(tlj_kesten_window(64, 2.0), "f1")
    full = kesten_check(tlj_ladder(64, delta=2.0), "f1")
    assert slim == full
    # the f1 graph of the slim window is the f1 graph of the full ladder
    for width, delta in ((64, 2.0), (64, 3.0), (2, 2.0)):
        slim = from_fusion_ring(tlj_kesten_window(width, delta),
                                generators=["f1"])
        full = from_fusion_ring(tlj_ladder(width, delta=delta),
                                generators=["f1"])
        assert slim.vertices == full.vertices
        assert slim.weight == full.weight
        assert slim.adjacency == full.adjacency
        assert slim.frontier == full.frontier


def test_kesten_norms_increase_with_window():
    reports = [kesten_check(tlj_kesten_window(w, 2.0), "f1")
               for w in (8, 16, 32, 64, 128)]
    lowers = [r["norm_lower"] for r in reports]
    assert lowers == sorted(lowers) and lowers[-1] < 2
    # 2cos(pi/9) = 1.8793852415718166 is the true norm of the 8-label path
    assert lowers[0] == Fraction(77, 41) < 1.8793852415718166
    assert all(r["norm_upper"] == 2 for r in reports)


def test_kesten_unstable_window_gives_no_verdict():
    # Kesten alone never proves an infinite graph amenable, at any width
    for width in (16, 1000, 4096):
        report = kesten_check(tlj_kesten_window(width, 2.0), "f1")
        assert report["norm_lower"] < 2 == report["norm_upper"]
        assert report["amenable"] is None


def test_kesten_separates_flat_from_expanding():
    flat = kesten_check(tlj_kesten_window(4096, 2.0), "f1")
    assert flat["amenable"] is None
    assert flat["norm_lower"] <= flat["dimension"] <= flat["norm_upper"]
    for width, delta in ((512, 3.0), (4096, 3.0), (4096, 2.0000001)):
        sharp = kesten_check(tlj_kesten_window(width, delta), "f1")
        assert sharp["amenable"] is False
        assert sharp["norm_upper"] == 2 < Fraction(sharp["dimension"])


def test_kesten_norms_are_pinned():
    # f1's matrix does not depend on delta; only its dimension does
    for width, lower in ((2, Fraction(1)), (3, Fraction(24, 17)),
                         (512, Fraction(52633, 26317)),
                         (4096, Fraction(3357081, 1678541))):
        for delta in (2.0, 3.0):
            report = kesten_check(tlj_kesten_window(width, delta), "f1")
            assert report["norm_lower"] == lower
            assert report["norm_upper"] == 2
            assert report["window"] == width


def test_kesten_two_label_window_gives_no_verdict():
    # the window holds no complete generic row; upper = 2 comes from the
    # ladder rule, not from the window's row sums (which are 1)
    report = kesten_check(tlj_kesten_window(2, 2.0), "f1")
    assert (report["norm_lower"], report["norm_upper"]) == (1, 2)
    assert report["amenable"] is None


@pytest.mark.parametrize("grp, generator", [
    (symmetric(3), (1, 0, 2)),
    (cyclic(4), 1),
], ids=["S3-transposition", "Z4-generator-1"])
def test_kesten_dense_path_on_group_rings(grp, generator):
    # a finite ring needs no solver: A d = d(g) d and A^T d = d(g*) d
    report = kesten_check(from_group(grp), generator)
    assert report["norm_lower"] == report["norm_upper"] == 1
    assert report["amenable"] is True


def test_kesten_rejects_truncated_rings_that_are_not_ladder_windows():
    with pytest.raises(ValueError, match="ladder window read through f1"):
        kesten_check(tlj_ladder(16, delta=2.0), "f2")
    window = tlj_kesten_window(16, 2.0)
    window.N["f1", "f5"] = {"f4": 1, "f6": 2}
    with pytest.raises(ValueError, match="breaks the ladder rule"):
        kesten_check(window, "f1")


def test_window_dimensions_overflow_to_inf_not_nan():
    dims = tlj_kesten_window(4096, 3.0).dims
    assert not any(math.isnan(v) for v in dims.values())
    assert dims["f1"] == 3.0 and dims["f4095"] == math.inf
    assert kesten_check(tlj_kesten_window(4096, 3.0), "f1")["amenable"] is False
    with pytest.raises(ValueError, match="overflows"):
        from_fusion_ring(tlj_kesten_window(400, 3.0), generators=["f1"])


def test_kesten_on_finite_group_ring():
    report = kesten_check(from_group(cyclic(3)), 1)
    assert report["amenable"] is True
    assert report["norm_lower"] == report["norm_upper"] == 1


def test_graph_text_round_trip():
    # the graph of Z/3 with generators 1 and 2, written out by hand
    h = graph_from_text(
        "# Z3\n"
        "vertex: x0 1.0\nvertex: x1 1.0\nvertex: x2 1.0\n"
        "generators: x1 x2\n"
        "edge: x0 x1\nedge: x0 x2\nedge: x1 x2\nedge: x1 x0\n")
    g = from_fusion_ring(from_group(cyclic(3)))
    assert h.vertices == ("x0", "x1", "x2")
    assert h.generators == ("x1", "x2")
    assert h.weight == {"x0": 1.0, "x1": 1.0, "x2": 1.0}
    assert h.adjacency == {"x0": ("x1", "x2"), "x1": ("x0", "x2"),
                           "x2": ("x0", "x1")}
    assert not h.truncated
    relabelled = {f"x{v}": tuple(f"x{w}" for w in nbrs)
                  for v, nbrs in g.adjacency.items()}
    assert h.adjacency == relabelled
    window = graph_from_text("vertex: a 1.0\nvertex: b 4.0\n"
                             "generators: b\nedge: a b\ntruncated: b\n")
    assert window.truncated and window.frontier == frozenset({"b"})


@pytest.mark.parametrize("text", [
    "not-a-graph\n",
    "vertex: a 1.0\ngenerators: a\nedge: a b\n",
    "vertex: a zero\ngenerators: a\n",
    "vertex: a -2\ngenerators: a\nedge: a a\n",
    "vertex: a 1.0\nvertex: a 2.0\ngenerators: a\n",
    "vertex: a inf\ngenerators: a\n",
], ids=["junk", "unknown-edge-end", "nonnumeric-weight", "negative-weight",
        "duplicate-vertex", "infinite-weight"])
def test_malformed_graph_files_rejected(text):
    with pytest.raises(ValueError):
        graph_from_text(text)
