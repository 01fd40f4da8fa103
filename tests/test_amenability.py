"""Folner sets and Kesten norms on weighted fusion graphs."""

import contextlib
import io
import json
import math
import random
import re
from fractions import Fraction

import pytest

from fusionhom import cli
from fusionhom.amenability import (TruncationInconclusive, WeightedFusionGraph,
                                   boundary_set, folner_search,
                                   from_fusion_ring, graph_from_text,
                                   kesten_check, tlj_kesten_window)
from fusionhom.fusion import from_group, tlj_ladder
from fusionhom.groups import cyclic, dihedral, symmetric


def boundary_measure(g, F):
    """(mu(boundary F), mu(F)) measured from scratch, as exact Fraction
    sums over the stored weights: the oracle for folner_search's
    incremental measures.  Raises TruncationInconclusive when F or its boundary
    touches the frontier of a windowed graph."""
    F = set(F)
    if not F:
        raise ValueError("F must be nonempty")
    for v in F:
        if v not in g.index:
            raise ValueError(f"vertex {v} not in the graph")
    bd = boundary_set(g, F)
    if g.truncated:
        touched = (F | bd) & g.frontier
        if touched:
            raise TruncationInconclusive(
                f"candidate touches window frontier at {sorted(map(str, touched))}")
    return (sum(map(Fraction, map(g.weight.get, bd))),
            sum(map(Fraction, map(g.weight.get, F))))


def exact_ratio(g, F):
    """mu(boundary F) / mu(F) over the stored weights, as a Fraction."""
    mu_bd, mu_f = boundary_measure(g, F)
    return mu_bd / mu_f


def ball(g, radius):
    """The metric ball of the given radius around the root."""
    seen, frontier = {g.root}, [g.root]
    for _ in range(radius):
        frontier = [w for v in frontier for w in g.adjacency[v]
                    if w not in seen and not seen.add(w)]
    return seen


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
    assert all(set(g.adjacency[v]) == set(g.vertices) - {v}
               for v in g.vertices)
    bd, vol = boundary_measure(g, set(g.vertices))
    assert bd == 0 and vol == pytest.approx(3.0)
    rep = folner_search(g, 0.05, 10)
    assert rep.found and rep.ratio == 0.0


def test_ladder_ball_ratio():
    g = ladder_graph(60, 2.0)
    assert g.truncated and g.frontier == frozenset({"f58", "f59"})
    F = {f"f{k}" for k in range(51)}
    assert float(exact_ratio(g, F)) == pytest.approx(0.11652681983921276,
                                                     abs=1e-12)


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


def test_folner_search_fails_on_expanding_ladder():
    g = ladder_graph(60, 3.0)
    rep = folner_search(g, 0.05, 40)
    assert not rep.found
    assert rep.ratio > 0.05
    # the best candidate is still reported for inspection
    assert rep.set and rep.ratio == float(exact_ratio(g, rep.set))


def test_folner_search_needs_room_for_the_root():
    g = ladder_graph(20, 2.0)
    with pytest.raises(ValueError, match="max_size must be at least 1"):
        folner_search(g, 0.05, 0)
    assert folner_search(g, 0.05, 1).candidates == 1


def _reference_folner_search(g, epsilon, max_size):
    """The search over BFS balls from the root, each measured from
    scratch with exact ratios; (found, ratio, set, candidates)."""
    best, best_ball = None, None
    candidates, prev, radius = 0, None, 0
    while True:
        F = ball(g, radius)
        if len(F) > max_size:
            break
        ratio = exact_ratio(g, F)
        candidates += 1
        if best is None or ratio < best:
            best, best_ball = ratio, F
        if ratio < Fraction(epsilon):
            return True, float(ratio), F, candidates
        if F == prev:
            break
        prev, radius = F, radius + 1
    return False, float(best), best_ball, candidates


def _random_graph(rng):
    n = rng.randint(1, 25)
    vertices = [f"v{i}" for i in range(n)]
    weight = {v: rng.choice([1.0, 4.0, rng.uniform(0.1, 9.0)])
              for v in vertices}
    p = rng.uniform(0.05, 0.6)
    adjacency = {v: set() for v in vertices}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adjacency[vertices[i]].add(vertices[j])
                adjacency[vertices[j]].add(vertices[i])
    frontier = ()
    if n > 1 and rng.random() < 0.4:
        frontier = rng.sample(vertices, rng.randint(1, 2))
    return WeightedFusionGraph(vertices, weight, (), adjacency,
                               truncated=bool(frontier), frontier=frontier)


def _outcome(search, g, epsilon, max_size):
    try:
        rep = search(g, epsilon, max_size)
    except TruncationInconclusive as exc:
        return "inconclusive", str(exc)
    if isinstance(rep, tuple):
        found, ratio, F, candidates = rep
        return found, ratio, tuple(sorted(F, key=str)), candidates
    return rep.found, rep.ratio, rep.set, rep.candidates


def test_folner_search_matches_the_two_loop_reference():
    rng = random.Random(1412)
    graphs = [_random_graph(rng) for _ in range(120)]
    graphs += [from_fusion_ring(tlj_kesten_window(width, delta),
                                generators=["f1"])
               for delta in (2.0, 2.5, 3.0) for width in (30, 61, 224)]
    graphs += [from_fusion_ring(from_group(grp))
               for grp in (cyclic(3), cyclic(4), cyclic(7), symmetric(3),
                           dihedral(4))]
    kinds = set()
    for g in graphs:
        for epsilon in (0.01, 0.05, 0.3, 1.0):
            for max_size in (1, 2, 5, 17, 40, 200):
                want = _outcome(_reference_folner_search, g, epsilon,
                                max_size)
                got = _outcome(folner_search, g, epsilon, max_size)
                assert got == want, (g.name, epsilon, max_size)
                kinds.add(want[0])
    assert kinds == {"inconclusive", True, False}


def test_folner_ratios_are_correctly_rounded():
    # a path from a root of weight 1.0 through ever lighter vertices:
    # each of 1.0 + 2**-53 and 1.0 + 2**-54 rounds back to 1.0, so a
    # running float sum of mu(F) stays at 1.0 while the exact sum climbs
    vertices = [f"v{i}" for i in range(12)]
    weight = {v: 2.0 ** -(52 + i) for i, v in enumerate(vertices)}
    weight["v0"] = 1.0
    adjacency = {v: set() for v in vertices}
    for a, b in zip(vertices, vertices[1:]):
        adjacency[a].add(b)
        adjacency[b].add(a)
    g = WeightedFusionGraph(vertices, weight, (), adjacency)
    head = [weight[v] for v in vertices[:3]]
    assert sum(head) == 1.0 < math.fsum(head) == 1.0 + 2.0 ** -52
    for max_size in range(1, len(vertices) + 1):
        rep = folner_search(g, 2.0 ** -80, max_size)
        assert len(rep.set) == max_size
        assert rep.ratio == float(exact_ratio(g, rep.set))


def test_expanding_window_best_ball_is_exactly_smallest():
    # over the stored weights the 103-vertex ball's ratio is strictly the
    # smallest; float ratios rounded twice picked the 116-vertex ball
    g = from_fusion_ring(tlj_kesten_window(224, 3.0), generators=["f1"])
    rep = folner_search(g, 0.05, 200)
    assert not rep.found and len(rep.set) == 103
    best = exact_ratio(g, rep.set)
    assert rep.ratio == float(best)
    balls = [ball(g, radius) for radius in range(200)]
    assert set(rep.set) == balls[102]
    for radius, F in enumerate(balls):
        assert exact_ratio(g, F) > best or radius == 102


def test_overflowing_ratio_is_reported_as_inf(tmp_path):
    path = tmp_path / "wide.graph"
    path.write_text("vertex: a 5e-324\nvertex: b 1e308\n"
                    "generators: a b\nedge: a b\n")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["amenability", "--check", "folner", "--graph",
                         str(path), "--max-size", "1", "--json"])
    assert code == 0
    folner = json.loads(buf.getvalue())["results"]["folner"]
    assert folner["ratio"] == math.inf and folner["found"] is False


def test_folner_report_repeatable():
    g = ladder_graph(40, 2.0)
    a = folner_search(g, 0.3, 30)
    b = folner_search(g, 0.3, 30)
    assert (a.found, a.ratio, a.set) == (b.found, b.ratio, b.set)


def test_kesten_window_matches_full_ring():
    slim = kesten_check(tlj_kesten_window(64, 2.0), "f1")
    full = kesten_check(tlj_ladder(64, delta=2.0), "f1")
    assert slim == full
    # the window is the ladder's f1 slice: one row per label, no other row
    for width in (2, 3, 64):
        window = tlj_kesten_window(width, 2.0)
        ladder = tlj_ladder(width, delta=2.0)
        assert set(window.N) == {("f1", a) for a in ladder.labels}
        for a in ladder.labels:
            assert window.row("f1", a) == ladder.row("f1", a)
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


def _tamper(width, bad):
    """A Kesten window with the f1 rows in `bad` replaced; None deletes."""
    window = tlj_kesten_window(width, 2.0)
    for label, row in bad.items():
        if row is None:
            del window.N["f1", label]
        else:
            window.N["f1", label] = row
    return window


@pytest.mark.parametrize("width, bad, first", [
    (16, {"f5": {"f4": 1}}, "f5"),
    (16, {"f5": {"f4": 1, "f6": 2}}, "f5"),
    (16, {"f5": {"f4": 1, "f6": 1, "f8": 1}}, "f5"),
    (16, {"f5": {"f4": 1, "f5": 0, "f6": 1}}, "f5"),
    (16, {"f5": {"f4": 0, "f6": 1}}, "f5"),
    (16, {"f0": {"f1": 2}}, "f0"),
    (16, {"f15": {"f14": 1, "f15": 1}}, "f15"),
    (16, {"f7": None}, "f7"),
    (2, {"f1": {"f0": 1, "f1": 1}}, "f1"),
    (16, {"f9": {"f8": 1}, "f3": None}, "f3"),
], ids=["missing-neighbour", "multiplicity-2", "third-key", "zero-entry",
        "zero-neighbour", "bad-f0", "bad-last", "deleted-row", "width-2",
        "first-of-two"])
def test_kesten_rejects_truncated_rings_that_are_not_ladder_windows(
        width, bad, first):
    with pytest.raises(ValueError,
                       match=f"^f1 row at {first} breaks the ladder rule$"):
        kesten_check(_tamper(width, bad), "f1")


def test_kesten_reads_ladder_windows_only():
    with pytest.raises(ValueError, match="ladder window read through f1"):
        kesten_check(tlj_ladder(16, delta=2.0), "f2")
    # the rule fixes each row's entries, not the order they are stored in
    window = _tamper(16, {"f5": {"f6": 1, "f4": 1}})
    assert kesten_check(window, "f1") == kesten_check(
        tlj_kesten_window(16, 2.0), "f1")


def test_window_dimensions_overflow_to_inf_not_nan():
    dims = tlj_kesten_window(4096, 3.0).dims
    assert not any(math.isnan(v) for v in dims.values())
    assert dims["f1"] == 3.0 and dims["f4095"] == math.inf
    assert kesten_check(tlj_kesten_window(4096, 3.0), "f1")["amenable"] is False
    with pytest.raises(ValueError, match="overflows"):
        from_fusion_ring(tlj_kesten_window(400, 3.0), generators=["f1"])


@pytest.mark.parametrize("dims, bounds", [
    ({a: 2.0 for a in range(4)}, (1, 1)),
    ({0: 2.0, 1: 1.0, 2: 1.0, 3: 1.0}, (Fraction(1, 2), 2)),
], ids=["all-dims-2", "one-dim-2"])
def test_kesten_on_a_finite_ring_reads_the_rows_not_the_dims(dims, bounds):
    # A_1 on Z4 is a cyclic permutation, so ||A_1|| = 1 whatever the dims
    ring = from_group(cyclic(4))
    ring.dims = dims
    report = kesten_check(ring, 1)
    assert (report["norm_lower"], report["norm_upper"]) == bounds
    assert report["norm_lower"] <= 1 <= report["norm_upper"]
    assert report["amenable"] is True


def test_kesten_on_a_finite_ring_needs_positive_dims():
    ring = from_group(cyclic(4))
    ring.dims = {0: 1.0, 1: 0.0, 2: 1.0, 3: 1.0}
    with pytest.raises(ValueError, match="positive dims"):
        kesten_check(ring, 1)


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
    "vertex: a 1e308\nvertex: b 1e308\ngenerators: a\n",
    "vertex: a 1.0\nvertex: b 1.0\ngenerators: zz\nedge: a b\n",
], ids=["junk", "unknown-edge-end", "nonnumeric-weight", "negative-weight",
        "duplicate-vertex", "infinite-weight", "overflowing-total-weight",
        "unknown-generator"])
def test_malformed_graph_files_rejected(text):
    with pytest.raises(ValueError):
        graph_from_text(text)


@pytest.mark.parametrize("text, message", [
    ("vertex: a 1.0\nvertex: b 1.0\ngenerators: a\ngenerators: b\n",
     "second generators line: 'generators: b'"),
    ("vertex: a 1.0\nvertex: b 1.0\ngenerators: b\ntruncated: a\n"
     "truncated: b\n", "second truncated line: 'truncated: b'"),
    ("vertex: a 1.0\nvertex: b 1.0\ngenerators: b b\nedge: a b\n",
     "generator b listed twice"),
], ids=["two-generator-lines", "two-truncated-lines", "repeated-generator"])
def test_graph_lines_and_generators_are_not_repeated(text, message):
    # the last line or listing used to win silently
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        graph_from_text(text)
