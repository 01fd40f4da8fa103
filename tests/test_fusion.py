"""Fusion rings: constructors, axioms, dimensions, and the file format."""

import math
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionhom.amenability import tlj_kesten_window
from fusionhom.exactarith import (RF_ONE, RF_ZERO, IntPoly, RatFunc,
                                  parse_scalar)
from fusionhom.fusion import (FusionRing, InvalidRingFile, NotConnected,
                              beta0, chebyshev_dims, from_group,
                              hochschild_h1_witness, perron_dims,
                              ring_from_text, tlj_even, tlj_global_index,
                              tlj_ladder, verify_axioms)
from fusionhom.groups import cyclic, dihedral, symmetric


def relabel(ring: FusionRing) -> FusionRing:
    """The same ring with labels renamed x0, x1, ... in order, so that
    ring_to_text can write rings whose labels are tuples."""
    mapping = {lab: f"x{i}" for i, lab in enumerate(ring.labels)}
    labels = tuple(mapping[l] for l in ring.labels)
    dual = {mapping[a]: mapping[b] for a, b in ring.dual.items()}
    N = {(mapping[a], mapping[b]): {mapping[c]: v for c, v in row.items()}
         for (a, b), row in ring.N.items()}
    dims = ({mapping[l]: v for l, v in ring.dims.items()}
            if ring.dims is not None else None)
    dims_exact = ({mapping[l]: v for l, v in ring.dims_exact.items()}
                  if ring.dims_exact is not None else None)
    return FusionRing(labels, dual, N, dims, dims_exact,
                      truncated=ring.truncated,
                      frontier={mapping[l] for l in ring.frontier},
                      name=ring.name)


def _triples(ring):
    """(a, b, c, N(a, b, c)) for every stored entry, in label order."""
    order = ring.index.__getitem__
    for a, b in sorted(ring.N, key=lambda pair: (order(pair[0]),
                                                 order(pair[1]))):
        for c, v in ring.N[a, b].items():
            yield a, b, c, v


def ring_to_text(ring: FusionRing) -> str:
    """Serialize to the human-editable ring format (sorted body lines).

    Labels must be single whitespace-free tokens; relabel rings whose
    labels are tuples first.
    """
    for lab in ring.labels:
        token = str(lab)
        if not token or any(ch.isspace() for ch in token) or ";" in token or "#" in token:
            raise ValueError(f"label {lab!r} is not a single token; relabel first")
    lines = [
        "labels: " + " ".join(str(l) for l in ring.labels),
        "dual: " + " ".join(str(ring.dual[l]) for l in ring.labels),
    ]
    if ring.dims is not None:
        lines.append("dims: " + " ".join(repr(ring.dims[l]) for l in ring.labels))
    if ring.dims_exact is not None:
        lines.append("dims-exact: " + " ; ".join(
            str(ring.dims_exact[l]) for l in ring.labels))
    if ring.truncated:
        lines.append("truncated: " + " ".join(
            str(l) for l in sorted(ring.frontier, key=ring.index.get)))
    lines.append("N:")
    for a, b, c, v in _triples(ring):
        lines.append(f"{a} {b} {c} {v}")
    return "\n".join(lines) + "\n"


def test_group_ring_axioms():
    for grp in (cyclic(2), cyclic(5), symmetric(3), dihedral(4)):
        ring = from_group(grp)
        assert verify_axioms(ring) == []
        assert ring.global_index() == pytest.approx(len(grp.elements))


def test_rows_are_nonzero_copies_in_label_order():
    labels = ("u", "b", "a")  # label order is not the sort order
    given = {("b", "b"): {"a": 2, "u": 1},          # out of label order
             ("b", "a"): {"u": 1, "a": 0, "b": 3},  # a zero, out of order
             ("u", "b"): {"b": 1},                  # one entry
             ("a", "b"): {"b": 4, "a": 5},          # in label order
             ("u", "a"): {"a": 0},                  # only a zero
             ("a", "a"): {}}                        # empty
    ring = FusionRing(labels, {x: x for x in labels}, given)
    want = {("b", "b"): [("u", 1), ("a", 2)],
            ("b", "a"): [("u", 1), ("b", 3)],
            ("u", "b"): [("b", 1)],
            ("a", "b"): [("b", 4), ("a", 5)]}
    assert {pair: list(row.items()) for pair, row in ring.N.items()} == want
    assert ring.row("u", "a") == ring.row("a", "a") == {}
    for row in given.values():
        row["u"] = 7
    given["a", "a"] = {"a": 1}
    del given["b", "b"]
    assert {pair: list(row.items()) for pair, row in ring.N.items()} == want


# rule-built ring -> (builder, the number of stored rows)
RULE_BUILT = {
    **{f"ladder-{w}": (partial(tlj_ladder, w, delta=2.0), w * w)
       for w in (1, 2, 3, 40)},
    **{f"even-{n}": (partial(tlj_even, n), ((n - 1) // 2 + 1) ** 2)
       for n in range(2, 13)},
    **{f"kesten-{w}": (partial(tlj_kesten_window, w, 2.0), w)
       for w in (2, 3, 64)},
    **{f"vec-{g.name}": (partial(from_group, g), len(g.elements) ** 2)
       for g in (cyclic(2), symmetric(3), dihedral(4))},
}


@pytest.mark.parametrize("name", RULE_BUILT)
def test_rule_built_rings_equal_the_public_constructors(name):
    # the rings stored as built hold what the constructor would store
    build, rows = RULE_BUILT[name]
    ring, again = build(), build()
    public = FusionRing(ring.labels, ring.dual,
                        {pair: dict(row) for pair, row in ring.N.items()},
                        ring.dims, ring.dims_exact, truncated=ring.truncated,
                        frontier=ring.frontier, name=ring.name)
    for field in ("labels", "index", "dual", "dims", "dims_exact",
                  "truncated", "frontier", "name"):
        assert getattr(ring, field) == getattr(public, field), field
    assert ([(pair, list(row.items())) for pair, row in ring.N.items()]
            == [(pair, list(row.items())) for pair, row in public.N.items()])
    assert all(ring.N.values())
    assert len(ring.N) == rows  # perfbench counts len(ring.N) as entries
    shared = [id(row) for r in (ring, again, public) for row in r.N.values()]
    assert len(set(shared)) == 3 * rows


def test_tlj_even_axioms_and_labels():
    ring = tlj_even(7)
    assert ring.labels == ("f0", "f2", "f4", "f6")
    assert verify_axioms(ring) == []


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 40])
def test_tlj_global_index_closed_form(n):
    ring = tlj_even(n)
    assert ring.global_index() == pytest.approx(tlj_global_index(n), abs=1e-9)


def test_tlj_even_dim_symmetry():
    # the window is symmetric: d(f_k) = d(f_{n-1-k})
    ring = tlj_even(9)
    dims = [ring.dims[lab] for lab in ring.labels]
    assert dims == pytest.approx(dims[::-1])


def test_chebyshev_dims_recurrence():
    exact = chebyshev_dims(6)
    delta = RatFunc.delta()
    for k in range(2, 6):
        assert exact[k] == delta * exact[k - 1] - exact[k - 2]


def test_ladder_is_truncated_with_frontier():
    ring = tlj_ladder(8, delta=2.0)
    assert ring.truncated
    assert ring.frontier == {"f6", "f7"}
    assert verify_axioms(ring) == []
    assert [ring.dims[f"f{k}"] for k in range(8)] == list(range(1, 9))


def test_ladder_exact_dims_match_floats():
    ring = tlj_ladder(30, delta=1.5)
    for lab in ring.labels:
        assert ring.dims_exact[lab].eval_float(1.5) == pytest.approx(
            ring.dims[lab], rel=1e-9)


def test_perron_matches_stored_dims():
    ring = tlj_even(7)
    computed = perron_dims(ring)
    for lab in ring.labels:
        assert computed[lab] == pytest.approx(ring.dims[lab], abs=1e-9)
    silver = 1 + math.sqrt(2)
    assert computed["f2"] == pytest.approx(silver, abs=1e-9)


def test_perron_rejects_disconnected():
    labels = ("e", "x")
    N = {("e", "e"): {"e": 1}, ("e", "x"): {"x": 1}}
    ring = FusionRing(labels, {"e": "e", "x": "x"}, N)
    with pytest.raises(NotConnected):
        perron_dims(ring)


def test_beta0_exact_group():
    rep = beta0(from_group(symmetric(3)))
    assert rep.beta0_exact == RatFunc.from_fraction(1) / RatFunc.from_int(6)
    assert rep.beta0 == pytest.approx(1 / 6)


def test_verify_axioms_reports_broken_dual():
    ring = from_group(cyclic(3))
    bad_dual = dict(ring.dual)
    g1, g2 = ring.labels[1], ring.labels[2]
    bad_dual[g1] = g1
    broken = FusionRing(ring.labels, bad_dual, ring.N, ring.dims,
                        ring.dims_exact)
    failures = verify_axioms(broken)
    assert failures
    assert any("dual" in f or "Frobenius" in f for f in failures)


def test_hochschild_witness():
    rep = hochschild_h1_witness(6)
    assert rep["functional_vanishes_on_boundaries"]
    assert rep["witness_cycle_value"] == RF_ONE
    assert rep["boundaries_checked"] == 28


def test_ring_round_trip_group():
    ring = relabel(from_group(dihedral(4)))
    text = ring_to_text(ring)
    loaded = ring_from_text(text)
    assert loaded.labels == ring.labels
    assert loaded.N == ring.N
    assert loaded.dual == ring.dual


def test_ring_round_trip_preserves_truncation():
    ring = tlj_ladder(6, delta=2.0)
    loaded = ring_from_text(ring_to_text(ring))
    assert loaded.truncated
    assert loaded.frontier == ring.frontier
    assert loaded.N == ring.N


def test_truncated_ring_file_keeps_dims_unset():
    ring = tlj_ladder(6)
    assert ring.dims is None
    loaded = ring_from_text(ring_to_text(ring))
    assert loaded.dims is None


def test_ladder_ring_text_is_pinned():
    assert ring_to_text(tlj_ladder(4, delta=2.0)) == (
        "labels: f0 f1 f2 f3\n"
        "dual: f0 f1 f2 f3\n"
        "dims: 1.0 2.0 3.0 4.0\n"
        "dims-exact: 1 ; delta ; delta^2 - 1 ; delta^3 - 2*delta\n"
        "truncated: f2 f3\n"
        "N:\n"
        "f0 f0 f0 1\nf0 f1 f1 1\nf0 f2 f2 1\nf0 f3 f3 1\n"
        "f1 f0 f1 1\nf1 f1 f0 1\nf1 f1 f2 1\nf1 f2 f1 1\nf1 f2 f3 1\n"
        "f1 f3 f2 1\nf2 f0 f2 1\nf2 f1 f1 1\nf2 f1 f3 1\nf2 f2 f0 1\n"
        "f2 f2 f2 1\nf2 f3 f1 1\nf2 f3 f3 1\nf3 f0 f3 1\nf3 f1 f2 1\n"
        "f3 f2 f1 1\nf3 f2 f3 1\nf3 f3 f0 1\nf3 f3 f2 1\n")


def test_ring_to_text_rejects_spaced_labels():
    ring = from_group(symmetric(3))
    with pytest.raises(ValueError):
        ring_to_text(ring)


def test_ring_file_rejects_broken_associativity():
    ring = relabel(from_group(cyclic(3)))
    text = ring_to_text(ring)
    # x1 * x1 = x2 in Z/3; retarget the product to x1
    bad = text.replace("x1 x1 x2 1", "x1 x1 x1 1")
    assert bad != text
    with pytest.raises(InvalidRingFile, match=r"^Frobenius fails: "
                       r"N\(x1,x1,x1\)=1 but N\(x2,x2,x2\)=0$"):
        ring_from_text(bad)
    N = dict(ring.N)
    N["x1", "x1"] = {"x1": 1}
    broken = FusionRing(ring.labels, ring.dual, N, ring.dims, ring.dims_exact)
    assert verify_axioms(broken) == [
        "Frobenius fails: N(x1,x1,x1)=1 but N(x2,x2,x2)=0",
        "Frobenius fails: N(x1,x1,x1)=1 but N(x2,x1,x1)=0",
        "Frobenius fails: N(x2,x2,x1)=1 but N(x1,x1,x2)=0",
        "Frobenius fails: N(x2,x2,x1)=1 but N(x1,x1,x2)=0",
        "associativity fails at (x1,x1,x2)->x0: 1 != 0",
        "associativity fails at (x1,x1,x2)->x1: 0 != 1",
        "associativity fails at (x1,x2,x2)->x1: 0 != 1",
        "associativity fails at (x1,x2,x2)->x2: 1 != 0",
        "associativity fails at (x2,x1,x1)->x0: 0 != 1",
        "associativity fails at (x2,x1,x1)->x1: 1 != 0",
        "associativity fails at (x2,x2,x1)->x1: 1 != 0",
        "associativity fails at (x2,x2,x1)->x2: 0 != 1",
    ]


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_ring_file_rejects_dims_not_finite_and_positive(value):
    text = ring_to_text(relabel(from_group(cyclic(2))))
    bad = text.replace("dims: 1.0 1.0", f"dims: {value} {value}")
    assert bad != text
    with pytest.raises(InvalidRingFile, match="not finite and positive"):
        ring_from_text(bad)


@pytest.mark.parametrize("value", ["0 ; 0", "1 ; -1"], ids=["zero", "negative"])
def test_ring_file_rejects_dims_exact_not_positive(value):
    text = ring_to_text(relabel(from_group(cyclic(2))))
    bad = text.replace("dims-exact: 1 ; 1", f"dims-exact: {value}")
    assert bad != text
    with pytest.raises(InvalidRingFile, match="dims-exact: .* is not positive"):
        ring_from_text(bad)


def test_ring_file_rejects_junk():
    with pytest.raises((InvalidRingFile, ValueError)):
        ring_from_text("labels: a b\nnonsense\n")


# ---------------------------------------------------------------------------
# verify_axioms against a plain dict-based reference
# ---------------------------------------------------------------------------

def reference_failures(ring):
    """Every failure verify_axioms lists, in its order: one dict row per
    side for the ring axioms and RatFunc arithmetic for the exact
    dimension equations."""
    frontier = ring.frontier if ring.truncated else frozenset()
    clipped = {pair for pair, row in ring.N.items()
               if not frontier.isdisjoint(row)}

    def checkable(*labels):
        return frontier.isdisjoint(labels) and not any(
            (a, b) in clipped for a in labels for b in labels)

    def combine(coeffs, row_of):
        out = {}
        for x, k in coeffs.items():
            for d, v in row_of(x).items():
                out[d] = out.get(d, 0) + k * v
        return out

    labels, unit, dual = ring.labels, ring.unit, ring.dual
    failures = []
    if dual.get(unit) != unit:
        failures.append(f"dual(unit) = {dual.get(unit)} != unit")
    failures += [f"dual not involutive at {a}" for a in labels
                 if dual.get(dual.get(a)) != a][:1]
    for b in labels:
        for c in labels:
            want = 1 if b == c else 0
            if ring.mult(unit, b, c) != want:
                failures.append(f"unit law fails: N(unit,{b},{c}) != {want}")
            if ring.mult(b, unit, c) != want:
                failures.append(f"unit law fails: N({b},unit,{c}) != {want}")
    for a, b, c, v in _triples(ring):
        if v < 0:
            failures.append(f"negative multiplicity at ({a},{b},{c})")
        if not checkable(a, b, c):
            continue
        da, db, dc = dual[a], dual[b], dual[c]
        for x, y, z in ((db, da, dc), (da, c, b)):
            if ring.mult(x, y, z) != v:
                failures.append(
                    f"Frobenius fails: N({a},{b},{c})={v} but "
                    f"N({x},{y},{z})={ring.mult(x, y, z)}")
    for a in labels:
        for b in labels:
            for g in labels:
                if not checkable(a, b, g):
                    continue
                lhs = combine(ring.row(a, b), lambda x: ring.row(x, g))
                rhs = combine(ring.row(b, g), lambda y: ring.row(a, y))
                for d in labels:
                    left, right = lhs.get(d, 0), rhs.get(d, 0)
                    if left != right:
                        failures.append(
                            f"associativity fails at ({a},{b},{g})->{d}: "
                            f"{left} != {right}")
    pairs = [(a, b) for a in labels for b in labels if checkable(a, b)]
    if ring.dims is not None:
        for a, b in pairs:
            lhs = ring.dims[a] * ring.dims[b]
            rhs = sum(v * ring.dims[c] for c, v in ring.row(a, b).items())
            if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs)):
                failures.append(
                    f"dimension equation fails at ({a},{b}): {lhs} vs {rhs}")
    if ring.dims_exact is not None:
        for a, b in pairs:
            lhs = ring.dims_exact[a] * ring.dims_exact[b]
            rhs = sum((RatFunc.from_int(v) * ring.dims_exact[c]
                       for c, v in ring.row(a, b).items()), RF_ZERO)
            if lhs != rhs:
                failures.append(f"exact dimension equation fails at ({a},{b})")
    return failures


def rational_ladder(width, r):
    """tlj_ladder(width) with the exact dims U_k(r) of a rational loop
    value r: d_0 = 1, d_1 = r, d_(k+1) = r d_k - d_(k-1).  The dimension
    equations are identities in r, so they hold for every r."""
    ring = tlj_ladder(width)
    dims = [RF_ONE, r]
    while len(dims) < width:
        dims.append(r * dims[-1] - dims[-2])
    return FusionRing(ring.labels, ring.dual, ring.N,
                      dims_exact=dict(zip(ring.labels, dims)),
                      truncated=True, frontier=ring.frontier)


# numerator coefficients past 2^64 and a denominator that is not monic
BIG_LOOP = parse_scalar(f"({2 ** 64}*delta^2 + 1)/(3*delta + {2 ** 63})")
BASE_RINGS = [relabel(from_group(cyclic(3))), relabel(from_group(dihedral(3))),
              tlj_even(6), tlj_ladder(3), tlj_ladder(6),
              rational_ladder(6, BIG_LOOP)]
# past 2^63 and negative, so a field narrower than L M would alias
MULTIPLICITIES = st.one_of(st.integers(-3, 3),
                           st.integers(2 ** 63, 2 ** 63 + 2),
                           st.integers(-(2 ** 64) - 2, -(2 ** 64)),
                           st.just(2 ** 64))
COEFFS = st.one_of(st.integers(-3, 3), st.integers(2 ** 63, 2 ** 63 + 2),
                   st.integers(-(2 ** 64) - 2, -(2 ** 64)))
POLYS = st.lists(COEFFS, max_size=3).map(IntPoly)
EXACT_DIMS = st.one_of(POLYS.map(RatFunc),
                       st.builds(RatFunc, POLYS, POLYS.filter(bool)))


@st.composite
def tampered_rings(draw):
    ring = draw(st.sampled_from(BASE_RINGS))
    labels = ring.labels
    N = {pair: dict(row) for pair, row in ring.N.items()}
    for _ in range(draw(st.integers(0, 3))):
        a, b, c = (draw(st.sampled_from(labels)) for _ in range(3))
        N.setdefault((a, b), {})[c] = draw(MULTIPLICITIES)
    dual = dict(ring.dual)
    if draw(st.integers(0, 4)) == 0:
        dual[draw(st.sampled_from(labels))] = draw(st.sampled_from(labels))
    truncated = draw(st.booleans())
    frontier = ring.frontier
    if truncated and (not frontier or draw(st.booleans())):
        frontier = draw(st.sets(st.sampled_from(labels), max_size=2))
    dims = ring.dims
    if dims is not None and draw(st.booleans()):
        dims = {**dims, draw(st.sampled_from(labels)): draw(st.floats(0.5, 8))}
    exact = ring.dims_exact
    if exact is not None or draw(st.booleans()):
        exact = dict(exact or dict.fromkeys(labels, RF_ONE))
        for _ in range(draw(st.integers(0, 2))):
            exact[draw(st.sampled_from(labels))] = draw(EXACT_DIMS)
    return FusionRing(labels, dual, N, dims, exact, truncated=truncated,
                      frontier=frontier)


def _retargeted(value):
    """Z/3 with x1 . x1 = {x1: value}: with 64-bit fields 2^64 x1 packs
    exactly like the true product x2."""
    ring = BASE_RINGS[0]
    N = {**ring.N, ("x1", "x1"): {"x1": value}}
    return FusionRing(ring.labels, ring.dual, N)


def _aliased(paths, mult):
    """(x0 . x1) . x2 = paths mult^2 x0 against x0 . (x1 . x2) = x1.

    At (4, 1) the sides pack alike in fields sized by M alone, at (1, 4)
    in fields sized by L alone; fields sized by L M tell them apart.
    """
    labels = tuple(f"x{i}" for i in range(2 + paths))
    N = {("x0", "x1"): dict.fromkeys(labels[2:], mult),
         ("x1", "x2"): {"x0": 1}, ("x0", "x0"): {"x1": 1}}
    N.update({(x, "x2"): {"x0": mult} for x in labels[2:]})
    return FusionRing(labels, {x: x for x in labels}, N)


def _one_label(dim, mult):
    """u . u = mult u with the exact dimension dim.

    (delta/4, 1) and (delta, 4) both fail d(u)^2 = mult d(u), yet both
    hold at delta = 4.  The bound 2^K > B tells them apart only with
    the lcm factor in B (the first) and the row norm in B (the second):
    without it 2^K = 4.
    """
    return FusionRing(("u",), {"u": "u"}, {("u", "u"): {"u": mult}},
                      dims_exact={"u": dim})


@given(tampered_rings())
@example(_retargeted(2 ** 64))
@example(_retargeted(-(2 ** 64)))
@example(_aliased(4, 1))
@example(_aliased(1, 4))
@example(_one_label(parse_scalar("delta/4"), 1))
@example(_one_label(parse_scalar("delta"), 4))
@settings(max_examples=200, deadline=None)
def test_verify_axioms_matches_dict_reference(ring):
    assert verify_axioms(ring) == reference_failures(ring)


def test_base_rings_pass():
    assert [verify_axioms(ring) for ring in BASE_RINGS] == [[]] * 6


def _z3(pair=None, row=None, **exact):
    """Z/3 with the row N[pair] replaced (deleted when row is None) and
    the named exact dimensions replaced."""
    ring = BASE_RINGS[0]
    N = dict(ring.N)
    if pair is not None:
        N.pop(pair)
        if row is not None:
            N[pair] = row
    dims_exact = {**ring.dims_exact, **{k: parse_scalar(v)
                                        for k, v in exact.items()}}
    return FusionRing(ring.labels, ring.dual, N, ring.dims, dims_exact)


def _z3_with_a_stored_zero():
    ring = _z3()
    ring.N["x0", "x1"]["x2"] = 0  # a zero entry kept in a unit row
    return ring


AXIOM_PINS = {
    "zero-unit-diagonal": (lambda: _z3(("x0", "x1"), {"x1": 0}), [
        "unit law fails: N(unit,x1,x1) != 1",
        "Frobenius fails: N(x2,x0,x2)=1 but N(x0,x1,x1)=0",
        "associativity fails at (x0,x1,x1)->x2: 0 != 1",
        "associativity fails at (x0,x1,x2)->x0: 0 != 1",
        "associativity fails at (x0,x2,x2)->x1: 1 != 0",
        "associativity fails at (x1,x0,x1)->x2: 1 != 0",
        "associativity fails at (x1,x2,x1)->x1: 0 != 1",
        "associativity fails at (x2,x0,x1)->x0: 1 != 0",
        "associativity fails at (x2,x1,x1)->x1: 0 != 1",
        "dimension equation fails at (x0,x1): 1.0 vs 0",
        "exact dimension equation fails at (x0,x1)",
    ]),
    "missing-unit-row": (lambda: _z3(("x2", "x0")), [
        "unit law fails: N(x2,unit,x2) != 1",
        "Frobenius fails: N(x0,x1,x1)=1 but N(x2,x0,x2)=0",
        "Frobenius fails: N(x1,x2,x0)=1 but N(x2,x0,x2)=0",
        "associativity fails at (x1,x1,x0)->x2: 0 != 1",
        "associativity fails at (x1,x2,x0)->x0: 1 != 0",
        "associativity fails at (x2,x0,x1)->x0: 0 != 1",
        "associativity fails at (x2,x0,x2)->x1: 0 != 1",
        "associativity fails at (x2,x1,x2)->x2: 1 != 0",
        "associativity fails at (x2,x2,x0)->x1: 1 != 0",
        "associativity fails at (x2,x2,x1)->x2: 1 != 0",
        "dimension equation fails at (x2,x0): 1.0 vs 0",
        "exact dimension equation fails at (x2,x0)",
    ]),
    "stored-zero-in-unit-row": (_z3_with_a_stored_zero, []),
    "negative-multiplicity": (lambda: _z3(("x1", "x2"), {"x0": -1}), [
        "negative multiplicity at (x1,x2,x0)",
        "Frobenius fails: N(x1,x2,x0)=-1 but N(x2,x0,x2)=1",
        "Frobenius fails: N(x2,x0,x2)=1 but N(x1,x2,x0)=-1",
        "associativity fails at (x1,x1,x1)->x0: 1 != -1",
        "associativity fails at (x1,x1,x2)->x1: 1 != -1",
        "associativity fails at (x1,x2,x1)->x1: -1 != 1",
        "associativity fails at (x1,x2,x2)->x2: -1 != 1",
        "associativity fails at (x2,x1,x2)->x2: 1 != -1",
        "associativity fails at (x2,x2,x2)->x0: -1 != 1",
        "dimension equation fails at (x1,x2): 1.0 vs -1.0",
        "exact dimension equation fails at (x1,x2)",
    ]),
    "perturbed-exact-dim": (lambda: _z3(x1="(delta + 1)/delta"), [
        "exact dimension equation fails at (x1,x1)",
        "exact dimension equation fails at (x1,x2)",
        "exact dimension equation fails at (x2,x1)",
        "exact dimension equation fails at (x2,x2)",
    ]),
}


@pytest.mark.parametrize("name", sorted(AXIOM_PINS))
def test_axiom_failures_are_pinned(name):
    build, want = AXIOM_PINS[name]
    ring = build()
    assert verify_axioms(ring) == want == reference_failures(ring)


# ---------------------------------------------------------------------------
# truncation semantics on the ladder
# ---------------------------------------------------------------------------

def test_wide_ladder_passes():
    assert verify_axioms(tlj_ladder(40, 2.0)) == []


LADDER_TAMPER_PINS = {
    # no check uses f5 (f5 . f5 is clipped), but a . (b . g) reads (f4, f5)
    ("f4", "f5", "f3"): [
        "associativity fails at (f4,f1,f4)->f3: 2 != 3",
        "associativity fails at (f4,f2,f3)->f3: 3 != 4",
        "associativity fails at (f4,f3,f2)->f3: 3 != 4",
        "associativity fails at (f4,f3,f4)->f3: 4 != 5",
        "associativity fails at (f4,f4,f1)->f3: 2 != 3",
        "associativity fails at (f4,f4,f3)->f3: 4 != 5",
    ],
    # clipped at the frontier and never read
    ("f5", "f5", "f8"): [],
    # clipped, but read as a row of other triples
    ("f4", "f6", "f10"): [
        "associativity fails at (f4,f2,f4)->f10: 1 != 2",
        "associativity fails at (f4,f3,f3)->f10: 1 != 2",
        "associativity fails at (f4,f4,f2)->f10: 1 != 2",
        "associativity fails at (f4,f4,f4)->f10: 2 != 3",
    ],
    ("f6", "f4", "f2"): [
        "associativity fails at (f2,f4,f4)->f2: 4 != 3",
        "associativity fails at (f3,f3,f4)->f2: 4 != 3",
        "associativity fails at (f4,f2,f4)->f2: 4 != 3",
        "associativity fails at (f4,f4,f4)->f2: 4 != 3",
    ],
}


@pytest.mark.parametrize("entry", sorted(LADDER_TAMPER_PINS))
def test_ladder_tampering_is_pinned(entry):
    a, b, c = entry
    ring = tlj_ladder(12)
    ring.N[a, b][c] = 2
    assert verify_axioms(ring) == LADDER_TAMPER_PINS[entry]
