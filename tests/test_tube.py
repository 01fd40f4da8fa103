"""Tube algebras: identities, corner fusion, bar homology, serialization."""

import pytest

from fusionhom import tube
from fusionhom.errors import InvariantViolation, ParseError, SizeLimit
from fusionhom.exactarith import RF_ONE, RatFunc
from fusionhom.fusion import beta0, from_group
from fusionhom.groups import cyclic, dihedral, symmetric
from fusionhom.tube import (TubeAlgebra, bar_boundary_matrix,
                            bar_chain_basis, fusion_corner,
                            invariant_projection, trivial_homology,
                            MAX_WITNESSES, tube_from_group, tube_from_text,
                            verify_identities)

RF_ZERO = RatFunc.from_int(0)


def tube_to_text(A: TubeAlgebra) -> str:
    """Canonical serialization: corners c0.., basis a0.., sorted lines."""
    corner_name = {c: f"c{i}" for i, c in enumerate(A.corners)}
    basis_name = {b: f"a{i}" for i, b in enumerate(A.basis)}
    lines = ["tube-algebra",
             "corners: " + " ".join(corner_name[c] for c in A.corners)]
    lines.append("basis:")
    for b in A.basis:
        lines.append(f"{basis_name[b]} {corner_name[A.src[b]]} {corner_name[A.tgt[b]]}")
    lines.append("units:")
    for c in A.corners:
        lines.append(f"{corner_name[c]} {basis_name[A.unit_of_corner[c]]}")
    lines.append("mult:")
    for a in A.basis:
        for b in A.basis:
            comb = A.mult_elems(a, b)
            for c in sorted(comb, key=A.index.get):
                lines.append(f"{basis_name[a]} {basis_name[b]} "
                             f"{basis_name[c]} {comb[c]}")
    lines.append("star:")
    for a in A.basis:
        for b in sorted(A.star[a], key=A.index.get):
            lines.append(f"{basis_name[a]} {basis_name[b]} {A.star[a][b]}")
    lines.append("trace:")
    for a in A.basis:
        v = A.trace_vec.get(a)
        if v:
            lines.append(f"{basis_name[a]} {v}")
    lines.append("counit:")
    for a in A.basis:
        v = A.counit_vec.get(a)
        if v:
            lines.append(f"{basis_name[a]} {v}")
    return "\n".join(lines) + "\n"


def test_tube_dimension_is_group_order_squared():
    # basis runs over all pairs (object, annulus label)
    assert tube_from_group(cyclic(2)).dim() == 4
    assert tube_from_group(cyclic(3)).dim() == 9
    assert tube_from_group(symmetric(3)).dim() == 36


@pytest.mark.parametrize("grp", [cyclic(2), cyclic(3), symmetric(3)],
                         ids=["Z2", "Z3", "S3"])
def test_identities_pass_exactly(grp):
    rep = verify_identities(tube_from_group(grp))
    assert rep.all_passed
    assert rep.first_failure() is None
    assert all(not v for v in rep.failures.values())


def test_identity_report_counts_every_check():
    rep = verify_identities(tube_from_group(cyclic(2)))
    assert sum(rep.counts.values()) == 81
    assert set(rep.counts) == {"grading", "projections", "associativity",
                               "star", "trace-symmetry", "gram-psd",
                               "onb-sum", "counit"}


def test_s3_counts_every_identity():
    rep = verify_identities(tube_from_group(symmetric(3)))
    assert rep.counts == {"grading": 216, "projections": 42,
                          "associativity": 1296, "star": 1332,
                          "trace-symmetry": 1296, "gram-psd": 36,
                          "onb-sum": 36, "counit": 43}


def test_star_failures_are_capped():
    A = tube_from_group(symmetric(3))
    A.star = {a: {} for a in A.basis}
    rep = verify_identities(A)
    # all 36 involutions fail; every identity is still counted
    assert rep.failures["star"] == [
        f"star not involutive at {a}" for a in A.basis[:MAX_WITNESSES]]
    assert rep.counts["star"] == 36 + 36 * 36
    assert rep.first_failure() == ("projections",
                                   f"p_{A.corners[0]} not self-adjoint")


def test_counit_failures_are_capped():
    A = tube_from_group(symmetric(3))
    A.counit_vec = {a: RF_ONE for a in A.basis}
    rep = verify_identities(A)
    # the 30 elements outside the distinguished corner each fail
    outside = [a for a in A.basis if A.src[a] != A.corners[0]]
    assert rep.failures["counit"] == [
        f"counit supported outside distinguished corner at {a}"
        for a in outside[:MAX_WITNESSES]]
    assert rep.counts["counit"] == 36 + 1 + 36
    assert [c for c, f in rep.failures.items() if f] == ["counit"]


_Z2 = tube_to_text(tube_from_group(cyclic(2)))
_Z3 = tube_to_text(tube_from_group(cyclic(3)))
_NO_FAILURES = dict.fromkeys(
    ["grading", "projections", "associativity", "star", "trace-symmetry",
     "gram-psd", "onb-sum", "counit"], [])


@pytest.mark.parametrize("text, failures", [
    # a1 moved to corner (c0, c1)
    (_Z2.replace("\na1 c0 c0\n", "\na1 c0 c1\n"), {
        "grading": ["nonzero product across grading: a1*a0",
                    "product a1*a0 leaves its corner block at a1",
                    "nonzero product across grading: a1*a1",
                    "product a1*a1 leaves its corner block at a0"],
        "projections": ["right unit fails at a1"],
        "counit": ["counit supported outside distinguished corner at a1"]}),
    # the unit of corner c1 replaced by a3
    (_Z2.replace("\nc1 a2\n", "\nc1 a3\n"), {
        "projections": ["p_c1 not idempotent",
                        "left unit fails at a2", "right unit fails at a2",
                        "left unit fails at a3", "right unit fails at a3"],
        "onb-sum": ["onb sum identity fails at a2",
                    "onb sum identity fails at a3"]}),
    # one product scaled by 2
    (_Z3.replace("\na2 a2 a1 1\n", "\na2 a2 a1 2\n"), {
        "associativity": ["associativity fails at (a1,a1,a2)",
                          "associativity fails at (a1,a2,a2)",
                          "associativity fails at (a2,a1,a1)",
                          "associativity fails at (a2,a2,a1)"],
        "star": ["star anti-multiplicativity fails at (a1,a1)",
                 "star anti-multiplicativity fails at (a2,a2)"],
        "counit": ["counit not multiplicative at (a2,a2)"]}),
], ids=["grading", "unit", "scaled-product"])
def test_tampered_tube_failures_are_pinned(text, failures):
    rep = verify_identities(tube_from_text(text, verify=False))
    assert rep.failures == {**_NO_FAILURES, **failures}
    assert rep.notes == {}


@pytest.mark.parametrize("grp", [cyclic(2), cyclic(3), symmetric(3)],
                         ids=["Z2", "Z3", "S3"])
def test_corner_recovers_group_fusion(grp):
    report = fusion_corner(tube_from_group(grp), from_group(grp))
    assert report["isomorphic"]
    assert report["corner_dim"] == len(grp.elements)
    assert report["mismatch"] is None


def test_corner_mismatch_is_reported():
    report = fusion_corner(tube_from_group(cyclic(2)), from_group(cyclic(3)))
    assert not report["isomorphic"]
    assert report["mismatch"]


def test_bar_chain_dims_are_powers():
    A = tube_from_group(cyclic(2))
    assert [len(bar_chain_basis(A, n)) for n in range(4)] == [1, 2, 4, 8]


def test_boundary_squares_to_zero():
    A = tube_from_group(cyclic(3))
    d1 = bar_boundary_matrix(A, 1)
    d2 = bar_boundary_matrix(A, 2)
    prod = d1.mat_mul(d2)
    assert all(v == RF_ZERO for v in prod.entries.values())


@pytest.mark.parametrize("grp", [cyclic(2), cyclic(3), symmetric(3)],
                         ids=["Z2", "Z3", "S3"])
def test_trivial_homology_dims(grp):
    rep = trivial_homology(tube_from_group(grp), 2)
    assert rep.dims == (1, 0, 0)


def test_homology_respects_chain_cap():
    A = tube_from_group(symmetric(3))
    with pytest.raises(SizeLimit):
        trivial_homology(A, 3, chain_cap=100)


@pytest.mark.parametrize("grp,degree", [
    (cyclic(2), 2), (cyclic(3), 2), (symmetric(3), 2), (dihedral(4), 2),
    (symmetric(3), 3)], ids=["Z2", "Z3", "S3", "D4", "S3-degree3"])
def test_projection_agrees_with_the_bar_complex(grp, degree, monkeypatch):
    A = tube_from_group(grp)
    fast = trivial_homology(A, degree)
    monkeypatch.setattr(tube, "invariant_projection", lambda A: None)
    bar = trivial_homology(A, degree)
    assert (fast.method, bar.method) == ("invariant-projection", "bar-complex")
    assert fast.dims == bar.dims == (1,) + (0,) * degree
    assert fast.chain_dims == bar.chain_dims
    assert bar.tau_p is None


@pytest.mark.parametrize("grp", [cyclic(2), cyclic(3), symmetric(3),
                                 dihedral(4), symmetric(4)],
                         ids=["Z2", "Z3", "S3", "D4", "S4"])
def test_trace_of_the_projection_is_beta0(grp):
    rep = trivial_homology(tube_from_group(grp), 1)
    assert rep.tau_p == beta0(from_group(grp)).beta0_exact
    assert rep.tau_p == RatFunc.from_int(1) / RatFunc.from_int(len(grp.elements))


@pytest.mark.parametrize("table, entry", [
    ("counit_vec", {(0, 1): RatFunc.from_int(2)}),
    ("mult", {((0, 1), (0, 1)): {(0, 0): RatFunc.from_int(2)}}),
    # solvable from the rows at eps; only the check on every x rejects it
    ("mult", {((0, 0), (1, 0)): {(1, 0): RF_ONE}})],
    ids=["counit", "corner-product", "across-grading"])
def test_tampering_leaves_no_projection_and_the_bar_complex_runs(
        table, entry, monkeypatch):
    A = tube_from_group(cyclic(2))
    getattr(A, table).update(entry)
    assert not verify_identities(A).all_passed
    assert invariant_projection(A) is None
    calls = []

    def spy(*args):
        calls.append(args[1])
        return bar_boundary_matrix(*args)

    monkeypatch.setattr(tube, "bar_boundary_matrix", spy)
    rep = trivial_homology(A, 1)
    assert calls == [1, 2]
    assert rep.method == "bar-complex" and rep.tau_p is None


def test_text_round_trip():
    A = tube_from_group(dihedral(4))
    txt = tube_to_text(A)
    B = tube_from_text(txt)
    assert B.dim() == A.dim()
    assert tube_to_text(B) == txt
    assert verify_identities(B).all_passed


def test_star_corruption_is_caught():
    txt = tube_to_text(tube_from_group(cyclic(2)))
    bad = txt.replace("\na1 a1 1\n", "\na1 a0 1\n")
    assert bad != txt
    with pytest.raises(InvariantViolation, match="star"):
        tube_from_text(bad)


def test_counit_corruption_is_caught():
    txt = tube_to_text(tube_from_group(cyclic(2)))
    marker = txt.index("counit:")
    bad = txt[:marker] + "counit:\na0 1\n"
    assert bad != txt
    with pytest.raises(InvariantViolation, match="counit"):
        tube_from_text(bad)


def test_associativity_corruption_is_caught():
    txt = tube_to_text(tube_from_group(cyclic(3)))
    bad = txt.replace("\na2 a2 a1 1\n", "\na2 a2 a2 1\n")
    assert bad != txt
    with pytest.raises(InvariantViolation, match="associativity"):
        tube_from_text(bad)


def test_junk_file_is_a_parse_error():
    with pytest.raises(ParseError):
        tube_from_text("not a tube at all\n")
    with pytest.raises(ParseError):
        tube_from_text("tube-algebra\ncorners: c0\nbasis:\na0 c0 c0\n")


GENERIC_TRACE = """tube-algebra
corners: c0
basis:
a0 c0 c0
units:
c0 a0
mult:
a0 a0 a0 1
star:
a0 a0 1
trace:
a0 delta
counit:
a0 1
"""


def test_generic_trace_skips_minors_but_still_passes():
    rep = verify_identities(tube_from_text(GENERIC_TRACE))
    assert rep.all_passed
    assert any("minors skipped" in note
               for notes in rep.notes.values() for note in notes)


# one corner, unit a1, a0 . a0 = 0: the Gram block is [[0, 0], [0, -1]],
# whose leading minors are 0 and 0
NEGATIVE_TRACE = """tube-algebra
corners: c0
basis:
a0 c0 c0
a1 c0 c0
units:
c0 a1
mult:
a1 a1 a1 1
a1 a0 a0 1
a0 a1 a0 1
star:
a0 a0 1
a1 a1 1
trace:
a1 -1
counit:
a1 1
"""


@pytest.mark.parametrize("text, witness", [
    (NEGATIVE_TRACE, "pivot 2 negative"),
    (NEGATIVE_TRACE.replace("a1 -1", "a0 1\na1 1"),
     "pivot 1 zero on a nonzero row"),
], ids=["negative-pivot", "zero-pivot-nonzero-row"])
def test_gram_that_is_not_semidefinite_is_caught(text, witness):
    with pytest.raises(InvariantViolation, match="gram-psd") as exc:
        tube_from_text(text)
    assert witness in str(exc.value)
