"""Circle diagrams and the low-degree annular chain complex."""

import pytest

from fusionhom.annular import (ChainVector, CircleDiagram, UnsupportedDegree,
                               boundary, boundary_matrix, diagram3,
                               enumerate_diagrams, fill_puncture, h0_report,
                               h1_vanishing_check, h2_vanishing_check, sigma,
                               sigma2, single)
from fusionhom.exactarith import RatFunc, parse_scalar

dp = RatFunc.delta_power


def test_encode_parse_round_trip():
    for text in ("k=0; -",
                 "k=1; [1]^3",
                 "k=2; [1]^1 [1,2]^2; s=0",
                 "k=3; [1,3]^1 [2,3]^1; s=1"):
        d = CircleDiagram.parse(text)
        assert d.encode() == text
        assert CircleDiagram.parse(d.encode()) == d


def test_blocks_are_normalized_and_sorted():
    d = CircleDiagram(2, [(1, 2, 1), (1, 1, 2), (1, 2, 1)])
    assert d.blocks == ((1, 1, 2), (1, 2, 2))
    assert d.mult(1, 2) == 2
    assert d.mult(2, 2) == 0
    assert d.total() == 4


def test_crossing_blocks_rejected():
    with pytest.raises(ValueError, match="crossing"):
        CircleDiagram(3, [(1, 2, 1), (2, 3, 1)])
    # nesting is fine
    CircleDiagram(3, [(1, 3, 1), (2, 3, 1)])


def test_block_validation():
    with pytest.raises(ValueError):
        CircleDiagram(2, [(1, 3, 1)])
    with pytest.raises(ValueError):
        CircleDiagram(2, [(1, 1, -1)])
    with pytest.raises(ValueError):
        CircleDiagram(0, [(1, 1, 1)])


def test_degree_zero_shadings_identified():
    assert CircleDiagram(0, [], 1).shading is None
    assert CircleDiagram(0, [], 0) == CircleDiagram(0, [], 1)


def test_degree_four_unsupported():
    with pytest.raises(UnsupportedDegree):
        CircleDiagram(4, [])


def test_diagrams_are_immutable_and_hashable():
    d = sigma(2)
    with pytest.raises(AttributeError):
        d.degree = 3
    assert len({sigma(2), sigma(2), sigma(3)}) == 2


def test_shaded_sigma0_is_a_degree_one_diagram():
    s = sigma(0, shading=1)
    assert s.degree == 1
    assert s.shading == 1
    assert s.encode() == "k=1; -; s=1"


def test_enumeration_counts():
    assert len(enumerate_diagrams(1, 3)) == 4
    assert len(enumerate_diagrams(2, 2)) == 10
    assert len(enumerate_diagrams(3, 1)) == 7
    assert len(enumerate_diagrams(3, 10)) == 5005


def test_fill_puncture_counts_deleted_circles():
    d = CircleDiagram.parse("k=2; [1]^1 [1,2]^2; s=0")
    # filling puncture 1 merges the lone circle into the spanning ones
    assert fill_puncture(d, 1) == (CircleDiagram.parse("k=1; [1]^3; s=0"), 0)
    # filling puncture 2 deletes two closed circles, each worth delta
    assert fill_puncture(d, 2) == (CircleDiagram.parse("k=1; [1]^1; s=0"), 2)


def test_sigma_is_a_cycle():
    for k in range(5):
        assert not boundary(sigma(k)).terms


def test_degree_two_boundary_closed_form():
    got = boundary(sigma2(1, 2, 3))
    want = (single(sigma(5), dp(1)) - single(sigma(4), dp(2))
            + single(sigma(3), dp(3)))
    assert got == want


def test_shaded_boundary_parity_flip():
    # odd c flips the shading bit on the last term only
    got = boundary(sigma2(0, 2, 1, shading=0))
    want = (single(sigma(3, 0), dp(0)) - single(sigma(1, 0), dp(2))
            + single(sigma(2, 1), dp(1)))
    assert got == want
    # even c keeps every bit
    got = boundary(sigma2(0, 2, 2, shading=0))
    want = (single(sigma(4, 0), dp(0)) - single(sigma(2, 0), dp(2))
            + single(sigma(2, 0), dp(2)))
    assert got == want


def test_degree_three_boundary_reaches_degree_two():
    got = boundary(diagram3(a=1, b=1, c=1))
    assert got.degree == 2
    assert got == (single(sigma2(1, 1, 0), dp(1))
                   - single(sigma2(1, 1, 0), dp(1))
                   + single(sigma2(1, 1, 0), dp(1))
                   - single(sigma2(1, 1, 1)))


def test_chain_vectors_cancel():
    v = single(sigma(3)) - single(sigma(3))
    assert not v
    assert v == ChainVector(1)


def test_boundary_matrix_shapes_and_composition():
    m2 = boundary_matrix(2, 4)
    assert m2.cols == len(enumerate_diagrams(2, 4))
    assert m2.rows == len(enumerate_diagrams(1, 4))
    m3 = boundary_matrix(3, 4)
    assert m2.mat_mul(m3).is_zero()
    with pytest.raises(ValueError):
        boundary_matrix(2, 5, 4)


def test_h0_is_one_dimensional():
    assert h0_report(4) == 1


def test_h1_certificates_rebuild_the_cycle():
    report = h1_vanishing_check(4)
    assert report["contained"]
    assert report["K"] == 4
    for m, entry in report["per_m"].items():
        assert entry["contained"]
        rebuilt = ChainVector(1)
        for encoding, coeff in entry["certificate"]:
            d = CircleDiagram.parse(encoding)
            rebuilt = rebuilt + boundary(d).scale(parse_scalar(coeff))
        assert rebuilt == single(sigma(m))


def test_h2_window_contains_kernel():
    # kernel_dim and columns_used do not depend on the kernel basis or the
    # pivot order, so they are pinned
    for n, pinned in ((3, (16, 69)), (4, (30, 170))):
        report = h2_vanishing_check(n)
        assert report["contained"]
        assert not report["failing_vectors"]
        assert (report["kernel_dim"], report["columns_used"]) == pinned


def test_h2_with_no_generators_fails_honestly():
    report = h2_vanishing_check(4, generators=[])
    assert not report["contained"]
    assert report["failing_vectors"]
