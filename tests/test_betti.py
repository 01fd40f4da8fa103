"""Betti profiles: exact folding, combinators, and their hypotheses."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusionhom.betti import (INF, ONE, BettiProfile, BettiValue,
                             free_product, fuss_catalan, point_profile,
                             profile_to_json, tensor_product, tlj_profile)


def test_sinsq_folds_special_angles():
    # 4 sin^2(pi/m) / m is rational exactly at m in {1, 2, 3, 4, 6}
    assert BettiValue.sinsq(2).rational == 2
    assert BettiValue.sinsq(3).rational == 1
    assert BettiValue.sinsq(4).rational == Fraction(1, 2)
    assert BettiValue.sinsq(6).rational == Fraction(1, 6)
    assert BettiValue.sinsq(INF).rational == 0


def test_sinsq_generic_stays_symbolic():
    v = BettiValue.sinsq(5)
    assert v.rational == 0
    assert v.terms == {(5,): Fraction(1)}
    assert v.exact_str() == "SinSq(5)"


def test_sinsq_rejects_atoms_outside_the_cyclotomic_family():
    # a negative atom would break the positivity the zero test relies on:
    # SinSq(-5) + SinSq(5) is 0
    for m in (-5, 0, 5.0, 2.5):
        with pytest.raises(ValueError):
            BettiValue.sinsq(m)


def test_atoms_merge_and_cancel():
    v = BettiValue.sinsq(5) + BettiValue.sinsq(7) - BettiValue.sinsq(5)
    assert v == BettiValue.sinsq(7)
    assert (v - BettiValue.sinsq(7)).to_float() == 0.0


def test_atom_product_is_exact():
    v = BettiValue.sinsq(5) * BettiValue.sinsq(7)
    assert v.terms == {(5, 7): Fraction(1)}
    assert v.exact_str() == "SinSq(5)*SinSq(7)"
    assert v == BettiValue.sinsq(7) * BettiValue.sinsq(5)
    assert v != BettiValue.sinsq(5)


def test_linearly_dependent_atoms_compare_equal():
    # 2*SinSq(10) - SinSq(5) = -1/5: the atoms are not independent over Q
    assert BettiValue(0, [(2, 10), (-1, 5)]) == BettiValue(Fraction(-1, 5))
    assert BettiValue(0, [(2, 10), (-1, 5)]).sign() == -1
    assert BettiValue(Fraction(1, 5), [(2, 10), (-1, 5)]).sign() == 0


def test_atom_square_reduces_in_its_field():
    s5 = BettiValue.sinsq(5)
    assert s5 * s5 == s5 - Fraction(1, 5)
    # 8*SinSq(8) - 2 = -sqrt(2)
    root = BettiValue.sinsq(8) * 8 - 2
    assert root * root == 2
    assert root.sign() == -1
    assert root != -1
    # double angle: m*SinSq(m) = 4 - 4c^2 with c = cos(pi/m) = 1 - m*SinSq(2m)
    for m in range(5, 30):
        c = ONE - BettiValue.sinsq(2 * m) * m
        assert BettiValue.sinsq(m) * m == (ONE - c * c) * 4


def test_tiny_negative_value_is_negative():
    tiny = BettiValue.sinsq(10**5)  # about 3.9e-14
    with pytest.raises(ValueError):
        BettiProfile([-tiny])
    assert tiny.sign() == 1
    assert (ONE - tiny - ONE).sign() == -1


def test_point_profile_is_unit():
    p = point_profile()
    assert p.value(0) == BettiValue(1)
    assert p.value(3) == BettiValue(0)


def test_tlj_profile_values():
    p = tlj_profile(5)
    assert p.value(0) == BettiValue.sinsq(6)
    assert p.value(0).rational == Fraction(1, 6)
    assert tlj_profile(INF).value(0) == BettiValue(0)
    with pytest.raises(ValueError):
        tlj_profile(1)


def test_free_product_beta1_formula():
    p = free_product(tlj_profile(5), tlj_profile(5))
    assert p.value(0) == BettiValue(0)
    assert p.value(1).rational == Fraction(2, 3)
    assert not p.warnings


def test_free_product_flags_trivial_factor():
    p = free_product(point_profile(), tlj_profile(5))
    assert p.warnings
    assert "beta0 >= 1" in p.warnings[0]


def test_free_product_accepts_beta0_just_below_one():
    near_one = BettiProfile([ONE - BettiValue.sinsq(10**5)])
    assert not free_product(near_one, tlj_profile(INF)).warnings


def test_fuss_catalan_matches_free_product():
    for n in (3, 4, 7, 12, INF):
        for m in (3, 5, 20, INF):
            assert fuss_catalan(n, m) == free_product(tlj_profile(n),
                                                      tlj_profile(m))


def test_fuss_catalan_marquee_values():
    assert fuss_catalan(3, 3).value(1) == BettiValue(0)
    assert fuss_catalan(5, 5).value(1).rational == Fraction(2, 3)
    with pytest.raises(ValueError):
        fuss_catalan(2, 5)


def test_tensor_is_cauchy_convolution():
    p = BettiProfile([BettiValue(1), BettiValue(2)])
    q = BettiProfile([BettiValue(1), BettiValue(3)])
    t = tensor_product(p, q)
    assert t.value(0) == BettiValue(1)
    assert t.value(1) == BettiValue(5)
    assert t.value(2) == BettiValue(6)


def test_tensor_unit_and_commutativity():
    probes = [tlj_profile(7), fuss_catalan(4, 6)]
    for p in probes:
        assert tensor_product(point_profile(), p) == p
        for q in probes:
            assert tensor_product(p, q) == tensor_product(q, p)


def test_profile_rejects_negative_without_warnings():
    with pytest.raises(ValueError):
        BettiProfile([BettiValue(-1)])


def test_profile_allows_negative_with_warnings():
    p = BettiProfile([BettiValue(-1)], warnings=("hypothesis violated",))
    assert p.value(0).rational == -1


def test_profile_to_json_shape():
    blob = profile_to_json(fuss_catalan(5, 5), "fc(5,5)")
    assert blob["provenance"] == "fc(5,5)"
    assert blob["profile"][1]["exact"] == "2/3"
    assert blob["profile"][1]["float"] == pytest.approx(2 / 3)


@given(st.integers(min_value=3, max_value=60), st.integers(min_value=3, max_value=60))
def test_fuss_catalan_beta1_nonnegative(n, m):
    assert fuss_catalan(n, m).value(1).sign() >= 0


@given(st.integers(min_value=2, max_value=40))
def test_tlj_beta0_in_unit_interval(n):
    v = tlj_profile(n).value(0).to_float()
    assert 0 < v <= 1
