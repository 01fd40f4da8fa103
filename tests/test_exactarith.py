"""Exact scalar arithmetic and fraction-free linear algebra.

The frozen examples come first, then randomized oracles comparing the
exact elimination against float evaluation, then hypothesis properties
for the field axioms and rank invariance, the integer-polynomial kernel
(gcd, pseudo-remainder, product, difference) against a plain Euclid over
Fraction, the rank certificate over F_p against fraction-free
elimination, and the kernels solved at one integer point against the
fraction-free kernel.
"""

import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionhom import exactarith
from fusionhom.annular import boundary_matrix, enumerate_diagrams, sigma
from fusionhom.exactarith import (
    RF_ONE,
    RF_ZERO,
    DimensionMismatch,
    ONE_POLY,
    IntPoly,
    PoleAtPoint,
    RatFunc,
    SparseMat,
    _pseudo_rem,
    _strip_row_content,
    float_rank,
    fraction_free_rank,
    kernel_basis,
    mat_vec,
    parse_scalar,
    poly_gcd,
    rank,
    rank_mod_p,
    span_solve,
)

DELTA = RatFunc.delta()


def test_intpoly_zero_degree():
    assert IntPoly([]).degree == -1
    assert IntPoly([0, 0]).degree == -1
    assert IntPoly([3]).degree == 0
    assert IntPoly([0, 1]).degree == 1


def test_intpoly_trims_and_evaluates():
    p = IntPoly([1, 2, 0, 0])
    assert p.degree == 1
    assert p.eval(3) == 7
    q = IntPoly([-1, 0, 1])  # delta^2 - 1
    assert q.eval(2) == 3


def test_divexact_recovers_factor():
    a = IntPoly([-1, 0, 1])
    b = IntPoly([-1, 1])
    assert a.divexact(b) == IntPoly([1, 1])


def test_poly_gcd_common_factor():
    a = IntPoly([-1, 0, 1])          # (delta-1)(delta+1)
    b = IntPoly([1, -2, 1])          # (delta-1)^2
    g = poly_gcd(a, b)
    assert g == IntPoly([-1, 1])


def test_mul_monomials():
    assert DELTA * DELTA == RatFunc.delta_power(2)


def test_div_cancels_factor():
    num = RatFunc(IntPoly([-1, 0, 1]))
    den = RatFunc(IntPoly([-1, 1]))
    assert num / den == DELTA + RF_ONE


def test_reduce_then_add():
    # (delta^2 + delta)/delta + 1 = delta + 2, which is 5 at delta=3
    q = RatFunc(IntPoly([0, 1, 1]), IntPoly([0, 1]))
    total = q + RF_ONE
    assert total == DELTA + RatFunc.from_int(2)
    assert total.eval_float(3.0) == 5.0


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RF_ONE / RF_ZERO


@pytest.mark.parametrize("text", ["1/0", "0^-1", "1/(delta-delta)"])
def test_parse_scalar_division_by_zero_is_a_value_error(text):
    with pytest.raises(ValueError, match="division by zero"):
        parse_scalar(text)


def test_eval_float_square():
    assert RatFunc.delta_power(2).eval_float(2.0) == 4.0


def test_eval_float_pole():
    recip = RF_ONE / (DELTA - RF_ONE)
    with pytest.raises(PoleAtPoint):
        recip.eval_float(1.0)


def test_eval_float_irrational_point():
    val = (DELTA + RF_ONE).eval_float(math.sqrt(2))
    assert abs(val - 2.41421356) < 1e-8


def test_parse_scalar_round_trip():
    for text in ("delta", "delta^2 - 1", "(delta^2-1)/(delta-1)",
                 "1/2", "-3*delta + 7"):
        val = parse_scalar(text)
        assert parse_scalar(str(val)) == val


def test_parse_scalar_reduces():
    assert parse_scalar("(delta^2-1)/(delta-1)") == DELTA + RF_ONE


def _mat(rows):
    data = [[parse_scalar(x) if isinstance(x, str) else RatFunc.from_int(x)
             for x in row] for row in rows]
    return SparseMat(len(data), len(data[0]),
                     {(r, c): v for r, row in enumerate(data)
                      for c, v in enumerate(row)})


def test_rank_identity():
    assert rank(_mat([[1, 0], [0, 1]])) == 2


def test_rank_proportional_rows():
    assert rank(_mat([["delta", "delta^2"], [1, "delta"]])) == 1


def test_kernel_identity_empty():
    assert kernel_basis(_mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == []


def test_kernel_of_row_vector():
    vecs = kernel_basis(_mat([["delta", -1]]))
    assert len(vecs) == 1
    assert vecs[0] == [RF_ONE, DELTA]


def test_in_span_first_column():
    m = _mat([["delta", 1], [0, "delta^2"], [1, 0]])
    first = [m[r, 0] for r in range(3)]
    assert span_solve(m, [first])[0] is not None


def test_in_span_rejects_new_direction():
    m = _mat([[1, 0], [0, 1], [0, 0]])
    v = [RF_ZERO, RF_ZERO, RF_ONE]
    assert span_solve(m, [v]) == [None]


def test_in_span_dimension_mismatch():
    m = _mat([[1, 0], [0, 1]])
    with pytest.raises(DimensionMismatch):
        span_solve(m, [[RF_ONE]])
    with pytest.raises(DimensionMismatch):
        span_solve(m, [[RF_ONE, RF_ZERO], [RF_ONE, RF_ZERO, RF_ZERO]])


def test_span_solve_reproduces_combination():
    m = _mat([["delta", 1], [1, 0], [0, "delta"]])
    col0 = [m[r, 0] for r in range(3)]
    col1 = [m[r, 1] for r in range(3)]
    target = [DELTA * a - b for a, b in zip(col0, col1)]
    assert span_solve(m, [target]) == [[DELTA, -RF_ONE]]


def test_span_solve_mixed_targets_in_one_call():
    m = _mat([["delta", 1], [1, 0], [0, "delta"], [0, 0]])
    consistent = [DELTA * DELTA - RF_ONE, DELTA, -DELTA, RF_ZERO]
    inconsistent = [RF_ZERO, RF_ZERO, RF_ZERO, RF_ONE]
    zero = [RF_ZERO] * 4
    x, bad, z = span_solve(m, [consistent, inconsistent, zero])
    assert x == [DELTA, -RF_ONE]
    assert mat_vec(m, x) == consistent
    assert bad is None
    assert z == [RF_ZERO, RF_ZERO]


def test_span_solve_inconsistency_off_the_leading_index():
    # both targets are inconsistent, but elimination leaves one echelon
    # vector that leads at the first target's index only
    m = _mat([[1], [1]])
    assert span_solve(m, [[RF_ONE, RF_ZERO], [RF_ZERO, RF_ONE]]) == [None, None]


def _random_matrix(rng, rows, cols, degree=3):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < 0.35:
                continue
            k = rng.randint(0, degree)
            sign = rng.choice((-1, 1))
            poly = IntPoly([0] * k + [sign])
            entries[r, c] = RatFunc(poly)
    return SparseMat(rows, cols, entries)


def test_float_rank_oracle_five_by_five():
    rng = random.Random(7)
    for _ in range(25):
        m = _random_matrix(rng, 5, 5)
        assert rank(m) == float_rank(m, 3.7)


def test_float_rank_three_points():
    rng = random.Random(11)
    for _ in range(30):
        m = _random_matrix(rng, rng.randint(2, 5), rng.randint(2, 5))
        exact = rank(m)
        for _ in range(3):
            assert float_rank(m, rng.uniform(2.1, 9.9)) == exact


def test_kernel_vectors_annihilate():
    rng = random.Random(13)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(2, 5), rng.randint(2, 6))
        for v in kernel_basis(m):
            assert all(x == RF_ZERO for x in mat_vec(m, v))


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

small_polys = st.lists(st.integers(min_value=-3, max_value=3),
                       min_size=1, max_size=3).map(IntPoly)
nonzero_polys = small_polys.filter(bool)


@st.composite
def ratfuncs(draw):
    return RatFunc(draw(small_polys), draw(nonzero_polys))


@given(ratfuncs(), ratfuncs())
def test_add_then_subtract_is_identity(a, b):
    assert (a + b) - b == a


@given(ratfuncs(), ratfuncs(), ratfuncs())
@settings(max_examples=60)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(ratfuncs())
def test_multiplicative_inverse(a):
    if a == RF_ZERO:
        return
    assert a * (RF_ONE / a) == RF_ONE


@given(small_polys, nonzero_polys)
def test_unit_denominator_is_canonical(p, q):
    # RatFunc(p) skips the gcd work; it must store what reducing p*q/q stores
    a, b = RatFunc(p), RatFunc(p * q, q)
    assert (a.num, a.den) == (b.num, b.den)


@given(ratfuncs(), ratfuncs())
def test_canonical_form_is_hashable_equality(a, b):
    if a == b:
        assert hash(a) == hash(b)


# The arithmetic skips the normaliser on canonical operands; the general
# constructor RatFunc(num, den) on the unreduced result is the oracle.
operands = st.one_of(small_polys.map(RatFunc), ratfuncs(),
                     st.sampled_from([RF_ZERO, RF_ONE, -RF_ONE]))

ORACLES = {
    "+": lambda a, b: RatFunc(a.num * b.den + b.num * a.den, a.den * b.den),
    "-": lambda a, b: RatFunc(a.num * b.den - b.num * a.den, a.den * b.den),
    "*": lambda a, b: RatFunc(a.num * b.num, a.den * b.den),
}
OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
       "*": lambda a, b: a * b}


def _assert_canonical_like(got, want):
    assert (got.num, got.den) == (want.num, want.den)
    for r in (got, want):
        assert (r.den is ONE_POLY) == (r.den.coeffs == (1,))


@given(operands, operands, st.sampled_from(sorted(OPS)))
@settings(max_examples=300)
def test_arithmetic_matches_the_general_constructor(a, b, op):
    _assert_canonical_like(OPS[op](a, b), ORACLES[op](a, b))


@given(operands)
def test_negation_matches_the_general_constructor(a):
    _assert_canonical_like(-a, RatFunc(-a.num, a.den))


@given(small_polys, nonzero_polys, st.integers(min_value=-3, max_value=3))
def test_a_denominator_that_reduces_to_one_is_the_shared_one(p, q, k):
    # p*q / q, p*k / k and a negated unit denominator all reduce to den 1
    for r in (RatFunc(p * q, q), RatFunc(p.scale(k or 1), IntPoly((k or 1,))),
              RatFunc(p, IntPoly((-1,)))):
        assert r.den is ONE_POLY


def test_polynomial_arithmetic_skips_the_normaliser():
    a, b = RatFunc(IntPoly((1, 2))), RatFunc(IntPoly((0, -3, 1)))
    general = RatFunc(IntPoly((1,)), IntPoly((1, 1)))
    with mock.patch.object(exactarith, "poly_gcd") as gcd, \
            mock.patch.object(RatFunc, "__init__") as init:
        results = [a + b, a - b, a * b, -a, -general, general + RF_ZERO,
                   RF_ZERO + general, general * RF_ONE, RF_ONE * general]
        assert not gcd.called and not init.called
    assert results[5:] == [general] * 4
    assert results[:3] == [RatFunc(IntPoly((1, -1, 1))),
                           RatFunc(IntPoly((1, 5, -1))),
                           RatFunc(IntPoly((0, -3, -5, 2)))]


@given(st.integers(min_value=0, max_value=23))
def test_rank_invariant_under_permutation_and_scaling(seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, 4, 4)
    base = rank(m)
    perm = list(range(4))
    rng.shuffle(perm)
    shuffled = SparseMat(4, 4, {(perm[r], c): v
                                for (r, c), v in m.entries.items()})
    assert rank(shuffled) == base
    scaled = SparseMat(4, 4, {(r, c): v * DELTA if r == 0 else v
                              for (r, c), v in m.entries.items()})
    assert rank(scaled) == base
    cperm = list(range(4))
    rng.shuffle(cperm)
    permuted = SparseMat(4, 4, {(r, cperm[c]): v
                                for (r, c), v in m.entries.items()})
    assert rank(permuted) == base


# ---------------------------------------------------------------------------
# the integer-polynomial kernel against a plain Euclid over Q
# ---------------------------------------------------------------------------

def _fraction_rem(a, b):
    """Remainder of a by b over Q; coefficient lists of Fraction."""
    a = list(a)
    while len(a) >= len(b):
        q, s = a[-1] / b[-1], len(a) - len(b)
        for i, c in enumerate(b):
            a[s + i] -= q * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _fraction_gcd(a: IntPoly, b: IntPoly):
    """Monic gcd over Q by Euclid on Fraction coefficients ([] for 0, 0)."""
    a = [Fraction(c) for c in a.coeffs]
    b = [Fraction(c) for c in b.coeffs]
    while b:
        a, b = b, _fraction_rem(a, b)
    return [c / a[-1] for c in a]


def _content(p: IntPoly) -> int:
    return math.gcd(*p.coeffs)


kernel_coeffs = st.integers(min_value=-20, max_value=20)
# one-coefficient operands are the common case in elimination
kernel_polys = st.one_of(st.lists(kernel_coeffs, max_size=1),
                         st.lists(kernel_coeffs, max_size=6)).map(IntPoly)


@given(kernel_polys, kernel_polys, kernel_polys.filter(bool))
@settings(max_examples=300)
def test_poly_gcd_of_a_shared_factor(a, b, f):
    af, bf = a * f, b * f
    g = poly_gcd(af, bf)
    if not af and not bf:
        assert g == IntPoly()
        return
    g.divexact(f)  # f divides g in Z[delta]: raises if it does not
    ca, cb = af.divexact(g), bf.divexact(g)
    assert _fraction_gcd(ca, cb) == [1]
    assert g.leading > 0
    assert _content(g) == math.gcd(_content(af), _content(bf))
    assert [Fraction(c, g.leading) for c in g.coeffs] == _fraction_gcd(af, bf)
    assert poly_gcd(bf, af) == g


@given(kernel_polys, st.integers(min_value=-30, max_value=30))
def test_poly_gcd_with_zero_and_constant_operands(p, k):
    normalised = -p if p.leading < 0 else p
    assert poly_gcd(p, IntPoly()) == poly_gcd(IntPoly(), p) == normalised
    const = IntPoly([k])
    expected = (normalised if not k
                else IntPoly([math.gcd(k, _content(p))]))
    assert poly_gcd(p, const) == poly_gcd(const, p) == expected


def test_poly_gcd_frozen_cases():
    assert poly_gcd(IntPoly([0, 6]), IntPoly([4])) == IntPoly([2])
    assert poly_gcd(IntPoly([-4, 0, -4]), IntPoly()) == IntPoly([4, 0, 4])
    # coprime after the first remainder step: a nonzero constant remainder
    assert poly_gcd(IntPoly([1, 1]), IntPoly([-1, 1])) == IntPoly([1])
    # 6(delta - 1)(delta + 2) and -4(delta - 1)^2 share 2(delta - 1)
    assert (poly_gcd(IntPoly([-12, 6, 6]), IntPoly([-4, 8, -4]))
            == IntPoly([-2, 2]))


@pytest.mark.parametrize("entry, stripped", [
    (IntPoly([0, -3]), IntPoly([-1])),
    (IntPoly([0, 3]), IntPoly([1])),
    (IntPoly([-2, 0, 4]), IntPoly([1])),
    (IntPoly([2, 0, -4]), IntPoly([-1])),
    (IntPoly([-1]), IntPoly([-1])),
])
def test_strip_row_content_keeps_the_sign_of_a_one_entry_row(entry, stripped):
    # a lone entry is its own gcd up to the sign of its leading coefficient
    assert _strip_row_content({7: entry}) == {7: stripped}


def test_strip_row_content_divides_a_shared_nonconstant_factor():
    # -2(delta - 1)(delta + 2), 4(delta - 1)^2 and 6 delta (delta - 1)
    # share 2(delta - 1); the quotients keep their signs
    row = {0: IntPoly([4, -2, -2]), 3: IntPoly([4, -8, 4]),
           5: IntPoly([0, -6, 6])}
    assert _strip_row_content(row) == {0: IntPoly([-2, -1]),
                                       3: IntPoly([-2, 2]),
                                       5: IntPoly([0, 3])}
    coprime = {0: IntPoly([1, 1]), 1: IntPoly([-1, 1])}
    assert _strip_row_content(coprime) is coprime
    assert _strip_row_content({}) == {}


@given(kernel_polys, kernel_polys.filter(bool))
def test_pseudo_rem_is_a_multiple_of_the_remainder_over_q(a, b):
    r = _pseudo_rem(a.coeffs, b.coeffs)
    ref = _fraction_rem([Fraction(c) for c in a.coeffs],
                        [Fraction(c) for c in b.coeffs])
    assert len(r) == len(ref)
    if r:
        assert [Fraction(c, r[-1]) for c in r] == [c / ref[-1] for c in ref]


@given(kernel_polys, kernel_polys)
def test_intpoly_mul_and_sub_match_the_naive_formulas(a, b):
    x, y = a.coeffs, b.coeffs
    conv = [sum(x[i] * y[k - i] for i in range(len(x)) if 0 <= k - i < len(y))
            for k in range(len(x) + len(y) - 1)]
    diff = [(x[i] if i < len(x) else 0) - (y[i] if i < len(y) else 0)
            for i in range(max(len(x), len(y)))]
    assert a * b == IntPoly(conv)
    assert b * a == IntPoly(conv)
    assert a - b == IntPoly(diff)


# ---------------------------------------------------------------------------
# the rank certificate over F_p against fraction-free elimination
# ---------------------------------------------------------------------------

def _fraction_free_kernel(m):
    """The right kernel by fraction-free elimination over Z[delta] alone:
    the oracle for kernel_basis, which solves at one integer point.

    Reduced echelon form of the cleared rows; free column f gets x_f = 1
    and x_p = -row[f] / row[p], scaled by the lcm of the pivot entries
    involved, content stripped, and the first nonzero entry given a
    positive leading coefficient.
    """
    ech = exactarith._echelon_of_rows(m)
    ech.back_substitute()
    basis = []
    for f in range(m.cols):
        if f in ech.pivots:
            continue
        # x_f = 1 and x_p = -row[f] / row[p], scaled by the lcm of the
        # pivot entries involved so that every entry is a polynomial
        involved = [(p, row) for p, row in ech.pivots.items() if row.get(f)]
        lcm = exactarith.ONE_POLY
        for p, row in involved:
            if row[p] != lcm:
                lcm = lcm.divexact(poly_gcd(lcm, row[p])) * row[p]
        vec = {f: lcm}
        for p, row in involved:
            vec[p] = -row[f] * lcm.divexact(row[p])
        vec = _strip_row_content(vec)
        if vec[min(vec)].leading < 0:
            vec = {c: -v for c, v in vec.items()}
        out = [RF_ZERO] * m.cols
        for c, v in vec.items():
            out[c] = RatFunc(v)
        basis.append(out)
    return basis


@st.composite
def certificate_matrices(draw):
    """0 x k up to 6 x 6 polynomial or rational matrices, some with
    duplicated or scaled rows appended."""
    rows = draw(st.integers(min_value=0, max_value=6))
    cols = draw(st.integers(min_value=0, max_value=6))
    entry = ratfuncs() if draw(st.booleans()) else small_polys.map(RatFunc)
    dense = [[draw(entry) if draw(st.booleans()) else RF_ZERO
              for _ in range(cols)] for _ in range(rows)]
    while dense and len(dense) < 6 and draw(st.booleans()):
        source = dense[draw(st.integers(min_value=0, max_value=len(dense) - 1))]
        scale = draw(ratfuncs())
        dense.append([v * scale for v in source])
    return SparseMat(len(dense), cols, {
        (r, c): v for r, row in enumerate(dense) for c, v in enumerate(row)
        if v})


@given(certificate_matrices())
@settings(max_examples=200)
def test_certified_rank_and_kernel_match_fraction_free(m):
    exact = fraction_free_rank(m)
    assert rank(m) == exact
    kernel = kernel_basis(m)
    assert kernel == _fraction_free_kernel(m)
    assert len(kernel) == m.cols - exact


@st.composite
def wide_systems(draw):
    """1-5 rows, up to 12 columns, polynomial or rational entries, with a
    consistent target A.x, a random target and the zero target."""
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=12))
    entry = ratfuncs() if draw(st.booleans()) else small_polys.map(RatFunc)
    sparse = st.one_of(entry, st.just(RF_ZERO))
    m = SparseMat(rows, cols, {(r, c): v for r in range(rows)
                               for c in range(cols) if (v := draw(sparse))})
    x = [draw(sparse) for _ in range(cols)]
    targets = [mat_vec(m, x), [draw(sparse) for _ in range(rows)],
               [RF_ZERO] * rows]
    return m, targets


def _augmented(m, b):
    out = SparseMat(m.rows, m.cols + 1, dict(m.entries))
    for r, v in enumerate(b):
        if v:
            out[r, m.cols] = v
    return out


@given(wide_systems())
@settings(max_examples=200)
def test_span_solve_matches_the_rank_oracle_on_wide_systems(system):
    m, targets = system
    solved = span_solve(m, targets)
    assert solved[0] is not None and solved[2] is not None
    base = fraction_free_rank(m)
    for b, x in zip(targets, solved):
        if x is None:
            assert fraction_free_rank(_augmented(m, b)) > base
        else:
            assert mat_vec(m, x) == b


def test_h1_back_substitution_keeps_pivot_and_target_columns(monkeypatch):
    # the h1 system of homology-tlj --h1 10: rank 12, 11 sigma targets;
    # the full pivot rows reach 350 entries, over 364 columns
    codomain = enumerate_diagrams(1, 11)
    m = boundary_matrix(2, 11)
    targets = []
    for k in range(11):
        target = [RF_ZERO] * m.rows
        target[codomain.index(sigma(k))] = RF_ONE
        targets.append(target)
    widest, back = [0], [False]
    cancel, substitute = exactarith._cancel, exactarith.Echelon.back_substitute

    def counting_cancel(vec, row, idx):
        out = cancel(vec, row, idx)
        if back[0]:
            widest[0] = max(widest[0], len(vec), len(row), len(out))
        return out

    def flagged_back_substitute(self):
        back[0] = True
        try:
            substitute(self)
        finally:
            back[0] = False

    monkeypatch.setattr(exactarith, "_cancel", counting_cancel)
    monkeypatch.setattr(exactarith.Echelon, "back_substitute",
                        flagged_back_substitute)
    solved = span_solve(m, targets)
    assert all(x is not None for x in solved)
    assert 0 < widest[0] <= fraction_free_rank(m) + len(targets) == 23


@given(ratfuncs(), st.integers(min_value=-50, max_value=50))
def test_eval_mod_is_the_value_mod_p(a, x):
    p = exactarith.MODULUS
    den = Fraction(a.den.eval(x))
    if den % p == 0:
        with pytest.raises(PoleAtPoint):
            a.eval_mod(x, p)
        return
    value = Fraction(a.num.eval(x)) / den
    assert a.eval_mod(x, p) == value.numerator * pow(
        value.denominator, -1, p) % p


def test_rank_mod_p_eliminates_over_the_prime_field():
    # [[1, 2], [3, 6]] has rank 1 everywhere; [[1, 2], [3, 1]] has
    # determinant -5, which vanishes mod 5 only
    assert rank_mod_p([{0: 1, 1: 2}, {0: 3, 1: 6}], 7) == 1
    assert rank_mod_p([{0: 1, 1: 2}, {0: 3, 1: 1}], 7) == 2
    assert rank_mod_p([{0: 1, 1: 2}, {0: 3, 1: 1}], 5) == 1
    assert rank_mod_p([{0: 5, 1: 10}, {}], 5) == 0
    row = {0: 3, 2: 4}
    rank_mod_p([row, {0: 1, 2: 1}], 7)
    assert row == {0: 3, 2: 4}


def test_full_rank_is_certified_without_elimination():
    m = _mat([[1, 2, 0], [0, 1, 1], [1, 0, 1], [2, 2, 1]])
    with mock.patch.object(exactarith, "_echelon_of_rows",
                           side_effect=AssertionError("eliminated")), \
            mock.patch.object(exactarith, "_kernel_at_point",
                              side_effect=AssertionError("solved")):
        assert rank(m) == 3
        assert kernel_basis(m) == []


def _rank_at_the_point(m):
    """rank_mod_p at the certificate's point, None at a pole."""
    try:
        return rank_mod_p(m.mod_p_rows(exactarith._POINT, exactarith.MODULUS))
    except PoleAtPoint:
        return None


@pytest.mark.parametrize("entry, at_the_point", [
    # the point is a root: rank 0 over F_p, rank 1 over Q(delta)
    (DELTA - RatFunc.from_int(exactarith._POINT), 0),
    # a denominator vanishes at the point modulo p
    (RF_ONE / (DELTA - RatFunc.from_int(
        exactarith._POINT + exactarith.MODULUS)), None),
    # p itself is 0 over F_p and a unit over Q
    (RatFunc.from_int(exactarith.MODULUS), 0),
], ids=["root-at-the-point", "pole-at-the-point", "the-prime"])
def test_certificate_falls_back_when_it_proves_nothing(entry, at_the_point):
    m = SparseMat(1, 1, {(0, 0): entry})
    assert _rank_at_the_point(m) == at_the_point
    with mock.patch.object(exactarith, "_echelon_of_rows",
                           wraps=exactarith._echelon_of_rows) as fallback, \
            mock.patch.object(exactarith, "_kernel_at_point",
                              wraps=exactarith._kernel_at_point) as solved:
        assert rank(m) == 1
        assert kernel_basis(m) == []
    # rank eliminates; the kernel is solved at an integer point instead
    assert fallback.call_count == 1
    assert solved.call_count == 1


# ---------------------------------------------------------------------------
# kernels solved at one integer point against the fraction-free oracle
# ---------------------------------------------------------------------------

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _benchmark_batch(seed):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [m for m, _ in module.random_matrices(seed)]


@pytest.mark.parametrize("seed", [1, 2, 3, 909])
def test_kernel_matches_fraction_free_on_the_benchmark_batch(seed):
    for m in _benchmark_batch(seed):
        assert kernel_basis(m) == _fraction_free_kernel(m)


@pytest.mark.parametrize("N", range(1, 13))
def test_kernel_matches_fraction_free_on_the_degree_two_boundary(N):
    m = boundary_matrix(2, N)
    kernel = kernel_basis(m)
    assert kernel == _fraction_free_kernel(m)
    assert len(kernel) == m.cols - rank(m)


# a 5 x 6 sign pattern whose first 5 x 5 minor is 48, the largest
# determinant of a 5 x 5 matrix of signs
SIGNS = [[-1, 1, -1, 1, 1, 1], [-1, 1, 1, 1, -1, -1], [-1, -1, 1, 1, 1, 1],
         [-1, 1, 1, -1, 1, -1], [-1, -1, -1, -1, -1, -1]]


def test_kernel_decodes_minors_near_the_coefficient_bound():
    # every entry is +-(3 delta^2 + 3 delta + 3) / (delta + 2); cleared,
    # each row has norm 9, so H = 5! * 9^5 bounds every minor
    entry = parse_scalar("(3*delta^2 + 3*delta + 3) / (delta + 2)")
    m = SparseMat(5, 6, {(r, c): entry * RatFunc.from_int(s)
                         for r, row in enumerate(SIGNS)
                         for c, s in enumerate(row)})
    with mock.patch.object(exactarith, "_decode",
                           wraps=exactarith._decode) as decode:
        kernel = kernel_basis(m)
    bound = math.factorial(5) * 9**5
    minors = [exactarith._decode(*call.args) for call in decode.call_args_list]
    largest = max(abs(c) for p in minors for c in p.coeffs)
    # 48 * 3^5 * 51, the middle coefficient of 48 (3 delta^2+3 delta+3)^5
    assert largest == 594_864 and bound // 16 < largest < bound
    assert kernel == _fraction_free_kernel(m)
    # the common factor (3 delta^2 + 3 delta + 3)^5 is stripped
    assert kernel == [[RatFunc.from_int(k) for k in (1, -1, -1, 2, 2, -3)]]


@pytest.mark.parametrize("j", [1, 2, 5, 31, 64, 200])
def test_a_root_just_below_the_point_keeps_its_pivot(j):
    root = RatFunc.from_int(2**j)
    # [[delta - 2^j, 1]] has H = 2^j + 1 and so the point 2^(j+2); at
    # delta = 2^j column 0 would vanish and the pivot move to column 1
    m = SparseMat(1, 2, {(0, 0): DELTA - root, (0, 1): RF_ONE})
    with mock.patch.object(exactarith, "_gauss_jordan",
                           wraps=exactarith._gauss_jordan) as eliminate:
        kernel = kernel_basis(m)
    (rows, _), _ = eliminate.call_args
    assert rows[0][0] == 2**(j + 2) - 2**j
    assert kernel == [[RF_ONE, root - DELTA]]
    # the same root as a 2 x 2 minor: the pivots stay at columns 0, 1
    m = _mat([[1, str(2**j), 0], [1, "delta", 1]])
    assert kernel_basis(m) == _fraction_free_kernel(m) == [
        [root, -RF_ONE, DELTA - root]]


def _checked_gauss_jordan(rows, cols):
    """`_gauss_jordan` replayed with divmod: every division by the
    previous pivot must leave remainder 0."""
    d, pivots, n = 1, [], len(rows)
    for c in range(cols):
        k = len(pivots)
        if k == n:
            break
        i = next((i for i in range(k, n) if rows[i][c]), None)
        if i is None:
            continue
        rows[k], rows[i] = rows[i], rows[k]
        top, p = rows[k], rows[k][c]
        for i, row in enumerate(rows):
            if i == k:
                continue
            f = row[c]
            for j in range(cols):
                q, r = divmod(p * row[j] - f * top[j], d)
                assert r == 0, (c, i, j)
                row[j] = q
        d = p
        pivots.append(c)
    return pivots, d


int_rows = st.integers(min_value=1, max_value=6).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9),
                 min_size=cols, max_size=cols),
        min_size=0, max_size=6))


@given(int_rows, st.data())
@settings(max_examples=200)
def test_every_bareiss_division_is_exact(rows, data):
    # combinations of earlier rows make the rank deficient
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        if rows:
            a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
            rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    cols = len(rows[0]) if rows else 3
    mine = [list(row) for row in rows]
    assert (exactarith._gauss_jordan(mine, cols)
            == _checked_gauss_jordan(rows, cols))
    assert mine == rows


@given(st.integers(min_value=2, max_value=40), st.data())
def test_decode_inverts_evaluation_at_a_power_of_two(k, data):
    half = 1 << (k - 1)
    coeffs = data.draw(st.lists(
        st.sampled_from([-half + 1, -1, 0, 1, half - 1, half])
        | st.integers(min_value=-half + 1, max_value=half), max_size=6))
    p = IntPoly(coeffs)
    assert exactarith._decode(p.eval(1 << k), k) == p
