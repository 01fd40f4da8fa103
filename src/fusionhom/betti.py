"""Closed-form L2-Betti profiles and their combinators.

Values are exact: a rational linear combination of monomials in the atoms
SinSq(m) = 4 sin^2(pi/m)/m.  Atoms with m in {1, 2, 3, 4, 6} fold into
the rational coefficient (the only m for which sin^2(pi/m) is rational),
and m = infinity folds to 0.  Folding happens once, in the constructor:
a folded monomial holds no such atom, and neither does a product of two,
so +, - and * only merge coefficients and keep the one key order, by
(degree, atoms).  Every atom lies in a real cyclotomic field,
so equality is decided by an exact zero test in Q(zeta_L), L the lcm of
the atoms involved; sign by a double with a proven error bound, falling
back to that zero test.

Profiles are finite sequences (beta_0, ..., beta_D) with everything above
D declared zero.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .exactarith import ZERO_POLY, IntPoly, _pseudo_rem

INF = math.inf

# sin^2(pi/m) is rational exactly for these m; SinSq(inf) is the limit 0
_FOLD = {1: Fraction(0), 2: Fraction(2), 3: Fraction(1),
         4: Fraction(1, 2), 6: Fraction(1, 6), INF: Fraction(0)}

_SIGN_BOUND = 2.0 ** -40


def _atom_float(m) -> float:
    return 4.0 * math.sin(math.pi / m) ** 2 / m


def _fold(pairs) -> dict:
    """Merge (monomial, Fraction) pairs into sorted terms, zeros dropped."""
    terms = {}
    for mono, coeff in pairs:
        for m in mono:
            if m in _FOLD:
                coeff *= _FOLD[m]
        key = tuple(sorted(m for m in mono if m not in _FOLD))
        terms[key] = terms[key] + coeff if key in terms else coeff
    return _ordered(terms)


def _ordered(terms: dict) -> dict:
    """Terms with the zeros dropped and the monomials sorted by
    (degree, atoms): the one key order every BettiValue keeps."""
    return {k: terms[k] for k in sorted(terms, key=lambda k: (len(k), k))
            if terms[k]}


@functools.cache
def _cyclotomic(n: int) -> IntPoly:
    """Phi_n, dividing z^n - 1 by Phi_d for every proper divisor d."""
    poly = IntPoly((-1,) + (0,) * (n - 1) + (1,))
    for d in range(1, n):
        if n % d == 0:
            poly = poly.divexact(_cyclotomic(d))
    return poly


class BettiValue:
    """An exact real: sum of coeff * SinSq(m1)*...*SinSq(mk).

    `terms` maps a monomial (sorted tuple of atom indices, () for the
    rational part) to a nonzero Fraction.  Products of atoms are
    monomials, so sums and products stay exact.  Equal terms mean equal
    values; unequal terms are compared by an exact zero test of the
    difference, since the atoms are not independent over Q.

    >>> BettiValue(0, [(2, 10), (-1, 5)]) == BettiValue(Fraction(-1, 5))
    True
    """

    def __init__(self, rational=0, atoms=()):
        if not all(m == INF or type(m) is int and m >= 1 for _, m in atoms):
            raise ValueError("SinSq(m) needs an integer m >= 1 or infinity")
        self.terms = _fold([((), Fraction(rational))]
                           + [((m,), Fraction(c)) for c, m in atoms])

    @classmethod
    def _of(cls, terms: dict) -> "BettiValue":
        """Wrap terms that are already folded and ordered."""
        value = cls.__new__(cls)
        value.terms = terms
        return value

    @staticmethod
    def sinsq(m) -> "BettiValue":
        """The atom 4 sin^2(pi/m)/m; rational when m in {2,3,4,6} or inf."""
        return BettiValue(0, [(1, m)])

    @property
    def rational(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def __add__(self, other):
        terms = dict(self.terms)
        for mono, c in _coerce(other).terms.items():
            terms[mono] = terms[mono] + c if mono in terms else c
        return BettiValue._of(_ordered(terms))

    def __neg__(self):
        return BettiValue._of({mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other, terms = _coerce(other), {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2)) if m1 and m2 else m1 or m2
                c = c1 * c2
                terms[mono] = terms[mono] + c if mono in terms else c
        return BettiValue._of(_ordered(terms))

    def __eq__(self, other):
        if not isinstance(other, (BettiValue, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return self.terms == other.terms or not (self - other)

    def __bool__(self):
        return not self._is_zero()

    def sign(self) -> int:
        """-1, 0 or 1, never guessed.

        The double value f^ decides when |f^| > 2^-40 * S^, S^ the double
        sum of the absolute terms.  Proof, u = 2^-53, libm sin within one
        ulp: pi/m is within 2u, and x cot x <= 1 keeps that through sin;
        sin adds 2u, squaring doubles and adds u, /m adds u: each atom is
        within 12u.  A degree-k term is within (13k + 1)u and a sum of T
        terms adds (T - 1)u * S, so |f^ - f| <= (13k + T)u * S < 2^-41 * S^
        while 13k + T < 4096 (k, T are a few dozen at most here).  Inside
        the bound the exact zero test gives 0; a nonzero value raises.
        """
        value, scale = self._float_and_scale()
        if abs(value) > _SIGN_BOUND * scale:
            return 1 if value > 0 else -1
        if self._is_zero():
            return 0
        raise ArithmeticError(f"sign of {self.exact_str()} is not decided "
                              "by its double value")

    def _float_and_scale(self):
        value = scale = 0.0
        for mono, c in self.terms.items():
            term = float(c)
            for m in mono:
                term *= _atom_float(m)
            value += term
            scale += abs(term)
        return value, scale

    def _is_zero(self) -> bool:
        """Exact zero test.  Every monomial is positive, so terms of one
        sign decide alone.  Otherwise, with z a primitive L-th root of unity
        (L the lcm of the atoms), SinSq(m) = (2 - z^(L/m) - z^(-L/m))/m and
        the value is zero iff Phi_L divides the cleared expansion."""
        if len({c > 0 for c in self.terms.values()}) < 2:
            return not self.terms
        n = math.lcm(*(m for mono in self.terms for m in mono))
        clear = math.lcm(*(c.denominator * math.prod(mono)
                           for mono, c in self.terms.items()))
        total = ZERO_POLY
        for mono, c in self.terms.items():
            poly = IntPoly((c.numerator * clear
                            // (c.denominator * math.prod(mono)),))
            for m in mono:  # 2 - z^(n/m) - z^(n - n/m), z^n = 1
                atom = [0] * n
                atom[0], atom[n // m], atom[n - n // m] = 2, -1, -1
                poly = poly * IntPoly(atom)
            total = total + poly
        return not _pseudo_rem(total.coeffs, _cyclotomic(n).coeffs)

    def to_float(self) -> float:
        return self._float_and_scale()[0]

    def exact_str(self) -> str:
        parts = [str(c) if not mono else {1: "", -1: "-"}.get(c, f"{c}*")
                 + "*".join(f"SinSq({m})" for m in mono)
                 for mono, c in self.terms.items()]
        return " + ".join(parts or ["0"]).replace(" + -", " - ")

    def __repr__(self):
        return f"BettiValue({self.exact_str()})"


def _coerce(x) -> BettiValue:
    if isinstance(x, BettiValue):
        return x
    return BettiValue(Fraction(x))


ZERO = BettiValue(0)
ONE = BettiValue(1)


class BettiProfile:
    """Finite sequence of BettiValue; degrees above the list are zero.

    Constructor enforces nonnegativity (exact `sign() >= 0`) unless the
    profile carries warnings, which mark combinator outputs whose
    hypotheses were violated.
    """

    def __init__(self, values, warnings=()):
        self.values = tuple(_coerce(v) for v in values)
        if not self.values:
            self.values = (ZERO,)
        self.warnings = tuple(warnings)
        if not self.warnings:
            for k, v in enumerate(self.values):
                if v.sign() < 0:
                    raise ValueError(
                        f"negative Betti number at degree {k}: {v.exact_str()}")

    @property
    def declared_zero_above(self) -> int:
        return len(self.values) - 1

    def value(self, k: int) -> BettiValue:
        return self.values[k] if k < len(self.values) else ZERO

    def __eq__(self, other):
        if not isinstance(other, BettiProfile):
            return NotImplemented
        top = max(len(self.values), len(other.values))
        return all(self.value(k) == other.value(k) for k in range(top))

    def __repr__(self):
        body = ", ".join(v.exact_str() for v in self.values)
        return f"BettiProfile([{body}])"


def point_profile() -> BettiProfile:
    """Profile of the trivial inclusion: beta_0 = 1, rest zero."""
    return BettiProfile([ONE])


def tlj_profile(n) -> BettiProfile:
    """beta_0 = SinSq(n+1) and nothing above, for n >= 2 or infinity."""
    if n == INF:
        return BettiProfile([ZERO])
    if n < 2:
        raise ValueError("need n >= 2 or infinity")
    return BettiProfile([BettiValue.sinsq(n + 1)])


def free_product(p1: BettiProfile, p2: BettiProfile) -> BettiProfile:
    """Free-product combinator.

    beta_0 = 0, beta_1 = beta_1(1) + beta_1(2) + 1 - beta_0(1) - beta_0(2),
    beta_n additive for n >= 2.  Inputs are expected to be profiles of
    nontrivial factors; a factor with beta_0 >= 1 is flagged with a
    warning (the formula is still evaluated).
    """
    warnings = list(p1.warnings) + list(p2.warnings)
    for tag, p in (("first", p1), ("second", p2)):
        if (p.value(0) - ONE).sign() >= 0:
            warnings.append(
                f"free_product: {tag} factor has beta0 >= 1 "
                "(trivial factor violates the nontriviality hypothesis)")
    top = max(p1.declared_zero_above, p2.declared_zero_above, 1)
    values = [ZERO]
    beta1 = (p1.value(1) + p2.value(1) + ONE) - p1.value(0) - p2.value(0)
    values.append(beta1)
    for k in range(2, top + 1):
        values.append(p1.value(k) + p2.value(k))
    return BettiProfile(values, warnings)


def tensor_product(p1: BettiProfile, p2: BettiProfile) -> BettiProfile:
    """Cauchy convolution: beta_n = sum_k beta_k(1) beta_{n-k}(2)."""
    top = p1.declared_zero_above + p2.declared_zero_above
    values = []
    for n in range(top + 1):
        acc = ZERO
        for k in range(n + 1):
            acc = acc + p1.value(k) * p2.value(n - k)
        values.append(acc)
    return BettiProfile(values, tuple(p1.warnings) + tuple(p2.warnings))


def fuss_catalan(n, m) -> BettiProfile:
    """Fuss-Catalan profile: beta_1 = 1 - SinSq(n+1) - SinSq(m+1), rest 0.

    Requires n, m in {3, 4, ...} or infinity.
    """
    for x in (n, m):
        if x != INF and x < 3:
            raise ValueError("fuss_catalan needs n, m >= 3 or infinity")
    beta1 = ONE - _sinsq_or_zero(n) - _sinsq_or_zero(m)
    return BettiProfile([ZERO, beta1])


def _sinsq_or_zero(n) -> BettiValue:
    return ZERO if n == INF else BettiValue.sinsq(n + 1)


def profile_to_json(profile: BettiProfile, provenance: str) -> dict:
    """JSON-ready emission with exact strings and float values."""
    return {
        "profile": [
            {"degree": k, "exact": v.exact_str(), "float": v.to_float()}
            for k, v in enumerate(profile.values)
        ],
        "declared_zero_above": profile.declared_zero_above,
        "provenance": provenance,
        "warnings": list(profile.warnings),
    }
