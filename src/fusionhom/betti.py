"""Closed-form L2-Betti profiles and their combinators.

Values are kept in a two-layer exact form: a rational part plus an
integer-indexed linear combination of the atoms SinSq(m) = 4 sin^2(pi/m)/m.
Atoms with m in {2, 3, 4, 6} fold into the rational part (the only m for
which sin^2(pi/m) is rational), and m = infinity folds to 0.  Products of
two atoms have no closed form in this family; they degrade to a
float-backed tail term that remembers its provenance.

Profiles are finite sequences (beta_0, ..., beta_D) with everything above
D declared zero.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf

# sin^2(pi/m) is rational exactly for these m (and m=1, which gives 0)
_FOLD = {1: Fraction(0), 2: Fraction(2), 3: Fraction(1),
         4: Fraction(1, 2), 6: Fraction(1, 6)}


def _atom_float(m) -> float:
    return 4.0 * math.sin(math.pi / m) ** 2 / m


class BettiValue:
    """rational + sum of coeff*SinSq(m) + float tail with provenance.

    Atoms with equal m are merged and zero coefficients dropped, so equal
    symbolic values compare equal.
    """

    def __init__(self, rational=0, atoms=None, tail=None):
        self.rational = Fraction(rational)
        merged = {}
        for coeff, m in (atoms or ()):
            coeff = Fraction(coeff)
            if m == INF or m in _FOLD:
                self.rational += coeff * _FOLD.get(m, Fraction(0))
                continue
            merged[m] = merged.get(m, Fraction(0)) + coeff
        self.atoms = tuple(sorted((m, c) for m, c in merged.items() if c))
        self.tail = tuple(sorted(tail or ()))  # (provenance, float value)

    @staticmethod
    def sinsq(m) -> "BettiValue":
        """The atom 4 sin^2(pi/m)/m; rational when m in {2,3,4,6} or inf."""
        return BettiValue(0, [(Fraction(1), m)])

    def __add__(self, other):
        other = _coerce(other)
        return BettiValue(
            self.rational + other.rational,
            [(c, m) for m, c in self.atoms] + [(c, m) for m, c in other.atoms],
            _merge_tails(self.tail, other.tail))

    def __neg__(self):
        return BettiValue(-self.rational,
                          [(-c, m) for m, c in self.atoms],
                          [(p, -v) for p, v in self.tail])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        rational = self.rational * other.rational
        atoms = []
        tail = {}

        def add_tail(prov, val):
            tail[prov] = tail.get(prov, 0.0) + val

        for m, c in self.atoms:
            atoms.append((c * other.rational, m))
        for m, c in other.atoms:
            atoms.append((c * self.rational, m))
        for m1, c1 in self.atoms:
            for m2, c2 in other.atoms:
                prov = f"SinSq({min(m1, m2)})*SinSq({max(m1, m2)})"
                add_tail(prov, float(c1 * c2) * _atom_float(m1) * _atom_float(m2))
        for p, v in self.tail:
            add_tail(p, v * float(other.rational))
            for m, c in other.atoms:
                add_tail(f"({p})*SinSq({m})", v * float(c) * _atom_float(m))
        for p, v in other.tail:
            add_tail(p, v * float(self.rational))
            for m, c in self.atoms:
                add_tail(f"({p})*SinSq({m})", v * float(c) * _atom_float(m))
        for p1, v1 in self.tail:
            for p2, v2 in other.tail:
                add_tail(f"({p1})*({p2})", v1 * v2)
        tail_items = [(p, v) for p, v in tail.items() if v != 0.0]
        return BettiValue(rational, atoms, tail_items)

    def __eq__(self, other):
        other = _coerce(other)
        return (self.rational == other.rational
                and self.atoms == other.atoms and self.tail == other.tail)

    def __bool__(self):
        return bool(self.rational or self.atoms or self.tail)

    def is_exact(self) -> bool:
        return not self.tail

    def to_float(self) -> float:
        total = float(self.rational)
        for m, c in self.atoms:
            total += float(c) * _atom_float(m)
        for _, v in self.tail:
            total += v
        return total

    def exact_str(self) -> str:
        parts = []
        if self.rational or not (self.atoms or self.tail):
            parts.append(str(self.rational))
        for m, c in self.atoms:
            if c == 1:
                term = f"SinSq({m})"
            elif c == -1:
                term = f"-SinSq({m})"
            else:
                term = f"{c}*SinSq({m})"
            parts.append(term)
        for p, v in self.tail:
            parts.append(f"{v!r}[{p}]")
        out = parts[0]
        for term in parts[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out

    def __repr__(self):
        return f"BettiValue({self.exact_str()})"


def _coerce(x) -> BettiValue:
    if isinstance(x, BettiValue):
        return x
    return BettiValue(Fraction(x))


def _merge_tails(t1, t2):
    acc = {}
    for p, v in list(t1) + list(t2):
        acc[p] = acc.get(p, 0.0) + v
    return [(p, v) for p, v in acc.items() if v != 0.0]


ZERO = BettiValue(0)
ONE = BettiValue(1)


class BettiProfile:
    """Finite sequence of BettiValue; degrees above the list are zero.

    Constructor enforces nonnegativity (floats >= -1e-12) unless the
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
                if v.to_float() < -1e-12:
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
        if p.value(0).to_float() >= 1.0 - 1e-12:
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
