"""Exact scalars and fraction-free linear algebra over Q(delta).

Scalars are rational functions in one formal variable delta with integer
coefficients (`RatFunc`), stored in a reduced canonical form so that equal
values always have equal representations.  Plain rationals embed as
constant rational functions (`RatFunc.from_fraction`).

A value with denominator 1 is canonical, since gcd(num, 1) = 1 and 1
has content 1, and such values are closed under +, - and *: their sums,
differences and products are built directly, as is the negation of any
value, which keeps the gcd and the sign of the denominator.  Every
denominator equal to 1 is the shared `ONE_POLY`, so `den is ONE_POLY`
is the test.  Every other canonical form, and every `Echelon` step,
goes through `poly_gcd`.  It runs the primitive polynomial remainder
sequence on plain coefficient lists and builds an `IntPoly` only for
the result.  The gcd in Z[delta] is the content gcd times the primitive
gcd with positive leading coefficient, so it is unique, and two exact
shortcuts return it without running the sequence: a constant operand,
or a nonzero constant remainder, leaves a primitive gcd of 1.  The same
list remainder `_pseudo_rem` decides `betti`'s exact zero test modulo
a cyclotomic polynomial.

One elimination engine, `Echelon`, backs `rank`'s fallback,
`span_solve` and the exact fallback of the delta = 0 ranks in the
annular H2 proof.  Vectors are sparse dicts index -> integer
polynomial with denominators cleared; two vectors are combined by
cross-multiplying with their entries at the cancelled index divided by
the gcd of those entries, and the result is divided by its content, so
no fractions appear during elimination.  A vector's leading
index is its smallest index, so pivots follow column order and stored
pivot vectors never change while vectors are inserted.  `span_solve`
clears pivot vectors restricted to the pivot and target columns, the
only columns its solution reads: every cancellation picks its
multipliers at a pivot column and only rescales a vector, so each
restricted vector is a nonzero multiple of the full one restricted, and
the solution's ratios do not see the scale.

`rank` and `kernel_basis` first try a certificate over a prime field.
Each entry is evaluated at the fixed point delta = `_POINT` modulo the
prime p = `MODULUS` = 2^31 - 1 (`RatFunc.eval_mod`).  Where no
denominator vanishes there, this is a ring map onto F_p from a subring
of Q(delta) holding every entry, so it commutes with determinants: a
nonzero r x r minor modulo p is the image of a nonzero minor over
Q(delta), and the rank over F_p (`rank_mod_p`) never exceeds the rank
over Q(delta) (Kaltofen-Saunders, AAECC 1991).  It therefore proves the
rank whenever it meets a known upper bound: min(rows, cols) for `rank`,
the column count for an empty `kernel_basis`.  At a pole, or when the
rank over F_p falls short, fraction-free elimination decides `rank`,
and it stays the oracle (`fraction_free_rank`).

Any other kernel is solved exactly at one integer point
(`_kernel_at_point`).  With the rows' denominators cleared, every minor
has coefficients at most H = s! * prod_i max_j |a_ij|_1 (s = min(rows,
cols), the s rows of largest norm).  At delta = 2^K, K = H.bit_length()
+ 1, no nonzero minor vanishes (Cauchy's root bound), so fraction-free
Gauss-Jordan over the integers (Bareiss, Math. Comp. 1968) finds the
pivot columns over Q(delta), and each kernel entry, a minor, is read
back from the signed base-2^K digits of its value (Kronecker
substitution).  Beyond the lcm of each row's denominators and the
stripping of a polynomial content, no gcd and no RatFunc arithmetic
runs.

`float_rank` and `SparseMat.to_dense_float` evaluate at a float delta
with numpy.  They are an independent cross-check kept for the
benchmark's checker and the tests, and are not part of any verdict.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest


class PoleAtPoint(ZeroDivisionError):
    """Evaluation point is (numerically, or modulo p) a zero of the
    denominator."""


class DimensionMismatch(ValueError):
    """Matrix/vector shapes are incompatible."""


# ---------------------------------------------------------------------------
# Integer-coefficient polynomials in delta
# ---------------------------------------------------------------------------

class IntPoly:
    """Polynomial in delta with integer coefficients.

    Coefficients are stored by increasing degree with the trailing zeros
    trimmed, so the zero polynomial has an empty coefficient tuple and
    degree -1.

    >>> p = IntPoly((0, 1))       # delta
    >>> (p * p - IntPoly((1,))).degree
    2
    >>> str(p * p - IntPoly((1,)))
    'delta^2 - 1'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.coeffs = coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return IntPoly([x - y for x, y in
                        zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO_POLY
        if len(b) == 1:
            return self.scale(b[0])
        if len(a) == 1:
            return other.scale(a[0])
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    def scale(self, k: int) -> "IntPoly":
        if k == 0:
            return ZERO_POLY
        if k == 1:
            return self
        return IntPoly(tuple(c * k for c in self.coeffs))

    def shift(self, k: int) -> "IntPoly":
        """Multiply by delta^k."""
        if not self.coeffs:
            return self
        return IntPoly((0,) * k + self.coeffs)

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def divexact(self, other: "IntPoly") -> "IntPoly":
        """Exact division; raises ValueError if other does not divide self."""
        if not other:
            raise ZeroDivisionError("IntPoly division by zero")
        if not self:
            return ZERO_POLY
        rem = list(self.coeffs)
        lead = other.leading
        db = other.degree
        out = [0] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            if rem[i] == 0:
                continue
            q, r = divmod(rem[i], lead)
            if r != 0:
                raise ValueError("inexact polynomial division")
            out[i - db] = q
            for j, c in enumerate(other.coeffs):
                rem[i - db + j] -= q * c
        if any(rem):
            raise ValueError("inexact polynomial division")
        return IntPoly(out)

    def eval(self, x):
        """Horner evaluation; works for float or Fraction arguments."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_mod(self, x: int, p: int) -> int:
        """Horner evaluation at x modulo p, in range(p)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}delta" if i == 1 else f"{mag}delta^{i}"
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)

    def __repr__(self):
        return f"IntPoly({self.coeffs!r})"


ZERO_POLY = IntPoly()
ONE_POLY = IntPoly((1,))
DELTA_POLY = IntPoly((0, 1))


def _pseudo_rem(a, b) -> list:
    """Remainder of a by b up to a nonzero integer factor.

    a and b are coefficient sequences (increasing degree, no trailing
    zeros, b nonzero); the result is a new list.  Each step cancels the
    leading term of r in one pass over r,
        r <- (lead_b/g) r - (lead_r/g) delta^s b,   g = gcd(lead_b, lead_r),
    and divides r by its content, so the coefficients stay as small as
    the primitive PRS allows.  The remainder is empty exactly when b
    divides a over Q, which is what `poly_gcd` and the zero test modulo
    Phi_L in `betti` ask; when deg a >= deg b it is primitive.
    """
    db = len(b) - 1
    lead_b, tail_b = b[-1], b[:-1]
    r = list(a)
    while len(r) > db:
        lead_r = r.pop()
        g = math.gcd(lead_b, lead_r)
        mb, mr = lead_b // g, lead_r // g
        if mb != 1:
            r = [mb * x for x in r]
        for j, y in enumerate(tail_b, len(r) - db):
            r[j] -= mr * y
        while r and not r[-1]:
            r.pop()
        c = math.gcd(*r)
        if c > 1:
            r = [x // c for x in r]
    return r


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Gcd in Z[delta], normalized with positive leading coefficient.

    The gcd is c * P with c the gcd of the two integer contents and P the
    primitive gcd with positive leading coefficient (Gauss's lemma), so
    it is unique and every shortcut below returns exactly what the full
    sequence would.  A zero operand gives the other one, sign-normalized.
    A constant operand has P = 1, so the answer is the constant c.
    Otherwise the primitive PRS runs on coefficient lists (Brown, JACM
    1971): the primitive parts p, q are replaced by q, prem(p, q) with its
    content stripped until the remainder is zero, leaving P = q up to
    sign, or a nonzero constant, leaving P = 1.
    """
    p, q = a.coeffs, b.coeffs
    if len(p) < len(q):
        a, p, q = b, q, p
    if not q:
        return a if not p or p[-1] > 0 else -a
    cp, cq = math.gcd(*p), math.gcd(*q)
    c = math.gcd(cp, cq)
    if len(q) == 1:
        return IntPoly((c,))
    if cp > 1:
        p = [x // cp for x in p]
    if cq > 1:
        q = [x // cq for x in q]
    while True:
        r = _pseudo_rem(p, q)
        if not r:
            break
        if len(r) == 1:
            return IntPoly((c,))
        p, q = q, r
    if q[-1] < 0:
        c = -c
    return IntPoly([c * x for x in q])


# ---------------------------------------------------------------------------
# Rational functions in delta
# ---------------------------------------------------------------------------

class RatFunc:
    """Reduced fraction of integer polynomials in delta.

    Canonical form: the denominator is nonzero with positive leading
    coefficient, the polynomial gcd of numerator and denominator is 1, and
    so is the gcd of their integer contents.  Equal values therefore have
    equal (hashable) representations.  A denominator of 1 is always the
    object `ONE_POLY`.

    The constructor normalises.  Arithmetic skips it where the result is
    canonical already: +, - and * of two values with denominator 1 (a
    polynomial over 1 is reduced), unary - of any value, adding zero and
    multiplying by one.  Every other result goes through the constructor.

    >>> d = RatFunc.delta()
    >>> (d * d - RF_ONE) / (d - RF_ONE)
    RatFunc('delta + 1')
    """

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly = ONE_POLY):
        if not den:
            raise ZeroDivisionError("RatFunc with zero denominator")
        if not num or den == ONE_POLY:
            # already canonical: gcd(num, 1) = 1 and 1 has content 1
            self.num, self.den = num, ONE_POLY
            return
        # the gcd carries the content gcd, so the quotients have coprime
        # contents as well as a polynomial gcd of 1
        g = poly_gcd(num, den)
        if g.degree > 0 or g.leading > 1:
            num = num.divexact(g)
            den = den.divexact(g)
        if den.leading < 0:
            num, den = -num, -den
        self.num = num
        self.den = ONE_POLY if den.coeffs == (1,) else den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def delta() -> "RatFunc":
        return RatFunc(DELTA_POLY)

    @staticmethod
    def from_int(k: int) -> "RatFunc":
        return RatFunc(IntPoly((k,)))

    @staticmethod
    def from_fraction(q) -> "RatFunc":
        q = Fraction(q)
        return RatFunc(IntPoly((q.numerator,)), IntPoly((q.denominator,)))

    @staticmethod
    def delta_power(k: int) -> "RatFunc":
        return RatFunc(ONE_POLY.shift(k))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den is ONE_POLY and other.den is ONE_POLY:
            return _canonical(self.num + other.num)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other):
        if not other.num:
            return self
        if not self.num:
            return -other
        if self.den is ONE_POLY and other.den is ONE_POLY:
            return _canonical(self.num - other.num)
        return RatFunc(self.num * other.den - other.num * self.den,
                       self.den * other.den)

    def __neg__(self):
        # negation keeps the gcd and the denominator's sign
        return _canonical(-self.num, self.den)

    def __mul__(self, other):
        if self.den is ONE_POLY and other.den is ONE_POLY:
            return _canonical(self.num * other.num)
        if other.den is ONE_POLY and other.num.coeffs == (1,):
            return self
        if self.den is ONE_POLY and self.num.coeffs == (1,):
            return other
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError("RatFunc division by zero")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return (isinstance(other, RatFunc)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    # -- queries ------------------------------------------------------------

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree <= 0

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        num = self.num.coeffs[0] if self.num.coeffs else 0
        return Fraction(num, self.den.coeffs[0])

    def eval_float(self, delta: float) -> float:
        den = self.den.eval(float(delta))
        if abs(den) <= 1e-12:
            raise PoleAtPoint(f"denominator vanishes at delta={delta}")
        return self.num.eval(float(delta)) / den

    def eval_mod(self, x: int, p: int) -> int:
        """Value at delta = x in F_p (p prime), in range(p)."""
        num = self.num.eval_mod(x, p)
        if self.den is ONE_POLY:
            return num
        den = self.den.eval_mod(x, p)
        if not den:
            raise PoleAtPoint(f"denominator vanishes at delta={x} mod {p}")
        return num * pow(den, -1, p) % p

    def __str__(self):
        if self.den is ONE_POLY:
            return str(self.num)
        num = str(self.num)
        if self.num.degree > 0:
            num = f"({num})"
        den = str(self.den)
        if self.den.degree > 0:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RatFunc({str(self)!r})"


def _canonical(num: IntPoly, den: IntPoly = ONE_POLY) -> RatFunc:
    """The RatFunc num / den of a pair already in canonical form, built
    without the normaliser (and so not counted as a construction)."""
    value = object.__new__(RatFunc)
    value.num, value.den = num, den
    return value


RF_ZERO = RatFunc(ZERO_POLY)
RF_ONE = RatFunc(ONE_POLY)


# ---------------------------------------------------------------------------
# Scalar parsing (for the text file formats)
# ---------------------------------------------------------------------------

def parse_scalar(text: str) -> RatFunc:
    """Parse expressions like '3', '-2/5', 'delta^2-1', '(delta+1)/(delta-1)'.

    Grammar: the usual precedence with +, -, *, /, ^, parentheses, integer
    literals, and the variable name 'delta'.  Every malformed scalar,
    a division by zero included, raises ValueError.
    """
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"bad scalar {text!r}: expected {expected}, got {tok}")
        pos[0] += 1
        return tok

    def parse_expr():
        value = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term():
        value = parse_factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def parse_factor():
        if peek() == "-":
            take()
            return -parse_factor()
        if peek() == "+":
            take()
            return parse_factor()
        base = parse_atom()
        if peek() == "^":
            take()
            neg = False
            if peek() == "-":
                take()
                neg = True
            exp_tok = take()
            if not exp_tok.isdigit():
                raise ValueError(f"bad exponent in {text!r}")
            result = RF_ONE
            for _ in range(int(exp_tok)):
                result = result * base
            if neg:
                result = RF_ONE / result
            return result
        return base

    def parse_atom():
        tok = take()
        if tok == "(":
            value = parse_expr()
            take(")")
            return value
        if tok == "delta":
            return RatFunc.delta()
        if tok.isdigit():
            return RatFunc.from_int(int(tok))
        raise ValueError(f"bad token {tok!r} in scalar {text!r}")

    try:
        value = parse_expr()
    except ZeroDivisionError:
        raise ValueError(f"bad scalar {text!r}: division by zero") from None
    if pos[0] != len(tokens):
        raise ValueError(f"trailing input in scalar {text!r}")
    return value


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
        elif text.startswith("delta", i):
            tokens.append("delta")
            i += 5
        else:
            raise ValueError(f"bad character {ch!r} in scalar {text!r}")
    if not tokens:
        raise ValueError("empty scalar")
    return tokens


# ---------------------------------------------------------------------------
# Sparse matrices
# ---------------------------------------------------------------------------

class SparseMat:
    """Sparse matrix over RatFunc; zero entries are never stored."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                self[r, c] = v

    def __setitem__(self, key, value: RatFunc):
        r, c = key
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise DimensionMismatch(f"index {key} out of range")
        if value:
            self.entries[r, c] = value
        else:
            self.entries.pop((r, c), None)

    def __getitem__(self, key) -> RatFunc:
        return self.entries.get(key, RF_ZERO)

    def is_zero(self) -> bool:
        return not self.entries

    def mat_mul(self, other: "SparseMat") -> "SparseMat":
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        out = SparseMat(self.rows, other.cols)
        acc: dict = {}
        for (r, k), a in self.entries.items():
            for c, b in by_row.get(k, ()):
                key = (r, c)
                prev = acc.get(key)
                acc[key] = a * b if prev is None else prev + a * b
        for key, v in acc.items():
            if v:
                out.entries[key] = v
        return out

    def mod_p_rows(self, x: int, p: int) -> list:
        """The rows at delta = x over F_p, as dicts column -> nonzero
        residue; raises PoleAtPoint when a denominator vanishes there."""
        rows = [{} for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            residue = v.eval_mod(x, p)
            if residue:
                rows[r][c] = residue
        return rows

    def to_dense_float(self, delta: float):
        """Dense numpy array at a float delta, the input of `float_rank`:
        part of the benchmark checker's independent float cross-check,
        not of any verdict."""
        import numpy as np
        dense = np.zeros((self.rows, self.cols))
        for (r, c), v in self.entries.items():
            dense[r, c] = v.eval_float(delta)
        return dense


# ---------------------------------------------------------------------------
# Fraction-free elimination
# ---------------------------------------------------------------------------

def clear_denominators(vec: dict) -> dict:
    """Sparse RatFunc vector as index -> IntPoly, content stripped.

    Multiplies by the lcm of the denominators, so the result is a nonzero
    polynomial multiple of vec and spans the same line.
    """
    return _strip_row_content(_times_lcm(vec))


def _times_lcm(vec: dict) -> dict:
    """Sparse RatFunc vector times the lcm of its denominators, as
    index -> IntPoly."""
    lcm = ONE_POLY
    for v in vec.values():
        if v.den is not ONE_POLY:
            lcm = lcm.divexact(poly_gcd(lcm, v.den)) * v.den
    return {c: v.num if v.den == lcm else v.num * lcm.divexact(v.den)
            for c, v in vec.items() if v}


def _strip_row_content(row: dict) -> dict:
    """Divide a row of IntPoly by the gcd of its entries (sign kept)."""
    if not row:
        return row
    g = None
    for v in row.values():
        # the fold starts at the first entry made positive; poly_gcd
        # keeps a positive leading coefficient from there on
        g = (-v if v.leading < 0 else v) if g is None else poly_gcd(g, v)
        if g.degree == 0 and g.leading == 1:
            return row
    return {c: v.divexact(g) for c, v in row.items()}


def _cancel(vec: dict, row: dict, idx) -> dict:
    """Fraction-free combination of vec and row with entry idx cancelled.

    Returns b/g * vec - a/g * row with a = vec[idx], b = row[idx] and
    g = gcd(a, b), content stripped.  Neither argument is modified.
    """
    a, b = vec[idx], row[idx]
    g = poly_gcd(a, b)
    if g != ONE_POLY:
        a, b = a.divexact(g), b.divexact(g)
    if b == ONE_POLY:
        out = {c: v for c, v in vec.items() if c != idx}
    else:
        out = {c: v * b for c, v in vec.items() if c != idx}
    for c, v in row.items():
        if c == idx:
            continue
        term = v * a
        cur = out.get(c)
        total = (cur - term) if cur is not None else -term
        if total:
            out[c] = total
        elif cur is not None:
            del out[c]
    return _strip_row_content(out)


class Echelon:
    """Incremental fraction-free row echelon over Z[delta].

    Vectors are dicts index -> IntPoly with denominators cleared.  The
    leading index of a vector is its smallest index, and at most one
    stored pivot vector leads at each index.  Pivot vectors are never
    changed by insert or reduce, so reductions can resume as new pivots
    arrive.  back_substitute replaces each pivot vector by a combination
    with the same leading index and the same span.
    """

    def __init__(self):
        self.pivots = {}  # leading index -> pivot vector

    def reduce(self, vec: dict) -> dict:
        """vec reduced until zero or led by an index with no pivot.

        The result spans the same line as vec modulo the pivots; the
        argument is not modified.
        """
        while vec:
            lead = min(vec)
            row = self.pivots.get(lead)
            if row is None:
                return vec
            vec = _cancel(vec, row, lead)
        return vec

    def insert(self, vec: dict):
        """Reduce and store; returns the new pivot index or None."""
        vec = self.reduce(vec)
        if not vec:
            return None
        lead = min(vec)
        self.pivots[lead] = vec
        return lead

    def back_substitute(self):
        """Clear every pivot index from all other pivot vectors.

        Afterwards the pivot vector leading at p is the only one with a
        nonzero entry at p (reduced echelon form).  Leading indices are
        unchanged, so insertion may continue.
        """
        for lead in sorted(self.pivots, reverse=True):
            row = self.pivots[lead]
            for idx in sorted(i for i in row if i != lead and i in self.pivots):
                if idx in row:
                    row = _cancel(row, self.pivots[idx], idx)
            self.pivots[lead] = row


def _echelon_of_rows(m: SparseMat, targets=()) -> Echelon:
    """Echelon of the cleared rows of m, augmented by the targets.

    Target t occupies column m.cols + t.  Row scaling preserves rank,
    kernels and solution sets.
    """
    rows = [dict() for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    for t, target in enumerate(targets):
        for r, v in enumerate(target):
            if v:
                rows[r][m.cols + t] = v
    ech = Echelon()
    for row in rows:
        if row:
            ech.insert(clear_denominators(row))
    return ech


# the prime of the rank certificates, and the point at which `rank` and
# `kernel_basis` evaluate their entries
MODULUS = 2**31 - 1
_POINT = 1_234_567_890


def rank_mod_p(rows, p: int = MODULUS) -> int:
    """Rank over F_p of sparse integer rows (dicts index -> int).

    Entries are reduced modulo p, pivots are normalised to 1 and lead at
    their smallest index; the rows are not modified.
    """
    pivots = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            f = row[lead]
            for c, v in pivot.items():
                v = (row.get(c, 0) - f * v) % p
                if v:
                    row[c] = v
                else:
                    row.pop(c, None)
    return len(pivots)


def _certified_full_rank(m: SparseMat, full: int) -> bool:
    """The rank of m at delta = _POINT over F_MODULUS is full.

    That rank never exceeds the rank over Q(delta), so True proves
    rank(m) = full.  False, at a pole or on a shortfall, proves nothing.
    """
    try:
        return rank_mod_p(m.mod_p_rows(_POINT, MODULUS)) == full
    except PoleAtPoint:
        return False


def fraction_free_rank(m: SparseMat) -> int:
    """Rank over Q(delta) by fraction-free elimination alone: the oracle
    for the certificate in `rank`."""
    return len(_echelon_of_rows(m).pivots)


def rank(m: SparseMat) -> int:
    """Rank over Q(delta).

    min(rows, cols) when the certificate over F_p proves it, otherwise
    the fraction-free rank.
    """
    full = min(m.rows, m.cols)
    if _certified_full_rank(m, full):
        return full
    return fraction_free_rank(m)


def kernel_basis(m: SparseMat):
    """Basis of the right kernel of m over Q(delta), one vector per free
    column.

    Each vector is returned as a dense list of RatFunc with polynomial
    entries (denominators cleared), common content stripped, and the first
    nonzero entry having a positive leading coefficient.  The kernel is
    empty without elimination when the certificate over F_p proves
    full column rank; otherwise `_kernel_at_point` solves it exactly.
    """
    if m.cols <= m.rows and _certified_full_rank(m, m.cols):
        return []
    return _kernel_at_point(m)


def _decode(n: int, k: int) -> IntPoly:
    """The polynomial with coefficients in (-2^(k-1), 2^(k-1)] whose value
    at delta = 2^k is n: the signed base-2^k digits of n (k >= 2).

    >>> _decode(3 * 2**16 - 5 * 2**8 + 7, 8)
    IntPoly((7, -5, 3))
    >>> _decode(-(2**8) - 128, 8)
    IntPoly((128, -2))
    """
    base = 1 << k
    mask, half = base - 1, base >> 1
    coeffs = []
    while n:
        digit = n & mask
        n >>= k
        if digit > half:
            digit -= base
            n += 1
        coeffs.append(digit)
    return IntPoly(coeffs)


def _gauss_jordan(rows: list, cols: int):
    """Fraction-free Gauss-Jordan elimination of integer rows in place.

    The pivot of each step is the first nonzero entry, at or below the
    next pivot row, of the leftmost column that has one; its row is
    swapped up.  Every other row becomes (p * row - f * pivot row) / d,
    with p the new pivot, f the row's entry in the pivot column and d the
    previous pivot (1 at the start), an exact division (Bareiss, Math.
    Comp. 1968).  Afterwards the first r rows are the pivot rows, each
    with the last pivot at its own pivot column and 0 at the others, and
    every entry is an r x r minor up to sign.  Returns the pivot columns
    and the last pivot.
    """
    d, pivots, n = 1, [], len(rows)
    for c in range(cols):
        k = len(pivots)
        if k == n:
            break
        i = next((i for i in range(k, n) if rows[i][c]), None)
        if i is None:
            continue
        rows[k], rows[i] = rows[i], rows[k]
        top = rows[k]
        p = top[c]
        for i, row in enumerate(rows):
            if i == k:
                continue
            # rows below the pivot row are zero before column c
            lo = 0 if i < k else c
            f = row[c]
            if f:
                row[lo:] = [(p * x - f * y) // d
                            for x, y in zip(row[lo:], top[lo:])]
            else:
                row[lo:] = [p * x // d for x in row[lo:]]
        d = p
        pivots.append(c)
    return pivots, d


def _kernel_at_point(m: SparseMat) -> list:
    """kernel_basis by exact integer elimination at delta = 2^K; the
    module docstring gives H, K and why the pivots are those over
    Q(delta).

    Zero rows are dropped (so s counts the others), and each other row is
    multiplied by the lcm of its denominators; neither changes the
    kernel.  Free column f gets the vector v_f = d, v_(P_i) = -A[i][f]
    from `_gauss_jordan`: d times the reduced-echelon solution, every
    entry a minor that `_decode` reads back.  Its primitive multiple is
    unique up to sign, so this is the vector fraction-free elimination
    over Q(delta) returns.

    Content: the content of the entries in Z[delta] is c * P, with c
    the gcd of their coefficients and P primitive.  P(x) divides G / c,
    G the gcd of their values at x.  A nonconstant P has its roots
    within H + 1 of 0, so |P(x)| >= x - H - 1 > H.  When G / c <= H the
    content is therefore the integer c, and no polynomial gcd is needed.
    """
    cleared = [{} for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        cleared[r][c] = v
    cleared = [_times_lcm(row) for row in cleared if row]
    s = min(len(cleared), m.cols)
    norms = sorted((max(sum(map(abs, v.coeffs)) for v in row.values())
                    for row in cleared), reverse=True)
    bound = math.factorial(s) * math.prod(norms[:s])
    k = bound.bit_length() + 1
    rows = []
    for row in cleared:
        dense = [0] * m.cols
        for c, v in row.items():
            acc = 0
            for coeff in reversed(v.coeffs):
                acc = (acc << k) + coeff
            dense[c] = acc
        rows.append(dense)
    pivots, d = _gauss_jordan(rows, m.cols)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        values = {f: d}
        for p, row in zip(pivots, rows):
            if row[f]:
                values[p] = -row[f]
        vec = {c: _decode(n, k) for c, n in values.items()}
        content = math.gcd(*[math.gcd(*v.coeffs) for v in vec.values()])
        if math.gcd(*values.values()) // content > bound:
            vec = _strip_row_content(vec)
        elif content > 1:
            vec = {c: IntPoly([a // content for a in v.coeffs])
                   for c, v in vec.items()}
        if vec[min(vec)].leading < 0:
            vec = {c: -v for c, v in vec.items()}
        out = [RF_ZERO] * m.cols
        for c, v in vec.items():
            out[c] = RatFunc(v)
        basis.append(out)
    return basis


def span_solve(columns: SparseMat, targets) -> list:
    """Solve columns . x = v exactly for every target v in one elimination.

    Returns one entry per target: the list of RatFunc coefficients x (zero
    on the non-pivot columns), or None when v is not in the column span.
    Target t is inconsistent exactly when some echelon vector that vanishes
    on every column of the matrix has a nonzero entry at its augmented
    index columns.cols + t.

    Before back substitution each pivot vector is restricted to the pivot
    columns and the target columns, which is all the solution reads.  The
    restriction is exact: each cancellation takes its multipliers from
    the entries at a pivot column, so the restricted columns of its result
    depend only on the restricted columns of its inputs, and content
    stripping and the gcd-reduced multipliers only rescale a vector by a
    nonzero element of Q(delta).  Each restricted vector is thus a nonzero
    multiple of the full one restricted, and the ratio row[n + t] /
    row[p] read for x_p does not see the scale.  A vector that leads at a
    target index holds target columns only, so the inconsistency test
    reads the same vectors.

    >>> d = RatFunc.delta()
    >>> wide = SparseMat(2, 4, {(0, 0): RF_ONE, (0, 1): d, (0, 3): RF_ONE,
    ...                         (1, 1): d, (1, 2): RF_ONE, (1, 3): d})
    >>> span_solve(wide, [[d, RF_ONE]])
    [[RatFunc('delta - 1'), RatFunc('1/(delta)'), RatFunc('0'), RatFunc('0')]]
    >>> flat = SparseMat(2, 2, {(0, 0): RF_ONE, (0, 1): d,
    ...                         (1, 0): d, (1, 1): d * d})
    >>> span_solve(flat, [[RF_ONE, d], [RF_ONE, RF_ONE]])
    [[RatFunc('1'), RatFunc('0')], None]
    """
    targets = [list(v) for v in targets]
    for v in targets:
        if len(v) != columns.rows:
            raise DimensionMismatch(
                f"vector length {len(v)} vs {columns.rows} rows")
    ech = _echelon_of_rows(columns, targets)
    n = columns.cols
    # the solution reads only pivot and target columns, and every
    # cancellation picks its multipliers at a pivot column
    ech.pivots = {lead: {c: v for c, v in row.items()
                         if c >= n or c in ech.pivots}
                  for lead, row in ech.pivots.items()}
    ech.back_substitute()
    inconsistent = set()
    for lead, row in ech.pivots.items():
        if lead >= n:
            inconsistent.update(c - n for c in row)
    out = []
    for t in range(len(targets)):
        if t in inconsistent:
            out.append(None)
            continue
        x = [RF_ZERO] * n
        for p, row in ech.pivots.items():
            val = row.get(n + t)
            if p < n and val:
                x[p] = RatFunc(val, row[p])
        out.append(x)
    return out


def float_rank(m: SparseMat, delta: float) -> int:
    """Numerical rank of the matrix evaluated at a float delta.

    The benchmark checker's independent float cross-check (the tests
    use it too), not part of any verdict; numpy is imported only here.
    """
    import numpy as np
    if m.rows == 0 or m.cols == 0:
        return 0
    return int(np.linalg.matrix_rank(m.to_dense_float(delta)))


def mat_vec(m: SparseMat, x) -> list:
    """Exact matrix-vector product (x dense over RatFunc)."""
    x = list(x)
    if len(x) != m.cols:
        raise DimensionMismatch("mat_vec shape mismatch")
    out = [RF_ZERO] * m.rows
    for (r, c), v in m.entries.items():
        if x[c]:
            out[r] = out[r] + v * x[c]
    return out
