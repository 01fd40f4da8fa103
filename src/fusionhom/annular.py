"""Chain complex of circle diagrams on a punctured sphere, in any degree.

A degree-k diagram lives on a sphere with finite punctures q_1..q_k (left
to right) plus one puncture at infinity.  Its circles form a laminar
family of consecutive blocks [i..j] with multiplicities; crossing blocks
(such as [1,2] together with [2,3]) are rejected.

The boundary is the alternating sum of puncture-filling operators: index
j < k fills the finite puncture q_{j+1}, and j = k fills the puncture at
infinity, after which the last finite puncture is promoted to infinity
(promote-last rule).  Circles whose puncture-free side becomes empty are
deleted, each contributing a factor delta.

Diagrams are unshaded, where boundary . boundary = 0 holds exactly, and
every homology computation runs on them.  The shaded values the paper
displays at degrees 2 and 3 come from one display function,
`shaded_boundary`, whose bit transport gives no chain complex.

H2 containment (`h2_vanishing_check`) is proved from the delta = 0
graded pieces of the complex, and only so: where that proof does not
close, the check raises errors.Inconclusive.  Write C_k(<=T) and
C_k(=t) for the degree-k diagrams of total at most T and exactly t;
filling never raises the total, so each C(<=T) is a subcomplex.

- A fill that deletes j circles carries delta^j and lowers the total by
  j.  Sending delta to 0 is a ring map Z[delta] -> Z that keeps only the
  fills deleting nothing, so the boundary at delta = 0 maps C(=t) to
  C(=t): it is block diagonal over totals with integer entries.
- Ranks only drop under specialisation, so rank d_k(<=N) over Q(delta)
  is at least the sum over t <= N of rank d_k(=t) over Q.
- d2 d3 = 0 on every code, in every power of delta, is checked once,
  on the generic code g = (1, 2, 4, ..., 2^(w-1)) over the w classes
  of _block_classes(3) (`_dd_vanishes_generically`).  Fill i after
  fill j routes each class to a class or to "deleted", and the key
  (face code, power of delta) that the term reaches from a code is
  fixed by that routing.  On g each class is its own bit, so the key
  names the routing: the sums on g vanish exactly when, for each
  routing, the signed terms that take it cancel.  Every code's sums
  are sums of these per-routing totals, so they vanish too, crossing
  supports included (the simplicial identities, Weibel 8.1).  When
  the one check fails, each d in C3(<=N) is checked on its own,
  exactly over Z.  Then
  dim ker d2(<=N) <= |C2(<=N)| - sum rank d2(=t) and
  dim im d3(<=N) >= sum rank d3(=t), so when every graded summand
  |C2(=t)| - rank d2(=t) - rank d3(=t) is 0, H2(C(<=N)) = 0 over
  Q(delta): ker d2(<=N) lies in the span of the boundaries of C3(<=N),
  hence of C3(<=N+margin) for every margin >= 0.  This is the spectral
  sequence of the filtration by total (Weibel, An Introduction to
  Homological Algebra, 5.4) read off its first page.
- kernel_dim = |C2(<=N)| - |C1(<=N)| is exact when the sum of the
  rank d2(=t) is the row count |C1(<=N)|.

One fill rule serves the complex: a fill maps block classes (`_fills`,
read off the single-circle rule `_fill_block`), and every boundary,
boundary matrix and d . d check runs on multiplicity tuples, listed per
total by `_codes`.  A fill deletes nothing on a code exactly when it
sends none of the code's support classes (its nonzero blocks) to
"deleted", so the delta = 0 blocks are routed per support (`_routes`).
A diagram is stored as its code; `blocks` is a view.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, compress
from math import comb
from operator import attrgetter, sub

from .errors import Inconclusive, SizeLimit
from .exactarith import (Echelon, IntPoly, RatFunc, RF_ONE, RF_ZERO,
                         SparseMat, ZERO_POLY, _canonical, rank, rank_mod_p,
                         span_solve)

DIAGRAM_CAP = 100000  # default bound on the degree-3 diagrams of the h2 check


class UnsupportedDegree(ValueError):
    """Shaded display asked for outside its degrees 2 and 3."""


@cache
def _block_classes(k: int) -> tuple:
    """The blocks (i, j) with 1 <= i <= j <= k in lexicographic order: the
    coordinates of a degree-k multiplicity tuple."""
    return tuple((i, j) for i in range(1, k + 1) for j in range(i, k + 1))


def _crossing(b1, b2) -> bool:
    """Blocks b1 < b2 (lexicographic) overlap without containment."""
    (i1, j1), (i2, j2) = b1, b2
    return i1 < i2 <= j1 < j2


@cache
def _supports(k: int) -> tuple:
    """The pairwise non-crossing sets of degree-k block classes, each an
    increasing tuple of indices into _block_classes(k)."""
    classes = _block_classes(k)
    supports = [()]
    for idx, block in enumerate(classes):
        supports += [s + (idx,) for s in supports
                     if not any(_crossing(classes[a], block) for a in s)]
    return tuple(supports)


class CircleDiagram:
    """Canonical immutable circle diagram.

    code: the multiplicity of each class of _block_classes(degree).
    blocks, derived from it: the sorted (i, j, mult) consecutive intervals
    of positive multiplicity.
    """

    __slots__ = ("degree", "code")

    def __init__(self, degree, blocks=()):
        if degree < 0:
            raise ValueError(f"negative degree {degree}")
        norm = {}
        for i, j, m in blocks:
            if m == 0:
                continue
            if m < 0:
                raise ValueError(f"negative multiplicity on block [{i},{j}]")
            if not (1 <= i <= j <= degree):
                raise ValueError(f"block [{i},{j}] out of range for degree {degree}")
            norm[i, j] = norm.get((i, j), 0) + m
        for b1, b2 in combinations(sorted(norm), 2):
            if _crossing(b1, b2):
                raise ValueError(f"crossing blocks {b1} and {b2}")
        self._set(degree, tuple(norm.get(c, 0)
                                for c in _block_classes(degree)))

    def _set(self, degree, code):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "code", code)

    @classmethod
    def _trusted(cls, degree, code) -> "CircleDiagram":
        """Unvalidated construction from a multiplicity tuple over
        _block_classes(degree) already known to be non-crossing, as
        `_codes` and the fills produce."""
        d = object.__new__(cls)
        d._set(degree, code)
        return d

    def __setattr__(self, *_):
        raise AttributeError("CircleDiagram is immutable")

    @property
    def blocks(self) -> tuple:
        return tuple((i, j, m) for (i, j), m
                     in zip(_block_classes(self.degree), self.code) if m)

    def total(self) -> int:
        return sum(self.code)

    def __eq__(self, other):
        return (isinstance(other, CircleDiagram)
                and self.degree == other.degree and self.code == other.code)

    def __hash__(self):
        return hash((self.degree, self.code))

    def sort_key(self):
        return self.total(), self.blocks

    def encode(self) -> str:
        if self.blocks:
            body = " ".join(
                (f"[{i}]^{m}" if i == j else f"[{i},{j}]^{m}")
                for i, j, m in self.blocks)
        else:
            body = "-"
        return f"k={self.degree}; {body}"

    @staticmethod
    def parse(text: str) -> "CircleDiagram":
        parts = [p.strip() for p in text.split(";")]
        if len(parts) != 2 or not parts[0].startswith("k="):
            raise ValueError(f"bad diagram encoding {text!r}")
        degree = int(parts[0][2:])
        blocks = []
        if parts[1] != "-":
            for token in parts[1].split():
                if "^" not in token or not token.startswith("["):
                    raise ValueError(f"bad block token {token!r} in {text!r}")
                span, mult = token.rsplit("^", 1)
                inner = span[1:-1]
                if not span.endswith("]"):
                    raise ValueError(f"bad block token {token!r} in {text!r}")
                if "," in inner:
                    i, j = (int(x) for x in inner.split(","))
                else:
                    i = j = int(inner)
                blocks.append((i, j, int(mult)))
        return CircleDiagram(degree, blocks)

    def __repr__(self):
        return f"CircleDiagram({self.encode()!r})"


def sigma(k: int) -> CircleDiagram:
    """Degree-1 generator: k parallel circles around the finite puncture."""
    return CircleDiagram(1, [(1, 1, k)] if k else [])


def sigma2(a: int, b: int, c: int) -> CircleDiagram:
    """Degree-2 generator: a around q1, b around q2, c around both."""
    return CircleDiagram(2, [(1, 1, a), (2, 2, b), (1, 2, c)])


def diagram3(a=0, b=0, c=0, ab=0, bc=0, abc=0) -> CircleDiagram:
    """Degree-3 diagram with the named block multiplicities."""
    return CircleDiagram(3, [(1, 1, a), (2, 2, b), (3, 3, c),
                             (1, 2, ab), (2, 3, bc), (1, 3, abc)])


class ChainVector:
    """Formal RatFunc-combination of diagrams of one degree."""

    def __init__(self, degree, terms=None):
        self.degree = degree
        self.terms = {}
        for d, coeff in (terms or {}).items():
            if d.degree != degree:
                raise ValueError("mixed degrees in chain vector")
            if coeff:
                self.terms[d] = coeff

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("mixed degrees")
        out = dict(self.terms)
        for d, c in other.terms.items():
            val = out.get(d, RF_ZERO) + c
            if val:
                out[d] = val
            elif d in out:
                del out[d]
        return ChainVector(self.degree, out)

    def __neg__(self):
        return ChainVector(self.degree, {d: -c for d, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff: RatFunc) -> "ChainVector":
        return ChainVector(self.degree,
                           {d: coeff * c for d, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, ChainVector)
                and self.degree == other.degree and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return f"ChainVector(k={self.degree}, 0)"
        body = " + ".join(f"({c})*{d.encode()}"
                          for d, c in sorted(self.terms.items(),
                                             key=lambda t: t[0].sort_key()))
        return f"ChainVector({body})"


def single(d: CircleDiagram, coeff=RF_ONE) -> ChainVector:
    return ChainVector(d.degree, {d: coeff})


# ---------------------------------------------------------------------------
# Puncture filling and the boundary
# ---------------------------------------------------------------------------

def _fill_block(k: int, block: tuple, j: int):
    """The block that fill j sends one circle around block (i, j') of a
    degree-k diagram to, or None when that circle is deleted.

    A fill acts on each circle on its own: fill j < k removes q_{j+1},
    deleting a circle around it alone; fill k closes infinity and
    promotes q_k, so a circle around q_k now bounds the punctures on its
    other side, and is deleted when there are none.
    """
    i0, j0 = block
    if j < k:
        p = j + 1
        if i0 <= p <= j0:
            return None if i0 == j0 else (i0, j0 - 1)
        return (i0 - 1 if i0 > p else i0), (j0 - 1 if j0 > p else j0)
    if j0 == k:
        return None if i0 == 1 else (1, i0 - 1)
    return block


def fill_puncture(d: CircleDiagram, j: int) -> tuple[CircleDiagram, int]:
    """Fill puncture j (finite q_{j+1} for j < k, infinity for j = k).

    Returns (surviving diagram of degree k-1, number of deleted circles);
    the fill is delta^deleted times that diagram.
    """
    k = d.degree
    if k < 1:
        raise ValueError("cannot fill punctures of a degree-0 diagram")
    if not (0 <= j <= k):
        raise ValueError(f"fill index {j} out of range 0..{k}")
    face, deleted = _fill_code(d.code, k, j)
    return CircleDiagram._trusted(k - 1, face), deleted


def boundary(d: CircleDiagram) -> ChainVector:
    """Boundary of one diagram: sum over j of (-1)^j fill_puncture(d, j).

    The coefficients are summed over Z[delta] by `_boundary_polys` and
    each nonzero sum, a polynomial over 1 and so canonical, is wrapped
    without the normaliser; terms that cancel are dropped.
    """
    if d.degree < 1:
        raise ValueError("cannot fill punctures of a degree-0 diagram")
    return ChainVector(d.degree - 1, {
        CircleDiagram._trusted(d.degree - 1, face): _canonical(p)
        for face, p in _boundary_polys(d.code, d.degree).items()})


def shaded_boundary(d: CircleDiagram, shading: int) -> list:
    """The displayed shaded boundary of d when its region at infinity has
    this shading bit: one (face, face bit, (-1)^j delta^deleted) term per
    fill j, in fill order.

    Finite fills keep the bit.  Filling infinity flips it by the parity
    of the deleted circles at degree 2 and of the circles around the
    promoted puncture at degree 3.  These rules reproduce the paper's
    displayed values but give no chain complex, so they are defined at
    degrees 2 and 3 only and serve display alone.
    """
    k = d.degree
    if k not in (2, 3):
        raise UnsupportedDegree(f"shading is displayed at degrees 2 and 3, "
                                f"not {k}")
    promoted = sum(m for _, j0, m in d.blocks if j0 == k)
    terms = []
    for j in range(k + 1):
        face, deleted = fill_puncture(d, j)
        flip = 0 if j < k else (deleted if k == 2 else promoted) & 1
        coeff = RatFunc.delta_power(deleted)
        terms.append((face, shading ^ flip, -coeff if j % 2 else coeff))
    return terms


@cache
def _fills(k: int) -> tuple:
    """_fills(k)[j]: the class index that fill j sends each degree-k class
    to, one past the last class of degree k-1 where the circle is
    deleted."""
    below = {c: n for n, c in enumerate(_block_classes(k - 1))}
    below[None] = len(below)  # the deleted circles
    return tuple(tuple(below[_fill_block(k, block, j)]
                       for block in _block_classes(k))
                 for j in range(k + 1))


def _fill_code(code: tuple, degree: int, j: int) -> tuple[tuple, int]:
    """Fill j of a coded diagram: (face code, deleted circles)."""
    face = [0] * (len(_block_classes(degree - 1)) + 1)
    for m, target in zip(code, _fills(degree)[j]):
        face[target] += m
    return tuple(face[:-1]), face[-1]


@cache
def _routes(k: int) -> dict:
    """_routes(k)[support]: the fills that delete no circle of a degree-k
    code with this support (one of `_supports(k)`), each as (sign, the
    degree-(k-1) class that each support class goes to)."""
    deleted = len(_block_classes(k - 1))  # where _fills sends a deleted circle
    return {s: tuple(((-1) ** j, tuple(fill[c] for c in s))
                     for j, fill in enumerate(_fills(k))
                     if all(fill[c] != deleted for c in s))
            for s in _supports(k)}


def _code_counts(code: tuple, degree: int) -> dict:
    """Boundary of a coded diagram over Z: (face code, deleted) -> count;
    a face's coefficient is the sum of count * delta^deleted."""
    counts = {}
    for j in range(degree + 1):
        key = _fill_code(code, degree, j)
        counts[key] = counts.get(key, 0) + (-1) ** j
    return counts


def _boundary_polys(code: tuple, degree: int) -> dict:
    """Boundary of a coded diagram over Z[delta]: face code -> nonzero
    IntPoly, the counts of `_code_counts` summed per face."""
    polys = {}
    for (face, deleted), count in _code_counts(code, degree).items():
        term = IntPoly((0,) * deleted + (count,))
        polys[face] = polys.get(face, ZERO_POLY) + term
    return {face: p for face, p in polys.items() if p}


# ---------------------------------------------------------------------------
# Enumeration and matrices
# ---------------------------------------------------------------------------

def _compositions(t: int, r: int) -> list:
    """The r-tuples of positive integers that sum to t."""
    if r == 0 or t == 0:
        return [()] if r == t else []
    return [tuple(map(sub, cuts + (t,), (0,) + cuts))
            for cuts in combinations(range(1, t), r - 1)]


def _codes(degree: int, t: int) -> list:
    """The multiplicity tuples over _block_classes(degree) of the diagrams
    of total t: each non-crossing support given each positive
    composition of t, not sorted."""
    width = len(_block_classes(degree))
    out = []
    for support in _supports(degree):
        for parts in _compositions(t, len(support)):
            code = [0] * width
            for idx, m in zip(support, parts):
                code[idx] = m
            out.append(tuple(code))
    return out


def enumerate_diagrams(degree: int, max_total: int):
    """All diagrams of the degree with total multiplicity <= T, ordered by
    CircleDiagram.sort_key."""
    if degree < 0:
        raise ValueError(f"negative degree {degree}")
    if max_total < 0:
        raise ValueError(f"max_total {max_total} must be >= 0")
    out = []
    for t in range(max_total + 1):  # sort_key orders by total first
        level = [CircleDiagram._trusted(degree, code)
                 for code in _codes(degree, t)]
        out += sorted(level, key=attrgetter("blocks"))
    return out


def _count_diagrams(degree: int, max_total: int) -> int:
    """len(enumerate_diagrams(degree, max_total)), counted: a support of
    s classes takes C(max_total, s) positive multiplicities."""
    return sum(comb(max_total, len(s)) for s in _supports(degree))


def boundary_matrix(degree: int, window: int, domain=None,
                    codomain=None) -> SparseMat:
    """Matrix of the boundary on the truncated window.

    Columns follow domain, by default enumerate_diagrams(degree, window),
    rows codomain, by default enumerate_diagrams(degree-1, window); a
    caller that has enumerated either passes it in.  Filling never
    increases the total, so the rows hold every face of every column.
    """
    if domain is None:
        domain = enumerate_diagrams(degree, window)
    if codomain is None:
        codomain = enumerate_diagrams(degree - 1, window)
    row_of = {d.code: i for i, d in enumerate(codomain)}
    m = SparseMat(len(codomain), len(domain))
    for col, d in enumerate(domain):
        for face, p in _boundary_polys(d.code, degree).items():
            m[row_of[face], col] = _canonical(p)
    return m


def h0_report(window: int = 5) -> int:
    """dim C_0 - rank(boundary_1) over the window; the rank is zero."""
    return 1 - rank(boundary_matrix(1, window))


# ---------------------------------------------------------------------------
# Homology containment checks
# ---------------------------------------------------------------------------

def h1_vanishing_check(K: int) -> dict:
    """Certify sigma_m for m <= K inside the boundary span of degree 2.

    Columns range over sigma^c_{a,b} with a+b+c <= K+1; certificates list
    (column encoding, coefficient) pairs with the exact expansion.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    window = K + 1
    domain = enumerate_diagrams(2, window)
    codomain = enumerate_diagrams(1, window)
    row_of = {d: i for i, d in enumerate(codomain)}
    matrix = boundary_matrix(2, window, domain, codomain)
    targets = []
    for m in range(K + 1):
        target = [RF_ZERO] * len(codomain)
        target[row_of[sigma(m)]] = RF_ONE
        targets.append(target)
    per_m = {}
    for m, coeffs in enumerate(span_solve(matrix, targets)):
        if coeffs is None:
            per_m[m] = {"contained": False, "certificate": None}
            continue
        cert = [(domain[i].encode(), str(c))
                for i, c in enumerate(coeffs) if c]
        per_m[m] = {"contained": True, "certificate": cert}
    all_contained = all(entry["contained"] for entry in per_m.values())
    return {"contained": all_contained, "K": K, "window": window,
            "per_m": per_m}


def h2_vanishing_check(N: int, margin: int = 2,
                       diagram_cap: int = DIAGRAM_CAP) -> dict:
    """Check ker(boundary_2) on total <= N against the degree-3 image.

    Containment is proved from the graded ranks (see the module
    docstring): for each total t <= N, the ranks over Q of the delta = 0
    blocks d2(=t) and d3(=t).  d2 d3 = 0 is first proved for every code
    at once from one generic code; only when that fails is each
    degree-3 column checked to satisfy d2(d3(d)) = 0 exactly over Z
    before it is used.  Each rank is first taken modulo a prime, which
    never exceeds it, and is accepted when it meets its proven bound: rank d2(=t) <= |C1(=t)|, and, because
    d2 d3 = 0, rank d3(=t) <= |C2(=t)| - rank d2(=t).  Otherwise exact
    elimination over Z gives the rank.  The proof needs no kernel basis
    and no evaluation point, and it consumes the columns of total <= N
    only, so diagram_cap bounds |C3(<=N)|; C3(<=N+margin) is only
    counted, as columns_available.  When d2 d3 = 0 fails on a column
    or a total's ranks do not close, the check raises Inconclusive: no
    verdict is given without the proof.

    The report's method is "graded", and its "graded" entry holds
    |C2(=t)|, rank d2(=t) and rank d3(=t) for t = 0..N.  Its "cycles"
    says how d2 d3 = 0 was proved: "generic" by the one-code check,
    "per-column" by the fallback.
    """
    if N < 1 or margin < 0:
        raise ValueError("need N >= 1 and margin >= 0")
    used = _count_diagrams(3, N)
    if used > diagram_cap:
        raise SizeLimit(f"{used} degree-3 diagrams exceed cap {diagram_cap}")
    window3 = N + margin
    kernel_dim, columns_used, graded, cycles = _h2_graded(N)
    return {
        "kernel_dim": kernel_dim,
        "contained": True,
        "failing_vectors": [],
        "columns_available": _count_diagrams(3, window3),
        "columns_used": columns_used,
        "window": window3,
        "method": "graded",
        "cycles": cycles,
        "graded": graded,
    }


def _dd_vanishes(counts, degree, memo) -> bool:
    """The boundary of the chain with these counts is zero, decided over
    Z on (face code, power) counts; memo caches the counts of the faces."""
    total = {}
    for (face, k), count in counts.items():
        inner = memo.get(face)
        if inner is None:
            inner = memo[face] = _code_counts(face, degree - 1)
        for (out, l), inner_count in inner.items():
            key = out, k + l
            total[key] = total.get(key, 0) + count * inner_count
    return not any(total.values())


def _dd_vanishes_generically(degree) -> bool:
    """d_{degree-1} d_degree = 0 on every code, decided on the one
    generic code (1, 2, 4, ...) over _block_classes(degree), whose keys
    name the routing of every class (see the module docstring)."""
    generic = tuple(1 << n for n in range(len(_block_classes(degree))))
    return _dd_vanishes(_code_counts(generic, degree), degree, {})


def _rank_at_zero(columns, degree, row_of, bound=None):
    """Rank over Q of the boundary at delta = 0 on these coded columns.

    Each column is streamed as an integer column: its support picks the
    fills that delete nothing from `_routes`, and each such fill sums the
    code's parts into its face.  bound is a proven upper bound on the
    rank, by default the smaller dimension.  The integer columns are
    first eliminated modulo p (`rank_mod_p`; no evaluation point is
    needed).  That rank never exceeds the rank over Q, so when it meets
    the bound it is the rank; otherwise the columns are streamed again
    into exact elimination over Z.
    """
    if bound is None:
        bound = min(len(columns), len(row_of))
    routes = _routes(degree)
    classes = range(len(_block_classes(degree)))
    width = len(_block_classes(degree - 1))

    def integer_columns():
        for code in columns:
            parts = tuple(filter(None, code))
            col = {}
            for sign, targets in routes[tuple(compress(classes, code))]:
                face = [0] * width
                for m, target in zip(parts, targets):
                    face[target] += m
                row = row_of[tuple(face)]
                col[row] = col.get(row, 0) + sign
            yield {r: v for r, v in col.items() if v}

    if rank_mod_p(integer_columns()) == bound:
        return bound
    ech = Echelon()
    for col in integer_columns():
        ech.insert({r: IntPoly((v,)) for r, v in col.items()})
    return len(ech.pivots)


def _h2_graded(N):
    """The graded proof on C(<=N), on the codes `_codes` lists per total;
    no diagram is built but the one that names a failing column.

    d2 d3 = 0 is proved once by `_dd_vanishes_generically`; when that
    fails, each degree-3 code of a total is checked by `_code_counts`
    before that total's ranks, whose blocks are routed by `_routes`.
    Returns (kernel_dim, columns_used, per-total ranks, cycles), cycles
    "generic" or "per-column".  Raises Inconclusive, naming N and the
    total t, when a degree-3 column is not a cycle, or when the ranks of
    a total do not close: rank d2(=t) < |C1(=t)|, or a nonzero graded
    summand |C2(=t)| - rank d2(=t) - rank d3(=t).
    """
    generic = _dd_vanishes_generically(3)
    memo = {}
    graded = {"dim_c2": [], "rank_d2": [], "rank_d3": []}
    kernel_dim = columns_used = 0
    for t in range(N + 1):
        c1, c2, c3 = (_codes(k, t) for k in (1, 2, 3))
        for code in () if generic else c3:
            if not _dd_vanishes(_code_counts(code, 3), 3, memo):
                raise Inconclusive(
                    f"h2 at N={N}, total {t}: degree-3 column "
                    f"{CircleDiagram._trusted(3, code).encode()} is not "
                    f"a cycle (d2 d3 != 0)")
        row1 = {code: i for i, code in enumerate(c1)}
        row2 = {code: i for i, code in enumerate(c2)}
        # d2 d3 = 0 gives rank d3(=t) <= |C2(=t)| - rank d2(=t)
        rank2 = _rank_at_zero(c2, 2, row1)
        rank3 = _rank_at_zero(c3, 3, row2, len(c2) - rank2)
        if rank2 != len(c1) or rank2 + rank3 != len(c2):
            raise Inconclusive(
                f"h2 at N={N}, total {t}: graded ranks do not close "
                f"(|C1| {len(c1)}, |C2| {len(c2)}, rank d2 {rank2}, "
                f"rank d3 {rank3})")
        graded["dim_c2"].append(len(c2))
        graded["rank_d2"].append(rank2)
        graded["rank_d3"].append(rank3)
        kernel_dim += len(c2) - len(c1)
        columns_used += len(c3)
    return (kernel_dim, columns_used, graded,
            "generic" if generic else "per-column")
