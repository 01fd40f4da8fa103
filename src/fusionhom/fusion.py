"""Fusion rings: structure constants, dimensions, and global index.

A fusion ring is a based ring with basis `labels` (unit first), an
involutive `dual`, and nonnegative integer structure constants
N(alpha, beta, gamma) counting gamma inside alpha . beta.  Dimensions are
carried as floats and, when a closed form in delta exists, as exact
rational functions.

Infinite rings (the generic Temperley-Lieb ladder) are materialized as
finite windows with `truncated=True` and a `frontier` set of labels whose
products are clipped; axiom checks automatically avoid triples that touch
the frontier.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import lshift, mul

from .exactarith import (ONE_POLY, RatFunc, RF_ONE, RF_ZERO, parse_scalar,
                         poly_gcd)
from .groups import Group, NotAGroup

LADDER_CAP = 10000  # default bound on the rows (width^2) of a CLI ladder


class NotConnected(ValueError):
    """Fusion graph is disconnected; no unique Perron eigenvector."""


class InvalidRingFile(ValueError):
    """Ring file is malformed or fails an axiom."""


class FusionRing:
    """Based ring with nonnegative structure constants.

    N holds one product row per pair: N[a, b] = {c: N(a, b, c)}, each row
    in label order with zero entries and empty rows omitted, and each a
    copy of the caller's.  dims maps labels to positive floats;
    dims_exact (optional) maps labels to RatFunc values in delta.

    The constructor brings the caller's rows into that form.  The rings
    built here by rule (from_group, tlj_even, tlj_ladder and
    amenability.tlj_kesten_window) make fresh rows already in it and
    store them as built through _trusted.
    """

    def __init__(self, labels, dual, N, dims=None, dims_exact=None,
                 truncated=False, frontier=(), name=""):
        self._set(labels, dual, {}, dims, dims_exact, truncated, frontier,
                  name)
        order = self.index.__getitem__
        for pair, row in N.items():
            row = {c: row[c] for c in sorted(row, key=order) if row[c]}
            if row:
                self.N[pair] = row

    def _set(self, labels, dual, N, dims, dims_exact, truncated, frontier,
             name):
        self.labels = tuple(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.dual = dict(dual)
        self.N = N
        self.dims = dict(dims) if dims else None
        self.dims_exact = dict(dims_exact) if dims_exact else None
        self.truncated = truncated
        self.frontier = frozenset(frontier)
        self.name = name

    @classmethod
    def _trusted(cls, labels, dual, N, dims=None, dims_exact=None,
                 truncated=False, frontier=(), name="") -> "FusionRing":
        """The ring with N stored as given, not copied or reordered.

        For a caller whose rows are fresh dicts, nonempty, with positive
        entries in label order, which is what the constructor would store:
        ladder_rows slices the labels in order with entries 1 (tlj_ladder,
        amenability.tlj_kesten_window); tlj_even walks k upward, and lo <=
        hi because max(i, j) <= half, so no row is empty; from_group has
        one entry per row.
        """
        ring = object.__new__(cls)
        ring._set(labels, dual, N, dims, dims_exact, truncated, frontier,
                  name)
        return ring

    @property
    def unit(self):
        return self.labels[0]

    def __len__(self):
        return len(self.labels)

    def row(self, a, b) -> dict:
        """{c: N(a, b, c)} over the labels in a . b, in label order."""
        return self.N.get((a, b), {})

    def mult(self, a, b, c) -> int:
        return self.row(a, b).get(c, 0)

    def support(self, a, b):
        """Labels appearing in a . b, in label order."""
        return list(self.row(a, b))

    def global_index(self) -> float:
        return sum(self.dims[a] ** 2 for a in self.labels)

    def global_index_exact(self):
        if self.dims_exact is None:
            return None
        total = RF_ZERO
        for a in self.labels:
            d = self.dims_exact[a]
            total = total + d * d
        return total

    def __repr__(self):
        tag = self.name or f"{len(self.labels)} labels"
        return f"FusionRing({tag})"


def _checkable(ring: FusionRing) -> dict:
    """label -> the labels it may share a check with: neither is on the
    frontier and none of their four products is clipped at it."""
    frontier = ring.frontier if ring.truncated else frozenset()
    barred = {(x, x) for x in frontier} | {
        pair for pair, row in ring.N.items() if not frontier.isdisjoint(row)}
    return {x: {y for y in ring.labels if barred.isdisjoint(
        ((x, x), (x, y), (y, x), (y, y)))} for x in ring.labels}


def _packed_rows(ring: FusionRing, norm: int) -> dict:
    """Each stored row N[a, b] as one int, sum_c N(a,b,c) 2^(w idx(c)),
    for rows of l1-norm at most norm."""
    rows = [row.values() for row in ring.N.values() if row]
    top = max(max(map(max, rows), default=0), -min(map(min, rows), default=0))
    w = (norm * top).bit_length() + 2
    shift = {c: w * i for c, i in ring.index.items()}.__getitem__
    return {pair: sum(map(lshift, row.values(), map(shift, row)))
            for pair, row in ring.N.items()}


def _combine(coeffs: dict, row_of) -> dict:
    """sum_x coeffs[x] * row_of(x), as a sparse dict."""
    out = {}
    for x, k in coeffs.items():
        for d, v in row_of(x).items():
            out[d] = out.get(d, 0) + k * v
    return out


def _mirrored(ring: FusionRing, a, b, row: dict, both) -> bool:
    """True when the pair (a, b) adds no negative-multiplicity or
    Frobenius message: no entry of its row is negative, and each entry
    at a label c in `both` equals N(b*, a*, c*) and N(a*, c, b)."""
    if min(row.values()) < 0:
        return False
    cs = both.intersection(row)
    if not cs:
        return True
    N, dual = ring.N, ring.dual
    vals = list(map(row.__getitem__, cs))
    da = dual[a]
    mirror = N.get((dual[b], da), {})
    return (list(map(mirror.get, map(dual.__getitem__, cs))) == vals
            and list(map(dict.get, map(N.get, zip(repeat(da), cs), repeat({})),
                         repeat(b))) == vals)


def _exact_dimension_failures(ring: FusionRing, pairs, norm: int) -> list:
    """The pairs (a, b) where d(a)d(b) != sum_c N(a,b,c) d(c) exactly,
    for rows of l1-norm at most norm (see verify_axioms)."""
    exact = ring.dims_exact
    lcm = ONE_POLY
    for den in {d.den for d in exact.values()}:
        lcm = lcm * den.divexact(poly_gcd(lcm, den))
    p = {lab: d.num * lcm.divexact(d.den) for lab, d in exact.items()}
    top = max((max(map(abs, q.coeffs), default=0) for q in p.values()),
              default=0)
    l1 = max((sum(map(abs, q.coeffs)) for q in p.values()), default=0)
    k = (top * (l1 + sum(map(abs, lcm.coeffs)) * norm)).bit_length()
    at = {lab: q.eval(1 << k) for lab, q in p.items()}
    scale = lcm.eval(1 << k)
    failures = []
    for a, b in pairs:
        row = ring.row(a, b)
        if at[a] * at[b] != scale * sum(map(mul, row.values(),
                                            map(at.__getitem__, row))):
            failures.append(f"exact dimension equation fails at ({a},{b})")
    return failures


def verify_axioms(ring: FusionRing):
    """Return a list of axiom failures (empty list means all pass).

    Checks the unit law, dual involutivity, Frobenius symmetry,
    associativity, and the dimension eigen-equation
    d(a)d(b) = sum_c N(a,b,c) d(c) (float to relative 1e-9; exact when exact
    dims are stored).  Truncated rings skip triples touching the frontier.

    The messages come in a fixed order, and the fast paths keep it.  A
    label whose two unit rows are both {b: 1} passes every unit-law entry,
    so only a label with a differing row is read entry by entry.
    Negative multiplicities and Frobenius are walked pair by pair in label
    order, the order of the stored entries; a pair with no negative entry
    whose checked entries all match their mirrors N(b*, a*, c*) and
    N(a*, c, b) adds no message, and any other pair is read entry by
    entry.

    Associativity compares sum_x N(a,b,x) P[x,g] with sum_y N(b,g,y) P[a,y]
    on the packed rows P of `_packed_rows`.  With R the largest row l1-norm
    and M the largest |N(a,b,c)|, each combined coefficient is at most
    R M < 2^(w-2), and a signed base-2^w expansion with digits that small
    is unique, so the packed sides are equal exactly when the rows are.

    The exact equations are one integer identity per pair.  With L the
    lcm of the denominators and p_c = L d(c), each equation times L^2 is
    D = p_a p_b - L sum_c N(a,b,c) p_c = 0 in Z[delta].  Every coefficient
    of D is at most B = |p|_inf (|p|_1 + |L|_1 R), the norms taken as
    maxima over the labels, so at delta = 2^K with 2^K > B a nonzero D
    cannot vanish: its lowest nonzero coefficient would be a multiple of
    2^K.  D(2^K) = 0 is therefore D = 0, for polynomial and rational dims
    alike.
    """
    failures = []
    labels = ring.labels
    unit = ring.unit
    dual = ring.dual
    N = ring.N
    order = ring.index.__getitem__
    ok = _checkable(ring)

    if dual.get(unit) != unit:
        failures.append(f"dual(unit) = {dual.get(unit)} != unit")
    for a in labels:
        if dual.get(dual.get(a)) != a:
            failures.append(f"dual not involutive at {a}")
            break

    for b in labels:
        unit_row = {b: 1}
        if N.get((unit, b)) == unit_row and N.get((b, unit)) == unit_row:
            continue
        for c in labels:
            want = 1 if b == c else 0
            if ring.mult(unit, b, c) != want:
                failures.append(f"unit law fails: N(unit,{b},{c}) != {want}")
            if ring.mult(b, unit, c) != want:
                failures.append(f"unit law fails: N({b},unit,{c}) != {want}")

    # checkable pairs -> the labels both may share a triple with
    pairs = {(a, b): ok[a] & ok[b] for a in labels for b in labels
             if b in ok[a]}
    for a in labels:
        for b in labels:
            row = N.get((a, b))
            both = pairs.get((a, b), frozenset())
            if not row or _mirrored(ring, a, b, row, both):
                continue
            for c, v in row.items():
                if v < 0:
                    failures.append(f"negative multiplicity at ({a},{b},{c})")
                if c not in both:
                    continue
                da, db, dc = dual[a], dual[b], dual[c]
                if ring.mult(db, da, dc) != v:
                    failures.append(
                        f"Frobenius fails: N({a},{b},{c})={v} but "
                        f"N({db},{da},{dc})={ring.mult(db, da, dc)}")
                if ring.mult(da, c, b) != v:
                    failures.append(
                        f"Frobenius fails: N({a},{b},{c})={v} but "
                        f"N({da},{c},{b})={ring.mult(da, c, b)}")

    # (a . b) . g against a . (b . g) through the maps P[., g] and P[a, .],
    # zero where no row is stored; dict rows only to name a failure
    norm = max((sum(map(abs, row.values())) for row in N.values()),
               default=0)
    packed = _packed_rows(ring, norm)
    by_left = {g: {x: packed.get((x, g), 0) for x in labels}.__getitem__
               for g in labels}
    by_right = {a: {y: packed.get((a, y), 0) for y in labels}.__getitem__
                for a in labels}
    for (a, b), both in pairs.items():
        ab = N.get((a, b), {})
        ab_values, from_a = ab.values(), by_right[a]
        for g in sorted(both, key=order):
            bg = N.get((b, g), {})
            if (sum(map(mul, ab_values, map(by_left[g], ab)))
                    == sum(map(mul, bg.values(), map(from_a, bg)))):
                continue
            lhs = _combine(ab, lambda x: ring.row(x, g))
            rhs = _combine(bg, lambda y: ring.row(a, y))
            for d in sorted(lhs.keys() | rhs.keys(), key=order):
                left, right = lhs.get(d, 0), rhs.get(d, 0)
                if left != right:
                    failures.append(
                        f"associativity fails at ({a},{b},{g})->{d}: "
                        f"{left} != {right}")

    if ring.dims is not None:
        dims = ring.dims
        for a, b in pairs:
            lhs = dims[a] * dims[b]
            row = ring.row(a, b)
            rhs = sum(map(mul, row.values(), map(dims.__getitem__, row)))
            if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs)):
                failures.append(
                    f"dimension equation fails at ({a},{b}): {lhs} vs {rhs}")
    if ring.dims_exact is not None:
        failures += _exact_dimension_failures(ring, pairs, norm)
    return failures


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def from_group(group: Group) -> FusionRing:
    """Group ring as a fusion ring: N(g,h,k) = [gh = k], dual = inverse."""
    if not isinstance(group, Group):
        raise NotAGroup("expected a validated Group instance")
    labels = group.elements
    N = {(g, h): {group.mul[g, h]: 1} for g in labels for h in labels}
    dims = {g: 1.0 for g in labels}
    dims_exact = {g: RF_ONE for g in labels}
    name = f"Vec({group.name})" if group.name else "Vec"
    return FusionRing._trusted(labels, group.inv, N, dims, dims_exact,
                               name=name)


def tlj_even(n: int) -> FusionRing:
    """Even part of the A_n Temperley-Lieb-Jones ring.

    Labels f_0, f_2, ..., f_{2*floor((n-1)/2)} with
    N(f_{2i}, f_{2j}, f_{2k}) = 1 iff |i-j| <= k <= min(i+j, (n-1)-i-j).
    Dimensions are the sine quotients at delta = 2cos(pi/(n+1)); these are
    genuinely irrational for most n, so only float dims are stored.
    """
    if n < 2:
        raise ValueError("tlj_even needs n >= 2")
    half = (n - 1) // 2
    labels = tuple(f"f{2 * i}" for i in range(half + 1))
    N = {}
    for i in range(half + 1):
        for j in range(half + 1):
            lo = abs(i - j)
            hi = min(i + j, (n - 1) - i - j)
            N[labels[i], labels[j]] = {labels[k]: 1
                                       for k in range(lo, hi + 1)}
    q = math.pi / (n + 1)
    dims = {labels[i]: math.sin((2 * i + 1) * q) / math.sin(q)
            for i in range(half + 1)}
    dual = {lab: lab for lab in labels}
    return FusionRing._trusted(labels, dual, N, dims,
                               name=f"TLJ_even(A_{n})")


def tlj_global_index(n: int) -> float:
    """Closed form (n+1) / (4 sin^2(pi/(n+1))) for the even TLJ ring."""
    return (n + 1) / (4 * math.sin(math.pi / (n + 1)) ** 2)


def chebyshev_dims(count: int):
    """Exact quantum integers [1], [2], ... as IntPoly in delta.

    d_0 = 1, d_1 = delta, d_{k+1} = delta d_k - d_{k-1}.
    """
    out = [RF_ONE, RatFunc.delta()]
    delta = RatFunc.delta()
    while len(out) < count:
        out.append(delta * out[-1] - out[-2])
    return out[:count]


def ladder_dims(width: int, delta: float) -> list:
    """Float dims d_0 .. d_{width-1} of the ladder at a loop value.

    The three-term recurrence runs in float: evaluating the exact
    coefficient form cancels catastrophically past degree ~60.  A value
    past the float range is stored as +inf.  d_1 is delta itself, so a
    nan delta stores a nan there, and below 2 some dims are not positive;
    a caller that prints a verdict rejects both.
    """
    vals = [1.0, float(delta)]
    while len(vals) < width:
        v = delta * vals[-1] - vals[-2]
        vals.append(v if math.isfinite(v) else math.inf)
    return vals[:width]


def ladder_supports(labels, i) -> list:
    """The ladder rule: f_i . f_j is the sum of the f_k with
    |i-j| <= k <= i+j and k = i+j mod 2, each once.  Returns, for
    j = 0, 1, ..., the labels of f_i . f_j clipped to the window `labels`,
    in label order."""
    return [labels[abs(i - j):i + j + 1:2] for j in range(len(labels))]


def ladder_rows(labels, i) -> list:
    """The ladder rows f_i . f_j for j = 0, 1, ..., as fresh dicts
    {f_k: 1} over ladder_supports."""
    return list(map(dict.fromkeys, ladder_supports(labels, i), repeat(1)))


def tlj_ladder(width: int, delta: float | None = None) -> FusionRing:
    """Window of the generic Temperley-Lieb ladder ring.

    All labels f_0 .. f_{width-1} and every row of `ladder_rows`,
    restricted to the window.  The ring is marked truncated with the last
    two labels as frontier (both parities).  Exact Chebyshev dims are
    always stored; float dims are evaluated when a delta value is
    supplied.
    """
    if width < 1:
        raise ValueError("window width must be >= 1")
    labels = tuple(f"f{i}" for i in range(width))
    N = {(a, b): row for i, a in enumerate(labels)
         for b, row in zip(labels, ladder_rows(labels, i))}
    dual = {lab: lab for lab in labels}
    exact = dict(zip(labels, chebyshev_dims(width)))
    dims = None
    if delta is not None:
        dims = dict(zip(labels, ladder_dims(width, delta)))
    return FusionRing._trusted(labels, dual, N, dims, exact,
                               truncated=True, frontier=labels[-2:],
                               name=f"TLJ_ladder({width})")


# ---------------------------------------------------------------------------
# Perron-Frobenius dimensions and the zeroth Betti number
# ---------------------------------------------------------------------------

def perron_dims(ring: FusionRing):
    """Positive eigenvector of M = sum_alpha N(alpha, ., .), d(unit) = 1.

    Plain power iteration, run to relative sup-norm residual < 1e-12.
    Raises NotConnected when the fusion graph does not reach every label
    from the unit.
    """
    import numpy as np

    n = len(ring.labels)
    idx = ring.index
    M = np.zeros((n, n))
    for (a, b), row in ring.N.items():
        for c, v in row.items():
            M[idx[b], idx[c]] += v

    # connectivity of the undirected support graph
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and (M[i, j] or M[j, i]):
                adj[i].add(j)
                adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != n:
        raise NotConnected(f"only {len(seen)} of {n} labels reachable")

    v = np.ones(n)
    lam = 1.0
    for _ in range(200000):
        w = M @ v
        lam = float(w.max())
        w /= lam
        if np.max(np.abs(M @ w - lam * w)) <= 1e-12 * lam * np.max(np.abs(w)):
            v = w
            break
        v = w
    else:
        raise RuntimeError("power iteration did not converge")
    v = v / v[0]
    return {lab: float(v[idx[lab]]) for lab in ring.labels}


class BettiZeroReport:
    """The inverse of the global index, exactly when exact dims exist."""

    def __init__(self, beta0, beta0_exact=None):
        self.beta0 = beta0
        self.beta0_exact = beta0_exact

    def __repr__(self):
        return f"BettiZeroReport(beta0={self.beta0})"


def beta0(ring: FusionRing) -> BettiZeroReport:
    """beta_0 = 1 / (sum of squared dimensions)."""
    dims = ring.dims
    if dims is None:
        dims = perron_dims(ring)
    gi = sum(dims[a] ** 2 for a in ring.labels)
    gi_exact = ring.global_index_exact()
    b_exact = None
    if gi_exact is not None and gi_exact:
        b_exact = RF_ONE / gi_exact
    return BettiZeroReport(1.0 / gi, b_exact)


# ---------------------------------------------------------------------------
# Hochschild contrast: the fusion algebra itself has nonzero H^1
# ---------------------------------------------------------------------------

def hochschild_h1_witness(max_degree: int):
    """Certify a nonvanishing 1-cocycle on the polynomial fusion algebra.

    The one-generator fusion algebra is modeled as R = C[t] with
    augmentation eps(p) = p(delta).  Hochschild boundaries of elementary
    2-chains are b(t^i x t^j) = eps(t^i) t^j - t^{i+j} + eps(t^j) t^i.
    The functional phi(q) = q'(delta) kills every boundary exactly (in
    Q(delta)) while phi(t) = 1, so the truncated H^1 is nonzero.

    Returns a dict with the verification outcome and the witness value.
    """
    if max_degree < 2:
        raise ValueError("need max_degree >= 2")
    delta = RatFunc.delta()

    def phi_monomial(m: int) -> RatFunc:
        # phi(t^m) = m delta^(m-1)
        if m == 0:
            return RF_ZERO
        return RatFunc.from_int(m) * RatFunc.delta_power(m - 1)

    boundaries = 0
    all_vanish = True
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            # phi(b(t^i x t^j)) with eps(t^k) = delta^k
            val = (RatFunc.delta_power(i) * phi_monomial(j)
                   - phi_monomial(i + j)
                   + RatFunc.delta_power(j) * phi_monomial(i))
            boundaries += 1
            if val:
                all_vanish = False
    return {
        "functional_vanishes_on_boundaries": all_vanish,
        "witness_cycle_value": phi_monomial(1),
        "boundaries_checked": boundaries,
        "max_degree": max_degree,
    }


# ---------------------------------------------------------------------------
# Text file format
# ---------------------------------------------------------------------------

def ring_from_text(text: str) -> FusionRing:
    """Parse the ring format; validates axioms and raises InvalidRingFile
    with the first failure.  Every `dims:` entry must be finite and
    positive, and so must every constant `dims-exact:` entry."""
    labels = None
    dual_line = None
    dims_line = None
    exact_line = None
    frontier_line = None
    body = []
    in_body = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_body:
            body.append(line)
        elif line.startswith("labels:"):
            labels = line[len("labels:"):].split()
        elif line.startswith("dual:"):
            dual_line = line[len("dual:"):].split()
        elif line.startswith("dims-exact:"):
            exact_line = line[len("dims-exact:"):]
        elif line.startswith("dims:"):
            dims_line = line[len("dims:"):].split()
        elif line.startswith("truncated:"):
            frontier_line = line[len("truncated:"):].split()
        elif line == "N:":
            in_body = True
        else:
            raise InvalidRingFile(f"unrecognized header line: {raw!r}")
    if not labels:
        raise InvalidRingFile("missing labels: line")
    if dual_line is None or len(dual_line) != len(labels):
        raise InvalidRingFile("dual: line missing or wrong length")
    if len(set(labels)) != len(labels):
        raise InvalidRingFile("duplicate labels")
    lset = set(labels)
    dual = {}
    for lab, dl in zip(labels, dual_line):
        if dl not in lset:
            raise InvalidRingFile(f"dual of {lab} is unknown label {dl}")
        dual[lab] = dl
    dims = None
    if dims_line is not None:
        if len(dims_line) != len(labels):
            raise InvalidRingFile("dims: line wrong length")
        dims = {}
        for lab, x in zip(labels, dims_line):
            dims[lab] = float(x)
            if not 0 < dims[lab] < math.inf:
                raise InvalidRingFile(
                    f"dims: {lab} = {x} is not finite and positive")
    dims_exact = None
    if exact_line is not None:
        parts = [p.strip() for p in exact_line.split(";")]
        if len(parts) != len(labels):
            raise InvalidRingFile("dims-exact: line wrong length")
        dims_exact = {lab: parse_scalar(p) for lab, p in zip(labels, parts)}
        for lab, d in dims_exact.items():
            if d.is_constant() and d.as_fraction() <= 0:
                raise InvalidRingFile(
                    f"dims-exact: {lab} = {d} is not positive")
    N = {}
    for line in body:
        parts = line.split()
        if len(parts) != 4:
            raise InvalidRingFile(f"bad body line: {line!r}")
        a, b, c, v = parts
        if a not in lset or b not in lset or c not in lset:
            raise InvalidRingFile(f"unknown label in body line: {line!r}")
        try:
            mult = int(v)
        except ValueError:
            raise InvalidRingFile(f"bad multiplicity in line: {line!r}")
        if mult < 0:
            raise InvalidRingFile(f"negative multiplicity in line: {line!r}")
        row = N.setdefault((a, b), {})
        if c in row:
            raise InvalidRingFile(f"duplicate body line for ({a},{b},{c})")
        row[c] = mult
    truncated = frontier_line is not None
    frontier = set()
    if truncated:
        for lab in frontier_line:
            if lab not in lset:
                raise InvalidRingFile(f"unknown frontier label {lab}")
            frontier.add(lab)
    ring = FusionRing(labels, dual, N, dims, dims_exact,
                      truncated=truncated, frontier=frontier)
    if ring.dims is None and not truncated:
        ring.dims = perron_dims(ring)
    failures = verify_axioms(ring)
    if failures:
        raise InvalidRingFile(failures[0])
    return ring
