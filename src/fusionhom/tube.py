"""Finite-dimensional tube *-algebras as structure-constant data.

A tube algebra here is a finite basis graded by (source, target) corner
pairs, with sparse multiplication and star tables over exact scalars, the
trace functional tau, the counit supported on the distinguished corner,
and one projection p_i per corner.  The group case (quantum double of a
finite group) is built directly; anything else arrives through the text
file format and is verified on load.

The trivial-coefficient bar homology collapses both ends of the relative
bar complex along the counit; chains are tuples of composable basis
elements starting and ending at the distinguished corner.  The boundary
d_1 is zero, so H_0 is one-dimensional.  When the distinguished corner
holds an invariant projection p, counit(p) = 1 and p . x = counit(x) p
for every basis element x, the map h(x_1..x_n) = (p, x_1..x_n) is a
contracting homotopy: d h + h d = 1 in every degree n >= 1 (Weibel, An
Introduction to Homological Algebra, 9.2), so H_n = 0 for n >= 1.  The
homotopy needs d . d = 0, which follows from associativity and counit
multiplicativity; a file algebra must therefore pass verify_identities
first.  Without such a p, the ranks of the bar boundaries decide, and
they stay the oracle.  For a group, tau(p) = 1/|G| = beta_0.
"""

from __future__ import annotations

from .errors import SizeLimit, ParseError, InvariantViolation
from .exactarith import (RatFunc, RF_ONE, RF_ZERO, SparseMat, rank,
                         parse_scalar, span_solve)
from .groups import Group, NotAGroup

MAX_WITNESSES = 5  # failures kept per identity channel
CHAIN_CAP = 50000  # default bound on the size of one bar chain space


class TubeAlgebra:
    """Structure-constant *-algebra graded over corner pairs.

    corners: tuple of corner labels, distinguished corner first.
    basis: tuple of basis element names.
    src, tgt: name -> corner.
    mult: (a, b) -> {name: RatFunc}, only nonzero products stored.
    star: name -> {name: RatFunc}.
    trace_vec, counit_vec: name -> RatFunc (zero entries omitted).
    unit_of_corner: corner -> basis name of p_i.
    """

    def __init__(self, corners, basis, src, tgt, mult, star,
                 trace_vec, counit_vec, unit_of_corner, name=""):
        self.corners = tuple(corners)
        self.basis = tuple(basis)
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.mult = {k: dict(v) for k, v in mult.items() if v}
        self.star = {k: dict(v) for k, v in star.items()}
        self.trace_vec = {k: v for k, v in trace_vec.items() if v}
        self.counit_vec = {k: v for k, v in counit_vec.items() if v}
        self.unit_of_corner = dict(unit_of_corner)
        self.name = name
        self.index = {b: i for i, b in enumerate(self.basis)}

    @property
    def eps_corner(self):
        return self.corners[0]

    def dim(self) -> int:
        return len(self.basis)

    def mult_elems(self, a, b) -> dict:
        return self.mult.get((a, b), {})

    def mult_combs(self, x: dict, y: dict) -> dict:
        """Product of two linear combinations {name: RatFunc}."""
        out = {}
        for a, ca in x.items():
            for b, cb in y.items():
                for c, coeff in self.mult_elems(a, b).items():
                    val = out.get(c, RF_ZERO) + ca * cb * coeff
                    if val:
                        out[c] = val
                    elif c in out:
                        del out[c]
        return out

    def star_comb(self, x: dict) -> dict:
        out = {}
        for a, ca in x.items():
            for b, cb in self.star[a].items():
                val = out.get(b, RF_ZERO) + ca * cb
                if val:
                    out[b] = val
                elif b in out:
                    del out[b]
        return out

    def corner_basis(self, i, j):
        return [b for b in self.basis if self.src[b] == i and self.tgt[b] == j]

    def __repr__(self):
        return f"TubeAlgebra({self.name or self.dim()})"


def tube_from_group(group: Group) -> TubeAlgebra:
    """Tube algebra of the pointed category over a finite group.

    Basis (i, alpha) for all pairs; (i,alpha).(j,beta) is (i, alpha beta)
    when j = alpha^-1 i alpha and zero otherwise; star of (i,alpha) is
    (alpha^-1 i alpha, alpha^-1); p_i = (i, e); tau picks alpha = e and
    the counit picks i = e.
    """
    if not isinstance(group, Group):
        raise NotAGroup("expected a validated Group instance")
    e = group.identity
    conj = lambda i, a: group.mul[group.mul[group.inv[a], i], a]
    corners = tuple(group.elements)  # identity first
    basis = tuple((i, a) for i in group.elements for a in group.elements)
    src = {(i, a): i for (i, a) in basis}
    tgt = {(i, a): conj(i, a) for (i, a) in basis}
    mult = {}
    for (i, a) in basis:
        j = conj(i, a)
        for b in group.elements:
            mult[(i, a), (j, b)] = {(i, group.mul[a, b]): RF_ONE}
    star = {(i, a): {(conj(i, a), group.inv[a]): RF_ONE} for (i, a) in basis}
    trace_vec = {(i, a): RF_ONE for (i, a) in basis if a == e}
    counit_vec = {(i, a): RF_ONE for (i, a) in basis if i == e}
    unit_of_corner = {i: (i, e) for i in group.elements}
    return TubeAlgebra(corners, basis, src, tgt, mult, star, trace_vec,
                       counit_vec, unit_of_corner,
                       name=f"Tube(Vec({group.name}))" if group.name else "Tube")


# ---------------------------------------------------------------------------
# Identity verification
# ---------------------------------------------------------------------------

class IdentityReport:
    """Outcome of verify_identities: per check, the number of identities
    tested and the first MAX_WITNESSES failures.

    notes records checks that were skipped (for instance PSD minors on a
    block with non-constant scalars); they do not affect all_passed.
    """

    def __init__(self):
        self.failures = {}
        self.counts = {}
        self.notes = {}

    def record(self, check, count, failures, notes=()):
        self.counts[check] = count
        self.failures[check] = failures[:MAX_WITNESSES]
        if notes:
            self.notes[check] = list(notes)

    @property
    def all_passed(self) -> bool:
        return all(not f for f in self.failures.values())

    def first_failure(self):
        for check, fails in self.failures.items():
            if fails:
                return check, fails[0]
        return None


def verify_identities(A: TubeAlgebra) -> IdentityReport:
    """Exhaustive exact verification of the tube-algebra identities.

    Covers grading, projections, associativity, star involutivity and
    anti-multiplicativity, trace symmetry, Gram positive semidefiniteness
    per corner block (symmetric elimination), the one-term
    orthonormal-basis sum identity a . a* = p_src(a) (checked when the
    Gram blocks are identities), and counit multiplicativity on the
    distinguished corner.  Every identity of every check is tested and
    counted, and the report keeps the first MAX_WITNESSES failures of
    each check.
    """
    rep = IdentityReport()
    basis, src, tgt, star = A.basis, A.src, A.tgt, A.star
    unit, trace, counit = A.unit_of_corner, A.trace_vec, A.counit_vec
    starting = {}  # corner -> basis elements with that source, in order
    for b in basis:
        starting.setdefault(src[b], []).append(b)

    fails = []
    for (a, b), comb in A.mult.items():
        if tgt[a] != src[b]:
            fails.append(f"nonzero product across grading: {a}*{b}")
        fails += [f"product {a}*{b} leaves its corner block at {c}"
                  for c in comb if src[c] != src[a] or tgt[c] != tgt[b]]
    rep.record("grading", len(A.mult), fails)

    fails = []
    for i in A.corners:
        p = unit[i]
        if src[p] != i or tgt[p] != i:
            fails.append(f"p_{i} not in corner ({i},{i})")
        if A.mult_elems(p, p) != {p: RF_ONE}:
            fails.append(f"p_{i} not idempotent")
        if star[p] != {p: RF_ONE}:
            fails.append(f"p_{i} not self-adjoint")
    for a in basis:
        if A.mult_elems(unit[src[a]], a) != {a: RF_ONE}:
            fails.append(f"left unit fails at {a}")
        if A.mult_elems(a, unit[tgt[a]]) != {a: RF_ONE}:
            fails.append(f"right unit fails at {a}")
    rep.record("projections", len(A.corners) + len(basis), fails)

    fails = []
    n = 0
    for a in basis:
        for b in starting.get(tgt[a], ()):
            ab = A.mult_elems(a, b)
            cs = starting.get(tgt[b], ())
            n += len(cs)
            fails += [f"associativity fails at ({a},{b},{c})" for c in cs
                      if A.mult_combs(ab, {c: RF_ONE})
                      != A.mult_combs({a: RF_ONE}, A.mult_elems(b, c))]
    rep.record("associativity", n, fails)

    fails = [f"star not involutive at {a}" for a in basis
             if A.star_comb(star[a]) != {a: RF_ONE}]
    fails += [f"star anti-multiplicativity fails at ({a},{b})"
              for a in basis for b in basis
              if A.star_comb(A.mult_elems(a, b))
              != A.mult_combs(star[b], star[a])]
    rep.record("star", len(basis) * (len(basis) + 1), fails)

    fails = [f"trace symmetry fails at ({a},{b})" for a in basis for b in basis
             if _evaluate(trace, A.mult_elems(a, b))
             != _evaluate(trace, A.mult_elems(b, a))]
    rep.record("trace-symmetry", len(basis) ** 2, fails)

    fails = []
    notes = []
    n = 0
    gram_all_identity = True
    for i in A.corners:
        for j in A.corners:
            block = A.corner_basis(i, j)
            gram = [[_evaluate(trace, A.mult_combs(star[a], {b: RF_ONE}))
                     for b in block] for a in block]
            fails += [f"Gram not symmetric on corner ({i},{j})"
                      for x, row in enumerate(gram)
                      for y, v in enumerate(row) if v != gram[y][x]]
            if any(not v.is_constant() for row in gram for v in row):
                # minors need numbers; generic scalars are accepted as-is
                gram_all_identity = False
                notes.append(
                    f"minors skipped on corner ({i},{j}): non-constant entries")
            else:
                frac = [[v.as_fraction() for v in row] for row in gram]
                gram_all_identity &= all(
                    v == (1 if x == y else 0)
                    for x, row in enumerate(frac) for y, v in enumerate(row))
                n += len(block)
                bad = _psd_failure(frac)
                if bad:
                    fails.append(f"Gram {bad} on corner ({i},{j})")
    rep.record("gram-psd", n, fails, notes)

    fails = []
    if gram_all_identity:
        # basis is orthonormal, so the onb sum identity has one term per
        # element and reads a . a* = p_src(a)
        fails = [f"onb sum identity fails at {a}" for a in basis
                 if A.mult_combs({a: RF_ONE}, star[a])
                 != {unit[src[a]]: RF_ONE}]
    rep.record("onb-sum", len(basis) if gram_all_identity else 0, fails)

    eps = A.eps_corner
    fails = [f"counit supported outside distinguished corner at {a}"
             for a in counit if src[a] != eps or tgt[a] != eps]
    if counit.get(unit[eps], RF_ZERO) != RF_ONE:
        fails.append("counit(p_eps) != 1")
    corner = A.corner_basis(eps, eps)
    fails += [f"counit not multiplicative at ({a},{b})"
              for a in corner for b in corner
              if _evaluate(counit, A.mult_elems(a, b))
              != counit.get(a, RF_ZERO) * counit.get(b, RF_ZERO)]
    rep.record("counit", len(counit) + 1 + len(corner) ** 2, fails)

    return rep


def _evaluate(functional: dict, x: dict) -> RatFunc:
    """Value of a functional {name: RatFunc} (the trace or the counit)
    at a linear combination x."""
    total = RF_ZERO
    for a, ca in x.items():
        t = functional.get(a)
        if t:
            total = total + ca * t
    return total


def _psd_failure(rows):
    """Why a symmetric matrix of Fractions is not positive semidefinite,
    or None when it is.

    Symmetric elimination: a positive pivot leaves a Schur complement
    that is semidefinite exactly when the matrix is; a zero pivot needs
    a zero row; a negative pivot refutes.  Leading minors alone do not
    decide semidefiniteness ([[0, 0], [0, -1]] has minors 0 and 0).
    """
    m = [list(r) for r in rows]
    for k, row in enumerate(m):
        piv = row[k]
        if piv < 0:
            return f"pivot {k + 1} negative"
        if piv == 0:
            if any(row[k + 1:]):
                return f"pivot {k + 1} zero on a nonzero row"
            continue
        for r in m[k + 1:]:
            f = r[k] / piv
            for c in range(k + 1, len(m)):
                r[c] -= f * row[c]
    return None


# ---------------------------------------------------------------------------
# Distinguished corner as a fusion ring
# ---------------------------------------------------------------------------

def fusion_corner(A: TubeAlgebra, ring) -> dict:
    """Match p_eps . A . p_eps against a declared fusion ring.

    The corner basis names are (eps, alpha) pairs, matched to the ring
    labels by the natural map (eps, alpha) -> alpha.  Returns a report
    dict: isomorphic, corner_dim and the first mismatch (None when
    isomorphic).
    """
    eps = A.eps_corner
    corner = A.corner_basis(eps, eps)
    bijection = {a: a[1] for a in corner}
    if sorted(map(str, bijection.values())) != sorted(map(str, ring.labels)):
        return {"isomorphic": False, "corner_dim": len(corner),
                "mismatch": "bijection is not onto the ring labels"}
    inverse = {v: k for k, v in bijection.items()}
    for a in corner:
        for b in corner:
            prod = A.mult_elems(a, b)
            for gamma in ring.labels:
                want = RatFunc.from_int(ring.mult(bijection[a], bijection[b], gamma))
                got = prod.get(inverse[gamma], RF_ZERO)
                if want != got:
                    return {
                        "isomorphic": False,
                        "corner_dim": len(corner),
                        "mismatch": (bijection[a], bijection[b], gamma,
                                     str(want), str(got)),
                    }
    return {"isomorphic": True, "corner_dim": len(corner), "mismatch": None}


# ---------------------------------------------------------------------------
# Bar homology
# ---------------------------------------------------------------------------

class HomologyReport:
    """Exact homology dimensions of the collapsed bar complex.

    method is "invariant-projection" or "bar-complex"; tau_p is the exact
    trace of the invariant projection, None on the bar path.  bases holds
    the bar chain bases that were listed, degrees 0..n_max+1, for a
    caller that builds further boundary matrices.
    """

    def __init__(self, dims, chain_dims, method, tau_p=None, bases=()):
        self.dims = tuple(dims)
        self.chain_dims = tuple(chain_dims)
        self.method = method
        self.tau_p = tau_p
        self.bases = tuple(bases)
        if any(d < 0 for d in self.dims):
            raise ValueError(f"negative homology dimension: {self.dims}")

    def __repr__(self):
        return (f"HomologyReport(dims={self.dims}, chains={self.chain_dims}, "
                f"method={self.method})")


def invariant_projection(A: TubeAlgebra):
    """The invariant projection of the distinguished corner, or None.

    p is a combination {name: RatFunc} of corner basis elements with
    counit(p) = 1 and p . x = counit(x) p for every basis element x.  One
    span_solve over the corner basis finds a candidate from the equations
    for the x that start at the distinguished corner; it is returned only
    after p . x = counit(x) p is checked exactly on every basis element.

    >>> from fusionhom.groups import cyclic
    >>> p = invariant_projection(tube_from_group(cyclic(2)))
    >>> sorted((b, str(c)) for b, c in p.items())
    [((0, 0), '1/2'), ((0, 1), '1/2')]
    """
    eps, counit = A.eps_corner, A.counit_vec
    corner = A.corner_basis(eps, eps)
    row_of = {}  # equation -> row
    entries = {}

    def add(equation, j, v):
        r = row_of.setdefault(equation, len(row_of))
        entries[r, j] = entries.get((r, j), RF_ZERO) + v

    for j, b in enumerate(corner):
        for x in A.basis:
            if A.src[x] == eps:
                for c, coeff in A.mult_elems(b, x).items():
                    add((x, c), j, coeff)
                if x in counit:
                    add((x, b), j, -counit[x])
    # counit(p) = 1 comes last: the sparse rows before it keep the
    # elimination free of fill-in
    for j, b in enumerate(corner):
        add("counit", j, counit.get(b, RF_ZERO))
    target = [RF_ZERO] * (len(row_of) - 1) + [RF_ONE]
    coeffs = span_solve(SparseMat(len(row_of), len(corner), entries),
                        [target])[0]
    if coeffs is None:
        return None
    p = {b: c for b, c in zip(corner, coeffs) if c}
    if _evaluate(counit, p) != RF_ONE:
        return None
    for x in A.basis:
        e = counit.get(x)
        if A.mult_combs(p, {x: RF_ONE}) != (
                {b: e * c for b, c in p.items()} if e else {}):
            return None
    return p


def bar_chain_basis(A: TubeAlgebra, n: int):
    """Tuples (b_1..b_n) composable left to right, both ends at eps."""
    eps = A.eps_corner
    if n == 0:
        return [()]
    chains = [[b] for b in A.basis if A.src[b] == eps]
    for _ in range(n - 1):
        chains = [ch + [b] for ch in chains for b in A.basis
                  if A.tgt[ch[-1]] == A.src[b]]
    return [tuple(ch) for ch in chains if A.tgt[ch[-1]] == eps]


def bar_boundary_matrix(A: TubeAlgebra, n: int, basis_n=None, basis_prev=None):
    """Matrix of the degree-n boundary D_n -> D_{n-1}.

    The alternating sum applies the counit to the first factor, multiplies
    each adjacent pair, and applies the counit to the last factor.
    """
    if n < 1:
        raise ValueError("boundary defined for n >= 1")
    if basis_n is None:
        basis_n = bar_chain_basis(A, n)
    if basis_prev is None:
        basis_prev = bar_chain_basis(A, n - 1)
    prev_index = {t: i for i, t in enumerate(basis_prev)}
    m = SparseMat(len(basis_prev), len(basis_n))

    def add(r, c, v):
        old = m.entries.get((r, c))
        m[r, c] = v if old is None else old + v

    for col, chain in enumerate(basis_n):
        eps_first = A.counit_vec.get(chain[0], RF_ZERO)
        if eps_first:
            add(prev_index[chain[1:]], col, eps_first)
        for k in range(1, n):
            sign = -1 if k % 2 else 1
            for prod, coeff in A.mult_elems(chain[k - 1], chain[k]).items():
                target = chain[:k - 1] + (prod,) + chain[k + 1:]
                val = coeff if sign > 0 else -coeff
                add(prev_index[target], col, val)
        eps_last = A.counit_vec.get(chain[-1], RF_ZERO)
        if eps_last:
            val = eps_last if n % 2 == 0 else -eps_last
            add(prev_index[chain[:-1]], col, val)
    return m


def trivial_homology(A: TubeAlgebra, n_max: int,
                     chain_cap=CHAIN_CAP) -> HomologyReport:
    """Homology of the counit-collapsed bar complex up to degree n_max.

    With an invariant projection the dims are (1, 0, .., 0) by the
    contracting homotopy of the module docstring; otherwise the ranks of
    the bar boundaries give them.  Either way A must satisfy d . d = 0
    (verify_identities).  Raises SizeLimit when any needed chain space
    (including degree n_max + 1 for the incoming boundary) exceeds
    chain_cap.
    """
    if n_max < 0 or n_max > 3:
        raise ValueError("n_max must be between 0 and 3")
    bases = []
    for n in range(n_max + 2):
        basis_n = bar_chain_basis(A, n)
        if len(basis_n) > chain_cap:
            raise SizeLimit(
                f"chain dimension {len(basis_n)} at degree {n} exceeds cap {chain_cap}")
        bases.append(basis_n)
    chain_dims = [len(b) for b in bases[:n_max + 1]]
    p = invariant_projection(A)
    if p is not None:
        return HomologyReport([1] + [0] * n_max, chain_dims,
                              "invariant-projection",
                              _evaluate(A.trace_vec, p), bases)
    ranks = [0]  # rank of boundary_0 is 0
    for n in range(1, n_max + 2):
        ranks.append(rank(bar_boundary_matrix(A, n, bases[n], bases[n - 1])))
    dims = []
    for n in range(n_max + 1):
        dims.append(len(bases[n]) - ranks[n] - ranks[n + 1])
    return HomologyReport(dims, chain_dims, "bar-complex", bases=bases)


# ---------------------------------------------------------------------------
# Text file format
# ---------------------------------------------------------------------------

def tube_from_text(text: str, verify=True) -> TubeAlgebra:
    """Parse the tube format; verify identities and raise the first
    violation as InvariantViolation."""
    section = None
    corners = None
    basis = []
    src = {}
    tgt = {}
    mult = {}
    star = {}
    trace_vec = {}
    counit_vec = {}
    unit_of_corner = {}
    saw_header = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not saw_header:
            if line != "tube-algebra":
                raise ParseError("missing tube-algebra header")
            saw_header = True
            continue
        if line.startswith("corners:"):
            corners = tuple(line[len("corners:"):].split())
            continue
        if line in ("basis:", "units:", "mult:", "star:", "trace:", "counit:"):
            section = line[:-1]
            continue
        parts = line.split()
        if section == "basis":
            if len(parts) != 3:
                raise ParseError(f"bad basis line: {raw!r}")
            name, s, t = parts
            if corners is None or s not in corners or t not in corners:
                raise ParseError(f"unknown corner in basis line: {raw!r}")
            if name in src:
                raise ParseError(f"duplicate basis element {name}")
            basis.append(name)
            src[name] = s
            tgt[name] = t
        elif section == "units":
            if len(parts) != 2:
                raise ParseError(f"bad units line: {raw!r}")
            c, name = parts
            unit_of_corner[c] = name
        elif section == "mult":
            if len(parts) < 4:
                raise ParseError(f"bad mult line: {raw!r}")
            a, b, c = parts[0], parts[1], parts[2]
            coeff = parse_scalar(" ".join(parts[3:]))
            _check_names(raw, src, a, b, c)
            entry = mult.setdefault((a, b), {})
            if c in entry:
                raise ParseError(f"duplicate mult line: {raw!r}")
            if coeff:
                entry[c] = coeff
        elif section == "star":
            if len(parts) < 3:
                raise ParseError(f"bad star line: {raw!r}")
            a, b = parts[0], parts[1]
            coeff = parse_scalar(" ".join(parts[2:]))
            _check_names(raw, src, a, b)
            entry = star.setdefault(a, {})
            if b in entry:
                raise ParseError(f"duplicate star line: {raw!r}")
            if coeff:
                entry[b] = coeff
        elif section in ("trace", "counit"):
            if len(parts) < 2:
                raise ParseError(f"bad {section} line: {raw!r}")
            a = parts[0]
            coeff = parse_scalar(" ".join(parts[1:]))
            _check_names(raw, src, a)
            target = trace_vec if section == "trace" else counit_vec
            if a in target:
                raise ParseError(f"duplicate {section} line: {raw!r}")
            if coeff:
                target[a] = coeff
        else:
            raise ParseError(f"line outside any section: {raw!r}")
    if corners is None:
        raise ParseError("missing corners line")
    for c in corners:
        if c not in unit_of_corner:
            raise ParseError(f"no unit declared for corner {c}")
        if unit_of_corner[c] not in src:
            raise ParseError(f"unknown unit element for corner {c}")
    for a in basis:
        if a not in star:
            raise ParseError(f"no star image declared for {a}")
    A = TubeAlgebra(corners, basis, src, tgt, mult, star, trace_vec,
                    counit_vec, unit_of_corner, name="from-file")
    if verify:
        report = verify_identities(A)
        if not report.all_passed:
            which, witness = report.first_failure()
            raise InvariantViolation(f"{which} fails at {witness}")
    return A


def _check_names(raw, src, *names):
    for n in names:
        if n not in src:
            raise ParseError(f"unknown basis element {n} in line: {raw!r}")
