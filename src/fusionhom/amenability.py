"""Folner-set search and Kesten-norm checks on weighted fusion graphs.

The graph of a fusion ring window has the labels as vertices, weights
mu(alpha) = d(alpha)^2 by default, and an edge between distinct alpha,
beta whenever some generator gamma has N(gamma, alpha, beta) > 0.  The
boundary of a vertex set is two-sided (inner and outer); a candidate set
touching the truncation frontier of a windowed infinite graph produces
TruncationInconclusive rather than a verdict.

The Kesten check encloses a generator's graph norm in exact rational
bounds and compares them with the generator's dimension; equality is
the amenability criterion, decided with no eigen-solver or tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, repeat

from .errors import Inconclusive
from .fusion import FusionRing, ladder_dims, ladder_rows, ladder_supports


class TruncationInconclusive(Inconclusive):
    """Candidate set reaches the window edge; verdict would be unsound."""


class WeightedFusionGraph:
    """Undirected weighted graph over a (possibly windowed) label set."""

    def __init__(self, vertices, weight, generators, adjacency,
                 truncated=False, frontier=(), name=""):
        self.vertices = tuple(vertices)
        self.weight = dict(weight)
        self.generators = tuple(generators)
        self.adjacency = {v: tuple(sorted(adjacency.get(v, ()), key=str))
                          for v in self.vertices}
        self.truncated = truncated
        self.frontier = frozenset(frontier)
        self.name = name
        self.index = {v: i for i, v in enumerate(self.vertices)}
        for v in self.vertices:
            if not 0 < self.weight.get(v, 0) < math.inf:
                raise ValueError(f"weight at {v} is not finite and positive")
        try:
            # then no sum over a vertex set overflows
            math.fsum(self.weight[v] for v in self.vertices)
        except OverflowError:
            raise ValueError("the total weight overflows") from None
        for v, nbrs in self.adjacency.items():
            for w in nbrs:
                if v not in self.adjacency[w]:
                    raise ValueError(f"adjacency not symmetric at ({v},{w})")

    @property
    def root(self):
        return self.vertices[0]


def from_fusion_ring(ring: FusionRing, generators=None) -> WeightedFusionGraph:
    """Graph of a fusion ring window, weighted by squared dimensions.

    generators defaults to every non-unit label; the set must be closed
    under the ring's dual.  The ring needs float dims.
    """
    if generators is None:
        generators = [l for l in ring.labels if l != ring.unit]
    gen_set = set(generators)
    for g in gen_set:
        if ring.dual[g] not in gen_set:
            raise ValueError(f"generator set not symmetric: missing dual of {g}")
    if ring.dims is None:
        raise ValueError("ring carries no float dims")
    try:
        weights = {l: ring.dims[l] ** 2 for l in ring.labels}
    except OverflowError:
        raise ValueError("a squared dimension overflows") from None
    adjacency = {l: set() for l in ring.labels}
    for g in gen_set:
        for a in ring.labels:
            for b, v in ring.row(g, a).items():
                if v > 0 and a != b:
                    adjacency[a].add(b)
                    adjacency[b].add(a)
    return WeightedFusionGraph(ring.labels, weights, sorted(gen_set, key=str),
                               adjacency, truncated=ring.truncated,
                               frontier=ring.frontier, name=ring.name)


def graph_from_text(text: str) -> WeightedFusionGraph:
    """Parse the graph file format: vertex/weight lines, generator list,
    explicit edges, optional truncation frontier.  The generator and
    truncated lines come at most once, and no generator twice."""
    vertices = []
    weight = {}
    edges = []
    listed = {}  # "generators" and "truncated": their names, one line each
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertex:"):
            parts = line[len("vertex:"):].split()
            if len(parts) != 2:
                raise ValueError(f"bad vertex line: {raw!r}")
            v, w = parts
            if v in weight:
                raise ValueError(f"duplicate vertex {v}")
            vertices.append(v)
            weight[v] = float(w)
        elif line.startswith(("generators:", "truncated:")):
            key, names = line.split(":", 1)
            if key in listed:
                raise ValueError(f"second {key} line: {raw!r}")
            listed[key] = names.split()
        elif line.startswith("edge:"):
            parts = line[len("edge:"):].split()
            if len(parts) != 2:
                raise ValueError(f"bad edge line: {raw!r}")
            edges.append(tuple(parts))
        else:
            raise ValueError(f"unrecognized graph line: {raw!r}")
    if not vertices:
        raise ValueError("graph file has no vertices")
    adjacency = {v: set() for v in vertices}
    for a, b in edges:
        if a not in weight or b not in weight:
            raise ValueError(f"edge touches unknown vertex: ({a},{b})")
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    generators = listed.get("generators", [])
    frontier = listed.get("truncated", [])
    for f in frontier:
        if f not in weight:
            raise ValueError(f"unknown frontier vertex {f}")
    for gen in generators:
        if gen not in weight:
            raise ValueError(f"unknown generator {gen}")
        if generators.count(gen) > 1:
            raise ValueError(f"generator {gen} listed twice")
    return WeightedFusionGraph(vertices, weight, generators, adjacency,
                               truncated="truncated" in listed,
                               frontier=frontier, name="from-file")


# ---------------------------------------------------------------------------
# Folner machinery
# ---------------------------------------------------------------------------

def boundary_set(g: WeightedFusionGraph, F) -> set:
    """Two-sided boundary: members with an outside neighbour plus
    outsiders with an inside neighbour."""
    F = set(F)
    inner = {v for v in F if any(w not in F for w in g.adjacency[v])}
    outer = {w for v in F for w in g.adjacency[v] if w not in F}
    return inner | outer


class FolnerReport:
    """Search outcome: the first candidate with the smallest ratio, the
    number of candidates measured, and found, decided exactly by the
    search (the candidate's mu(boundary F) < epsilon mu(F))."""

    def __init__(self, vertex_set, ratio, epsilon, found, candidates):
        self.found = found
        self.set = tuple(sorted(vertex_set, key=str))
        self.ratio = ratio
        self.epsilon = epsilon
        self.candidates = candidates

    def __repr__(self):
        tag = "found" if self.found else "not found"
        return (f"FolnerReport({tag}, |F|={len(self.set)}, "
                f"ratio={self.ratio:.6g}, eps={self.epsilon})")


def folner_search(g: WeightedFusionGraph, epsilon: float,
                  max_size: int) -> FolnerReport:
    """Search the metric balls around the root for F with
    mu(boundary F) < epsilon mu(F).

    F starts as {root} and takes in every outside neighbour at each step;
    each ball of at most max_size vertices is measured, up to the first
    witness.  Weights are positive, so a ball with no outside neighbour
    has ratio 0 and is a witness.  Each ball is measured from the last
    one's state, touching only the new shell S and its neighbours: the
    outer boundary becomes nbrs(S) - F, and the inner one is refiltered
    over inner | S.  Both measures are exact integers over the weights'
    common denominator, so found (mu_bd * e_den < e_num * mu_F, with
    epsilon = e_num / e_den) and the best candidate (the first with the
    smallest ratio) are decided by exact cross-multiplication, whatever
    the order of a set.  The reported ratio is mu_bd / mu_F rounded once,
    or inf where that overflows a float.  A ball touching the frontier
    raises TruncationInconclusive; every earlier ball has passed that
    check, so only S and its outside neighbours are looked up.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if max_size < 1:
        raise ValueError("max_size must be at least 1")

    adj = g.adjacency
    exact = {v: g.weight[v].as_integer_ratio() for v in g.vertices}
    scale = math.lcm(*(den for _, den in exact.values()))
    units = {v: num * (scale // den) for v, (num, den) in exact.items()}
    e_num, e_den = epsilon.as_integer_ratio()
    F, inner, outer, total, candidates = set(), set(), {g.root}, 0, 0
    added = []  # F's vertices in the order they joined
    while True:
        S = outer
        F.update(S)
        outer = {w for v in S for w in adj[v] if w not in F}
        if g.truncated:
            touched = g.frontier & (S | outer)
            if touched:
                raise TruncationInconclusive(
                    "candidate touches window frontier at "
                    f"{sorted(map(str, touched))}")
        inner = {v for v in chain(inner, S)
                 if any(w not in F for w in adj[v])}
        added.extend(S)
        total += sum(map(units.__getitem__, S))
        bd = sum(map(units.__getitem__, chain(inner, outer)))
        candidates += 1
        if candidates == 1 or bd * best_total < best_bd * total:
            best_bd, best_total, best_size = bd, total, len(F)
        found = bd * e_den < e_num * total
        if found or len(F) + len(outer) > max_size:
            break
    try:
        ratio = best_bd / best_total
    except OverflowError:
        ratio = math.inf
    return FolnerReport(added[:best_size], ratio, epsilon, found, candidates)


# ---------------------------------------------------------------------------
# Kesten criterion
# ---------------------------------------------------------------------------

def tlj_kesten_window(width: int, delta: float) -> FusionRing:
    """The f1 slice of the generic Temperley-Lieb ladder window: only the
    rows f1 . f_k of `ladder_rows(labels, 1)`, one per label, since the
    full table grows as width^3 and the Kesten lower bound wants wide
    windows.  They are the full ladder's rows, so the generator matrix,
    its norm bounds and the f1 graph (from_fusion_ring with generators
    ["f1"]) are the full ladder's too.  The result is not a fusion table
    (it has no unit rows): keep it away from verify_axioms.
    """
    if width < 2:
        raise ValueError("window width must be >= 2")
    labels = tuple(f"f{i}" for i in range(width))
    N = {(labels[1], b): row for b, row in zip(labels, ladder_rows(labels, 1))}
    return FusionRing._trusted(labels, {lab: lab for lab in labels}, N,
                               dict(zip(labels, ladder_dims(width, delta))),
                               truncated=True, frontier=labels[-2:],
                               name=f"TLJ_kesten_window({width})")


def kesten_check(ring_window: FusionRing, generator) -> dict:
    """Kesten's criterion from exact bounds lower <= ||A_g|| <= upper.

    A_g is the matrix of left multiplication by g, (A_g)_ab = N(g, a, b).
    On a finite ring the bounds come from its rows and the exact values d
    of the stored float dimensions, with r_a = (A_g d)_a / d_a and
    c_b = (A_g^T d)_b / d_b: lower = min r_a <= rho(A_g) <= ||A_g||
    (Collatz-Wielandt), upper = max(max r, max c) >= sqrt(max r * max c)
    >= ||A_g|| (Schur test).  When d satisfies the dimension equation,
    both ends are d(g), and a finite ring is amenable either way.

    A truncated ring must be a ladder window f0 .. f_(w-1) read through
    f1.  Its f1 row at each label, in label order, must hold each label
    of that row's `ladder_supports` once and nothing else; the first row
    that does not raises "f1 row at <label> breaks the ladder rule".  The
    supports are read from the rule and the stored rows with .get, with
    no row rebuilt.  Each row of the infinite ladder sums to at most 2,
    so upper = 2 (Schur test, constant vector), taken from the rule, not
    the clipped window rows.  The window matrix is a compression of the
    infinite one, so the Rayleigh quotient of v_i = (i+1)(w-i) on it is
    a lower bound.  The window is non-amenable when upper < d(g), and
    otherwise has no verdict: Kesten alone never proves an infinite
    graph amenable.  d(g) is the exact value of the stored float
    dimension.
    """
    if generator not in ring_window.index:
        raise ValueError(f"unknown generator {generator}")
    if ring_window.dims is None:
        raise ValueError("ring carries no float dims")
    labels, w = ring_window.labels, len(ring_window.labels)
    if ring_window.truncated:
        if generator != "f1" or labels != tuple(f"f{i}" for i in range(w)):
            raise ValueError("a truncated ring must be a TLJ ladder window "
                             "read through f1")
        stored = map(ring_window.N.get, zip(repeat("f1"), labels), repeat({}))
        for a, row, support in zip(labels, stored,
                                   ladder_supports(labels, 1)):
            # an f1 support has one or two labels: its first and its last
            if (len(row) != len(support) or row.get(support[0]) != 1
                    or row.get(support[-1]) != 1):
                raise ValueError(f"f1 row at {a} breaks the ladder rule")
        v = [(i + 1) * (w - i) for i in range(w)]
        lower = Fraction(2 * sum(x * y for x, y in zip(v, v[1:])),
                         sum(x * x for x in v))
        upper = Fraction(2)
        dim = Fraction(ring_window.dims[generator])
        amenable = False if upper < dim else None
    else:
        d = {a: Fraction(ring_window.dims[a]) for a in labels}
        if min(d.values()) <= 0:
            raise ValueError("a finite ring needs positive dims")
        col = dict.fromkeys(labels, 0)  # (A_g^T d)_b
        rows = []                       # r_a
        for a in labels:
            out = 0
            for b, m in ring_window.row(generator, a).items():
                out += m * d[b]
                col[b] += m * d[a]
            rows.append(out / d[a])
        lower = min(rows)
        upper = max(max(rows), max(col[b] / d[b] for b in labels))
        amenable = True
    return {"norm_lower": lower, "norm_upper": upper,
            "dimension": ring_window.dims[generator], "window": w,
            "amenable": amenable}
