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

from .fusion import FusionRing, ladder_dims


class TruncationInconclusive(RuntimeError):
    """Candidate set reaches the window edge; verdict would be unsound."""


class WeightedFusionGraph:
    """Undirected weighted graph over a (possibly windowed) label set."""

    def __init__(self, vertices, weight, generators, adjacency,
                 truncated=False, frontier=(), name=""):
        self.vertices = tuple(vertices)
        self.weight = dict(weight)
        self.generators = tuple(generators)
        self.adjacency = {v: tuple(sorted(adjacency.get(v, ()), key=self._key))
                          for v in self.vertices}
        self.truncated = truncated
        self.frontier = frozenset(frontier)
        self.name = name
        self.index = {v: i for i, v in enumerate(self.vertices)}
        for v in self.vertices:
            if not 0 < self.weight.get(v, 0) < math.inf:
                raise ValueError(f"weight at {v} is not finite and positive")
        for v, nbrs in self.adjacency.items():
            for w in nbrs:
                if v not in self.adjacency[w]:
                    raise ValueError(f"adjacency not symmetric at ({v},{w})")

    def _key(self, v):
        return str(v)

    @property
    def root(self):
        return self.vertices[0]

    def ball(self, radius: int, center=None):
        """Vertices within BFS distance <= radius of the center."""
        if center is None:
            center = self.root
        seen = {center}
        frontier = [center]
        for _ in range(radius):
            nxt = []
            for v in frontier:
                for w in self.adjacency[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            if not nxt:
                break
            frontier = nxt
        return seen

    def mu(self, F) -> float:
        return sum(self.weight[v] for v in F)


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
    explicit edges, optional truncation frontier."""
    vertices = []
    weight = {}
    generators = []
    edges = []
    frontier = []
    truncated = False
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
        elif line.startswith("generators:"):
            generators = line[len("generators:"):].split()
        elif line.startswith("edge:"):
            parts = line[len("edge:"):].split()
            if len(parts) != 2:
                raise ValueError(f"bad edge line: {raw!r}")
            edges.append(tuple(parts))
        elif line.startswith("truncated:"):
            truncated = True
            frontier = line[len("truncated:"):].split()
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
    for f in frontier:
        if f not in weight:
            raise ValueError(f"unknown frontier vertex {f}")
    return WeightedFusionGraph(vertices, weight, generators, adjacency,
                               truncated=truncated, frontier=frontier,
                               name="from-file")


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


def boundary_measure(g: WeightedFusionGraph, F):
    """(mu(boundary F), mu(F)), float sums.

    Raises TruncationInconclusive when F or its boundary touches the
    frontier of a windowed graph.
    """
    F = set(F)
    if not F:
        raise ValueError("F must be nonempty")
    for v in F:
        if v not in g.index:
            raise ValueError(f"vertex {v} not in the graph")
    bd = boundary_set(g, F)
    if g.truncated:
        touched = (F | bd) & g.frontier
        if touched:
            raise TruncationInconclusive(
                f"candidate touches window frontier at {sorted(map(str, touched))}")
    return g.mu(bd), g.mu(F)


class FolnerReport:
    """Search outcome; found implies ratio < epsilon."""

    def __init__(self, found, vertex_set, ratio, epsilon, strategy,
                 best_ratio, candidates):
        self.found = found
        self.set = tuple(sorted(vertex_set, key=str))
        self.ratio = ratio
        self.epsilon = epsilon
        self.strategy = strategy
        self.best_ratio = best_ratio
        self.candidates = candidates
        if found:
            assert ratio < epsilon

    def __repr__(self):
        tag = "found" if self.found else "not found"
        return (f"FolnerReport({tag}, |F|={len(self.set)}, "
                f"ratio={self.ratio:.6g}, eps={self.epsilon})")


def folner_search(g: WeightedFusionGraph, epsilon: float, max_size: int,
                  strategy: str = "balls") -> FolnerReport:
    """Search for F with mu(boundary F) < epsilon mu(F).

    balls: metric balls around the root, growing radius.
    greedy: grow from the root by the neighbour minimizing the boundary
    measure of the extended set (ties broken by vertex order).
    Deterministic; returns the first witness, or found=False with the
    best ratio seen.  Candidates touching the frontier raise
    TruncationInconclusive.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    best = (math.inf, None, None)
    candidates = 0

    def consider(F):
        nonlocal best, candidates
        mu_bd, mu_f = boundary_measure(g, F)
        candidates += 1
        ratio = mu_bd / mu_f
        if ratio < best[0]:
            best = (ratio, set(F), ratio)
        return ratio

    if strategy == "balls":
        prev = None
        radius = 0
        while True:
            F = g.ball(radius)
            if len(F) > max_size:
                break
            ratio = consider(F)
            if ratio < epsilon:
                return FolnerReport(True, F, ratio, epsilon, strategy,
                                    ratio, candidates)
            if F == prev:
                break  # ball saturated (finite component)
            prev = F
            radius += 1
    elif strategy == "greedy":
        F = {g.root}
        ratio = consider(F)
        if ratio < epsilon:
            return FolnerReport(True, F, ratio, epsilon, strategy, ratio,
                                candidates)
        while len(F) < max_size:
            frontier_nbrs = sorted(
                {w for v in F for w in g.adjacency[v] if w not in F},
                key=lambda v: g.index[v])
            if not frontier_nbrs:
                break
            scored = []
            for w in frontier_nbrs:
                mu_bd, mu_f = boundary_measure(g, F | {w})
                scored.append((mu_bd / mu_f, g.index[w], w))
            scored.sort()
            ratio, _, chosen = scored[0]
            F.add(chosen)
            candidates += 1
            if ratio < best[0]:
                best = (ratio, set(F), ratio)
            if ratio < epsilon:
                return FolnerReport(True, F, ratio, epsilon, strategy,
                                    ratio, candidates)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    best_ratio = best[0] if best[1] is not None else math.inf
    best_set = best[1] if best[1] is not None else {g.root}
    return FolnerReport(False, best_set, best_ratio, epsilon, strategy,
                        best_ratio, candidates)


# ---------------------------------------------------------------------------
# Kesten criterion
# ---------------------------------------------------------------------------

def tlj_kesten_window(width: int, delta: float) -> FusionRing:
    """Band-limited window of the generic Temperley-Lieb ladder.

    Stores only the unit rows and the f1 multiplication rows of the
    fusion table (f1 . f_k = f_{k-1} + f_{k+1}); the full table grows
    as width^3 and is far too large at the wide windows the Kesten lower
    bound uses.  The f1 rows are exact for every window label, so the
    generator matrix, its norm bounds and the f1 graph (from_fusion_ring
    with generators ["f1"]) are those of the full ladder.  The result is
    not a complete fusion table: keep it away from verify_axioms.
    """
    if width < 2:
        raise ValueError("window width must be >= 2")
    labels = tuple(f"f{i}" for i in range(width))
    N = {}
    for i in range(width):
        N[labels[0], labels[i]] = N[labels[i], labels[0]] = {labels[i]: 1}
        row = {labels[k]: 1 for k in (i - 1, i + 1) if 0 <= k < width}
        N[labels[1], labels[i]] = N[labels[i], labels[1]] = row
    dual = {lab: lab for lab in labels}
    dims = dict(zip(labels, ladder_dims(width, delta)))
    return FusionRing(labels, dual, N, dims, None,
                      truncated=True, frontier=set(labels[-2:]),
                      name=f"TLJ_kesten_window({width})")


def kesten_check(ring_window: FusionRing, generator) -> dict:
    """Kesten's criterion from exact bounds lower <= ||A_g|| <= upper.

    On a finite ring d is a positive eigenvector of A_g and of its
    transpose A_{g*} (dimension equation, Frobenius reciprocity), so
    ||A_g|| = d(g) and the ring is amenable.  A truncated ring must be a
    ladder window read through f1: f1 . f_k = f_{k-1} + f_{k+1}.  Each
    row of the infinite ladder sums to at most 2, so upper = 2 (Schur
    test, constant vector), taken from the rule, not the clipped window
    rows.  The window matrix is a compression of the infinite one, so
    the Rayleigh quotient of v_i = (i+1)(w-i) on it is a lower bound.
    The window is non-amenable when upper < d(g), and otherwise has no
    verdict: Kesten alone never proves an infinite graph amenable.
    d(g) is the exact value of the stored float dimension.
    """
    if generator not in ring_window.index:
        raise ValueError(f"unknown generator {generator}")
    if ring_window.dims is None:
        raise ValueError("ring carries no float dims")
    labels, w = ring_window.labels, len(ring_window.labels)
    dim = Fraction(ring_window.dims[generator])
    lower = upper = dim
    amenable = True
    if ring_window.truncated:
        if generator != "f1" or labels != tuple(f"f{i}" for i in range(w)):
            raise ValueError("a truncated ring must be a TLJ ladder window "
                             "read through f1")
        for i, a in enumerate(labels):
            if ring_window.row("f1", a) != {
                    labels[k]: 1 for k in (i - 1, i + 1) if 0 <= k < w}:
                raise ValueError(f"f1 row at {a} breaks the ladder rule")
        v = [(i + 1) * (w - i) for i in range(w)]
        lower = Fraction(2 * sum(x * y for x, y in zip(v, v[1:])),
                         sum(x * x for x in v))
        upper = Fraction(2)
        amenable = False if upper < dim else None
    return {"norm_lower": lower, "norm_upper": upper,
            "dimension": ring_window.dims[generator], "window": w,
            "amenable": amenable}
