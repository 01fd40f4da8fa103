"""The thirteen acceptance checks, shared by verify-all and the tests.

Each criterion is a function returning a detail string; failures raise
CriterionFailure with a description of the first mismatch.  An
errors.Inconclusive (SizeLimit, TruncationInconclusive) marks a run
INCONCLUSIVE instead of failed, so capped runs degrade honestly.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from . import amenability, annular, betti, fusion, tube
from .errors import Inconclusive
from .exactarith import (RF_ONE, RF_ZERO, IntPoly, RatFunc, SparseMat,
                         fraction_free_rank, kernel_basis, mat_vec, rank,
                         rank_mod_p)
from .groups import cyclic, dihedral, symmetric


class CriterionFailure(AssertionError):
    """An acceptance criterion did not hold."""


def _check(cond, message):
    if not cond:
        raise CriterionFailure(message)


def crit_tlj_global_index(cfg):
    """Even TLJ global index matches the closed form; beta0 agrees with
    the Betti profile value, n = 2..40, tolerance 1e-9."""
    worst = 0.0
    for n in range(2, 41):
        ring = fusion.tlj_even(n)
        gi = ring.global_index()
        closed = fusion.tlj_global_index(n)
        err = abs(gi - closed)
        worst = max(worst, err)
        _check(err <= 1e-9, f"n={n}: index {gi!r} vs closed form {closed!r}")
        b = fusion.beta0(ring).beta0
        prof = betti.tlj_profile(n).value(0).to_float()
        err = abs(b - prof)
        worst = max(worst, err)
        _check(err <= 1e-9, f"n={n}: beta0 {b!r} vs profile {prof!r}")
    return f"n=2..40, worst deviation {worst:.2e}"


def crit_pointed_beta0(cfg):
    """beta0 of a group ring is exactly 1/|G|."""
    seen = []
    for grp in (cyclic(2), cyclic(3), symmetric(3), dihedral(4)):
        ring = fusion.from_group(grp)
        rep = fusion.beta0(ring)
        want = RatFunc.from_fraction(Fraction(1, len(grp.elements)))
        _check(rep.beta0_exact == want,
               f"{grp.name}: beta0 {rep.beta0_exact} != 1/{len(grp.elements)}")
        seen.append(f"{grp.name}=1/{len(grp.elements)}")
    return ", ".join(seen)


_TUBE_GROUPS = (cyclic(2), cyclic(3), symmetric(3))


def crit_tube_identities(cfg):
    """All tube-algebra identity channels pass exactly for the three
    group cases; the distinguished corner matches the group ring."""
    details = []
    tube_file = cfg.get("tube_file")
    if tube_file is not None:
        algebra = tube.tube_from_text(tube_file, verify=True)
        details.append(f"file algebra {algebra.name} verified")
    for grp in _TUBE_GROUPS:
        algebra = tube.tube_from_group(grp)
        rep = tube.verify_identities(algebra)
        _check(rep.all_passed,
               f"{grp.name}: first failure {rep.first_failure()}")
        total = sum(rep.counts.values())
        corner = tube.fusion_corner(algebra, fusion.from_group(grp))
        _check(corner["isomorphic"],
               f"{grp.name}: corner mismatch {corner['mismatch']}")
        details.append(f"{grp.name}: {total} checks, corner dim "
                       f"{corner['corner_dim']}")
    return "; ".join(details)


def crit_tube_homology(cfg):
    """Trivial-module homology dims are (1, 0, 0) for group tubes, the
    trace of the invariant projection is exactly beta0, and consecutive
    bar boundaries compose to zero exactly."""
    cap = cfg.get("chain_cap", tube.CHAIN_CAP)
    details = []
    for grp in _TUBE_GROUPS:
        algebra = tube.tube_from_group(grp)
        rep = tube.trivial_homology(algebra, 2, chain_cap=cap)
        _check(rep.dims == (1, 0, 0), f"{grp.name}: dims {rep.dims}")
        beta0 = fusion.beta0(fusion.from_group(grp)).beta0_exact
        _check(rep.tau_p == beta0,
               f"{grp.name}: tau(p) {rep.tau_p} != beta0 {beta0}")
        bases = rep.bases  # degrees 0..3, as trivial_homology listed them
        b1, b2, b3 = (tube.bar_boundary_matrix(algebra, n, bases[n],
                                               bases[n - 1])
                      for n in (1, 2, 3))
        _check(b1.mat_mul(b2).is_zero(), f"{grp.name}: d1.d2 != 0")
        _check(b2.mat_mul(b3).is_zero(), f"{grp.name}: d2.d3 != 0")
        details.append(f"{grp.name}: chains {rep.chain_dims}")
    return "dims (1,0,0); " + "; ".join(details)


def crit_annular_golden(cfg):
    """Boundary formulas for the low-degree annular generators,
    unshaded everywhere and shaded at the displayed instantiations."""
    dp = RatFunc.delta_power
    for k in range(7):
        _check(not annular.boundary(annular.sigma(k)).terms,
               f"d1 sigma_{k} != 0")
    checked = 7
    for a in range(6):
        for b in range(6):
            for c in range(6):
                got = annular.boundary(annular.sigma2(a, b, c))
                want = (annular.single(annular.sigma(b + c), dp(a))
                        - annular.single(annular.sigma(a + c), dp(b))
                        + annular.single(annular.sigma(a + b), dp(c)))
                _check(got == want, f"d2 sigma2({a},{b},{c})")
                checked += 1
    for a in range(4):
        for b in range(4):
            for c in range(4):
                got = annular.boundary(annular.diagram3(a=a, b=b, c=c))
                want = (annular.single(annular.sigma2(b, c, 0), dp(a))
                        - annular.single(annular.sigma2(a, c, 0), dp(b))
                        + annular.single(annular.sigma2(a, b, 0), dp(c))
                        - annular.single(annular.sigma2(a, b, c)))
                _check(got == want, f"d3 display1 ({a},{b},{c})")
                got = annular.boundary(annular.diagram3(b=b, c=c, ab=a))
                want = (annular.single(annular.sigma2(b + a, c, 0))
                        - annular.single(annular.sigma2(a, c, 0), dp(b))
                        + annular.single(annular.sigma2(0, b, a), dp(c))
                        - annular.single(annular.sigma2(0, b, a + c)))
                _check(got == want, f"d3 display2 (l={a},{b},{c})")
                checked += 2
    for s in (0, 1):
        for b in range(4):
            for c in range(4):
                for (x, y) in ((0, b), (b, 0)):
                    flip = s ^ (c % 2)
                    got = annular.shaded_boundary(annular.sigma2(x, y, c), s)
                    want = [(annular.sigma(y + c), s, dp(x)),
                            (annular.sigma(x + c), s, -dp(y)),
                            (annular.sigma(x + y), flip, dp(c))]
                    _check(got == want, f"shaded d2 ({x},{y},{c};s={s})")
                    checked += 1
        for b in range(3):
            for c in range(3):
                flip = s ^ (c % 2)
                got = annular.shaded_boundary(annular.diagram3(b=b, c=c), s)
                want = [(annular.sigma2(b, c, 0), s, dp(0)),
                        (annular.sigma2(0, c, 0), s, -dp(b)),
                        (annular.sigma2(0, b, 0), s, dp(c)),
                        (annular.sigma2(0, b, c), flip, -dp(0))]
                _check(got == want, f"shaded d3 display1 (0,{b},{c};s={s})")
                for ell in range(1, 3):
                    got = annular.shaded_boundary(
                        annular.diagram3(b=b, c=c, ab=ell), s)
                    want = [(annular.sigma2(b + ell, c, 0), s, dp(0)),
                            (annular.sigma2(ell, c, 0), s, -dp(b)),
                            (annular.sigma2(0, b, ell), s, dp(c)),
                            (annular.sigma2(0, b, ell + c), flip, -dp(0))]
                    _check(got == want,
                           f"shaded d3 display2 (l={ell},{b},{c};s={s})")
                    checked += 1
                checked += 1
    return f"{checked} golden boundary identities hold exactly"


def crit_d2_d3_zero(cfg):
    """d2(d3(d)) = 0 in every power of delta for each d in C3(<=6)."""
    memo = {}
    for code in (c for t in range(7) for c in annular._codes(3, t)):
        _check(annular._dd_vanishes(annular._code_counts(code, 3), 3, memo),
               "d2.d3 != 0 at T=6")
    n1, n2, n3 = (annular._count_diagrams(k, 6) for k in (1, 2, 3))
    return f"zero on a {n2}x{n3} times {n1}x{n2} pair"


def crit_h1_vanishing(cfg):
    """Every sigma_m with m <= 10 is an exact degree-2 boundary."""
    rep = annular.h1_vanishing_check(10)
    _check(rep["contained"], f"per_m: { {m: v['contained'] for m, v in rep['per_m'].items()} }")
    for m, entry in rep["per_m"].items():
        _check(entry["certificate"], f"m={m}: empty certificate")
    return "K=10 contained with certificates"


def crit_h2_vanishing(cfg):
    """The full degree-2 cycle space at N=8 lies in the degree-3
    boundary span."""
    cap = cfg.get("diagram_cap", annular.DIAGRAM_CAP)
    rep = annular.h2_vanishing_check(8, margin=2, diagram_cap=cap)
    return (f"N=8 margin=2: kernel dim {rep['kernel_dim']} contained, "
            f"{rep['columns_used']}/{rep['columns_available']} columns, "
            f"{rep['method']}")


def crit_h0(cfg):
    """Degree-0 homology of the annular complex is one-dimensional."""
    h0 = annular.h0_report(5)
    _check(h0 == 1, f"h0 = {h0}")
    return "h0 = 1 on window 5"


def crit_hochschild_contrast(cfg):
    """The fusion-side 1-cocycle q -> q'(delta) kills every truncated
    boundary exactly yet takes value 1 on the generator."""
    rep = fusion.hochschild_h1_witness(6)
    _check(rep["functional_vanishes_on_boundaries"],
           "a boundary had nonzero image")
    _check(rep["witness_cycle_value"] == RF_ONE,
           f"witness value {rep['witness_cycle_value']}")
    return (f"{rep['boundaries_checked']} boundaries vanish, witness = 1 "
            "(fusion-side H1 nonzero while the annular H1 check is empty)")


def crit_betti_combinators(cfg):
    """Fuss-Catalan equals the free-product formula; the two marquee
    values are exact; Kunneth unit and commutativity hold exactly."""
    INF = betti.INF
    values = list(range(3, 21)) + [INF]
    for n in values:
        for m in values:
            fc = betti.fuss_catalan(n, m)
            fp = betti.free_product(betti.tlj_profile(n),
                                    betti.tlj_profile(m))
            _check(fc == fp, f"fc({n},{m}) != free product")
    _check(betti.fuss_catalan(3, 3).value(1).exact_str() == "0",
           "fc(3,3) beta1 nonzero")
    v55 = betti.fuss_catalan(5, 5).value(1)
    _check(v55 == Fraction(2, 3), f"fc(5,5) beta1 = {v55.exact_str()}")
    point = betti.point_profile()
    probes = [betti.tlj_profile(7), betti.fuss_catalan(4, 6),
              betti.free_product(betti.tlj_profile(3), betti.tlj_profile(9))]
    for p in probes:
        _check(betti.tensor_product(point, p) == p, "Kunneth unit failed")
        for q in probes:
            _check(betti.tensor_product(p, q) == betti.tensor_product(q, p),
                   "Kunneth commutativity failed")
    return (f"{len(values)}^2 free-product identities, fc(3,3)=0, "
            "fc(5,5)=2/3, Kunneth ok")


def crit_amenability(cfg):
    """Kesten and Folner verdicts on the ladder windows and on finite
    graphs.  The Kesten bounds are exact rationals, and the Folner
    witness is re-verified over Fraction from the stored weights."""
    k2 = amenability.kesten_check(amenability.tlj_kesten_window(4096, 2.0),
                                  "f1")
    _check(k2["amenable"] is None
           and k2["norm_lower"] <= 2 <= k2["norm_upper"],
           f"delta=2 kesten {k2}")
    k3 = amenability.kesten_check(amenability.tlj_kesten_window(512, 3.0),
                                  "f1")
    _check(k3["amenable"] is False, f"delta=3 kesten {k3}")
    g2 = amenability.from_fusion_ring(amenability.tlj_kesten_window(160, 2.0),
                                      generators=["f1"])
    rep2 = amenability.folner_search(g2, epsilon=0.05, max_size=200)
    _check(rep2.found, f"delta=2 folner best {rep2.ratio}")
    F = set(rep2.set)
    bd = amenability.boundary_set(g2, F)
    _check(not (F | bd) & g2.frontier, "witness touches the window frontier")
    mu_bd = sum(Fraction(g2.weight[v]) for v in bd)
    mu_f = sum(Fraction(g2.weight[v]) for v in F)
    _check(mu_bd < Fraction(rep2.epsilon) * mu_f,
           f"witness did not re-verify: {mu_bd} vs {rep2.epsilon} * {mu_f}")
    g3 = amenability.from_fusion_ring(amenability.tlj_kesten_window(224, 3.0),
                                      generators=["f1"])
    rep3 = amenability.folner_search(g3, epsilon=0.05, max_size=200)
    _check(not rep3.found and rep3.ratio > 0.05,
           f"delta=3 folner {rep3}")
    for grp in (cyclic(4), symmetric(3)):
        ring = fusion.from_group(grp)
        graph = amenability.from_fusion_ring(ring)
        fin = amenability.folner_search(graph, epsilon=0.01, max_size=100)
        _check(fin.found and fin.ratio == 0.0, f"{grp.name} folner {fin}")
        kf = amenability.kesten_check(ring, ring.labels[1])
        _check(kf["amenable"] is True, f"{grp.name} kesten {kf}")
    return (f"kesten: delta=2 norm in [{k2['norm_lower']}, "
            f"{k2['norm_upper']}] no verdict, delta=3 norm <= "
            f"{k3['norm_upper']} < dim 3 not amenable; folner: witness "
            f"|F|={len(F)} mu(bd F)={mu_bd} < 0.05 mu(F)={mu_f}, "
            f"delta=3 best {rep3.ratio:.3f}")


# (prime, seed of the points) for the oracle's ranks over F_p; none is
# exactarith.MODULUS, the prime of the certificate inside rank()
_ORACLE_PRIMES = ((2**61 - 1, 61), (1_000_000_007, 7), (998_244_353, 3))


def crit_exact_rank_oracle(cfg):
    """Ranks of random polynomial matrices: rank(m) and the ranks over
    F_p at three seeded (prime, point) pairs equal the fraction-free
    rank; kernel vectors re-multiply to zero, one per free column."""
    rng = random.Random(20260815)
    points = [(p, random.Random(seed)) for p, seed in _ORACLE_PRIMES]
    kernel_vecs = 0
    for trial in range(100):
        rows = rng.randint(2, 5)
        cols = rng.randint(2, 5)
        entries = {}
        for r in range(rows):
            for c in range(cols):
                coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
                poly = IntPoly(coeffs)
                if poly:
                    entries[r, c] = RatFunc(poly)
        m = SparseMat(rows, cols, entries)
        exact = fraction_free_rank(m)
        certified = rank(m)
        _check(certified == exact,
               f"trial {trial}: rank {certified} vs fraction-free {exact}")
        for p, prng in points:
            point = prng.randrange(p)
            rp = rank_mod_p(m.mod_p_rows(point, p), p)
            _check(rp == exact,
                   f"trial {trial}: fraction-free rank {exact} vs {rp} "
                   f"mod {p} at delta={point}")
        kernel = kernel_basis(m)
        _check(len(kernel) == cols - exact,
               f"trial {trial}: {len(kernel)} kernel vectors, rank {exact}")
        for vec in kernel:
            image = mat_vec(m, vec)
            _check(all(x == RF_ZERO for x in image),
                   f"trial {trial}: kernel vector fails")
            kernel_vecs += 1
    return (f"100 matrices, 100 rank and 300 mod-p rank agreements with "
            f"the fraction-free rank, {kernel_vecs} kernel vectors")


CRITERIA = (
    ("tlj-global-index", "TLJ global index and beta0 vs closed form",
     crit_tlj_global_index),
    ("pointed-beta0", "group-ring beta0 = 1/|G| exactly", crit_pointed_beta0),
    ("tube-identities", "tube identity channels and corner match",
     crit_tube_identities),
    ("tube-homology", "tube trivial homology (1,0,0) and d.d = 0",
     crit_tube_homology),
    ("annular-golden", "annular golden boundary vectors", crit_annular_golden),
    ("d2-d3-zero", "degree 2/3 boundaries compose to zero", crit_d2_d3_zero),
    ("h1-vanishing", "degree-1 cycles are boundaries (K=10)",
     crit_h1_vanishing),
    ("h2-vanishing", "degree-2 cycle space is contained (N=8)",
     crit_h2_vanishing),
    ("h0-dimension", "degree-0 homology is one-dimensional", crit_h0),
    ("hochschild-contrast", "fusion-side 1-cocycle survives",
     crit_hochschild_contrast),
    ("betti-combinators", "profile combinators and exact values",
     crit_betti_combinators),
    ("amenability", "Kesten and Folner verdicts", crit_amenability),
    ("exact-rank-oracle", "random matrix rank and kernel oracle",
     crit_exact_rank_oracle),
)


def criterion_keys():
    return [key for key, _, _ in CRITERIA]


def run_criterion(key: str, **cfg) -> dict:
    for k, title, func in CRITERIA:
        if k == key:
            break
    else:
        raise KeyError(key)
    t0 = time.perf_counter()
    try:
        detail = func(cfg)
        status = "PASS"
    except CriterionFailure as exc:
        status, detail = "FAIL", str(exc)
    except Inconclusive as exc:
        status, detail = "INCONCLUSIVE", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # noqa: BLE001 - report, never crash the table
        status, detail = "FAIL", f"{type(exc).__name__}: {exc}"
    return {
        "criterion": key,
        "title": title,
        "status": status,
        "detail": detail,
        "runtime_ms": int((time.perf_counter() - t0) * 1000),
    }


def run_all(**cfg):
    return [run_criterion(key, **cfg) for key, _, _ in CRITERIA]
