"""Circle diagrams and the low-degree annular chain complex."""

import contextlib
import hashlib
import io
import json
from itertools import combinations_with_replacement

import pytest

from fusionhom import acceptance, annular, cli
from fusionhom.annular import (ChainVector, CircleDiagram, UnsupportedDegree,
                               boundary, boundary_matrix, diagram3,
                               enumerate_diagrams, fill_puncture, h0_report,
                               h1_vanishing_check, h2_vanishing_check,
                               shaded_boundary, sigma, sigma2, single)
from fusionhom.errors import Inconclusive, SizeLimit
from fusionhom.exactarith import (ONE_POLY, RF_ZERO, Echelon, RatFunc,
                                  SparseMat, clear_denominators,
                                  kernel_basis, parse_scalar, rank)

dp = RatFunc.delta_power


def test_encode_parse_round_trip():
    for text in ("k=0; -",
                 "k=1; [1]^3",
                 "k=2; [1]^1 [1,2]^2",
                 "k=3; [1,3]^1 [2,3]^1",
                 "k=4; [1,4]^1 [2,3]^2 [4]^1"):
        d = CircleDiagram.parse(text)
        assert d.encode() == text
        assert CircleDiagram.parse(d.encode()) == d


def mult(d, i, j):
    """Multiplicity of the block (i, j) of d, 0 when it has none."""
    for bi, bj, m in d.blocks:
        if (bi, bj) == (i, j):
            return m
    return 0


def test_blocks_are_normalized_and_sorted():
    d = CircleDiagram(2, [(1, 2, 1), (1, 1, 2), (1, 2, 1)])
    assert d.blocks == ((1, 1, 2), (1, 2, 2))
    assert mult(d, 1, 2) == 2
    assert mult(d, 2, 2) == 0
    assert d.total() == 4


def test_crossing_blocks_rejected():
    with pytest.raises(ValueError, match="crossing"):
        CircleDiagram(3, [(1, 2, 1), (2, 3, 1)])
    # nesting is fine
    CircleDiagram(3, [(1, 3, 1), (2, 3, 1)])


def test_block_validation():
    with pytest.raises(ValueError):
        CircleDiagram(2, [(1, 3, 1)])
    with pytest.raises(ValueError):
        CircleDiagram(2, [(1, 1, -1)])
    with pytest.raises(ValueError):
        CircleDiagram(0, [(1, 1, 1)])


def test_degree_four_unsupported():
    # only the shaded display stops at degree 3; diagrams have no cap
    d = CircleDiagram(4, [(1, 4, 1)])
    for shown in (d, sigma(1)):
        with pytest.raises(UnsupportedDegree):
            shaded_boundary(shown, 0)
    # the four finite fills cancel; filling infinity deletes the circle
    assert boundary(d) == single(CircleDiagram(3), dp(1))


def test_diagrams_are_immutable_and_hashable():
    d = sigma(2)
    with pytest.raises(AttributeError):
        d.degree = 3
    assert len({sigma(2), sigma(2), sigma(3)}) == 2


def test_enumeration_counts():
    assert len(enumerate_diagrams(1, 3)) == 4
    assert len(enumerate_diagrams(2, 2)) == 10
    assert len(enumerate_diagrams(3, 1)) == 7
    assert len(enumerate_diagrams(3, 10)) == 5005


def test_fill_puncture_counts_deleted_circles():
    d = CircleDiagram.parse("k=2; [1]^1 [1,2]^2")
    # filling puncture 1 merges the lone circle into the spanning ones
    assert fill_puncture(d, 1) == (CircleDiagram.parse("k=1; [1]^3"), 0)
    # filling puncture 2 deletes two closed circles, each worth delta
    assert fill_puncture(d, 2) == (CircleDiagram.parse("k=1; [1]^1"), 2)


def test_sigma_is_a_cycle():
    for k in range(5):
        assert not boundary(sigma(k)).terms


def test_degree_two_boundary_closed_form():
    got = boundary(sigma2(1, 2, 3))
    want = (single(sigma(5), dp(1)) - single(sigma(4), dp(2))
            + single(sigma(3), dp(3)))
    assert got == want


def test_shaded_boundary_parity_flip():
    # odd c flips the shading bit on the last term only
    assert shaded_boundary(sigma2(0, 2, 1), 0) == [
        (sigma(3), 0, dp(0)), (sigma(1), 0, -dp(2)), (sigma(2), 1, dp(1))]
    # even c keeps every bit
    assert shaded_boundary(sigma2(0, 2, 2), 0) == [
        (sigma(4), 0, dp(0)), (sigma(2), 0, -dp(2)), (sigma(2), 0, dp(2))]


def test_degree_three_boundary_reaches_degree_two():
    got = boundary(diagram3(a=1, b=1, c=1))
    assert got.degree == 2
    assert got == (single(sigma2(1, 1, 0), dp(1))
                   - single(sigma2(1, 1, 0), dp(1))
                   + single(sigma2(1, 1, 0), dp(1))
                   - single(sigma2(1, 1, 1)))


# sha256 of the encodings of enumerate_diagrams(k, T) for T = 0..10, one
# line per T with the encodings joined by "|", and the count at T = 10;
# taken from the enumeration that built every block combination and
# discarded the crossing ones
ENUMERATION_PINS = {
    0: (1, "1148db645c1217d4c3a1befe0fcfafb75688793a1d5b19d92f1327c4679f3764"),
    1: (11, "0dbde5cb75d9949c86e4dc22650eb42abd24fdbb956c37ef0eb135979ffe778d"),
    2: (286, "24bb4a3af2740be83bf9dbf8c9d8e61744a6873c3bffbb32e2fd034580d805e5"),
    3: (5005,
        "95cd978f6793625e078f507dd37ededa099397649271b8c48133b1715b4a39fc"),
}


@pytest.mark.parametrize("degree", sorted(ENUMERATION_PINS))
def test_enumeration_order_is_pinned(degree):
    lines = ["|".join(d.encode() for d in enumerate_diagrams(degree, T))
             for T in range(11)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    count = len(enumerate_diagrams(degree, 10))
    assert (count, digest) == ENUMERATION_PINS[degree]


@pytest.mark.parametrize("degree", [4, 5])
def test_enumeration_matches_every_valid_block_multiset(degree):
    # the pins stop at degree 3; above it, build every multiset of at most
    # T blocks with the validating constructor and drop the crossing ones
    classes = [(i, j) for i in range(1, degree + 1)
               for j in range(i, degree + 1)]
    for T in range(5):
        valid = set()
        for r in range(T + 1):
            for chosen in combinations_with_replacement(classes, r):
                try:
                    valid.add(CircleDiagram(degree,
                                            [(i, j, 1) for i, j in chosen]))
                except ValueError as exc:
                    assert "crossing" in str(exc)
        listed = enumerate_diagrams(degree, T)
        assert len(listed) == len(valid) == annular._count_diagrams(degree, T)
        assert listed == sorted(valid, key=CircleDiagram.sort_key)


def test_diagram_count_matches_enumeration():
    # the h2 cap and columns_available read the count, not the list
    for degree in range(4):
        for T in range(11):
            assert annular._count_diagrams(degree, T) == len(
                enumerate_diagrams(degree, T))
    assert annular._count_diagrams(3, 10) == 2 * 3003 - 1001
    # a negative window holds no diagram, not even the empty one
    for degree in range(4):
        for count in (annular._count_diagrams, enumerate_diagrams):
            with pytest.raises(ValueError):
                count(degree, -1)
    # the cap counts C3(<=N), the columns the proof reads: 77 at (3, 2),
    # while columns_available still counts C3(<=N+margin)
    with pytest.raises(SizeLimit, match="^77 degree-3 diagrams exceed cap "
                                        "76$"):
        h2_vanishing_check(3, 2, diagram_cap=76)
    report = h2_vanishing_check(3, 2, diagram_cap=77)
    assert report["columns_used"] == 77
    assert report["columns_available"] == 378


def test_chain_vectors_cancel():
    v = single(sigma(3)) - single(sigma(3))
    assert not v
    assert v == ChainVector(1)


def test_boundary_matrix_shapes_and_composition():
    m2 = boundary_matrix(2, 4)
    assert m2.cols == len(enumerate_diagrams(2, 4))
    assert m2.rows == len(enumerate_diagrams(1, 4))
    m3 = boundary_matrix(3, 4)
    assert m2.mat_mul(m3).is_zero()
    m4 = boundary_matrix(4, 4)
    assert (m4.rows, m4.cols) == (m3.cols, len(enumerate_diagrams(4, 4)))
    assert m3.mat_mul(m4).is_zero()


def test_each_window_is_enumerated_once(monkeypatch):
    calls = []

    def counting(degree, window):
        calls.append((degree, window))
        return enumerate_diagrams(degree, window)

    monkeypatch.setattr(annular, "enumerate_diagrams", counting)
    assert h1_vanishing_check(3)["contained"]
    assert calls == [(2, 4), (1, 4)]
    calls.clear()
    _h2_exact(3, 4, [])
    assert calls == [(2, 3), (1, 3), (2, 4)]


def test_h0_is_one_dimensional():
    assert h0_report(4) == 1


def test_h1_certificates_rebuild_the_cycle():
    for K in (4, 25):
        report = h1_vanishing_check(K)
        assert report["contained"]
        assert report["K"] == K
        for m, entry in report["per_m"].items():
            assert entry["contained"]
            rebuilt = ChainVector(1)
            for encoding, coeff in entry["certificate"]:
                d = CircleDiagram.parse(encoding)
                rebuilt = rebuilt + boundary(d).scale(parse_scalar(coeff))
            assert rebuilt == single(sigma(m))


def test_h2_window_contains_kernel():
    # the graded proof consumes C3(<=N); kernel_dim = |C2(<=N)| - |C1(<=N)|
    for n, pinned in ((3, (16, 77)), (4, (30, 182))):
        report = h2_vanishing_check(n)
        assert report["contained"]
        assert not report["failing_vectors"]
        assert (report["kernel_dim"], report["columns_used"]) == pinned


def without_codes(monkeypatch, drop):
    """Make annular._codes list no code of the (degree, total) pairs that
    drop selects; enumerate_diagrams decodes the same listing."""
    codes = annular._codes
    monkeypatch.setattr(annular, "_codes", lambda k, t: [] if drop(k, t)
                        else codes(k, t))


def _h2_exact(N: int, window3: int, gen3) -> dict:
    """The exact oracle for h2_vanishing_check, by fraction-free elimination.

    Kernel vectors of the degree-2 boundary on total <= N are tested for
    membership in the span of the boundaries of gen3.  The columns are
    inserted into one exactarith.Echelon in order.  A kernel vector that
    stays nonzero after reduction is stalled at its leading index and
    reduced again only when a new pivot lands there; insertion stops as
    soon as every kernel vector has reduced to zero, so columns_used does
    not depend on the kernel basis.
    """
    cols2_small = annular.enumerate_diagrams(2, N)
    kernel = kernel_basis(boundary_matrix(2, N, cols2_small))
    rows_big = annular.enumerate_diagrams(2, window3)
    row_of = {d.code: i for i, d in enumerate(rows_big)}

    # kernel vectors re-indexed into the larger degree-2 window
    residuals = []
    supports = []
    for vec in kernel:
        residuals.append(clear_denominators(
            {row_of[cols2_small[i].code]: c
             for i, c in enumerate(vec) if c}))
        supports.append(sorted(cols2_small[i].encode()
                               for i, c in enumerate(vec) if c))

    ech = Echelon()
    unresolved = dict(enumerate(residuals))
    stalled = {}  # leading index -> list of residual ids

    def settle(rid):
        vec = ech.reduce(unresolved[rid])
        if vec:
            unresolved[rid] = vec
            stalled.setdefault(min(vec), []).append(rid)
        else:
            del unresolved[rid]

    for rid in list(unresolved):
        settle(rid)

    columns_used = 0
    for d in gen3:
        if not unresolved:
            break
        columns_used += 1
        col = {row_of[face]: RatFunc(p) for face, p
               in annular._boundary_polys(d.code, 3).items()}
        for rid in stalled.pop(ech.insert(clear_denominators(col)), ()):
            settle(rid)

    failing = []
    for rid in sorted(unresolved):
        failing.append({"kernel_index": rid, "support": supports[rid]})
    return {
        "kernel_dim": len(kernel),
        "contained": not unresolved,
        "failing_vectors": failing,
        "columns_available": len(gen3),
        "columns_used": columns_used,
        "window": window3,
    }


def test_h2_with_no_generators_fails_honestly(monkeypatch):
    # the graded proof cannot close on an empty column set: at total 1,
    # |C2(=1)| - rank d2(=1) = 3 - 1 is left with rank d3(=1) = 0; the
    # exact oracle agrees that the kernel is not contained
    without_codes(monkeypatch, lambda k, t: k == 3)
    with pytest.raises(Inconclusive, match=r"^h2 at N=4, total 1: graded "
                                           r"ranks do not close"):
        h2_vanishing_check(4)
    report = _h2_exact(4, 6, [])
    assert not report["contained"]
    assert report["failing_vectors"]


def _verdict(report):
    return report["kernel_dim"], report["contained"]


@pytest.mark.parametrize("margin", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_h2_certificate_agrees_with_exact_oracle(n, margin):
    report = h2_vanishing_check(n, margin=margin)
    assert report["method"] == "graded"
    exact = _h2_exact(n, n + margin, enumerate_diagrams(3, n + margin))
    assert _verdict(report) == _verdict(exact)
    assert report["columns_available"] == exact["columns_available"]
    assert report["window"] == exact["window"]


def test_h2_benchmark_size_is_certified():
    report = h2_vanishing_check(8, margin=2)
    assert report["contained"]
    assert not report["failing_vectors"]
    assert (report["kernel_dim"], report["columns_used"],
            report["columns_available"], report["window"]) == (156, 2079, 5005, 10)
    assert report["method"] == "graded"
    # per total t = 0..8: |C2(=t)|, rank d2(=t) = 1, rank d3(=t) = |C2(=t)| - 1
    dims = [(t + 1) * (t + 2) // 2 for t in range(9)]
    assert report["graded"] == {"dim_c2": dims, "rank_d2": [1] * 9,
                                "rank_d3": [c - 1 for c in dims]}


def test_h2_graded_ranks_fall_back_to_exact_elimination(monkeypatch):
    # a prime that divides every minor leaves each rank over F_p short of
    # its bound, so each block's rank comes from exact elimination over Z
    proved = h2_vanishing_check(5, margin=2)
    monkeypatch.setattr(annular, "rank_mod_p", lambda rows: 0)
    assert h2_vanishing_check(5, margin=2) == proved
    assert proved["method"] == "graded"


def test_h2_refuses_a_column_subset_the_oracle_accepts(monkeypatch):
    # without the total-4 columns rank d3(=4) is 0, so the graded proof
    # does not close and no verdict is given, although the columns of
    # total 5 and 6 still contain the kernel, as the exact oracle shows
    without_codes(monkeypatch, lambda k, t: (k, t) == (3, 4))
    gens = enumerate_diagrams(3, 6)
    assert {d.total() for d in gens} == {0, 1, 2, 3, 5, 6}
    closing = (r"^h2 at N=4, total 4: graded ranks do not close "
               r"\(\|C1\| 1, \|C2\| 15, rank d2 1, rank d3 0\)$")
    with pytest.raises(Inconclusive, match=closing):
        h2_vanishing_check(4)
    exact = _h2_exact(4, 6, gens)
    assert _verdict(exact) == (30, True)
    assert exact["columns_used"] == 133


def test_h2_certificate_rejects_columns_that_are_not_cycles(monkeypatch):
    # drop the face at infinity from every degree-3 boundary: d2 d3 != 0
    counts_of = annular._code_counts

    def broken(code, degree):
        counts = counts_of(code, degree)
        if degree == 3:
            counts[annular._fill_code(code, 3, 3)] += 1
        return counts

    monkeypatch.setattr(annular, "_code_counts", broken)
    with pytest.raises(Inconclusive, match=r"^h2 at N=3, total 0: degree-3 "
                                           r"column k=3; - is not a cycle"):
        h2_vanishing_check(3)
    # the exact oracle, which checks no column, still gives a verdict
    exact = _h2_exact(3, 5, enumerate_diagrams(3, 5))
    assert not exact["contained"] and exact["failing_vectors"]


def add_a_delta_power_face(monkeypatch):
    """Give every degree-3 boundary an extra face, its face at infinity
    times one more power of delta than that fill carries."""
    counts_of = annular._code_counts

    def broken(code, degree):
        counts = counts_of(code, degree)
        if degree == 3:
            face, deleted = annular._fill_code(code, 3, 3)
            key = face, deleted + 1
            counts[key] = counts.get(key, 0) + 1
        return counts

    monkeypatch.setattr(annular, "_code_counts", broken)


def test_h2_graded_proof_checks_each_column_is_a_cycle(monkeypatch):
    # an extra delta-power face leaves every delta = 0 block, and so every
    # graded rank, as it was; only the exact d2 d3 = 0 check sees it
    add_a_delta_power_face(monkeypatch)
    with pytest.raises(Inconclusive, match=r"^h2 at N=3, total 0: degree-3 "
                                           r"column k=3; - is not a cycle"):
        annular._h2_graded(3)
    # the exact oracle, which checks no column, still gives a verdict
    assert _verdict(_h2_exact(3, 5, enumerate_diagrams(3, 5))) == (16, True)


def test_h2_refuses_columns_that_are_not_cycles(monkeypatch):
    # the benchmark size, the CLI and verify-all: no verdict without the
    # d2 d3 = 0 check, where an exact elimination alone would contain
    add_a_delta_power_face(monkeypatch)
    with pytest.raises(Inconclusive, match=r"^h2 at N=8, total 0: "):
        h2_vanishing_check(8)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["homology-tlj", "--h2", "8", "--margin", "2",
                         "--json"])
    assert code == 3
    error = json.loads(buf.getvalue())["error"]
    assert error["type"] == "Inconclusive"
    assert error["message"].startswith("h2 at N=8, total 0: degree-3 column")
    report = acceptance.run_criterion("h2-vanishing")
    assert report["status"] == "INCONCLUSIVE"
    assert report["detail"].startswith("Inconclusive: h2 at N=8, total 0: ")


def test_d2_d3_zero_checks_every_power_of_delta(monkeypatch):
    # the extra face is invisible at delta = 0, so a check there would pass
    add_a_delta_power_face(monkeypatch)
    report = acceptance.run_criterion("d2-d3-zero")
    assert (report["status"], report["detail"]) == ("FAIL",
                                                    "d2.d3 != 0 at T=6")


def test_d2_d3_zero_multiplies_no_matrix(monkeypatch):
    def no_product(self, other):
        raise AssertionError("mat_mul called")

    monkeypatch.setattr(SparseMat, "mat_mul", no_product)
    with pytest.raises(AssertionError, match="mat_mul called"):
        boundary_matrix(2, 1).mat_mul(boundary_matrix(3, 1))
    report = acceptance.run_criterion("d2-d3-zero")
    assert (report["status"], report["detail"]) == (
        "PASS", "zero on a 84x714 times 7x84 pair")


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_d_d_vanishes_on_the_generic_code(degree):
    assert annular._dd_vanishes_generically(degree)


def retargeted_fills(j, block, target):
    """_fills with the degree-3 class block of fill j sent to target."""
    fills = annular._fills

    def broken(k):
        table = fills(k)
        if k != 3:
            return table
        row = list(table[j])
        row[block] = target
        return table[:j] + (tuple(row),) + table[j + 1:]

    return broken


def test_the_generic_code_sees_every_broken_column(monkeypatch):
    # every single-entry retarget of the degree-3 fill table: whenever a
    # column of C3(<=6) fails d2 d3 = 0, the one generic check fails too
    columns = [c for t in range(7) for c in annular._codes(3, t)]
    table = annular._fills(3)
    targets = len(annular._block_classes(2)) + 1  # the classes and deletion
    retargets = broken_columns = 0
    for j, row in enumerate(table):
        for block, old in enumerate(row):
            for target in set(range(targets)) - {old}:
                retargets += 1
                with monkeypatch.context() as m:
                    m.setattr(annular, "_fills",
                              retargeted_fills(j, block, target))
                    memo = {}
                    if any(not annular._dd_vanishes(
                            annular._code_counts(c, 3), 3, memo)
                           for c in columns):
                        broken_columns += 1
                        assert not annular._dd_vanishes_generically(3), (
                            j, block, target)
    # each of the 72 breaks some column, so each was seen by the generic
    assert broken_columns == retargets == 72


def test_h2_checks_d_d_once(monkeypatch):
    # the per-column path called _dd_vanishes once per column, 2,079
    # times at N = 8
    calls = []
    dd_vanishes = annular._dd_vanishes

    def counting(*args):
        calls.append(args[1])
        return dd_vanishes(*args)

    monkeypatch.setattr(annular, "_dd_vanishes", counting)
    report = h2_vanishing_check(8)
    assert (report["cycles"], report["columns_used"]) == ("generic", 2079)
    assert calls == [3]


def test_h2_rank_columns_build_no_boundary_counts(monkeypatch):
    # the delta = 0 columns come from the route table: only the one
    # generic d2 d3 = 0 check reads _code_counts, 5 calls at N = 8 where
    # building every column's counts took 2,249
    calls = []
    inside = []
    counts_of = annular._code_counts
    generically = annular._dd_vanishes_generically

    def counting(code, degree):
        calls.append(bool(inside))
        return counts_of(code, degree)

    def tracked(degree):
        inside.append(degree)
        try:
            return generically(degree)
        finally:
            inside.pop()

    monkeypatch.setattr(annular, "_code_counts", counting)
    monkeypatch.setattr(annular, "_dd_vanishes_generically", tracked)
    report = h2_vanishing_check(8)
    assert (report["cycles"], report["columns_used"]) == ("generic", 2079)
    assert calls == [True] * 5


def routed_columns(monkeypatch, codes, degree, rows):
    """The integer columns that _rank_at_zero hands to the rank."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(annular, "rank_mod_p",
                  lambda columns: seen.extend(columns) or 0)
        assert annular._rank_at_zero(codes, degree, rows, bound=0) == 0
    return seen


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_routes_give_the_delta_zero_part_of_every_boundary(monkeypatch,
                                                           degree):
    # each routed column is the delta^0 part of the full Z[delta] counts
    for t in range(7):
        codes = annular._codes(degree, t)
        rows = {c: i for i, c in enumerate(annular._codes(degree - 1, t))}
        expected = [{rows[face]: count for (face, deleted), count
                     in annular._code_counts(code, degree).items()
                     if count and not deleted} for code in codes]
        assert routed_columns(monkeypatch, codes, degree, rows) == expected
    # per support, the routes are the fills that delete nothing on a code
    # of that support, with the targets of its classes
    width = len(annular._block_classes(degree))
    fills = annular._fills(degree)
    for support in annular._supports(degree):
        code = tuple(int(c in support) for c in range(width))
        kept = [((-1) ** j, tuple(fills[j][c] for c in support))
                for j in range(degree + 1)
                if not annular._fill_code(code, degree, j)[1]]
        assert list(annular._routes(degree)[support]) == kept


def test_h2_falls_back_to_each_column_when_the_generic_check_fails(
        monkeypatch):
    # an extra face on crossing codes alone breaks d2 d3 = 0 on the
    # generic code but on no diagram, so each column is checked and passes
    counts_of = annular._code_counts
    ab, bc = (annular._block_classes(3).index(b) for b in ((1, 2), (2, 3)))

    def broken(code, degree):
        counts = counts_of(code, degree)
        if degree == 3 and code[ab] and code[bc]:
            key = annular._fill_code(code, 3, 0)
            counts[key] = counts.get(key, 0) + 1
        return counts

    monkeypatch.setattr(annular, "_code_counts", broken)
    assert not annular._dd_vanishes_generically(3)
    report = h2_vanishing_check(4)
    assert (report["cycles"], report["kernel_dim"]) == ("per-column", 30)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["homology-tlj", "--h2", "4", "--json"]) == 0
    diagnostics = json.loads(buf.getvalue())["diagnostics"]
    assert diagnostics["h2"]["cycles"] == "per-column"


def test_graded_h2_builds_no_diagram(monkeypatch):
    built = []
    init, trusted = CircleDiagram.__init__, CircleDiagram._trusted.__func__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    def counting_trusted(cls, *args):
        built.append(args)
        return trusted(cls, *args)

    monkeypatch.setattr(CircleDiagram, "__init__", counting_init)
    monkeypatch.setattr(CircleDiagram, "_trusted",
                        classmethod(counting_trusted))
    assert h2_vanishing_check(8, 2)["method"] == "graded"
    assert built == []
    # both counters are live
    sigma(1)
    assert len(enumerate_diagrams(1, 2)) == 3
    assert len(built) == 4


def reference_fill(d, j):
    """Fill j of d on diagram objects: each block through the
    single-circle rule, the surviving circles summed per block and
    rebuilt by the validating constructor, so a fill that broke
    laminarity would raise.  Returns (face, deleted circles)."""
    deleted = 0
    norm = {}
    for i0, j0, m in d.blocks:
        key = annular._fill_block(d.degree, (i0, j0), j)
        if key is None:
            deleted += m
        else:
            norm[key] = norm.get(key, 0) + m
    blocks = [(i, j, m) for (i, j), m in norm.items()]
    return CircleDiagram(d.degree - 1, blocks), deleted


def reference_counts(d):
    """Boundary of d over Z from reference_fill: (face, deleted) ->
    signed count."""
    counts = {}
    for j in range(d.degree + 1):
        key = reference_fill(d, j)
        counts[key] = counts.get(key, 0) + (-1) ** j
    return counts


def test_coded_boundary_counts_equal_the_diagram_counts():
    # the fill maps, derived from the single-circle fill rule, give the
    # boundary of every diagram, not only of the single circles
    diagrams = [d for k in (1, 2, 3) for d in enumerate_diagrams(k, 7)]
    diagrams += enumerate_diagrams(4, 5)
    assert len(diagrams) == 1382 + 1902
    for d in diagrams:
        expected = {(face.code, deleted): count
                    for (face, deleted), count in reference_counts(d).items()}
        assert annular._code_counts(d.code, d.degree) == expected
        for j in range(d.degree + 1):
            assert fill_puncture(d, j) == reference_fill(d, j)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_boundary_matrix_equals_the_reference_fills(degree):
    for T in range(6):
        rows = {d: r for r, d in enumerate(enumerate_diagrams(degree - 1, T))}
        expected = {}
        for c, d in enumerate(enumerate_diagrams(degree, T)):
            for (face, deleted), count in reference_counts(d).items():
                key = rows[face], c
                expected[key] = (expected.get(key, RF_ZERO)
                                 + RatFunc.from_fraction(count) * dp(deleted))
        expected = {key: v for key, v in expected.items() if v}
        assert boundary_matrix(degree, T).entries == expected


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_codes_round_trip(degree):
    # a diagram is its code; blocks, the constructor, _trusted and the
    # text encoding all give it back
    width = len(annular._block_classes(degree))
    for d in enumerate_diagrams(degree, 5):
        assert len(d.code) == width
        rebuilt = CircleDiagram(degree, d.blocks)
        assert rebuilt == d and hash(rebuilt) == hash(d)
        assert CircleDiagram._trusted(degree, d.code) == d
        assert CircleDiagram.parse(d.encode()) == d


def test_boundary_matrix_builds_no_chain_vector(monkeypatch):
    built = []
    init = ChainVector.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ChainVector, "__init__", counting_init)
    assert boundary_matrix(2, 11).entries
    assert built == []
    # the counter is live
    boundary(sigma2(1, 1, 1))
    assert len(built) == 1


def test_boundary_coefficients_skip_the_normaliser(monkeypatch):
    # each face coefficient is a nonzero polynomial over 1, so canonical
    built = []
    init = RatFunc.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(RatFunc, "__init__", counting_init)
    m = boundary_matrix(2, 6)
    vec = boundary(sigma2(1, 2, 1))
    assert built == []
    RatFunc(ONE_POLY)
    assert len(built) == 1  # the counter is live
    for v in [*m.entries.values(), *vec.terms.values()]:
        assert v and v.den is ONE_POLY and v == RatFunc(v.num)


@pytest.mark.parametrize("k, contained", [(16, False), (20, True)])
def test_h2_partial_generators_get_the_oracle_verdict(k, contained):
    # total-3 columns only: 20 of them contain ker d2(<=2) without
    # spanning ker d2(<=3)
    gens = [d for d in enumerate_diagrams(3, 3) if d.total() == 3][:k]
    report = _h2_exact(2, 3, gens)
    assert report["contained"] is contained
    assert bool(report["failing_vectors"]) is not contained


def test_h2_certified_window_stays_inside_the_row_window():
    # the graded proof on C(<=3) lists the columns of total <= 3 only,
    # while the exact oracle, taking columns in order, uses a total-4
    # generator put ahead of C3(<=3)
    gens = [diagram3(a=1, b=1, c=1, abc=1)] + enumerate_diagrams(3, 3)
    kernel_dim, columns_used, graded, _ = annular._h2_graded(3)
    assert columns_used == len(gens) - 1
    assert len(graded["rank_d3"]) == 4
    exact = _h2_exact(3, 3, gens)
    assert (kernel_dim, True) == _verdict(exact) == (16, True)
    assert exact["columns_used"] == 70


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("T", [0, 1, 2, 3, 4])
def test_graded_ranks_equal_the_exact_rank(degree, T):
    # at these sizes the ranks do not drop at delta = 0
    graded = 0
    for t in range(T + 1):
        rows = {c: i for i, c in enumerate(annular._codes(degree - 1, t))}
        graded += annular._rank_at_zero(annular._codes(degree, t), degree,
                                        rows)
    assert graded == rank(boundary_matrix(degree, T))


def test_parse_keeps_the_block_checks():
    # decoded diagrams skip validation; parse does not
    with pytest.raises(ValueError, match="crossing"):
        CircleDiagram.parse("k=3; [1,2]^1 [2,3]^1")
    with pytest.raises(ValueError, match="out of range"):
        CircleDiagram.parse("k=2; [1,3]^1")
    with pytest.raises(ValueError, match="out of range for degree 0"):
        CircleDiagram.parse("k=0; [1]^1")
    # shading is display only, and no degree is negative
    with pytest.raises(ValueError, match="bad diagram encoding"):
        CircleDiagram.parse("k=2; [1]^1; s=0")
    with pytest.raises(ValueError, match="negative degree -1"):
        CircleDiagram.parse("k=-1; -")
