"""Acceptance matrix: one test per criterion, run at full tolerances."""

import itertools

import pytest

from fusionhom import acceptance, tube

# the detail of every criterion as `verify-all` prints it; a change here
# changes the results block and is a behaviour change
DETAILS = {
    "tlj-global-index": "n=2..40, worst deviation 4.55e-13",
    "pointed-beta0": "Z/2=1/2, Z/3=1/3, S3=1/6, D4=1/8",
    "tube-identities": (
        "Z/2: 81 checks, corner dim 2; Z/3: 322 checks, corner "
        "dim 3; S3: 4297 checks, corner dim 6"),
    "tube-homology": (
        "dims (1,0,0); Z/2: chains (1, 2, 4); Z/3: chains (1, 3, "
        "9); S3: chains (1, 6, 36)"),
    "annular-golden": "469 golden boundary identities hold exactly",
    "d2-d3-zero": "zero on a 84x714 times 7x84 pair",
    "h1-vanishing": "K=10 contained with certificates",
    "h2-vanishing": (
        "N=8 margin=2: kernel dim 156 contained, 2079/5005 "
        "columns, graded"),
    "h0-dimension": "h0 = 1 on window 5",
    "hochschild-contrast": (
        "28 boundaries vanish, witness = 1 (fusion-side H1 "
        "nonzero while the annular H1 check is empty)"),
    "betti-combinators": (
        "19^2 free-product identities, fc(3,3)=0, fc(5,5)=2/3, "
        "Kunneth ok"),
    "amenability": (
        "kesten: delta=2 norm in [3357081/1678541, 2] no verdict, "
        "delta=3 norm <= 2 < dim 3 not amenable; folner: witness "
        "|F|=120 mu(bd F)=29041 < 0.05 mu(F)=583220, delta=3 best "
        "6.708"),
    "exact-rank-oracle": (
        "100 matrices, 100 rank and 300 mod-p rank agreements "
        "with the fraction-free rank, 54 kernel vectors"),
}


@pytest.mark.parametrize("key", acceptance.criterion_keys())
def test_criterion(key):
    report = acceptance.run_criterion(key)
    assert report["status"] == "PASS", (
        f"{key} [{report['status']}]: {report['detail']}")
    assert report["detail"] == DETAILS[key]


def test_matrix_covers_every_criterion():
    keys = acceptance.criterion_keys()
    assert len(keys) == 13
    assert len(set(keys)) == 13


def test_tube_homology_needs_the_projection_trace(monkeypatch):
    # the bar complex alone gives the dims but no tau(p) to match beta0
    monkeypatch.setattr(tube, "invariant_projection", lambda A: None)
    report = acceptance.run_criterion("tube-homology")
    assert report["status"] == "FAIL"
    assert report["detail"] == "Z/2: tau(p) None != beta0 1/2"


def test_tube_homology_lists_each_bar_basis_once(monkeypatch):
    # the d.d checks reuse the bases trivial_homology listed: degrees
    # 0..3 for each of the three groups
    calls = []
    listed = tube.bar_chain_basis

    def counting(A, n):
        calls.append(n)
        return listed(A, n)

    monkeypatch.setattr(tube, "bar_chain_basis", counting)
    report = acceptance.run_criterion("tube-homology")
    assert report["detail"] == DETAILS["tube-homology"]
    assert sorted(calls) == sorted([0, 1, 2, 3] * 3)


@pytest.mark.parametrize("key", ["h1-vanishing", "h2-vanishing"])
def test_no_verdict_rests_on_wall_clock_time(monkeypatch, key):
    # a clock that jumps 1000 s per reading, past any time budget: a
    # correct result still passes on a slow host, and only runtime_ms
    # records the time
    clock = itertools.count(0.0, 1000.0)
    monkeypatch.setattr(acceptance.time, "perf_counter", clock.__next__)
    report = acceptance.run_criterion(key)
    assert (report["status"], report["detail"]) == ("PASS", DETAILS[key])
    assert report["runtime_ms"] >= 1000000
