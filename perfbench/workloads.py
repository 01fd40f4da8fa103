"""Workload definitions: inputs, timed steps and known-answer checks.

A workload is a list of steps and a step is a list of items.  Running an
item is the timed work; it goes through the public entry points
``fusionhom.cli.main`` and ``fusionhom.acceptance.run_criterion`` (or,
for the seeded matrix batch, ``exactarith.rank`` and
``exactarith.kernel_basis``).  Checking an item compares its output
with the known mathematical answer and runs after the timed region.
Each item also knows how to build a tampered copy of its own output
(leaving the original intact), so the checker can be shown to reject a
wrong verdict.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

from fusionhom import acceptance, annular, cli, exactarith


class CheckFailed(AssertionError):
    """An output disagrees with its known answer."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# CLI items: the output is (exit code, JSON report text)
# ---------------------------------------------------------------------------

class CliItem:
    def __init__(self, argv, check_results, tamper_results):
        self.name = " ".join(argv)
        self.argv = list(argv) + ["--json"]
        self._check_results = check_results
        self._tamper_results = tamper_results

    def run(self, inputs):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        return code, buf.getvalue()

    def check(self, output, inputs):
        code, text = output
        _require(code == 0, f"{self.name}: exit code {code}")
        self._check_results(json.loads(text)["results"])

    def tamper(self, output):
        code, text = output
        report = json.loads(text)
        self._tamper_results(report["results"])
        return code, json.dumps(report)


def _check_h1(res):
    K = 10
    res = res["h1"]
    _require(res["contained"] is True, "h1: not contained")
    certs = res["certificates"]
    _require(sorted(certs, key=int) == [str(m) for m in range(K + 1)],
             f"h1: certificates for {sorted(certs)}")
    for m in range(K + 1):
        total = annular.ChainVector(1)
        for encoding, coeff in certs[str(m)]:
            column = annular.CircleDiagram.parse(encoding)
            total = total + annular.boundary(column).scale(
                exactarith.parse_scalar(coeff))
        _require(total == annular.single(annular.sigma(m)),
                 f"h1: certificate for m={m} does not expand to sigma_{m}")


def _tamper_h1(res):
    res["h1"]["certificates"]["10"].pop()


def _check_h2(res):
    res = res["h2"]
    _require(res["contained"] is True, "h2: not contained")
    _require(res["kernel_dim"] == 156, f"h2: kernel dim {res['kernel_dim']}")
    _require(res["failing_vectors"] == [], "h2: failing vectors reported")


def _tamper_h2(res):
    res["h2"]["kernel_dim"] -= 1


def _check_verified(res):
    _require(res["verified"] is True and res["failures"] == [],
             f"{res['name']}: axioms fail {res['failures'][:1]}")


def _tamper_verified(res):
    res["verified"] = False


def _check_s3_ring(res):
    _check_verified(res)
    _require(res["beta0_exact"] == "1/6", f"S3: beta0 {res['beta0_exact']}")


def _tamper_s3_ring(res):
    res["beta0_exact"] = "1/5"


def _check_s3_tube(res):
    _require(res["all_passed"] is True, "tube S3: identities fail")
    _require(res["homology"]["dims"] == [1, 0, 0],
             f"tube S3: homology {res['homology']['dims']}")


def _tamper_s3_tube(res):
    res["homology"]["dims"] = [1, 1, 0]


def _check_z3_homology(res):
    _require(res["homology"]["dims"] == [1, 0, 0],
             f"Z3: homology {res['homology']['dims']}")


def _tamper_z3_homology(res):
    res["homology"]["dims"] = [1, 0, 1]


def _check_fuss_catalan(res):
    exact = [v["exact"] for v in res["profile"]]
    _require(exact == ["0", "2/3"], f"fc(5,5): profile {exact}")


def _tamper_fuss_catalan(res):
    res["profile"][1]["exact"] = "1/3"


def _check_tlj7(res):
    (value,) = res["profile"]
    _require(value["exact"] == "SinSq(8)", f"tlj(7): beta0 {value['exact']}")
    # SinSq(m) = 4 sin^2(pi/m) / m, the reciprocal global index of TLJ(m-1)
    _require(abs(value["float"] - 4 * math.sin(math.pi / 8) ** 2 / 8) < 1e-12,
             f"tlj(7): beta0 float {value['float']}")


def _tamper_tlj7(res):
    res["profile"][0]["exact"] = "SinSq(7)"


# ---------------------------------------------------------------------------
# acceptance criteria: the output is the run_criterion row
# ---------------------------------------------------------------------------

class CriterionItem:
    def __init__(self, key):
        self.name = f"criterion {key}"
        self.key = key

    def run(self, inputs):
        return acceptance.run_criterion(self.key)

    def check(self, output, inputs):
        _require(output["status"] == "PASS",
                 f"{self.key}: {output['status']} {output['detail']}")

    def tamper(self, output):
        return dict(output, status="FAIL")


# ---------------------------------------------------------------------------
# seeded matrix batch: the output is [(rank, kernel basis)] per matrix
# ---------------------------------------------------------------------------

SHAPES = [(rows, cols) for rows in range(2, 7) for cols in range(2, 7)]
SHAPE_REPEATS = 20


def random_matrices(seed):
    """Small random polynomial matrices and float probe points per matrix.

    Every seed gets the same shapes (each of 2..6 x 2..6, twenty times)
    and only the entries vary: with random shapes the batch's exact work
    varied by 16% between seeds (quartile spread), with fixed shapes by 3%.
    """
    rng = random.Random(seed)
    batch = []
    for rows, cols in SHAPES * SHAPE_REPEATS:
        entries = {}
        for r in range(rows):
            for c in range(cols):
                if rng.random() < 0.3:
                    continue
                coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
                poly = exactarith.IntPoly(coeffs)
                if poly:
                    entries[r, c] = exactarith.RatFunc(poly)
        points = [rng.uniform(2.1, 9.9) for _ in range(2)]
        batch.append((exactarith.SparseMat(rows, cols, entries), points))
    return batch


class MatrixItem:
    name = "rank and kernel_basis on the seeded matrix batch"

    def run(self, inputs):
        return [(exactarith.rank(m), exactarith.kernel_basis(m))
                for m, _ in inputs]

    def check(self, output, inputs):
        _require(len(output) == len(inputs), "matrices: batch truncated")
        for i, ((m, points), (r, kernel)) in enumerate(zip(inputs, output)):
            _require(r + len(kernel) == m.cols,
                     f"matrix {i}: rank {r} + nullity {len(kernel)} "
                     f"!= {m.cols} columns")
            for vec in kernel:
                _require(any(vec), f"matrix {i}: zero kernel vector")
                _require(not any(exactarith.mat_vec(m, vec)),
                         f"matrix {i}: kernel vector not annihilated")
            for point in points:
                fr = exactarith.float_rank(m, point)
                _require(fr == r, f"matrix {i}: rank {r} vs float rank {fr} "
                                  f"at delta={point}")
            if kernel:
                basis = exactarith.SparseMat(m.cols, len(kernel), {
                    (c, j): v for j, vec in enumerate(kernel)
                    for c, v in enumerate(vec) if v})
                _require(
                    exactarith.float_rank(basis, points[0]) == len(kernel),
                    f"matrix {i}: kernel vectors dependent")

    def tamper(self, output):
        (r, kernel), rest = output[0], output[1:]
        return [(r + 1, kernel)] + rest


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

LIGHT_CRITERIA = tuple(k for k in acceptance.criterion_keys()
                       if k not in ("h1-vanishing", "h2-vanishing",
                                    "amenability"))


class Workload:
    def __init__(self, steps, seeded=False):
        self.steps = steps      # [(step name, [items])]
        self.seeded = seeded

    def build_inputs(self, seed):
        return random_matrices(seed) if self.seeded else None

    def items(self):
        return [item for _, items in self.steps for item in items]


WORKLOADS = {
    "annular-homology": Workload([
        ("h1", [CliItem(["homology-tlj", "--h1", "10"],
                        _check_h1, _tamper_h1)]),
        ("h2", [CliItem(["homology-tlj", "--h2", "8", "--margin", "2"],
                        _check_h2, _tamper_h2)]),
    ]),
    "fusion-ladder": Workload([
        ("ladder-verify", [CliItem(["fusion", "--ladder", "40", "--delta",
                                    "2.0", "--verify"],
                                   _check_verified, _tamper_verified)]),
        ("amenability", [CriterionItem("amenability")]),
    ]),
    "light-mix": Workload([
        ("criteria", [CriterionItem(k) for k in LIGHT_CRITERIA]),
        ("commands-and-matrices", [
            CliItem(["fusion", "--group", "S3", "--verify"],
                    _check_s3_ring, _tamper_s3_ring),
            CliItem(["tube", "--group", "S3", "--verify", "--homology", "2"],
                    _check_s3_tube, _tamper_s3_tube),
            CliItem(["homology-tube", "--group", "Z3", "--degree", "2"],
                    _check_z3_homology, _tamper_z3_homology),
            CliItem(["betti", "--fuss-catalan", "5", "5"],
                    _check_fuss_catalan, _tamper_fuss_catalan),
            CliItem(["betti", "--tlj", "7"], _check_tlj7, _tamper_tlj7),
            MatrixItem(),
        ]),
    ], seeded=True),
}


def check_item(item, output, inputs):
    """None if the output is right, else the reason it is wrong."""
    try:
        item.check(output, inputs)
    except (CheckFailed, KeyError, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def tamper_is_caught(item, output, inputs) -> bool:
    """The checker must reject a tampered copy of a correct output."""
    return check_item(item, item.tamper(output), inputs) is not None
