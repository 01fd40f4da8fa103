"""Command line interface: exit codes, JSON reports, determinism."""

import contextlib
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fusionhom
from fusionhom import annular, cli, fusion, tube
from fusionhom.acceptance import CRITERIA
from fusionhom.groups import cyclic, symmetric
from fusionhom.tube import tube_from_group

from test_fusion import BIG_LOOP, rational_ladder, ring_to_text
from test_tube import NEGATIVE_TRACE, tube_to_text

# the child runs the package these tests import, installed or not
SRC = str(Path(fusionhom.__file__).resolve().parents[1])


def run_python(*args, **env):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path, **env})


def run_cli(*args, **env):
    return run_python("-m", "fusionhom.cli", *args, **env)


def run_json(*args):
    proc = run_cli(*args, "--json")
    assert proc.stdout, proc.stderr
    return proc.returncode, json.loads(proc.stdout)


def main_json(*args):
    """Run cli.main in-process; (exit code, parsed JSON report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([*args, "--json"])
    return code, json.loads(buf.getvalue())


@pytest.fixture
def tube_file(tmp_path):
    path = tmp_path / "z2.tube"
    path.write_text(tube_to_text(tube_from_group(cyclic(2))))
    return str(path)


@pytest.fixture
def broken_tube_file(tmp_path):
    txt = tube_to_text(tube_from_group(cyclic(2)))
    bad = txt.replace("\na1 a1 1\n", "\na1 a0 1\n")
    assert bad != txt
    path = tmp_path / "broken.tube"
    path.write_text(bad)
    return str(path)


def test_report_envelope():
    code, report = run_json("betti", "--fuss-catalan", "5", "5")
    assert code == 0
    assert report["command"] == "betti"
    assert set(report) == {"command", "version", "inputs", "results",
                           "warnings", "timing"}
    assert "runtime_ms" in report["timing"]
    assert report["results"]["profile"][1]["exact"] == "2/3"


def test_betti_human_output_prints_exact_value():
    proc = run_cli("betti", "--fuss-catalan", "5", "5")
    assert proc.returncode == 0
    assert "2/3" in proc.stdout


def test_tube_group_verify_and_homology():
    code, report = run_json("tube", "--group", "S3", "--verify",
                            "--homology", "2")
    assert code == 0
    assert report["results"]["all_passed"]
    assert report["results"]["dim"] == 36
    assert report["results"]["homology"]["dims"] == [1, 0, 0]


Z2_RING = """labels: e g
dual: e g
dims: 1 1
dims-exact: 1; 1
N:
e e e 1
e g g 1
g e g 1
g g e 1
"""


@pytest.mark.parametrize("text, exact", [
    (Z2_RING, "1/2"),
    ("".join(line for line in Z2_RING.splitlines(keepends=True)
             if not line.startswith("dims")), None),
], ids=["declared-dims", "perron-dims"])
def test_fusion_ring_file(tmp_path, text, exact):
    path = tmp_path / "z2.ring"
    path.write_text(text)
    code, report = main_json("fusion", "--ring", str(path), "--verify")
    assert code == 0, report.get("error")
    results = report["results"]
    assert results["verified"] is True
    assert results["global_index"] == 2.0
    assert results["beta0"] == 0.5
    assert results.get("beta0_exact") == exact
    assert report["inputs"]["files"] == {
        str(path): hashlib.sha256(text.encode("utf-8")).hexdigest()}


def test_ring_file_with_rational_exact_dims(tmp_path):
    """Rational dims-exact pass the exact check; a wrong one is named."""
    text = ring_to_text(rational_ladder(6, BIG_LOOP))
    header = next(line for line in text.splitlines()
                  if line.startswith("dims-exact:"))
    assert "/" in header
    parts = header.split(" ; ")
    parts[2] = "(delta^3 + 1)/(3*delta + 5)"
    path, bad = tmp_path / "ladder.ring", tmp_path / "tampered.ring"
    path.write_text(text)
    bad.write_text(text.replace(header, " ; ".join(parts)))
    code, report = main_json("fusion", "--ring", str(path), "--verify")
    assert code == 0, report.get("error")
    assert report["results"]["verified"] is True
    assert report["results"]["failures"] == []
    code, report = main_json("fusion", "--ring", str(bad), "--verify")
    # the file loader runs the same check, so a failing file is an
    # input error (exit 1) naming the first failure
    assert code == 1
    assert report["error"] == {
        "type": "InputError",
        "message": "ring file rejected: exact dimension equation fails "
                   "at (f1,f1)"}


@pytest.mark.parametrize("source", ["file", "ladder"])
def test_fusion_verifies_a_ring_once(tmp_path, monkeypatch, source):
    # ring_from_text verifies a file ring; the CLI does not verify it again
    path = tmp_path / "ladder.ring"
    path.write_text(ring_to_text(fusion.tlj_ladder(12, delta=2.0)))
    argv = (["--ring", str(path)] if source == "file"
            else ["--ladder", "12", "--delta", "2.0"])
    calls = []
    verify = fusion.verify_axioms
    monkeypatch.setattr(fusion, "verify_axioms",
                        lambda ring: calls.append(ring) or verify(ring))
    code, report = main_json("fusion", *argv, "--verify")
    assert code == 0, report.get("error")
    assert report["results"]["verified"] is True
    assert report["results"]["failures"] == []
    assert len(calls) == 1


def test_betti_point():
    code, report = main_json("betti", "--point")
    assert code == 0
    results = report["results"]
    assert [v["exact"] for v in results["profile"]] == ["1"]
    assert results["provenance"] == "point"


def test_cap_defaults_are_the_module_constants():
    parser = cli.build_parser()
    for argv in (["tube", "--group", "S3"], ["homology-tube", "--group", "S3"]):
        assert parser.parse_args(argv).chain_cap == tube.CHAIN_CAP == 50000
    assert (parser.parse_args(["homology-tlj"]).diagram_cap
            == annular.DIAGRAM_CAP == 100000)
    assert (inspect.signature(tube.trivial_homology)
            .parameters["chain_cap"].default == tube.CHAIN_CAP)
    assert (inspect.signature(annular.h2_vanishing_check)
            .parameters["diagram_cap"].default == annular.DIAGRAM_CAP)


def test_ladder_over_the_cap_exits_3_before_it_is_built(monkeypatch):
    def build(width, delta):
        raise AssertionError(f"ladder {width} built")

    monkeypatch.setattr(fusion, "tlj_ladder", build)
    code, report = main_json("fusion", "--ladder", "400", "--delta", "2.0")
    assert code == 3
    assert report["error"] == {
        "type": "SizeLimit",
        "message": "--ladder 400 stores 160000 rows, over cap 10000"}


def test_ladder_cap_default_admits_the_benchmark_ladder():
    assert fusion.LADDER_CAP == 10000
    code, report = main_json("fusion", "--ladder", "40", "--delta", "2.0",
                             "--verify")
    assert code == 0
    assert report["results"]["verified"] is True
    assert report["results"]["labels"] == 40
    assert "ladder-cap" not in report["inputs"]["params"]


@pytest.mark.parametrize("cap, code", [("25", 0), ("24", 3), ("0", 3)])
def test_ladder_cap_bounds_the_stored_rows(cap, code):
    got, report = main_json("fusion", "--ladder", "5", "--ladder-cap", cap)
    assert got == code
    assert report["inputs"]["params"]["ladder-cap"] == int(cap)
    if code == 3:
        assert report["error"]["message"] == (
            f"--ladder 5 stores 25 rows, over cap {cap}")


def test_tube_file_input(tube_file):
    code, report = run_json("tube", "--file", tube_file, "--verify")
    assert code == 0
    assert report["inputs"]["files"]


def test_corrupt_tube_file_fails_verification(broken_tube_file):
    proc = run_cli("tube", "--file", broken_tube_file, "--verify")
    assert proc.returncode == 2


def file_digests(path):
    with open(path, encoding="utf-8") as handle:
        return {path: hashlib.sha256(handle.read().encode()).hexdigest()}


def test_failed_verification_report_keeps_the_file_digest(broken_tube_file):
    code, report = run_json("tube", "--file", broken_tube_file, "--verify")
    assert code == 2
    assert report["inputs"]["files"] == file_digests(broken_tube_file)


def test_capped_report_keeps_the_file_digest(tube_file):
    code, report = run_json("homology-tube", "--file", tube_file,
                            "--chain-cap", "1")
    assert code == 3
    assert report["error"]["type"] == "SizeLimit"
    assert report["inputs"]["files"] == file_digests(tube_file)


def test_rejected_file_report_keeps_the_file_digest(tmp_path):
    path = tmp_path / "garbage.tube"
    path.write_text("not a tube file\n")
    code, report = run_json("tube", "--file", str(path))
    assert code == 1
    assert report["error"]["type"] == "InputError"
    assert report["inputs"]["files"] == file_digests(str(path))


@pytest.mark.parametrize("command, name, text", [
    ("fusion", "ring", "labels: e g\ndual: e g\ndims-exact: 1 ; 1/0\nN:\n"
     "e e e 1\ne g g 1\ng e g 1\ng g e 1\n"),
    ("tube", "file", tube_to_text(tube_from_group(cyclic(2))).replace(
        "\na0 a0 a0 1\n", "\na0 a0 a0 1/0\n")),
], ids=["ring", "tube"])
def test_division_by_zero_in_a_file_is_an_input_error(tmp_path, command,
                                                      name, text):
    path = tmp_path / f"zero.{name}"
    path.write_text(text)
    code, report = main_json(command, f"--{name}", str(path))
    assert code == 1
    assert report["error"]["type"] == "InputError"
    assert "division by zero" in report["error"]["message"]
    assert report["inputs"]["files"] == file_digests(str(path))


def test_verify_all_names_the_violation(broken_tube_file):
    proc = run_cli("verify-all", "--tube-file", broken_tube_file)
    assert proc.returncode == 2
    assert "FAIL" in proc.stdout
    assert "InvariantViolation" in proc.stdout


def test_verify_all_runs_without_numpy():
    # every verdict rests on exact arithmetic; numpy stays a float
    # cross-check outside the verdicts
    proc = run_python("-c", (
        "import contextlib, io, sys\n"
        "from fusionhom import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify-all', '--json'])\n"
        "print(code, 'numpy' in sys.modules)\n"))
    assert proc.stdout.split() == ["0", "False"], proc.stderr


@pytest.mark.parametrize("exit_code", [2, 3])
def test_verify_all_keeps_per_criterion_timing_on_a_failed_run(
        exit_code, broken_tube_file):
    flags = (["--tube-file", broken_tube_file] if exit_code == 2
             else ["--diagram-cap", "10"])
    code, report = run_json("verify-all", *flags)
    assert code == exit_code
    names = [key for key, _, _ in CRITERIA]
    assert len(names) == 13
    assert list(report["timing"]["per_criterion_ms"]) == names
    assert [row["criterion"] for row in report["results"]["criteria"]] == names


def test_negative_trace_tube_file_fails_verification(tmp_path):
    path = tmp_path / "negative-trace.tube"
    path.write_text(NEGATIVE_TRACE)
    code, report = run_json("tube", "--file", str(path), "--verify")
    assert code == 2
    assert report["results"]["identities"]["gram-psd"]["failures"]


@pytest.mark.parametrize("argv", [
    ("homology-tube", "--degree", "2"),
    ("tube", "--homology", "2"),
    ("tube", "--verify", "--homology", "2")], ids=lambda a: " ".join(a))
def test_homology_of_an_unverified_file_fails_verification(tmp_path, argv):
    # an idempotent of a corner other than eps is broken: homology must
    # not be reported for an algebra whose identities fail
    txt = tube_to_text(tube_from_group(symmetric(3)))
    bad = txt.replace("\na6 a6 a6 1\n", "\na6 a6 a6 2\n")
    assert bad != txt
    path = tmp_path / "bad-unit.tube"
    path.write_text(bad)
    code, report = main_json(*argv, "--file", str(path))
    assert code == 2
    assert report["error"] == {
        "type": "VerificationFailure",
        "message": "projections fails at p_c1 not idempotent"}
    assert "homology" not in report["results"]
    assert "diagnostics" not in report


@pytest.mark.parametrize("argv, tau_p", [
    (("tube", "--group", "S3", "--homology", "2"), "1/6"),
    (("homology-tube", "--group", "Z3", "--degree", "2"), "1/3")],
    ids=["tube", "homology-tube"])
def test_homology_diagnostics_name_the_method(argv, tau_p):
    code, report = main_json(*argv)
    assert code == 0
    assert report["diagnostics"] == {"homology": {
        "method": "invariant-projection", "tau_p": tau_p}}
    assert report["results"]["homology"]["dims"] == [1, 0, 0]


def test_bar_complex_fallback_reports_no_projection(monkeypatch):
    argv = ("homology-tube", "--group", "Z3", "--degree", "2")
    _, fast = main_json(*argv)
    monkeypatch.setattr(tube, "invariant_projection", lambda A: None)
    code, report = main_json(*argv)
    assert code == 0
    assert report["diagnostics"] == {"homology": {
        "method": "bar-complex", "tau_p": None}}
    assert report["results"] == fast["results"]


def test_verified_file_homology_reports_its_projection(tube_file):
    code, report = main_json("homology-tube", "--file", tube_file)
    assert code == 0
    assert report["diagnostics"]["homology"]["tau_p"] == "1/2"


def test_unknown_group_is_an_input_error():
    proc = run_cli("tube", "--group", "Q8", "--verify")
    assert proc.returncode == 1


def test_two_input_sources_rejected(tube_file):
    proc = run_cli("tube", "--group", "S3", "--file", tube_file)
    assert proc.returncode == 1


@pytest.mark.parametrize("flag, key", [("--diagram-cap", "h2-vanishing"),
                                       ("--chain-cap", "tube-homology")])
def test_verify_all_zero_cap_is_a_cap(flag, key):
    # a cap of 0 caps every chain space, it does not fall back to the default
    code, report = main_json("verify-all", flag, "0")
    assert code == 3
    row, = [r for r in report["results"]["criteria"] if r["criterion"] == key]
    assert row["status"] == "INCONCLUSIVE"
    assert "cap 0" in row["detail"]


def test_chain_cap_is_inconclusive():
    proc = run_cli("homology-tube", "--group", "S3", "--degree", "2",
                   "--chain-cap", "10")
    assert proc.returncode == 3


def test_homology_tlj_example():
    code, report = run_json("homology-tlj", "--h1", "K=6", "--h2", "N=4",
                            "--margin", "2")
    assert code == 0
    assert report["results"]["h1"]["contained"]
    assert report["results"]["h2"]["contained"]
    # how the verdict was reached sits next to results, not inside it
    assert list(report)[3:5] == ["results", "diagnostics"]
    assert "method" not in report["results"]["h2"]
    assert report["diagnostics"]["h2"] == {
        "method": "graded", "cycles": "generic", "dim_c2": [1, 3, 6, 10, 15],
        "rank_d2": [1, 1, 1, 1, 1], "rank_d3": [0, 2, 5, 9, 14]}


def test_homology_tlj_without_h2_has_no_diagnostics():
    code, report = run_json("homology-tlj", "--h1", "3")
    assert code == 0
    assert "diagnostics" not in report


def test_flag_spellings_agree():
    _, a = run_json("homology-tlj", "--h1", "6")
    _, b = run_json("homology-tlj", "--h1", "K=6")
    assert a["results"] == b["results"]
    assert a["inputs"]["digest"] == b["inputs"]["digest"]


def test_bare_homology_tlj_echoes_the_h0_it_runs():
    # the --h0 digest; a bare homology-tlj echoed no h0 (8db63fb6...)
    _, bare = main_json("homology-tlj")
    _, flag = main_json("homology-tlj", "--h0")
    assert bare["inputs"] == flag["inputs"]
    assert bare["inputs"]["params"]["h0"] == 5
    assert bare["inputs"]["digest"] == (
        "c309f7e470a92c040d34757cf0f228f05716c487b4ca4b2c7848af1aa1553b89")
    assert bare["results"] == flag["results"]


def test_h1_certificates_are_pinned():
    # sha256 of the sorted-key JSON of the h1 results block, as computed
    # by back substitution on full pivot rows
    code, report = main_json("homology-tlj", "--h1", "K=10")
    assert code == 0
    text = json.dumps(report["results"]["h1"], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "28c5d9816ca47e0e5f01417f9882316638326e2a1a20f3e861eae8f4cc21bb32")


def test_results_are_deterministic():
    _, a = run_json("homology-tlj", "--h0", "4", "--h1", "5")
    _, b = run_json("homology-tlj", "--h0", "4", "--h1", "5")
    assert a["results"] == b["results"]
    assert a["inputs"] == b["inputs"]


def test_amenability_kesten_flat_ladder():
    # Kesten alone cannot prove the infinite flat ladder amenable
    code, report = run_json("amenability", "--check", "kesten",
                            "--ladder-delta", "2.0", "--window", "4096")
    assert code == 3
    kesten = report["results"]["kesten"]
    assert kesten["amenable"] is None
    assert (kesten["norm_lower"], kesten["norm_upper"]) == ("3357081/1678541",
                                                            "2")


def test_amenability_both_runs_folner_then_is_inconclusive(tmp_path):
    path = tmp_path / "tri.graph"
    path.write_text("vertex: a 1.0\nvertex: b 1.0\nvertex: c 1.0\n"
                    "generators: b c\nedge: a b\nedge: b c\nedge: a c\n")
    for source in (("--folner-window", "224"), ("--graph", str(path))):
        code, report = run_json("amenability", "--check", "both",
                                "--ladder-delta", "2.0", "--window", "64",
                                "--epsilon", "0.5", *source)
        assert code == 3
        assert report["results"]["kesten"]["amenable"] is None
        assert report["results"]["folner"]["found"]
    # the exit-3 report still records the graph file it read
    assert list(report["inputs"]["files"]) == [str(path)]


def test_amenability_unstable_window_is_inconclusive():
    for width in ("16", "1000"):
        code, report = run_json("amenability", "--check", "kesten",
                                "--ladder-delta", "2.0", "--window", width)
        assert code == 3
        kesten = report["results"]["kesten"]
        assert kesten["amenable"] is None
        assert (Fraction(kesten["norm_lower"]) <= 2
                <= Fraction(kesten["norm_upper"]))


def test_amenability_two_label_window_is_inconclusive():
    code, report = run_json("amenability", "--check", "kesten",
                            "--ladder-delta", "2.0", "--window", "2")
    assert code == 3
    assert report["results"]["kesten"]["norm_lower"] == "1"
    assert report["results"]["kesten"]["amenable"] is None


def test_amenability_kesten_expanding_ladder_default_window():
    # at 3.0 most window dimensions overflow to inf; only f1's is read
    for delta in ("3.0", "2.0000001"):
        code, report = run_json("amenability", "--check", "kesten",
                                "--ladder-delta", delta)
        assert code == 0
        assert report["results"]["kesten"]["window"] == 4096
        assert report["results"]["kesten"]["norm_upper"] == "2"
        assert report["results"]["kesten"]["amenable"] is False


def test_amenability_loads_no_scipy():
    # scipy is not a dependency: the criterion and the CLI check run
    # without it in a fresh interpreter
    proc = run_python("-c", (
        "import sys\n"
        "from fusionhom import acceptance, cli\n"
        "assert acceptance.run_criterion('amenability')['status'] == 'PASS'\n"
        "assert cli.main(['amenability', '--check', 'kesten',\n"
        "                 '--ladder-delta', '3.0']) == 0\n"
        "assert 'scipy' not in sys.modules\n"))
    assert proc.returncode == 0, proc.stderr


def test_amenability_folner_on_graph_file(tmp_path):
    path = tmp_path / "tri.graph"
    path.write_text("vertex: a 1.0\nvertex: b 1.0\nvertex: c 1.0\n"
                    "generators: b c\nedge: a b\nedge: b c\nedge: a c\n")
    code, report = run_json("amenability", "--check", "folner",
                            "--graph", str(path), "--epsilon", "0.5",
                            "--max-size", "5")
    assert code == 0
    assert report["results"]["folner"]["found"]


def test_amenability_rejects_a_repeated_generator(tmp_path):
    path = tmp_path / "twice.graph"
    path.write_text("vertex: a 1.0\nvertex: b 1.0\ngenerators: b b\n"
                    "edge: a b\n")
    code, report = run_json("amenability", "--check", "folner",
                            "--graph", str(path))
    assert code == 1
    assert report["error"]["message"] == (
        "graph file rejected: generator b listed twice")


def test_kesten_needs_a_ring_not_a_graph(tmp_path):
    path = tmp_path / "tri.graph"
    path.write_text("vertex: a 1.0\ngenerators: a\nedge: a a\n")
    proc = run_cli("amenability", "--check", "kesten", "--graph", str(path))
    assert proc.returncode == 1


def test_out_writes_the_same_report(tmp_path):
    out = tmp_path / "report.json"
    code, shown = run_json("betti", "--tlj", "7", "--out", str(out))
    assert code == 0
    stored = json.loads(out.read_text())
    assert stored["results"] == shown["results"]


@pytest.mark.parametrize("width, delta", [("8", "2.0"), ("9", "1.9")])
def test_fusion_ladder_summary(width, delta):
    # below delta = 2 a window short enough keeps every dimension positive
    code, report = run_json("fusion", "--ladder", width, "--delta", delta,
                            "--verify")
    assert code == 0
    assert report["results"]["verified"]
    assert report["results"]["labels"] == int(width)


@pytest.mark.parametrize("argv", [
    ("fusion", "--bogus"),
    ("homology-tlj", "--h1", "abc"),
    ("betti", "--fuss-catalan", "5"),
    ("amenability", "--check", "kesten", "--ladder-delta", "3.0",
     "--generator", "f1"),
    ("homology-tlj", "--mode", "unshaded"),
    ("amenability", "--check", "folner", "--ladder-delta", "2.0",
     "--strategy", "greedy"),
    ("no-such-command",),
    (),
], ids=["unknown-flag", "h1-not-an-integer", "fuss-catalan-one-value",
        "generator-flag-gone", "mode-flag-gone", "strategy-flag-gone",
        "unknown-command", "no-command"])
def test_bad_command_lines_are_input_errors(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("fusionhom: error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, flag", [
    (("homology-tlj", "--h1", "N=3"), "--h1"),
    (("homology-tlj", "--h1", "x=y=3"), "--h1"),
    (("amenability", "--window", "K=64"), "--window"),
], ids=["h1-label-of-h2", "h1-two-labels", "window-has-no-label"])
def test_a_label_the_flag_does_not_declare_is_an_input_error(argv, flag,
                                                             capsys):
    # only --h1 K= and --h2 N=, their metavars, take a label
    with pytest.raises(cli.InputError, match=f"argument {flag}: "):
        cli.build_parser().parse_args(argv)
    assert cli.main(list(argv)) == 1
    assert capsys.readouterr().err.startswith(
        f"fusionhom: error: argument {flag}: ")


def test_help_exits_zero():
    proc = run_cli("fusion", "--help")
    assert proc.returncode == 0
    assert "--ladder" in proc.stdout and proc.stderr == ""


@pytest.mark.parametrize("argv, message", [
    (("amenability", "--check", "kesten", "--ladder-delta", "2.0",
      "--window", "1"), "--window 1"),
    (("amenability", "--check", "folner", "--ladder-delta", "2.0",
      "--folner-window", "0"), "--folner-window 0"),
    (("amenability", "--check", "folner", "--ladder-delta", "1.0",
      "--folner-window", "8"), "--ladder-delta 1.0"),
    (("amenability", "--check", "folner", "--ladder-delta", "2.0",
      "--folner-window", "8", "--epsilon", "0"), "--epsilon 0"),
    (("fusion", "--ladder", "0"), "--ladder 0"),
    (("fusion", "--ladder", "5", "--delta", "nan", "--verify"),
     "--delta nan"),
    (("fusion", "--ladder", "5", "--delta", "inf"), "--delta inf"),
    (("fusion", "--ladder", "6", "--delta", "0.0", "--verify"),
     "--delta 0.0"),
    (("fusion", "--ladder", "6", "--delta", "-1.0"), "--delta -1.0"),
    (("fusion", "--ladder", "40", "--delta", "1.9"), "--delta 1.9"),
    (("fusion", "--tlj", "1"), "--tlj 1"),
    (("amenability", "--check", "kesten", "--ladder-delta", "1.0",
      "--window", "512"), "--ladder-delta 1.0"),
    (("amenability", "--check", "kesten", "--ladder-delta", "0",
      "--window", "512"), "--ladder-delta 0"),
    (("amenability", "--check", "folner", "--ladder-delta", "3.0",
      "--folner-window", "400"), "--folner-window 400"),
    (("amenability", "--check", "kesten", "--ladder-delta", "inf"),
     "--ladder-delta inf"),
    (("amenability", "--check", "folner", "--ladder-delta", "inf"),
     "--ladder-delta inf"),
    (("amenability", "--check", "folner", "--ladder-delta", "2.0",
      "--max-size", "0"), "--max-size 0"),
    (("amenability", "--check", "folner", "--ladder-delta", "2.0",
      "--epsilon", "nan"), "--epsilon nan"),
    (("homology-tlj", "--h1", "-1"), "--h1 -1"),
    (("homology-tlj", "--h2", "0"), "--h2 0"),
    (("homology-tlj", "--h2", "3", "--margin", "-1"), "--margin -1"),
    (("homology-tlj", "--h0", "-2"), "--h0 -2"),
    (("betti", "--tlj", "1"), "--tlj 1"),
    (("betti", "--tlj", "0"), "--tlj 0"),
    (("betti", "--fuss-catalan", "2", "5"), "--fuss-catalan 2 5"),
    (("fusion", "--group", "Z0"), "no elements"),
    (("fusion", "--group", "D0"), "no elements"),
    (("tube", "--group", "D0"), "no elements"),
    (("homology-tube", "--group", "Z0"), "no elements"),
    (("homology-tube", "--group", "Z00"), "no elements"),
], ids=["kesten-window", "folner-window",
        "nonpositive-weight", "epsilon", "ladder-zero", "delta-nan",
        "delta-inf", "delta-zero", "delta-negative", "delta-below-two",
        "tlj-one",
        "kesten-nonpositive-dim", "kesten-delta-zero",
        "folner-weight-overflow", "kesten-delta-inf", "folner-delta-inf",
        "max-size-zero", "epsilon-nan",
        "h1-negative", "h2-zero", "margin-negative", "h0-negative",
        "betti-tlj-one", "betti-tlj-zero", "betti-fc-two",
        "fusion-z0", "fusion-d0", "tube-d0", "homology-tube-z0",
        "homology-tube-z00"])
def test_out_of_range_flags_are_input_errors(argv, message):
    code, report = run_json(*argv)
    assert code == 1
    assert report["error"]["type"] == "InputError"
    assert message in report["error"]["message"]


def test_folner_results_do_not_depend_on_the_hash_seed():
    results = []
    for seed in ("0", "1"):
        proc = run_cli("amenability", "--check", "folner", "--ladder-delta",
                       "3.0", "--json", PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout)["results"])
    assert results[0] == results[1]


def readme_commands():
    """The lines of the README's command-line block, without `fusionhom`."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line")[1]
    block = section.split("```")[1]
    return [line.split()[1:] for line in block.splitlines()
            if line.startswith("fusionhom ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_example_runs(argv):
    # the README says the flat-ladder amenability example exits 3
    expected = 3 if argv[:1] == ["amenability"] else 0
    code, report = main_json(*argv)
    assert code == expected, report.get("error")


# inputs.params and inputs.digest as printed before the parameter echo was
# read from the parser, except that amenability has no --generator or
# --strategy flag and homology-tlj no --mode flag to echo any more;
# verify-all stops at its missing tube file (exit 1)
PARAMS_PINS = {
    ("fusion", "--ladder", "8", "--delta", "2.0", "--verify"): (
        {"delta": 2.0, "ladder": 8, "verify": True},
        "b2ead4edfe7692d5321e176f2373fddd57bdcb2bfd1215d9d0a834e6eda5a1e2"),
    ("tube", "--group", "S3", "--verify", "--homology", "2"): (
        {"chain-cap": 50000, "group": "S3", "homology": 2, "verify": True},
        "6e2dfe4b8baaac1dd986071a3dc93553b660b0783217415a46c7a038ac20d2da"),
    ("homology-tube", "--group", "Z3", "--degree", "2"): (
        {"chain-cap": 50000, "degree": 2, "group": "Z3"},
        "fa4bf933ca579dc354cb2c2f78c2b50207b48d30271a640a4e693425f76a8b42"),
    ("homology-tlj", "--h0", "4", "--h1", "3"): (
        {"diagram-cap": 100000, "h0": 4, "h1": 3, "margin": 2},
        "42b59328f21c078e81f8f761a6cbc725690921b779dba6fd2a9e65e8cb59cc45"),
    ("betti", "--fuss-catalan", "5", "5"): (
        {"fuss-catalan": [5, 5], "point": False},
        "16079da7e921b510b1148ae70aed3141a70426be34201ec9043ebf456e097e60"),
    ("amenability", "--check", "kesten", "--ladder-delta", "3.0",
     "--window", "64"): (
        {"check": "kesten", "epsilon": 0.05, "folner-window": 224,
         "ladder-delta": 3.0, "max-size": 200, "window": 64},
        "9f3cb33ee700173bfb9b8fe39a4e29a04edff97c980513ab660c11a26d448d87"),
    ("verify-all", "--chain-cap", "7", "--diagram-cap", "9",
     "--tube-file", "no-such-dir/x.tube"): (
        {"chain-cap": 7, "diagram-cap": 9, "tube-file": "no-such-dir/x.tube"},
        "134ee57b3682e3b6f680cca5b04250ce0512faed1f3293a9930017628a2fc914"),
}


@pytest.mark.parametrize("argv", sorted(PARAMS_PINS), ids=lambda a: a[0])
def test_parameter_echo_and_digest_are_pinned(argv):
    code, report = main_json(*argv)
    assert code == (1 if argv[0] == "verify-all" else 0)
    params, digest = PARAMS_PINS[argv]
    assert report["inputs"]["params"] == params
    assert report["inputs"]["digest"] == digest


def test_successive_main_calls_echo_only_their_own_flags():
    # main reuses one parser per process; no flag may leak into a later call
    tlj = ("homology-tlj", "--h0", "4", "--h1", "3")
    betti = ("betti", "--fuss-catalan", "5", "5")
    assert main_json(*tlj)[1]["inputs"]["params"] == PARAMS_PINS[tlj][0]
    assert main_json(*betti)[1]["inputs"]["params"] == PARAMS_PINS[betti][0]
    code, report = main_json("homology-tlj", "--h0", "2")
    assert code == 0
    assert report["inputs"]["params"] == {
        "diagram-cap": 100000, "h0": 2, "margin": 2}


def test_capped_report_keeps_the_finished_h1_block():
    code, report = main_json("homology-tlj", "--h1", "3", "--h2", "8",
                             "--diagram-cap", "10")
    assert code == 3
    assert report["error"]["type"] == "SizeLimit"
    assert report["results"]["h1"]["contained"] is True
    assert "h2" not in report["results"]


def test_h2_cap_counts_the_columns_the_proof_reads():
    # |C3(<=20)| = 95,634 fits the default cap of 100,000, though the
    # default margin counts |C3(<=22)| = 146,510; |C3(<=21)| = 118,910
    code, report = main_json("homology-tlj", "--h2", "N=20")
    assert code == 0
    assert report["results"]["h2"]["columns_used"] == 95634
    assert report["results"]["h2"]["columns_available"] == 146510
    code, report = main_json("homology-tlj", "--h2", "N=21")
    assert code == 3
    assert report["error"] == {
        "type": "SizeLimit",
        "message": "118910 degree-3 diagrams exceed cap 100000"}


def test_capped_report_keeps_the_passed_identities():
    code, report = main_json("tube", "--group", "S3", "--verify",
                             "--homology", "3", "--chain-cap", "100")
    assert code == 3
    assert report["error"]["type"] == "SizeLimit"
    assert report["results"]["all_passed"] is True
    assert "homology" not in report["results"]


def test_folner_truncation_reports_its_own_type():
    code, report = main_json("amenability", "--check", "both",
                             "--ladder-delta", "2.0", "--folner-window", "20",
                             "--epsilon", "0.01")
    assert code == 3
    assert report["error"]["type"] == "TruncationInconclusive"
    assert report["results"]["kesten"]["amenable"] is None
    assert report["warnings"] == [
        f"inconclusive: {report['error']['message']}"]


@pytest.mark.parametrize("argv", [
    ("tube", "--group", "S3", "--chain-cap", "-1"),
    ("homology-tube", "--group", "Z3", "--chain-cap", "-1"),
    ("homology-tlj", "--h2", "3", "--diagram-cap", "-1"),
    ("fusion", "--ladder", "5", "--ladder-cap", "-1"),
    ("verify-all", "--chain-cap", "-1"),
    ("verify-all", "--diagram-cap", "-1"),
], ids=lambda a: " ".join(a[:1] + a[-2:-1]))
def test_negative_cap_is_an_input_error(argv, monkeypatch):
    # rejected before any work: no criterion or chain space is touched
    monkeypatch.setattr(cli, "COMMAND_BODIES", {})
    code, report = main_json(*argv)
    assert code == 1
    assert report["error"] == {"type": "InputError",
                               "message": f"{argv[-2]} -1: must be >= 0"}
    assert report["results"] == {}


def test_input_error_drops_the_partial_results():
    # the identities pass before the degree is rejected
    code, report = main_json("tube", "--group", "S3", "--verify",
                             "--homology", "5")
    assert code == 1
    assert report["error"]["type"] == "InputError"
    assert report["results"] == {}
    assert report["warnings"] == []
    assert "diagnostics" not in report
