"""Command line interface: exit codes, JSON reports, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fusionhom
from fusionhom.groups import cyclic
from fusionhom.tube import tube_from_group, tube_to_text

from test_tube import NEGATIVE_TRACE

# the child runs the package these tests import, installed or not
SRC = str(Path(fusionhom.__file__).resolve().parents[1])


def run_python(*args):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def run_cli(*args):
    return run_python("-m", "fusionhom.cli", *args)


def run_json(*args):
    proc = run_cli(*args, "--json")
    assert proc.stdout, proc.stderr
    return proc.returncode, json.loads(proc.stdout)


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


def test_verify_all_names_the_violation(broken_tube_file):
    proc = run_cli("verify-all", "--tube-file", broken_tube_file)
    assert proc.returncode == 2
    assert "FAIL" in proc.stdout
    assert "InvariantViolation" in proc.stdout


def test_negative_trace_tube_file_fails_verification(tmp_path):
    path = tmp_path / "negative-trace.tube"
    path.write_text(NEGATIVE_TRACE)
    code, report = run_json("tube", "--file", str(path), "--verify")
    assert code == 2
    assert report["results"]["identities"]["gram-psd"]["failures"]


def test_unknown_group_is_an_input_error():
    proc = run_cli("tube", "--group", "Q8", "--verify")
    assert proc.returncode == 1


def test_two_input_sources_rejected(tube_file):
    proc = run_cli("tube", "--group", "S3", "--file", tube_file)
    assert proc.returncode == 1


def test_chain_cap_is_inconclusive():
    proc = run_cli("homology-tube", "--group", "S3", "--degree", "2",
                   "--chain-cap", "10")
    assert proc.returncode == 3


def test_homology_tlj_example():
    code, report = run_json("homology-tlj", "--mode", "unshaded",
                            "--h1", "K=6", "--h2", "N=4", "--margin", "2")
    assert code == 0
    assert report["results"]["h1"]["contained"]
    assert report["results"]["h2"]["contained"]


def test_flag_spellings_agree():
    _, a = run_json("homology-tlj", "--h1", "6")
    _, b = run_json("homology-tlj", "--h1", "K=6")
    assert a["results"] == b["results"]
    assert a["inputs"]["digest"] == b["inputs"]["digest"]


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


def test_fusion_ladder_summary():
    code, report = run_json("fusion", "--ladder", "8", "--delta", "2.0",
                            "--verify")
    assert code == 0
    assert report["results"]["verified"]
    assert report["results"]["labels"] == 8


@pytest.mark.parametrize("argv, message", [
    (("amenability", "--check", "kesten", "--ladder-delta", "2.0",
      "--window", "1"), "--window 1"),
    (("amenability", "--check", "kesten", "--ladder-delta", "2.0",
      "--window", "8", "--generator", "f9999"), "--generator f9999"),
    (("amenability", "--check", "folner", "--ladder-delta", "2.0",
      "--folner-window", "0"), "--folner-window 0"),
    (("amenability", "--check", "folner", "--ladder-delta", "1.0",
      "--folner-window", "8"), "--ladder-delta 1.0"),
    (("amenability", "--check", "folner", "--ladder-delta", "2.0",
      "--folner-window", "8", "--epsilon", "0"), "--epsilon 0"),
    (("fusion", "--ladder", "0"), "--ladder 0"),
    (("fusion", "--tlj", "1"), "--tlj 1"),
    (("amenability", "--check", "kesten", "--ladder-delta", "2.0",
      "--window", "512", "--generator", "f2"), "--generator f2"),
    (("amenability", "--check", "folner", "--ladder-delta", "2.0",
      "--folner-window", "8", "--generator", "f9"), "--generator f9"),
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
    (("betti", "--tlj", "1"), "--tlj 1"),
    (("betti", "--tlj", "0"), "--tlj 0"),
    (("betti", "--fuss-catalan", "2", "5"), "--fuss-catalan 2 5"),
], ids=["kesten-window", "unknown-generator", "folner-window",
        "nonpositive-weight", "epsilon", "ladder-zero", "tlj-one",
        "kesten-generator-f2", "folner-generator-f9",
        "kesten-nonpositive-dim", "kesten-delta-zero",
        "folner-weight-overflow", "kesten-delta-inf", "folner-delta-inf",
        "betti-tlj-one", "betti-tlj-zero", "betti-fc-two"])
def test_out_of_range_flags_are_input_errors(argv, message):
    code, report = run_json(*argv)
    assert code == 1
    assert report["error"]["type"] == "InputError"
    assert message in report["error"]["message"]
