"""tools/compare_outputs.py: the block diff and the README command list,
on canned reports (no command is run)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)
diff_reports = compare_outputs.diff_reports


def _report(**blocks):
    out = {"command": "amenability", "version": "0",
           "inputs": {"params": {"epsilon": 0.05}, "files": {},
                      "digest": "aa"},
           "results": {"folner": {"found": False, "set_size": 116}},
           "warnings": [], "timing": {"runtime_ms": 5}}
    out.update(blocks)
    return out


def test_equal_reports_agree_whatever_their_timing():
    assert diff_reports((0, _report()),
                        (0, _report(timing={"runtime_ms": 900}))) == {}


def test_differing_entries_are_named_by_path():
    change = _report(
        inputs={"params": {}, "files": {}, "digest": "bb"},
        results={"folner": {"found": False, "set_size": 103}})
    assert diff_reports((0, _report()), (0, change)) == {
        "inputs": ["params.epsilon", "digest"],
        "results": ["folner.set_size"]}


def test_exit_code_and_one_sided_blocks():
    error = {"type": "SizeLimit", "message": "over cap"}
    change = _report(error=error, diagnostics={"h2": {"method": "graded"}},
                     warnings=["inconclusive: over cap"])
    assert diff_reports((0, _report()), (3, change)) == {
        "exit": ["0 -> 3"], "diagnostics": [], "warnings": [], "error": []}


def test_a_run_without_a_report_compares_as_empty():
    assert diff_reports((1, None), (1, None)) == {}
    assert list(diff_reports((1, None), (0, _report()))) == [
        "exit", "inputs", "results", "warnings"]


def test_lists_compare_whole():
    parent = _report(results={"criteria": [{"status": "PASS"}]})
    change = _report(results={"criteria": [{"status": "FAIL"}]})
    assert diff_reports((0, parent), (0, change)) == {
        "results": ["criteria"]}


def test_commands_come_from_the_readme_example_block():
    commands = compare_outputs.readme_commands(
        (ROOT / "README.md").read_text(encoding="utf-8"))
    assert ["verify-all"] in commands
    assert ["amenability", "--check", "both", "--ladder-delta", "2.0"] \
        in commands


def test_extra_commands_cover_the_h2_cap():
    # the h2 cap refusals (exit 3) are compared along with the README
    assert ["homology-tlj", "--h2", "N=21", "--margin", "0"] \
        in compare_outputs.EXTRA_COMMANDS
    assert ["homology-tlj", "--h1", "3", "--h2", "8", "--diagram-cap", "10"] \
        in compare_outputs.EXTRA_COMMANDS
