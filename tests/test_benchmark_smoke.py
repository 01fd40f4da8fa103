"""The benchmark's one-pass runner on every workload, with its self-test.

A pass checks each verdict against its known answer and then tampers
with each output to show the checker notices; a change to an output the
checker reads (the h1 certificate format, say) fails here first.
"""

import json
from pathlib import Path

import pytest

from test_cli import run_python

ONE_PASS = Path(__file__).resolve().parents[1] / "perfbench" / "one_pass.py"


@pytest.mark.parametrize("workload",
                         ["annular-homology", "fusion-ladder", "light-mix"])
def test_one_pass_checks_and_self_test_hold(workload):
    proc = run_python(str(ONE_PASS), "--workload", workload, "--seed", "1",
                      "--selftest")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["errors"] == []
    assert result["selftest"]["missed"] == []
    assert result["selftest"]["caught"] > 0
    assert result["restored"] is True
