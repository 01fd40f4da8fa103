"""Run the README examples in two checkouts and name the report blocks
that differ.

Usage (from any directory):

    python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts of the repository (a `git clone` or
`git archive` of each commit).  The commands are the lines of the
example block under "## Command line" in CHANGE's README, followed by
EXTRA_COMMANDS.  Each runs as `python -m fusionhom.cli ARGS --json`
with PYTHONPATH set to the checkout's `src/`, one run at a time.  Per
command it prints `same`, or each differing block (`exit` for the exit
code, then the inputs, results, diagnostics, warnings and error blocks)
with the dotted paths of the entries that differ in it.  Timing is not
compared.  The exit code is 1 if any command differs, else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BLOCKS = ("inputs", "results", "diagnostics", "warnings", "error")

EXTRA_COMMANDS = (
    ["homology-tlj", "--h2", "N=20", "--margin", "0"],
    ["amenability", "--check", "folner", "--ladder-delta", "3.0"],
    # both stop on the diagram cap (exit 3)
    ["homology-tlj", "--h2", "N=21", "--margin", "0"],
    ["homology-tlj", "--h1", "3", "--h2", "8", "--diagram-cap", "10"],
)


def readme_commands(readme: str) -> list:
    """The lines of the README's command-line block, without
    `fusionhom`, each split into its arguments."""
    block = readme.split("## Command line")[1].split("```")[1]
    return [line.split()[1:] for line in block.splitlines()
            if line.startswith("fusionhom ")]


def run_report(checkout: Path, argv: list) -> tuple:
    """(exit code, parsed JSON report or None) of one CLI run."""
    src = str(Path(checkout).resolve() / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "fusionhom.cli", *argv, "--json"],
        capture_output=True, text=True, env=env)
    report = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, report


def _paths(a, b, prefix=""):
    """Dotted paths of the dict entries at which a and b differ; any
    other value, a list included, is compared whole."""
    if a == b:
        return []
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [prefix]
    out = []
    for key in list(a) + [k for k in b if k not in a]:
        path = f"{prefix}.{key}" if prefix else str(key)
        if key not in a or key not in b:
            out.append(path)
        else:
            out.extend(_paths(a[key], b[key], path))
    return out


def diff_reports(parent: tuple, change: tuple) -> dict:
    """{block: differing paths} between two (exit code, report) runs,
    in the order exit, then BLOCKS; empty when they agree.  A path list
    is empty where a whole block is present on one side only or is not
    a dict.  A run with no report compares as an empty one."""
    (code_p, rep_p), (code_c, rep_c) = parent, change
    rep_p, rep_c = rep_p or {}, rep_c or {}
    out = {}
    if code_p != code_c:
        out["exit"] = [f"{code_p} -> {code_c}"]
    for block in BLOCKS:
        a, b = rep_p.get(block), rep_c.get(block)
        if a != b:
            both = isinstance(a, dict) and isinstance(b, dict)
            out[block] = _paths(a, b) if both else []
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = map(Path, args)
    readme = (change / "README.md").read_text(encoding="utf-8")
    differs = False
    for cmd in readme_commands(readme) + list(EXTRA_COMMANDS):
        diff = diff_reports(run_report(parent, cmd), run_report(change, cmd))
        differs |= bool(diff)
        print(" ".join(cmd))
        if not diff:
            print("  same")
        for block, paths in diff.items():
            print(f"  {block}: {', '.join(paths) or '(whole block)'}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
