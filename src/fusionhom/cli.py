"""Command-line front end.

Every command builds a JSON report with a stable field order:
command, version, inputs (parameter echo plus file digests), results,
diagnostics (only where a command reports how it reached its results),
warnings, timing.  The results and diagnostics blocks are deterministic
for a fixed config; timing lives outside them.  Human-readable output
is rendered from the finished report, never computed separately.

`main` owns the report: it hands one `Report` accumulator to the command
body, the body fills it (files read, results, warnings, diagnostics,
extra timing) and returns nothing, and every exit path builds the JSON
report from that accumulator.  The parameter echo is read from the
parsed flags.

Exit codes: 0 success, 1 input error, 2 verification failure (an
asserted identity failed), 3 inconclusive (caps or truncation).  Exit 2
and 3 reports keep whatever the body had filled before it stopped; an
exit 1 report keeps only the files it read.  A command line that does not
parse exits 1 with one error line on stderr and no report.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time

from . import __version__, amenability, annular, betti, fusion, tube
from . import acceptance
from .errors import Inconclusive, InvariantViolation, ParseError, SizeLimit
from .groups import cyclic, dihedral, symmetric


class InputError(ValueError):
    """Bad flags or unreadable input files."""


class VerificationFailure(RuntimeError):
    """An asserted identity failed."""


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors raised as input errors (exit 1)."""
    def error(self, message):
        raise InputError(message)


class Report:
    """What a command body has found so far; main turns it into the
    JSON report on every exit path."""

    # a plain class: a dataclass would import inspect, ~1 MB of peak RSS

    def __init__(self, files=None):
        self.files = {} if files is None else files
        self.results = {}
        self.warnings = []
        self.diagnostics = {}
        self.timing = {}


def _group_by_name(name: str):
    kind, num = name[:1].upper(), name[1:]
    if not num.isdigit():
        raise InputError(f"cannot parse group name {name!r}")
    n = int(num)
    try:
        if kind == "Z":
            return cyclic(n)
        if kind == "S":
            return symmetric(n)
        if kind == "D":
            return dihedral(n)
    except ValueError as exc:
        raise InputError(str(exc))
    raise InputError(f"unknown group family {name!r} (use Z<n>, S<n>, D<n>)")


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _intarg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _labelled_intarg(label: str):
    """The type of a flag whose metavar is label: a bare integer, or
    label=integer as in `--h1 K=10`."""
    def parse(text: str) -> int:
        value = text.removeprefix(label + "=")
        try:
            return int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer or {label}=integer: {text!r}")
    return parse


def _n_or_inf(text: str):
    if text.lower() in ("inf", "infinity"):
        return betti.INF
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer or inf: {text!r}")


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _inputs_block(params: dict, files: dict) -> dict:
    canon_params = {k: v for k, v in sorted(params.items()) if v is not None}
    file_digests = {path: _digest(text)
                    for path, text in sorted(files.items())}
    canon = json.dumps({"params": {k: str(v) for k, v in canon_params.items()},
                        "files": file_digests}, sort_keys=True)
    return {"params": canon_params, "files": file_digests,
            "digest": _digest(canon)}


# ---------------------------------------------------------------------------
# command bodies: each fills the Report it is given (the files it reads,
# results, warnings, diagnostics) and returns nothing
# ---------------------------------------------------------------------------

def _build_ring(args, files):
    chosen = [k for k in ("tlj", "group", "ladder", "ring")
              if getattr(args, k) is not None]
    if len(chosen) != 1:
        raise InputError("choose exactly one of --tlj/--group/--ladder/--ring")
    kind = chosen[0]
    if kind == "group":
        return fusion.from_group(_group_by_name(args.group))
    if kind == "ladder":
        # a default of None keeps the cap out of the other commands' echo
        rows = args.ladder ** 2
        cap = fusion.LADDER_CAP if args.ladder_cap is None else args.ladder_cap
        if args.ladder >= 1 and rows > cap:
            raise SizeLimit(f"--ladder {args.ladder} stores {rows} rows, "
                            f"over cap {cap}")
        return _ladder_window(fusion.tlj_ladder, args.ladder, args.delta,
                              "--ladder", "--delta")
    if kind == "tlj":
        try:
            return fusion.tlj_even(args.tlj)
        except ValueError as exc:
            raise InputError(f"--tlj {args.tlj}: {exc}")
    text = _read_file(args.ring)
    files[args.ring] = text
    try:
        return fusion.ring_from_text(text)
    except (fusion.InvalidRingFile, ParseError, ValueError) as exc:
        raise InputError(f"ring file rejected: {exc}")


def cmd_fusion(args, report):
    ring = _build_ring(args, report.files)
    if ring.truncated:
        report.warnings.append("ring is a truncated window; "
                               "frontier-touching checks are skipped")
    results = report.results
    results.update(name=ring.name, labels=len(ring.labels),
                   truncated=ring.truncated)
    if ring.dims is not None:
        results["global_index"] = ring.global_index()
        rep = fusion.beta0(ring)
        results["beta0"] = rep.beta0
        if rep.beta0_exact is not None:
            results["beta0_exact"] = str(rep.beta0_exact)
    if args.verify:
        # ring_from_text has verified a file ring and rejects one that fails
        failures = [] if args.ring is not None else fusion.verify_axioms(ring)
        results["verified"] = not failures
        results["failures"] = failures
        if failures:
            raise VerificationFailure(f"axioms fail: {failures[0]}")


def _build_tube(args, files):
    if bool(args.group) == bool(args.file):
        raise InputError("choose exactly one of --group/--file")
    if args.group:
        return tube.tube_from_group(_group_by_name(args.group))
    text = _read_file(args.file)
    files[args.file] = text
    try:
        return tube.tube_from_text(text, verify=False)
    except (ParseError, ValueError) as exc:
        raise InputError(f"tube file rejected: {exc}")


def cmd_tube(args, report):
    algebra = _build_tube(args, report.files)
    results = report.results
    results.update(name=algebra.name, dim=algebra.dim(),
                   corners=len(algebra.corners))
    identities = None
    if args.verify:
        identities = tube.verify_identities(algebra)
        results["identities"] = {
            check: {"count": identities.counts[check],
                    "failures": [str(f) for f in fails]}
            for check, fails in identities.failures.items()
        }
        results["all_passed"] = identities.all_passed
        for check, notes in identities.notes.items():
            for note in notes:
                report.warnings.append(f"{check}: {note}")
        _raise_on_failure(identities)
    if args.homology is not None:
        _tube_homology(args, report, algebra, args.homology, identities)


def _raise_on_failure(identities):
    if not identities.all_passed:
        check, first = identities.first_failure()
        raise VerificationFailure(f"{check} fails at {first}")


def _tube_homology(args, report, algebra, degree, identities=None):
    """Fill the homology results and diagnostics.  A file algebra is
    verified first, once (identities is the --verify report if any):
    both homology methods need d . d = 0."""
    if not 0 <= degree <= 3:
        raise InputError("homology degree must be within 0..3")
    if args.file and identities is None:
        _raise_on_failure(tube.verify_identities(algebra))
    rep = tube.trivial_homology(algebra, degree, chain_cap=args.chain_cap)
    report.results["homology"] = {
        "degrees": list(range(degree + 1)), "dims": list(rep.dims),
        "chain_dims": list(rep.chain_dims)}
    report.diagnostics["homology"] = {
        "method": rep.method,
        "tau_p": None if rep.tau_p is None else str(rep.tau_p)}


def cmd_homology_tube(args, report):
    algebra = _build_tube(args, report.files)
    report.results["name"] = algebra.name
    _tube_homology(args, report, algebra, args.degree)


def cmd_homology_tlj(args, report):
    for flag, value, low in (("--h0", args.h0, 0), ("--h1", args.h1, 0),
                             ("--h2", args.h2, 1),
                             ("--margin", args.margin, 0)):
        if value is not None and value < low:
            raise InputError(f"{flag} {value}: must be >= {low}")
    results = report.results
    if args.h0 is not None:
        results["h0"] = {"window": args.h0, "dimension":
                         annular.h0_report(args.h0)}
    if args.h1 is not None:
        rep = annular.h1_vanishing_check(args.h1)
        results["h1"] = {
            "K": rep["K"], "window": rep["window"],
            "contained": rep["contained"],
            "certificates": {str(m): entry["certificate"]
                             for m, entry in rep["per_m"].items()},
        }
        if not rep["contained"]:
            raise VerificationFailure("h1 containment failed")
    if args.h2 is not None:
        rep = annular.h2_vanishing_check(args.h2, margin=args.margin,
                                         diagram_cap=args.diagram_cap)
        results["h2"] = {
            "N": args.h2, "margin": args.margin,
            "window": rep["window"],
            "kernel_dim": rep["kernel_dim"],
            "contained": rep["contained"],
            "columns_used": rep["columns_used"],
            "columns_available": rep["columns_available"],
            "failing_vectors": rep["failing_vectors"],
        }
        report.diagnostics["h2"] = {"method": rep["method"],
                                    "cycles": rep["cycles"],
                                    **rep.get("graded", {})}


def cmd_betti(args, report):
    chosen = [name for name in ("fuss_catalan", "tlj")
              if getattr(args, name) is not None] + ["point"] * args.point
    if len(chosen) != 1:
        raise InputError("choose exactly one of --fuss-catalan/--tlj/--point")
    try:
        if args.fuss_catalan is not None:
            n, m = args.fuss_catalan
            flag = f"--fuss-catalan {n} {m}"
            profile = betti.fuss_catalan(n, m)
            provenance = f"fuss-catalan({n},{m})"
        elif args.tlj is not None:
            flag = f"--tlj {args.tlj}"
            profile = betti.tlj_profile(args.tlj)
            provenance = f"tlj({args.tlj})"
        else:
            profile = betti.point_profile()
            provenance = "point"
    except ValueError as exc:
        raise InputError(f"{flag}: {exc}")
    report.results.update(betti.profile_to_json(profile, provenance))
    report.warnings.extend(profile.warnings)


def _ladder_window(build, width, delta, width_flag, delta_flag):
    """build(width, delta) for a verdict: a loop value, if given, must be
    finite and keep every dimension of the window positive."""
    try:
        window = build(width, delta)
    except ValueError as exc:
        raise InputError(f"{width_flag} {width}: {exc}")
    if delta is not None and not math.isfinite(delta):
        raise InputError(f"{delta_flag} {delta}: must be finite")
    if window.dims and not all(v > 0 for v in window.dims.values()):
        raise InputError(f"{delta_flag} {delta}: the {width_flag} {width} "
                         "window has a dimension that is not positive")
    return window


def cmd_amenability(args, report):
    results = report.results
    if args.graph:
        if args.check in ("kesten", "both") and args.ladder_delta is None:
            raise InputError("kesten needs a fusion ring window; "
                             "use --ladder-delta or --check folner")
        text = _read_file(args.graph)
        report.files[args.graph] = text
        try:
            graph = amenability.graph_from_text(text)
        except ValueError as exc:
            raise InputError(f"graph file rejected: {exc}")
    elif args.ladder_delta is not None:
        graph = None
    else:
        raise InputError("choose --ladder-delta or --graph")

    if args.check in ("kesten", "both") and args.ladder_delta is not None:
        window = _ladder_window(amenability.tlj_kesten_window, args.window,
                                args.ladder_delta, "--window",
                                "--ladder-delta")
        rep = amenability.kesten_check(window, "f1")
        results["kesten"] = {
            "generator": "f1",
            "window": rep["window"],
            "norm_lower": str(rep["norm_lower"]),
            "norm_upper": str(rep["norm_upper"]),
            "dimension": rep["dimension"],
            "amenable": rep["amenable"],
        }
    if args.check in ("folner", "both"):
        if graph is None:
            window = _ladder_window(
                amenability.tlj_kesten_window, args.folner_window,
                args.ladder_delta, "--folner-window", "--ladder-delta")
            try:
                graph = amenability.from_fusion_ring(window, ["f1"])
            except ValueError as exc:
                raise InputError(f"--folner-window {args.folner_window}: "
                                 f"{exc}")
        if not args.epsilon > 0:
            raise InputError(f"--epsilon {args.epsilon}: must be positive")
        try:
            rep = amenability.folner_search(graph, epsilon=args.epsilon,
                                            max_size=args.max_size)
        except ValueError as exc:
            raise InputError(f"--max-size {args.max_size}: {exc}")
        results["folner"] = {
            "epsilon": rep.epsilon,
            "found": rep.found,
            "ratio": rep.ratio,
            "set_size": len(rep.set),
            "set": [str(v) for v in rep.set],
        }
        if not rep.found:
            report.warnings.append("no Folner witness within max_size; "
                                   "best ratio reported")
    if results.get("kesten", {}).get("amenable", False) is None:
        raise Inconclusive("kesten norm bounds contain the dimension; Kesten "
                           "alone cannot prove amenability")


def cmd_verify_all(args, report):
    cfg = {}
    if args.chain_cap is not None:
        cfg["chain_cap"] = args.chain_cap
    if args.diagram_cap is not None:
        cfg["diagram_cap"] = args.diagram_cap
    if args.tube_file:
        text = _read_file(args.tube_file)
        report.files[args.tube_file] = text
        cfg["tube_file"] = text
    rows = acceptance.run_all(**cfg)
    summary = {status.lower(): sum(r["status"] == status for r in rows)
               for status in ("PASS", "FAIL", "INCONCLUSIVE")}
    report.results["criteria"] = [
        {k: row[k] for k in ("criterion", "title", "status", "detail")}
        for row in rows]
    report.results["summary"] = summary
    report.timing["per_criterion_ms"] = {row["criterion"]: row["runtime_ms"]
                                         for row in rows}
    if summary["fail"]:
        raise VerificationFailure(f"{summary['fail']} criteria failed")
    if summary["inconclusive"]:
        raise Inconclusive(f"{summary['inconclusive']} criteria inconclusive")


# ---------------------------------------------------------------------------
# report assembly and rendering
# ---------------------------------------------------------------------------

def _make_report(command, params, report, t0, error=None):
    out = {
        "command": command,
        "version": __version__,
        "inputs": _inputs_block(params, report.files),
        "results": report.results,
    }
    if report.diagnostics:
        out["diagnostics"] = report.diagnostics
    out["warnings"] = report.warnings
    out["timing"] = {"runtime_ms": int((time.perf_counter() - t0) * 1000),
                     **report.timing}
    if error is not None:
        out["error"] = {"type": type(error).__name__, "message": str(error)}
    return out


def _render(report) -> str:
    lines = [f"{report['command']} (fusionhom {report['version']})"]
    results = report["results"]
    if report["command"] == "verify-all" and "criteria" in results:
        for row in results["criteria"]:
            lines.append(f"{row['status']:<13} {row['criterion']:<22} "
                         f"{row['detail']}")
        s = results["summary"]
        lines.append(f"summary: {s['pass']} pass, {s['fail']} fail, "
                     f"{s['inconclusive']} inconclusive")
    else:
        lines.extend(_render_block(results, ""))
    for w in report["warnings"]:
        lines.append(f"warning: {w}")
    lines.append(f"runtime: {report['timing']['runtime_ms']} ms")
    return "\n".join(lines)


def _render_block(value, indent):
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{indent}{k}:")
                lines.extend(_render_block(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {_fmt(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.extend(_render_block(v, indent + "  "))
            else:
                lines.append(f"{indent}- {_fmt(v)}")
    else:
        lines.append(f"{indent}{_fmt(value)}")
    return lines


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v) and len(v) <= 8
    return False


def _fmt(v):
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)


COMMAND_BODIES = {
    "fusion": cmd_fusion,
    "tube": cmd_tube,
    "homology-tube": cmd_homology_tube,
    "homology-tlj": cmd_homology_tlj,
    "betti": cmd_betti,
    "amenability": cmd_amenability,
    "verify-all": cmd_verify_all,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fusionhom",
        description="fusion rings, tube algebras, annular homology, "
                    "Betti profiles, amenability checks")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="print the JSON report instead of the table")
    common.add_argument("--out", metavar="PATH",
                        help="also write the JSON report to PATH")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("fusion", help="build and verify a fusion ring")
    p.add_argument("--tlj", type=_intarg, help="even TLJ ring at index n")
    p.add_argument("--group", help="group ring, e.g. Z2, S3, D4")
    p.add_argument("--ladder", type=_intarg, help="ladder window width")
    p.add_argument("--delta", type=float, help="loop value for the ladder")
    p.add_argument("--ladder-cap", type=_intarg,
                   help="bound on the rows (width^2) a --ladder window "
                        f"stores (default {fusion.LADDER_CAP})")
    p.add_argument("--ring", help="ring file path")
    p.add_argument("--verify", action="store_true")

    p = add_parser("tube", help="tube algebra identities")
    p.add_argument("--group", help="group name, e.g. S3")
    p.add_argument("--file", help="tube algebra file")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--homology", type=_intarg,
                   help="also compute trivial homology up to this degree")
    p.add_argument("--chain-cap", type=_intarg, default=tube.CHAIN_CAP)

    p = add_parser("homology-tube", help="bar homology of a tube algebra")
    p.add_argument("--group")
    p.add_argument("--file")
    p.add_argument("--degree", type=_intarg, default=2)
    p.add_argument("--chain-cap", type=_intarg, default=tube.CHAIN_CAP)

    p = add_parser("homology-tlj", help="annular homology checks")
    p.add_argument("--h0", type=_intarg, nargs="?", const=5,
                   help="degree-0 dimension on this window")
    p.add_argument("--h1", type=_labelled_intarg("K"), metavar="K",
                   help="check sigma_m boundaries for m <= K")
    p.add_argument("--h2", type=_labelled_intarg("N"), metavar="N",
                   help="check degree-2 kernel containment at total <= N")
    p.add_argument("--margin", type=_intarg, default=2)
    p.add_argument("--diagram-cap", type=_intarg,
                   default=annular.DIAGRAM_CAP)

    p = add_parser("betti", help="L2-Betti profiles")
    p.add_argument("--fuss-catalan", nargs=2, type=_n_or_inf,
                   metavar=("N", "M"))
    p.add_argument("--tlj", type=_n_or_inf, metavar="N")
    p.add_argument("--point", action="store_true")

    p = add_parser("amenability", help="Kesten and Folner checks")
    p.add_argument("--ladder-delta", type=float,
                   help="loop parameter delta of the ladder window")
    p.add_argument("--window", type=_intarg, default=4096,
                   help="window for the Kesten lower bound")
    p.add_argument("--graph", help="graph file path (Folner only)")
    p.add_argument("--check", choices=("kesten", "folner", "both"),
                   default="both")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--max-size", type=_intarg, default=200)
    p.add_argument("--folner-window", type=_intarg, default=224,
                   help="ladder window width for the Folner graph")

    p = add_parser("verify-all", help="run the full acceptance matrix")
    p.add_argument("--chain-cap", type=_intarg)
    p.add_argument("--diagram-cap", type=_intarg)
    p.add_argument("--tube-file", help="extra tube file to verify")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except InputError as exc:
        print(f"fusionhom: error: {exc}", file=sys.stderr)
        return 1
    # a bare homology-tlj runs --h0; set before the echo reads it
    if (args.command == "homology-tlj"
            and args.h0 is None and args.h1 is None and args.h2 is None):
        args.h0 = 5
    # the parameter echo is every parsed flag, spelled as on the command
    # line; --json and --out only choose where the report goes
    params = {dest.replace("_", "-"): value
              for dest, value in vars(args).items()
              if dest not in ("command", "json", "out")}
    t0 = time.perf_counter()
    report = Report()
    code, error = 0, None
    try:
        # a negative cap caps nothing: reject it before any work
        for dest in ("chain_cap", "diagram_cap", "ladder_cap"):
            cap = getattr(args, dest, None)
            if cap is not None and cap < 0:
                raise InputError(f"--{dest.replace('_', '-')} {cap}: "
                                 "must be >= 0")
        COMMAND_BODIES[args.command](args, report)
    except (InputError, ParseError, InvariantViolation) as exc:
        # bad input: nothing computed counts, only the files read
        code, error, report = 1, exc, Report(files=report.files)
    except VerificationFailure as exc:
        code, error = 2, exc
        report.warnings.append(f"verification failed: {exc}")
    except Inconclusive as exc:
        code, error = 3, exc
        report.warnings.append(f"inconclusive: {exc}")
    _emit(_make_report(args.command, params, report, t0, error), args)
    return code


def _emit(report, args):
    payload = json.dumps(report, indent=2, default=str)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    if args.json:
        print(payload)
    else:
        print(_render(report))
        if "error" in report:
            err = report["error"]
            print(f"error: {err['type']}: {err['message']}")


if __name__ == "__main__":
    sys.exit(main())
