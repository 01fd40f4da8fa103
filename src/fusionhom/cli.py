"""Command-line front end.

Every command builds a JSON report with a stable field order:
command, version, inputs (parameter echo plus file digests), results,
warnings, timing.  The results block is deterministic for a fixed
config; timing lives outside it.  Human-readable output is rendered
from the finished report, never computed separately.

Exit codes: 0 success, 1 input error, 2 verification failure (an
asserted identity failed), 3 inconclusive (caps or truncation).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

from . import __version__, amenability, annular, betti, fusion, tube
from . import acceptance
from .errors import InvariantViolation, ParseError, SizeLimit
from .groups import cyclic, dihedral, symmetric


class InputError(ValueError):
    """Bad flags or unreadable input files."""


class VerificationFailure(RuntimeError):
    """An asserted identity failed; carries the partial results block."""

    def __init__(self, message, results=None, warnings=()):
        super().__init__(message)
        self.results = results
        self.warnings = list(warnings)


class Inconclusive(RuntimeError):
    """Caps or truncation prevented a verdict."""

    def __init__(self, message, results=None, warnings=()):
        super().__init__(message)
        self.results = results
        self.warnings = list(warnings)


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
    """Accept both bare integers and K=10 style values."""
    tail = text.split("=")[-1]
    try:
        return int(tail)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


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
# command bodies: each records the files it reads in `files` and returns
# (results, warnings)
# ---------------------------------------------------------------------------

def _build_ring(args, files):
    chosen = [k for k in ("tlj", "group", "ladder", "ring")
              if getattr(args, k) is not None]
    if len(chosen) != 1:
        raise InputError("choose exactly one of --tlj/--group/--ladder/--ring")
    kind = chosen[0]
    if kind == "group":
        return fusion.relabel(fusion.from_group(_group_by_name(args.group)))
    try:
        if kind == "tlj":
            return fusion.tlj_even(args.tlj)
        if kind == "ladder":
            return fusion.tlj_ladder(args.ladder, delta=args.delta)
    except ValueError as exc:
        raise InputError(f"--{kind} {getattr(args, kind)}: {exc}")
    text = _read_file(args.ring)
    files[args.ring] = text
    try:
        return fusion.ring_from_text(text)
    except (fusion.InvalidRingFile, ParseError, ValueError) as exc:
        raise InputError(f"ring file rejected: {exc}")


def cmd_fusion(args, files):
    ring = _build_ring(args, files)
    warnings = []
    if ring.truncated:
        warnings.append("ring is a truncated window; frontier-touching "
                        "checks are skipped")
    results = {
        "name": ring.name,
        "labels": len(ring.labels),
        "truncated": ring.truncated,
    }
    if ring.dims is not None:
        results["global_index"] = ring.global_index()
        rep = fusion.beta0(ring)
        results["beta0"] = rep.beta0
        if rep.beta0_exact is not None:
            results["beta0_exact"] = str(rep.beta0_exact)
    if args.verify:
        failures = fusion.verify_axioms(ring)
        results["verified"] = not failures
        results["failures"] = failures
        if failures:
            raise VerificationFailure(f"axioms fail: {failures[0]}",
                                      results, warnings)
    return results, warnings


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


def cmd_tube(args, files):
    algebra = _build_tube(args, files)
    warnings = []
    results = {"name": algebra.name, "dim": algebra.dim(),
               "corners": len(algebra.corners)}
    if args.verify:
        rep = tube.verify_identities(algebra)
        results["identities"] = {
            check: {"count": rep.counts[check],
                    "failures": [str(f) for f in fails]}
            for check, fails in rep.failures.items()
        }
        results["all_passed"] = rep.all_passed
        for check, notes in rep.notes.items():
            for note in notes:
                warnings.append(f"{check}: {note}")
        if not rep.all_passed:
            check, first = rep.first_failure()
            raise VerificationFailure(f"{check} fails at {first}",
                                      results, warnings)
    if args.homology is not None:
        results["homology"] = _tube_homology_block(algebra, args.homology,
                                                   args.chain_cap)
    return results, warnings


def _tube_homology_block(algebra, degree, chain_cap):
    if not 0 <= degree <= 3:
        raise InputError("homology degree must be within 0..3")
    rep = tube.trivial_homology(algebra, degree, chain_cap=chain_cap)
    return {"degrees": list(range(degree + 1)),
            "dims": list(rep.dims), "chain_dims": list(rep.chain_dims)}


def cmd_homology_tube(args, files):
    algebra = _build_tube(args, files)
    results = {"name": algebra.name,
               "homology": _tube_homology_block(algebra, args.degree,
                                                args.chain_cap)}
    return results, []


def cmd_homology_tlj(args, files):
    if args.mode != "unshaded":
        raise InputError("homology runs unshaded; shaded diagrams are a "
                         "display convention only")
    warnings = []
    results = {"mode": args.mode}
    if args.h1 is None and args.h2 is None and args.h0 is None:
        args.h0 = 5
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
            raise VerificationFailure("h1 containment failed", results,
                                      warnings)
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
        if not rep["contained"]:
            raise VerificationFailure("h2 containment failed", results,
                                      warnings)
    return results, warnings


def cmd_betti(args, files):
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
    results = betti.profile_to_json(profile, provenance)
    return results, list(profile.warnings)


def _ladder_window(width, delta, flag, generator):
    """Ladder window for both checks; it holds only the f1 rows, and its
    verdicts need a finite loop value and positive dimensions."""
    if not math.isfinite(delta):
        raise InputError(f"--ladder-delta {delta}: must be finite")
    if width < 2:
        raise InputError(f"{flag} {width}: the ladder window needs width >= 2")
    if generator != "f1":
        raise InputError(f"--generator {generator}: the ladder window "
                         "holds only f1")
    window = amenability.tlj_kesten_window(width, delta)
    if not all(v > 0 for v in window.dims.values()):
        raise InputError(f"--ladder-delta {delta}: the {flag} {width} "
                         "window has a dimension that is not positive")
    return window


def cmd_amenability(args, files):
    warnings = []
    results = {}
    if args.graph:
        if args.check in ("kesten", "both") and args.ladder_delta is None:
            raise InputError("kesten needs a fusion ring window; "
                             "use --ladder-delta or --check folner")
        text = _read_file(args.graph)
        files[args.graph] = text
        try:
            graph = amenability.graph_from_text(text)
        except ValueError as exc:
            raise InputError(f"graph file rejected: {exc}")
    elif args.ladder_delta is not None:
        graph = None
    else:
        raise InputError("choose --ladder-delta or --graph")

    if args.check in ("kesten", "both") and args.ladder_delta is not None:
        window = _ladder_window(args.window, args.ladder_delta, "--window",
                                args.generator)
        rep = amenability.kesten_check(window, args.generator)
        results["kesten"] = {
            "generator": args.generator,
            "window": rep["window"],
            "norm_lower": str(rep["norm_lower"]),
            "norm_upper": str(rep["norm_upper"]),
            "dimension": rep["dimension"],
            "amenable": rep["amenable"],
        }
    if args.check in ("folner", "both"):
        if graph is None:
            window = _ladder_window(args.folner_window, args.ladder_delta,
                                    "--folner-window", args.generator)
            try:
                graph = amenability.from_fusion_ring(
                    window, generators=[args.generator])
            except ValueError as exc:
                raise InputError(f"--folner-window {args.folner_window}: "
                                 f"{exc}")
        if args.epsilon <= 0:
            raise InputError(f"--epsilon {args.epsilon}: must be positive")
        try:
            rep = amenability.folner_search(graph, epsilon=args.epsilon,
                                            max_size=args.max_size,
                                            strategy=args.strategy)
        except amenability.TruncationInconclusive as exc:
            raise Inconclusive(str(exc), results, warnings)
        results["folner"] = {
            "strategy": rep.strategy,
            "epsilon": rep.epsilon,
            "found": rep.found,
            "ratio": rep.ratio,
            "best_ratio": rep.best_ratio,
            "set_size": len(rep.set),
            "set": [str(v) for v in rep.set],
        }
        if not rep.found:
            warnings.append("no Folner witness within max_size; "
                            "best ratio reported")
    if results.get("kesten", {}).get("amenable", False) is None:
        raise Inconclusive("kesten norm bounds contain the dimension; Kesten "
                           "alone cannot prove amenability", results, warnings)
    return results, warnings


def cmd_verify_all(args, files):
    cfg = {}
    if args.chain_cap is not None:
        cfg["chain_cap"] = args.chain_cap
    if args.diagram_cap is not None:
        cfg["diagram_cap"] = args.diagram_cap
    if args.tube_file:
        text = _read_file(args.tube_file)
        files[args.tube_file] = text
        cfg["tube_file"] = text
    rows = acceptance.run_all(**cfg)
    results = {
        "criteria": [{k: row[k] for k in ("criterion", "title", "status",
                                          "detail")}
                     for row in rows],
        "summary": {
            "pass": sum(r["status"] == "PASS" for r in rows),
            "fail": sum(r["status"] == "FAIL" for r in rows),
            "inconclusive": sum(r["status"] == "INCONCLUSIVE" for r in rows),
        },
    }
    warnings = []
    timing = {row["criterion"]: row["runtime_ms"] for row in rows}
    if results["summary"]["fail"]:
        raise VerificationFailure(
            f"{results['summary']['fail']} criteria failed", results, warnings)
    if results["summary"]["inconclusive"]:
        raise Inconclusive(
            f"{results['summary']['inconclusive']} criteria inconclusive",
            results, warnings)
    return results, warnings, timing


# ---------------------------------------------------------------------------
# report assembly and rendering
# ---------------------------------------------------------------------------

def _make_report(command, params, files, results, warnings, t0, extra_timing=None):
    timing = {"runtime_ms": int((time.perf_counter() - t0) * 1000)}
    if extra_timing:
        timing["per_criterion_ms"] = extra_timing
    return {
        "command": command,
        "version": __version__,
        "inputs": _inputs_block(params, files),
        "results": results,
        "warnings": warnings,
        "timing": timing,
    }


def _render(report) -> str:
    lines = [f"{report['command']} (fusionhom {report['version']})"]
    results = report["results"] or {}
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


def _params_of(args, names):
    return {name: getattr(args, name.replace("-", "_")) for name in names}


COMMAND_PARAMS = {
    "fusion": ("tlj", "group", "ladder", "delta", "ring", "verify"),
    "tube": ("group", "file", "verify", "homology", "chain-cap"),
    "homology-tube": ("group", "file", "degree", "chain-cap"),
    "homology-tlj": ("mode", "h0", "h1", "h2", "margin", "diagram-cap"),
    "betti": ("fuss-catalan", "tlj", "point"),
    "amenability": ("ladder-delta", "window", "generator", "graph", "check",
                    "epsilon", "max-size", "strategy", "folner-window"),
    "verify-all": ("chain-cap", "diagram-cap", "tube-file"),
}

COMMAND_BODIES = {
    "fusion": cmd_fusion,
    "tube": cmd_tube,
    "homology-tube": cmd_homology_tube,
    "homology-tlj": cmd_homology_tlj,
    "betti": cmd_betti,
    "amenability": cmd_amenability,
    "verify-all": cmd_verify_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionhom",
        description="fusion rings, tube algebras, annular homology, "
                    "Betti profiles, amenability checks")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="print the JSON report instead of the table")
    common.add_argument("--out", metavar="PATH",
                        help="also write the JSON report to PATH")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=argparse.ArgumentParser)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("fusion", help="build and verify a fusion ring")
    p.add_argument("--tlj", type=_intarg, help="even TLJ ring at index n")
    p.add_argument("--group", help="group ring, e.g. Z2, S3, D4")
    p.add_argument("--ladder", type=_intarg, help="ladder window width")
    p.add_argument("--delta", type=float, help="loop value for the ladder")
    p.add_argument("--ring", help="ring file path")
    p.add_argument("--verify", action="store_true")

    p = add_parser("tube", help="tube algebra identities")
    p.add_argument("--group", help="group name, e.g. S3")
    p.add_argument("--file", help="tube algebra file")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--homology", type=_intarg,
                   help="also compute trivial homology up to this degree")
    p.add_argument("--chain-cap", type=_intarg, default=50000)

    p = add_parser("homology-tube", help="bar homology of a tube algebra")
    p.add_argument("--group")
    p.add_argument("--file")
    p.add_argument("--degree", type=_intarg, default=2)
    p.add_argument("--chain-cap", type=_intarg, default=50000)

    p = add_parser("homology-tlj", help="annular homology checks")
    p.add_argument("--mode", choices=("unshaded", "shaded"),
                   default="unshaded")
    p.add_argument("--h0", type=_intarg, nargs="?", const=5,
                   help="degree-0 dimension on this window")
    p.add_argument("--h1", type=_intarg, metavar="K",
                   help="check sigma_m boundaries for m <= K")
    p.add_argument("--h2", type=_intarg, metavar="N",
                   help="check degree-2 kernel containment at total <= N")
    p.add_argument("--margin", type=_intarg, default=2)
    p.add_argument("--diagram-cap", type=_intarg, default=100000)

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
    p.add_argument("--generator", default="f1",
                   help="ladder generator; the ladder window holds only f1")
    p.add_argument("--graph", help="graph file path (Folner only)")
    p.add_argument("--check", choices=("kesten", "folner", "both"),
                   default="both")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--max-size", type=_intarg, default=200)
    p.add_argument("--strategy", choices=("balls", "greedy"),
                   default="balls")
    p.add_argument("--folner-window", type=_intarg, default=224,
                   help="ladder window width for the Folner graph")

    p = add_parser("verify-all", help="run the full acceptance matrix")
    p.add_argument("--chain-cap", type=_intarg)
    p.add_argument("--diagram-cap", type=_intarg)
    p.add_argument("--tube-file", help="extra tube file to verify")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    params = _params_of(args, COMMAND_PARAMS[command])
    t0 = time.perf_counter()
    files = {}
    extra_timing = error = None
    try:
        out = COMMAND_BODIES[command](args, files)
        if command == "verify-all":
            results, warnings, extra_timing = out
        else:
            results, warnings = out
        code = 0
    except (InputError, ParseError, InvariantViolation) as exc:
        code, error, results, warnings = 1, exc, {}, []
    except VerificationFailure as exc:
        code, error, results = 2, exc, exc.results or {}
        warnings = exc.warnings + [f"verification failed: {exc}"]
    except (Inconclusive, SizeLimit,
            amenability.TruncationInconclusive) as exc:
        code, error = 3, exc
        results = getattr(exc, "results", None) or {}
        warnings = getattr(exc, "warnings", []) + [f"inconclusive: {exc}"]
    # every exit path reports the files the command read
    report = _make_report(command, params, files, results, warnings, t0,
                          extra_timing)
    if error is not None:
        report["error"] = {"type": type(error).__name__,
                           "message": str(error)}
    _emit(report, args)
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
