"""Command-line entry point.

Subcommands: ``psi`` (compute the series pair), ``verify`` (classical,
braiding and transport suites), ``eval`` (psi computed in an algebra's
matrices), ``table validate`` and ``omega``.  Text output uses the
canonical interchange grammar shared with the library, so identical
invocations are byte-identical and golden files can be diffed.
``--format json`` and ``table validate`` write through
:func:`qjacobi.jsontext.dumps`, whose text is exactly that of
``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline.

Exit codes: 0 success, 1 a verified identity failed, 2 bad arguments
(an ``--out`` path that cannot be written is one), 3 unreadable or
invalid table/algebra input, 4 an internal invariant failed (an
``EngineError``, ``ScalarError`` or ``MatrixError``: a defect of the
program, not of the input).

``main`` can be called many times in one process.  The process builds
the parser once (:func:`build_parser` is cached), each algebra preset
with its validated operators once (:func:`qjacobi.liealg.algebra_ops`)
and the built-in table once.  All else it keeps is in
:class:`qjacobi.ncalg.Kept` stores, each keyed by exactly what its
values read and bounded by one constant: Psi pairs, free and in an
algebra's matrices, by table content and letters
(``psiengine.CACHED_TABLES``); transport terms' normal forms and steps
by factors (``transport.KEPT_TERMS``); transport reports by identity,
what they read and step budget (``transport.KEPT_REPORTS``); the
classical, structure, braiding and spectral reports of a preset, on its
operators (``liealg.KEPT_OPS_REPORTS``); and tables parsed from files,
by path and bytes (``deformation.CACHED_FILES``).  A value whose work
raised is not kept, so a call's output, trace and errors are those of a
fresh process, as each module sets out.  Table and algebra files are
read on every call; an algebra file is built and validated on every
call and keeps no report past it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import jsontext
from .deformation import TableError, load_table
from .hseries import SeriesError
from .liealg import (
    AlgebraError,
    algebra_ops,
    omega_report,
    structure_report,
    verify_classical,
    verify_sigma_rmatrix,
)
from .matrices import MatrixError
from .ncalg import ScalarError, WordError
from .psiengine import EngineError, compute_psi, compute_psi_in
from .transport import TransportError, verify_identity

__all__ = ["main"]

TRANSPORT_IDENTITIES = ("4.3a", "4.3b", "4.4", "4.5", "5.1a", "5.1b", "sigma_h_def")


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


def _json_text(doc) -> str:
    return jsontext.dumps(doc)


def cmd_psi(args) -> int:
    if args.golden and args.format == "json":
        raise ValueError("--golden conflicts with --format json")
    table = load_table(args.table)
    pair = compute_psi(table, args.order)
    if args.format == "json" and not args.golden:
        doc = {
            "order": pair.order,
            "table": pair.table_id,
            "psi": pair.psi.to_json(),
            "psi_inv": pair.psi_inv.to_json(),
        }
        _emit(_json_text(doc), args.out)
    else:
        lines = ["psi:", pair.psi.to_text(), "psi_inv:", pair.psi_inv.to_text()]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_eval(args) -> int:
    table = load_table(args.table)
    # A bad algebra file exits before any work on Ψ; a bad table first.
    ops = algebra_ops(args.algebra)
    series = compute_psi_in(table, args.order, ops.Omega12, ops.Omega23).psi
    if args.format == "json":
        doc = {
            "algebra": ops.alg.name,
            "order": series.order,
            "coeffs": [m.to_json() for m in series.coeffs],
        }
        _emit(_json_text(doc), args.out)
    else:
        _emit(series.to_text() + "\n", args.out)
    return 0


def _collect_verify_reports(args):
    reports = []
    if args.suite in ("classical", "rmatrix", "all"):
        ops = algebra_ops(args.algebra)
        if args.suite in ("classical", "all"):
            classical = verify_classical(ops)
            structure = structure_report(ops)
            reports.append(("classical", classical.to_json()))
            reports.append(("structure", structure.to_json()))
        if args.suite in ("rmatrix", "all"):
            reports.append(("rmatrix", verify_sigma_rmatrix(ops, args.order).to_json()))
    if args.suite in ("transport", "all"):
        names = TRANSPORT_IDENTITIES if args.identity == "all" else (args.identity,)
        table = load_table(args.table)
        for name in names:
            report = verify_identity(name, table=table, order=args.order)
            reports.append((f"transport:{name}", report.to_json()))
    return reports


def cmd_verify(args) -> int:
    reports = _collect_verify_reports(args)
    all_passed = all(doc["passed"] for _, doc in reports)
    if args.format == "json":
        _emit(_json_text({"passed": all_passed, "reports": dict(reports)}), args.out)
    else:
        lines = []
        for name, doc in reports:
            if "checks" in doc:
                for check in doc["checks"]:
                    status = "PASS" if check["passed"] else "FAIL"
                    detail = f"  {check['detail']}" if check["detail"] else ""
                    lines.append(f"{status} {name}:{check['name']}{detail}")
            else:
                status = "PASS" if doc["passed"] else "FAIL"
                lines.append(f"{status} {name}")
        lines.append("OK" if all_passed else "FAILED")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_passed else 1


def cmd_table(args) -> int:
    # A table with any problem is refused where it is built (TableError,
    # exit 3), so every table that loads is valid.
    table = load_table(args.path)
    doc = {
        "source": table.source,
        "valid": True,
        "degrees": table.degrees(),
        "missing_below_max": table.missing_below_max(),
        "problems": [],
    }
    _emit(_json_text(doc), args.out)
    return 0


def cmd_omega(args) -> int:
    ops = algebra_ops(args.algebra)
    report = omega_report(ops)
    if args.format == "json":
        doc = report.to_json()
        doc["matrix"] = ops.Omega.to_json()
        _emit(_json_text(doc), args.out)
    else:
        lines = [
            f"algebra: {ops.alg.name}",
            f"trace: {report.trace}",
            f"annihilating: {report.factored_text()}",
        ]
        for root, mult, dim in report.factors:
            lines.append(f"eigenvalue {root}: multiplicity {mult}, kernel dimension {dim}")
        lines.append("matrix: " + json.dumps(ops.Omega.to_json()["data"], sort_keys=True))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _order_at_least(least: int, message: str):
    """The ``--order`` type: an integer of at least ``least``."""

    def order(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError("order must be an integer") from None
        if number < least:
            raise argparse.ArgumentTypeError(message)
        return number

    return order


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    :func:`main` call.  It depends on the program text alone, and
    ``parse_args`` keeps no state between calls: each returns a fresh
    namespace, and a usage error exits through ``SystemExit`` without
    changing the parser."""
    parser = argparse.ArgumentParser(
        prog="qjacobi",
        description="Exact computation and verification of the deformed associator identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    psi = sub.add_parser("psi", help="compute the series pair modulo h^N")
    psi.add_argument("--order", "-n", type=_order_at_least(2, "order must be at least 2"), required=True)
    psi.add_argument("--table", default="builtin")
    psi.add_argument("--format", choices=("text", "json"), default="text")
    psi.add_argument("--golden", action="store_true", help="force the canonical text form")
    psi.add_argument("--out")
    psi.set_defaults(func=cmd_psi)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=("classical", "rmatrix", "transport", "all"))
    verify.add_argument("--algebra", default="sl2")
    verify.add_argument("--order", "-n", type=_order_at_least(1, "order must be positive"), default=4)
    verify.add_argument("--identity", choices=TRANSPORT_IDENTITIES + ("all",), default="all")
    verify.add_argument("--table", default="builtin")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out")
    verify.set_defaults(func=cmd_verify)

    ev = sub.add_parser("eval", help="evaluate the series on an algebra")
    ev.add_argument("--algebra", required=True)
    ev.add_argument("--order", "-n", type=_order_at_least(2, "order must be at least 2"), required=True)
    ev.add_argument("--table", default="builtin")
    ev.add_argument("--format", choices=("text", "json"), default="text")
    ev.add_argument("--out")
    ev.set_defaults(func=cmd_eval)

    table = sub.add_parser("table", help="coefficient table utilities")
    table_sub = table.add_subparsers(dest="table_command", required=True)
    validate = table_sub.add_parser("validate", help="validate a table file")
    validate.add_argument("path")
    validate.add_argument("--out")
    validate.set_defaults(func=cmd_table)

    omega = sub.add_parser("omega", help="print the two-site Casimir operator report")
    omega.add_argument("--algebra", required=True)
    omega.add_argument("--format", choices=("text", "json"), default="text")
    omega.add_argument("--out")
    omega.set_defaults(func=cmd_omega)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Exact input and output can hold integers longer than the
    interpreter's limit on int/str conversion, so the command runs with
    that limit lifted, and the limit is restored when it returns; the
    arguments themselves are parsed under the interpreter's limit."""
    parser = build_parser()
    args = parser.parse_args(argv)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (TableError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (EngineError, ScalarError, MatrixError) as exc:
        # Before ValueError: MatrixError is one.
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 4
    except (TransportError, SeriesError, WordError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
