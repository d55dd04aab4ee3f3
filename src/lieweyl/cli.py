"""Command line interface.

Subcommands operate on MLA files (see :mod:`lieweyl.mla`) and print report
records to stdout.  The five file commands share one path: read the
document, build the command's record sections in order, emit.  ``report``
is the other four sections, with an almost abelian section that marks an
algebra without a codimension-one abelian ideal instead of failing;
``catalog3d`` writes a document instead of reading one.  Exit codes: 0
success, 1 domain failure (well-formed input without the requested
structure, or an internal consistency alarm), 2 malformed input (bad files,
bad parameters, usage errors).
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import almost_abelian, catalog3d, mla, riemann, weyl
from .algebra import REL_TOL, structure_flags
from .errors import InputError, LieweylError, NotAlmostAbelianError
from .mla import MlaDocument, ReportRecord


def _run_file_command(args) -> str:
    """Read the document, build the command's record sections in order, emit."""
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {args.file}: {exc}") from exc
    m = mla.parse_mla(text).to_metric_lie_algebra()
    records = []
    for section in args.sections:
        records += section(m, args)
    return mla.emit_report(records, args.format)


def _validate_records(m: riemann.MetricLieAlgebra, args) -> list[ReportRecord]:
    flags = structure_flags(m.algebra)
    return [
        ReportRecord("algebra.dim", m.dim),
        ReportRecord("algebra.ok", True),  # construction validated the algebra
        ReportRecord("flags.solvable", flags.solvable),
        ReportRecord("flags.nilpotent", flags.nilpotent),
        ReportRecord("flags.abelian", flags.abelian),
        ReportRecord("flags.unimodular", flags.unimodular),
        ReportRecord("flags.derived_dim", flags.derived_dim),
        ReportRecord("flags.center_dim", flags.center_dim),
    ]


def _curvature_records(m: riemann.MetricLieAlgebra, args) -> list[ReportRecord]:
    table = riemann.levi_civita(m)
    data = riemann.ricci(m)
    records = [
        ReportRecord("ricci.matrix", data.ricci),
        ReportRecord("ricci.besse", data.besse),
        ReportRecord("ricci.scalar", data.scalar),
        ReportRecord("einstein.defect", riemann.einstein_defect(m)),
    ]
    for i in range(m.dim):
        records.append(ReportRecord(f"connection.gamma[{i + 1}]", table.gamma[i]))
    return records


def _weyl_records(m: riemann.MetricLieAlgebra, args) -> list[ReportRecord]:
    result = weyl.solve_lee_forms(m)
    records = [ReportRecord("weyl.root_count", len(result.roots))]
    for idx, (root, residual) in enumerate(zip(result.roots, result.residuals)):
        far = weyl.faraday(m, root)
        records.append(ReportRecord(f"weyl.roots[{idx}]", root))
        records.append(ReportRecord(f"weyl.roots[{idx}].residual", residual))
        records.append(ReportRecord(f"weyl.roots[{idx}].closed", far.closed))
        records.append(ReportRecord(f"weyl.roots[{idx}].exact", far.exact))
    return records


def _aa_records(m: riemann.MetricLieAlgebra, args) -> list[ReportRecord]:
    hint = _parse_ideal_option(args.ideal, m.dim) if args.ideal else None
    dec = almost_abelian.decompose(m, hint=hint)
    cls = almost_abelian.classify_weyl_einstein(dec, m)
    records = [
        ReportRecord("aa.normal", dec.normal),
        ReportRecord("aa.skew", dec.skew),
        ReportRecord("aa.sym", dec.sym),
        ReportRecord("aa.unique_ideal", dec.unique_ideal),
        ReportRecord("aa.case", cls.case.value),
        ReportRecord("aa.coefficient", cls.coefficient),
        ReportRecord("aa.root_count", len(cls.lee_forms)),
    ]
    for idx, row in enumerate(dec.ideal_basis):
        records.append(ReportRecord(f"aa.ideal[{idx}]", row))
    for idx, root in enumerate(cls.lee_forms):
        records.append(ReportRecord(f"aa.lee_forms[{idx}]", root))
        records.append(
            ReportRecord(f"aa.lee_forms[{idx}].residual", weyl.weyl_einstein_residual(m, root).norm)
        )
        if m.covector_norm(root) > REL_TOL * m.structure_scale:
            flat = almost_abelian.conformal_metric_flatness(dec, m, root)
            records.append(ReportRecord(f"aa.lee_forms[{idx}].flat", flat))
    return records


def _report_aa_records(m: riemann.MetricLieAlgebra, args) -> list[ReportRecord]:
    """The almost abelian section of ``report``, which marks an algebra
    without a codimension-one abelian ideal instead of failing."""
    try:
        records = _aa_records(m, args)
    except NotAlmostAbelianError:
        return [ReportRecord("aa.almost_abelian", False)]
    return [ReportRecord("aa.almost_abelian", True)] + records


def _parse_ideal_option(text: str, dim: int) -> np.ndarray:
    rows = []
    for chunk in text.split(";"):
        parts = [p for p in chunk.replace(",", " ").split() if p]
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise InputError(f"cannot parse --ideal entry {chunk!r}") from exc
    if len(rows) != dim - 1 or any(len(row) != dim for row in rows):
        raise InputError(
            f"--ideal needs {dim - 1} rows of {dim} numbers separated by ';', "
            f"got rows of {[len(row) for row in rows]} numbers"
        )
    return np.array(rows, dtype=float)


_FAMILIES = {
    "abelian": catalog3d.BracketFamily.ABELIAN,
    "sol": catalog3d.BracketFamily.SOL,
    "so2r2": catalog3d.BracketFamily.SO2R2,
    "ridr2": catalog3d.BracketFamily.R_ID_R2,
    "gt": catalog3d.BracketFamily.GT,
    "g0": catalog3d.BracketFamily.GT,
}


def _cmd_catalog3d(args) -> str:
    family = _FAMILIES[args.family]
    t = args.t
    if args.family == "g0":
        if t not in (None, 0.0):
            raise InputError("family g0 fixes t = 0")
        t = 0.0
    elif args.family == "gt":
        if t is None:
            raise InputError("family gt needs --t")
    else:
        if t not in (None, 0.0):
            raise InputError("--t only applies to the gt family")
        t = 0.0

    if args.mu is not None and args.metric not in ("g", "h"):
        raise InputError("--mu only applies to --metric g or h")
    if args.nu is not None and args.metric == "std":
        raise InputError("--nu does not apply to --metric std")
    if args.metric == "std":
        metric = catalog3d.MetricFamily.STD
    elif args.metric == "g":
        metric = catalog3d.MetricFamily.G_MU_NU if args.mu is not None else catalog3d.MetricFamily.G_NU
    elif args.metric == "h":
        metric = catalog3d.MetricFamily.H_MU_NU
    else:
        metric = catalog3d.MetricFamily.M_NU

    point = catalog3d.Family3D(
        family=family,
        metric_family=metric,
        t=float(t),
        mu=float(args.mu) if args.mu is not None else 1.0,
        nu=float(args.nu) if args.nu is not None else 1.0,
    )
    m = catalog3d.build_family(point)
    verdict = catalog3d.admits_weyl_einstein(point)

    records = [
        ReportRecord("cl3.admits", verdict.admits),
        ReportRecord("cl3.root_count", len(verdict.lee_forms)),
    ]
    for idx, root in enumerate(verdict.lee_forms):
        records.append(ReportRecord(f"cl3.roots[{idx}]", root))
    if verdict.admits:
        frame = catalog3d.adapted_frame(m)
        records.append(ReportRecord("normalform.kind", frame.kind.value))
        if frame.kind is catalog3d.FrameKind.SIMILARITY:
            records.append(ReportRecord("normalform.k", frame.k))
            records.append(ReportRecord("normalform.l", frame.l))
        else:
            records.append(ReportRecord("normalform.alpha", frame.alpha))
        records.append(ReportRecord("normalform.basis", frame.basis))

    doc = MlaDocument.from_metric_lie_algebra(m)
    comments = "".join(
        f"# {line}\n" for line in mla.emit_report(records, "records").splitlines()
    )
    return mla.emit_mla(doc) + comments


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieweyl",
        description="Left-invariant curvature and Weyl-Einstein structures on metric Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file_command(name, help_text, *sections):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="MLA document")
        p.add_argument(
            "--format", choices=("text", "records"), default="text",
            help="output style: aligned text or machine-readable records",
        )
        p.set_defaults(run=_run_file_command, sections=sections, ideal=None)
        return p

    add_file_command("validate", "check a document and print structure flags", _validate_records)
    add_file_command("curvature", "connection, Ricci (both routes), scalar, Einstein defect",
                     _curvature_records)
    add_file_command("weyl-solve", "find all Weyl-Einstein Lee forms", _weyl_records)
    p = add_file_command("aa-classify", "almost abelian decomposition and classification",
                         _aa_records)
    p.add_argument(
        "--ideal", default=None,
        help="optional ideal hint: rows separated by ';', numbers by spaces or commas",
    )

    p = sub.add_parser("catalog3d", help="emit a 3D catalog member with its verdict")
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--metric", choices=("std", "g", "h", "m"), required=True)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.set_defaults(run=_cmd_catalog3d)

    add_file_command("report", "full report: flags, curvature, Weyl solve, classification",
                     _validate_records, _curvature_records, _weyl_records, _report_aa_records)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        sys.stdout.write(args.run(args))
    except InputError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except LieweylError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    raise SystemExit(main())
