"""Command line interface.

Subcommands operate on MLA files (see :mod:`lieweyl.mla`) and print report
records to stdout.  The five file commands share one path: read the
document, build the command's record sections in order, emit.  ``report``
is the other four sections, with an almost abelian section that marks an
algebra without a codimension-one abelian ideal instead of failing;
``catalog3d`` writes a document instead of reading one.  Exit codes: 0
success, 1 domain failure (well-formed input without the requested
structure, or an internal consistency alarm), 2 malformed input (bad files,
bad parameters, usage errors).  The process entry point also exits 1, with
one ``error:`` line, when stdout cannot be written (a full disk, a pipe whose
reader has closed), argparse's ``--help`` text included.
:func:`entrypoint` freezes the heap before the process exits, so that the
collections at interpreter shutdown skip everything made at import;
:func:`main` does not, so library and test callers keep their collector as
it was.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys

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
    dec = almost_abelian.decompose(m)
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


def _cmd_catalog3d(args) -> str:
    rows, metrics = catalog3d._ROWS, catalog3d._METRICS
    row, t = rows[args.family], args.t
    if row.takes_t:
        if t is None:
            raise InputError(f"family {args.family} needs --t")
    elif t not in (None, 0.0):
        t_row = next(name for name, other in rows.items() if other.takes_t)
        if row.family is rows[t_row].family:
            raise InputError(f"family {args.family} fixes t = 0")
        raise InputError(f"--t only applies to the {t_row} family")
    else:
        t = 0.0

    mu_flags = list(dict.fromkeys(spec.flag for spec in metrics.values() if "mu" in spec.params))
    if args.mu is not None and args.metric not in mu_flags:
        raise InputError(f"--mu only applies to --metric {' or '.join(mu_flags)}")
    # the metric families of the flag, by whether they read mu
    variants = {"mu" in spec.params: mf for mf, spec in metrics.items() if spec.flag == args.metric}
    if args.nu is not None and not any("nu" in metrics[mf].params for mf in variants.values()):
        raise InputError(f"--nu does not apply to --metric {args.metric}")
    if (args.mu is not None) not in variants:
        raise InputError(f"--metric {args.metric} needs --mu")
    metric = variants[args.mu is not None]

    point = catalog3d.Family3D(
        family=row.family,
        metric_family=metric,
        t=float(t),
        mu=float(args.mu) if args.mu is not None else 1.0,
        nu=float(args.nu) if args.nu is not None else 1.0,
    )
    m, verdict = catalog3d._evaluate(point)

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
        p.set_defaults(run=_run_file_command, sections=sections)

    add_file_command("validate", "check a document and print structure flags", _validate_records)
    add_file_command("curvature", "connection, Ricci (both routes), scalar, Einstein defect",
                     _curvature_records)
    add_file_command("weyl-solve", "find all Weyl-Einstein Lee forms", _weyl_records)
    add_file_command("aa-classify", "almost abelian decomposition and classification",
                     _aa_records)

    p = sub.add_parser("catalog3d", help="emit a 3D catalog member with its verdict")
    p.add_argument("--family", choices=sorted(catalog3d._ROWS), required=True)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--metric", required=True,
                   choices=tuple(dict.fromkeys(spec.flag for spec in catalog3d._METRICS.values())))
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
    """Run :func:`main` as a process: the ``lieweyl`` command and
    ``python -m lieweyl``."""
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse's own exits: --help, usage errors
            code = exc.code
        sys.stdout.flush()  # a failed write surfaces here, not at shutdown
    except OSError as exc:
        # a full disk or a closed pipe: point stdout at devnull, as the Python
        # docs' note on SIGPIPE says, so that the flush at shutdown cannot
        # raise again with what is still buffered
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        code = 1
    # Shutdown runs full cyclic collections over every object that numpy and
    # lieweyl made at import; frozen objects sit in the permanent generation,
    # which they skip.  Refcount teardown, atexit handlers and the flushes of
    # stdout and stderr still run.
    gc.freeze()
    raise SystemExit(code)
