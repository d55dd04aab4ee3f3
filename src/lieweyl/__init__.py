"""Left-invariant Riemannian and conformal geometry on metric Lie algebras.

Structure constants and an inner product go in; curvature, Einstein defects,
Weyl-Einstein Lee forms, almost abelian classifications and 3-dimensional
catalog verdicts come out.  See the module docstrings for conventions.

The namespace is lazy (PEP 562): ``import lieweyl`` loads neither numpy nor
any submodule.  A public name, or a submodule such as ``lieweyl.weyl``,
imports its submodule when it is first read, so a command pays only for the
modules it runs.
"""
import sys as _sys

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "algebra": (
            "LieAlgebra", "StructureFlags", "ValidityReport", "Violation", "ad",
            "structure_flags", "validate",
        ),
        "almost_abelian": (
            "AAClassification", "AADecomposition", "WEClass", "build_semidirect",
            "classify_weyl_einstein", "conformal_metric_flatness", "curvature_closed_form",
            "decompose", "trace_case_instance",
        ),
        "catalog3d": (
            "AdaptedFrame3D", "BracketFamily", "Family3D", "FrameKind", "MetricFamily",
            "Verdict3D", "adapted_frame", "admits_weyl_einstein", "build_family",
            "table_admits",
        ),
        "errors": (
            "ConsistencyError", "DimensionError", "InputError", "InvalidAlgebraError",
            "LieweylError", "MetricError", "MlaParseError", "NoNormalFormError",
            "NotAlmostAbelianError", "NotClosedError", "NumericInputError",
            "PreconditionError", "StructureError",
        ),
        "mla": (
            "MlaDocument", "ReportRecord", "emit_mla", "emit_report", "parse_mla",
            "parse_records",
        ),
        "riemann": (
            "ConnectionTable", "CurvatureData", "MetricLieAlgebra", "besse_ricci",
            "change_basis", "codifferential_oneform", "curvature", "einstein_defect",
            "levi_civita", "ricci",
        ),
        "weyl": (
            "FaradayForm", "FlatnessReport", "SolveResult", "WEResidual", "WeylStructure",
            "conformal_flatness", "faraday", "kulkarni_nomizu", "solve_lee_forms",
            "weyl_connection", "weyl_einstein_residual", "weyl_ricci",
        ),
    }.items()
    for name in names
}
# the submodules readable as attributes: the exporting ones, and ``frames``,
# which ``riemann`` builds on
_SUBMODULES = frozenset(_EXPORTS.values()) | {"frames"}

__all__ = sorted(_EXPORTS.keys() | _SUBMODULES)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ takes the import statement's path, which -X importtime
    # lists; importlib.import_module's path is not listed
    qualified = f"{__name__}.{module or name}"
    __import__(qualified)
    submodule = _sys.modules[qualified]
    return getattr(submodule, name) if module else submodule


def __dir__():
    return sorted(globals().keys() | set(__all__))
