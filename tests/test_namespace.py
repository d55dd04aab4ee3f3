"""The package namespace: every public name resolves from its submodule, and
``import lieweyl`` itself loads nothing."""
import importlib
import subprocess
import sys

import pytest

import lieweyl

# the names that ``from lieweyl import *`` binds: the public API and the
# submodules that expose it
EXPORTED = [
    "AAClassification", "AADecomposition", "AdaptedFrame3D", "BracketFamily",
    "ConnectionTable", "ConsistencyError", "CurvatureData", "DimensionError", "Family3D",
    "FaradayForm", "FlatnessReport", "FrameKind", "InputError", "InvalidAlgebraError",
    "LieAlgebra", "LieweylError", "MetricError", "MetricFamily", "MetricLieAlgebra",
    "MlaDocument", "MlaParseError", "NoNormalFormError", "NotAlmostAbelianError",
    "NotClosedError", "NumericInputError", "PreconditionError", "ReportRecord", "SolveResult",
    "StructureError", "StructureFlags", "ValidityReport", "Verdict3D", "Violation", "WEClass",
    "WEResidual", "WeylStructure", "ad", "adapted_frame", "admits_weyl_einstein", "algebra",
    "almost_abelian", "besse_ricci", "build_family", "build_semidirect", "catalog3d",
    "change_basis", "classify_weyl_einstein", "codifferential_oneform", "conformal_flatness",
    "conformal_metric_flatness", "curvature", "curvature_closed_form", "decompose",
    "einstein_defect", "emit_mla", "emit_report", "errors", "faraday", "frames",
    "kulkarni_nomizu", "levi_civita", "mla", "parse_mla", "parse_records", "ricci", "riemann",
    "solve_lee_forms", "structure_flags", "table_admits", "trace_case_instance", "validate",
    "weyl", "weyl_connection", "weyl_einstein_residual", "weyl_ricci",
]
# in an order where no submodule imports a later one, so that each is first
# reached through the namespace
SUBMODULES = ["frames", "errors", "algebra", "riemann", "weyl", "almost_abelian", "mla",
              "catalog3d"]


def _fresh(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_is_the_exported_names():
    assert lieweyl.__all__ == EXPORTED
    assert set(lieweyl.__all__) <= set(dir(lieweyl))


def test_public_names_are_their_submodule_attributes():
    assert len(lieweyl._EXPORTS) == 67
    for name, module in lieweyl._EXPORTS.items():
        assert getattr(lieweyl, name) is getattr(importlib.import_module(f"lieweyl.{module}"), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'solve'"):
        getattr(lieweyl, "solve")


def test_star_import_binds_the_exported_names():
    namespace = {}
    exec("from lieweyl import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == EXPORTED
    assert namespace["weyl"] is lieweyl.weyl
    assert namespace["MetricLieAlgebra"] is lieweyl.riemann.MetricLieAlgebra


def test_import_loads_neither_numpy_nor_a_submodule():
    out = _fresh(
        "import sys\n"
        "import lieweyl\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name == 'numpy' or name.startswith('lieweyl.')))\n"
    )
    assert out == "[]\n"


def test_submodules_resolve_as_attributes():
    out = _fresh(
        "import sys\n"
        "import lieweyl\n"
        f"for name in {SUBMODULES!r}:\n"
        "    assert name not in vars(lieweyl), name\n"
        "    assert getattr(lieweyl, name) is sys.modules['lieweyl.' + name], name\n"
        "print('ok')\n"
    )
    assert out == "ok\n"


def test_a_namespace_read_is_listed_by_importtime():
    # CI greps -X importtime for lieweyl.catalog3d to show that a file
    # command never loads it; that holds only if the lazy path is listed too
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import lieweyl; lieweyl.errors; lieweyl.Verdict3D"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    listed = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()}
    assert {"lieweyl.errors", "lieweyl.catalog3d"} <= listed
