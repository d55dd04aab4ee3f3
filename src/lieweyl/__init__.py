"""Left-invariant Riemannian and conformal geometry on metric Lie algebras.

Structure constants and an inner product go in; curvature, Einstein defects,
Weyl-Einstein Lee forms, almost abelian classifications and 3-dimensional
catalog verdicts come out.  See the module docstrings for conventions.
"""
from .algebra import (
    LieAlgebra,
    StructureFlags,
    ValidityReport,
    Violation,
    ad,
    structure_flags,
    validate,
)
from .almost_abelian import (
    AAClassification,
    AADecomposition,
    WEClass,
    build_semidirect,
    classify_weyl_einstein,
    conformal_metric_flatness,
    curvature_closed_form,
    decompose,
    trace_case_instance,
)
from .catalog3d import (
    AdaptedFrame3D,
    BracketFamily,
    Family3D,
    FrameKind,
    MetricFamily,
    Verdict3D,
    adapted_frame,
    admits_weyl_einstein,
    build_family,
    table_admits,
)
from .errors import (
    ConsistencyError,
    DimensionError,
    InputError,
    InvalidAlgebraError,
    LieweylError,
    MetricError,
    MlaParseError,
    NoNormalFormError,
    NotAlmostAbelianError,
    NotClosedError,
    NumericInputError,
    PreconditionError,
    StructureError,
)
from .mla import MlaDocument, ReportRecord, emit_mla, emit_report, parse_mla, parse_records
from .riemann import (
    ConnectionTable,
    CurvatureData,
    MetricLieAlgebra,
    besse_ricci,
    change_basis,
    codifferential_oneform,
    curvature,
    einstein_defect,
    levi_civita,
    ricci,
)
from .weyl import (
    FaradayForm,
    FlatnessReport,
    SolveResult,
    WEResidual,
    WeylStructure,
    conformal_flatness,
    faraday,
    kulkarni_nomizu,
    solve_lee_forms,
    weyl_connection,
    weyl_einstein_residual,
    weyl_ricci,
)

__version__ = "0.1.0"
