"""Catalog of 3-dimensional solvable metric Lie algebras.

Bracket families on the basis (x, y, z):

* ``abelian``   all brackets zero
* ``sol``       [z,x] = x,  [z,y] = -y
* ``so2r2``     [z,x] = -y, [z,y] = x          (rotations acting on the plane)
* ``ridr2``     [z,x] = x,  [z,y] = y          (identity acting on the plane)
* ``gt``        [z,x] = y,  [z,y] = -t x + 2y  (t > 1, or t = 0)

Metric families: ``std`` identity; ``gnu`` diag(1,1,nu); ``gmunu``
diag(1,mu,nu); ``hmunu`` with h(x,x)=1, h(x,y)=1, h(y,y)=mu, h(z,z)=nu
(positive definite only for mu > 1); ``mnu`` with m(x,y)=1/2 off-diagonal in
the plane and m(z,z)=nu.

Only the family/metric pairings that appear in the classification of which
unimodular pairs admit a Weyl-Einstein structure are constructible; this
keeps the closed-form membership table and the numeric solver comparable on
every valid input.  :func:`admits_weyl_einstein` evaluates both, raises
:class:`ConsistencyError` if they ever disagree, and otherwise returns the one
verdict they share with the solver's Lee forms.
"""
from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from . import almost_abelian, weyl
from .algebra import REL_TOL, LieAlgebra, structure_flags
from .errors import (
    ConsistencyError,
    DimensionError,
    InputError,
    MetricError,
    NoNormalFormError,
    PreconditionError,
)
from .riemann import MetricLieAlgebra


class BracketFamily(enum.Enum):
    ABELIAN = "abelian"
    SOL = "sol"
    SO2R2 = "so2r2"
    R_ID_R2 = "ridr2"
    GT = "gt"


class MetricFamily(enum.Enum):
    STD = "std"
    G_NU = "gnu"
    G_MU_NU = "gmunu"
    H_MU_NU = "hmunu"
    M_NU = "mnu"


class Family3D(NamedTuple):
    """One catalog point: bracket family, metric family and parameters."""

    family: BracketFamily
    metric_family: MetricFamily
    t: float = 0.0
    mu: float = 1.0
    nu: float = 1.0


_VALID_METRICS = {
    BracketFamily.ABELIAN: {MetricFamily.STD},
    BracketFamily.SOL: {
        MetricFamily.STD,
        MetricFamily.G_NU,
        MetricFamily.G_MU_NU,
        MetricFamily.H_MU_NU,
        MetricFamily.M_NU,
    },
    BracketFamily.R_ID_R2: {MetricFamily.G_NU},
    BracketFamily.SO2R2: {MetricFamily.G_MU_NU},
}


def _check_point(point: Family3D) -> None:
    for name in ("t", "mu", "nu"):
        value = getattr(point, name)
        if not math.isfinite(value):
            raise InputError(f"parameter {name} must be finite")
    fam, mf = point.family, point.metric_family

    if fam is BracketFamily.GT:
        if not (point.t == 0.0 or point.t > 1.0 + REL_TOL):
            raise InputError("gt bracket family needs t = 0 or t > 1")
        if point.t == 0.0:
            allowed = {MetricFamily.G_MU_NU, MetricFamily.M_NU}
        else:
            allowed = {MetricFamily.H_MU_NU}
    else:
        if point.t != 0.0:
            raise InputError("parameter t is only meaningful for the gt family")
        allowed = _VALID_METRICS[fam]
    if mf not in allowed:
        raise InputError(
            f"metric family {mf.value!r} is not in the catalog for bracket family {fam.value!r}"
        )

    if mf in (MetricFamily.G_NU, MetricFamily.G_MU_NU, MetricFamily.H_MU_NU, MetricFamily.M_NU):
        if point.nu <= 0:
            raise InputError("parameter nu must be positive")
    if mf in (MetricFamily.G_MU_NU, MetricFamily.H_MU_NU):
        if point.mu <= 0:
            raise InputError("parameter mu must be positive")
    if fam is BracketFamily.SO2R2 and point.mu > 1.0 + REL_TOL:
        raise InputError("so2r2 catalog metrics need mu <= 1")
    if fam is BracketFamily.GT and point.t > 1.0 and point.mu > point.t + REL_TOL * (1 + point.t):
        raise InputError("gt catalog metrics need mu <= t")


def _metric_matrix(point: Family3D) -> np.ndarray:
    mf = point.metric_family
    if mf is MetricFamily.STD:
        return np.eye(3)
    if mf is MetricFamily.G_NU:
        return np.diag([1.0, 1.0, point.nu])
    if mf is MetricFamily.G_MU_NU:
        return np.diag([1.0, point.mu, point.nu])
    if mf is MetricFamily.H_MU_NU:
        return np.array([[1.0, 1.0, 0.0], [1.0, point.mu, 0.0], [0.0, 0.0, point.nu]])
    return np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, point.nu]])


def _bracket_table(point: Family3D) -> dict:
    fam = point.family
    if fam is BracketFamily.ABELIAN:
        return {}
    if fam is BracketFamily.SOL:
        return {(0, 2): (-1.0, 0.0, 0.0), (1, 2): (0.0, 1.0, 0.0)}
    if fam is BracketFamily.SO2R2:
        return {(0, 2): (0.0, 1.0, 0.0), (1, 2): (-1.0, 0.0, 0.0)}
    if fam is BracketFamily.R_ID_R2:
        return {(0, 2): (-1.0, 0.0, 0.0), (1, 2): (0.0, -1.0, 0.0)}
    return {(0, 2): (0.0, -1.0, 0.0), (1, 2): (point.t, -2.0, 0.0)}


def build_family(point: Family3D) -> MetricLieAlgebra:
    """Construct the metric Lie algebra of a valid catalog point.

    Parameter combinations outside the catalog, including metric parameters
    that fail positive definiteness, raise :class:`InputError`.
    """
    _check_point(point)
    algebra = LieAlgebra.from_brackets(3, _bracket_table(point))
    try:
        return MetricLieAlgebra(algebra, _metric_matrix(point))
    except MetricError as exc:
        raise InputError(f"metric parameters are out of range: {exc}") from exc


def table_admits(point: Family3D) -> bool:
    """Closed-form membership test: does this catalog point admit a
    Weyl-Einstein structure?  Evaluated from the classification table alone,
    without any numerics."""
    _check_point(point)
    fam = point.family
    if fam is BracketFamily.ABELIAN:
        return True
    if fam is BracketFamily.SOL:
        return False
    if fam is BracketFamily.R_ID_R2:
        return True
    if fam is BracketFamily.SO2R2:
        return abs(point.mu - 1.0) <= REL_TOL
    if point.t == 0.0:
        return point.metric_family is MetricFamily.M_NU
    return abs(point.mu - point.t) <= REL_TOL * (1.0 + point.t)


class Verdict3D(NamedTuple):
    """The verdict the table and the solver agree on, and the solver's Lee forms."""

    admits: bool
    lee_forms: tuple


def admits_weyl_einstein(point: Family3D) -> Verdict3D:
    """Evaluate a catalog point with both the table and the numeric solver.

    A disagreement raises :class:`ConsistencyError`; it would mean either a
    solver completeness failure or a wrong table entry.  So a returned
    ``admits`` is the verdict of both.
    """
    m = build_family(point)
    by_table = table_admits(point)
    roots = weyl.solve_lee_forms(m).roots
    by_solver = bool(roots)
    if by_table != by_solver:
        raise ConsistencyError(
            f"table and solver disagree on {point} (table {by_table}, solver {by_solver})"
        )
    return Verdict3D(admits=by_table, lee_forms=roots)


class FrameKind(enum.Enum):
    """How ad of the normal direction acts on the ideal in the adapted frame."""

    SIMILARITY = "similarity"  # scaling plus rotation: [[k, l], [-l, k]]
    RANK_ONE = "rank-one"  # single stretched line: diag(alpha, 0)


class AdaptedFrame3D(NamedTuple):
    """Adapted orthonormal frame (columns: normal, u, v) with its invariants.

    SIMILARITY: [b,u] = k u - l v, [b,v] = l u + k v with l >= 0.
    RANK_ONE:   [b,u] = alpha u, [b,v] = 0 with alpha != 0.
    """

    kind: FrameKind
    basis: np.ndarray
    k: float = 0.0
    l: float = 0.0
    alpha: float = 0.0


def adapted_frame(m: MetricLieAlgebra) -> AdaptedFrame3D:
    """Orthonormal normal form of a 3-dimensional solvable algebra that
    admits a Weyl-Einstein structure.

    Raises :class:`NoNormalFormError` when the algebra admits none, and
    :class:`PreconditionError` when it is not solvable or not almost abelian
    in a compatible way.
    """
    if m.dim != 3:
        raise DimensionError("adapted frames are defined for dimension 3")
    if not structure_flags(m.algebra).solvable:
        raise PreconditionError("adapted frames need a solvable algebra")
    dec = almost_abelian.decompose(m)
    cls = almost_abelian.classify_weyl_einstein(dec, m)
    if cls.case is almost_abelian.WEClass.NO_WE:
        raise NoNormalFormError("no Weyl-Einstein structure, hence no adapted frame")

    b = dec.normal

    if cls.case is almost_abelian.WEClass.EINSTEIN_FAMILY:
        k = cls.coefficient
        l = float(dec.skew[0, 1])
        u, v = dec.ideal_basis
        if l < 0:
            v = -v
            l = -l
        basis = np.column_stack([b, u, v])
        _verify_bracket(m, b, u, k * u - l * v)
        _verify_bracket(m, b, v, l * u + k * v)
        return AdaptedFrame3D(kind=FrameKind.SIMILARITY, basis=basis, k=k, l=l)

    eigvals, eigvecs = np.linalg.eigh(dec.sym)
    order = np.argsort(np.abs(eigvals))
    zero_i, alpha_i = order[0], order[1]
    alpha = float(eigvals[alpha_i])
    h = dec.ideal_basis.T  # columns
    u = almost_abelian._first_significant_positive(h @ eigvecs[:, alpha_i])
    v = almost_abelian._first_significant_positive(h @ eigvecs[:, zero_i])
    basis = np.column_stack([b, u, v])
    _verify_bracket(m, b, u, alpha * u)
    _verify_bracket(m, b, v, np.zeros(3))
    return AdaptedFrame3D(kind=FrameKind.RANK_ONE, basis=basis, alpha=alpha)


def _verify_bracket(m, x, y, expected):
    gap = float(np.max(np.abs(m.algebra.bracket(x, y) - expected)))
    bound = REL_TOL * m.structure_scale
    if gap > bound:
        raise ConsistencyError(
            f"adapted frame bracket from the structure constants and from the normal form "
            f"differ by {gap:.3e} in max norm (tolerance {bound:.3e})"
        )
