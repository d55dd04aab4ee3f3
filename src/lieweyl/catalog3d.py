"""Catalog of 3-dimensional solvable metric Lie algebras.

The catalog is one table, ``_ROWS`` with ``_BRACKETS`` and ``_METRICS``:
the bracket/metric pairings in the classification of which unimodular pairs
admit a Weyl-Einstein structure (cf. Milnor 1976; Ha & Lee, Math. Nachr. 282
(2009)), each with its closed-form verdict.  Brackets are on the basis
(x, y, z), and the gt family is split at t = 0 and t > 1::

    row      [z,x]  [z,y]      t     metric family: admits
    abelian  0      0          0     std: yes
    sol      x      -y         0     std, gnu, gmunu, hmunu, mnu: no
    so2r2    -y     x          0     gmunu, mu <= 1: at mu = 1
    ridr2    x      y          0     gnu: yes
    g0       y      2y         0     gmunu: no; mnu: yes
    gt       y      -t x + 2y  > 1   hmunu, mu <= t: at mu = t

Metric families: ``std`` identity; ``gnu`` diag(1,1,nu); ``gmunu``
diag(1,mu,nu); ``hmunu`` with h(x,x)=1, h(x,y)=1, h(y,y)=mu, h(z,z)=nu
(positive definite only for mu > 1); ``mnu`` with m(x,y)=1/2 off-diagonal in
the plane and m(z,z)=nu.  Each reads the parameters in its name, which must
be positive.  t is compared with 1 at ``REL_TOL``, and mu with its cap at
``REL_TOL`` (1 + t).  The row names are the ``lieweyl catalog3d --family``
names, and ``--metric`` is a metric family's name without its parameters.

Only these pairings are constructible, so the table and the numeric solver
are comparable on every valid input.  :func:`admits_weyl_einstein` evaluates
both, raises :class:`ConsistencyError` if they ever disagree, and otherwise
returns the one verdict they share with the solver's Lee forms.
"""
from __future__ import annotations

import enum
import math
from typing import Callable, NamedTuple

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


_BRACKETS = {
    BracketFamily.ABELIAN: lambda t: {},
    BracketFamily.SOL: lambda t: {(0, 2): (-1.0, 0.0, 0.0), (1, 2): (0.0, 1.0, 0.0)},
    BracketFamily.SO2R2: lambda t: {(0, 2): (0.0, 1.0, 0.0), (1, 2): (-1.0, 0.0, 0.0)},
    BracketFamily.R_ID_R2: lambda t: {(0, 2): (-1.0, 0.0, 0.0), (1, 2): (0.0, -1.0, 0.0)},
    BracketFamily.GT: lambda t: {(0, 2): (0.0, -1.0, 0.0), (1, 2): (t, -2.0, 0.0)},
}


class _Metric(NamedTuple):
    """A metric family: its ``--metric`` name, the parameters it reads, its matrix."""

    flag: str
    params: tuple
    matrix: Callable[[Family3D], np.ndarray]


_METRICS = {
    MetricFamily.STD: _Metric("std", (), lambda p: np.eye(3)),
    MetricFamily.G_NU: _Metric("g", ("nu",), lambda p: np.diag([1.0, 1.0, p.nu])),
    MetricFamily.G_MU_NU: _Metric("g", ("mu", "nu"), lambda p: np.diag([1.0, p.mu, p.nu])),
    MetricFamily.H_MU_NU: _Metric(
        "h", ("mu", "nu"), lambda p: np.array([[1.0, 1.0, 0.0], [1.0, p.mu, 0.0], [0.0, 0.0, p.nu]])
    ),
    MetricFamily.M_NU: _Metric(
        "m", ("nu",), lambda p: np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, p.nu]])
    ),
}


class _Row(NamedTuple):
    """A bracket family on its window of t (t > 1 if ``takes_t``, else t = 0), with
    each metric family it pairs with and its verdict: True, False, or the cap
    ("1" or "t") that bounds mu and is the one mu that admits."""

    family: BracketFamily
    pairings: dict
    takes_t: bool = False


_ROWS = {
    "abelian": _Row(BracketFamily.ABELIAN, {MetricFamily.STD: True}),
    "sol": _Row(BracketFamily.SOL, dict.fromkeys(MetricFamily, False)),
    "so2r2": _Row(BracketFamily.SO2R2, {MetricFamily.G_MU_NU: "1"}),
    "ridr2": _Row(BracketFamily.R_ID_R2, {MetricFamily.G_NU: True}),
    "g0": _Row(BracketFamily.GT, {MetricFamily.G_MU_NU: False, MetricFamily.M_NU: True}),
    "gt": _Row(BracketFamily.GT, {MetricFamily.H_MU_NU: "t"}, takes_t=True),
}


def table_admits(point: Family3D) -> bool:
    """Closed-form membership test: does this catalog point admit a
    Weyl-Einstein structure?  Evaluated from the classification table alone,
    without any numerics; a point off the catalog raises :class:`InputError`."""
    for name in ("t", "mu", "nu"):
        if not math.isfinite(getattr(point, name)):
            raise InputError(f"parameter {name} must be finite")
    fam, mf = point.family, point.metric_family
    row = next((row for row in _ROWS.values() if row.family is fam
                and (point.t > 1.0 + REL_TOL if row.takes_t else point.t == 0.0)), None)
    if row is None:
        raise InputError(f"{fam.value} bracket family needs t = 0 or t > 1"
                         if any(r.takes_t and r.family is fam for r in _ROWS.values())
                         else "parameter t is only meaningful for the gt family")
    if mf not in row.pairings:
        raise InputError(
            f"metric family {mf.value!r} is not in the catalog for bracket family {fam.value!r}"
        )
    for name in ("nu", "mu"):
        if name in _METRICS[mf].params and getattr(point, name) <= 0:
            raise InputError(f"parameter {name} must be positive")
    rule = row.pairings[mf]
    if not isinstance(rule, str):
        return rule
    cap, tol = (point.t if rule == "t" else float(rule)), REL_TOL * (1 + point.t)
    if point.mu > cap + tol:
        raise InputError(f"{fam.value} catalog metrics need mu <= {rule}")
    return abs(point.mu - cap) <= tol


def build_family(point: Family3D) -> MetricLieAlgebra:
    """Construct the metric Lie algebra of a valid catalog point.

    Parameter combinations outside the catalog, including metric parameters
    that fail positive definiteness, raise :class:`InputError`.
    """
    table_admits(point)
    return _construct(point)


def _construct(point: Family3D) -> MetricLieAlgebra:
    """The metric Lie algebra of a point that :func:`table_admits` accepted."""
    algebra = LieAlgebra.from_brackets(3, _BRACKETS[point.family](point.t))
    try:
        return MetricLieAlgebra(algebra, _METRICS[point.metric_family].matrix(point))
    except MetricError as exc:
        raise InputError(f"metric parameters are out of range: {exc}") from exc


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
    return _evaluate(point)[1]


def _evaluate(point: Family3D) -> tuple[MetricLieAlgebra, Verdict3D]:
    """The algebra of a catalog point and its verdict, from one table
    evaluation, one construction and one solve of that algebra."""
    by_table = table_admits(point)
    m = _construct(point)
    roots = weyl.solve_lee_forms(m).roots
    by_solver = bool(roots)
    if by_table != by_solver:
        raise ConsistencyError(
            f"table and solver disagree on {point} (table {by_table}, solver {by_solver})"
        )
    return m, Verdict3D(admits=by_table, lee_forms=roots)


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
