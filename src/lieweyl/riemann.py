"""Left-invariant Riemannian geometry on a metric Lie algebra.

Sign conventions, fixed once for the whole package:

* curvature        ``R(x, y)z = D_[x,y] z - D_x D_y z + D_y D_x z``
* Ricci            ``Ric(x, y) = trace of z -> R(x, z)y``

With this pair of signs a left-invariant hyperbolic metric (``ad_b = k Id`` on
a codimension-one abelian ideal) has ``Ric = -k^2 (n-1) g``, i.e. negative
Einstein constant, which is what the rest of the package expects.

:func:`ricci` computes the Ricci form along two independent routes, the
curvature trace and a structure-constant formula (Killing form plus frame sums
plus the trace vector), and raises :class:`ConsistencyError` if they disagree.
The second route never touches the connection, so agreement is a strong check
on both.

Policy: decide in the orthonormal frame, map back only for output.  The
connection, curvature, both Ricci routes and their cross-check run on the
frame structure constants, where g = I and no solve with g enters, and are
computed once per :class:`MetricLieAlgebra`; input-basis arrays are products
with the Cholesky factor (:meth:`MetricLieAlgebra.from_frame`).  All are
read-only, and :func:`ricci` returns the same object every time.  The Weyl
routes (Weyl-Ricci, Lee form gradient, conformal flatness) and
:func:`codifferential_oneform` read these frame tables too, with t = U^T theta.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import frames
from .algebra import REL_TOL, LieAlgebra, coefficient_tolerance, validate
from .errors import (
    ConsistencyError,
    DimensionError,
    InvalidAlgebraError,
    MetricError,
    NumericInputError,
    StructureError,
)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MetricLieAlgebra:
    """A valid Lie algebra together with a positive definite inner product."""

    algebra: LieAlgebra
    metric: np.ndarray

    def __post_init__(self):
        g = np.array(self.metric, dtype=float)
        n = self.algebra.dim
        if g.shape != (n, n):
            raise StructureError(f"metric must have shape ({n}, {n}), got {g.shape}")
        if not np.isfinite(g).all():
            raise NumericInputError("metric contains NaN or infinity")
        if np.max(np.abs(g - g.T)) > coefficient_tolerance(g):
            raise MetricError("metric is not symmetric", "symmetric")
        try:
            low = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise MetricError("metric is not positive definite", "positive-definite") from None
        if (low.diagonal().min() / low.diagonal().max()) ** 2 < np.finfo(float).eps:
            raise MetricError("metric is singular to working precision", "positive-definite")
        report = validate(self.algebra)
        if not report.ok:
            first = report.violations[0]
            error = InvalidAlgebraError(
                f"structure constants are not a Lie algebra: first violation "
                f"{first.kind} at {first.indices} with magnitude {first.magnitude:.3e} "
                f"({len(report.violations)} total)"
            )
            error.violations = report.violations
            raise error
        g.setflags(write=False)
        object.__setattr__(self, "metric", g)
        object.__setattr__(self, "_cholesky", low)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def c(self) -> np.ndarray:
        return self.algebra.c

    @cached_property
    def frame(self) -> np.ndarray:
        """Columns: the g-orthonormal frame U = L^-T of the kept Cholesky factor L."""
        return _read_only(np.linalg.inv(self._cholesky).T)

    @cached_property
    def frame_structure(self) -> np.ndarray:
        """Structure constants in the orthonormal :attr:`frame` (slots by U, U, L)."""
        return _read_only(frames.tensor_in_basis(self.c, self.frame, self._cholesky, upper=1))

    @cached_property
    def frame_algebra(self) -> LieAlgebra:
        """:attr:`frame_structure` as a :class:`LieAlgebra` (``almost_abelian.decompose``)."""
        return LieAlgebra(self.frame_structure)

    def from_frame(self, tensor: np.ndarray, upper: int = 0) -> np.ndarray:
        """Input-basis components of a tensor given in the :attr:`frame`, the
        last ``upper`` slots vectors (slots by L^T, vectors by U^T = L^-1)."""
        return frames.tensor_in_basis(tensor, self._cholesky.T, self.frame.T, upper)

    @cached_property
    def structure_scale(self) -> float:
        """lam, the c-sized scale of frame quantities and the unit of every
        scale-free test: the frame norm of the structure constants, or 1 on
        an abelian algebra."""
        norm = float(np.linalg.norm(self.frame_structure))
        return norm if norm > 0.0 else 1.0

    @cached_property
    def frame_connection(self) -> np.ndarray:
        """The Levi-Civita table in the :attr:`frame`; see :func:`levi_civita`."""
        cf = self.frame_structure
        return _read_only(0.5 * (cf - np.einsum("jki->ijk", cf) - np.einsum("ikj->ijk", cf)))

    @cached_property
    def connection(self) -> ConnectionTable:
        """The Levi-Civita table; see :func:`levi_civita`."""
        return ConnectionTable(_read_only(self.from_frame(self.frame_connection, upper=1)))

    @cached_property
    def frame_curvature(self) -> CurvatureData:
        """Curvature data in the :attr:`frame`, Ricci-checked there; see :func:`ricci`."""
        riem = _curvature(self.frame_structure, self.frame_connection)
        ric = ricci_trace(riem)
        oracle = frame_besse_ricci(self)
        gap = float(np.linalg.norm(ric - oracle))
        bound = REL_TOL * self.curvature_scale(float(np.linalg.norm(ric)))
        if gap > bound:
            raise ConsistencyError(
                f"curvature-trace Ricci and structure-constant (Besse) Ricci differ by "
                f"{gap:.3e} in frame norm, above the tolerance {bound:.3e}"
            )
        return CurvatureData(riem=_read_only(riem), ricci=_read_only(ric),
                             scalar=float(np.trace(ric)), besse=_read_only(oracle))

    @cached_property
    def curvature_data(self) -> CurvatureData:
        """:attr:`frame_curvature` mapped back to the input basis."""
        riem, ric, scalar, besse = self.frame_curvature
        ric, besse = (_read_only(self.from_frame(form)) for form in (ric, besse))
        return CurvatureData(_read_only(self.from_frame(riem, upper=1)), ric, scalar, besse)

    def curvature_scale(self, size: float) -> float:
        """lam^2 + ``size``, the curvature-sized scale, ``size`` the frame norm
        of the compared form; lam^2 carries the rounding of products of two
        structure constants where that form vanishes."""
        return self.structure_scale**2 + size

    def lower_vector(self, x: np.ndarray) -> np.ndarray:
        return self.metric @ np.asarray(x, dtype=float)

    def covector_norm(self, theta: np.ndarray) -> float:
        """g-norm of a covector: the norm of its frame components U^T theta."""
        return float(np.linalg.norm(self.frame.T @ np.asarray(theta, dtype=float)))


def change_basis(m: MetricLieAlgebra, basis: np.ndarray) -> MetricLieAlgebra:
    """The same geometry expressed in a new basis (columns of ``basis``)."""
    basis = np.asarray(basis, dtype=float)
    return MetricLieAlgebra(
        LieAlgebra(frames.structure_in_basis(m.c, basis)),
        frames.form_in_basis(m.metric, basis),
    )


class ConnectionTable(NamedTuple):
    """gamma[i, j, k] = coefficient of e_k in (derivative of e_j along e_i)."""

    gamma: np.ndarray


class CurvatureData(NamedTuple):
    riem: np.ndarray  # (1,3) tensor, riem[i, j, k, l]: e_l component of R(e_i, e_j)e_k
    ricci: np.ndarray
    scalar: float
    besse: np.ndarray | None = None  # the structure-constant Ricci it was checked against


def levi_civita(m: MetricLieAlgebra) -> ConnectionTable:
    """Torsion-free metric connection from the Koszul formula.

    On a Lie algebra with a left-invariant metric the Koszul formula reduces
    to  g(D_x y, z) = (g([x,y],z) - g(x,[y,z]) - g(y,[x,z])) / 2, the table
    itself in the frame (no solve with g).  Computed once per algebra, read-only.
    """
    return m.connection


def torsion_residual(m: MetricLieAlgebra, table: ConnectionTable) -> float:
    gamma = table.gamma
    return float(np.max(np.abs(gamma - np.einsum("ijk->jik", gamma) - m.c)))


def compatibility_residual(m: MetricLieAlgebra, table: ConnectionTable) -> float:
    """Max violation of g(D_i e_j, e_k) + g(e_j, D_i e_k) = 0."""
    dg = np.einsum("ijm,mk->ijk", table.gamma, m.metric)
    return float(np.max(np.abs(dg + np.einsum("ikj->ijk", dg))))


def curvature(m: MetricLieAlgebra, table: ConnectionTable) -> np.ndarray:
    """(1,3) curvature tensor of any connection table on ``m``'s algebra."""
    return _curvature(m.c, table.gamma)


def _curvature(c: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    return (
        np.einsum("ijm,mkl->ijkl", c, gamma)
        - np.einsum("jkm,iml->ijkl", gamma, gamma)
        + np.einsum("ikm,jml->ijkl", gamma, gamma)
    )


def ricci_trace(riem: np.ndarray) -> np.ndarray:
    """Ricci form as the trace Ric(x, y) = tr(z -> R(x, z)y)."""
    return np.einsum("imjm->ij", riem)


def besse_ricci(m: MetricLieAlgebra) -> np.ndarray:
    """Ricci form from structure constants alone, bypassing the connection:
    :func:`frame_besse_ricci` mapped back to the input basis."""
    return m.from_frame(frame_besse_ricci(m))


def frame_besse_ricci(m: MetricLieAlgebra) -> np.ndarray:
    """The structure-constant Ricci form in the orthonormal frame (Besse 7.38):
    Ric = P - B/2 - (ad_z + ad_z^T)/2, B the Killing form, z_i = tr ad_{e_i}
    and P(x, y) = sum_{i,k} ( -<e_i,[x,e_k]> <e_i,[y,e_k]> / 2
                              + <x,[e_i,e_k]> <y,[e_i,e_k]> / 4 )."""
    cf = m.frame_structure
    p = -0.5 * np.einsum("aki,bki->ab", cf, cf) + 0.25 * np.einsum("ika,ikb->ab", cf, cf)
    ads = np.einsum("ijk->ikj", cf)  # ads[i] = matrix of ad_{e_i}
    killing = np.einsum("ipq,jqp->ij", ads, ads)
    ad_z = np.einsum("i,ijk->kj", np.einsum("ijj->i", cf), cf)
    return p - 0.5 * killing - 0.5 * (ad_z + ad_z.T)


def ricci(m: MetricLieAlgebra) -> CurvatureData:
    """Curvature, Ricci form and scalar curvature with a built-in cross-check.

    Raises :class:`ConsistencyError` if the curvature-trace Ricci and the
    structure-constant Ricci (kept as ``besse``) disagree beyond ``REL_TOL``
    times the curvature-sized scale lam^2 + |Ric|, compared in the frame.
    Computed and checked once per algebra; the arrays are read-only.
    """
    return m.curvature_data


def einstein_defect(m: MetricLieAlgebra) -> float:
    """Frame norm of the trace-free Ricci part; zero exactly for Einstein."""
    if m.dim < 3:
        raise DimensionError("Einstein defect needs dimension at least 3")
    data = m.frame_curvature
    return float(np.linalg.norm(data.ricci - (data.scalar / m.dim) * np.eye(m.dim)))


def codifferential_oneform(m: MetricLieAlgebra, theta: np.ndarray) -> float:
    """Codifferential of a left-invariant one-form: tr ad_T with T = g-dual,
    whose frame components are those of theta, U^T theta."""
    t = m.frame.T @ np.asarray(theta, dtype=float)
    return float(np.einsum("ijj->i", m.frame_structure) @ t)


def codifferential_sym2(
    m: MetricLieAlgebra, table: ConnectionTable, form: np.ndarray
) -> np.ndarray:
    """Codifferential of a symmetric bilinear form, as a standard-basis covector.

    (delta h)(y) = -sum_i (D_{f_i} h)(f_i, y) over an orthonormal frame; for a
    constant-coefficient form this expands into connection terms only.
    """
    gf = frames.tensor_in_basis(table.gamma, m.frame, m._cholesky, upper=1)
    hf = frames.form_in_basis(form, m.frame)
    delta_frame = np.einsum("aam,mb->b", gf, hf) + np.einsum("abm,am->b", gf, hf)
    return m.from_frame(delta_frame)
