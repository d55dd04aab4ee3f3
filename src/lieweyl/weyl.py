"""Weyl connections and Weyl-Einstein structures on metric Lie algebras.

A Weyl connection attached to a one-form ``theta`` (the Lee form) is the
torsion-free connection

    D_x y = D^g_x y + theta(x) y + theta(y) x - g(x, y) T,

where ``T`` is the g-dual vector of ``theta``; it rescales the metric,
``D g = -2 theta (x) g``, instead of preserving it.  The structure is
Weyl-Einstein when the symmetrised Ricci form of ``D`` is proportional to the
metric; :func:`weyl_einstein_residual` measures the defect and
:func:`solve_lee_forms` finds all Lee forms that make it vanish.  In an
orthonormal frame the defect is a quadratic map E(t) of the Lee form's frame
components, and E = 0 rewrites every polynomial in t into the span of
{1, t_1, ..., t_n, |t|^2 / n}.  So E has at most n + 2 complex roots,
counted with multiplicity, and the range of the Hermite trace form of this
quotient ring holds one evaluation vector per distinct root (Cox, Little &
O'Shea, *Using Algebraic Geometry*, ch. 2).  The solver reads one candidate
per distinct real root from it and polishes each with damped Newton steps on
the squared defect, whose second-order term costs one product because the
defect is quadratic, until it reaches the rounding floor of a root or no
step can lower the defect by more than rounding; a candidate that is not
then a root contradicts the quotient.  A seeded multistart search runs only
on request and when there is no candidate, for the residual infimum and as
a cross-check.  The quadratic map is built once per metric Lie algebra, with
the structure constants scaled to unit frame norm; every solver stage and
every residual evaluation runs on it and maps only its results back, so the
solve is equivariant under rescaling.  What depends on n alone is planned
once per n (:func:`_plan`): the packing and its unpacking gather, the
constant Hessian tables, and the unit entries and commutator pairs of the
quotient's multiplication matrices.

Policy, as in :mod:`riemann`: the Weyl table, the Lee form gradient, both
Weyl-Ricci routes, their cross-checks and the flatness verdicts are decided
on the frame tables with t = U^T theta, the frame components of the Lee form
and of its g-dual vector, and mapped back only for output.  A Lee form is a
plain covector in the standard dual basis everywhere, read-only inside a
:class:`WeylStructure`; its g-norm is ``MetricLieAlgebra.covector_norm``.

Everything here requires dimension at least 3: in lower dimensions the
Weyl-Einstein condition degenerates and none of the formulas below are used.
"""
from __future__ import annotations

import numbers
from collections import namedtuple
from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import riemann
from .algebra import REL_TOL, nullspace, row_space
from .errors import (
    ConsistencyError,
    DimensionError,
    InputError,
    NotClosedError,
    NumericInputError,
    StructureError,
)
from .riemann import ConnectionTable, MetricLieAlgebra, _read_only

DEFAULT_STARTS = 8
DEFAULT_SEED = 0
DEFAULT_ROOT_TOL = 1e-8
FLATNESS_RTOL = 1e-8
MAX_STARTS = 10**5
# The solver's root floor in units of the evaluation scale of E.  A few ulps
# per term would do for E itself, but its constant part inherits the rounding
# of the Ricci form, about 20 ulps of 1 + |Ric| on Ricci-flat almost abelian
# metrics at n = 7; it also bounds the stall rule and the Hermite form's rank.
ROOT_FLOOR_EPS = 32.0 * np.finfo(float).eps


def _as_covector(m: MetricLieAlgebra, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (m.dim,):
        raise StructureError(f"covector must have shape ({m.dim},), got {theta.shape}")
    if not np.isfinite(theta).all():
        raise NumericInputError("covector contains NaN or infinity")
    return theta


class WeylStructure(NamedTuple):
    """A metric Lie algebra, the Lee form as a read-only covector, and the
    table of its Weyl connection."""

    base: MetricLieAlgebra
    lee: np.ndarray
    table: ConnectionTable


def weyl_connection(m: MetricLieAlgebra, theta) -> WeylStructure:
    if m.dim < 3:
        raise DimensionError("Weyl structures need dimension at least 3")
    lee = np.array(_as_covector(m, theta))
    lee.setflags(write=False)
    table = m.from_frame(_frame_weyl_table(m, m.frame.T @ lee), upper=1)
    return WeylStructure(base=m, lee=lee, table=ConnectionTable(table))


def _frame_weyl_table(m: MetricLieAlgebra, t: np.ndarray) -> np.ndarray:
    """The Weyl table in the frame: the Levi-Civita table + t_i d_jk + t_j d_ik - d_ij t_k."""
    eye = np.eye(m.dim)
    return (m.frame_connection + np.einsum("i,jk->ijk", t, eye)
            + np.einsum("j,ik->ijk", t, eye) - np.einsum("ij,k->ijk", eye, t))


class FaradayForm(NamedTuple):
    """Exterior derivative of the Lee form, with closedness/exactness flags.

    For left-invariant forms F(x, y) = -theta([x, y]); the form is closed
    exactly when theta kills the derived subalgebra, so the two flags agree
    (they are computed independently as a cross-check): F in the frame
    against ``REL_TOL`` lam (lam + |theta|), theta on the brackets c[i, j],
    i < j, which span the derived subalgebra, against ``REL_TOL`` |c|
    (|c| + |theta|).  The brackets themselves, not an orthonormal basis of
    their span, keep the exact test as accurate as c on an ill-conditioned
    derived subalgebra.
    """

    matrix: np.ndarray
    closed: bool
    exact: bool


def faraday(m: MetricLieAlgebra, theta) -> FaradayForm:
    theta = _as_covector(m, theta)
    lam = m.structure_scale
    f_frame = np.einsum("ijk,k->ij", m.frame_structure, m.frame.T @ theta)
    closed = bool(np.linalg.norm(f_frame) <= REL_TOL * lam * (lam + m.covector_norm(theta)))
    scale = m.algebra.scale
    brackets = m.c[np.triu_indices(m.dim, 1)]
    exact = bool(np.linalg.norm(brackets @ theta) <= REL_TOL * scale * (scale + np.linalg.norm(theta)))
    return FaradayForm(matrix=-np.einsum("ijk,k->ij", m.c, theta), closed=closed, exact=exact)


def _frame_lee_gradient(m: MetricLieAlgebra, t: np.ndarray) -> np.ndarray:
    return np.einsum("ipm,p->im", m.frame_connection, t)


def _frame_weyl_ricci_formula(m: MetricLieAlgebra, t: np.ndarray) -> tuple[np.ndarray, float]:
    """Ricci form and scalar of the Weyl connection from the base-metric data,
    in the frame: Ric^D = Ric^g - (n-2)(D theta - theta(x)theta) + (delta theta
    - (n-2)|theta|^2) g and its trace; no Weyl curvature tensor is formed."""
    n = m.dim
    cf = m.frame_structure
    grad = _frame_lee_gradient(m, t)

    # self-check: sym(D theta) = -sym(ad_T), c-sized and linear in theta (see faraday)
    ad_t = np.einsum("i,ijk->kj", t, cf)
    gap = float(np.linalg.norm(0.5 * (grad + grad.T + ad_t + ad_t.T)))
    tol = REL_TOL * m.structure_scale * (m.structure_scale + float(np.linalg.norm(t)))
    if gap > tol:
        raise ConsistencyError(
            f"symmetric Lee form gradient from the Levi-Civita table and -sym(ad_T) from "
            f"the structure constants differ by {gap:.3e} in frame norm (tolerance {tol:.3e})"
        )

    base = m.frame_curvature
    delta = float(np.einsum("ijj->i", cf) @ t)  # the codifferential, tr ad_T
    norm_sq = float(t @ t)
    ric = base.ricci - (n - 2) * (grad - np.outer(t, t)) + (delta - (n - 2) * norm_sq) * np.eye(n)
    scalar = base.scalar + 2 * (n - 1) * delta - (n - 1) * (n - 2) * norm_sq
    return ric, scalar


def weyl_ricci(w: WeylStructure) -> tuple[np.ndarray, float]:
    """Ricci form and scalar of a Weyl structure, computed two ways.

    Returns the conformal-geometry Ricci tensor, whose skew part is
    -(n-2)/2 times the Faraday form.  The raw curvature trace of the
    connection table differs from it by exactly one copy of the Faraday
    form, so the trace route is shifted by F before the comparison; a
    mismatch between the two routes raises :class:`ConsistencyError`.  Both
    routes run in the frame, on the base algebra and the Lee form.
    """
    m = w.base
    ric, scalar = _frame_weyl_ricci(m, m.frame.T @ w.lee)
    return m.from_frame(ric), scalar


def _frame_weyl_ricci(m: MetricLieAlgebra, t: np.ndarray) -> tuple[np.ndarray, float]:
    # the curvature trace plus the Faraday form F = -theta([x, y]), all in the frame
    riem = riemann._curvature(m.frame_structure, _frame_weyl_table(m, t))
    ric = riemann.ricci_trace(riem) - np.einsum("ijk,k->ij", m.frame_structure, t)
    scalar = float(np.trace(ric))

    ric_f, scalar_f = _frame_weyl_ricci_formula(m, t)
    tol = REL_TOL * m.curvature_scale(float(np.linalg.norm(ric)))
    gap, scalar_gap = float(np.linalg.norm(ric - ric_f)), abs(scalar - scalar_f)
    if gap > tol or scalar_gap > tol * m.dim:
        raise ConsistencyError(
            f"Weyl Ricci from the connection's curvature trace and from the base-metric "
            f"formula differ by {gap:.3e} in frame norm (tolerance {tol:.3e}) and by "
            f"{scalar_gap:.3e} in scalar curvature (tolerance {tol * m.dim:.3e})"
        )
    return ric, scalar


class WEResidual(NamedTuple):
    """Defect of the Weyl-Einstein equation; ``norm`` is frame-Frobenius."""

    matrix: np.ndarray
    norm: float


def weyl_einstein_residual(m: MetricLieAlgebra, theta) -> WEResidual:
    """Symmetric form whose vanishing makes (g, theta) Weyl-Einstein.

    E = Ric^g - (scal + (n-2)(tr ad_T + |theta|^2)) g / n
        + (n-2)(sym(ad_T) + theta (x) theta)

    E is trace-free with respect to g by construction.  It is the solver's
    frame map :class:`_ResidualSystem` at unit scale, lam^2 E_unit(t / lam),
    mapped back to the standard basis.
    """
    if m.dim < 3:
        raise DimensionError("Weyl-Einstein residual needs dimension at least 3")
    system = _residual_system(m)
    t = (m.frame.T @ _as_covector(m, theta))[None] / system.scale
    packed = system.scale**2 * system.residual(t, system.jacobian(t))[0]
    matrix = m.from_frame(system.unpack(packed))
    return WEResidual(matrix=matrix, norm=float(np.linalg.norm(packed)))


EXIT_REASONS = ("root-floor", "stall", "damping-cap", "iteration-cap")


class SolveResult(NamedTuple):
    """Root set of the Weyl-Einstein equation found by :func:`solve_lee_forms`.

    ``roots`` are covectors in the standard dual basis, by increasing g-norm
    (on ties, by frame components); two real roots closer than about
    sqrt(:data:`ROOT_FLOOR_EPS`) lam = 1e-7 lam, lam the frame norm of the
    structure constants, come back as one root at their mean (see
    :func:`_quotient_candidates`).  ``residuals`` are their frame norms after
    polishing; ``infimum`` is the smallest residual reached over all starts
    that ran: the smallest root residual, the seeded search's minimum (a
    positive value, as no start converged to a root), or ``math.inf`` when
    no start ran.  ``exits`` counts those starts, either the polished
    quotient candidates, one per distinct real root, or the seeded search's
    starts, by the rule that stopped them, keyed by
    :data:`EXIT_REASONS` (root floor, stall, damping cap, iteration cap); a
    start that ends by a cap did not reach a critical point.  Its default is
    an empty read-only mapping, so the one default object cannot carry counts
    from one result into another.  ``quotient_dim`` is the dimension r of the
    quotient ring, the number of complex roots counted with multiplicity (0:
    none at all).
    """

    roots: tuple
    residuals: tuple
    infimum: float
    exits: Mapping[str, int] = MappingProxyType({})
    quotient_dim: int = 0


_Plan = namedtuple("_Plan", "index weight hess curv hess_gram gather unit pairs")


@lru_cache(maxsize=None)
def _plan(n: int) -> _Plan:
    """The arrays of :class:`_ResidualSystem` that depend on n alone, built
    once per n and read-only: the packed ``index`` (i <= j) and ``weight``,
    ``hess``, ``curv``, the H_k^T H_l rows of ``gram``, the packed position
    of each entry (the gather of ``unpack``), the constant entries of the
    multiplication matrices and the pairs k < l of their commutators."""
    eye = np.eye(n)
    index = np.triu_indices(n)
    weight = np.where(index[0] == index[1], 1.0, np.sqrt(2.0))
    gather = np.empty((n, n), dtype=np.intp)
    gather[index] = gather[index[::-1]] = np.arange(len(weight))
    # hess[i, j, k, l] = d^2/dt_i dt_j of (n-2)(t_k t_l - |t|^2 delta_kl / n)
    hess = (n - 2) * (
        np.einsum("ik,jl->ijkl", eye, eye)
        + np.einsum("il,jk->ijkl", eye, eye)
        - (2.0 / n) * np.einsum("ij,kl->ijkl", eye, eye)
    )
    hess = (hess[..., index[0], index[1]] * weight).transpose(0, 2, 1).reshape(n, -1)
    # curv[q] = hess[:, q, :], the Hessian of packed component q, flattened
    curv = hess.reshape(n, len(weight), n).transpose(1, 0, 2).reshape(len(weight), -1)
    hess_gram = (curv.T @ curv).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, -1)
    ks = np.arange(n)
    unit = np.zeros((n, n + 2, n + 2))
    unit[ks, 1 + ks, 0] = unit[ks, n + 1, 1 + ks] = 1.0
    k, l = index
    pairs = (k[k < l], l[k < l])
    for a in (k, l, weight, gather, hess, curv, hess_gram, unit, *pairs):
        _read_only(a)
    return _Plan(index, weight, hess, curv, hess_gram, gather, unit, pairs)


class _ResidualSystem:
    """The Weyl-Einstein residual in an orthonormal frame, as a quadratic map.

    E(c, t) = lam^2 E(c / lam, t / lam), and the system is that of c / lam,
    lam = ``m.structure_scale`` (kept as ``scale``): its ``t`` are frame
    components over lam, and ``scal``, ``ric_scale`` = 1 + |Ric| / lam^2 and
    every residual are Ricci-sized quantities over lam^2.  The residual is

        E(t) = A + L(t) + (n-2) TF(t t^T),

    with A the trace-free Ricci form, L(t) = (n-2) TF(sym ad_t) linear and TF
    the trace-free part.  E is stored packed: the n(n+1)/2 upper-triangle
    entries with weight sqrt(2) off the diagonal, so the Euclidean norm of the
    packed vector is the Frobenius norm of E.  ``const`` is packed A, ``lin``
    the (n(n+1)/2, n) matrix of L and ``hess`` the constant Hessian, laid out
    so that ``t @ hess`` is the quadratic part of the Jacobian:

        J(t) = lin + (t @ hess),   E(t) = const + (lin + J(t)) t / 2.

    ``curv`` is the same Hessian laid out by residual component, so that for
    a packed residual ``r`` the second-order term of the Hessian of |E|^2 / 2,
    S(r) = sum_q r_q Hess(E_q), is the flattened (n, n) matrix ``r @ curv``.
    Every Hess(E_q) is trace-free, because the Laplacian in t of the
    quadratic part (n-2) TF(t t^T) is 2(n-2) TF(I) = 0, so tr S(r) = 0.
    With H_k the (n(n+1)/2, n) matrix ``hess[k]``, the quadratic part of
    J(t) is H(t) = sum_k t_k H_k, and H(t)^T r = S(r) t, so the gradient of
    |E|^2 / 2 is J^T r = lin^T r + S(r) t.  J^T J is a quadratic polynomial
    in t with constant coefficients:

        J^T J = lin^T lin + sum_k t_k (lin^T H_k + H_k^T lin)
                + sum_kl t_k t_l H_k^T H_l
              = lin_gram + [t, vec(t t^T)] @ gram,

    where ``lin_gram`` is lin^T lin flattened and ``gram``, of shape
    (n + n^2, n^2), holds the flattened lin^T H_k + H_k^T lin in its first n
    rows and H_k^T H_l in row n + k n + l.  Everything is batched over the
    rows of ``t``.  ``const``, ``lin``, ``hess``, ``curv``, ``lin_gram`` and
    ``gram`` are read-only, because one system serves every evaluation on
    its algebra (see :func:`_residual_system`), and ``hess`` and ``curv``,
    with ``index`` and ``weight``, every system of its dimension.
    """

    def __init__(self, m: MetricLieAlgebra):
        n = m.dim
        eye = np.eye(n)
        lam = m.structure_scale
        cf = m.frame_structure / lam
        adf = np.einsum("ijk->ikj", cf)
        sym_adf = 0.5 * (adf + np.einsum("ijk->ikj", adf))
        tau = np.einsum("ijj->i", cf)
        base = m.frame_curvature
        ric = base.ricci / lam**2
        self.n = n
        self.scale = lam
        self.scal = base.scalar / lam**2
        self.ric_scale = 1.0 + float(np.linalg.norm(ric))
        self.const_scale = self.ric_scale + float(np.sum(cf**2))

        plan = _plan(n)
        self.index, self.weight, self.hess, self.curv = plan[:4]
        self.const = _read_only(self._pack(ric - (self.scal / n) * eye))
        self.lin = _read_only(self._pack((n - 2) * (sym_adf - (tau / n)[:, None, None] * eye)).T)
        self.lin_norm = float(np.linalg.norm(self.lin))
        # the columns of curv are those of the stacked [H_0 ... H_{n-1}], so
        # lin^T curv holds every lin^T H_k (curv^T curv every H_k^T H_l, per n)
        self.lin_gram = _read_only((self.lin.T @ self.lin).ravel())
        lin_h = (self.lin.T @ self.curv).reshape(n, n, n).transpose(1, 0, 2)
        self.gram = _read_only(np.concatenate(
            ((lin_h + lin_h.transpose(0, 2, 1)).reshape(n, -1), plan.hess_gram)
        ))

    def _pack(self, sym: np.ndarray) -> np.ndarray:
        """Upper-triangle entries of symmetric matrices (last two axes), weighted."""
        return sym[..., self.index[0], self.index[1]] * self.weight

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """Symmetric matrices from packed vectors (last axis); inverse of ``_pack``."""
        # + 0.0 makes every zero +0.0 and the gather keeps the result C-ordered,
        # bit for bit the sum upper + upper^T - diag(upper) of tests/oracle.py:
        # zero signs and memory order steer the quotient's BLAS and LAPACK calls
        return (packed / self.weight + 0.0).take(_plan(self.n).gather, axis=-1)

    def jacobian(self, t: np.ndarray) -> np.ndarray:
        # lin is added into the product it already holds: one batch-sized
        # array, with the bits of lin + (t @ hess) (see tests/oracle.py)
        jac = (t @ self.hess).reshape(len(t), -1, self.n)
        jac += self.lin
        return jac

    def residual(self, t: np.ndarray, jac: np.ndarray) -> np.ndarray:
        """Packed E(t), given ``jac = self.jacobian(t)``."""
        # const + 0.5 * (J t + lin t), accumulated into J t in that order
        res = (jac @ t[:, :, None])[:, :, 0]
        res += t @ self.lin.T
        res *= 0.5
        res += self.const
        return res

    def root_floor(self, t_norm: np.ndarray) -> np.ndarray:
        """Residual norm below which E is rounding noise, at points of norm ``t_norm``.

        Each term bounds the size of one part of E (A, L(t), the quadratic
        part), and ``ROOT_FLOOR_EPS`` converts the sum into rounding error.
        A stands in as ``const_scale`` = ``ric_scale`` + |c|^2, with |c| the
        frame norm of the structure constants (1 here, 0 on an abelian
        algebra): A vanishes on Einstein metrics while its rounding error
        does not, and that error grows like |c|^2, the size of the products
        the Ricci form is summed from.
        """
        return ROOT_FLOOR_EPS * (
            self.const_scale + self.lin_norm * t_norm + (self.n - 2) * t_norm**2
        )

    def multiplication_matrices(self) -> np.ndarray:
        """Multiplication by each t_k on B = {1, t_1, ..., t_n, s}, modulo E = 0.

        E(t) = 0 says t_i t_j = delta_ij s + P_ij(t) with s = |t|^2 / n and
        P = -(A + L(t)) / (n-2) affine in t, read off ``const`` and ``lin``.
        Summing t_i (t_i t_k) over i gives (n-1) s t_k = sum_i t_i P_ik(t),
        whose right side rewrites by the same rules.  So every product of t_k
        with an element of B rewrites into the span of B, and ``out[k]`` is
        the (n+2, n+2) matrix whose column b holds the coefficients of t_k b,
        in the order of B.
        """
        n = self.n
        p = self.unpack(np.concatenate((self.const[None], self.lin.T))) / (2 - n)
        p0, p1 = p[0], p[1:]  # p1[m] = dP / dt_m
        out = _plan(n).unit.copy()
        out[:, 0, 1 : n + 1] = p0
        out[:, 1 : n + 1, 1 : n + 1] = p1.transpose(1, 0, 2)
        # (n-1) s t_k = sum_im P1[m,i,k] t_i t_m + sum_i P0[i,k] t_i, rewritten
        p1_k = p1.transpose(2, 0, 1).reshape(n, n * n)  # [k, (m, i)]
        out[:, 0, n + 1] = p1_k @ p0.ravel()
        out[:, 1 : n + 1, n + 1] = p0 + p1_k @ p1.transpose(2, 1, 0).reshape(n * n, n)
        out[:, n + 1, n + 1] = p1.trace(axis1=0, axis2=1)
        out[:, :, n + 1] /= n - 1
        return out


def _residual_system(m: MetricLieAlgebra) -> _ResidualSystem:
    """The :class:`_ResidualSystem` of ``m``, built on first use and kept on
    ``m`` beside its cached geometry, so the solver, every residual check and
    every flatness precondition share one build."""
    system = vars(m).get("_residual_system")
    if system is None:
        system = vars(m)["_residual_system"] = _ResidualSystem(m)
    return system


@lru_cache(maxsize=None)
def _combination_weights(n: int) -> np.ndarray:
    """sqrt(2), sqrt(3), sqrt(5), ...: the square roots of the first n primes.

    They are linearly independent over the rationals, so the combination
    sum_k w_k t_k takes different values at any two roots that differ by a
    rational vector, as the roots of symmetric algebras often do; no random
    draw is needed.  Computed once per n; the array is read-only.
    """
    primes: list[int] = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return _read_only(np.sqrt(np.array(primes, dtype=float)))


def _commutators(mult: np.ndarray) -> np.ndarray:
    """The commutators [M_k, M_l], k < l, of the multiplication matrices."""
    k, l = _plan(len(mult)).pairs
    return mult[k] @ mult[l] - mult[l] @ mult[k]


def _quotient_candidates(system: _ResidualSystem) -> tuple[int, np.ndarray]:
    """Dimension r of C[t]/(E) and its distinct real roots, one per row.

    Two rewrites of the same product t_k t_l b must agree modulo the ideal,
    so the columns of the commutators [M_k, M_l] of
    :meth:`_ResidualSystem.multiplication_matrices` are relations: elements
    of the ideal inside span(B).  Their span is closed under every M_k; on
    its annihilator N, of dimension r, multiplication by b in B acts as X_b:
    I, N M_k^T N^T and sum_k X_{t_k}^2 / n.  Rank decisions use the
    ``REL_TOL`` cutoff of ``algebra.row_space``; dropping a relation only
    enlarges the quotient, so it loses no root.  r = 0: no complex root.

    The Hermite trace form H_ij = Tr(X_i X_j) = sum_z mu_z b_i(z) b_j(z),
    over the roots z with multiplicities mu_z (Cox, Little & O'Shea, ch. 2
    sec. 5; Pedersen, Roy & Szpirglas 1993), has the number of distinct
    roots as its rank and of distinct real ones as its signature, and their
    evaluation vectors (1, z, |z|^2 / n) span its range.  One SVD of H
    gives both the range and its rounding cutoff ``ROOT_FLOOR_EPS`` |H|_2,
    |H|_2 being the largest singular value.  Read at that cutoff, a multiple
    root is one vector, the mean of its cluster; roots closer than about
    sqrt(``ROOT_FLOOR_EPS``) = 1e-7 count as one.  On the range sum_k w_k M_k^T
    (:func:`_combination_weights`) has one simple eigenvalue per distinct
    root, real exactly for a real root; a count that differs from the
    signature raises :class:`ConsistencyError`.
    """
    n = system.n
    size = n + 2
    mult = system.multiplication_matrices()
    relations = row_space(_commutators(mult).transpose(0, 2, 1), size)
    while 0 < len(relations) < size:
        shifted = (relations @ mult.transpose(0, 2, 1)).reshape(-1, size)
        grown = row_space(np.concatenate((relations, shifted)), size)
        if len(grown) == len(relations):
            break
        relations = grown
    if len(relations) == size:  # the relations span B: no nullspace SVD needed
        return 0, np.zeros((0, n))
    annihilator = nullspace(relations)
    r = len(annihilator)
    restricted = annihilator @ mult.transpose(0, 2, 1) @ annihilator.T
    ops = np.concatenate((np.eye(r)[None], restricted, [(restricted @ restricted).sum(0) / n]))
    hermite = np.einsum("iab,jba->ij", ops, ops)
    _, sv, vh = np.linalg.svd(hermite, full_matrices=False)
    distinct = vh[: np.count_nonzero(sv > ROOT_FLOOR_EPS * sv[0])]
    combination = np.einsum("k,kab->ba", _combination_weights(n), mult)
    values, vecs = np.linalg.eig(distinct @ combination @ distinct.T)
    real = values.imag == 0.0
    signature = int(np.sign(np.linalg.eigvalsh(distinct @ hermite @ distinct.T)).sum())
    if signature != np.count_nonzero(real):
        raise ConsistencyError(
            f"the quotient ring (dimension {r}) has {np.count_nonzero(real)} real eigenvalues "
            f"on the range of its Hermite trace form, whose signature counts {signature} "
            f"distinct real roots"
        )
    evaluations = distinct.T @ vecs[:, real].real
    return r, np.ascontiguousarray((evaluations[1 : n + 1] / evaluations[0]).T)


def _solve_rows(normal: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steps -normal^-1 rhs of a batch, and which rows have a singular matrix.

    A singular row gets the zero step instead of failing the whole batch.
    """
    singular = np.zeros(len(normal), dtype=bool)
    try:
        return -np.linalg.solve(normal, rhs)[:, :, 0], singular
    except np.linalg.LinAlgError:
        delta = np.zeros(rhs.shape[:2])
        for k in range(len(normal)):
            try:
                delta[k] = -np.linalg.solve(normal[k], rhs[k])[:, 0]
            except np.linalg.LinAlgError:
                singular[k] = True
        return delta, singular


def _levenberg_marquardt(system: _ResidualSystem, t0: np.ndarray, max_iter: int = 250):
    """Damped Newton on |E|^2 / 2 for all starts at once.

    Returns the final points, their packed residual norms and, per start, the
    index into :data:`EXIT_REASONS` of the rule that stopped it:

    * root floor: |E| is below :meth:`_ResidualSystem.root_floor`, the size
      of the rounding error of evaluating E at that point.  Nothing below it
      can be told apart from zero, so the start sits on a root.  This rule,
      not a gradient test, is what ends starts near a root where E vanishes
      to second order: there the gradient decays like the cube of the
      offset and each Newton step only cuts the offset by a third, so the
      start would otherwise creep to the iteration cap while its residual is
      already noise.  The offset at exit is about sqrt(floor / (n-2)); the
      quotient candidates of such a root already sit at rounding level.
    * stall: a step was rejected although the model of |E|^2 it was solved
      from promised a decrease of at most ``ROOT_FLOOR_EPS`` |E|^2, a
      rounding-level change.  The start sits on a critical point of |E| (a
      minimum, in practice) where |E| is above the root floor.  A zero step,
      as on a start placed exactly on a critical point, promises no decrease
      and so ends its start after one rejected trial.
    * damping cap: rejected steps raised the damping to 1e10.
    * iteration cap: ``max_iter`` evaluations without any of the above.

    Every start solves the damped Newton equations
    (J^T J + S(r) + rho I) delta = -J^T r, where S(r) = sum_q r_q Hess(E_q)
    = ``r @ curv`` is the second-order term of the Hessian of |E|^2 / 2;
    since E is quadratic, it costs one product with a constant tensor.  The
    matrix can be indefinite or singular.  A step that ascends, or that has
    no solution, is refused: it promises nothing and is rejected, so the
    damping rises until the matrix is positive definite, and it never counts
    as a stall.  Any other step promises the decrease rho |delta|^2 -
    J^T r . delta of |E|^2.  The ridge rho is the damping plus
    1e-13 (1 + tr N / n), with the trace taken of the Newton matrix
    N = J^T J + S(r); it is the trace of J^T J, because tr S(r) = 0.

    On arrival the Jacobian, E and |E|^2 are evaluated once at the starts.
    If every start is already below its root floor, as the quotient
    candidates of the default solve are, the starts come back unchanged
    with exit root floor and no Newton state is built: iteration 0 would
    return exactly that.  Otherwise iteration 0 runs on this evaluation,
    and each later iteration on one evaluation of the Jacobian at the point
    the previous step proposed, on the active starts only; the residual
    comes from the same product.  The rest of the Newton system comes from
    the constants of :class:`_ResidualSystem` instead of per-start
    products with the Jacobian: S(r) = ``r @ curv``, N from one
    product of [t, vec(t t^T)] with ``gram``, the gradient
    J^T r = lin^T r + S(r) t and the cost r . r.  Accepted points keep N,
    the gradient and the cost for the next step and rejected ones only
    raise their damping, so every start's cost is monotonically
    non-increasing and the iteration is deterministic.  Finished starts
    leave the batch.
    """
    b, n = t0.shape
    trial = t0
    res_trial = system.residual(trial, system.jacobian(trial))
    cost_trial = np.einsum("bq,bq->b", res_trial, res_trial)
    if (cost_trial <= system.root_floor(np.sqrt(np.einsum("bi,bi->b", t0, t0))) ** 2).all():
        return t0.copy(), np.sqrt(cost_trial), np.zeros(b, dtype=np.intp)

    t_out = np.empty_like(t0)
    res_out = np.empty(b)
    exit_out = np.empty(b, dtype=np.intp)
    rows = np.arange(b)
    t = t0.copy()
    # [t, vec(t t^T)] is trial[:, first] with its last n^2 columns times trial[:, second]
    first = np.concatenate((np.arange(n), np.repeat(np.arange(n), n)))
    second = np.tile(np.arange(n), n)
    # at the current points: the Newton matrix N = J^T J + S(r), flattened,
    # the gradient J^T r and the cost |r|^2
    newton = np.zeros((b, n * n))
    grad = np.zeros((b, n))
    cost = np.full(b, np.inf)
    promised = np.full(b, np.inf)  # decrease of |r|^2 promised by the step to trial
    refused = np.zeros(b, dtype=bool)  # that step ascends, or has no solution
    lam = np.full(b, 1e-3)
    eye = np.eye(n)

    for it in range(max_iter):
        s_r = res_trial @ system.curv
        powers = trial[:, first]
        powers[:, n:] *= trial[:, second]
        newton_trial = powers @ system.gram
        newton_trial += system.lin_gram
        newton_trial += s_r
        grad_trial = res_trial @ system.lin
        grad_trial += np.einsum("bij,bj->bi", s_r.reshape(-1, n, n), trial)
        better = (cost_trial < cost) & ~refused
        np.copyto(t, trial, where=better[:, None])
        np.copyto(newton, newton_trial, where=better[:, None])
        np.copyto(grad, grad_trial, where=better[:, None])
        np.copyto(cost, cost_trial, where=better)
        # spent: freed now, so the next batch-sized arrays reuse their memory
        del res_trial, s_r, powers, newton_trial, grad_trial
        lam = np.where(better, np.maximum(lam / 3.0, 1e-14), 4.0 * lam)

        t_norm = np.sqrt(np.einsum("bi,bi->b", t, t))
        at_floor = cost <= system.root_floor(t_norm) ** 2
        stalled = ~better & (promised <= ROOT_FLOOR_EPS * cost)
        damped = lam >= 1e10
        done = at_floor | stalled | damped
        if it == max_iter - 1:
            done[:] = True
        if done.any():
            # integer takes copy the surviving rows faster than boolean masks
            gone, keep = np.flatnonzero(done), np.flatnonzero(~done)
            out = rows[gone]
            t_out[out] = t[gone]
            res_out[out] = np.sqrt(cost[gone])
            exit_out[out] = np.where(
                at_floor[gone], 0, np.where(stalled[gone], 1, np.where(damped[gone], 2, 3))
            )
            if not len(keep):
                break
            rows, t, lam = rows[keep], t.take(keep, axis=0), lam[keep]
            newton, grad, cost = newton.take(keep, axis=0), grad.take(keep, axis=0), cost[keep]

        # The ridge keeps the normal matrix invertible even when a start sits
        # on a root whose Jacobian has an exact null direction; an absolute
        # floor alone underflows against large diagonal entries.
        normal = newton.reshape(-1, n, n)
        ridge = lam + 1e-13 * (1.0 + np.trace(normal, axis1=1, axis2=2) / n)
        # ridge I + N in one new array, bit for bit N + ridge I; shifting the
        # diagonal of a copy of N would keep its off-diagonal -0.0, where
        # the sum gives +0.0
        shifted = ridge[:, None, None] * eye
        shifted += normal
        delta, refused = _solve_rows(shifted, grad[:, :, None])
        del shifted
        trial = t + delta
        slope = np.einsum("bi,bi->b", grad, delta)
        refused |= slope > 0.0
        promised = np.where(refused, np.inf, ridge * np.einsum("bi,bi->b", delta, delta) - slope)
        res_trial = system.residual(trial, system.jacobian(trial))
        cost_trial = np.einsum("bq,bq->b", res_trial, res_trial)

    return t_out, res_out, exit_out


def _seeded_search(system: _ResidualSystem, starts: int, seed: int):
    """:func:`_levenberg_marquardt` from ``starts`` seeded starts: unit
    directions from a seeded generator on spheres of radius 0, r/2, r and 2r
    (cycling with the start index), r = sqrt(|scal| / (n-2)) + 1, all in the
    units of the system (unit frame norm of the structure constants)."""
    n = system.n
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((starts, n))
    norms = np.linalg.norm(directions, axis=1)
    directions[norms < 1e-12] = np.eye(n)[0]
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    radius = np.sqrt(abs(system.scal) / (n - 2)) + 1.0
    radii = np.array([0.0, 0.5 * radius, radius, 2.0 * radius])
    return _levenberg_marquardt(system, directions * radii[np.arange(starts) % 4][:, None])


def _exit_counts(exit_codes: np.ndarray) -> dict:
    """Starts per exit rule, keyed by :data:`EXIT_REASONS`."""
    return dict(zip(EXIT_REASONS, np.bincount(exit_codes, minlength=len(EXIT_REASONS)).tolist()))


def _is_a(value, kind) -> bool:
    """Whether ``value`` is a number of ``kind``, numpy scalars included and
    bools excluded."""
    return isinstance(value, kind) and not isinstance(value, bool)


def solve_lee_forms(
    m: MetricLieAlgebra,
    starts: int | None = None,
    seed: int = DEFAULT_SEED,
) -> SolveResult:
    """Find all Lee forms solving the Weyl-Einstein equation on ``m``.

    The solve is nondimensional: with lam the frame norm of the structure
    constants (1 on an abelian algebra), E(lam c, lam t) = lam^2 E(c, t), so
    every stage runs on the system of c / lam (:class:`_ResidualSystem`) and
    only the result is mapped back: roots by lam, residuals and ``infimum``
    by lam^2.  The candidates are the distinct real roots of the quotient
    ring (:func:`_quotient_candidates`), at most n + 2; each is polished by
    damped Newton steps until one of four rules stops it (root floor, stall,
    damping cap, iteration cap; see :func:`_levenberg_marquardt`).  A
    polished candidate is a root when its residual is at most
    :data:`DEFAULT_ROOT_TOL` (1 + |Ric|) at |c| = 1, and every candidate
    must be one: a candidate that fails the test raises
    :class:`ConsistencyError`, as the Hermite signature counts exactly the
    distinct real roots.  The quotient resolves
    real roots down to a gap of about sqrt(:data:`ROOT_FLOOR_EPS`) lam =
    1e-7 lam: two closer roots are one candidate, and one root at their mean
    comes back.  The quotient is the evidence that there is no root:
    dimension 0 means no complex root, and otherwise the Hermite signature
    counts the real ones.

    The seeded multistart (:func:`_seeded_search` with ``starts`` and
    ``seed``) runs only when ``starts`` is given and there is no candidate.
    It supplies ``infimum`` on algebras without a root (else ``math.inf``)
    and cross-checks the quotient route: a start that passes the same root
    test raises :class:`ConsistencyError`.  The result counts the starts
    that ran per exit rule.  :data:`DEFAULT_STARTS` = 8 starts reached the
    256-start minimum on every root-free model measured (README).
    Deterministic for fixed inputs.  ``starts`` that is neither None nor an
    integer from 1 to :data:`MAX_STARTS` and a ``seed`` that is not a
    non-negative integer raise :class:`InputError`, even where no search
    runs; numpy scalars are accepted, bools are not.
    """
    if m.dim < 3:
        raise DimensionError("Weyl-Einstein solving needs dimension at least 3")
    if not (starts is None or (_is_a(starts, numbers.Integral) and 1 <= starts <= MAX_STARTS)):
        raise InputError(f"need an integer between 1 and {MAX_STARTS} starts, got {starts!r}")
    if not (_is_a(seed, numbers.Integral) and seed >= 0):
        raise InputError(f"the seed must be a non-negative integer, got {seed!r}")
    system = _residual_system(m)
    lam = system.scale
    threshold = DEFAULT_ROOT_TOL * system.ric_scale

    quotient_dim, candidates = _quotient_candidates(system)
    exit_codes = np.zeros(0, dtype=np.intp)
    infimum = np.inf
    roots: list[np.ndarray] = []
    residuals: list[float] = []
    if len(candidates):
        t_final, res_final, exit_codes = _levenberg_marquardt(system, candidates)
        worst = float(res_final.max())
        if not worst <= threshold:
            raise ConsistencyError(
                f"a quotient ring candidate polished to residual {worst:.3e} at |c| = 1 "
                f"(root tolerance {threshold:.3e}), but each of the {len(candidates)} candidates "
                f"is a distinct real root (quotient dimension {quotient_dim})"
            )
        infimum = float(res_final.min())
        rows = t_final.tolist()
        order = sorted(range(len(rows)), key=lambda i: (np.linalg.norm(t_final[i]), rows[i]))
        roots = [m.from_frame(lam * t_final[i]) for i in order]
        residuals = [lam**2 * float(res_final[i]) for i in order]
    elif starts is not None:
        _, res_seeded, exit_codes = _seeded_search(system, starts, seed)
        infimum = float(np.min(res_seeded))
        if not infimum > threshold:
            raise ConsistencyError(
                f"the seeded search reached a root with residual {infimum:.3e} at |c| = 1 "
                f"(root tolerance {threshold:.3e}) where the quotient ring route found no real "
                f"root (quotient dimension {quotient_dim})"
            )

    return SolveResult(roots=tuple(roots), residuals=tuple(residuals), infimum=lam**2 * infimum,
                       exits=_exit_counts(exit_codes), quotient_dim=quotient_dim)


def kulkarni_nomizu(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Product of two symmetric forms as a (0,4) curvature-type tensor:

    (h . k)(x, y, z, w) = h(x,z)k(y,w) + h(y,w)k(x,z) - h(x,w)k(y,z) - h(y,z)k(x,w)
    """
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    return (
        np.einsum("ik,jl->ijkl", h, k)
        + np.einsum("jl,ik->ijkl", h, k)
        - np.einsum("il,jk->ijkl", h, k)
        - np.einsum("jk,il->ijkl", h, k)
    )


class FlatnessReport(NamedTuple):
    """Verdicts about the conformally rescaled metric killing the Lee form.

    ``ricci_flat``: the rescaled metric is Ricci-flat; ``flat``: its full
    curvature vanishes; ``kn_residual`` is the frame norm of the curvature
    minus its would-be constant-curvature-type expression.
    """

    ricci_flat: bool
    flat: bool
    kn_residual: float


def conformal_flatness(m: MetricLieAlgebra, theta) -> FlatnessReport:
    """Flatness of the conformal rescaling attached to a closed Lee form.

    Requires ``theta`` closed (else the rescaling does not exist globally on
    the simply connected group and :class:`NotClosedError` is raised).  The
    verdicts are ``FLATNESS_RTOL`` times lam^2 + |Ric| and lam^2 + |R|.
    """
    if m.dim < 3:
        raise DimensionError("conformal flatness check needs dimension at least 3")
    theta = _as_covector(m, theta)
    if not faraday(m, theta).closed:
        raise NotClosedError("Lee form is not closed; no conformal rescaling exists")

    t = m.frame.T @ theta
    ric_w, _ = _frame_weyl_ricci(m, t)
    base = m.frame_curvature
    ricci_flat = float(np.linalg.norm(ric_w)) <= FLATNESS_RTOL * m.curvature_scale(
        float(np.linalg.norm(base.ricci)))

    b = _frame_lee_gradient(m, t) - np.outer(t, t) + 0.5 * float(t @ t) * np.eye(m.dim)
    target = kulkarni_nomizu(np.eye(m.dim), b)
    kn_residual = float(np.linalg.norm(base.riem - target))
    flat = kn_residual <= FLATNESS_RTOL * m.curvature_scale(float(np.linalg.norm(base.riem)))
    return FlatnessReport(ricci_flat=ricci_flat, flat=flat, kn_residual=kn_residual)
