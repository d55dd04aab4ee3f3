"""Weyl connections and Weyl-Einstein structures on metric Lie algebras.

A Weyl connection attached to a one-form ``theta`` (the Lee form) is the
torsion-free connection

    D_x y = D^g_x y + theta(x) y + theta(y) x - g(x, y) T,

where ``T`` is the g-dual vector of ``theta``; it rescales the metric,
``D g = -2 theta (x) g``, instead of preserving it.  The structure is
Weyl-Einstein when the symmetrised Ricci form of ``D`` is proportional to the
metric; :func:`weyl_einstein_residual` measures the defect and
:func:`solve_lee_forms` finds all Lee forms that make it vanish by a seeded
multistart Gauss-Newton/Levenberg-Marquardt search in an orthonormal frame.

Everything here requires dimension at least 3: in lower dimensions the
Weyl-Einstein condition degenerates and none of the formulas below are used.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import frames, riemann
from .algebra import LieAlgebra, coefficient_tolerance, derived_subalgebra
from .errors import (
    ConsistencyError,
    DimensionError,
    NotClosedError,
    NumericInputError,
    StructureError,
)
from .riemann import ConnectionTable, MetricLieAlgebra

DEFAULT_STARTS = 64
DEFAULT_SEED = 0
DEFAULT_ROOT_TOL = 1e-8
DEFAULT_DEDUP_TOL = 1e-6
FLATNESS_RTOL = 1e-8


@dataclass(frozen=True)
class LeeForm:
    """A covector with its g-dual vector and squared g-norm attached."""

    coeffs: np.ndarray
    dual: np.ndarray
    norm_sq: float

    @classmethod
    def from_covector(cls, m: MetricLieAlgebra, coeffs: np.ndarray) -> "LeeForm":
        coeffs = np.array(_as_covector(m, coeffs))
        dual = m.raise_covector(coeffs)
        coeffs.setflags(write=False)
        dual.setflags(write=False)
        return cls(coeffs=coeffs, dual=dual, norm_sq=float(coeffs @ dual))


def _as_covector(m: MetricLieAlgebra, theta) -> np.ndarray:
    if isinstance(theta, LeeForm):
        return theta.coeffs
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (m.dim,):
        raise StructureError(f"covector must have shape ({m.dim},), got {theta.shape}")
    if not np.isfinite(theta).all():
        raise NumericInputError("covector contains NaN or infinity")
    return theta


@dataclass(frozen=True)
class WeylStructure:
    base: MetricLieAlgebra
    lee: LeeForm
    table: ConnectionTable


def weyl_connection(m: MetricLieAlgebra, theta) -> WeylStructure:
    if m.dim < 3:
        raise DimensionError("Weyl structures need dimension at least 3")
    lee = LeeForm.from_covector(m, _as_covector(m, theta))
    lc = riemann.levi_civita(m)
    eye = np.eye(m.dim)
    gamma = (
        lc.gamma
        + np.einsum("i,jk->ijk", lee.coeffs, eye)
        + np.einsum("j,ik->ijk", lee.coeffs, eye)
        - np.einsum("ij,k->ijk", m.metric, lee.dual)
    )
    return WeylStructure(base=m, lee=lee, table=ConnectionTable(gamma))


@dataclass(frozen=True)
class FaradayForm:
    """Exterior derivative of the Lee form, with closedness/exactness flags.

    For left-invariant forms F(x, y) = -theta([x, y]); the form is closed
    exactly when theta kills the derived subalgebra, so the two flags agree
    (they are computed independently as a cross-check).
    """

    matrix: np.ndarray
    closed: bool
    exact: bool


def faraday(m: MetricLieAlgebra, theta) -> FaradayForm:
    theta = _as_covector(m, theta)
    f = -np.einsum("ijk,k->ij", m.c, theta)
    tol = coefficient_tolerance(m.c, m.metric, theta)
    closed = bool(np.max(np.abs(f)) <= tol) if f.size else True
    der = derived_subalgebra(m.algebra)
    exact = bool(np.max(np.abs(der @ theta)) <= tol) if der.shape[0] else True
    return FaradayForm(matrix=f, closed=closed, exact=exact)


def lee_gradient(m: MetricLieAlgebra, theta) -> np.ndarray:
    """Covariant derivative of the Lee form as a bilinear form (D theta)(x, y)."""
    theta = _as_covector(m, theta)
    t = m.raise_covector(theta)
    gamma = riemann.levi_civita(m).gamma
    return np.einsum("ipm,p->im", gamma, t) @ m.metric


def weyl_ricci_formula(m: MetricLieAlgebra, theta) -> tuple[np.ndarray, float]:
    """Ricci form and scalar of the Weyl connection from the base-metric data.

    Uses Ric^D = Ric^g - (n-2)(D theta - theta(x)theta) + (delta theta
    - (n-2)|theta|^2) g and its trace; no Weyl curvature tensor is formed.
    """
    n = m.dim
    theta = _as_covector(m, theta)
    lee = LeeForm.from_covector(m, theta)
    base = riemann.ricci(m)
    grad = lee_gradient(m, theta)

    # self-check: the symmetric part of D theta is -sym(ad_T) as a form
    sym_grad = 0.5 * (grad + grad.T)
    if m.form_norm(sym_grad + m.sym_ad_form(lee.dual)) > m.tolerance * (
        1.0 + float(np.linalg.norm(theta))
    ):
        raise ConsistencyError("Lee form gradient disagrees with ad-based formula")

    delta = riemann.codifferential_oneform(m, theta)
    ric = (
        base.ricci
        - (n - 2) * (grad - np.outer(theta, theta))
        + (delta - (n - 2) * lee.norm_sq) * m.metric
    )
    scalar = base.scalar + 2 * (n - 1) * delta - (n - 1) * (n - 2) * lee.norm_sq
    return ric, scalar


def weyl_ricci(w: WeylStructure) -> tuple[np.ndarray, float]:
    """Ricci form and scalar of a Weyl structure, computed two ways.

    Returns the conformal-geometry Ricci tensor, whose skew part is
    -(n-2)/2 times the Faraday form.  The raw curvature trace of the
    connection table differs from it by exactly one copy of the Faraday
    form, so the trace route is shifted by F before the comparison; a
    mismatch between the two routes raises :class:`ConsistencyError`.
    """
    m = w.base
    riem = riemann.curvature(m, w.table)
    fara = -np.einsum("ijk,k->ij", m.c, w.lee.coeffs)
    ric = riemann.ricci_trace(riem) + fara
    scalar = float(np.trace(m.metric_inv @ ric))

    ric_f, scalar_f = weyl_ricci_formula(m, w.lee)
    tol = coefficient_tolerance(m.c, m.metric, w.lee.coeffs) * (1.0 + m.form_norm(ric))
    gap, scalar_gap = m.form_norm(ric - ric_f), abs(scalar - scalar_f)
    if gap > tol or scalar_gap > tol * m.dim:
        raise ConsistencyError(
            f"Weyl Ricci from the connection's curvature trace and from the base-metric "
            f"formula differ by {gap:.3e} in frame norm (tolerance {tol:.3e}) and by "
            f"{scalar_gap:.3e} in scalar curvature (tolerance {tol * m.dim:.3e})"
        )
    return ric, scalar


@dataclass(frozen=True)
class WEResidual:
    """Defect of the Weyl-Einstein equation; ``norm`` is frame-Frobenius."""

    matrix: np.ndarray
    norm: float


def weyl_einstein_residual(m: MetricLieAlgebra, theta) -> WEResidual:
    """Symmetric form whose vanishing makes (g, theta) Weyl-Einstein.

    E = Ric^g - (scal + (n-2)(tr ad_T + |theta|^2)) g / n
        + (n-2)(sym(ad_T) + theta (x) theta)

    E is trace-free with respect to g by construction.
    """
    if m.dim < 3:
        raise DimensionError("Weyl-Einstein residual needs dimension at least 3")
    n = m.dim
    theta = _as_covector(m, theta)
    lee = LeeForm.from_covector(m, theta)
    base = riemann.ricci(m)
    tr_ad = riemann.codifferential_oneform(m, theta)
    e = (
        base.ricci
        - ((base.scalar + (n - 2) * (tr_ad + lee.norm_sq)) / n) * m.metric
        + (n - 2) * (m.sym_ad_form(lee.dual) + np.outer(theta, theta))
    )
    return WEResidual(matrix=e, norm=m.form_norm(e))


@dataclass(frozen=True)
class SolveResult:
    """Root set of the Weyl-Einstein equation found by the multistart solver.

    ``roots`` are covectors in the standard dual basis, sorted
    lexicographically; ``residuals`` are their frame norms after polishing;
    ``infimum`` is the smallest residual reached over all starts (a positive
    value certifies that no start converged to a root).
    """

    roots: tuple
    residuals: tuple
    infimum: float


class _ResidualSystem:
    """Weyl-Einstein residual and Jacobian in an orthonormal frame.

    Evaluation is batched over candidate Lee forms (rows of ``t``); the
    Jacobian is affine in ``t`` and assembled from precomputed blocks.
    """

    def __init__(self, m: MetricLieAlgebra):
        n = m.dim
        u = m.frame
        cf = m.frame_structure
        adf = np.einsum("ijk->ikj", cf)
        self.n = n
        self.eye = np.eye(n)
        self.sym_adf = 0.5 * (adf + np.einsum("ijk->ikj", adf))
        self.tau = np.einsum("ijj->i", cf)
        base = riemann.ricci(m)
        self.ric = frames.form_in_basis(base.ricci, u)
        self.scal = base.scalar
        self.ric_scale = 1.0 + float(np.linalg.norm(self.ric))

        jc = np.empty((n * n, n))
        for j in range(n):
            jc[:, j] = ((n - 2) * self.sym_adf[j] - ((n - 2) / n) * self.tau[j] * self.eye).ravel()
        self.jac_const = jc
        lin = np.zeros((n, n * n, n))
        for mm in range(n):
            for j in range(n):
                block = (n - 2) * (
                    np.outer(self.eye[j], self.eye[mm]) + np.outer(self.eye[mm], self.eye[j])
                )
                if j == mm:
                    block = block - (2.0 * (n - 2) / n) * self.eye
                lin[mm, :, j] = block.ravel()
        self.jac_lin = lin

    def residual(self, t: np.ndarray) -> np.ndarray:
        n = self.n
        sym_ad_t = np.einsum("bj,jkl->bkl", t, self.sym_adf)
        quad = np.einsum("bi,bj->bij", t, t)
        trace_part = (self.scal + (n - 2) * (t @ self.tau + np.einsum("bi,bi->b", t, t))) / n
        e = (
            self.ric[None]
            - trace_part[:, None, None] * self.eye[None]
            + (n - 2) * (sym_ad_t + quad)
        )
        return e.reshape(t.shape[0], n * n)

    def jacobian(self, t: np.ndarray) -> np.ndarray:
        return self.jac_const[None] + np.einsum("bm,mrj->brj", t, self.jac_lin)


def _levenberg_marquardt(system: _ResidualSystem, t0: np.ndarray, max_iter: int = 250):
    """Damped Gauss-Newton on all starts at once; returns final points and costs.

    Rejected steps only raise the damping, so every start's cost is
    monotonically non-increasing and the iteration is deterministic.  There is
    no gradient-based stop on purpose: at a root where the residual vanishes
    to second order the gradient decays like the cube of the offset, and an
    early gradient exit would leave a cloud of near-duplicates too wide for
    deduplication.  Stuck starts exit through the damping cap instead.
    """
    t = t0.copy()
    r = system.residual(t)
    cost = np.einsum("bi,bi->b", r, r)
    b = t.shape[0]
    lam = np.full(b, 1e-3)
    active = np.ones(b, dtype=bool)
    eye = np.eye(system.n)

    for _ in range(max_iter):
        if not active.any():
            break
        jac = system.jacobian(t)
        grad = np.einsum("bri,br->bi", jac, r)
        jtj = np.einsum("bri,brj->bij", jac, jac)
        # The ridge keeps the normal matrix invertible even when a start sits
        # on a root whose Jacobian has an exact null direction; an absolute
        # floor alone underflows against large diagonal entries.
        ridge = lam + 1e-13 * (1.0 + np.einsum("bii->b", jtj) / system.n)
        normal = jtj + ridge[:, None, None] * eye[None]
        delta = -np.linalg.solve(normal, grad[:, :, None])[:, :, 0]
        trial = t + delta
        r_trial = system.residual(trial)
        cost_trial = np.einsum("bi,bi->b", r_trial, r_trial)
        better = cost_trial < cost

        step = active & better
        t[step] = trial[step]
        r[step] = r_trial[step]
        cost[step] = cost_trial[step]
        lam[step] = np.maximum(lam[step] / 3.0, 1e-14)
        lam[active & ~better] *= 4.0

        tiny = np.linalg.norm(delta, axis=1) <= 1e-15 * (1.0 + np.linalg.norm(t, axis=1))
        active &= ~(step & tiny)
        active &= lam < 1e10

    return t, np.sqrt(cost)


def solve_lee_forms(
    m: MetricLieAlgebra,
    starts: int = DEFAULT_STARTS,
    seed: int = DEFAULT_SEED,
    tol_root: float = DEFAULT_ROOT_TOL,
    tol_dedup: float = DEFAULT_DEDUP_TOL,
) -> SolveResult:
    """Find all Lee forms solving the Weyl-Einstein equation on ``m``.

    Starts are unit directions from a seeded generator placed on spheres of
    radius 0, r/2, r and 2r (cycling with the start index), where
    r = sqrt(|scal| / (n-2)) + 1 bounds the expected root scale.  A start
    counts as a root when its polished residual is below
    ``tol_root * (1 + |Ric|)``; roots closer than ``tol_dedup`` in the frame
    are merged keeping the earliest start.  Deterministic for fixed inputs.
    """
    if m.dim < 3:
        raise DimensionError("Weyl-Einstein solving needs dimension at least 3")
    if starts < 1:
        raise StructureError("need at least one start")
    n = m.dim
    system = _ResidualSystem(m)

    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((starts, n))
    norms = np.linalg.norm(directions, axis=1)
    directions[norms < 1e-12] = np.eye(n)[0]
    directions /= np.maximum(np.linalg.norm(directions, axis=1), 1e-300)[:, None]
    radius = np.sqrt(abs(system.scal) / (n - 2)) + 1.0
    radii = np.array([0.0, 0.5 * radius, radius, 2.0 * radius])
    t0 = directions * radii[np.arange(starts) % 4][:, None]

    t_final, res_final = _levenberg_marquardt(system, t0)
    infimum = float(np.min(res_final))

    threshold = tol_root * system.ric_scale
    picked: list[np.ndarray] = []
    picked_res: list[float] = []
    for i in range(starts):
        if res_final[i] > threshold:
            continue
        t = t_final[i]
        if any(np.linalg.norm(t - p) <= tol_dedup for p in picked):
            continue
        picked.append(t)
        picked_res.append(float(res_final[i]))

    order = sorted(range(len(picked)), key=lambda i: tuple(picked[i]))
    roots = tuple(frames.covector_from_basis(picked[i], m.frame) for i in order)
    residuals = tuple(picked_res[i] for i in order)
    return SolveResult(roots=roots, residuals=residuals, infimum=infimum)


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


@lru_cache(maxsize=1)
def kn_calibration_sign() -> float:
    """Global sign matching the curvature convention to the product above.

    Fixed once against a constant-curvature witness (hyperbolic structure on
    the algebra [b, u] = u, [b, v] = v with orthonormal b, u, v and Lee form
    the metric dual of b): the lowered curvature must equal
    sign * (g . B) with B = D theta - theta (x) theta + |theta|^2 g / 2.
    """
    alg = LieAlgebra.from_brackets(3, {(0, 1): (0.0, 1.0, 0.0), (0, 2): (0.0, 0.0, 1.0)})
    m = MetricLieAlgebra(alg, np.eye(3))
    theta = np.array([1.0, 0.0, 0.0])
    r4 = riemann.curvature_lowered(m, riemann.curvature(m, riemann.levi_civita(m)))
    lee = LeeForm.from_covector(m, theta)
    b = lee_gradient(m, theta) - np.outer(theta, theta) + 0.5 * lee.norm_sq * m.metric
    prod = kulkarni_nomizu(m.metric, b)
    gap_plus = float(np.linalg.norm(r4 - prod))
    gap_minus = float(np.linalg.norm(r4 + prod))
    if min(gap_plus, gap_minus) > 1e-10:
        raise ConsistencyError("curvature conventions broke the product calibration")
    return 1.0 if gap_plus <= gap_minus else -1.0


@dataclass(frozen=True)
class FlatnessReport:
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
    the simply connected group and :class:`NotClosedError` is raised).
    """
    if m.dim < 3:
        raise DimensionError("conformal flatness check needs dimension at least 3")
    theta = _as_covector(m, theta)
    if not faraday(m, theta).closed:
        raise NotClosedError("Lee form is not closed; no conformal rescaling exists")

    w = weyl_connection(m, theta)
    ric_w, _ = weyl_ricci(w)
    base = riemann.ricci(m)
    ric_scale = 1.0 + m.form_norm(base.ricci)
    ricci_flat = m.form_norm(ric_w) <= FLATNESS_RTOL * ric_scale

    lee = w.lee
    b = lee_gradient(m, theta) - np.outer(theta, theta) + 0.5 * lee.norm_sq * m.metric
    target = kn_calibration_sign() * kulkarni_nomizu(m.metric, b)
    r4 = riemann.curvature_lowered(m, base.riem)
    diff_frame = frames.curvature04_in_basis(r4 - target, m.frame)
    kn_residual = float(np.linalg.norm(diff_frame))
    r4_scale = 1.0 + float(np.linalg.norm(frames.curvature04_in_basis(r4, m.frame)))
    flat = kn_residual <= FLATNESS_RTOL * r4_scale
    return FlatnessReport(ricci_flat=ricci_flat, flat=flat, kn_residual=kn_residual)
