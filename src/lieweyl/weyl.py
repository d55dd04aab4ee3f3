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

from dataclasses import dataclass, field

import numpy as np

from . import frames, riemann
from .algebra import coefficient_tolerance, derived_subalgebra
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
KN_CALIBRATION_SIGN = 1.0  # R = sign * kulkarni_nomizu(g, B) iff the rescaled metric is flat
# The solver's root floor in units of the evaluation scale of E.  A few ulps
# per term would do for E itself, but its constant part inherits the rounding
# of the Ricci form, about 20 ulps of the scale on Ricci-flat almost abelian
# metrics at n = 7.
ROOT_FLOOR_EPS = 32.0 * np.finfo(float).eps


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
    gap = m.form_norm(0.5 * (grad + grad.T) + m.sym_ad_form(lee.dual))
    tol = m.tolerance * (1.0 + float(np.linalg.norm(theta)))
    if gap > tol:
        raise ConsistencyError(
            f"symmetric Lee form gradient from the Levi-Civita table and -sym(ad_T) from "
            f"the structure constants differ by {gap:.3e} in frame norm (tolerance {tol:.3e})"
        )

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
    ric = riemann.ricci_trace(riem) - np.einsum("ijk,k->ij", m.c, w.lee.coeffs)
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

    E is trace-free with respect to g by construction.  It is the solver's
    frame map :class:`_ResidualSystem`, mapped back to the standard basis.
    """
    if m.dim < 3:
        raise DimensionError("Weyl-Einstein residual needs dimension at least 3")
    t = (m.frame.T @ _as_covector(m, theta))[None]
    system = _ResidualSystem(m)
    packed = system.residual(t, system.jacobian(t))[0]
    matrix = frames.form_in_basis(system.unpack(packed), np.linalg.inv(m.frame))
    return WEResidual(matrix=matrix, norm=float(np.linalg.norm(packed)))


EXIT_REASONS = ("root-floor", "step", "damping-cap", "iteration-cap")


@dataclass(frozen=True)
class SolveResult:
    """Root set of the Weyl-Einstein equation found by the multistart solver.

    ``roots`` are covectors in the standard dual basis, sorted
    lexicographically; ``residuals`` are their frame norms after polishing;
    ``infimum`` is the smallest residual reached over all starts (a positive
    value certifies that no start converged to a root).  ``exits`` counts the
    starts by the rule that stopped them, keyed by :data:`EXIT_REASONS`; the
    counts sum to the number of starts.
    """

    roots: tuple
    residuals: tuple
    infimum: float
    exits: dict = field(default_factory=dict)


class _ResidualSystem:
    """The Weyl-Einstein residual in an orthonormal frame, as a quadratic map.

    In the frame the residual of the frame components ``t`` of a Lee form is

        E(t) = A + L(t) + (n-2) TF(t t^T),

    with A the trace-free Ricci form, L(t) = (n-2) TF(sym ad_t) linear and TF
    the trace-free part.  E is stored packed: the n(n+1)/2 upper-triangle
    entries with weight sqrt(2) off the diagonal, so the Euclidean norm of the
    packed vector is the Frobenius norm of E.  ``const`` is packed A, ``lin``
    the (n(n+1)/2, n) matrix of L and ``hess`` the constant Hessian, laid out
    so that ``t @ hess`` is the quadratic part of the Jacobian:

        J(t) = lin + (t @ hess),   E(t) = const + (lin + J(t)) t / 2.

    Everything is batched over the rows of ``t``.
    """

    def __init__(self, m: MetricLieAlgebra):
        n = m.dim
        eye = np.eye(n)
        cf = m.frame_structure
        adf = np.einsum("ijk->ikj", cf)
        sym_adf = 0.5 * (adf + np.einsum("ijk->ikj", adf))
        tau = np.einsum("ijj->i", cf)
        base = riemann.ricci(m)
        ric = frames.form_in_basis(base.ricci, m.frame)
        self.n = n
        self.scal = base.scalar
        self.ric_scale = 1.0 + float(np.linalg.norm(ric))

        self.index = np.triu_indices(n)
        self.weight = np.where(self.index[0] == self.index[1], 1.0, np.sqrt(2.0))
        self.const = self._pack(ric - (self.scal / n) * eye)
        self.lin = self._pack((n - 2) * (sym_adf - (tau / n)[:, None, None] * eye)).T
        self.lin_norm = float(np.linalg.norm(self.lin))
        # hess[i, j, k, l] = d^2/dt_i dt_j of (n-2)(t_k t_l - |t|^2 delta_kl / n)
        hess = (n - 2) * (
            np.einsum("ik,jl->ijkl", eye, eye)
            + np.einsum("il,jk->ijkl", eye, eye)
            - (2.0 / n) * np.einsum("ij,kl->ijkl", eye, eye)
        )
        self.hess = self._pack(hess).transpose(0, 2, 1).reshape(n, -1)

    def _pack(self, sym: np.ndarray) -> np.ndarray:
        """Upper-triangle entries of symmetric matrices (last two axes), weighted."""
        return sym[..., self.index[0], self.index[1]] * self.weight

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """Symmetric matrices from packed vectors (last axis); inverse of ``_pack``."""
        upper = np.zeros(packed.shape[:-1] + (self.n, self.n))
        upper[..., self.index[0], self.index[1]] = packed / self.weight
        return upper + np.swapaxes(upper, -1, -2) - upper * np.eye(self.n)

    def jacobian(self, t: np.ndarray) -> np.ndarray:
        return self.lin + (t @ self.hess).reshape(len(t), -1, self.n)

    def residual(self, t: np.ndarray, jac: np.ndarray) -> np.ndarray:
        """Packed E(t), given ``jac = self.jacobian(t)``."""
        return self.const + 0.5 * ((jac @ t[:, :, None])[:, :, 0] + t @ self.lin.T)

    def root_floor(self, t_norm: np.ndarray) -> np.ndarray:
        """Residual norm below which E is rounding noise, at points of norm ``t_norm``.

        Each term bounds the size of one part of E (A, L(t), the quadratic
        part), and ``ROOT_FLOOR_EPS`` converts the sum into rounding error.
        ``ric_scale`` stands for A because A vanishes on Einstein metrics
        while its rounding error does not.
        """
        return ROOT_FLOOR_EPS * (
            self.ric_scale + self.lin_norm * t_norm + (self.n - 2) * t_norm**2
        )


def _levenberg_marquardt(system: _ResidualSystem, t0: np.ndarray, max_iter: int = 250):
    """Damped Gauss-Newton on all starts at once.

    Returns the final points, their packed residual norms and, per start, the
    index into :data:`EXIT_REASONS` of the rule that stopped it:

    * root floor: |E| is below :meth:`_ResidualSystem.root_floor`, the size
      of the rounding error of evaluating E at that point.  Nothing below it
      can be told apart from zero, so the start sits on a root.  This rule,
      not a gradient test, is what ends starts near a root where E vanishes
      to second order: there the gradient decays like the cube of the
      offset and Gauss-Newton only halves the offset per step, so the start
      would otherwise creep to the iteration cap while its residual is
      already noise.  The offset at exit is about sqrt(floor / (n-2)), far
      inside the deduplication radius.
    * step: an accepted step shorter than 1e-12 (1 + |t|).
    * damping cap: rejected steps raised the damping to 1e10.
    * iteration cap: ``max_iter`` evaluations without any of the above.

    Iteration k evaluates the Jacobian once, at the point the previous step
    proposed (the starts themselves at k = 0), on the active starts only;
    the residual comes from the same product, and one batched product of
    [J r] with itself gives J^T J, J^T r and the cost.  Accepted points keep
    these for the next step and rejected ones only raise their damping, so
    every start's cost is monotonically non-increasing and the iteration is
    deterministic.  Finished starts leave the batch.
    """
    b, n = t0.shape
    t_out = np.empty_like(t0)
    res_out = np.empty(b)
    exit_out = np.empty(b, dtype=np.intp)
    rows = np.arange(b)
    t = t0.copy()
    trial = t0
    # gram = [J r]^T [J r] at the current points: J^T J, J^T r and the cost |r|^2
    gram = np.zeros((b, n + 1, n + 1))
    gram[:, n, n] = np.inf
    step_sq = np.full(b, np.inf)  # squared length of the step that gave trial
    lam = np.full(b, 1e-3)
    eye = np.eye(n)

    for it in range(max_iter):
        jac = system.jacobian(trial)
        aug = np.concatenate((jac, system.residual(trial, jac)[:, :, None]), axis=2)
        gram_trial = aug.transpose(0, 2, 1) @ aug
        better = gram_trial[:, n, n] < gram[:, n, n]
        t[better] = trial[better]
        gram[better] = gram_trial[better]
        lam = np.where(better, np.maximum(lam / 3.0, 1e-14), 4.0 * lam)

        cost = gram[:, n, n]
        t_norm = np.sqrt(np.einsum("bi,bi->b", t, t))
        at_floor = cost <= system.root_floor(t_norm) ** 2
        short_step = better & (step_sq <= (1e-12 * (1.0 + t_norm)) ** 2)
        damped = lam >= 1e10
        done = at_floor | short_step | damped
        if it == max_iter - 1:
            done[:] = True
        if done.any():
            out = rows[done]
            t_out[out] = t[done]
            res_out[out] = np.sqrt(cost[done])
            exit_out[out] = np.select([at_floor, short_step, damped], [0, 1, 2], 3)[done]
            keep = ~done
            if not keep.any():
                break
            rows, t, gram, lam = rows[keep], t[keep], gram[keep], lam[keep]

        jtj = gram[:, :n, :n]
        # The ridge keeps the normal matrix invertible even when a start sits
        # on a root whose Jacobian has an exact null direction; an absolute
        # floor alone underflows against large diagonal entries.
        ridge = lam + 1e-13 * (1.0 + np.trace(jtj, axis1=1, axis2=2) / n)
        delta = -np.linalg.solve(jtj + ridge[:, None, None] * eye, gram[:, :n, n:])[:, :, 0]
        trial = t + delta
        step_sq = np.einsum("bi,bi->b", delta, delta)

    return t_out, res_out, exit_out


def solve_lee_forms(
    m: MetricLieAlgebra,
    starts: int = DEFAULT_STARTS,
    seed: int = DEFAULT_SEED,
    tol_root: float = DEFAULT_ROOT_TOL,
) -> SolveResult:
    """Find all Lee forms solving the Weyl-Einstein equation on ``m``.

    Starts are unit directions from a seeded generator placed on spheres of
    radius 0, r/2, r and 2r (cycling with the start index), where
    r = sqrt(|scal| / (n-2)) + 1 bounds the expected root scale.  Each start
    runs Levenberg-Marquardt on the packed frame residual until one of four
    rules stops it (root floor, short step, damping cap, iteration cap; see
    :func:`_levenberg_marquardt`); the result counts the starts per rule.  A
    start counts as a root when its polished residual is below
    ``tol_root * (1 + |Ric|)``; roots closer than :data:`DEFAULT_DEDUP_TOL`
    in the frame are merged keeping the earliest start.  Deterministic for
    fixed inputs.
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
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    radius = np.sqrt(abs(system.scal) / (n - 2)) + 1.0
    radii = np.array([0.0, 0.5 * radius, radius, 2.0 * radius])
    t0 = directions * radii[np.arange(starts) % 4][:, None]

    t_final, res_final, exit_final = _levenberg_marquardt(system, t0)
    infimum = float(np.min(res_final))
    counts = np.bincount(exit_final, minlength=len(EXIT_REASONS))
    exits = {reason: int(k) for reason, k in zip(EXIT_REASONS, counts)}

    threshold = tol_root * system.ric_scale
    picked: list[np.ndarray] = []
    picked_res: list[float] = []
    for i in range(starts):
        if res_final[i] > threshold:
            continue
        t = t_final[i]
        if any(np.linalg.norm(t - p) <= DEFAULT_DEDUP_TOL for p in picked):
            continue
        picked.append(t)
        picked_res.append(float(res_final[i]))

    order = sorted(range(len(picked)), key=lambda i: tuple(picked[i]))
    roots = tuple(frames.covector_from_basis(picked[i], m.frame) for i in order)
    residuals = tuple(picked_res[i] for i in order)
    return SolveResult(roots=roots, residuals=residuals, infimum=infimum, exits=exits)


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

    b = lee_gradient(m, theta) - np.outer(theta, theta) + 0.5 * w.lee.norm_sq * m.metric
    target = KN_CALIBRATION_SIGN * kulkarni_nomizu(m.metric, b)
    r4 = riemann.curvature_lowered(m, base.riem)
    diff_frame = frames.curvature04_in_basis(r4 - target, m.frame)
    kn_residual = float(np.linalg.norm(diff_frame))
    r4_scale = 1.0 + float(np.linalg.norm(frames.curvature04_in_basis(r4, m.frame)))
    flat = kn_residual <= FLATNESS_RTOL * r4_scale
    return FlatnessReport(ricci_flat=ricci_flat, flat=flat, kn_residual=kn_residual)
