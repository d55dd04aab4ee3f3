"""Model algebras and seeded random instance generators.

Deterministic constructors for the standard small examples used throughout
the tests (Heisenberg, filiform, free two-step nilpotent, hyperbolic-type
semidirect products), plus random generators for the statistical suites:
almost abelian instances of each classification case and mixed metric Lie
algebras drawn from the catalog families under well-conditioned random basis
changes.  Every generator takes an explicit ``numpy`` Generator so runs are
reproducible.
"""
from __future__ import annotations

import numpy as np

from . import catalog3d, riemann
from .algebra import LieAlgebra
from .almost_abelian import _is_flat_pattern, _trace_case_scalars, build_semidirect
from .errors import InputError
from .riemann import MetricLieAlgebra

GENERIC_MARGIN = 0.2


def abelian(n: int) -> MetricLieAlgebra:
    return MetricLieAlgebra(LieAlgebra(np.zeros((n, n, n))), np.eye(n))


def heisenberg(extra: int = 0) -> MetricLieAlgebra:
    """3-dimensional Heisenberg algebra, optionally plus an abelian factor."""
    n = 3 + extra
    e3 = np.zeros(n)
    e3[2] = 1.0
    alg = LieAlgebra.from_brackets(n, {(0, 1): e3})
    return MetricLieAlgebra(alg, np.eye(n))


def filiform4() -> MetricLieAlgebra:
    """[e1,e2] = e3, [e1,e3] = e4: the 4-dimensional filiform algebra."""
    e3 = np.array([0.0, 0.0, 1.0, 0.0])
    e4 = np.array([0.0, 0.0, 0.0, 1.0])
    alg = LieAlgebra.from_brackets(4, {(0, 1): e3, (0, 2): e4})
    return MetricLieAlgebra(alg, np.eye(4))


def free_two_step() -> MetricLieAlgebra:
    """Free 2-step nilpotent algebra on three generators (dimension 6)."""
    brackets = {}
    for target, (i, j) in zip((3, 4, 5), ((0, 1), (0, 2), (1, 2))):
        v = np.zeros(6)
        v[target] = 1.0
        brackets[(i, j)] = v
    alg = LieAlgebra.from_brackets(6, brackets)
    return MetricLieAlgebra(alg, np.eye(6))


def hyperbolic(n: int, k: float = 1.0) -> MetricLieAlgebra:
    """ad of the unit normal acts as k times the identity on the ideal."""
    nh = n - 1
    return build_semidirect(np.zeros((nh, nh)), k * np.eye(nh))


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_basis_change(rng: np.random.Generator, n: int) -> np.ndarray:
    """Well-conditioned invertible matrix (condition number below about 2)."""
    scales = np.exp(rng.uniform(-0.3, 0.3, size=n))
    return random_orthogonal(rng, n) @ np.diag(scales) @ random_orthogonal(rng, n)


def conditioned_basis(rng: np.random.Generator, n: int, kappa: float) -> np.ndarray:
    """U diag(s) V with U, V random orthogonal and s log-spaced from 1 to ``kappa``:
    a basis of condition kappa, in which an orthonormal basis's metric has condition kappa^2."""
    s = np.logspace(0.0, np.log10(kappa), n)
    return random_orthogonal(rng, n) @ np.diag(s) @ random_orthogonal(rng, n)


def _random_skew(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return 0.5 * (a - a.T)


def _random_sym(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def random_almost_abelian(
    rng: np.random.Generator, dim: int, kind: str, basis_change: bool = True
) -> MetricLieAlgebra:
    """Almost abelian instance with a known classification case.

    ``kind`` is ``"einstein"`` (scalar sym part, arbitrary skew part),
    ``"trace"`` (trace-case instance, skew part commuting with the sym part)
    or ``"generic"`` (fails both cases by at least :data:`GENERIC_MARGIN`
    relative to 1 + |sym|^2).  The instance is expressed in a random
    well-conditioned basis unless ``basis_change`` is off.
    """
    if dim < 3:
        raise InputError(f"need dimension at least 3, got {dim}")
    if kind not in ("einstein", "trace", "generic"):
        raise InputError(f"unknown kind {kind!r}: need einstein, trace or generic")
    nh = dim - 1
    if kind == "einstein":
        k = 0.0 if rng.random() < 0.2 else float(rng.uniform(-1.5, 1.5))
        skew = _random_skew(rng, nh)
        m = build_semidirect(skew, k * np.eye(nh))
    elif kind == "trace":
        m, _ = random_trace_case(rng, dim)
    else:
        for _ in range(1000):
            sym = _random_sym(rng, nh)
            skew = _random_skew(rng, nh)
            tr = np.trace(sym)
            scale = 1.0 + float(np.sum(sym * sym))
            off_scalar = float(np.linalg.norm(sym - (tr / nh) * np.eye(nh)))
            trace_gap = abs(tr**2 - (dim - 2) * float(np.trace(sym @ sym)))
            comm = float(np.linalg.norm(skew @ sym - sym @ skew))
            if off_scalar >= GENERIC_MARGIN * scale and (
                trace_gap >= GENERIC_MARGIN * scale or comm >= GENERIC_MARGIN * scale
            ):
                break
        else:  # reached from n = 10 on: the margin grows like |sym|^2, faster than off_scalar
            raise RuntimeError("rejection sampling failed")
        m = build_semidirect(skew, sym)
    if basis_change:
        m = riemann.change_basis(m, random_basis_change(rng, dim))
    return m


def random_trace_case(
    rng: np.random.Generator, dim: int, basis_change: bool = False, flat_pattern: bool | None = None
) -> tuple[MetricLieAlgebra, np.ndarray]:
    """Trace-case instance together with its unique Lee form.

    ``flat_pattern=True`` forces sym eigenvalues (alpha, ..., alpha, 0), which
    makes the attached conformal rescaling flat; ``False`` forces a spectrum
    away from that shape by a clear margin; ``None`` draws a generic traceless
    seed.  Half of the eligible draws carry a nonzero commuting skew part
    (rotation in a repeated-eigenvalue plane, so it needs ideal dimension 3+).
    """
    if dim < 3:
        raise InputError(f"need dimension at least 3, got {dim}")
    nh = dim - 1
    n = dim
    if flat_pattern is False and dim == 3:
        # with two eigenvalues the trace identity (tr S)^2 = tr(S^2) forces
        # the spectrum (alpha, 0), which is exactly the flat pattern
        raise InputError("flat_pattern=False is impossible in dimension 3")
    want_skew = nh >= 3 and rng.random() < 0.5
    for _ in range(1000):
        if flat_pattern is True:
            # this spectrum satisfies the trace identity exactly: with n-2
            # repeated alphas, (tr)^2 = alpha^2 (n-2)^2 = (n-2) tr(sym^2)
            alpha = float(rng.uniform(0.5, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
            sym_eigs = np.full(nh, alpha)
            sym_eigs[-1] = 0.0
            mu = alpha
            break
        eigs = rng.uniform(-2.0, 2.0, size=nh)
        if want_skew:
            eigs[1] = eigs[0]
        seed_eigs = eigs - np.mean(eigs)
        if float(np.linalg.norm(seed_eigs)) < 0.4:
            continue
        a = float(np.linalg.norm(seed_eigs)) * (1.0 if rng.random() < 0.5 else -1.0)
        shift, mu = _trace_case_scalars(n, a)
        sym_eigs = shift + seed_eigs
        if flat_pattern is False and _is_flat_pattern(sym_eigs, tol=0.05):
            continue
        break
    else:  # pragma: no cover - margins make this unreachable
        raise RuntimeError("rejection sampling failed")

    skew_diag = np.zeros((nh, nh))
    if want_skew and abs(sym_eigs[0] - sym_eigs[1]) < 1e-12:
        rate = float(rng.uniform(0.2, 1.5))
        skew_diag[0, 1], skew_diag[1, 0] = rate, -rate

    q = random_orthogonal(rng, nh)
    sym = q @ np.diag(sym_eigs) @ q.T
    sym = 0.5 * (sym + sym.T)
    m = build_semidirect(q @ skew_diag @ q.T, sym)
    theta = np.zeros(n)
    theta[0] = mu
    if basis_change:
        change = random_basis_change(rng, n)
        m = riemann.change_basis(m, change)
        theta = change.T @ theta
    return m, theta


def _direct_sum_with_abelian(m: MetricLieAlgebra, extra: int) -> MetricLieAlgebra:
    if extra == 0:
        return m
    n = m.dim + extra
    c = np.zeros((n, n, n))
    c[: m.dim, : m.dim, : m.dim] = m.c
    metric = np.eye(n)
    metric[: m.dim, : m.dim] = m.metric
    return MetricLieAlgebra(LieAlgebra(c), metric)


def _random_catalog_point(rng: np.random.Generator) -> catalog3d.Family3D:
    roll = rng.integers(0, 6)
    nu = float(rng.uniform(0.4, 2.5))
    mu = float(rng.uniform(0.3, 1.0))
    if roll == 0:
        return catalog3d.Family3D(catalog3d.BracketFamily.SOL, catalog3d.MetricFamily.G_MU_NU,
                                  mu=float(rng.uniform(0.4, 2.0)), nu=nu)
    if roll == 1:
        return catalog3d.Family3D(catalog3d.BracketFamily.SO2R2, catalog3d.MetricFamily.G_MU_NU,
                                  mu=mu, nu=nu)
    if roll == 2:
        return catalog3d.Family3D(catalog3d.BracketFamily.R_ID_R2, catalog3d.MetricFamily.G_NU, nu=nu)
    if roll == 3:
        t = float(rng.uniform(1.2, 4.0))
        return catalog3d.Family3D(catalog3d.BracketFamily.GT, catalog3d.MetricFamily.H_MU_NU,
                                  t=t, mu=float(rng.uniform(1.0 + 1e-3, t)), nu=nu)
    if roll == 4:
        return catalog3d.Family3D(catalog3d.BracketFamily.GT, catalog3d.MetricFamily.M_NU, nu=nu)
    return catalog3d.Family3D(catalog3d.BracketFamily.GT, catalog3d.MetricFamily.G_MU_NU,
                              mu=float(rng.uniform(0.4, 2.0)), nu=nu)


def random_metric_algebra(rng: np.random.Generator, dim: int) -> MetricLieAlgebra:
    """Mixed draw for the invariant suites: catalog families, nilpotent
    models and almost abelian instances, in a random well-conditioned basis."""
    if dim < 3:
        raise InputError(f"need dimension at least 3, got {dim}")
    roll = int(rng.integers(0, 6))
    if roll == 0:
        m = abelian(dim)
    elif roll == 1:
        m = heisenberg(extra=dim - 3)
    elif roll == 2 and dim >= 4:
        m = _direct_sum_with_abelian(filiform4(), dim - 4)
    elif roll == 3:
        m = _direct_sum_with_abelian(catalog3d.build_family(_random_catalog_point(rng)), dim - 3)
    else:
        kind = ("einstein", "trace", "generic")[int(rng.integers(0, 3))]
        m = random_almost_abelian(rng, dim, kind, basis_change=False)
    return riemann.change_basis(m, random_basis_change(rng, dim))
