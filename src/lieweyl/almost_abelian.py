"""Algebras with a codimension-one abelian ideal, and their Weyl geometry.

For such an algebra the whole structure is one endomorphism: pick the abelian
ideal ``h``, the unit ``g``-normal ``b`` of ``h``, and restrict ``ad_b`` to an
orthonormal basis of ``h``; write it as ``skew + sym`` (g-skew and g-symmetric
parts).  Curvature is then a closed polynomial in ``sym`` and ``[skew, sym]``,
and the Weyl-Einstein equation collapses to a two-case test on traces of
``sym``:

* ``sym`` scalar: every member of the family is Einstein up to rescaling, and
  the Lee forms are 0 and (that scalar) times the dual of ``b``;
* ``sym`` nonzero with ``(tr sym)^2 = (n-2) tr(sym^2)`` and ``[skew, sym] = 0``:
  a single non-exact solution ``(tr sym / (n-2))`` times the dual of ``b``;
* anything else admits no Weyl-Einstein structure.

The decomposition is deterministic: when several ideals exist (abelian
algebras, Heisenberg-plus-abelian) the earliest standard-basis choice wins and
``unique_ideal`` is reported ``False``.
"""
from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from . import frames
from .algebra import (
    REL_TOL,
    LieAlgebra,
    ad,
    coefficient_tolerance,
    derived_subalgebra,
    nullspace,
    row_space,
)
from .errors import (
    ConsistencyError,
    HintError,
    InputError,
    MetricError,
    NotAlmostAbelianError,
    NumericInputError,
    PreconditionError,
    StructureError,
)
from .riemann import CurvatureData, MetricLieAlgebra
from .weyl import _as_covector, weyl_einstein_residual

EIGEN_CLUSTER_RTOL = 1e-7
WE_PRECONDITION_RTOL = 1e-6
SIGNIFICANT_RTOL = 1e-8  # see the tolerance policy in lieweyl.algebra


class AADecomposition(NamedTuple):
    """Adapted data of a codimension-one abelian ideal.

    ``ideal_basis`` rows are a g-orthonormal basis of the ideal, ``normal`` is
    the unit normal with its first significant component positive, ``skew``
    and ``sym`` are the parts of ``ad_normal`` restricted to the ideal in that
    basis.  ``unique_ideal`` is False exactly when other codimension-one
    abelian ideals exist.
    """

    ideal_basis: np.ndarray
    normal: np.ndarray
    skew: np.ndarray
    sym: np.ndarray
    unique_ideal: bool

    @property
    def frame(self) -> np.ndarray:
        """Columns (normal, ideal basis...): a g-orthonormal basis of the algebra."""
        return np.column_stack([self.normal, self.ideal_basis.T])


def _is_abelian_subspace(m: MetricLieAlgebra, rows: np.ndarray) -> bool:
    if rows.shape[0] < 2:
        return True
    prods = np.einsum("ap,bq,pqk->abk", rows, rows, m.c)
    return float(np.max(np.abs(prods))) <= REL_TOL * m.algebra.scale


def _is_ideal(m: MetricLieAlgebra, rows: np.ndarray) -> bool:
    if rows.shape[0] == 0:
        return True
    prods = np.einsum("ip,aq,pqk->iak", np.eye(m.dim), rows, m.c).reshape(-1, m.dim)
    outside = prods - prods @ rows.T @ rows
    return float(np.max(np.abs(outside))) <= REL_TOL * m.algebra.scale


def _standard_complement(rows: np.ndarray, n: int, count: int) -> np.ndarray:
    """First ``count`` standard basis vectors independent of ``rows`` (greedy)."""
    picked: list[np.ndarray] = []
    basis = rows
    for i in range(n):
        v = np.eye(n)[i]
        resid = v - basis.T @ (basis @ v)
        if np.linalg.norm(resid) > SIGNIFICANT_RTOL:
            picked.append(v)
            basis = row_space(np.vstack([basis, v]), n)
            if len(picked) == count:
                break
    if len(picked) != count:
        raise ConsistencyError("failed to complete a complement basis")
    return np.array(picked)


def _central_quotient_ideal(m: MetricLieAlgebra, der: np.ndarray) -> np.ndarray:
    """Ideal search when the derived subalgebra is central.

    Brackets then descend to derived-subalgebra-valued skew forms on the
    quotient by the derived subalgebra; a codimension-one abelian ideal is the
    preimage of a hyperplane on which all those forms vanish, and such a
    hyperplane ker(l) exists iff every form wedges to zero against l, a linear
    condition on l.
    """
    n = m.dim
    d = der.shape[0]
    mq = n - d
    comp = _standard_complement(der, n, mq)
    forms = np.einsum("pi,qj,ijk,ak->apq", comp, comp, m.c, der)

    if mq == 2:
        # any line in the quotient works; take the earliest complement vector
        lifted = comp[:1]
    else:
        rows = []
        for a in range(d):
            for p in range(mq):
                for q in range(p + 1, mq):
                    for s in range(q + 1, mq):
                        row = np.zeros(mq)
                        row[s] += forms[a, p, q]
                        row[q] -= forms[a, p, s]
                        row[p] += forms[a, q, s]
                        rows.append(row)
        null = nullspace(np.array(rows), REL_TOL * m.algebra.scale) if rows else np.eye(mq)
        if null.shape[0] == 0:
            raise NotAlmostAbelianError(
                "no hyperplane kills all quotient bracket forms; "
                "the algebra has no codimension-one abelian ideal"
            )
        ell = null[0]
        lifted = nullspace(ell[None, :]) @ comp

    candidate = row_space(np.vstack([der, lifted]), n)
    if candidate.shape[0] != n - 1:
        raise ConsistencyError("quotient ideal construction lost a dimension")
    return candidate


def _first_significant_positive(v: np.ndarray) -> np.ndarray:
    peak = float(np.max(np.abs(v)))
    for x in v:
        if abs(x) > SIGNIFICANT_RTOL * peak:
            return v if x > 0 else -v
    return v


def decompose(m: MetricLieAlgebra, hint: np.ndarray | None = None) -> AADecomposition:
    """Find a codimension-one abelian ideal and the adapted orthonormal data.

    ``hint`` may supply the ideal as rows spanning it; it is validated and
    used as-is.  Without a hint the ideal is derived from the structure: the
    derived subalgebra when it already has codimension one, else the
    centralizer of the derived subalgebra, else the central-quotient search.
    Raises :class:`NotAlmostAbelianError` when no such ideal exists.  Ideal
    tests read ``REL_TOL`` |c|, the ad_normal invariance check ``REL_TOL`` lam.
    """
    n = m.dim
    if n < 2:
        raise NotAlmostAbelianError("need dimension at least 2")
    tol = REL_TOL * m.algebra.scale
    abelian = float(np.max(np.abs(m.c))) <= tol
    der = derived_subalgebra(m.algebra)
    d = der.shape[0]

    if hint is not None:
        rows = np.asarray(hint, dtype=float)
        if rows.shape != (n - 1, n):
            raise HintError(f"ideal hint must be an ({n - 1}, {n}) array of rows, got {rows.shape}")
        if not np.isfinite(rows).all():
            raise HintError("ideal hint contains NaN or infinity")
        span = row_space(rows, n)
        if span.shape[0] != n - 1:
            raise HintError("ideal hint rows are not linearly independent")
        if not _is_abelian_subspace(m, span):
            raise HintError("ideal hint is not abelian")
        if not _is_ideal(m, span):
            raise HintError("ideal hint is not an ideal")
        span_rows = span
    elif abelian:
        span_rows = row_space(np.eye(n)[1:], n)
    elif d == n:
        raise NotAlmostAbelianError("derived subalgebra is the whole algebra")
    elif not _is_abelian_subspace(m, der):
        raise NotAlmostAbelianError("derived subalgebra is not abelian")
    elif d == n - 1:
        span_rows = der
    else:
        # centralizer of the derived subalgebra
        maps = [np.einsum("ijk,j->ki", m.c, w) for w in der]
        stacked = np.vstack(maps)
        z_rows = nullspace(stacked, REL_TOL * m.algebra.scale)
        if z_rows.shape[0] < n - 1:
            raise NotAlmostAbelianError(
                "centralizer of the derived subalgebra is too small for a "
                "codimension-one abelian ideal"
            )
        if z_rows.shape[0] == n - 1:
            if not _is_abelian_subspace(m, z_rows):
                raise NotAlmostAbelianError("the only candidate ideal is not abelian")
            span_rows = z_rows
        else:
            span_rows = _central_quotient_ideal(m, der)

    # unit normal, sign-fixed
    normal_rows = nullspace(span_rows @ m.metric)
    if normal_rows.shape[0] != 1:
        raise ConsistencyError("ideal normal is not one-dimensional")
    b = normal_rows[0]
    b = b / np.sqrt(m.inner(b, b))
    b = _first_significant_positive(b)

    # g-orthonormal ideal basis from projected standard basis vectors
    hvecs: list[np.ndarray] = []
    for i in range(n):
        v = np.eye(n)[i] - m.inner(np.eye(n)[i], b) * b
        for h in hvecs:
            v = v - m.inner(v, h) * h
        nv = m.inner(v, v)
        if nv > 1e-16 * max(1.0, float(np.trace(m.metric))):
            hvecs.append(v / np.sqrt(nv))
            if len(hvecs) == n - 1:
                break
    if len(hvecs) != n - 1:
        raise ConsistencyError("could not orthonormalize the ideal")
    h = np.array(hvecs)

    ad_b = ad(m.algebra, b)
    restricted = h @ m.metric @ ad_b @ h.T
    gap = float(np.max(np.abs(ad_b @ h.T - h.T @ restricted)))
    bound = REL_TOL * m.structure_scale
    if gap > bound:
        raise ConsistencyError(
            f"ad_normal on the ideal basis and its projection onto the ideal differ by "
            f"{gap:.3e} in max norm (tolerance {bound:.3e})"
        )
    if not _is_abelian_subspace(m, h):
        raise ConsistencyError("computed ideal is not abelian")

    skew = 0.5 * (restricted - restricted.T)
    sym = 0.5 * (restricted + restricted.T)

    if abelian:
        unique = False
    elif d == 1:
        w = der[0]
        central = float(np.max(np.abs(np.einsum("ijk,j->ki", m.c, w)))) <= tol
        unique = not central
    else:
        unique = True

    return AADecomposition(
        ideal_basis=h, normal=b, skew=skew, sym=sym, unique_ideal=unique
    )


class WEClass(enum.Enum):
    """Outcome of the Weyl-Einstein classification."""

    EINSTEIN_FAMILY = "EinsteinFamily"
    TRACE_CASE = "TraceCase"
    NO_WE = "NoWE"


class AAClassification(NamedTuple):
    """Case label, its defining coefficient and the exact Lee form set.

    ``coefficient`` is the scalar value of ``sym`` in the Einstein family case
    and ``tr sym / (n-2)`` in the trace case (NaN otherwise); ``lee_forms``
    are covectors in the standard dual basis, by increasing g-norm (0 first),
    an order that does not depend on the basis.
    """

    case: WEClass
    coefficient: float
    lee_forms: tuple


def classify_weyl_einstein(dec: AADecomposition, m: MetricLieAlgebra) -> AAClassification:
    n = m.dim
    if n < 3:
        raise PreconditionError("classification needs dimension at least 3")
    # tests on sym / lam and skew / lam; the coefficient and Lee forms from sym
    lam = m.structure_scale
    s = dec.sym / lam
    a = dec.skew / lam
    nh = n - 1
    tr_sym = float(np.trace(dec.sym))
    tr_s = tr_sym / lam
    tr_s2 = float(np.trace(s @ s))
    tol = REL_TOL * (1.0 + float(np.sum(s * s)))
    s0_norm = float(np.linalg.norm(s - (tr_s / nh) * np.eye(nh)))
    b_flat = m.lower_vector(dec.normal)

    if s0_norm <= tol:
        k = tr_sym / nh
        if abs(tr_s / nh) <= tol:
            roots = [np.zeros(n)]
        else:
            roots = [np.zeros(n), k * b_flat]
        case, coeff = WEClass.EINSTEIN_FAMILY, k
    elif (
        float(np.linalg.norm(s)) > tol
        and abs(tr_s**2 - (n - 2) * tr_s2) <= tol
        and float(np.linalg.norm(a @ s - s @ a)) <= tol
    ):
        mu = tr_sym / (n - 2)
        roots = [mu * b_flat]
        case, coeff = WEClass.TRACE_CASE, mu
    else:
        roots = []
        case, coeff = WEClass.NO_WE, float("nan")

    return AAClassification(case=case, coefficient=coeff, lee_forms=tuple(roots))


def build_semidirect(
    skew: np.ndarray, sym: np.ndarray, inner: np.ndarray | None = None
) -> MetricLieAlgebra:
    """Extend an abelian ideal by one derivation: ad of the new direction acts
    as ``skew + sym`` on the ideal.  ``inner`` is the inner product on the
    ideal (identity by default); the new direction is a unit normal."""
    skew = np.asarray(skew, dtype=float)
    sym = np.asarray(sym, dtype=float)
    if skew.ndim != 2 or skew.shape[0] != skew.shape[1] or skew.shape != sym.shape:
        raise StructureError("skew and sym must be square matrices of equal size")
    nh = skew.shape[0]
    if nh < 1:
        raise StructureError("ideal dimension must be at least 1")
    if not (np.isfinite(skew).all() and np.isfinite(sym).all()):
        raise NumericInputError("matrix input contains NaN or infinity")
    g0 = np.eye(nh) if inner is None else np.asarray(inner, dtype=float)
    if g0.shape != (nh, nh):
        raise StructureError(f"inner product must have shape ({nh}, {nh})")
    tol = coefficient_tolerance(skew, sym, g0)
    if np.max(np.abs(g0 - g0.T)) > tol:
        raise MetricError("ideal inner product is not symmetric", "symmetric")
    try:
        np.linalg.cholesky(g0)
    except np.linalg.LinAlgError:
        raise MetricError(
            "ideal inner product is not positive definite", "positive-definite"
        ) from None
    if np.max(np.abs((g0 @ skew) + (g0 @ skew).T)) > tol:
        raise InputError("skew part is not skew-adjoint for the given inner product")
    if np.max(np.abs((g0 @ sym) - (g0 @ sym).T)) > tol:
        raise InputError("sym part is not self-adjoint for the given inner product")

    n = nh + 1
    c = np.zeros((n, n, n))
    action = skew + sym
    c[0, 1:, 1:] = action.T
    c[1:, 0, 1:] = -action.T
    metric = np.zeros((n, n))
    metric[0, 0] = 1.0
    metric[1:, 1:] = g0
    return MetricLieAlgebra(LieAlgebra(c), metric)


def trace_case_instance(n: int, seed: np.ndarray, a: float) -> tuple[MetricLieAlgebra, np.ndarray]:
    """Non-Einstein Weyl-Einstein instance from a traceless symmetric seed.

    Given a nonzero traceless symmetric ``seed`` on the (n-1)-dimensional
    ideal and ``a`` with ``a^2 = tr(seed^2)``, the semidirect algebra with

        sym = a sqrt((n-2)/(n-1)) Id + seed

    satisfies the trace-case conditions, and the returned covector
    ``a sqrt((n-1)/(n-2))`` times the normal's dual is its unique Lee form.
    """
    if n < 3:
        raise InputError("need dimension at least 3")
    seed = np.asarray(seed, dtype=float)
    nh = n - 1
    if seed.shape != (nh, nh):
        raise StructureError(f"seed must have shape ({nh}, {nh}), got {seed.shape}")
    tol = coefficient_tolerance(seed) * nh
    if np.max(np.abs(seed - seed.T)) > tol:
        raise InputError("seed must be symmetric")
    if abs(np.trace(seed)) > tol:
        raise InputError("seed must be traceless")
    norm_sq = float(np.sum(seed * seed))
    if norm_sq <= tol * tol:
        raise InputError("seed must be nonzero")
    if abs(a * a - norm_sq) > tol * (1.0 + norm_sq):
        raise InputError("need a^2 = tr(seed^2)")

    sym = a * np.sqrt((n - 2) / (n - 1)) * np.eye(nh) + seed
    m = build_semidirect(np.zeros((nh, nh)), sym)
    theta = np.zeros(n)
    theta[0] = a * np.sqrt((n - 1) / (n - 2))
    return m, theta


def curvature_closed_form(dec: AADecomposition, m: MetricLieAlgebra) -> CurvatureData:
    """Curvature, Ricci and scalar from the ideal data alone (no connection).

    In the adapted frame (b, ideal basis), with S = sym and C = [skew, sym]:

        R(u_i, u_j)u_k = S[j,k] S u_i - S[i,k] S u_j
        R(b, u_j)b     = C u_j - S^2 u_j         (all other b-slots via symmetry)
        Ric            = diag(-tr S^2, C - (tr S) S)
        scal           = -tr S^2 - (tr S)^2
    """
    s = dec.sym
    comm = dec.skew @ s - s @ dec.skew
    nh = s.shape[0]
    n = nh + 1
    riem_f = np.zeros((n, n, n, n))

    # ideal-ideal slots
    ss_outer = np.einsum("jk,mi->ijkm", s, s)
    riem_f[1:, 1:, 1:, 1:] = ss_outer - np.einsum("ijkm->jikm", ss_outer)
    # slots containing b
    s2 = s @ s
    riem_f[0, 1:, 1:, 0] = s2 - comm
    riem_f[0, 1:, 0, 1:] = (comm - s2).T
    riem_f[1:, 0, :, :] = -riem_f[0, 1:, :, :]

    ric_f = np.zeros((n, n))
    tr_s = float(np.trace(s))
    tr_s2 = float(np.trace(s2))
    ric_f[0, 0] = -tr_s2
    ric_f[1:, 1:] = comm - tr_s * s
    scalar = -tr_s2 - tr_s**2

    back = np.linalg.inv(dec.frame)
    riem = frames.curvature13_in_basis(riem_f, back)
    ricci = frames.form_in_basis(ric_f, back)
    return CurvatureData(riem=riem, ricci=ricci, scalar=scalar)


class RescaleVerdict(NamedTuple):
    """Flatness of the conformal rescaling attached to a nonzero Lee form."""

    ricci_flat: bool
    flat: bool


def conformal_metric_flatness(
    dec: AADecomposition, m: MetricLieAlgebra, theta: np.ndarray
) -> RescaleVerdict:
    """Spectral verdict for the rescaled metric of a nonzero Weyl-Einstein
    Lee form: always Ricci-flat; flat exactly when ``sym`` is scalar or has
    eigenvalue pattern (alpha repeated, 0 simple) with alpha nonzero."""
    theta = _as_covector(m, theta)
    if m.covector_norm(theta) <= REL_TOL * m.structure_scale:
        raise PreconditionError("Lee form must be nonzero")
    # the root test's scale, lam^2 + |Ric|, and the spectrum's own size
    resid = weyl_einstein_residual(m, theta)
    if resid.norm > WE_PRECONDITION_RTOL * m.curvature_scale(m.form_norm(m.curvature_data.ricci)):
        raise PreconditionError("covector is not a Weyl-Einstein Lee form")

    eigs = np.linalg.eigvalsh(dec.sym)
    ctol = EIGEN_CLUSTER_RTOL * float(np.max(np.abs(eigs)))
    return RescaleVerdict(ricci_flat=True, flat=_is_flat_pattern(eigs, ctol))


def _is_flat_pattern(eigs: np.ndarray, tol: float) -> bool:
    """Spectrum of ``sym`` with a flat rescaling: one cluster, or one simple
    zero and one cluster, clusters and zeros taken to within ``tol``."""
    eigs = np.sort(np.asarray(eigs, dtype=float))
    if eigs[-1] - eigs[0] <= tol:
        return True
    zero = np.abs(eigs) <= tol
    if int(np.sum(zero)) != 1:
        return False
    rest = eigs[~zero]
    return float(np.max(rest) - np.min(rest)) <= tol
