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

The metric rescaled by a nonzero Lee form is Ricci-flat in both cases;
whether it is flat is read off the spectrum of ``sym``
(:func:`conformal_metric_flatness`).

The decomposition is deterministic.  The covectors l whose kernel is a
codimension-one abelian ideal, with 0, form one linear space L; when it has
dimension above one (abelian algebras, Heisenberg-plus-abelian) several ideals
exist, ``unique_ideal`` is reported ``False``, and the ideal is the kernel of
the g-orthogonal projection onto L of the first standard dual basis covector
e^i whose projection has norm above ``SIGNIFICANT_RTOL`` |e^i|.  On an abelian
algebra that is e^1, the ideal span(e_2, ..., e_n); on Heisenberg plus
abelian ([e_1, e_2] = e_3) it is also e^1, the ideal spanned by e_2, e_3 and
the abelian factor.
"""
from __future__ import annotations

import enum
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import frames
from .algebra import (
    REL_TOL,
    LieAlgebra,
    _brackets,
    ad,
    coefficient_tolerance,
)
from .errors import (
    ConsistencyError,
    InputError,
    NotAlmostAbelianError,
    NumericInputError,
    PreconditionError,
    StructureError,
)
from .riemann import CurvatureData, MetricLieAlgebra, _read_only
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


@lru_cache(maxsize=None)
def _ideal_system_plan(n: int) -> np.ndarray:
    """Gather plan of the ideal system at dimension n, cached and read-only.

    Row r of the system is ``ext[plan[r]]`` with ``ext`` the concatenation of
    c.ravel(), -c.ravel() and one zero.  The first C(n, 2) rows are the
    brackets c[i, j], i < j; the next n C(n, 3) rows are the coefficients of
    l ^ c^k on e_p ^ e_q ^ e_s, p < q < s, with c^k(x, y) = e^k([x, y]):
    c^k[q, s] at column p, -c^k[p, s] at q and c^k[p, q] at s.
    """
    cube, zero = n**3, 2 * n**3
    ks = np.arange(n)
    i, j = np.triu_indices(n, 1)
    brackets = ((i * n + j) * n)[:, None] + ks
    triples = np.array(list(combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3)
    wedges = np.full((n, len(triples), n), zero, dtype=np.intp)
    rows = np.arange(len(triples))
    p, q, s = triples.T
    wedges[:, rows, p] = ((q * n + s) * n)[None, :] + ks[:, None]
    wedges[:, rows, q] = cube + ((p * n + s) * n)[None, :] + ks[:, None]
    wedges[:, rows, s] = ((p * n + q) * n)[None, :] + ks[:, None]
    return _read_only(np.concatenate((brackets, wedges.reshape(-1, n))))


def _first_significant_positive(v: np.ndarray) -> np.ndarray:
    peak = float(np.max(np.abs(v)))
    for x in v:
        if abs(x) > SIGNIFICANT_RTOL * peak:
            return v if x > 0 else -v
    return v


def decompose(m: MetricLieAlgebra) -> AADecomposition:
    """Find a codimension-one abelian ideal and the adapted orthonormal data.

    Every step runs in the orthonormal frame, where g = I; only the normal
    and the ideal basis are mapped back.  ker(l) is an abelian ideal of
    codimension one exactly when the covector l kills every bracket (an
    ideal) and l ^ c^k = 0 for every component 2-form c^k (abelian): one
    linear system on l (:func:`_ideal_system_plan`) whose null space L, read
    from one SVD at the cutoff ``REL_TOL`` lam, holds every such l.  L = 0
    raises :class:`NotAlmostAbelianError`; ``unique_ideal`` is dim L = 1.
    The normal covector is the g-orthogonal projection onto L of the first
    standard dual covector e^i whose projection is significant relative to
    |e^i|, independent of the basis the SVD picks in L.  The ideal basis is
    the Gram-Schmidt of the standard vectors projected off the unit normal
    b, as one QR of [b | e_1 ... e_n without e_j] with the signs of diag R;
    e_j, j the last significant component of b, is the dependent vector.
    The ad-gap and abelian checks read the same cutoff.
    """
    flat = m.frame_algebra.c.ravel()
    system = np.concatenate((flat, -flat, [0.0]))[_ideal_system_plan(m.dim)]
    cutoff = REL_TOL * m.structure_scale
    _, values, vh = np.linalg.svd(system, full_matrices=False)
    admissible = vh[np.count_nonzero(values > cutoff):]

    if len(admissible) == 0:
        raise NotAlmostAbelianError(
            "no covector kills every bracket and wedges to zero with every bracket "
            "component: the algebra has no codimension-one abelian ideal"
        )
    # column i: the projection of e^i (frame components: row i of U) in L
    coords = admissible @ m.frame.T
    size = np.sqrt(np.add.reduce(m.frame * m.frame, axis=1))  # np.linalg.norm's sum
    large = np.sqrt(np.add.reduce(coords * coords, axis=0)) > SIGNIFICANT_RTOL * size
    ell = admissible.T @ coords[:, np.argmax(large)]

    # unit normal, its first significant input-basis component positive
    b_f = ell / np.linalg.norm(ell)
    b = m.frame @ b_f
    magnitude = np.abs(b)
    significant = np.flatnonzero(magnitude > SIGNIFICANT_RTOL * magnitude.max())
    if b[significant[0]] < 0:
        b, b_f = -b, -b_f

    # the columns of L^T are the standard basis vectors in the frame
    j = significant[-1]
    operand = m._cholesky.T.copy()  # [b | e_1 ... e_n without e_j], in place
    operand[:, 1 : j + 1] = m._cholesky.T[:, :j]
    operand[:, 0] = b_f
    q, r = np.linalg.qr(operand)
    h_f = (q[:, 1:] * np.copysign(1.0, r.diagonal()[1:])).T

    ad_b = ad(m.frame_algebra, b_f)
    restricted = h_f @ ad_b @ h_f.T
    gap = float(np.abs(ad_b @ h_f.T - h_f.T @ restricted).max())
    if gap > cutoff:
        raise ConsistencyError(
            f"ad_normal on the ideal basis and its projection onto the ideal differ by "
            f"{gap:.3e} in max norm (tolerance {cutoff:.3e})"
        )
    gap = float(np.abs(_brackets(m.frame_algebra, h_f, h_f)).max())
    if gap > cutoff:
        raise ConsistencyError(
            f"computed ideal is not abelian: the brackets of the ideal basis and zero differ "
            f"by {gap:.3e} in max norm (tolerance {cutoff:.3e})"
        )

    skew = 0.5 * (restricted - restricted.T)
    sym = 0.5 * (restricted + restricted.T)

    return AADecomposition(ideal_basis=h_f @ m.frame.T, normal=b, skew=skew, sym=sym,
                           unique_ideal=len(admissible) == 1)


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


def build_semidirect(skew: np.ndarray, sym: np.ndarray) -> MetricLieAlgebra:
    """Extend an abelian ideal with an orthonormal basis by one derivation:
    ad of the new direction, a unit normal, acts as ``skew + sym`` on the
    ideal.  Any other inner product on the ideal is a basis change of this
    algebra (:func:`lieweyl.riemann.change_basis`)."""
    skew = np.asarray(skew, dtype=float)
    sym = np.asarray(sym, dtype=float)
    if skew.ndim != 2 or skew.shape[0] != skew.shape[1] or skew.shape != sym.shape:
        raise StructureError("skew and sym must be square matrices of equal size")
    nh = skew.shape[0]
    if nh < 1:
        raise StructureError("ideal dimension must be at least 1")
    if not (np.isfinite(skew).all() and np.isfinite(sym).all()):
        raise NumericInputError("matrix input contains NaN or infinity")
    tol = coefficient_tolerance(skew, sym)
    if np.max(np.abs(skew + skew.T)) > tol:
        raise InputError("skew part is not skew-symmetric")
    if np.max(np.abs(sym - sym.T)) > tol:
        raise InputError("sym part is not symmetric")

    n = nh + 1
    c = np.zeros((n, n, n))
    action = skew + sym
    c[0, 1:, 1:] = action.T
    c[1:, 0, 1:] = -action.T
    return MetricLieAlgebra(LieAlgebra(c), np.eye(n))


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

    shift, lee = _trace_case_scalars(n, a)
    m = build_semidirect(np.zeros((nh, nh)), shift * np.eye(nh) + seed)
    theta = np.zeros(n)
    theta[0] = lee
    return m, theta


def _trace_case_scalars(n: int, a: float) -> tuple[float, float]:
    """The scalar part a sqrt((n-2)/(n-1)) of a trace-case ``sym`` and its Lee
    coefficient a sqrt((n-1)/(n-2)), for a traceless seed of norm |a|."""
    return a * np.sqrt((n - 2) / (n - 1)), a * np.sqrt((n - 1) / (n - 2))


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

    # the frame F is g-orthonormal, so inv(F) = F^T g
    back = dec.frame.T @ m.metric
    riem = frames.tensor_in_basis(riem_f, back, dec.frame.T, upper=1)
    ricci = frames.form_in_basis(ric_f, back)
    return CurvatureData(riem=riem, ricci=ricci, scalar=scalar)


def conformal_metric_flatness(
    dec: AADecomposition, m: MetricLieAlgebra, theta: np.ndarray
) -> bool:
    """Spectral flatness verdict for the rescaled metric of a nonzero
    Weyl-Einstein Lee form.  That metric is always Ricci-flat, so only
    flatness is returned (:func:`lieweyl.weyl.conformal_flatness` computes
    both from the curvature); it is flat exactly when ``sym`` is scalar or
    has eigenvalue pattern (alpha repeated, 0 simple) with alpha nonzero."""
    theta = _as_covector(m, theta)
    if m.covector_norm(theta) <= REL_TOL * m.structure_scale:
        raise PreconditionError("Lee form must be nonzero")
    # the root test's scale, lam^2 + |Ric|, and the spectrum's own size
    resid = weyl_einstein_residual(m, theta)
    ric_norm = float(np.linalg.norm(m.frame_curvature.ricci))
    if resid.norm > WE_PRECONDITION_RTOL * m.curvature_scale(ric_norm):
        raise PreconditionError("covector is not a Weyl-Einstein Lee form")

    eigs = np.linalg.eigvalsh(dec.sym)
    ctol = EIGEN_CLUSTER_RTOL * float(np.max(np.abs(eigs)))
    return _is_flat_pattern(eigs, ctol)


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
