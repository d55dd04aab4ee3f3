"""Real Lie algebras described by structure constants.

A Lie algebra of dimension ``n`` is stored as an ``(n, n, n)`` array ``c`` with

    [e_i, e_j] = sum_k c[i, j, k] e_k

in a fixed basis ``e_1, ..., e_n``.  Construction only checks shape and
finiteness; antisymmetry and the Jacobi identity are checked by
:func:`validate`, so that invalid tables can still be inspected and reported.

Tolerance policy.  ``REL_TOL`` = 1e-9 is the one relative tolerance for
deciding that a derived quantity vanishes, read against one of two scales,
so that no verdict depends on the basis or on the homothety c -> lam c:

* c-sized: the size of c in the basis the test runs in, |c| =
  :attr:`LieAlgebra.scale`, cached on the table, for tests on it (the
  ranks of brackets of subspaces, which are rounding noise on abelian ones:
  the derived and lower central series; ``abelian``, ``unimodular``), and
  lam = ``MetricLieAlgebra.structure_scale`` (frame norm of c, 1 on an
  abelian algebra) for frame quantities (``almost_abelian.decompose``, run
  on the frame table: its ideal system's rank cutoff, its ad-gap and
  abelian tests; the 3D adapted frame, the nonzero test of a Lee form).  A test linear in a Lee
  form theta, itself c-sized, reads it times lam + |theta| (closed Faraday
  form, Lee-gradient cross-check), or |c| (|c| + |theta|) on the brackets
  c[i, j] (exact Faraday form), so a root that is zero up to the solver's
  accuracy counts as zero;
* curvature-sized: ``MetricLieAlgebra.curvature_scale`` = lam^2 + |X|, |X|
  the frame norm of the compared form (Ricci and Weyl-Ricci cross-checks,
  flatness verdicts, the Lee-form precondition).

Rank cutoffs on c itself (derived subalgebra, center), of :func:`nullspace`
and by default of :func:`row_space` are relative to the largest singular
value of their input.  Input validation is relative to its input, with no
absolute floor, so a defect of a given relative size is rejected at every
scale: ``REL_TOL`` max |entry| (:func:`coefficient_tolerance`) for the
antisymmetry of c and the symmetry of a metric, ``REL_TOL`` max |c|^2 for
the Jacobi sums.  A metric whose Cholesky pivots have a squared ratio
min/max below machine epsilon is singular to working precision and rejected.
The named verdict constants multiply the same scales: ``weyl.FLATNESS_RTOL``
1e-8 and ``almost_abelian.WE_PRECONDITION_RTOL`` 1e-6 the curvature-sized one;
``weyl.DEFAULT_ROOT_TOL`` 1e-8 the root test at unit lam, where
the almost abelian classifier also runs; ``almost_abelian.EIGEN_CLUSTER_RTOL``
1e-7 the largest eigenvalue of ``sym``; ``almost_abelian.SIGNIFICANT_RTOL``
1e-8 a vector's own size, or that of the unit covector it projects.  ``weyl.ROOT_FLOOR_EPS`` is a solver level,
documented there: the root floor and stall rule of the polish, and the rank
cutoff of the quotient ring's Hermite trace form, ``ROOT_FLOOR_EPS`` times
its largest singular value.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericInputError, StructureError

REL_TOL = 1e-9


def coefficient_tolerance(*arrays: np.ndarray) -> float:
    """Absolute zero-test tolerance scaled to the largest input entry."""
    peak = 0.0
    for a in arrays:
        a = np.asarray(a, dtype=float)
        if a.size:
            peak = max(peak, float(np.max(np.abs(a))))
    return REL_TOL * peak


def row_space(vectors: np.ndarray, n: int, cutoff: float | None = None) -> np.ndarray:
    """Orthonormal basis (as rows) of the span of the given row vectors.

    Singular values above ``cutoff`` count towards the rank; by default the
    cutoff is ``REL_TOL`` relative to the largest singular value.
    """
    a = np.asarray(vectors, dtype=float).reshape(-1, n)
    if a.shape[0] == 0 or not a.any():
        return np.zeros((0, n))
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    return vh[: np.count_nonzero(s > (REL_TOL * s[0] if cutoff is None else cutoff))]


def nullspace(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as rows) of the right null space of ``a``, at the
    default rank cutoff of :func:`row_space`; only wide input needs a full SVD."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] == 0 or not a.any():
        return np.eye(a.shape[1])
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vh[np.count_nonzero(s > REL_TOL * s[0]):]


@dataclass(frozen=True)
class LieAlgebra:
    """Structure-constant table of a finite dimensional real Lie algebra."""

    c: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        if c.ndim != 3 or c.shape[0] != c.shape[1] or c.shape[1] != c.shape[2]:
            raise StructureError(
                f"structure constants must form an (n, n, n) array, got shape {c.shape}"
            )
        if c.shape[0] < 1:
            raise StructureError("dimension must be at least 1")
        if not np.isfinite(c).all():
            raise NumericInputError("structure constants contain NaN or infinity")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    @cached_property
    def scale(self) -> float:
        """|c|, the Frobenius norm of the table in this basis: the c-sized
        scale of the zero tests and rank decisions made on the table."""
        return float(np.linalg.norm(self.c))

    @classmethod
    def from_brackets(cls, dim: int, brackets) -> "LieAlgebra":
        """Build a table from a ``{(i, j): coefficients}`` map, 0-based, i < j.

        The antisymmetric completion is filled in automatically.
        """
        c = np.zeros((dim, dim, dim))
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < dim):
                raise StructureError(f"bracket indices must satisfy 0 <= i < j < dim, got ({i}, {j})")
            v = np.asarray(coeffs, dtype=float)
            if v.shape != (dim,):
                raise StructureError(f"bracket ({i}, {j}) needs {dim} coefficients, got shape {v.shape}")
            c[i, j] = v
            c[j, i] = -v
        return cls(c)

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", np.asarray(x, float), np.asarray(y, float), self.c)


def ad(algebra: LieAlgebra, x: np.ndarray) -> np.ndarray:
    """Matrix of ad_x = [x, .]; column j holds the coefficients of [x, e_j]."""
    x = np.asarray(x, dtype=float)
    if x.shape != (algebra.dim,):
        raise StructureError(f"vector must have shape ({algebra.dim},), got {x.shape}")
    return np.einsum("i,ijk->kj", x, algebra.c)


class Violation(NamedTuple):
    """One failed algebra axiom: which law, at which basis indices, how badly."""

    kind: str
    indices: tuple
    magnitude: float


class ValidityReport(NamedTuple):
    ok: bool
    violations: tuple


@lru_cache(maxsize=None)
def _validate_plan(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of c as (n^2, n) and of P as (n^3, n) that :func:`validate` reads at
    the pairs i <= j and the triples i < j < k; cached per n, read-only."""
    r = np.arange(n)
    i, j = np.nonzero(r[:, None] <= r)
    a, b, d = np.nonzero((r[:, None, None] < r[:, None]) & (r[:, None] < r))
    pairs = np.array((i * n + j, j * n + i))
    triples = np.array(((a * n + b) * n + d, (b * n + d) * n + a, (d * n + a) * n + b))
    pairs.setflags(write=False)
    triples.setflags(write=False)
    return pairs, triples


def validate(algebra: LieAlgebra) -> ValidityReport:
    """Check antisymmetry and the Jacobi identity entrywise.

    Returns a report listing every violated (i, j), i <= j, then every
    violated (i, j, k), i < j < k, each in row-major order, with the
    Euclidean magnitude of the residual vector; ``ok`` means no violations.
    Raises :class:`NumericInputError` when max |c|^2, the size of the Jacobi
    sums, overflows float64.  With P[i, j, k, l] = sum_m c[i, j, m] c[m, k, l],
    one matrix product, the Jacobi sum at (i, j, k) is P[i, j, k] + P[j, k, i]
    + P[k, i, j], read at the rows of a plan cached per n.
    """
    c = algebra.c
    n = algebra.dim
    # the Jacobi sums are products of two structure constants, so their
    # tolerance grows like max |c|^2 where the antisymmetry one grows like max |c|
    peak = float(np.abs(c).max())
    if not np.isfinite(peak * peak):
        raise NumericInputError(
            f"structure constants up to {peak:.3e} overflow float64 in their products"
        )
    tol, jacobi_tol = REL_TOL * peak, REL_TOL * (peak * peak)
    pairs, triples = _validate_plan(n)
    rows = c.reshape(n * n, n)
    anti = rows.take(pairs, axis=0).sum(axis=0)
    anti = np.sqrt(np.add.reduce(anti * anti, axis=1))  # np.linalg.norm's sum
    jac = (rows @ c.reshape(n, n * n)).reshape(n**3, n).take(triples, axis=0).sum(axis=0)
    jac = np.sqrt(np.add.reduce(jac * jac, axis=1))
    violations = [Violation("antisymmetry", divmod(int(pairs[0, r]), n), float(anti[r]))
                  for r in np.flatnonzero(anti > tol)]
    violations += [Violation("jacobi", tuple(map(int, np.unravel_index(triples[0, r], (n,) * 3))),
                             float(jac[r])) for r in np.flatnonzero(jac > jacobi_tol)]
    return ValidityReport(not violations, tuple(violations))


class StructureFlags(NamedTuple):
    solvable: bool
    nilpotent: bool
    abelian: bool
    unimodular: bool
    derived_dim: int
    center_dim: int


def _brackets(algebra: LieAlgebra, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """The (a, b, n) array of brackets [rows_a[a], rows_b[b]], by two matmuls."""
    n = algebra.dim
    return rows_b @ (rows_a @ algebra.c.reshape(n, n * n)).reshape(-1, n, n)


def _bracket_span(algebra: LieAlgebra, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """Orthonormal row basis of the brackets of two sets of orthonormal rows,
    at the c-sized rank cutoff ``REL_TOL`` |c| (see the tolerance policy)."""
    return row_space(_brackets(algebra, rows_a, rows_b), algebra.dim, REL_TOL * algebra.scale)


def derived_subalgebra(algebra: LieAlgebra) -> np.ndarray:
    """Orthonormal row basis of the span of all brackets [g, g]."""
    n = algebra.dim
    return row_space(algebra.c.reshape(n * n, n), n)


def _series_vanishes(term: np.ndarray, step) -> bool:
    """Iterate ``term -> step(term)`` while it shrinks; True if it reaches zero."""
    for _ in range(term.shape[1] + 1):
        if term.shape[0] == 0:
            break
        nxt = step(term)
        if nxt.shape[0] >= term.shape[0]:
            break
        term = nxt
    return term.shape[0] == 0


def structure_flags(algebra: LieAlgebra) -> StructureFlags:
    """Solvability, nilpotency, abelianness, unimodularity and key dimensions.

    Series are iterated with c-sized ranks, so no flag depends on the basis
    or the scale of c; a series that stops shrinking while still nonzero
    terminates the loop (non-solvable or non-nilpotent verdict).
    """
    c = algebra.c
    n = algebra.dim
    tol = REL_TOL * algebra.scale

    abelian = bool(np.max(np.abs(c)) <= tol)
    derived = derived_subalgebra(algebra)
    derived_dim = derived.shape[0]

    full = np.eye(n)
    solvable = _series_vanishes(derived, lambda term: _bracket_span(algebra, term, term))
    nilpotent = _series_vanishes(derived, lambda term: _bracket_span(algebra, full, term))

    traces = np.einsum("ijj->i", c)
    unimodular = bool(np.max(np.abs(traces)) <= tol)

    # center = common kernel of all maps x -> [x, e_j]
    stacked = np.einsum("ijk->jki", c).reshape(n * n, n)
    center_dim = nullspace(stacked).shape[0]

    return StructureFlags(
        solvable=solvable,
        nilpotent=nilpotent,
        abelian=abelian,
        unimodular=unimodular,
        derived_dim=derived_dim,
        center_dim=center_dim,
    )
