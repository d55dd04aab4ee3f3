"""Real Lie algebras described by structure constants.

A Lie algebra of dimension ``n`` is stored as an ``(n, n, n)`` array ``c`` with

    [e_i, e_j] = sum_k c[i, j, k] e_k

in a fixed basis ``e_1, ..., e_n``.  Construction only checks shape and
finiteness; antisymmetry and the Jacobi identity are checked by
:func:`validate`, so that invalid tables can still be inspected and reported.

Tolerance policy.  ``REL_TOL`` = 1e-9 is the one relative tolerance for
deciding that an input-derived quantity vanishes.  Scale-free tests divide
c by lam = ``MetricLieAlgebra.structure_scale`` (frame norm of c, 1 on an
abelian algebra) and Ricci-sized quantities by lam^2, since c -> lam c with
g fixed is a homothety.  ``REL_TOL`` is scaled by
1 + max |entry| in :func:`coefficient_tolerance` (every ``.tolerance``, the
antisymmetry test of :func:`validate`, the Ricci cross-check, plus
``REL_TOL`` lam^2 for the rounding of its products where Ric vanishes, the
Weyl-Ricci and Lee-gradient cross-checks, and ten times that in the 3D
adapted frame), by
1 + max |c|^2 for the Jacobi sums of :func:`validate`, which are products of
two structure constants, by the largest singular value in rank cutoffs
(:func:`row_space`, :func:`nullspace`, and so the relation space of the
Lee-form quotient ring, where a dropped relation only adds candidates), by
the norm of an eigenvector when its constant coordinate is tested (below it,
the quotient eigenvector lies at infinity), by 1 + |sym / lam|^2 in the
almost abelian classifier, which tests sym / lam and skew / lam, and by 1
or 1 + t at the 3D catalog's parameter boundaries.  The other tolerances
measure other things:

* ``almost_abelian.SIGNIFICANT_RTOL`` 1e-8 of a vector's scale, and 1e-16 of
  max(1, tr g) on squared norms in ``decompose``: choices (complement
  vectors, orthonormalization, signs) that only have to clear rounding;
* ``almost_abelian.EIGEN_CLUSTER_RTOL`` 1e-7 of max |eig|: a verdict on the
  spectrum of ``sym``, where nearly equal eigenvalues form one cluster;
* ``almost_abelian.WE_PRECONDITION_RTOL`` 1e-6 of lam^2 + |Ric|, the root
  test's scale: accepts a given covector as a Lee form, loose enough for any
  solver root;
* ``weyl.DEFAULT_ROOT_TOL`` (the CLI's ``--tol``) and ``weyl.FLATNESS_RTOL``,
  1e-8 of 1 + |Ric| (|R| for flatness): root and flatness verdicts.  The
  root test is nondimensional: every stage of ``weyl.solve_lee_forms`` runs
  on the residual system of c / lam, so the test reads
  |E| <= 1e-8 (lam^2 + |Ric|) in the units of the input, for the quotient
  candidates and for the seeded search alike;
* ``weyl.DEFAULT_DEDUP_TOL`` 1e-6 of the frame distance at unit frame norm
  of the structure constants, so lam 1e-6 in the units of the input: merges
  roots;
* ``weyl.NEAR_REAL_RTOL`` 1e-2 of 1 + |Re z|: a quotient candidate z whose
  imaginary part is below it is polished from its real part.  It is
  liberal on purpose: a real root of multiplicity k splits under rounding
  into slightly complex candidates, by about eps^(1/k), and a candidate that
  is not a root only costs a polish and then fails the root test;
* ``weyl.ROOT_FLOOR_EPS`` and the constants of ``weyl._levenberg_marquardt``:
  rounding and step-control levels of the solver, not zero tests.  The root
  floor is 32 ulps of 1 + |Ric| + |c|^2 + |L| |t| + (n-2) |t|^2, where the
  |c|^2 term (frame norm of the structure constants) bounds the rounding of
  the trace-free Ricci form; the polish and the seeded search both evaluate
  it at unit |c|.  The stall rule ends a start whose rejected step promised
  at most 32 ulps of |E|^2; the damping cap is 1e10.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    return REL_TOL * (1.0 + peak)


def row_space(vectors: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal basis (as rows) of the span of the given row vectors.

    The rank cutoff is ``REL_TOL`` relative to the largest singular value.
    """
    a = np.asarray(vectors, dtype=float).reshape(-1, n)
    if a.shape[0] == 0 or not np.any(a):
        return np.zeros((0, n))
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > REL_TOL * s[0]))
    return vh[:rank]


def nullspace(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as rows) of the right null space of ``a``."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] == 0 or not np.any(a):
        return np.eye(a.shape[1])
    _, s, vh = np.linalg.svd(a)
    rank = int(np.sum(s > REL_TOL * s[0]))
    return vh[rank:]


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

    @property
    def tolerance(self) -> float:
        return coefficient_tolerance(self.c)

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


@dataclass(frozen=True)
class Violation:
    """One failed algebra axiom: which law, at which basis indices, how badly."""

    kind: str
    indices: tuple
    magnitude: float


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    violations: tuple


def validate(algebra: LieAlgebra) -> ValidityReport:
    """Check antisymmetry and the Jacobi identity entrywise.

    Returns a report listing every violated (i, j) or (i, j, k) with the
    Euclidean magnitude of the residual vector; ``ok`` means no violations.
    """
    c = algebra.c
    n = algebra.dim
    tol = algebra.tolerance
    # the Jacobi sums are products of two structure constants, so their
    # tolerance grows like max |c|^2 where the antisymmetry one grows like max |c|
    peak = float(np.max(np.abs(c)))
    jacobi_tol = REL_TOL * (1.0 + peak**2)
    violations = []

    anti = c + np.einsum("ijk->jik", c)
    for i in range(n):
        for j in range(i, n):
            m = float(np.linalg.norm(anti[i, j]))
            if m > tol:
                violations.append(Violation("antisymmetry", (i, j), m))

    # jac[i, j, k] = [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
    jac = (
        np.einsum("ijm,mkl->ijkl", c, c)
        + np.einsum("jkm,mil->ijkl", c, c)
        + np.einsum("kim,mjl->ijkl", c, c)
    )
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                m = float(np.linalg.norm(jac[i, j, k]))
                if m > jacobi_tol:
                    violations.append(Violation("jacobi", (i, j, k), m))

    return ValidityReport(not violations, tuple(violations))


@dataclass(frozen=True)
class StructureFlags:
    solvable: bool
    nilpotent: bool
    abelian: bool
    unimodular: bool
    derived_dim: int
    center_dim: int


def _bracket_span(algebra: LieAlgebra, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    n = algebra.dim
    if rows_a.shape[0] == 0 or rows_b.shape[0] == 0:
        return np.zeros((0, n))
    prods = np.einsum("ap,bq,pqk->abk", rows_a, rows_b, algebra.c)
    return row_space(prods, n)


def derived_subalgebra(algebra: LieAlgebra) -> np.ndarray:
    """Orthonormal row basis of the span of all brackets [g, g]."""
    eye = np.eye(algebra.dim)
    return _bracket_span(algebra, eye, eye)


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

    Series are iterated with tolerance-aware ranks; a series that stops
    shrinking while still nonzero terminates the loop (non-solvable or
    non-nilpotent verdict).
    """
    c = algebra.c
    n = algebra.dim
    tol = algebra.tolerance

    abelian = bool(np.max(np.abs(c)) <= tol)
    derived = derived_subalgebra(algebra)
    derived_dim = derived.shape[0]

    full = np.eye(n)
    solvable = _series_vanishes(derived, lambda term: _bracket_span(algebra, term, term))
    nilpotent = _series_vanishes(derived, lambda term: _bracket_span(algebra, full, term))

    traces = np.einsum("ijj->i", c)
    unimodular = bool(np.max(np.abs(traces)) <= tol) if n else True

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
