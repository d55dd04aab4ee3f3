"""Orthonormal frames and coordinate changes for tensors on a Lie algebra.

Conventions used throughout: a basis change is an invertible matrix ``P``
whose columns are the new basis vectors written in the old basis.  The
``*_in_basis`` helpers take components in the old basis and return components
in the new one.  The orthonormal frame of a metric ``G`` is the upper
triangular ``U = L^{-T}`` from the Cholesky factorisation ``G = L L^T``, so
``U^T G U = I`` and the construction is deterministic (no eigen-ordering
ambiguity) and fixes the flag spanned by the leading basis vectors.
"""
from __future__ import annotations

import numpy as np


def orthonormal_frame(metric: np.ndarray) -> np.ndarray:
    low = np.linalg.cholesky(np.asarray(metric, dtype=float))
    return np.linalg.inv(low).T


def structure_in_basis(c: np.ndarray, basis: np.ndarray) -> np.ndarray:
    inv = np.linalg.inv(basis)
    return np.einsum("pa,qb,pqr,kr->abk", basis, basis, c, inv)


def form_in_basis(form: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return basis.T @ form @ basis


def covector_from_basis(theta_in_frame: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Components in the standard dual basis from components in the frame."""
    return np.linalg.solve(basis.T, theta_in_frame)


def curvature13_in_basis(riem: np.ndarray, basis: np.ndarray) -> np.ndarray:
    inv = np.linalg.inv(basis)
    return np.einsum("pa,qb,rc,pqrs,ds->abcd", basis, basis, basis, riem, inv)


def curvature04_in_basis(riem4: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return np.einsum("pa,qb,rc,sd,pqrs->abcd", basis, basis, basis, basis, riem4)
