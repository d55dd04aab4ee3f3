"""Orthonormal frames and coordinate changes for tensors on a Lie algebra.

Conventions used throughout: a basis change is an invertible matrix ``P``
whose columns are the new basis vectors written in the old basis.  The
``*_in_basis`` helpers take components in the old basis and return components
in the new one.  The orthonormal frame of a metric ``G`` is the upper
triangular ``U = L^{-T}`` from the Cholesky factorisation ``G = L L^T``, so
``U^T G U = I`` and the construction is deterministic (no eigen-ordering
ambiguity) and fixes the flag spanned by the leading basis vectors.

Policy: decide in that frame, where the metric is I, and map back to the
input basis only for output, by products and no solves: in, covector slots
by U and vector slots by L; back, by L^T and U^T.
"""
from __future__ import annotations

import numpy as np


def orthonormal_frame(metric: np.ndarray) -> np.ndarray:
    low = np.linalg.cholesky(np.asarray(metric, dtype=float))
    return np.linalg.inv(low).T


def tensor_in_basis(tensor: np.ndarray, basis: np.ndarray, dual: np.ndarray,
                    upper: int = 0) -> np.ndarray:
    """Components of a tensor in a new basis; the last ``upper`` slots are vectors.

    Covector slots transform with ``basis`` and vector slots with ``dual`` =
    inv(basis)^T.  The slots are contracted one at a time, each ``tensordot``
    over the leading axis appending the new index last, so after one pass the
    indices are back in their original order and a rank-k tensor costs k
    products of size n^(k+1) instead of one n^(2k) sum.
    """
    for mat in [basis] * (tensor.ndim - upper) + [dual] * upper:
        tensor = np.tensordot(tensor, mat, axes=(0, 0))
    return tensor


def structure_in_basis(c: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return tensor_in_basis(c, basis, np.linalg.inv(basis).T, upper=1)


def form_in_basis(form: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return basis.T @ form @ basis
