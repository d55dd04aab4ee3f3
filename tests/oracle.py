"""The dense standard-basis formula for the Weyl-Einstein residual, as a test oracle.

The package evaluates E through one map, the packed frame system that the
solver iterates on.  This module forms E directly from the Ricci form, the
codifferential and the symmetrised ad of the Lee vector in the standard basis,
so tests can check the solver and the frame map against an independent route
instead of against themselves.  It also unpacks the solver's packed symmetric
matrices by a three-operation sum, the bit-level reference for its unpacking.

The ``*_by_*`` functions below keep the plain forms of steps the package
computes in a faster way with the same bits or the same verdicts: the
Gram-Schmidt of ``almost_abelian.decompose`` through ``m.inner``, the
subspace tests by three-operand einsums and the quotient dimension from the
nullspace of the closed relations.
"""
import numpy as np

from lieweyl import riemann
from lieweyl.algebra import REL_TOL, ad, nullspace, row_space
from lieweyl.weyl import WEResidual


def dense_weyl_einstein_residual(m, theta) -> WEResidual:
    """E = Ric^g - (scal + (n-2)(tr ad_T + |theta|^2)) g / n
    + (n-2)(sym(ad_T) + theta (x) theta), with ``norm`` its frame norm."""
    n = m.dim
    theta = np.asarray(theta, dtype=float)
    dual = m.raise_covector(theta)
    base = riemann.ricci(m)
    tr_ad = riemann.codifferential_oneform(m, theta)
    e = (
        base.ricci
        - ((base.scalar + (n - 2) * (tr_ad + float(theta @ dual))) / n) * m.metric
        + (n - 2) * (m.sym_ad_form(dual) + np.outer(theta, theta))
    )
    return WEResidual(matrix=e, norm=m.form_norm(e))


def unpack_by_sum(system, packed):
    """Symmetric matrices from packed vectors (last axis) of a
    ``weyl._ResidualSystem``: the weighted upper triangle plus its transpose
    minus its diagonal."""
    upper = np.zeros(packed.shape[:-1] + (system.n, system.n))
    upper[..., system.index[0], system.index[1]] = packed / system.weight
    return upper + np.swapaxes(upper, -1, -2) - upper * np.eye(system.n)


def adapted_parts_by_inner(m, b):
    """(ideal basis, skew, sym) of ``almost_abelian.decompose`` from its unit
    normal ``b``: Gram-Schmidt on the standard basis vectors projected off
    ``b``, every inner product taken by ``m.inner``, then the two parts of
    ad_b restricted to the ideal."""
    n = m.dim
    hvecs = []
    for i in range(n):
        v = np.eye(n)[i] - m.inner(np.eye(n)[i], b) * b
        for h in hvecs:
            v = v - m.inner(v, h) * h
        nv = m.inner(v, v)
        if nv > 1e-16 * max(1.0, float(np.trace(m.metric))):
            hvecs.append(v / np.sqrt(nv))
            if len(hvecs) == n - 1:
                break
    h = np.array(hvecs)
    restricted = h @ m.metric @ ad(m.algebra, b) @ h.T
    return h, 0.5 * (restricted - restricted.T), 0.5 * (restricted + restricted.T)


def is_abelian_subspace_by_einsum(m, rows):
    """``almost_abelian._is_abelian_subspace`` by a three-operand einsum."""
    if rows.shape[0] < 2:
        return True
    prods = np.einsum("ap,bq,pqk->abk", rows, rows, m.c)
    return float(np.max(np.abs(prods))) <= REL_TOL * m.algebra.scale


def is_ideal_by_einsum(m, rows):
    """``almost_abelian._is_ideal`` by a three-operand einsum."""
    if rows.shape[0] == 0:
        return True
    prods = np.einsum("ip,aq,pqk->iak", np.eye(m.dim), rows, m.c).reshape(-1, m.dim)
    outside = prods - prods @ rows.T @ rows
    return float(np.max(np.abs(outside))) <= REL_TOL * m.algebra.scale


def bracket_span_by_einsum(algebra, rows_a, rows_b):
    """``algebra._bracket_span`` by a three-operand einsum."""
    n = algebra.dim
    if rows_a.shape[0] == 0 or rows_b.shape[0] == 0:
        return np.zeros((0, n))
    prods = np.einsum("ap,bq,pqk->abk", rows_a, rows_b, algebra.c)
    return row_space(prods, n, REL_TOL * algebra.scale)


def quotient_dim_by_nullspace(system):
    """(r, rank of the first relations) of ``weyl._quotient_candidates``, with
    r always read from the nullspace of the closed relations."""
    size = system.n + 2
    mult = system.multiplication_matrices()
    products = mult[:, None] @ mult
    k, l = system.index
    pairs = k < l
    commutators = products[k[pairs], l[pairs]] - products[l[pairs], k[pairs]]
    relations = row_space(commutators.transpose(0, 2, 1), size)
    first = len(relations)
    while 0 < len(relations) < size:
        shifted = (relations @ mult.transpose(0, 2, 1)).reshape(-1, size)
        grown = row_space(np.concatenate((relations, shifted)), size)
        if len(grown) == len(relations):
            break
        relations = grown
    return len(nullspace(relations)), first


def _monomials(n: int, degree: int) -> list[tuple]:
    """Exponent tuples of the monomials in n variables of degree at most ``degree``."""
    out = [()]
    for _ in range(n):
        out = [e + (k,) for e in out for k in range(degree + 1) if sum(e) + k <= degree]
    return out


def weyl_einstein_polynomials(m) -> list[dict]:
    """The entries E_ij (i <= j) of the dense residual as polynomials in the
    covector coordinates, as {exponent tuple: coefficient} maps.  E is
    quadratic, so its coefficients follow by polarization at 0, +-e_a and
    e_a + e_b."""
    n = m.dim
    eye = np.eye(n)

    def e(theta):
        return dense_weyl_einstein_residual(m, theta).matrix

    e0 = e(np.zeros(n))
    plus = [e(eye[a]) for a in range(n)]
    minus = [e(-eye[a]) for a in range(n)]
    lin = [(p - q) / 2.0 for p, q in zip(plus, minus)]
    quad = {(a, a): (plus[a] + minus[a]) / 2.0 - e0 for a in range(n)}
    for a in range(n):
        for b in range(a + 1, n):
            quad[a, b] = e(eye[a] + eye[b]) - e0 - lin[a] - lin[b] - quad[a, a] - quad[b, b]
    polys = []
    for i, j in zip(*np.triu_indices(n)):
        poly = {(0,) * n: e0[i, j]}
        for a in range(n):
            poly[tuple(eye[a].astype(int))] = lin[a][i, j]
        for (a, b), coeff in quad.items():
            poly[tuple((eye[a] + eye[b]).astype(int))] = coeff[i, j]
        polys.append(poly)
    return polys


def macaulay_nullity(m, degree: int = 4, rtol: float = 1e-9) -> int:
    """Nullity of the degree-``degree`` Macaulay matrix of E = 0.

    Rows are the products of every entry E_ij with every monomial of degree
    at most ``degree`` - 2, columns the monomials of degree at most
    ``degree``.  E = 0 has no root at infinity (its quadratic part
    TF(theta theta^T) vanishes only at 0), so once the degree is high enough
    the nullity is the number of complex roots counted with multiplicity,
    an independent construction of the quotient dimension (Dreesen,
    Batselier & De Moor 2012).  The rank cutoff is ``rtol`` of the largest
    singular value, after scaling the covector by the frame norm of the
    structure constants so that the entries are of comparable size.
    """
    n = m.dim
    scale = float(np.sqrt(np.sum(m.frame_structure**2))) or 1.0
    columns = {e: k for k, e in enumerate(_monomials(n, degree))}
    rows = []
    for poly in weyl_einstein_polynomials(m):
        for shift in _monomials(n, degree - 2):
            row = np.zeros(len(columns))
            for exps, coeff in poly.items():
                # theta = scale * u: a monomial of degree d gains scale^d,
                # and the whole row is divided by scale^2
                d = sum(exps)
                row[columns[tuple(a + b for a, b in zip(exps, shift))]] = coeff * scale ** (d - 2)
            rows.append(row)
    s = np.linalg.svd(np.array(rows), compute_uv=False)
    return len(columns) - int(np.sum(s > rtol * s[0]))
