"""The dense standard-basis formula for the Weyl-Einstein residual, as a test oracle.

The package evaluates E through one map, the packed frame system that the
solver iterates on.  This module forms E directly from the Ricci form, the
codifferential and the symmetrised ad of the Lee vector in the standard basis,
so tests can check the solver and the frame map against an independent route
instead of against themselves.  It also unpacks the solver's packed symmetric
matrices by a three-operation sum, the bit-level reference for its unpacking.

The ``*_by_*`` functions below keep the plain forms of steps the package
computes in a faster way with the same bits, the same verdicts or the same
values up to rounding: the input-basis Gram-Schmidt through g inner products that
``almost_abelian.decompose`` replaces by one QR in the orthonormal frame, the
abelian-subspace test and the bracket span by three-operand einsums, the
quotient dimension from the nullspace of the closed relations and the
antisymmetry and Jacobi check by full-size einsums and masks.  The warm
classify-and-solve path keeps its earlier forms here, each with the same bits
as the faster one: the multiplication matrices unpacked by scatter into
zeros, the commutators read off all n^2 products, ``decompose`` on a freshly
built frame algebra with its QR operand by ``column_stack``, the frame maps
by ``tensordot`` and the per-n tables of the residual system built per system.
The seeded search keeps the Jacobian and the residual of its iteration as
one expression each, where the package accumulates into the product it
already holds.  ``lee_gradient``, ``weyl_ricci_formula`` and
``random_covector`` are input-basis helpers that only tests call.
"""
import numpy as np

from lieweyl import riemann, weyl
from lieweyl.algebra import (
    REL_TOL, LieAlgebra, ValidityReport, Violation, _brackets, ad, coefficient_tolerance,
    nullspace, row_space,
)
from lieweyl.almost_abelian import SIGNIFICANT_RTOL, AADecomposition, _ideal_system_plan
from lieweyl.errors import ConsistencyError, NotAlmostAbelianError, NumericInputError
from lieweyl.weyl import WEResidual


def dense_weyl_einstein_residual(m, theta) -> WEResidual:
    """E = Ric^g - (scal + (n-2)(tr ad_T + |theta|^2)) g / n
    + (n-2)(sym(ad_T) + theta (x) theta), with ``norm`` its frame norm."""
    n = m.dim
    theta = np.asarray(theta, dtype=float)
    dual = np.linalg.solve(m.metric, theta)
    base = riemann.ricci(m)
    tr_ad = float(np.einsum("ijj->i", m.c) @ dual)
    ad_t = np.einsum("i,ijk->kj", dual, m.c)
    e = (
        base.ricci
        - ((base.scalar + (n - 2) * (tr_ad + float(theta @ dual))) / n) * m.metric
        + (n - 2) * (0.5 * (ad_t.T @ m.metric + m.metric @ ad_t) + np.outer(theta, theta))
    )
    return WEResidual(matrix=e, norm=float(np.linalg.norm(m.frame.T @ e @ m.frame)))


def lee_gradient(m, theta):
    """Covariant derivative of the Lee form as a bilinear form (D theta)(x, y):
    the package's frame route, mapped back to the input basis."""
    return m.from_frame(weyl._frame_lee_gradient(m, m.frame.T @ weyl._as_covector(m, theta)))


def weyl_ricci_formula(m, theta):
    """Ricci form and scalar of the Weyl connection by the package's
    base-metric formula, its self-check included, in the input basis."""
    ric, scalar = weyl._frame_weyl_ricci_formula(m, m.frame.T @ weyl._as_covector(m, theta))
    return m.from_frame(ric), scalar


def random_covector(rng, n):
    return rng.standard_normal(n)


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
    ``b``, every inner product taken as x^T g y, then the two parts of
    ad_b restricted to the ideal."""
    n = m.dim
    hvecs = []
    for i in range(n):
        v = np.eye(n)[i] - (np.eye(n)[i] @ m.metric @ b) * b
        for h in hvecs:
            v = v - (v @ m.metric @ h) * h
        nv = float(v @ m.metric @ v)
        if nv > 1e-16 * max(1.0, float(np.trace(m.metric))):
            hvecs.append(v / np.sqrt(nv))
            if len(hvecs) == n - 1:
                break
    h = np.array(hvecs)
    restricted = h @ m.metric @ ad(m.algebra, b) @ h.T
    return h, 0.5 * (restricted - restricted.T), 0.5 * (restricted + restricted.T)


def is_abelian_subspace_by_einsum(m, rows):
    """Whether ``rows`` span an abelian subalgebra, by a three-operand einsum:
    the reference for the abelian verdicts of ``almost_abelian.decompose``."""
    if rows.shape[0] < 2:
        return True
    prods = np.einsum("ap,bq,pqk->abk", rows, rows, m.c)
    return float(np.max(np.abs(prods))) <= REL_TOL * m.algebra.scale


def bracket_span_by_einsum(algebra, rows_a, rows_b):
    """``algebra._bracket_span`` by a three-operand einsum."""
    n = algebra.dim
    if rows_a.shape[0] == 0 or rows_b.shape[0] == 0:
        return np.zeros((0, n))
    prods = np.einsum("ap,bq,pqk->abk", rows_a, rows_b, algebra.c)
    return row_space(prods, n, REL_TOL * algebra.scale)


def validate_by_einsum(algebra) -> ValidityReport:
    """``algebra.validate`` with each cyclic Jacobi term its own einsum over
    the full (n, n, n, n) table, and the pairs and triples read by masks."""
    c = algebra.c
    n = algebra.dim
    peak = float(np.max(np.abs(c)))
    if not np.isfinite(peak * peak):
        raise NumericInputError(
            f"structure constants up to {peak:.3e} overflow float64 in their products"
        )
    jacobi_tol = REL_TOL * (peak * peak)

    anti = np.linalg.norm(c + np.einsum("ijk->jik", c), axis=2)
    pairs = np.nonzero(np.triu(anti > coefficient_tolerance(c)))
    # jac[i, j, k] = [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
    jac = np.linalg.norm(
        np.einsum("ijm,mkl->ijkl", c, c)
        + np.einsum("jkm,mil->ijkl", c, c)
        + np.einsum("kim,mjl->ijkl", c, c),
        axis=3,
    )
    i, j, k = np.ogrid[:n, :n, :n]
    triples = np.nonzero((jac > jacobi_tol) & (i < j) & (j < k))
    violations = [Violation("antisymmetry", (int(a), int(b)), float(anti[a, b]))
                  for a, b in zip(*pairs)]
    violations += [Violation("jacobi", (int(a), int(b), int(d)), float(jac[a, b, d]))
                   for a, b, d in zip(*triples)]
    return ValidityReport(not violations, tuple(violations))


def quotient_dim_by_nullspace(system):
    """(r, rank of the first relations) of ``weyl._quotient_candidates``, with
    r always read from the nullspace of the closed relations."""
    size = system.n + 2
    mult = system.multiplication_matrices()
    relations = row_space(commutators_by_products(mult).transpose(0, 2, 1), size)
    first = len(relations)
    while 0 < len(relations) < size:
        shifted = (relations @ mult.transpose(0, 2, 1)).reshape(-1, size)
        grown = row_space(np.concatenate((relations, shifted)), size)
        if len(grown) == len(relations):
            break
        relations = grown
    return len(nullspace(relations)), first


def multiplication_matrices_by_scatter(system):
    """``weyl._ResidualSystem.multiplication_matrices`` with P unpacked by
    scatter into an empty array and the unit entries set on zeros."""
    n = system.n
    packed = np.vstack((system.const, system.lin.T))
    p = np.empty(packed.shape[:-1] + (n, n))
    entries = packed / system.weight + 0.0
    p[..., system.index[0], system.index[1]] = entries
    p[..., system.index[1], system.index[0]] = entries
    p = p / (2 - n)
    p0, p1 = p[0], p[1:]
    ks = np.arange(n)
    out = np.zeros((n, n + 2, n + 2))
    out[ks, 1 + ks, 0] = 1.0
    out[:, 0, 1 : n + 1] = p0
    out[:, 1 : n + 1, 1 : n + 1] = p1.transpose(1, 0, 2)
    out[ks, n + 1, 1 + ks] = 1.0
    p1_k = p1.transpose(2, 0, 1).reshape(n, n * n)
    out[:, 0, n + 1] = p1_k @ p0.ravel()
    out[:, 1 : n + 1, n + 1] = p0 + p1_k @ p1.transpose(2, 1, 0).reshape(n * n, n)
    out[:, n + 1, n + 1] = np.trace(p1, axis1=0, axis2=1)
    out[:, :, n + 1] /= n - 1
    return out


def commutators_by_products(mult):
    """``weyl._commutators``: [M_k, M_l], k < l, read off all n^2 products."""
    n = len(mult)
    products = mult[:, None] @ mult
    k, l = np.triu_indices(n, 1)
    return products[k, l] - products[l, k]


def tensor_in_basis_by_tensordot(tensor, basis, dual, upper=0):
    """``frames.tensor_in_basis`` with each slot one ``np.tensordot``."""
    for mat in [basis] * (tensor.ndim - upper) + [dual] * upper:
        tensor = np.tensordot(tensor, mat, axes=(0, 0))
    return tensor


def jacobian_by_sum(system, t):
    """``weyl._ResidualSystem.jacobian`` as the sum lin + (t @ hess) in a new array."""
    return system.lin + (t @ system.hess).reshape(len(t), -1, system.n)


def residual_by_sum(system, t, jac):
    """``weyl._ResidualSystem.residual`` as one expression, a new array per operation."""
    return system.const + 0.5 * ((jac @ t[:, :, None])[:, :, 0] + t @ system.lin.T)


def residual_tables_by_system(system):
    """(hess, curv, gram) of a ``weyl._ResidualSystem`` as each system built
    them for itself: the einsum Hessian packed, and every H_k^T H_l by the
    product curv^T curv."""
    n, index, weight = system.n, system.index, system.weight
    eye = np.eye(n)
    hess = (n - 2) * (
        np.einsum("ik,jl->ijkl", eye, eye)
        + np.einsum("il,jk->ijkl", eye, eye)
        - (2.0 / n) * np.einsum("ij,kl->ijkl", eye, eye)
    )
    hess = (hess[..., index[0], index[1]] * weight).transpose(0, 2, 1).reshape(n, -1)
    size = len(weight)
    curv = hess.reshape(n, size, n).transpose(1, 0, 2).reshape(size, -1)
    lin_h = (system.lin.T @ curv).reshape(n, n, n).transpose(1, 0, 2)
    h_h = (curv.T @ curv).reshape(n, n, n, n).transpose(0, 2, 1, 3)
    gram = np.concatenate(((lin_h + lin_h.transpose(0, 2, 1)).reshape(n, -1), h_h.reshape(n * n, -1)))
    return hess, curv, gram


def decompose_by_column_stack(m):
    """``almost_abelian.decompose`` on a frame algebra built and checked on
    every call, norms by ``np.linalg.norm`` and the QR operand by
    ``column_stack``."""
    n = m.dim
    frame_algebra = LieAlgebra(m.frame_structure)
    flat = frame_algebra.c.ravel()
    system = np.concatenate((flat, -flat, [0.0]))[_ideal_system_plan(n)]
    cutoff = REL_TOL * m.structure_scale
    _, values, vh = np.linalg.svd(system, full_matrices=False)
    admissible = vh[np.count_nonzero(values > cutoff):]
    if len(admissible) == 0:
        raise NotAlmostAbelianError("no codimension-one abelian ideal")
    coords = admissible @ m.frame.T
    size = np.linalg.norm(m.frame, axis=1)
    large = np.linalg.norm(coords, axis=0) > SIGNIFICANT_RTOL * size
    ell = admissible.T @ coords[:, np.argmax(large)]

    b_f = ell / np.linalg.norm(ell)
    b = m.frame @ b_f
    significant = np.flatnonzero(np.abs(b) > SIGNIFICANT_RTOL * np.max(np.abs(b)))
    if b[significant[0]] < 0:
        b, b_f = -b, -b_f
    j = significant[-1]
    e_f = m._cholesky.T
    q, r = np.linalg.qr(np.column_stack((b_f, e_f[:, :j], e_f[:, j + 1:])))
    h_f = (q[:, 1:] * np.copysign(1.0, np.diag(r)[1:])).T

    ad_b = ad(frame_algebra, b_f)
    restricted = h_f @ ad_b @ h_f.T
    if float(np.max(np.abs(ad_b @ h_f.T - h_f.T @ restricted))) > cutoff:
        raise ConsistencyError("ad_normal leaves the ideal")
    if n > 2 and float(np.max(np.abs(_brackets(frame_algebra, h_f, h_f)))) > cutoff:
        raise ConsistencyError("computed ideal is not abelian")
    return AADecomposition(ideal_basis=h_f @ m.frame.T, normal=b,
                           skew=0.5 * (restricted - restricted.T),
                           sym=0.5 * (restricted + restricted.T),
                           unique_ideal=len(admissible) == 1)


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
