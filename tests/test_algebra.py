"""Bracket container, axiom validation and structure flags."""

import numpy as np
import pytest

from lieweyl import LieAlgebra, ad, structure_flags, validate
from lieweyl.algebra import REL_TOL, derived_subalgebra, nullspace
from lieweyl.errors import InvalidAlgebraError, NumericInputError, StructureError
from lieweyl import samples
from lieweyl.riemann import MetricLieAlgebra, change_basis
from models import acceptance_mix, almost_abelian_draws
from oracle import validate_by_einsum

TOL = 1e-12


def so3() -> LieAlgebra:
    return LieAlgebra.from_brackets(
        3,
        {(0, 1): [0.0, 0.0, 1.0], (1, 2): [1.0, 0.0, 0.0], (0, 2): [0.0, -1.0, 0.0]},
    )


def test_from_brackets_antisymmetric_completion():
    alg = LieAlgebra.from_brackets(3, {(0, 1): [0.0, 0.0, 1.0]})
    assert alg.dim == 3
    np.testing.assert_allclose(alg.bracket(np.eye(3)[0], np.eye(3)[1]), [0.0, 0.0, 1.0])
    np.testing.assert_allclose(alg.bracket(np.eye(3)[1], np.eye(3)[0]), [0.0, 0.0, -1.0])
    # diagonal stays zero
    assert np.max(np.abs(np.einsum("iik->ik", np.asarray(alg.c)))) == 0.0


def test_bracket_bilinearity():
    alg = so3()
    x = np.array([1.0, 2.0, -1.0])
    y = np.array([0.5, 0.0, 3.0])
    z = np.array([-1.0, 1.0, 0.0])
    lhs = alg.bracket(x + 2.0 * z, y)
    rhs = alg.bracket(x, y) + 2.0 * alg.bracket(z, y)
    np.testing.assert_allclose(lhs, rhs, atol=TOL)


def test_constructor_rejects_bad_shapes():
    with pytest.raises(StructureError):
        LieAlgebra(np.zeros((3, 3)))
    with pytest.raises(StructureError):
        LieAlgebra(np.zeros((2, 3, 3)))


def test_constructor_rejects_non_finite():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = np.nan
    with pytest.raises(NumericInputError):
        LieAlgebra(c)


def test_structure_array_read_only():
    alg = so3()
    with pytest.raises(ValueError):
        np.asarray(alg.c)[0, 1, 2] = 5.0


def test_ad_matrix_heisenberg():
    h = samples.heisenberg().algebra
    a1 = ad(h, np.array([1.0, 0.0, 0.0]))
    # ad_{e1} e2 = e3, everything else dies
    np.testing.assert_allclose(a1 @ np.array([0.0, 1.0, 0.0]), [0.0, 0.0, 1.0], atol=TOL)
    np.testing.assert_allclose(a1 @ np.array([1.0, 0.0, 0.0]), 0.0, atol=TOL)
    np.testing.assert_allclose(a1 @ np.array([0.0, 0.0, 1.0]), 0.0, atol=TOL)


def test_ad_rejects_wrong_length():
    with pytest.raises(StructureError):
        ad(so3(), np.zeros(4))


def test_validate_accepts_known_algebras():
    for m in (samples.heisenberg(), samples.filiform4(), samples.free_two_step(),
              samples.hyperbolic(4, 1.5)):
        assert validate(m.algebra).ok
    assert validate(so3()).ok


def test_validate_flags_jacobi_violation():
    # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e1 breaks Jacobi with defect e3 of size 1
    alg = LieAlgebra.from_brackets(
        3,
        {(0, 1): [0.0, 0.0, 1.0], (1, 2): [1.0, 0.0, 0.0], (0, 2): [-1.0, 0.0, 0.0]},
    )
    report = validate(alg)
    assert not report.ok
    kinds = {(v.kind, v.indices) for v in report.violations}
    assert ("jacobi", (0, 1, 2)) in kinds
    (viol,) = [v for v in report.violations if v.kind == "jacobi"]
    assert viol.magnitude == pytest.approx(1.0, abs=TOL)


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_validate_accepts_rescaled_algebras(scale):
    # Jacobi sums are products of two constants: their rounding grows like
    # max |c|^2, and so does the tolerance they are tested against
    # (a linear tolerance rejected draws 70, 77, 101 and 118 here at 1e6)
    rng = np.random.default_rng(0)
    tables = [m.c for m in (samples.heisenberg(), samples.filiform4(), samples.free_two_step(),
                            samples.hyperbolic(4, 1.5))]
    tables += [so3().c]
    for i in range(120):
        n = 3 + i % 6
        kind = ("einstein", "trace", "generic")[i % 3]
        m = (samples.random_metric_algebra(rng, n) if i % 2
             else samples.random_almost_abelian(rng, n, kind))
        tables.append(m.c)
    for c in tables:
        report = validate(LieAlgebra(scale * np.asarray(c)))
        assert report.ok, (scale, report.violations[:1])


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_validate_flags_a_jacobi_defect_relative_to_the_squared_constants(scale):
    # so3 with [e1, e3] = -e2 - 1e-6 e1: max |c| = 1 and a Jacobi defect of
    # 1e-6 max |c|^2, rejected at every scale: the tolerance REL_TOL max |c|^2
    # has no absolute floor that would hide small defects at small scale.
    alg = LieAlgebra.from_brackets(
        3, {(0, 1): [0.0, 0.0, 1.0], (1, 2): [1.0, 0.0, 0.0], (0, 2): [-1e-6, -1.0, 0.0]}
    )
    report = validate(LieAlgebra(scale * alg.c))
    assert [v.kind for v in report.violations] == ["jacobi"]
    assert report.violations[0].magnitude == pytest.approx(1e-6 * scale**2, rel=1e-6)


def test_validate_rejects_a_unit_relative_jacobi_defect_at_every_scale():
    # [e1, e2] = e3, [e2, e3] = e1, [e1, e3] = e3 has a Jacobi defect of
    # max |c|^2; an absolute floor in the tolerance once let it through
    # from scale 1e-5 down
    alg = LieAlgebra.from_brackets(
        3, {(0, 1): [0.0, 0.0, 1.0], (1, 2): [1.0, 0.0, 0.0], (0, 2): [0.0, 0.0, 1.0]}
    )
    for k in range(-12, 13):
        report = validate(LieAlgebra(10.0**k * alg.c))
        assert [v.kind for v in report.violations] == ["jacobi"], k
        with pytest.raises(InvalidAlgebraError):
            MetricLieAlgebra(LieAlgebra(10.0**k * alg.c), np.eye(3))


def test_validate_lists_violations_in_row_major_order():
    # the loop the array norms replaced, kept as the reference
    c = np.array(samples.filiform4().c)
    c[0, 1, 2] += 0.5
    c[2, 2, 3] = 1e-3
    c[3, 1, 0] = 2.0
    c[1, 3, 2] = -0.7
    tol = REL_TOL * np.max(np.abs(c))
    jacobi_tol = REL_TOL * np.max(np.abs(c)) ** 2
    anti = c + np.einsum("ijk->jik", c)
    jac = (np.einsum("ijm,mkl->ijkl", c, c) + np.einsum("jkm,mil->ijkl", c, c)
           + np.einsum("kim,mjl->ijkl", c, c))
    want = [("antisymmetry", (i, j), np.linalg.norm(anti[i, j]))
            for i in range(4) for j in range(i, 4) if np.linalg.norm(anti[i, j]) > tol]
    want += [("jacobi", (i, j, k), np.linalg.norm(jac[i, j, k]))
             for i in range(4) for j in range(i + 1, 4) for k in range(j + 1, 4)
             if np.linalg.norm(jac[i, j, k]) > jacobi_tol]
    got = validate(LieAlgebra(c)).violations
    assert [v.kind for v in got].count("antisymmetry") >= 3
    assert [v.kind for v in got].count("jacobi") >= 3
    assert [(v.kind, v.indices) for v in got] == [(kind, idx) for kind, idx, _ in want]
    # the array norm sums in another order than the loop's: a few ulps
    for v, (_, _, magnitude) in zip(got, want):
        assert v.magnitude == pytest.approx(magnitude, rel=4 * np.finfo(float).eps)


def test_validate_rejects_tables_whose_products_overflow():
    c = np.zeros((3, 3, 3))
    c[0, 1, 0], c[1, 0, 0] = 1e200, -1e200
    with pytest.raises(NumericInputError):
        validate(LieAlgebra(c))


def test_validate_flags_antisymmetry_violation():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = 1.0  # should be -1
    report = validate(LieAlgebra(c))
    assert not report.ok
    assert any(v.kind == "antisymmetry" and v.indices == (0, 1) for v in report.violations)


def test_validate_flags_diagonal_antisymmetry():
    c = np.zeros((3, 3, 3))
    c[0, 0, 1] = 2.0
    report = validate(LieAlgebra(c))
    assert any(v.kind == "antisymmetry" and v.indices == (0, 0) for v in report.violations)


def _twice_the_jacobi_tolerance(c, i, j, k):
    """c with c[i, j, k] and -c[j, i, k] moved by a step found by bisection on
    the oracle, so that its largest Jacobi sum is twice its tolerance; c
    itself when no step up to 10 max |c| reaches that."""
    def moved(step):
        d = c.copy()
        d[i, j, k] += step
        d[j, i, k] -= step
        return d

    def ratio(d):
        jacobi = [v.magnitude for v in validate_by_einsum(LieAlgebra(d)).violations
                  if v.kind == "jacobi"]
        return max(jacobi, default=0.0) / (REL_TOL * np.max(np.abs(d)) ** 2)

    hi = 10.0 * np.max(np.abs(c))
    lo = 1e-30 * hi
    if ratio(moved(hi)) < 2.0:
        return c
    for _ in range(60):
        mid = np.sqrt(lo * hi)
        lo, hi = (mid, hi) if ratio(moved(mid)) < 2.0 else (lo, mid)
    return moved(hi)


def _oracle_tables():
    """Valid tables at n = 1..12 at three scales, then copies with planted
    antisymmetry and Jacobi defects at random positions, half of them at
    twice the tolerance they are tested against."""
    rng = np.random.default_rng(19)
    basis = samples.random_basis_change(rng, 2)
    affine = LieAlgebra.from_brackets(2, {(0, 1): [0.0, 1.0]}).c
    valid = [np.zeros((1, 1, 1)), np.zeros((2, 2, 2)), affine,
             np.einsum("ijk,ia,jb,ck->abc", affine, basis, basis, np.linalg.inv(basis).T), so3().c]
    valid += [m.c for m in (samples.heisenberg(), samples.filiform4(), samples.free_two_step(),
                            samples.hyperbolic(4, 1.5))]
    valid += [m.c for m in acceptance_mix(30) + almost_abelian_draws(19)]
    valid += [samples.random_metric_algebra(rng, 3 + i % 7).c for i in range(40)]
    tables = [scale * np.asarray(c) for c in valid for scale in (1e-8, 1.0, 1e8)]
    for t, c in enumerate(tables[: 3 * 60]):
        n = c.shape[0]
        peak = np.max(np.abs(c))
        at_tolerance = t // 2 % 2 == 0
        k = rng.integers(n)
        if t % 2 or n < 3:
            # antisymmetry: c[i, j, k], i <= j, no longer matches -c[j, i, k]
            i, j = sorted(rng.integers(n, size=2))
            c = c.copy()
            c[i, j, k] += 2.0 * REL_TOL * peak if at_tolerance else peak * rng.normal()
            tables.append(c)
            continue
        i, j = sorted(rng.choice(n, size=2, replace=False))
        if at_tolerance:
            c = _twice_the_jacobi_tolerance(c, i, j, k)
        else:
            # Jacobi: an antisymmetric change of the size of c, at up to three places
            for _ in range(1 + t % 3):
                step = max(peak, 1e-8) * rng.normal()
                c = c.copy()
                c[i, j, k] += step
                c[j, i, k] -= step
                i, j = sorted(rng.choice(n, size=2, replace=False))
                k = rng.integers(n)
        tables.append(c)
    return tables


def test_validate_matches_the_einsum_oracle():
    eps = np.finfo(float).eps
    kinds, near = set(), {"antisymmetry": 0, "jacobi": 0}
    for c in _oracle_tables():
        got, want = validate(LieAlgebra(c)), validate_by_einsum(LieAlgebra(c))
        assert got.ok == want.ok
        assert [v[:2] for v in got.violations] == [v[:2] for v in want.violations]
        n = c.shape[0]
        bound = 8 * eps * n * np.max(np.abs(c)) ** 2
        for v, w in zip(got.violations, want.violations):
            # antisymmetry reads the same sums in the same order: the same bits
            if v.kind == "antisymmetry":
                assert v.magnitude == w.magnitude
            else:
                assert abs(v.magnitude - w.magnitude) <= bound, (v, w)
        kinds.add(tuple(sorted({v.kind for v in got.violations})))
        peak = np.max(np.abs(c))
        for v in got.violations:
            tol = REL_TOL * (peak if v.kind == "antisymmetry" else peak**2)
            near[v.kind] += bool(v.magnitude < 2.5 * tol)
    assert kinds == {(), ("antisymmetry",), ("jacobi",), ("antisymmetry", "jacobi")}
    # the planted defects at twice the tolerance are there
    assert min(near.values()) >= 10, near


def _full_svd_nullspace(a):
    _, s, vh = np.linalg.svd(a)
    return vh[np.count_nonzero(s > REL_TOL * s[0]):]


@pytest.mark.parametrize("shape, rank", [
    ((9, 4), 4), ((9, 4), 2), ((144, 12), 9),  # tall
    ((5, 5), 5), ((5, 5), 3),  # square
    ((3, 7), 3), ((2, 7), 1),  # wide
    ((6, 3), 0), ((3, 3), 0), ((2, 5), 0),  # all zero
])
def test_nullspace_equals_the_right_factor_of_the_full_svd(shape, rank):
    # a thin SVD of tall or square input gives the same right factor, bit for
    # bit, without the full left factor; all-zero input gives the identity
    rng = np.random.default_rng(sum(shape) + rank)
    a = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
    got, want = nullspace(a), _full_svd_nullspace(a)
    assert np.array_equal(got, want) and got.shape == (shape[1] - rank, shape[1])
    if rank:
        assert got.tobytes() == want.tobytes()


def test_nullspace_of_the_center_systems_equals_the_full_svd():
    # the (n^2, n) system whose nullspace structure_flags reads as the center
    for m in almost_abelian_draws(61):
        n = m.dim
        stacked = np.einsum("ijk->jki", m.c).reshape(n * n, n)
        assert nullspace(stacked).tobytes() == _full_svd_nullspace(stacked).tobytes(), n


def test_flags_heisenberg():
    f = structure_flags(samples.heisenberg().algebra)
    assert f.solvable and f.nilpotent and not f.abelian
    assert f.unimodular
    assert f.derived_dim == 1
    assert f.center_dim == 1


def test_flags_abelian():
    f = structure_flags(samples.abelian(4).algebra)
    assert f.abelian and f.solvable and f.nilpotent and f.unimodular
    assert f.derived_dim == 0
    assert f.center_dim == 4


def test_flags_sol():
    sol = LieAlgebra.from_brackets(
        3, {(0, 2): [-1.0, 0.0, 0.0], (1, 2): [0.0, 1.0, 0.0]}
    )
    f = structure_flags(sol)
    assert f.solvable and not f.nilpotent
    assert f.unimodular
    assert f.derived_dim == 2
    assert f.center_dim == 0


def test_flags_hyperbolic_not_unimodular():
    f = structure_flags(samples.hyperbolic(4, 1.0).algebra)
    assert f.solvable and not f.nilpotent
    assert not f.unimodular
    assert f.derived_dim == 3
    assert f.center_dim == 0


def test_flags_so3_not_solvable():
    f = structure_flags(so3())
    assert not f.solvable and not f.nilpotent
    assert f.unimodular
    assert f.derived_dim == 3
    assert f.center_dim == 0


def test_flags_filiform():
    f = structure_flags(samples.filiform4().algebra)
    assert f.nilpotent
    assert f.derived_dim == 2
    assert f.center_dim == 1


def test_derived_subalgebra_heisenberg():
    rows = derived_subalgebra(samples.heisenberg().algebra)
    assert rows.shape == (1, 3)
    np.testing.assert_allclose(np.abs(rows[0]), [0.0, 0.0, 1.0], atol=TOL)


def test_flags_are_independent_of_basis_and_scale():
    # a solvable algebra in another basis has a derived series whose
    # brackets are rounding noise, not zero; the ranks are c-sized
    rng = np.random.default_rng(5)
    models = [samples.heisenberg(k) for k in range(3)]
    models += [samples.filiform4(), samples.free_two_step()]
    models += [samples.random_almost_abelian(rng, 3 + i % 5, ("einstein", "trace", "generic")[i % 3],
                                             basis_change=False) for i in range(15)]
    so3_metric = MetricLieAlgebra(so3(), np.eye(3))
    for m in models + [so3_metric]:
        want = structure_flags(m.algebra)
        for lam in (1e-8, 1.0, 1e8):
            moved = change_basis(m, samples.random_basis_change(rng, m.dim))
            assert structure_flags(LieAlgebra(lam * moved.c)) == want, (m.dim, lam)
    assert not structure_flags(so3()).solvable


def test_flags_of_a_table_whose_squares_overflow():
    # |c| is taken at the exponent of the largest entry: a plain norm of this
    # table is inf, and every entry then reads as zero against REL_TOL |c|
    unit = LieAlgebra.from_brackets(3, {(0, 2): [1.0, 0.0, 0.0], (1, 2): [0.0, 1.0, 0.0]})
    want = structure_flags(unit)
    assert want == (True, False, False, False, 2, 0)
    assert structure_flags(LieAlgebra(1.3e154 * unit.c)) == want
    assert LieAlgebra(1.3e154 * unit.c).scale == 1.3e154 * unit.scale


def test_free_two_step_flags():
    f = structure_flags(samples.free_two_step().algebra)
    assert f.nilpotent and f.unimodular
    assert f.derived_dim == 3
    assert f.center_dim == 3
