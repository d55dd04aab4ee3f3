"""Bracket container, axiom validation and structure flags."""

import numpy as np
import pytest

from lieweyl import LieAlgebra, ad, structure_flags, validate
from lieweyl.algebra import derived_subalgebra
from lieweyl.errors import NumericInputError, StructureError
from lieweyl import samples

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


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_validate_flags_a_jacobi_defect_relative_to_the_squared_constants(scale):
    # so3 with [e1, e3] = -e2 - 1e-6 e1: max |c| = 1 and a Jacobi defect of
    # 1e-6 max |c|^2, rejected at every scale from 1 up.  Below max |c| = 1
    # the tolerance keeps its absolute floor REL_TOL, which hides defects
    # smaller than 1e-9 whatever their size relative to max |c|^2.
    alg = LieAlgebra.from_brackets(
        3, {(0, 1): [0.0, 0.0, 1.0], (1, 2): [1.0, 0.0, 0.0], (0, 2): [-1e-6, -1.0, 0.0]}
    )
    report = validate(LieAlgebra(scale * alg.c))
    assert [v.kind for v in report.violations] == ["jacobi"]
    assert report.violations[0].magnitude == pytest.approx(1e-6 * scale**2, rel=1e-6)


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


def test_free_two_step_flags():
    f = structure_flags(samples.free_two_step().algebra)
    assert f.nilpotent and f.unimodular
    assert f.derived_dim == 3
    assert f.center_dim == 3
