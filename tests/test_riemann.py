"""Levi-Civita tables, curvature, Ricci oracles and codifferentials.

The worked numbers for the Sol and Heisenberg metrics were derived by hand
from the bracket relations and are asserted to 1e-12; everything else is
checked against structural identities.
"""

import dataclasses

import numpy as np
import pytest

from lieweyl import (
    MetricLieAlgebra,
    LieAlgebra,
    besse_ricci,
    change_basis,
    codifferential_oneform,
    curvature,
    einstein_defect,
    levi_civita,
    ricci,
)
from lieweyl.algebra import REL_TOL
from lieweyl.errors import (
    ConsistencyError,
    DimensionError,
    InvalidAlgebraError,
    MetricError,
    NumericInputError,
    StructureError,
)
from lieweyl.riemann import (
    codifferential_sym2,
    compatibility_residual,
    ricci_trace,
    torsion_residual,
)
from lieweyl import mla, riemann, samples
from models import acceptance_mix

TOL = 1e-12
SEEDED_TOL = 1e-10


def sol() -> MetricLieAlgebra:
    alg = LieAlgebra.from_brackets(
        3, {(0, 2): [-1.0, 0.0, 0.0], (1, 2): [0.0, 1.0, 0.0]}
    )
    return MetricLieAlgebra(alg, np.eye(3))


def test_metric_must_be_symmetric():
    g = np.eye(3)
    g[0, 1] = 0.2
    with pytest.raises(MetricError) as info:
        MetricLieAlgebra(samples.abelian(3).algebra, g)
    assert info.value.law == "symmetric"


def test_metric_symmetry_is_relative_at_every_scale():
    # an asymmetry of half the largest entry; an absolute floor in the
    # tolerance once let it through from scale 1e-9 down
    for k in range(-12, 13):
        with pytest.raises(MetricError) as info:
            MetricLieAlgebra(samples.abelian(3).algebra,
                             10.0**k * np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        assert info.value.law == "symmetric", k


def test_metric_must_be_positive_definite():
    g = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(MetricError) as info:
        MetricLieAlgebra(samples.abelian(3).algebra, g)
    assert info.value.law == "positive-definite"


@pytest.mark.parametrize("small", [1e-300, 1e-40, 1e-16])
def test_metric_singular_to_working_precision_is_rejected(small):
    # squared pivot ratio below machine epsilon; let through, such metrics
    # give nan curvature or an SVD failure downstream
    for scale in (1e-8, 1.0, 1e8):
        with pytest.raises(MetricError) as info:
            MetricLieAlgebra(samples.heisenberg().algebra, scale * np.diag([1.0, 1.0, small]))
        assert info.value.law == "positive-definite"
        assert "singular to working precision" in str(info.value)


def test_ill_conditioned_metric_within_working_precision_is_accepted():
    for scale in (1e-8, 1.0, 1e8):
        m = MetricLieAlgebra(samples.heisenberg().algebra, scale * np.diag([1.0, 1.0, 1e-15]))
        assert np.allclose(m.frame.T @ m.metric @ m.frame, np.eye(3))


def test_frame_is_the_orthonormal_frame_of_the_metric_bit_for_bit():
    # the frame is built from the Cholesky factor kept by the construction
    rng = np.random.default_rng(19)
    algebras = acceptance_mix(60) + [samples.random_metric_algebra(rng, 3 + i % 7)
                                     for i in range(60)]
    for m in algebras:
        assert np.array_equal(m.frame, np.linalg.inv(np.linalg.cholesky(m.metric)).T)


def test_algebra_must_satisfy_axioms():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # missing the antisymmetric partner
    with pytest.raises(InvalidAlgebraError):
        MetricLieAlgebra(LieAlgebra(c), np.eye(3))


def test_frame_orthonormalizes_metric():
    rng = np.random.default_rng(0)
    m = samples.random_metric_algebra(rng, 5)
    p = m.frame
    np.testing.assert_allclose(p.T @ m.metric @ p, np.eye(5), atol=TOL)


def test_levi_civita_is_torsion_free_and_compatible():
    for m in (sol(), samples.heisenberg(), samples.hyperbolic(5, 0.7),
              samples.random_metric_algebra(np.random.default_rng(1), 4)):
        table = levi_civita(m)
        assert torsion_residual(m, table) <= SEEDED_TOL
        assert compatibility_residual(m, table) <= SEEDED_TOL


def test_sol_connection_table():
    table = levi_civita(sol())
    g = table.gamma
    # nabla_x x = z, nabla_x z = -x, nabla_y y = -z, nabla_z anything = 0
    np.testing.assert_allclose(g[0, 0], [0.0, 0.0, 1.0], atol=TOL)
    np.testing.assert_allclose(g[0, 2], [-1.0, 0.0, 0.0], atol=TOL)
    np.testing.assert_allclose(g[1, 1], [0.0, 0.0, -1.0], atol=TOL)
    np.testing.assert_allclose(g[1, 2], [0.0, 1.0, 0.0], atol=TOL)
    np.testing.assert_allclose(g[2], 0.0, atol=TOL)


def test_heisenberg_connection_table():
    table = levi_civita(samples.heisenberg())
    g = table.gamma
    np.testing.assert_allclose(g[0, 1], [0.0, 0.0, 0.5], atol=TOL)
    np.testing.assert_allclose(g[0, 2], [0.0, -0.5, 0.0], atol=TOL)
    np.testing.assert_allclose(g[2, 0], [0.0, -0.5, 0.0], atol=TOL)
    np.testing.assert_allclose(g[0, 0], 0.0, atol=TOL)


def test_sol_ricci_and_scalar():
    data = ricci(sol())
    np.testing.assert_allclose(data.ricci, np.diag([0.0, 0.0, -2.0]), atol=TOL)
    assert data.scalar == pytest.approx(-2.0, abs=TOL)


def test_heisenberg_ricci_and_scalar():
    data = ricci(samples.heisenberg())
    np.testing.assert_allclose(data.ricci, np.diag([-0.5, -0.5, 0.5]), atol=TOL)
    assert data.scalar == pytest.approx(-0.5, abs=TOL)


@pytest.mark.parametrize("n,k", [(3, 1.0), (4, 2.0), (5, 0.5)])
def test_hyperbolic_is_einstein(n, k):
    m = samples.hyperbolic(n, k)
    data = ricci(m)
    np.testing.assert_allclose(data.ricci, -k * k * (n - 1) * m.metric, atol=SEEDED_TOL)
    assert einstein_defect(m) <= SEEDED_TOL


def test_besse_route_matches_trace_route():
    for seed in range(4):
        m = samples.random_metric_algebra(np.random.default_rng(seed), 4)
        direct = ricci_trace(curvature(m, levi_civita(m)))
        np.testing.assert_allclose(besse_ricci(m), direct, atol=1e-9)


def test_einstein_defect_sol():
    assert einstein_defect(sol()) == pytest.approx(2.0 * np.sqrt(6.0) / 3.0, abs=1e-12)


def test_einstein_defect_needs_dim_three():
    # there is no metric Lie algebra of dimension 1 or 2 to pass: construction
    # refuses it first, before it reads the metric
    for n in (1, 2):
        with pytest.raises(DimensionError, match=f"at least 3, got {n}"):
            MetricLieAlgebra(LieAlgebra(np.zeros((n, n, n))), np.full((n, n), np.nan))


def test_scalar_invariant_under_basis_change():
    rng = np.random.default_rng(7)
    m = samples.heisenberg(extra=1)
    for _ in range(3):
        basis = samples.random_basis_change(rng, 4)
        moved = change_basis(m, basis)
        assert ricci(moved).scalar == pytest.approx(ricci(m).scalar, abs=1e-10)


@pytest.mark.parametrize("basis", [np.ones((3, 3)), np.eye(4)], ids=["singular", "4x4"])
def test_change_basis_rejects_a_basis_that_is_not_one(basis):
    with pytest.raises(StructureError, match="basis"):
        change_basis(sol(), basis)


def test_algebras_compare_and_hash_by_identity():
    # comparing their arrays would raise, so == and hash are the object's;
    # the document of an algebra still compares by value
    a, b = samples.heisenberg(), samples.heisenberg()
    for x, y in ((a, b), (a.algebra, b.algebra)):
        assert x == x and x != y
        assert x in [y, x] and y not in [x]
        assert len({x, y, x}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, dataclasses.fields(x)[0].name, None)
    document = mla.MlaDocument.from_metric_lie_algebra
    assert document(a) == document(b)


def test_ricci_transforms_as_bilinear_form():
    rng = np.random.default_rng(8)
    m = sol()
    basis = samples.random_basis_change(rng, 3)
    moved = change_basis(m, basis)
    np.testing.assert_allclose(
        ricci(moved).ricci, basis.T @ ricci(m).ricci @ basis, atol=1e-10
    )


def test_lowered_curvature_symmetries():
    m = samples.random_metric_algebra(np.random.default_rng(3), 5)
    r4 = np.einsum("ijkm,ml->ijkl", curvature(m, levi_civita(m)), m.metric)
    assert np.max(np.abs(r4 + np.einsum("jikl->ijkl", r4))) <= SEEDED_TOL
    assert np.max(np.abs(r4 + np.einsum("ijlk->ijkl", r4))) <= SEEDED_TOL
    assert np.max(np.abs(r4 - np.einsum("klij->ijkl", r4))) <= SEEDED_TOL
    bianchi = r4 + np.einsum("jkil->ijkl", r4) + np.einsum("kijl->ijkl", r4)
    assert np.max(np.abs(bianchi)) <= SEEDED_TOL


def test_sol_sectional_sign_pattern():
    # g(R(b, x)b, x) = -1 for the expanding direction of Sol
    m = sol()
    r4 = np.einsum("ijkm,ml->ijkl", curvature(m, levi_civita(m)), m.metric)
    assert r4[2, 0, 2, 0] == pytest.approx(-1.0, abs=TOL)


def test_codifferential_oneform_oracles():
    m = samples.hyperbolic(3, 2.0)
    assert codifferential_oneform(m, np.array([1.0, 0.0, 0.0])) == pytest.approx(4.0, abs=TOL)
    assert codifferential_oneform(samples.abelian(3), np.array([1.0, 0.0, 0.0])) == 0.0


def test_contracted_bianchi():
    # scalar curvature is constant, so the divergence of Ricci vanishes
    for seed in (5, 6):
        m = samples.random_metric_algebra(np.random.default_rng(seed), 5)
        table = levi_civita(m)
        delta = codifferential_sym2(m, table, ricci(m).ricci)
        assert np.max(np.abs(delta)) <= 1e-10


def test_inner_and_norm_helpers():
    # a lowered vector's g-norm as a covector is the vector's own g-norm
    basis = samples.random_basis_change(np.random.default_rng(4), 3)
    m = change_basis(samples.hyperbolic(3, 1.0), basis)
    v = np.array([1.0, 2.0, 0.0])
    cov = m.lower_vector(v)
    np.testing.assert_allclose(np.linalg.solve(m.metric, cov), v, atol=TOL)
    assert m.covector_norm(cov) == pytest.approx(np.sqrt(v @ m.metric @ v), rel=TOL)


def test_derived_geometry_is_computed_once_and_read_only():
    m = sol()
    data = ricci(m)
    assert ricci(m) is data
    assert levi_civita(m) is levi_civita(m)
    frame = m.frame_curvature
    assert m.frame_curvature is frame
    cached = (data.riem, data.ricci, data.besse, levi_civita(m).gamma,
              m.frame_structure, m.frame, m.frame_connection,
              frame.riem, frame.ricci, frame.besse)
    for array in cached:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] += 1.0
    np.testing.assert_allclose(ricci(m).ricci, np.diag([0.0, 0.0, -2.0]), atol=TOL)


def test_ricci_cross_check_alarm_names_routes_gap_and_tolerance(monkeypatch):
    # the bound is curvature-sized, so the alarm keeps its strength at any
    # scale; the check runs in the frame, where the defect 1e-3 lam^2 g is
    # 1e-3 lam^2 I
    for lam in (1.0, 1e8):
        m = MetricLieAlgebra(LieAlgebra(lam * sol().c), np.eye(3))  # nothing cached yet
        honest = riemann.frame_besse_ricci
        monkeypatch.setattr(riemann, "frame_besse_ricci",
                            lambda m: honest(m) + 1e-3 * lam**2 * np.eye(3))
        with pytest.raises(ConsistencyError) as info:
            ricci(m)
        monkeypatch.undo()
        # a failed check caches nothing, so the honest oracle now passes
        data = m.frame_curvature
        gap = float(np.linalg.norm(data.ricci - (data.besse + 1e-3 * lam**2 * np.eye(3))))
        bound = REL_TOL * m.curvature_scale(float(np.linalg.norm(data.ricci)))
        message = str(info.value)
        assert "curvature-trace Ricci" in message and "structure-constant" in message
        assert f"{gap:.3e}" in message and f"{bound:.3e}" in message


def _ricci_flat_acceptance_draws():
    """Draws 48 and 66 of the acceptance mix: Ricci-flat, n = 4 and n = 5."""
    draws = acceptance_mix(67)
    return [draws[48], draws[66]]


@pytest.mark.parametrize("lam", [1.0, 1e8])
def test_ricci_cross_check_carries_the_rounding_of_c_squared(monkeypatch, lam):
    # both routes sum products of two structure constants, so their rounding
    # grows like |c|^2 even where Ric vanishes; a defect of 1e-6 |c|^2 is
    # still far above it
    for m in _ricci_flat_acceptance_draws():
        moved = MetricLieAlgebra(LieAlgebra(lam * np.asarray(m.c)), m.metric)
        assert np.linalg.norm(moved.frame_curvature.ricci) <= 1e-12 * moved.structure_scale**2
        corrupted = MetricLieAlgebra(moved.algebra, moved.metric)
        honest = riemann.frame_besse_ricci
        monkeypatch.setattr(riemann, "frame_besse_ricci",
                            lambda m: honest(m) + 1e-6 * m.structure_scale**2 * np.eye(m.dim))
        with pytest.raises(ConsistencyError):
            ricci(corrupted)
        monkeypatch.undo()


def at_frame_scale(m: MetricLieAlgebra, lam: float) -> MetricLieAlgebra:
    """``m`` with its structure constants rescaled to frame scale ``lam``."""
    return MetricLieAlgebra(LieAlgebra(lam / m.structure_scale * np.asarray(m.c)), m.metric)


@pytest.mark.parametrize("lam", [1e-80, 1e80])
def test_construction_rejects_frame_scales_outside_the_window(lam):
    # lam^4 would overflow float64 (1e80) or fall below its normal range (1e-80)
    with pytest.raises(NumericInputError, match=r"frame scale \S+ of the structure constants is outside") as info:
        at_frame_scale(samples.hyperbolic(4), lam)
    assert info.value.underflow == (lam < 1.0)


def test_frame_scale_inside_the_window_has_the_bits_of_the_plain_norm():
    low, high = riemann.SCALE_WINDOW
    assert 1e-77 < low < 1e-76 and 1e77 < high < 1e78
    for i, m in enumerate(acceptance_mix(30) + [samples.heisenberg(1)]):
        for lam in (1e-70, 1.0, 1e70):
            moved = at_frame_scale(m, lam)
            assert moved.structure_scale == float(np.linalg.norm(moved.frame_structure)), (i, lam)
    assert samples.abelian(3).structure_scale == 1.0
