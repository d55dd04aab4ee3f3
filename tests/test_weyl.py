"""Weyl connections, Faraday forms, the residual solver and flatness tests."""

import inspect

import numpy as np
import pytest

from lieweyl import (
    LieAlgebra,
    MetricLieAlgebra,
    conformal_flatness,
    faraday,
    kulkarni_nomizu,
    ricci,
    solve_lee_forms,
    weyl_connection,
    weyl_einstein_residual,
    weyl_ricci,
)
from lieweyl.algebra import coefficient_tolerance
from lieweyl.errors import ConsistencyError, DimensionError, NotClosedError
from lieweyl.riemann import levi_civita, torsion_residual
from lieweyl.weyl import kn_calibration_sign, lee_gradient
from lieweyl import frames, samples, weyl

TOL = 1e-12
SOLVER_TOL = 1e-8


def sol() -> MetricLieAlgebra:
    alg = LieAlgebra.from_brackets(
        3, {(0, 2): [-1.0, 0.0, 0.0], (1, 2): [0.0, 1.0, 0.0]}
    )
    return MetricLieAlgebra(alg, np.eye(3))


def test_weyl_connection_abelian_table():
    m = samples.abelian(3)
    w = weyl_connection(m, np.array([1.0, 0.0, 0.0]))
    gamma = w.table.gamma
    np.testing.assert_allclose(gamma[0, 0], [1.0, 0.0, 0.0], atol=TOL)
    np.testing.assert_allclose(gamma[1, 1], [-1.0, 0.0, 0.0], atol=TOL)
    np.testing.assert_allclose(gamma[0, 1], [0.0, 1.0, 0.0], atol=TOL)


def test_weyl_connection_sol_cancellation():
    # the Lee form e3* exactly cancels nabla_{e1} e1 = e3 on Sol
    w = weyl_connection(sol(), np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(w.table.gamma[0, 0], 0.0, atol=TOL)


def test_weyl_connection_is_torsion_free():
    rng = np.random.default_rng(2)
    m = samples.random_metric_algebra(rng, 4)
    w = weyl_connection(m, rng.standard_normal(4))
    assert torsion_residual(m, w.table) <= 1e-10


def test_weyl_connection_metric_derivative():
    # nabla^W g = -2 theta otimes g, entrywise
    rng = np.random.default_rng(3)
    m = samples.random_metric_algebra(rng, 5)
    theta = rng.standard_normal(5)
    gamma = weyl_connection(m, theta).table.gamma
    g = m.metric
    nabla_g = -np.einsum("ijm,mk->ijk", gamma, g) - np.einsum("ikm,jm->ijk", gamma, g)
    np.testing.assert_allclose(nabla_g, -2.0 * np.einsum("i,jk->ijk", theta, g), atol=1e-10)


def test_weyl_connection_needs_dim_three():
    with pytest.raises(DimensionError):
        weyl_connection(samples.abelian(2), np.array([1.0, 0.0]))


def test_faraday_heisenberg():
    f = faraday(samples.heisenberg(), np.array([0.0, 0.0, 1.0]))
    assert f.matrix[0, 1] == pytest.approx(-1.0, abs=TOL)
    assert not f.closed and not f.exact


def test_faraday_closed_for_hyperbolic_lee_form():
    f = faraday(samples.hyperbolic(4, 1.0), np.array([1.0, 0.0, 0.0, 0.0]))
    assert f.closed and f.exact
    np.testing.assert_allclose(f.matrix, 0.0, atol=TOL)


def test_weyl_ricci_abelian():
    m = samples.abelian(3)
    ric, scal = weyl_ricci(weyl_connection(m, np.array([1.0, 0.0, 0.0])))
    np.testing.assert_allclose(ric, np.diag([0.0, -1.0, -1.0]), atol=TOL)
    assert scal == pytest.approx(-2.0, abs=TOL)


def test_weyl_ricci_heisenberg():
    m = samples.heisenberg()
    ric, scal = weyl_ricci(weyl_connection(m, np.array([0.0, 0.0, 1.0])))
    expected = np.array([[-1.5, 0.5, 0.0], [-0.5, -1.5, 0.0], [0.0, 0.0, 0.5]])
    np.testing.assert_allclose(ric, expected, atol=TOL)
    assert scal == pytest.approx(-2.5, abs=TOL)


def test_weyl_ricci_vanishes_at_hyperbolic_root():
    m = samples.hyperbolic(5, 1.0)
    theta = np.zeros(5)
    theta[0] = 1.0
    ric, scal = weyl_ricci(weyl_connection(m, theta))
    np.testing.assert_allclose(ric, 0.0, atol=1e-10)
    assert abs(scal) <= 1e-10


def test_weyl_ricci_skew_part_is_faraday_multiple():
    # Ric - Ric^T = -(n-2) F for every Lee form
    rng = np.random.default_rng(4)
    for dim, extra in ((3, 0), (5, 2)):
        m = samples.heisenberg(extra=extra)
        theta = rng.standard_normal(dim)
        ric, _ = weyl_ricci(weyl_connection(m, theta))
        f = faraday(m, theta).matrix
        np.testing.assert_allclose(ric - ric.T, -(dim - 2) * f, atol=1e-10)


def test_lee_gradient_symmetric_part():
    # sym(nabla theta) equals minus the symmetrized ad of the dual vector
    rng = np.random.default_rng(5)
    m = samples.random_metric_algebra(rng, 4)
    theta = rng.standard_normal(4)
    grad = lee_gradient(m, theta)
    t_vec = m.raise_covector(theta)
    ad_t = np.einsum("i,ijk->kj", t_vec, np.asarray(m.c))
    sym_ad = 0.5 * (ad_t.T @ m.metric + m.metric @ ad_t)
    np.testing.assert_allclose(0.5 * (grad + grad.T), -sym_ad, atol=1e-10)


def test_residual_sol_oracle():
    res = weyl_einstein_residual(sol(), np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(
        res.matrix, np.diag([4.0 / 3.0, -2.0 / 3.0, -2.0 / 3.0]), atol=TOL
    )
    assert res.norm == pytest.approx(2.0 * np.sqrt(6.0) / 3.0, abs=TOL)


def test_residual_is_trace_free():
    rng = np.random.default_rng(6)
    for _ in range(5):
        m = samples.random_metric_algebra(rng, 4)
        theta = rng.standard_normal(4)
        res = weyl_einstein_residual(m, theta)
        assert abs(np.trace(np.linalg.solve(m.metric, res.matrix))) <= 1e-10


def test_residual_vanishes_at_roots():
    m = samples.hyperbolic(4, 1.5)
    theta = np.zeros(4)
    theta[0] = 1.5
    assert weyl_einstein_residual(m, theta).norm <= 1e-12
    assert weyl_einstein_residual(m, np.zeros(4)).norm <= 1e-12


@pytest.mark.parametrize("n,k", [(3, 1.0), (5, 2.0)])
def test_solver_finds_hyperbolic_roots_exactly(n, k):
    result = solve_lee_forms(samples.hyperbolic(n, k))
    assert len(result.roots) == 2
    want_zero, want_kb = np.zeros(n), np.zeros(n)
    want_kb[0] = k
    assert np.linalg.norm(result.roots[0] - want_zero) <= SOLVER_TOL
    assert np.linalg.norm(result.roots[1] - want_kb) <= SOLVER_TOL
    assert result.infimum <= SOLVER_TOL
    assert all(r <= SOLVER_TOL for r in result.residuals)


def test_solver_collapses_degenerate_root():
    # theta = 0 is a second-order zero on the abelian algebra; the solver
    # must still report it as a single root
    result = solve_lee_forms(samples.abelian(3))
    assert len(result.roots) == 1
    assert np.linalg.norm(result.roots[0]) <= 1e-7


def test_solver_no_roots_on_heisenberg():
    result = solve_lee_forms(samples.heisenberg())
    assert result.roots == ()
    assert result.infimum > 0.5


def test_solver_is_deterministic():
    m = samples.random_metric_algebra(np.random.default_rng(9), 4)
    a = solve_lee_forms(m, starts=48, seed=11)
    b = solve_lee_forms(m, starts=48, seed=11)
    assert len(a.roots) == len(b.roots)
    for x, y in zip(a.roots, b.roots):
        assert np.array_equal(x, y)
    assert a.infimum == b.infimum


def _residual_batches(seed):
    """A random algebra for each n = 3..8 with its frame system and a batch of t."""
    rng = np.random.default_rng(seed)
    for n in range(3, 9):
        m = samples.random_metric_algebra(rng, n)
        yield m, weyl._ResidualSystem(m), rng.standard_normal((5, n))


def _evaluation_scale(system, t):
    """Size of the three terms of E(t): constant, linear and quadratic."""
    t_norm = np.linalg.norm(t, axis=-1)
    return system.ric_scale + system.lin_norm * t_norm + (system.n - 2) * t_norm**2


def _unpack(system, packed):
    dense = np.zeros(packed.shape[:-1] + (system.n, system.n))
    dense[..., system.index[0], system.index[1]] = packed / system.weight
    return dense + np.swapaxes(dense, -1, -2) - dense * np.eye(system.n)


def test_packed_residual_matches_dense_oracle():
    for m, system, t in _residual_batches(21):
        packed = system.residual(t, system.jacobian(t))
        dense = _unpack(system, packed)
        scale = _evaluation_scale(system, t)
        for k, row in enumerate(t):
            oracle = weyl_einstein_residual(m, frames.covector_from_basis(row, m.frame))
            assert abs(packed[k] @ packed[k] - oracle.norm**2) <= 1e-12 * scale[k] ** 2
            in_frame = frames.form_in_basis(oracle.matrix, m.frame)
            assert np.max(np.abs(dense[k] - in_frame)) <= 1e-12 * scale[k]


def test_jacobian_matches_central_differences():
    # E is quadratic, so central differences are exact up to rounding
    h = 1e-3
    for _, system, t in _residual_batches(22):
        jac = system.jacobian(t)
        scale = _evaluation_scale(system, t)
        for j in range(system.n):
            step = np.zeros_like(t)
            step[:, j] = h
            plus, minus = t + step, t - step
            diff = (system.residual(plus, system.jacobian(plus))
                    - system.residual(minus, system.jacobian(minus))) / (2 * h)
            gap = np.max(np.abs(diff - jac[:, :, j]), axis=1)
            assert np.all(gap <= 1e-10 * scale / h)


def test_step_reuse_identity():
    # E(t + d) = E(t) + J(t) d + (d @ M) d / 2, exactly for a quadratic map
    rng = np.random.default_rng(23)
    for _, system, t in _residual_batches(24):
        delta = rng.standard_normal(t.shape)
        jac = system.jacobian(t)
        quad = (delta @ system.hess).reshape(len(t), -1, system.n)
        predicted = (
            system.residual(t, jac)
            + (jac @ delta[:, :, None])[:, :, 0]
            + 0.5 * (quad @ delta[:, :, None])[:, :, 0]
        )
        moved = t + delta
        actual = system.residual(moved, system.jacobian(moved))
        scale = _evaluation_scale(system, t) + _evaluation_scale(system, delta)
        assert np.all(np.max(np.abs(actual - predicted), axis=1) <= 1e-12 * scale)


def test_exit_counts_cover_every_start_on_the_acceptance_mix(monkeypatch):
    # every start is counted under one exit rule, and a solve whose LM ran to
    # the iteration cap says so
    cap = inspect.signature(weyl._levenberg_marquardt).parameters["max_iter"].default
    calls = [0]
    jacobian = weyl._ResidualSystem.jacobian

    def counting(self, t):
        calls[0] += 1
        return jacobian(self, t)

    monkeypatch.setattr(weyl._ResidualSystem, "jacobian", counting)
    rng = np.random.default_rng(1000)
    capped = 0
    for i in range(150):
        kind = ("einstein", "trace", "generic")[i % 3]
        m = samples.random_almost_abelian(rng, (3, 4, 5, 6, 7)[(i // 3) % 5], kind)
        calls[0] = 0
        result = solve_lee_forms(m)
        assert tuple(result.exits) == weyl.EXIT_REASONS
        assert sum(result.exits.values()) == weyl.DEFAULT_STARTS
        assert (result.exits["iteration-cap"] > 0) == (calls[0] >= cap), (i, result.exits)
        capped += calls[0] >= cap
    print(f"acceptance mix: {capped} of 150 solves ran to the iteration cap")


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_abelian_double_root_ends_at_the_root_floor(n):
    # theta = 0 is a second-order zero: starts must stop on the root floor
    # instead of creeping to the iteration cap, and merge into one root
    result = solve_lee_forms(samples.abelian(n))
    assert result.exits["iteration-cap"] == 0
    assert sum(result.exits.values()) == weyl.DEFAULT_STARTS
    assert len(result.roots) == 1
    assert np.linalg.norm(result.roots[0]) <= weyl.DEFAULT_DEDUP_TOL


def test_kulkarni_nomizu_of_metric():
    kn = kulkarni_nomizu(np.eye(3), np.eye(3))
    assert kn[0, 1, 0, 1] == pytest.approx(2.0, abs=TOL)
    assert kn[0, 1, 1, 0] == pytest.approx(-2.0, abs=TOL)
    assert kn[0, 1, 0, 2] == 0.0


def test_kulkarni_nomizu_symmetries():
    rng = np.random.default_rng(10)
    h = rng.standard_normal((4, 4))
    h = h + h.T
    k = rng.standard_normal((4, 4))
    k = k + k.T
    kn = kulkarni_nomizu(h, k)
    assert np.max(np.abs(kn + np.einsum("jikl->ijkl", kn))) <= 1e-12
    assert np.max(np.abs(kn + np.einsum("ijlk->ijkl", kn))) <= 1e-12
    bianchi = kn + np.einsum("jkil->ijkl", kn) + np.einsum("kijl->ijkl", kn)
    assert np.max(np.abs(bianchi)) <= 1e-12


def test_calibration_sign():
    assert kn_calibration_sign() == 1.0


def test_conformal_flatness_hyperbolic():
    m = samples.hyperbolic(4, 1.0)
    theta = np.array([1.0, 0.0, 0.0, 0.0])
    report = conformal_flatness(m, theta)
    assert report.ricci_flat and report.flat
    assert report.kn_residual <= 1e-10


def test_conformal_flatness_abelian_nonroot():
    report = conformal_flatness(samples.abelian(3), np.array([1.0, 0.0, 0.0]))
    assert not report.ricci_flat and not report.flat
    assert report.kn_residual == pytest.approx(2.0, abs=TOL)


def test_conformal_flatness_rejects_open_lee_form():
    with pytest.raises(NotClosedError):
        conformal_flatness(samples.heisenberg(), np.array([0.0, 0.0, 1.0]))


def test_ricci_flat_but_not_flat_witness():
    # S = diag(1,1,1,3) gives a Ricci-flat Weyl structure whose lowered
    # curvature stays far from any Kulkarni-Nomizu square
    from lieweyl import build_semidirect

    m = build_semidirect(np.zeros((4, 4)), np.diag([1.0, 1.0, 1.0, 3.0]))
    theta = np.zeros(5)
    theta[0] = 2.0
    report = conformal_flatness(m, theta)
    assert report.ricci_flat and not report.flat
    assert report.kn_residual == pytest.approx(6.0 * np.sqrt(2.0), abs=1e-9)


def test_weyl_ricci_cross_check_alarm_names_routes_gaps_and_tolerances(monkeypatch):
    m = sol()  # a fresh instance: nothing is cached yet
    w = weyl_connection(m, np.array([0.3, -0.2, 0.5]))
    honest = weyl.weyl_ricci_formula

    def skewed(m, theta):
        ric, scalar = honest(m, theta)
        return ric + 1e-3 * m.metric, scalar + 1e-3

    monkeypatch.setattr(weyl, "weyl_ricci_formula", skewed)
    with pytest.raises(ConsistencyError) as info:
        weyl_ricci(w)
    monkeypatch.undo()
    ric, scalar = weyl_ricci(w)
    ric_f, scalar_f = skewed(m, w.lee)
    tol = coefficient_tolerance(m.c, m.metric, w.lee.coeffs) * (1.0 + m.form_norm(ric))
    message = str(info.value)
    assert "curvature trace" in message and "base-metric formula" in message
    assert f"{m.form_norm(ric - ric_f):.3e}" in message and f"{tol:.3e}" in message
    assert f"{abs(scalar - scalar_f):.3e}" in message and f"{tol * m.dim:.3e}" in message
