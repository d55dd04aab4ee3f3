"""Weyl connections, Faraday forms, the residual solver and flatness tests."""

import inspect
import math

import numpy as np
import pytest

from lieweyl import (
    LieAlgebra,
    MetricLieAlgebra,
    build_semidirect,
    classify_weyl_einstein,
    conformal_flatness,
    decompose,
    faraday,
    kulkarni_nomizu,
    ricci,
    solve_lee_forms,
    weyl_connection,
    weyl_einstein_residual,
    weyl_ricci,
)
from lieweyl.algebra import REL_TOL
from lieweyl.errors import ConsistencyError, DimensionError, InputError, NotClosedError
from lieweyl.riemann import (
    change_basis,
    curvature,
    levi_civita,
    torsion_residual,
)
from lieweyl import frames, samples, weyl
from models import LADDER_MODELS, acceptance_mix
import oracle
from oracle import (
    dense_weyl_einstein_residual,
    lee_gradient,
    macaulay_nullity,
    quotient_dim_by_nullspace,
    unpack_by_sum,
)

TOL = 1e-12
SOLVER_TOL = 1e-8


def sol() -> MetricLieAlgebra:
    alg = LieAlgebra.from_brackets(
        3, {(0, 2): [-1.0, 0.0, 0.0], (1, 2): [0.0, 1.0, 0.0]}
    )
    return MetricLieAlgebra(alg, np.eye(3))


def _rescaled(m, lam):
    return MetricLieAlgebra(LieAlgebra(lam * np.asarray(m.c)), m.metric)


def test_weyl_connection_abelian_table():
    m = samples.abelian(3)
    theta = np.array([1.0, 0.0, 0.0])
    w = weyl_connection(m, theta)
    # the Lee form is kept as a read-only copy of the covector
    theta[0] = 2.0
    np.testing.assert_array_equal(w.lee, [1.0, 0.0, 0.0])
    assert not w.lee.flags.writeable
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
    # below dimension 3 there is no metric Lie algebra to pass: construction refuses it
    with pytest.raises(DimensionError):
        MetricLieAlgebra(LieAlgebra(np.zeros((2, 2, 2))), np.eye(2))


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
    t_vec = np.linalg.solve(m.metric, theta)
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
    result = solve_lee_forms(samples.heisenberg(), starts=weyl.DEFAULT_STARTS)
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


@pytest.mark.parametrize(
    "name, value",
    [("starts", 0), ("seed", -1), ("starts", -1), ("starts", weyl.MAX_STARTS + 1),
     ("starts", 10**11), ("starts", 8.5), ("starts", 8.0), ("starts", True), ("starts", "8"),
     ("seed", 1.5), ("seed", True), ("seed", None)],
)
def test_solver_rejects_bad_parameters_as_input_errors(name, value):
    # sol has no real quotient candidate, so no start runs unless starts are
    # given; the parameters are checked all the same
    with pytest.raises(InputError):
        solve_lee_forms(sol(), **{name: value})


def test_solver_accepts_numpy_scalar_parameters():
    m = samples.heisenberg()
    got = solve_lee_forms(m, starts=np.int64(8), seed=np.uint8(3))
    want = solve_lee_forms(m, starts=8, seed=3)
    assert got.roots == want.roots == ()
    assert got.infimum == want.infimum and got.exits == want.exits


def _same_roots(a, b):
    return len(a.roots) == len(b.roots) and all(map(np.array_equal, a.roots, b.roots))


def test_seeded_search_runs_only_when_starts_are_given(monkeypatch):
    # on the acceptance mix a default solve runs no seeded search and holds
    # the quotient route's output: its roots, residuals, quotient dimension
    # and polish exits, and as infimum the polish minimum, inf where no start
    # ran.  Asked for weyl.DEFAULT_STARTS starts, a solve searches once on
    # each root-free draw and adds exactly those starts.
    calls = [0]
    search = weyl._seeded_search

    def counting(*args):
        calls[0] += 1
        return search(*args)

    monkeypatch.setattr(weyl, "_seeded_search", counting)
    for i, m in enumerate(acceptance_mix(300)):
        calls[0] = 0
        default = solve_lee_forms(m)
        assert calls[0] == 0, i
        requested = solve_lee_forms(m, starts=weyl.DEFAULT_STARTS)
        assert calls[0] == (requested.roots == ()), i
        ran = sum(default.exits.values())
        assert ran == len(default.roots) <= m.dim + 2, (i, default)  # every candidate is a root
        assert (ran == 0) == (default.infimum == math.inf), (i, default)
        assert _same_roots(default, requested) and default.residuals == requested.residuals, i
        assert default.quotient_dim == requested.quotient_dim, i
        if requested.roots:
            assert (requested.exits, requested.infimum) == (default.exits, default.infimum), i
        else:
            seeded = {k: requested.exits[k] - default.exits[k] for k in weyl.EXIT_REASONS}
            assert min(seeded.values()) >= 0 and sum(seeded.values()) == weyl.DEFAULT_STARTS, i
            assert requested.infimum <= default.infimum, i


@pytest.mark.parametrize("starts", [50, 200])
def test_solve_with_starts_reports_the_seeded_search_on_the_ladder_models(starts):
    # the nilpotent models have no real quotient candidate, so a solve asked
    # for starts reports exactly the seeded search: its minimum, scaled back
    # by lam^2, and its exits
    for i, m in enumerate(LADDER_MODELS):
        system = weyl._residual_system(m)
        for seed in range(3):
            result = solve_lee_forms(m, starts=starts, seed=seed)
            _, residuals, codes = weyl._seeded_search(system, starts, seed)
            assert result.roots == (), (i, seed)
            assert result.infimum == system.scale**2 * float(np.min(residuals)), (i, seed)
            assert result.exits == weyl._exit_counts(codes), (i, seed)


def _residual_batches(seed, dims=range(3, 9)):
    """A random algebra for each n in ``dims`` with its frame system and a batch of t."""
    rng = np.random.default_rng(seed)
    for n in dims:
        m = samples.random_metric_algebra(rng, n)
        yield m, weyl._ResidualSystem(m), rng.standard_normal((5, n))


def _evaluation_scale(system, t):
    """Size of the three terms of E(t): constant, linear and quadratic."""
    t_norm = np.linalg.norm(t, axis=-1)
    return system.ric_scale + system.lin_norm * t_norm + (system.n - 2) * t_norm**2


def test_residual_system_is_built_once_per_algebra_and_read_only():
    m = samples.random_metric_algebra(np.random.default_rng(28), 5)
    system = weyl._residual_system(m)
    assert weyl._residual_system(m) is system
    # the system is that of c / lam, so Ricci-sized quantities are over lam^2
    lam = system.scale
    assert lam == m.structure_scale == np.linalg.norm(m.frame_structure)
    ric_norm = np.linalg.norm(m.frame_curvature.ricci)
    assert system.ric_scale == pytest.approx(1.0 + ric_norm / lam**2, rel=1e-14)
    for name in ("const", "lin", "hess", "curv", "lin_gram", "gram"):
        with pytest.raises(ValueError):
            getattr(system, name)[...] = 0.0


def test_per_n_tables_are_shared_read_only_and_equal_a_per_system_build():
    # hess, curv and the H_k^T H_l rows of gram depend on n alone: systems of
    # one dimension share them, and they equal the tables each system once
    # built for itself, bit for bit
    rng = np.random.default_rng(43)
    for n in (3, 4, 7, 10, 12):
        systems = [weyl._ResidualSystem(samples.random_almost_abelian(rng, n, kind))
                   for kind in ("einstein", "trace")]
        first, second = systems
        for name in ("index", "weight", "hess", "curv"):
            assert getattr(first, name) is getattr(second, name), (n, name)
        plan = weyl._plan(n)
        assert weyl._plan(n) is plan
        for array in (*plan.index, *plan.pairs, *plan[1:7]):
            assert not array.flags.writeable, n
        assert first.gram[n:].tobytes() == second.gram[n:].tobytes() == plan.hess_gram.tobytes()
        for system in systems:
            hess, curv, gram = oracle.residual_tables_by_system(system)
            assert system.hess.tobytes() == hess.tobytes(), n
            assert system.curv.tobytes() == curv.tobytes(), n
            assert system.gram.tobytes() == gram.tobytes(), n


@pytest.mark.parametrize("lam", [1e-8, 1e-6, 1e-3, 7.0, 1e6, 1e8])
def test_systems_of_c_and_of_lam_c_have_equal_constants(lam):
    # the system is built at unit |c|, so every attribute but the scale
    # agrees up to rounding; a constant added to _ResidualSystem later that
    # keeps the units of the input cannot go unnoticed
    rng = np.random.default_rng(41)
    models = [samples.random_metric_algebra(rng, 5), samples.random_almost_abelian(rng, 4, "generic")]
    for m in models:
        system = weyl._residual_system(m)
        moved = weyl._ResidualSystem(MetricLieAlgebra(LieAlgebra(lam * m.c), m.metric))
        assert vars(moved).keys() == vars(system).keys()
        assert moved.scale == pytest.approx(lam * system.scale, rel=1e-14)
        for name, expected in vars(system).items():
            if name == "scale":
                continue
            expected = np.asarray(expected, dtype=float)
            atol = 1e-12 * max(float(np.max(np.abs(expected), initial=0.0)), 1e-300)
            np.testing.assert_allclose(np.asarray(getattr(moved, name), dtype=float), expected,
                                       rtol=1e-10, atol=atol, err_msg=name)


def test_packed_residual_matches_dense_oracle():
    for m, system, t in _residual_batches(21):
        packed = system.residual(t, system.jacobian(t))
        dense = system.unpack(packed)
        scale = _evaluation_scale(system, t)
        lam = system.scale
        for k, row in enumerate(t):
            # the system is at unit |c|: its E(t) is E(lam t) / lam^2 of the input
            oracle = dense_weyl_einstein_residual(m, np.linalg.solve(m.frame.T, lam * row))
            assert abs(packed[k] @ packed[k] - (oracle.norm / lam**2) ** 2) <= 1e-12 * scale[k] ** 2
            in_frame = frames.form_in_basis(oracle.matrix, m.frame) / lam**2
            assert np.max(np.abs(dense[k] - in_frame)) <= 1e-12 * scale[k]


def test_unpack_and_multiplication_matrices_match_the_sum_formula_bit_for_bit(monkeypatch):
    # on packed vectors, with signed zeros among them, and on the (n, q)
    # batch lin.T that multiplication_matrices unpacks together with const,
    # at n = 3..12 (seed 30 would need a generic almost abelian draw at n >= 10)
    systems = [system for _, system, _ in _residual_batches(31, dims=range(3, 13))]
    rng = np.random.default_rng(32)
    for system in systems:
        packed = rng.standard_normal(system.const.size)
        packed[::3] = -0.0
        packed[1::3] = 0.0
        for vector in (packed, system.const, system.lin.T):
            assert system.unpack(vector).tobytes() == unpack_by_sum(system, vector).tobytes()
        # multiplication_matrices unpacks const and lin.T in one call
        both = system.unpack(np.vstack((system.const, system.lin.T)))
        apart = np.concatenate((system.unpack(system.const)[None], system.unpack(system.lin.T)))
        assert both.tobytes() == apart.tobytes()
    mult = [system.multiplication_matrices() for system in systems]
    monkeypatch.setattr(weyl._ResidualSystem, "unpack", unpack_by_sum)
    for system, out in zip(systems, mult):
        assert out.tobytes() == system.multiplication_matrices().tobytes(), system.n


def test_combination_weights_are_cached_read_only_and_equal_the_sieve():
    for n in range(1, 14):
        weights = weyl._combination_weights(n)
        assert weyl._combination_weights(n) is weights
        assert not weights.flags.writeable
        assert weights.tobytes() == weyl._combination_weights.__wrapped__(n).tobytes()


def test_quotient_skips_the_nullspace_when_the_relations_span_the_basis(monkeypatch):
    # r = 0 exactly when the closed relations span all n + 2 elements of B,
    # and then no nullspace SVD runs; r > 0 takes the nullspace as before.
    # On the acceptance mix r agrees with the nullspace of the closed
    # relations everywhere
    calls = [0]
    nullspace = weyl.nullspace

    def counting(*args):
        calls[0] += 1
        return nullspace(*args)

    monkeypatch.setattr(weyl, "nullspace", counting)
    spanned = []
    for i, m in enumerate(acceptance_mix(300)):
        system = weyl._ResidualSystem(m)
        r_full, first = quotient_dim_by_nullspace(system)
        calls[0] = 0
        r, candidates = weyl._quotient_candidates(system)
        assert r == r_full and calls[0] == (r > 0), i
        if r == 0:
            assert candidates.shape == (0, m.dim), i
        if first == m.dim + 2:
            spanned.append(i % 3)
    # the first relations span B on every generic draw and on no other
    assert spanned == [2] * 100


def test_residual_matches_dense_oracle_at_random_forms_and_classifier_roots():
    # weyl_einstein_residual evaluates the frame map; the dense standard-basis
    # formula is the independent route
    rng = np.random.default_rng(25)
    random_forms, roots = [], []
    for n in range(3, 9):
        m = samples.random_metric_algebra(rng, n)
        random_forms += [(m, rng.standard_normal(n)) for _ in range(4)]
        for kind in ("einstein", "trace", "generic"):
            m = samples.random_almost_abelian(rng, n, kind)
            roots += [(m, root) for root in classify_weyl_einstein(decompose(m), m).lee_forms]
    assert len(roots) >= 12  # every einstein and trace instance has a root
    for m, theta in random_forms + roots:
        res = weyl_einstein_residual(m, theta)
        oracle = dense_weyl_einstein_residual(m, theta)
        # the three terms of E(theta) in the units of the input
        system, t = weyl._residual_system(m), m.frame.T @ theta
        scale = (1.0 + np.linalg.norm(m.frame_curvature.ricci)
                 + system.scale * system.lin_norm * np.linalg.norm(t) + (m.dim - 2) * t @ t)
        assert abs(res.norm - oracle.norm) <= 1e-12 * scale
        assert np.linalg.norm(m.frame.T @ (res.matrix - oracle.matrix) @ m.frame) <= 1e-12 * scale
        assert np.max(np.abs(res.matrix - oracle.matrix)) <= 1e-12 * scale


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


def test_newton_system_from_the_constants_matches_the_jacobian():
    # J^T J = lin_gram + [t, vec(t t^T)] @ gram and J^T r = r @ lin + S(r) t,
    # with S(r) = r @ curv, up to rounding.  Seed 30 would draw a generic
    # almost abelian algebra at n >= 10, which samples.random_almost_abelian
    # cannot yet produce there.
    for _, system, t in _residual_batches(31, dims=range(3, 13)):
        n = system.n
        jac = system.jacobian(t)
        res = system.residual(t, jac)
        powers = np.concatenate((t, np.einsum("bi,bj->bij", t, t).reshape(len(t), -1)), axis=1)
        jtj = (system.lin_gram + powers @ system.gram).reshape(-1, n, n)
        grad = res @ system.lin + np.einsum("bij,bj->bi", (res @ system.curv).reshape(-1, n, n), t)
        scale = _evaluation_scale(system, t)
        gap = np.max(np.abs(jtj - jac.transpose(0, 2, 1) @ jac), axis=(1, 2))
        assert np.all(gap <= 1e-12 * scale**2), (n, gap / scale**2)
        gap = np.max(np.abs(grad - (jac.transpose(0, 2, 1) @ res[:, :, None])[:, :, 0]), axis=1)
        assert np.all(gap <= 1e-12 * scale), (n, gap / scale)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_levenberg_marquardt_evaluates_the_jacobian_once_per_iteration(monkeypatch, k):
    # starts far from every critical point cannot finish within k iterations,
    # so they all end by the iteration cap after exactly k Jacobian calls
    rng = np.random.default_rng(31)
    system = weyl._ResidualSystem(samples.random_almost_abelian(rng, 5, "generic"))
    directions = rng.standard_normal((4, 5))
    t0 = 10.0 * directions / np.linalg.norm(directions, axis=1)[:, None]
    calls = [0]
    jacobian = weyl._ResidualSystem.jacobian

    def counting(self, t):
        calls[0] += 1
        return jacobian(self, t)

    monkeypatch.setattr(weyl._ResidualSystem, "jacobian", counting)
    _, _, exits = weyl._levenberg_marquardt(system, t0, max_iter=k)
    assert calls[0] == k
    assert exits.tolist() == [weyl.EXIT_REASONS.index("iteration-cap")] * len(t0)


def _counting_jacobian(monkeypatch):
    """Patch ``_ResidualSystem.jacobian`` to count its calls; returns the counter."""
    calls = [0]
    jacobian = weyl._ResidualSystem.jacobian

    def counting(self, t):
        calls[0] += 1
        return jacobian(self, t)

    monkeypatch.setattr(weyl._ResidualSystem, "jacobian", counting)
    return calls


def test_levenberg_marquardt_returns_on_floor_starts_on_arrival(monkeypatch):
    # quotient candidates already on the root floor come back bit for bit
    # after one residual evaluation, without the Newton state: a system
    # without the Newton constants still serves them
    m = acceptance_mix(1)[0]  # an einstein draw, with real roots
    system = weyl._ResidualSystem(m)
    _, candidates = weyl._quotient_candidates(system)
    assert len(candidates)
    system.curv = system.gram = system.lin_gram = None
    calls = _counting_jacobian(monkeypatch)
    t, residuals, exits = weyl._levenberg_marquardt(system, candidates)
    assert calls[0] == 1
    assert t.tobytes() == candidates.tobytes()
    assert exits.tolist() == [weyl.EXIT_REASONS.index("root-floor")] * len(candidates)
    res = system.residual(candidates, system.jacobian(candidates))
    assert residuals.tobytes() == np.sqrt(np.einsum("bq,bq->b", res, res)).tobytes()


def test_levenberg_marquardt_iterates_once_per_jacobian_with_a_start_off_the_floor(monkeypatch):
    # one start on the floor and one moved off it: the arrival evaluation is
    # iteration 0, so the calls count the iterations, and the on-floor row
    # comes back unchanged
    m = acceptance_mix(1)[0]
    system = weyl._ResidualSystem(m)
    _, candidates = weyl._quotient_candidates(system)
    t0 = np.array([candidates[0], candidates[0] + 0.5])
    floor = weyl.EXIT_REASONS.index("root-floor")
    calls = _counting_jacobian(monkeypatch)
    t, _, exits = weyl._levenberg_marquardt(system, t0)
    iterations = calls[0]
    assert iterations > 1
    assert t[0].tobytes() == t0[0].tobytes()
    assert exits[0] == floor and exits[1] != weyl.EXIT_REASONS.index("iteration-cap")
    # one iteration fewer leaves the moved start at the iteration cap
    calls[0] = 0
    _, _, exits = weyl._levenberg_marquardt(system, t0, max_iter=iterations - 1)
    assert calls[0] == iterations - 1
    assert exits.tolist() == [floor, weyl.EXIT_REASONS.index("iteration-cap")]


def test_every_polish_on_the_acceptance_mix_is_one_jacobian_call(monkeypatch):
    # the quotient's candidates of all 100 einstein and trace draws among
    # the first 150 already sit on the root floor
    calls = _counting_jacobian(monkeypatch)
    solve = weyl._levenberg_marquardt
    per_run = []

    def recording(system, t0, *args):
        before = calls[0]
        out = solve(system, t0, *args)
        per_run.append(calls[0] - before)
        return out

    monkeypatch.setattr(weyl, "_levenberg_marquardt", recording)
    for m in acceptance_mix(150):
        solve_lee_forms(m)
    assert per_run == [1] * 100


def test_exit_counts_cover_every_start_on_the_acceptance_mix(monkeypatch):
    # every start is counted under one exit rule, no run reaches the
    # iteration cap, and no start on a root is ended by the stall rule: on
    # the solve itself, which polishes at most n + 2 candidates or, when it
    # has none, runs the seeded search, and on the seeded search alone at 64
    # starts
    cap = inspect.signature(weyl._levenberg_marquardt).parameters["max_iter"].default
    calls = [0]
    jacobian = weyl._ResidualSystem.jacobian
    solve = weyl._levenberg_marquardt
    runs = []

    def counting(self, t):
        calls[0] += 1
        return jacobian(self, t)

    def recording(system, t0, max_iter=cap):
        out = solve(system, t0, max_iter)
        runs.append((system, out))
        return out

    monkeypatch.setattr(weyl._ResidualSystem, "jacobian", counting)
    monkeypatch.setattr(weyl, "_levenberg_marquardt", recording)
    stall = weyl.EXIT_REASONS.index("stall")
    for i, m in enumerate(acceptance_mix(150)):
        system = weyl._residual_system(m)
        runs.clear()
        result = solve_lee_forms(m, starts=weyl.DEFAULT_STARTS)
        assert tuple(result.exits) == weyl.EXIT_REASONS
        assert sum(result.exits.values()) == sum(len(out[0]) for _, out in runs), (i, runs)
        assert result.exits["iteration-cap"] == 0, (i, result.exits)
        # one run on the algebra's one system: the polish of the candidates,
        # all of them roots, or the seeded search where there is no root
        assert len(runs) == 1 and runs[0][0] is system, (i, len(runs))
        seeded = [out for _, out in runs] if result.roots == () else []
        polished = [out for _, out in runs] if result.roots else []
        assert sum(len(out[0]) for out in polished) <= m.dim + 2, (i, result.exits)
        assert all(len(out[0]) == weyl.DEFAULT_STARTS for out in seeded), (i, result.exits)
        for run_system, (_, residuals, codes) in runs:
            stalled = residuals[codes == stall]
            assert np.all(stalled > weyl.DEFAULT_ROOT_TOL * run_system.ric_scale), (i, stalled)

        calls[0] = 0
        _, residuals, codes = weyl._seeded_search(system, 64, weyl.DEFAULT_SEED)
        exits = weyl._exit_counts(codes)
        assert tuple(exits) == weyl.EXIT_REASONS
        assert sum(exits.values()) == 64
        assert (exits["iteration-cap"] > 0) == (calls[0] >= cap), (i, exits)
        assert calls[0] < cap, (i, exits)
        stalled = residuals[codes == stall]
        assert np.all(stalled > weyl.DEFAULT_ROOT_TOL * system.ric_scale), (i, stalled)


def test_nilpotent_ladder_solves_within_20_jacobian_calls(monkeypatch):
    # root-free starts end by the stall rule at the residual's minimum, and
    # the radius-0 starts, which sit on the critical point t = 0, after one
    # rejected zero step
    calls = [0]
    jacobian = weyl._ResidualSystem.jacobian

    def counting(self, t):
        calls[0] += 1
        return jacobian(self, t)

    monkeypatch.setattr(weyl._ResidualSystem, "jacobian", counting)
    for m in LADDER_MODELS:
        for starts in (50, 200, 800):
            calls[0] = 0
            result = solve_lee_forms(m, starts=starts)
            assert result.roots == ()
            assert calls[0] <= 20, (m.dim, starts, calls[0], result.exits)


def test_newton_matrix_matches_central_difference_hessian():
    # J^T J + r @ curv is the Hessian of |E|^2 / 2; its gradient J^T r is
    # cubic, so central differences are exact up to h^2 and rounding
    h = 1e-5
    for _, system, t in _residual_batches(26):
        n = system.n

        def gradient(at):
            jac = system.jacobian(at)
            return (jac.transpose(0, 2, 1) @ system.residual(at, jac)[:, :, None])[:, :, 0]

        jac = system.jacobian(t)
        res = system.residual(t, jac)
        newton = jac.transpose(0, 2, 1) @ jac + (res @ system.curv).reshape(-1, n, n)
        scale = _evaluation_scale(system, t)
        for j in range(n):
            step = np.zeros_like(t)
            step[:, j] = h
            diff = (gradient(t + step) - gradient(t - step)) / (2 * h)
            gap = np.max(np.abs(diff - newton[:, :, j]), axis=1)
            assert np.all(gap <= 1e-9 * scale**2), (n, j, gap / scale**2)


def test_every_start_solves_the_newton_matrix_from_the_first_step(monkeypatch):
    # the matrix handed to _solve_rows is J^T J + r @ curv plus a ridge on
    # the diagonal, for every start and already on the first step
    rng = np.random.default_rng(29)
    system = weyl._ResidualSystem(samples.random_almost_abelian(rng, 5, "trace"))
    t0 = rng.standard_normal((6, 5))
    jac = system.jacobian(t0)
    res = system.residual(t0, jac)
    newton = jac.transpose(0, 2, 1) @ jac + (res @ system.curv).reshape(-1, 5, 5)
    solve_rows = weyl._solve_rows
    normals = []

    def recording(normal, rhs):
        normals.append(normal.copy())
        return solve_rows(normal, rhs)

    monkeypatch.setattr(weyl, "_solve_rows", recording)
    weyl._levenberg_marquardt(system, t0, max_iter=2)
    ridge = normals[0] - newton
    diag = np.einsum("bii->bi", ridge)
    scale = 1e-12 * (1.0 + np.max(np.abs(newton), axis=(1, 2)))
    assert np.all(np.abs(ridge - diag[:, :, None] * np.eye(5)) <= scale[:, None, None])
    assert np.all(np.abs(diag - diag[:, :1]) <= scale[:, None])
    assert np.all(diag > 0.0)


def test_start_on_a_critical_point_stalls_after_one_rejected_step(monkeypatch):
    # t = 0 is a critical point of |E| on every nilpotent model: the gradient
    # vanishes exactly, so the step is zero and promises no decrease
    system = weyl._ResidualSystem(samples.heisenberg())
    t0 = np.zeros((1, 3))
    _, start_res, _ = weyl._levenberg_marquardt(system, t0, max_iter=1)
    calls = [0]
    jacobian = weyl._ResidualSystem.jacobian

    def counting(self, t):
        calls[0] += 1
        return jacobian(self, t)

    monkeypatch.setattr(weyl._ResidualSystem, "jacobian", counting)
    t, res, exits = weyl._levenberg_marquardt(system, t0)
    assert calls[0] == 2
    assert exits.tolist() == [weyl.EXIT_REASONS.index("stall")]
    # |E(0)| is above 0.5 in the units of the input
    assert np.array_equal(t, t0) and res[0] == start_res[0] > 0.5 / system.scale**2


def test_singular_newton_row_is_rejected_without_failing_the_batch(monkeypatch):
    # start 0 gets the all-ones matrix, which is exactly singular, on every
    # step: its steps are refused and promise nothing, so it never counts as
    # a stall and runs to the damping cap, while start 1 runs as if alone
    system = weyl._ResidualSystem(samples.heisenberg())
    t0 = np.array([[0.2, 0.1, -0.4], [0.3, -0.7, 0.5]])
    stall, damped = weyl.EXIT_REASONS.index("stall"), weyl.EXIT_REASONS.index("damping-cap")
    honest_t, honest_res, honest_exits = weyl._levenberg_marquardt(system, t0)
    assert honest_exits.tolist() == [stall, stall]

    solve_rows = weyl._solve_rows
    pinned = []  # the right-hand side of start 0, which never moves

    def forcing(normal, rhs):
        if not pinned:
            pinned.append(rhs[0].copy())
        forced = np.all(rhs == pinned[0], axis=(1, 2))
        normal = normal.copy()
        normal[forced] = 1.0
        delta, singular = solve_rows(normal, rhs)
        assert np.array_equal(singular, forced)
        assert np.all(delta[singular] == 0.0)
        return delta, singular

    monkeypatch.setattr(weyl, "_solve_rows", forcing)
    t, res, exits = weyl._levenberg_marquardt(system, t0)
    assert exits.tolist() == [damped, stall]
    assert np.array_equal(t[0], t0[0])
    assert np.array_equal(t[1], honest_t[1]) and res[1] == honest_res[1]


def test_ascent_step_is_rejected_even_where_it_lowers_the_cost(monkeypatch):
    # the minima of |E| on the Heisenberg algebra form a circle in the
    # (t_1, t_2) plane; from a point inside it, the far side of the circle is
    # lower but lies in the half-space where the gradient rises
    system = weyl._ResidualSystem(samples.heisenberg())
    t0 = np.array([[0.1, 0.0, 0.0]])
    far = np.array([[-0.3, 0.0, 0.0]])

    def cost(t):
        return float(np.sum(system.residual(t, system.jacobian(t)) ** 2))

    assert cost(far) < cost(t0)
    solve_rows = weyl._solve_rows
    gradients = []

    def scripted(normal, rhs):
        gradients.append(rhs[:, :, 0].copy())
        if len(gradients) == 1:
            return far - t0, np.zeros(1, dtype=bool)
        return solve_rows(normal, rhs)

    monkeypatch.setattr(weyl, "_solve_rows", scripted)
    weyl._levenberg_marquardt(system, t0, max_iter=3)
    assert gradients[0][0] @ (far - t0)[0] > 0.0
    # the start did not move: the next step is solved at t0 again
    assert np.array_equal(gradients[1], gradients[0])


def test_solve_rows_gives_a_singular_row_the_zero_step():
    rng = np.random.default_rng(27)
    normal = rng.standard_normal((3, 4, 4)) + 4.0 * np.eye(4)
    normal[1] = np.ones((4, 4))
    rhs = rng.standard_normal((3, 4, 1))
    delta, singular = weyl._solve_rows(normal, rhs)
    assert singular.tolist() == [False, True, False]
    assert np.all(delta[1] == 0.0)
    for k in (0, 2):
        np.testing.assert_allclose(normal[k] @ delta[k], -rhs[k, :, 0], atol=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_abelian_double_root_ends_at_the_root_floor(n):
    # theta = 0 is a second-order zero: starts must stop on the root floor
    # instead of creeping to the iteration cap
    m = samples.abelian(n)
    system = weyl._residual_system(m)
    _, _, codes = weyl._seeded_search(system, 64, weyl.DEFAULT_SEED)
    exits = weyl._exit_counts(codes)
    assert exits["iteration-cap"] == 0
    assert sum(exits.values()) == 64
    # the quotient is all of B, the root 0 with multiplicity n + 2; the
    # Hermite form has rank 1, so one candidate is polished onto the floor
    result = solve_lee_forms(m)
    assert result.quotient_dim == n + 2
    assert result.exits == {**dict.fromkeys(weyl.EXIT_REASONS, 0), "root-floor": 1}
    assert len(result.roots) == 1
    assert np.linalg.norm(result.roots[0]) <= 1e-12


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
    # On the hyperbolic witness [b, u] = u, [b, v] = v (b, u, v orthonormal,
    # Lee form the dual of b) the lowered curvature is +-(g . B) with
    # B = D theta - theta (x) theta + |theta|^2 g / 2; the plus sign fits, the
    # one conformal_flatness uses.
    alg = LieAlgebra.from_brackets(3, {(0, 1): (0.0, 1.0, 0.0), (0, 2): (0.0, 0.0, 1.0)})
    m = MetricLieAlgebra(alg, np.eye(3))
    theta = np.array([1.0, 0.0, 0.0])
    r4 = np.einsum("ijkm,ml->ijkl", curvature(m, levi_civita(m)), m.metric)
    b = lee_gradient(m, theta) - np.outer(theta, theta) + 0.5 * m.covector_norm(theta)**2 * m.metric
    prod = kulkarni_nomizu(m.metric, b)
    gap_plus = float(np.linalg.norm(r4 - prod))
    gap_minus = float(np.linalg.norm(r4 + prod))
    assert min(gap_plus, gap_minus) <= 1e-10
    assert gap_plus <= gap_minus


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


def test_conformal_flatness_of_a_non_root_is_scale_free():
    # both verdicts are curvature-sized; an absolute floor in either bound
    # calls this non-root flat at 1e-8
    for lam in (1e-8, 1.0, 1e8):
        m = _rescaled(samples.hyperbolic(4, 1.0), lam)
        report = conformal_flatness(m, lam * np.array([0.5, 0.0, 0.0, 0.0]))
        assert not report.ricci_flat and not report.flat, lam


def test_faraday_flags_of_roots_are_scale_free():
    # exact and closed are tested at the c-sized scale times lam + |theta|,
    # so they agree with each other and with their unit-scale verdicts
    for i, m in enumerate(acceptance_mix(30)):
        want = [(weyl.faraday(m, root).closed, weyl.faraday(m, root).exact)
                for root in solve_lee_forms(m).roots]
        assert all(closed == exact for closed, exact in want), i
        for lam in (1e-8, 1e8):
            moved = _rescaled(m, lam)
            got = [(weyl.faraday(moved, root).closed, weyl.faraday(moved, root).exact)
                   for root in solve_lee_forms(moved).roots]
            assert got == want, (i, lam)


def test_conformal_flatness_rejects_open_lee_form():
    with pytest.raises(NotClosedError):
        conformal_flatness(samples.heisenberg(), np.array([0.0, 0.0, 1.0]))


def test_ricci_flat_but_not_flat_witness():
    # S = diag(1,1,1,3) gives a Ricci-flat Weyl structure whose lowered
    # curvature stays far from any Kulkarni-Nomizu square
    m = build_semidirect(np.zeros((4, 4)), np.diag([1.0, 1.0, 1.0, 3.0]))
    theta = np.zeros(5)
    theta[0] = 2.0
    report = conformal_flatness(m, theta)
    assert report.ricci_flat and not report.flat
    assert report.kn_residual == pytest.approx(6.0 * np.sqrt(2.0), abs=1e-9)


def test_weyl_ricci_cross_check_alarm_names_routes_gaps_and_tolerances(monkeypatch):
    # the bound is curvature-sized, so the alarm keeps its strength at any
    # scale; both routes run in the frame, where the defect is 1e-3 lam^2 I
    for lam in (1.0, 1e8):
        m = _rescaled(sol(), lam)  # a fresh instance: nothing is cached yet
        w = weyl_connection(m, lam * np.array([0.3, -0.2, 0.5]))
        t = m.frame.T @ w.lee
        honest = weyl._frame_weyl_ricci_formula

        def skewed(m, t):
            ric, scalar = honest(m, t)
            return ric + 1e-3 * lam**2 * np.eye(m.dim), scalar + 1e-3 * lam**2

        monkeypatch.setattr(weyl, "_frame_weyl_ricci_formula", skewed)
        with pytest.raises(ConsistencyError) as info:
            weyl_ricci(w)
        monkeypatch.undo()
        ric, scalar = weyl._frame_weyl_ricci(m, t)
        ric_f, scalar_f = skewed(m, t)
        tol = REL_TOL * m.curvature_scale(float(np.linalg.norm(ric)))
        message = str(info.value)
        assert "curvature trace" in message and "base-metric formula" in message
        assert f"{np.linalg.norm(ric - ric_f):.3e}" in message and f"{tol:.3e}" in message
        assert f"{abs(scalar - scalar_f):.3e}" in message and f"{tol * m.dim:.3e}" in message


def test_lee_gradient_alarm_names_routes_gap_and_tolerance(monkeypatch):
    # the bound is c-sized times the size of theta: it keeps its strength at
    # any scale; the check runs in the frame, where the defect is 1e-3 lam^2 I
    for lam in (1.0, 1e8):
        m = _rescaled(sol(), lam)
        theta = lam * np.array([0.3, -0.2, 0.5])
        t = m.frame.T @ theta
        honest = weyl._frame_lee_gradient

        def skewed(m, t):
            return honest(m, t) + 1e-3 * lam**2 * np.eye(m.dim)

        monkeypatch.setattr(weyl, "_frame_lee_gradient", skewed)
        with pytest.raises(ConsistencyError) as info:
            oracle.weyl_ricci_formula(m, theta)
        monkeypatch.undo()
        oracle.weyl_ricci_formula(m, theta)
        grad = skewed(m, t)
        ad_t = np.einsum("i,ijk->kj", t, m.frame_structure)
        gap = np.linalg.norm(0.5 * (grad + grad.T + ad_t + ad_t.T))
        lam_m = m.structure_scale
        tol = REL_TOL * lam_m * (lam_m + np.linalg.norm(t))
        message = str(info.value)
        assert "Levi-Civita table" in message and "structure constants" in message
        assert f"{gap:.3e}" in message and f"{tol:.3e}" in message


def _rotation(rate):
    """Skew matrix rotating two planes of R^4 at rates ``rate`` and 2 ``rate``."""
    skew = np.zeros((4, 4))
    skew[0, 1], skew[2, 3] = -rate, -2.0 * rate
    return skew - skew.T


def _rotating_flat_metric(rate):
    """ad of the normal rotates two planes of a 4-dimensional abelian ideal
    (:func:`_rotation`): a flat metric whose only Lee form is 0."""
    return build_semidirect(_rotation(rate), np.zeros((4, 4)))


def test_solver_ends_fast_rotation_starts_before_the_iteration_cap():
    # the rounding of the constant part of E grows like |c|^2, and the root
    # floor carries that term, so the double-root starts stop on it
    result = solve_lee_forms(_rotating_flat_metric(6.0))
    assert result.exits["iteration-cap"] == 0


# The solve runs at |c| = 1, so its root test and the Hermite rank follow
# the structure constants: a small metric keeps both roots, and the double
# root of a fast rotation stays one root.
def test_solver_finds_both_roots_of_a_small_hyperbolic_metric():
    m = samples.hyperbolic(4, 1e-7)
    expected = classify_weyl_einstein(decompose(m), m).lee_forms
    assert len(expected) == 2
    assert len(solve_lee_forms(m).roots) == len(expected)


def test_solver_merges_the_double_root_of_a_very_fast_rotation():
    m = _rotating_flat_metric(100.0)
    expected = classify_weyl_einstein(decompose(m), m).lee_forms
    assert len(expected) == 1
    assert len(solve_lee_forms(m).roots) == len(expected)


@pytest.mark.parametrize("ratio", [2.2e-4, 2.2e-6, 2.2e-7])
def test_solver_keeps_near_coincident_roots_apart(ratio):
    # the Lee forms 0 and k b of the rotation plus k I are k apart; the
    # Hermite form tells them apart down to about sqrt(ROOT_FLOOR_EPS) lam,
    # below a merge radius of 1e-6 lam
    lam = _rotating_flat_metric(1.0).structure_scale
    m = build_semidirect(_rotation(1.0), ratio * lam * np.eye(4))
    expected = classify_weyl_einstein(decompose(m), m).lee_forms
    assert len(expected) == 2
    assert len(solve_lee_forms(m).roots) == len(expected)


@pytest.mark.parametrize("ratio", [1e-7, 3e-8])
def test_solver_merges_roots_closer_than_its_resolution_at_their_mean(ratio):
    # below about sqrt(ROOT_FLOOR_EPS) lam the two Lee forms are one vector
    # of the Hermite form's range, read as the mean of the pair
    lam = _rotating_flat_metric(1.0).structure_scale
    m = build_semidirect(_rotation(1.0), ratio * lam * np.eye(4))
    expected = classify_weyl_einstein(decompose(m), m).lee_forms
    assert len(expected) == 2
    gap = np.max(np.abs(expected[1] - expected[0]))
    (root,) = solve_lee_forms(m).roots
    for lee in expected:
        assert np.max(np.abs(root - lee)) == pytest.approx(gap / 2, rel=1e-6)


def test_einstein_zero_root_is_exact_in_a_random_basis():
    # the double root 0 is read from the Hermite form's range as the mean of
    # its cluster, so it lands at rounding level instead of the offset
    # sqrt(floor / (n-2)) at which the polish stops
    rng = np.random.default_rng(11)
    m = samples.random_almost_abelian(rng, 3, "einstein", basis_change=False)
    for lam in (1e-8, 1.0, 1e8):
        moved = _rescaled(change_basis(m, samples.random_basis_change(rng, 3)), lam)
        roots = solve_lee_forms(moved).roots
        assert moved.covector_norm(roots[0]) <= 1e-12 * moved.structure_scale, lam


def test_einstein_zero_roots_are_exact_on_the_acceptance_mix():
    for i, m in enumerate(acceptance_mix(300)[::3]):
        roots = solve_lee_forms(m).roots
        assert m.covector_norm(roots[0]) <= 1e-12 * m.structure_scale, i


def test_quotient_dimension_matches_the_macaulay_nullity_on_random_algebras():
    rng = np.random.default_rng(5)
    dims = []
    for n in (3, 4, 5, 6):
        for _ in range(4):
            m = samples.random_metric_algebra(rng, n)
            result = solve_lee_forms(m)
            assert result.quotient_dim == macaulay_nullity(m), (n, result.quotient_dim)
            dims.append(result.quotient_dim)
    assert len(set(dims)) >= 3, dims


@pytest.mark.parametrize(
    "name, m, r",
    [("hyperbolic", samples.hyperbolic(4, 1.0), 2), ("heisenberg", samples.heisenberg(), 2),
     ("heisenberg+1", samples.heisenberg(extra=1), 0),
     ("heisenberg+2", samples.heisenberg(extra=2), 0), ("filiform4", samples.filiform4(), 0),
     ("free 2-step", samples.free_two_step(), 0), ("R^4", samples.abelian(4), 6)],
)
def test_quotient_dimension_on_the_probes(monkeypatch, name, m, r):
    # Heisenberg keeps a complex pair, so it has a quotient but no candidate;
    # the other nilpotent models have no complex root at all
    ran = []
    search = weyl._seeded_search

    def recording(*args):
        ran.append(True)
        return search(*args)

    monkeypatch.setattr(weyl, "_seeded_search", recording)
    result = solve_lee_forms(m)
    assert result.quotient_dim == r == macaulay_nullity(m)
    assert ran == []  # the default solve asks for no seeded search
    requested = solve_lee_forms(m, starts=weyl.DEFAULT_STARTS)
    assert _same_roots(requested, result) and requested.quotient_dim == r
    assert bool(ran) == (result.roots == ())


def _seeded_roots(m):
    """Root set of the seeded 64-start search alone, under the solver's root
    test, in the frame of the unit system, and lam.  The search returns one
    copy per start that reached a root, so copies within 1e-6 of an earlier
    kept root are merged."""
    system = weyl._residual_system(m)
    t, res, _ = weyl._seeded_search(system, 64, weyl.DEFAULT_SEED)
    threshold = weyl.DEFAULT_ROOT_TOL * system.ric_scale
    kept = []
    for point in t[res <= threshold]:
        if all(np.linalg.norm(point - root) > 1e-6 for root in kept):
            kept.append(point)
    return kept, system.scale


def test_seeded_roots_are_a_subset_of_the_quotient_roots():
    models = acceptance_mix(90) + [samples.hyperbolic(5, 2.0), samples.abelian(5),
                                   _rotating_flat_metric(6.0)]
    for i, m in enumerate(models):
        seeded, lam = _seeded_roots(m)
        quotient = [m.frame.T @ root / lam for root in solve_lee_forms(m).roots]
        for t in seeded:
            gap = min(np.linalg.norm(t - q) for q in quotient)
            assert gap <= 1e-6, (i, t, quotient)


def test_seeded_root_after_an_empty_quotient_route_is_a_consistency_error(monkeypatch):
    m = samples.hyperbolic(4, 1.0)
    monkeypatch.setattr(weyl, "_quotient_candidates", lambda system: (0, np.zeros((0, 4))))
    with pytest.raises(ConsistencyError) as info:
        solve_lee_forms(m, starts=weyl.DEFAULT_STARTS)
    message = str(info.value)
    assert "seeded search" in message and "quotient ring route" in message
    assert "residual" in message and "root tolerance" in message


def test_quotient_candidate_that_is_no_root_is_a_consistency_error(monkeypatch):
    # every candidate stands for a distinct real root, so one that polishes
    # to no root is an inconsistency, not a root-free answer; Heisenberg has
    # no real root, so a candidate at t = 0 cannot polish onto one
    m = samples.heisenberg()
    monkeypatch.setattr(weyl, "_quotient_candidates", lambda system: (2, np.zeros((1, 3))))
    with pytest.raises(ConsistencyError) as info:
        solve_lee_forms(m)
    message = str(info.value)
    assert "quotient ring candidate" in message and "distinct real root" in message
    assert "residual" in message and "root tolerance" in message


def test_quotient_route_is_deterministic_and_polishes_at_most_n_plus_2_candidates(monkeypatch):
    solve = weyl._levenberg_marquardt
    sizes = []

    def recording(system, t0, *args):
        sizes.append(len(t0))
        return solve(system, t0, *args)

    monkeypatch.setattr(weyl, "_levenberg_marquardt", recording)
    m = samples.random_almost_abelian(np.random.default_rng(3), 6, "einstein")
    first = solve_lee_forms(m, starts=weyl.DEFAULT_STARTS, seed=1)
    second = solve_lee_forms(m, starts=weyl.DEFAULT_STARTS, seed=2)
    assert len(sizes) == 2 and sizes[0] == sizes[1] == sum(first.exits.values()) <= 8
    assert len(first.roots) == len(second.roots) > 0
    for a, b in zip(first.roots, second.roots):
        assert np.array_equal(a, b)
