"""Property-based invariants over randomly drawn metric Lie algebras.

Examples are seeded integers turned into instances by the generators in
:mod:`lieweyl.samples`, so every failure is reproducible from the seed alone.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lieweyl import almost_abelian, frames, mla, riemann, samples, weyl
from lieweyl.algebra import REL_TOL, LieAlgebra, validate
from lieweyl.errors import NotAlmostAbelianError
from lieweyl.riemann import (
    change_basis,
    codifferential_oneform,
    codifferential_sym2,
    compatibility_residual,
    levi_civita,
    ricci,
    torsion_residual,
)
from models import LADDER_MODELS, acceptance_mix
from oracle import dense_weyl_einstein_residual, random_covector, weyl_ricci_formula

IDENTITY_TOL = 1e-9
ROOT_TOL = 1e-7

seeds = st.integers(min_value=0, max_value=10_000)
dims = st.integers(min_value=3, max_value=6)


def draw_algebra(seed, dim):
    return samples.random_metric_algebra(np.random.default_rng(seed), dim)


def scale_of(m):
    return 1.0 + float(np.max(np.abs(np.asarray(m.c)))) ** 2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seeds, dims)
def test_random_instances_are_valid_lie_algebras(seed, dim):
    m = draw_algebra(seed, dim)
    assert validate(m.algebra).ok


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seeds, dims)
def test_levi_civita_is_torsion_free_and_metric(seed, dim):
    m = draw_algebra(seed, dim)
    table = levi_civita(m)
    assert torsion_residual(m, table) <= IDENTITY_TOL * scale_of(m)
    assert compatibility_residual(m, table) <= IDENTITY_TOL * scale_of(m)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seeds, dims)
def test_ricci_routes_agree(seed, dim):
    m = draw_algebra(seed, dim)
    data = ricci(m)
    np.testing.assert_allclose(
        data.ricci, riemann.besse_ricci(m), atol=IDENTITY_TOL * scale_of(m)
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seeds, dims, seeds)
def test_scalar_curvature_is_basis_invariant(seed, dim, basis_seed):
    m = draw_algebra(seed, dim)
    change = samples.random_basis_change(np.random.default_rng(basis_seed + 1), dim)
    moved = change_basis(m, change)
    assert abs(ricci(m).scalar - ricci(moved).scalar) <= IDENTITY_TOL * scale_of(m) * 10


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seeds, dims)
def test_contracted_bianchi_identity(seed, dim):
    m = draw_algebra(seed, dim)
    delta = codifferential_sym2(m, levi_civita(m), ricci(m).ricci)
    assert np.max(np.abs(delta)) <= IDENTITY_TOL * scale_of(m)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seeds, dims, seeds)
def test_weyl_connection_reproduces_metric_derivative(seed, dim, theta_seed):
    m = draw_algebra(seed, dim)
    theta = random_covector(np.random.default_rng(theta_seed), dim)
    w = weyl.weyl_connection(m, theta)
    derivative = -np.einsum("ijm,mk->ijk", w.table.gamma, m.metric) - np.einsum(
        "ikm,jm->ijk", w.table.gamma, m.metric
    )
    expected = -2.0 * np.einsum("i,jk->ijk", theta, m.metric)
    assert np.max(np.abs(derivative - expected)) <= IDENTITY_TOL * scale_of(m)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seeds, dims, seeds)
def test_weyl_ricci_skew_part_is_faraday_multiple(seed, dim, theta_seed):
    m = draw_algebra(seed, dim)
    theta = random_covector(np.random.default_rng(theta_seed), dim)
    ric, _ = weyl_ricci_formula(m, theta)
    far = weyl.faraday(m, theta).matrix
    defect = ric - ric.T + (dim - 2) * far
    assert np.max(np.abs(defect)) <= IDENTITY_TOL * scale_of(m)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seeds, dims, seeds)
def test_weyl_ricci_routes_agree(seed, dim, theta_seed):
    m = draw_algebra(seed, dim)
    theta = random_covector(np.random.default_rng(theta_seed), dim)
    ric_a, scal_a = weyl.weyl_ricci(weyl.weyl_connection(m, theta))
    ric_b, scal_b = weyl_ricci_formula(m, theta)
    tol = IDENTITY_TOL * scale_of(m)
    np.testing.assert_allclose(ric_a, ric_b, atol=tol)
    assert abs(scal_a - scal_b) <= tol


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seeds, dims, seeds)
def test_weyl_einstein_residual_is_trace_free(seed, dim, theta_seed):
    m = draw_algebra(seed, dim)
    theta = random_covector(np.random.default_rng(theta_seed), dim)
    e = weyl.weyl_einstein_residual(m, theta).matrix
    g_trace = float(np.trace(np.linalg.solve(np.asarray(m.metric), e)))
    assert abs(g_trace) <= IDENTITY_TOL * scale_of(m)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seeds, dims, seeds, seeds)
def test_weyl_einstein_residual_norm_is_basis_invariant(seed, dim, theta_seed, basis_seed):
    m = draw_algebra(seed, dim)
    theta = random_covector(np.random.default_rng(theta_seed), dim)
    change = samples.random_basis_change(np.random.default_rng(basis_seed + 2), dim)
    before = weyl.weyl_einstein_residual(m, theta).norm
    after = weyl.weyl_einstein_residual(change_basis(m, change), change.T @ theta).norm
    assert abs(before - after) <= 1e-8 * (1.0 + before) * scale_of(m)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seeds, dims, seeds)
def test_codifferential_is_basis_invariant(seed, dim, theta_seed):
    m = draw_algebra(seed, dim)
    rng = np.random.default_rng(theta_seed)
    theta = random_covector(rng, dim)
    change = samples.random_basis_change(rng, dim)
    before = codifferential_oneform(m, theta)
    after = codifferential_oneform(change_basis(m, change), change.T @ theta)
    assert abs(before - after) <= IDENTITY_TOL * scale_of(m) * 10


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seeds, st.integers(min_value=3, max_value=6))
def test_trace_case_lee_form_solves_the_equation(seed, dim):
    rng = np.random.default_rng(seed)
    m, theta = samples.random_trace_case(rng, dim, basis_change=True)
    res = weyl.weyl_einstein_residual(m, theta)
    assert res.norm <= ROOT_TOL * scale_of(m)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seeds, st.integers(min_value=3, max_value=5))
def test_solver_is_deterministic(seed, dim):
    m = samples.random_almost_abelian(np.random.default_rng(seed), dim, "einstein")
    first = weyl.solve_lee_forms(m, starts=24, seed=7)
    second = weyl.solve_lee_forms(m, starts=24, seed=7)
    assert len(first.roots) == len(second.roots)
    for a, b in zip(first.roots, second.roots):
        assert np.array_equal(a, b)
    assert first.infimum == second.infimum


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seeds, st.integers(min_value=3, max_value=5))
def test_solver_roots_have_small_residuals(seed, dim):
    m = samples.random_almost_abelian(np.random.default_rng(seed), dim, "generic")
    result = weyl.solve_lee_forms(m, starts=24, seed=3)
    for root in result.roots:
        assert dense_weyl_einstein_residual(m, root).norm <= ROOT_TOL * scale_of(m)


SCALES = (1e-8, 1e-6, 1e-3, 1e3, 1e6, 1e8)


def rescaled(m, lam):
    """The same metric with every structure constant multiplied by ``lam``."""
    return riemann.MetricLieAlgebra(LieAlgebra(lam * np.asarray(m.c)), m.metric)


def assert_scaled_roots(base, scaled, lam):
    assert len(scaled.roots) == len(base.roots), (lam, len(base.roots), len(scaled.roots))
    for a, b in zip(base.roots, scaled.roots):
        assert np.linalg.norm(b - lam * a) <= 1e-6 * lam * (1.0 + np.linalg.norm(a)), lam


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seeds, st.integers(min_value=3, max_value=7), st.sampled_from(("einstein", "trace", "generic")))
def test_root_sets_are_equivariant_under_rescaling(seed, dim, kind):
    # E(lam c, lam t) = lam^2 E(c, t): the roots of lam c are lam times those of c
    m = samples.random_almost_abelian(np.random.default_rng(seed), dim, kind)
    base = weyl.solve_lee_forms(m)
    for lam in SCALES:
        assert_scaled_roots(base, weyl.solve_lee_forms(rescaled(m, lam)), lam)


def test_heisenberg_plus_line_has_no_root_at_any_scale():
    m = samples.heisenberg(extra=1)
    for lam in (1.0,) + SCALES:
        result = weyl.solve_lee_forms(rescaled(m, lam), starts=weyl.DEFAULT_STARTS)
        assert result.roots == () and result.quotient_dim == 0, lam
        assert result.infimum > 0.1 * lam**2, (lam, result.infimum)


def test_exits_and_infimum_are_scale_free():
    # every stage of the solve runs at unit |c|: the starts take the same
    # exits at every scale and the infimum scales by lam^2.  A root's
    # residual is rounding noise, so it is compared at the size of E,
    # lam^2 + |Ric|.  The seeded search is asked for, so that root-free
    # algebras have starts and an infimum to compare.
    for i, m in enumerate(acceptance_mix(60) + LADDER_MODELS):
        base = weyl.solve_lee_forms(m, starts=weyl.DEFAULT_STARTS)
        system = weyl._residual_system(m)
        size = system.scale**2 * system.ric_scale if base.roots else base.infimum
        for lam in SCALES:
            result = weyl.solve_lee_forms(rescaled(m, lam), starts=weyl.DEFAULT_STARTS)
            assert result.exits == base.exits, (i, lam, base.exits, result.exits)
            gap = abs(result.infimum / lam**2 - base.infimum)
            assert gap <= 1e-12 * size, (i, lam, result.infimum / lam**2, base.infimum)


def _homothety_verdicts(m):
    """Weyl root count, then the classifier's case, root count and
    uniqueness of the ideal, and both flatness verdicts at each nonzero
    classifier root: the spectral one and the curvature's (Ricci-flat, flat)."""
    verdicts = [len(weyl.solve_lee_forms(m).roots)]
    try:
        dec = almost_abelian.decompose(m)
    except NotAlmostAbelianError:
        return verdicts + ["not almost abelian"]
    cls = almost_abelian.classify_weyl_einstein(dec, m)
    verdicts += [cls.case, len(cls.lee_forms), dec.unique_ideal]
    for root in cls.lee_forms:
        if m.covector_norm(root) > REL_TOL * m.structure_scale:
            report = weyl.conformal_flatness(m, root)
            verdicts.append((almost_abelian.conformal_metric_flatness(dec, m, root),
                             report.ricci_flat, report.flat))
    return verdicts


def test_verdicts_are_homothety_invariant_just_inside_the_scale_window():
    # at lam = 1e+-70, lam^4 is a normal float64, so every verdict is that of
    # lam = 1, and the Einstein defect scales by lam^2 to within the rounding
    # of the curvature-sized scale 1 + |Ric| at unit lam
    for i, m in enumerate(acceptance_mix(60) + LADDER_MODELS):
        unit = rescaled(m, 1.0 / m.structure_scale)
        want, defect = _homothety_verdicts(unit), riemann.einstein_defect(unit)
        size = unit.curvature_scale(float(np.linalg.norm(unit.frame_curvature.ricci)))
        for lam in (1e-70, 1e70):
            moved = rescaled(unit, lam)
            assert _homothety_verdicts(moved) == want, (i, lam)
            gap = abs(riemann.einstein_defect(moved) / lam**2 - defect)
            assert gap <= 1e-12 * size, (i, lam, gap)


def test_default_infimum_equals_the_256_start_minimum_on_root_free_models():
    # a solve asked for weyl.DEFAULT_STARTS seeded starts on a root-free
    # algebra: its infimum must be the one a 256-start search finds from any
    # seed, and that search must reach no root the quotient route missed
    rng = np.random.default_rng(5)
    heisenberg = [rescaled(change_basis(m, samples.random_basis_change(rng, m.dim)), lam)
                  for m in (samples.heisenberg(extra=k) for k in range(4))
                  for lam in (1e-6, 1.0, 1e6)]
    for i, m in enumerate(acceptance_mix(300)[2::3] + LADDER_MODELS + heisenberg):
        result = weyl.solve_lee_forms(m, starts=weyl.DEFAULT_STARTS)
        system = weyl._residual_system(m)
        assert result.roots == (), i
        infimum = result.infimum / system.scale**2
        for seed in range(4):
            _, residuals, _ = weyl._seeded_search(system, 256, seed)
            best = float(np.min(residuals))
            assert best > weyl.DEFAULT_ROOT_TOL * system.ric_scale, (i, seed, best)
            assert abs(infimum - best) <= 1e-12 * best, (i, seed, infimum, best)


def test_root_sets_are_equivariant_under_basis_change():
    # theta -> P^T theta under the basis change P; the quotient dimension is
    # basis independent
    rng = np.random.default_rng(7)
    for i, m in enumerate(acceptance_mix(60)):
        change = samples.random_basis_change(rng, m.dim)
        moved = change_basis(m, change)
        base, result = weyl.solve_lee_forms(m), weyl.solve_lee_forms(moved)
        assert result.quotient_dim == base.quotient_dim, (i, base.quotient_dim, result.quotient_dim)
        assert len(result.roots) == len(base.roots), (i, len(base.roots), len(result.roots))
        for root in base.roots:
            gap = min(moved.covector_norm(other - change.T @ root) for other in result.roots)
            assert gap <= 1e-6 * (m.structure_scale + m.covector_norm(root)), (i, gap)
    # ill-conditioned bases (metric condition kappa^2): every draw that is
    # not flat keeps its classifier case, Lee form count and root count and
    # raises nothing.  A flat draw's Lee form 0 is a double root that the
    # rounding of the moved table itself splits (its exact frame Ricci
    # reaches 1e-12 at kappa = 1e2), so there only the classifier is pinned.
    # The Weyl routes hold on every draw, flat ones included: the Weyl-Ricci
    # cross-checks of a random Lee form (its own generator) raise nothing and
    # keep the scalar, and conformal flatness keeps its verdicts at each
    # nonzero closed classifier root
    rng, theta_rng = np.random.default_rng(5), np.random.default_rng(6)
    for i in range(300):
        kind = ("einstein", "trace", "generic")[i % 3]
        m = samples.random_almost_abelian(rng, 3 + i % 7, kind, basis_change=False)
        want = _aa_verdict(m)
        flat = want[0] is almost_abelian.WEClass.EINSTEIN_FAMILY and want[1] == 1
        theta = theta_rng.standard_normal(m.dim)
        scal = _weyl_scalar(m, theta)
        roots = _closed_nonzero_roots(m)
        flatness = [weyl.conformal_flatness(m, root)[:2] for root in roots]
        for kappa in (1e2, 1e3):
            basis = samples.conditioned_basis(rng, m.dim, kappa)
            moved = change_basis(m, basis)
            if not flat:
                assert _aa_verdict(moved) == want, (i, kappa)
            elif kappa == 1e2:
                assert _aa_verdict(moved, solve=False) == want[:2], (i, kappa)
            got = _weyl_scalar(moved, basis.T @ theta)
            assert abs(got - scal) <= 1e-6 * (1.0 + abs(scal)), (i, kappa, got, scal)
            got = [weyl.conformal_flatness(moved, basis.T @ root)[:2] for root in roots]
            assert got == flatness, (i, kappa, got, flatness)


def _aa_verdict(m, solve=True):
    """(classifier case, its Lee form count[, the solver's root count])."""
    cls = almost_abelian.classify_weyl_einstein(almost_abelian.decompose(m), m)
    if not solve:
        return cls.case, len(cls.lee_forms)
    return cls.case, len(cls.lee_forms), len(weyl.solve_lee_forms(m).roots)


def _weyl_scalar(m, theta):
    return weyl.weyl_ricci(weyl.weyl_connection(m, theta))[1]


def _closed_nonzero_roots(m):
    """The classifier's Lee forms that are nonzero and closed."""
    cls = almost_abelian.classify_weyl_einstein(almost_abelian.decompose(m), m)
    return [root for root in cls.lee_forms if m.covector_norm(root) > REL_TOL * m.structure_scale
            and weyl.faraday(m, root).closed]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seeds, dims)
def test_mla_round_trip_preserves_documents(seed, dim):
    m = draw_algebra(seed, dim)
    doc = mla.MlaDocument.from_metric_lie_algebra(m)
    text = mla.emit_mla(doc)
    again = mla.parse_mla(text)
    assert mla.emit_mla(again) == text
    back = again.to_metric_lie_algebra()
    np.testing.assert_allclose(np.asarray(back.c), np.asarray(m.c), atol=1e-13)
    np.testing.assert_allclose(np.asarray(back.metric), np.asarray(m.metric), atol=1e-13)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seeds, st.integers(min_value=3, max_value=8))
def test_basis_change_matches_full_einsums(seed, dim):
    # the one-slot-at-a-time contraction against the single many-operand sums
    rng = np.random.default_rng(seed)
    basis = samples.random_basis_change(rng, dim)
    inv = np.linalg.inv(basis)
    c = rng.standard_normal((dim,) * 3)
    got = frames.structure_in_basis(c, basis)
    want = np.einsum("pa,qb,pqr,kr->abk", basis, basis, c, inv)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
