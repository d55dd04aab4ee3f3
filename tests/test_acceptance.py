"""Acceptance gate for the package: seven headline checks.

Each test is self-contained, seeds its own generators, and asserts both the
mathematical outcome and (where stated) a wall-clock budget.  The budgets are
generous on purpose: they guard against algorithmic regressions, not machine
noise.
"""
import time

import numpy as np
import pytest

from lieweyl import almost_abelian, catalog3d, riemann, samples, weyl
from lieweyl.algebra import LieAlgebra
from lieweyl.catalog3d import BracketFamily, Family3D, MetricFamily
from lieweyl.errors import InputError
from lieweyl.riemann import MetricLieAlgebra
from oracle import random_covector, weyl_ricci_formula

RICCI_TOL = 1e-10
ROOT_TOL = 1e-8
ROOT_MATCH_TOL = 1e-6
IDENTITY_TOL = 1e-9
WORKED_TOL = 1e-9
CONFORMAL_RTOL = 1e-8

HYPERBOLIC_BUDGET_S = 1.0
CATALOG_BUDGET_S = 60.0
EQUIVALENCE_BUDGET_S = 120.0


def assert_root_sets_match(found, expected, tol):
    """Match two small root sets up to ``tol`` in the max norm, greedily."""
    found = [np.asarray(r, dtype=float) for r in found]
    remaining = [np.asarray(r, dtype=float) for r in expected]
    assert len(found) == len(remaining)
    for root in found:
        errors = [float(np.max(np.abs(cand - root))) for cand in remaining]
        best = int(np.argmin(errors)) if errors else None
        assert best is not None and errors[best] <= tol, (root, remaining)
        remaining.pop(best)


def test_hyperbolic_family_ricci_and_lee_forms():
    # pure scaling action k*Id in every dimension: the metric is Einstein
    # with Ricci -k^2 (n-1) g, and the Lee form set is {0, k b_flat}
    start = time.perf_counter()
    for n in range(3, 9):
        for k in (0.5, 1.0, 2.0):
            m = samples.hyperbolic(n, k)
            data = riemann.ricci(m)
            target = -(k**2) * (n - 1) * np.asarray(m.metric)
            assert np.max(np.abs(data.ricci - target)) <= RICCI_TOL
            result = weyl.solve_lee_forms(m)
            want = np.zeros(n)
            want[0] = k
            assert_root_sets_match(result.roots, [np.zeros(n), want], ROOT_TOL)
    elapsed = time.perf_counter() - start
    print(f"hyperbolic family: 18 points in {elapsed:.2f}s")
    assert elapsed < HYPERBOLIC_BUDGET_S


def catalog_grid():
    """Grid points with their published admission verdicts.

    ``None`` marks parameter combinations whose metric degenerates (the
    sheared family needs mu > 1 for positive definiteness); those must be
    rejected as invalid input by construction.
    """
    nus = (0.5, 1.0, 2.0)
    points = [
        (Family3D(BracketFamily.ABELIAN, MetricFamily.STD), True),
        (Family3D(BracketFamily.SOL, MetricFamily.STD), False),
    ]
    for nu in nus:
        points.append((Family3D(BracketFamily.R_ID_R2, MetricFamily.G_NU, nu=nu), True))
    for mu in (0.25, 0.5, 1.0):
        for nu in nus:
            points.append(
                (Family3D(BracketFamily.SO2R2, MetricFamily.G_MU_NU, mu=mu, nu=nu), mu == 1.0)
            )
    for t in (1.5, 2.0, 5.0):
        for j in range(1, 9):
            mu = t * j / 8.0
            for nu in nus:
                expected = None if mu <= 1.0 else abs(mu - t) <= 1e-9
                points.append(
                    (Family3D(BracketFamily.GT, MetricFamily.H_MU_NU, t=t, mu=mu, nu=nu), expected)
                )
    for nu in nus:
        for mu in nus:
            points.append(
                (Family3D(BracketFamily.GT, MetricFamily.G_MU_NU, mu=mu, nu=nu), False)
            )
        points.append((Family3D(BracketFamily.GT, MetricFamily.M_NU, nu=nu), True))
    return points


def test_catalog3d_grid_agreement():
    start = time.perf_counter()
    checked = degenerate = 0
    for point, expected in catalog_grid():
        if expected is None:
            with pytest.raises(InputError):
                catalog3d.build_family(point)
            degenerate += 1
            continue
        verdict = catalog3d.admits_weyl_einstein(point)
        assert verdict.admits == bool(verdict.lee_forms) == expected, (point, verdict)
        checked += 1
    elapsed = time.perf_counter() - start
    print(f"catalog grid: {checked} verdicts + {degenerate} degenerate in {elapsed:.1f}s")
    assert checked == 68 and degenerate == 30
    assert elapsed < CATALOG_BUDGET_S


def test_classification_matches_solver_on_random_instances():
    rng = np.random.default_rng(2026)
    dims = (3, 4, 5, 6, 7)
    kinds = ("einstein", "trace", "generic")
    expected_case = {
        "einstein": almost_abelian.WEClass.EINSTEIN_FAMILY,
        "trace": almost_abelian.WEClass.TRACE_CASE,
        "generic": almost_abelian.WEClass.NO_WE,
    }
    counts = {kind: 0 for kind in kinds}
    start = time.perf_counter()
    for i in range(1000):
        kind = kinds[i % 3]
        dim = dims[(i // 3) % 5]
        m = samples.random_almost_abelian(rng, dim, kind)
        counts[kind] += 1
        dec = almost_abelian.decompose(m)
        cls = almost_abelian.classify_weyl_einstein(dec, m)
        assert cls.case is expected_case[kind], (i, kind, cls.case)
        result = weyl.solve_lee_forms(m)
        assert_root_sets_match(cls.lee_forms, result.roots, ROOT_MATCH_TOL)
    elapsed = time.perf_counter() - start
    print(f"classification equivalence: 1000 instances in {elapsed:.1f}s ({counts})")
    assert all(count >= 200 for count in counts.values())
    assert elapsed < EQUIVALENCE_BUDGET_S


def test_nilpotent_families_admit_nothing():
    # nonabelian nilpotent examples: the solver must come back empty with a
    # residual floor that is clearly bounded away from zero
    for m in (samples.heisenberg(), samples.filiform4(), samples.free_two_step()):
        result = weyl.solve_lee_forms(m, starts=200)
        assert result.roots == ()
        assert result.infimum > 0.01
        print(f"no-go dim {m.dim}: infimum {result.infimum:.4f}")


def test_trace_case_rescalings_are_ricci_flat_and_flat_iff_spectral():
    rng = np.random.default_rng(505)
    dims = (3, 4, 5, 6, 7)
    n_flat = n_nonflat = 0
    for i in range(200):
        dim = dims[i % 5]
        flat_pattern = None
        if i % 4 == 1:
            flat_pattern = True
        elif i % 4 == 3 and dim >= 4:
            flat_pattern = False
        m, theta = samples.random_trace_case(
            rng, dim, basis_change=(i % 2 == 0), flat_pattern=flat_pattern
        )
        ric_w, _ = weyl_ricci_formula(m, theta)
        bound = CONFORMAL_RTOL * (1.0 + np.linalg.norm(m.frame_curvature.ricci))
        assert np.linalg.norm(m.frame.T @ ric_w @ m.frame) <= bound
        dec = almost_abelian.decompose(m)
        flat = almost_abelian.conformal_metric_flatness(dec, m, theta)
        numeric = weyl.conformal_flatness(m, theta)
        assert numeric.ricci_flat
        assert flat == numeric.flat
        n_flat += flat
        n_nonflat += not flat
    print(f"trace-case rescalings: {n_flat} flat, {n_nonflat} curved")
    assert n_flat >= 20 and n_nonflat >= 20

    # explicit curved witness in dimension 5: eigenvalues (1, 1, 1, 3) pass
    # the trace identity but not the flatness pattern
    m5 = almost_abelian.build_semidirect(np.zeros((4, 4)), np.diag([1.0, 1.0, 1.0, 3.0]))
    report = weyl.conformal_flatness(m5, np.array([2.0, 0.0, 0.0, 0.0, 0.0]))
    assert report.ricci_flat and not report.flat
    assert report.kn_residual > 0.1
    assert report.kn_residual == pytest.approx(6.0 * np.sqrt(2.0), rel=1e-9)


def test_invariant_suite_on_random_algebras():
    rng = np.random.default_rng(606)
    for i in range(500):
        dim = 3 + i % 4
        m = samples.random_metric_algebra(rng, dim)
        table = riemann.levi_civita(m)
        assert riemann.torsion_residual(m, table) <= IDENTITY_TOL
        assert riemann.compatibility_residual(m, table) <= IDENTITY_TOL

        data = riemann.ricci(m)
        r4 = np.einsum("ijkm,ml->ijkl", data.riem, m.metric)
        bianchi = r4 + np.einsum("jkil->ijkl", r4) + np.einsum("kijl->ijkl", r4)
        assert np.max(np.abs(bianchi)) <= IDENTITY_TOL
        assert np.max(np.abs(data.ricci - riemann.besse_ricci(m))) <= IDENTITY_TOL
        delta = riemann.codifferential_sym2(m, table, data.ricci)
        assert np.max(np.abs(delta)) <= IDENTITY_TOL

        theta = random_covector(rng, dim)
        w = weyl.weyl_connection(m, theta)
        derivative = -np.einsum("ijm,mk->ijk", w.table.gamma, m.metric) - np.einsum(
            "ikm,jm->ijk", w.table.gamma, m.metric
        )
        expected = -2.0 * np.einsum("i,jk->ijk", theta, m.metric)
        assert np.max(np.abs(derivative - expected)) <= IDENTITY_TOL

        e = weyl.weyl_einstein_residual(m, theta).matrix
        g_trace = float(np.trace(np.linalg.solve(np.asarray(m.metric), e)))
        assert abs(g_trace) <= IDENTITY_TOL

        ric_w, _ = weyl_ricci_formula(m, theta)
        far = weyl.faraday(m, theta).matrix
        assert np.max(np.abs(ric_w - ric_w.T + (dim - 2) * far)) <= IDENTITY_TOL


def test_worked_numbers_sol_and_heisenberg():
    sol = MetricLieAlgebra(
        LieAlgebra.from_brackets(3, {(0, 2): (-1.0, 0.0, 0.0), (1, 2): (0.0, 1.0, 0.0)}),
        np.eye(3),
    )
    data = riemann.ricci(sol)
    assert np.max(np.abs(data.ricci - np.diag([0.0, 0.0, -2.0]))) <= WORKED_TOL
    assert data.scalar == pytest.approx(-2.0, abs=WORKED_TOL)
    assert riemann.einstein_defect(sol) == pytest.approx(2.0 * np.sqrt(6.0) / 3.0, abs=WORKED_TOL)
    resid = weyl.weyl_einstein_residual(sol, np.array([0.0, 0.0, 1.0])).matrix
    expected = np.diag([4.0 / 3.0, -2.0 / 3.0, -2.0 / 3.0])
    assert np.max(np.abs(resid - expected)) <= WORKED_TOL

    heis = samples.heisenberg()
    target = np.diag([-0.5, -0.5, 0.5])
    assert np.max(np.abs(riemann.ricci(heis).ricci - target)) <= WORKED_TOL
