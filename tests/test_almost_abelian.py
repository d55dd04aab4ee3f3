"""Codimension-one abelian ideals, the two-case classification and flatness."""

import numpy as np
import pytest

from lieweyl import (
    LieAlgebra,
    MetricLieAlgebra,
    WEClass,
    build_semidirect,
    classify_weyl_einstein,
    conformal_metric_flatness,
    curvature_closed_form,
    decompose,
    solve_lee_forms,
    trace_case_instance,
    weyl_einstein_residual,
)
from lieweyl.errors import (
    ConsistencyError,
    HintError,
    InputError,
    NotAlmostAbelianError,
    PreconditionError,
)
from lieweyl.riemann import change_basis, curvature, levi_civita, ricci
from lieweyl import almost_abelian, samples
from lieweyl import algebra as algebra_module
from lieweyl.algebra import REL_TOL, derived_subalgebra, nullspace, row_space, structure_flags
import oracle
from models import LADDER_MODELS, acceptance_mix, almost_abelian_draws

TOL = 1e-12
CLS_TOL = 1e-9


def sol() -> MetricLieAlgebra:
    alg = LieAlgebra.from_brackets(
        3, {(0, 2): [-1.0, 0.0, 0.0], (1, 2): [0.0, 1.0, 0.0]}
    )
    return MetricLieAlgebra(alg, np.eye(3))


def test_decompose_heisenberg():
    dec = decompose(samples.heisenberg())
    np.testing.assert_allclose(dec.normal, [1.0, 0.0, 0.0], atol=TOL)
    np.testing.assert_allclose(dec.ideal_basis, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], atol=TOL)
    np.testing.assert_allclose(dec.skew, [[0.0, -0.5], [0.5, 0.0]], atol=TOL)
    np.testing.assert_allclose(dec.sym, [[0.0, 0.5], [0.5, 0.0]], atol=TOL)
    assert not dec.unique_ideal


@pytest.mark.parametrize("extra", [0, 1, 2, 3])
def test_decompose_heisenberg_plus_abelian_takes_the_first_admissible_covector(extra):
    # the admissible covectors are span(e^1, e^2); e^1 is its own projection,
    # so the ideal is ker e^1 whatever the abelian factor
    n = 3 + extra
    dec = decompose(samples.heisenberg(extra))
    assert not dec.unique_ideal
    np.testing.assert_allclose(dec.normal, np.eye(n)[0], atol=TOL)
    np.testing.assert_allclose(dec.ideal_basis, np.eye(n)[1:], atol=TOL)
    # in the basis (e_3, e_1, e_2, ...) the first covector projects to zero
    # and the second, the old e^1, is taken
    moved = change_basis(samples.heisenberg(extra), np.eye(n)[:, [2, 0, 1, *range(3, n)]])
    np.testing.assert_allclose(decompose(moved).normal, np.eye(n)[1], atol=TOL)


def test_decompose_sol():
    dec = decompose(sol())
    np.testing.assert_allclose(dec.normal, [0.0, 0.0, 1.0], atol=TOL)
    np.testing.assert_allclose(dec.skew, 0.0, atol=TOL)
    np.testing.assert_allclose(dec.sym, np.diag([1.0, -1.0]), atol=TOL)
    assert dec.unique_ideal


def test_decompose_abelian_defaults():
    dec = decompose(samples.abelian(4))
    np.testing.assert_allclose(np.abs(dec.normal), [1.0, 0.0, 0.0, 0.0], atol=TOL)
    assert not dec.unique_ideal


def test_decompose_filiform_has_a_unique_ideal():
    dec = decompose(samples.filiform4())
    np.testing.assert_allclose(np.abs(dec.normal), [1.0, 0.0, 0.0, 0.0], atol=TOL)
    assert dec.unique_ideal


def test_decompose_frame_is_orthonormal():
    rng = np.random.default_rng(1)
    m = samples.random_almost_abelian(rng, 5, "generic")
    dec = decompose(m)
    p = dec.frame
    np.testing.assert_allclose(p.T @ m.metric @ p, np.eye(5), atol=1e-9)


def test_decompose_reconstructs_bracket():
    # [b, v] must come back as (A + S) v in the ideal coordinates
    rng = np.random.default_rng(2)
    m = samples.random_almost_abelian(rng, 4, "generic")
    dec = decompose(m)
    b = dec.frame[:, 0]
    action = dec.skew + dec.sym
    for j in range(3):
        v = dec.frame[:, 1 + j]
        got = m.algebra.bracket(b, v)
        want = dec.frame[:, 1:] @ action[:, j]
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_decompose_rejects_free_two_step():
    with pytest.raises(NotAlmostAbelianError):
        decompose(samples.free_two_step())


def test_hint_accepts_true_ideal():
    m = samples.heisenberg()
    hint = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    dec = decompose(m, hint=hint)
    np.testing.assert_allclose(dec.normal, [0.0, 1.0, 0.0], atol=TOL)


def test_hint_rejects_non_ideal():
    m = samples.heisenberg()
    hint = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # not an abelian ideal
    with pytest.raises(HintError):
        decompose(m, hint=hint)


def test_hint_rejects_bad_shape():
    with pytest.raises(HintError):
        decompose(samples.heisenberg(), hint=np.eye(3))


@pytest.mark.parametrize("n,k", [(3, 1.0), (4, 0.5), (6, 2.0)])
def test_classify_hyperbolic_einstein_family(n, k):
    m = samples.hyperbolic(n, k)
    cls = classify_weyl_einstein(decompose(m), m)
    assert cls.case is WEClass.EINSTEIN_FAMILY
    assert cls.coefficient == pytest.approx(k, abs=CLS_TOL)
    assert len(cls.lee_forms) == 2
    want = np.zeros(n)
    want[0] = k
    np.testing.assert_allclose(cls.lee_forms[0], np.zeros(n), atol=CLS_TOL)
    np.testing.assert_allclose(cls.lee_forms[1], want, atol=CLS_TOL)


def test_classify_flat_scalar_case_merges_roots():
    # S = 0 with a nonzero rotation still sits in the Einstein family, with
    # the two roots merged at zero
    m = build_semidirect(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((2, 2)))
    cls = classify_weyl_einstein(decompose(m), m)
    assert cls.case is WEClass.EINSTEIN_FAMILY
    assert cls.coefficient == pytest.approx(0.0, abs=CLS_TOL)
    assert len(cls.lee_forms) == 1
    np.testing.assert_allclose(cls.lee_forms[0], 0.0, atol=CLS_TOL)


def test_classify_sol_is_no_we():
    cls = classify_weyl_einstein(decompose(sol()), sol())
    assert cls.case is WEClass.NO_WE
    assert np.isnan(cls.coefficient)
    assert cls.lee_forms == ()


def test_trace_case_instance_dim3():
    m, theta = trace_case_instance(3, np.diag([1.0, -1.0]), np.sqrt(2.0))
    dec = decompose(m)
    np.testing.assert_allclose(dec.sym, np.diag([2.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(theta, [2.0, 0.0, 0.0], atol=TOL)
    cls = classify_weyl_einstein(dec, m)
    assert cls.case is WEClass.TRACE_CASE
    assert cls.coefficient == pytest.approx(2.0, abs=CLS_TOL)
    assert len(cls.lee_forms) == 1
    np.testing.assert_allclose(cls.lee_forms[0], theta, atol=CLS_TOL)
    assert weyl_einstein_residual(m, theta).norm <= 1e-12


def test_trace_case_instance_dim4():
    s = 0.5
    m, theta = trace_case_instance(4, s * np.diag([1.0, 1.0, -2.0]), s * np.sqrt(6.0))
    dec = decompose(m)
    np.testing.assert_allclose(dec.sym, np.diag([1.5, 1.5, 0.0]), atol=1e-12)
    np.testing.assert_allclose(theta, [1.5, 0.0, 0.0, 0.0], atol=TOL)
    assert classify_weyl_einstein(dec, m).case is WEClass.TRACE_CASE


def test_trace_case_instance_validates_seed():
    with pytest.raises(InputError):
        trace_case_instance(3, np.diag([1.0, 1.0]), np.sqrt(2.0))  # not traceless
    with pytest.raises(InputError):
        trace_case_instance(3, np.diag([1.0, -1.0]), 1.0)  # wrong amplitude
    with pytest.raises(InputError):
        trace_case_instance(3, np.zeros((2, 2)), 0.0)  # zero seed


def test_build_semidirect_validates_parts():
    with pytest.raises(InputError):
        build_semidirect(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2)))
    with pytest.raises(InputError):
        build_semidirect(np.zeros((2, 2)), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_build_semidirect_weighted_inner_product():
    # a weighted inner product on the ideal is a basis change of the
    # orthonormal build; a diagonal action keeps its structure constants
    sym = np.diag([1.0, -1.0])
    m = build_semidirect(np.zeros((2, 2)), sym)
    weighted = change_basis(m, np.diag([1.0, np.sqrt(2.0), np.sqrt(0.5)]))
    np.testing.assert_allclose(weighted.metric, np.diag([1.0, 2.0, 0.5]), atol=TOL)
    np.testing.assert_allclose(np.asarray(weighted.c), np.asarray(m.c), atol=TOL)


def test_closed_form_curvature_matches_numeric():
    rng = np.random.default_rng(3)
    for kind in ("einstein", "trace", "generic"):
        for _ in range(4):
            dim = int(rng.integers(3, 7))
            m = samples.random_almost_abelian(rng, dim, kind)
            dec = decompose(m)
            closed = curvature_closed_form(dec, m)
            riem_n = curvature(m, levi_civita(m))
            data = ricci(m)
            np.testing.assert_allclose(closed.riem, riem_n, atol=1e-9)
            np.testing.assert_allclose(closed.ricci, data.ricci, atol=1e-9)
            assert closed.scalar == pytest.approx(data.scalar, abs=1e-9)


def test_classification_matches_solver_seeded():
    rng = np.random.default_rng(4)
    for kind in ("einstein", "trace", "generic"):
        for _ in range(3):
            m = samples.random_almost_abelian(rng, 4, kind)
            cls = classify_weyl_einstein(decompose(m), m)
            sol_roots = solve_lee_forms(m).roots
            assert len(cls.lee_forms) == len(sol_roots)
            for a, b in zip(sorted(map(tuple, cls.lee_forms)), sorted(map(tuple, sol_roots))):
                assert np.linalg.norm(np.array(a) - np.array(b)) <= 1e-6


def test_conformal_metric_flatness_witness():
    m = build_semidirect(np.zeros((4, 4)), np.diag([1.0, 1.0, 1.0, 3.0]))
    theta = np.zeros(5)
    theta[0] = 2.0
    assert conformal_metric_flatness(decompose(m), m, theta) is False


def test_conformal_metric_flatness_flat_pattern():
    rng = np.random.default_rng(5)
    m, theta = samples.random_trace_case(rng, 5, flat_pattern=True)
    assert conformal_metric_flatness(decompose(m), m, theta) is True


def test_conformal_metric_flatness_preconditions():
    m = sol()
    with pytest.raises(PreconditionError):
        conformal_metric_flatness(decompose(m), m, np.zeros(3))
    with pytest.raises(PreconditionError):
        # e3* is not a Weyl-Einstein root of Sol
        conformal_metric_flatness(decompose(m), m, np.array([0.0, 0.0, 1.0]))


def test_random_trace_case_dim3_flat_only():
    with pytest.raises(InputError):
        samples.random_trace_case(np.random.default_rng(0), 3, flat_pattern=False)


def test_classification_survives_basis_change():
    # the coefficient sign depends on the orientation picked for the normal,
    # but the Lee-form roots themselves are basis independent covectors
    rng = np.random.default_rng(6)
    m = samples.hyperbolic(4, 1.0)
    basis = samples.random_basis_change(rng, 4)
    moved = change_basis(m, basis)
    cls = classify_weyl_einstein(decompose(moved), moved)
    assert cls.case is WEClass.EINSTEIN_FAMILY
    assert abs(cls.coefficient) == pytest.approx(1.0, abs=1e-9)
    want = basis.T @ np.array([1.0, 0.0, 0.0, 0.0])
    nonzero = max(cls.lee_forms, key=np.linalg.norm)
    np.testing.assert_allclose(nonzero, want, atol=1e-9)


def test_ideal_invariance_alarm_names_routes_gap_and_tolerance(monkeypatch):
    # the bound is c-sized, so the alarm keeps its strength at any scale
    for lam in (1.0, 1e8):
        m = _rescaled(sol(), lam)
        honest = almost_abelian.ad

        def leaky(algebra, x):
            # a constant shift leaks ad_normal out of the ideal along the normal
            return honest(algebra, x) + 1e-3 * lam * np.ones((3, 3))

        monkeypatch.setattr(almost_abelian, "ad", leaky)
        with pytest.raises(ConsistencyError) as info:
            decompose(m)
        monkeypatch.undo()
        dec = decompose(m)
        h, ad_b = dec.ideal_basis, leaky(m.algebra, dec.normal)
        gap = float(np.max(np.abs(ad_b @ h.T - h.T @ (h @ m.metric @ ad_b @ h.T))))
        bound = REL_TOL * m.structure_scale
        message = str(info.value)
        assert "ideal basis" in message and "projection onto the ideal" in message
        assert f"{gap:.3e}" in message and f"{bound:.3e}" in message


def test_abelian_ideal_alarm_names_routes_gap_and_tolerance(monkeypatch):
    # the same c-sized bound as the ad-gap alarm, at any scale
    for lam in (1.0, 1e8):
        m = _rescaled(sol(), lam)
        honest = almost_abelian._brackets

        def leaky(algebra, rows_a, rows_b):
            # a constant shift makes the ideal basis fail to commute
            return honest(algebra, rows_a, rows_b) + 1e-3 * lam

        monkeypatch.setattr(almost_abelian, "_brackets", leaky)
        with pytest.raises(ConsistencyError) as info:
            decompose(m)
        monkeypatch.undo()
        h = decompose(m).ideal_basis  # the metric is I: the frame is the input basis
        gap = float(np.max(np.abs(leaky(m.algebra, h, h))))
        bound = REL_TOL * m.structure_scale
        message = str(info.value)
        assert "brackets of the ideal basis" in message and "zero" in message
        assert f"{gap:.3e}" in message and f"{bound:.3e}" in message


def _rescaled(m, lam):
    return MetricLieAlgebra(LieAlgebra(lam * np.asarray(m.c)), m.metric)


def test_classification_is_equivariant_under_rescaling():
    # the classifier tests sym / lam and skew / lam: the label is scale-free
    # and the Lee forms scale with the structure constants
    for i, m in enumerate(acceptance_mix(60)):
        base = classify_weyl_einstein(decompose(m), m)
        for lam in (1e-8, 1e-6, 1e-3, 1e3, 1e6, 1e8):
            moved = _rescaled(m, lam)
            cls = classify_weyl_einstein(decompose(moved), moved)
            assert cls.case is base.case, (i, lam, base.case, cls.case)
            assert len(cls.lee_forms) == len(base.lee_forms), (i, lam)
            for a, b in zip(base.lee_forms, cls.lee_forms):
                assert np.linalg.norm(b - lam * a) <= 1e-9 * lam * (1.0 + np.linalg.norm(a)), (i, lam)


def test_flatness_verdict_is_scale_free():
    # the precondition is tested at the root test's scale lam^2 + |Ric| and
    # the eigenvalue clusters at the spectrum's own size
    m, theta = trace_case_instance(5, np.diag([1.0, 2.0, -1.0, -2.0]), np.sqrt(10.0))
    base = conformal_metric_flatness(decompose(m), m, theta)
    assert base is False
    for lam in (1e-10, 1e-8, 1.0, 1e8):
        moved = _rescaled(m, lam)
        dec = decompose(moved)
        assert conformal_metric_flatness(dec, moved, lam * theta) == base, lam
        with pytest.raises(PreconditionError):
            conformal_metric_flatness(dec, moved, 2.0 * lam * theta)


def test_decompose_is_scale_free_on_small_tables():
    # draws of the acceptance mix whose ideals an absolute tolerance mistakes
    # at lam = 1e-8 (on seed 1001 draw 270 decompose then raises)
    for seed, index in ((1001, 195), (1001, 270), (1002, 15)):
        rng = np.random.default_rng(seed)
        for i in range(index + 1):
            m = samples.random_almost_abelian(rng, 3 + (i // 3) % 5, ("einstein", "trace", "generic")[i % 3])
        base = classify_weyl_einstein(decompose(m), m)
        for lam in (1e-8, 1e8):
            moved = _rescaled(m, lam)
            assert classify_weyl_einstein(decompose(moved), moved).case is base.case, (seed, index, lam)


def test_decompose_matches_the_inner_product_oracle():
    # decompose takes the ideal basis from one QR in the orthonormal frame;
    # the oracle runs the Gram-Schmidt it replaces in the input basis, every
    # inner product read by m.inner, from the same normal: the two agree to
    # rounding relative to their size
    draws = acceptance_mix(300) + almost_abelian_draws(40) + almost_abelian_draws(41)
    for i, m in enumerate(draws):
        dec = decompose(m)
        h, skew, sym = oracle.adapted_parts_by_inner(m, dec.normal)
        assert abs(dec.normal @ m.metric @ dec.normal - 1.0) <= 1e-11, i
        assert np.linalg.norm(dec.ideal_basis - h) <= 1e-11 * np.linalg.norm(h), i
        size = np.linalg.norm(skew + sym)
        assert np.linalg.norm(dec.skew - skew) <= 1e-11 * size, i
        assert np.linalg.norm(dec.sym - sym) <= 1e-11 * size, i


def test_subspace_verdicts_match_the_einsum_oracle():
    # on ideals, derived subalgebras, hints that are no ideal and random
    # subspaces, abelian or not, and the ranks of their bracket spans
    rng = np.random.default_rng(42)
    draws = acceptance_mix(60) + almost_abelian_draws(43) + [
        samples.heisenberg(), samples.filiform4(), samples.free_two_step()]
    seen = set()
    for i, m in enumerate(draws):
        n = m.dim
        der = derived_subalgebra(m.algebra)
        subspaces = [der, np.eye(n)[:2], np.eye(n)[1:], rng.standard_normal((2, n)),
                     rng.standard_normal((n - 1, n))]
        if n - der.shape[0] > 1:
            subspaces.append(np.vstack([der, rng.standard_normal((1, n))]))
        try:
            dec = decompose(m)
        except NotAlmostAbelianError:
            pass
        else:
            subspaces.append(dec.ideal_basis)
            # the computed ideal passes both halves of the system as a hint
            hinted = decompose(m, hint=dec.ideal_basis)
            np.testing.assert_allclose(hinted.normal, dec.normal, atol=1e-12)
            assert hinted.unique_ideal == dec.unique_ideal
            assert oracle.is_abelian_subspace_by_einsum(m, dec.ideal_basis), i
        for rows in subspaces:
            if rows.shape[0] == n - 1 and len(nullspace(rows)) == 1:
                # the abelian half of the ideal system, read through a hint
                try:
                    decompose(m, hint=rows)
                    abelian = True
                except HintError as error:
                    abelian = "not abelian" not in str(error)
                assert abelian == oracle.is_abelian_subspace_by_einsum(m, rows), i
                seen.add(abelian)
            for a, b in ((rows, rows), (np.eye(n), rows), (rows[:0], rows)):
                span = algebra_module._bracket_span(m.algebra, a, b)
                assert span.shape == oracle.bracket_span_by_einsum(m.algebra, a, b).shape, i
    assert seen == {True, False}
    # hints that are not abelian (Heisenberg) or abelian but no ideal
    # (r_2 + R^2, [e_0, e_1] = e_1, and span(e_0, e_2, e_3)) are refused
    m = samples.heisenberg()
    hint = row_space(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), 3)
    assert not oracle.is_abelian_subspace_by_einsum(m, hint)
    with pytest.raises(HintError, match="not abelian"):
        decompose(m, hint=hint)
    m = MetricLieAlgebra(LieAlgebra.from_brackets(4, {(0, 1): np.eye(4)[1]}), np.eye(4))
    hint = np.eye(4)[[0, 2, 3]]
    assert oracle.is_abelian_subspace_by_einsum(m, hint)
    with pytest.raises(HintError, match="not an ideal"):
        decompose(m, hint=hint)


def test_decompose_accepts_nearly_singular_derivations():
    # draw 1093 of this sequence (trace, n = 4, random basis) has a derived
    # subalgebra whose third singular value is 2.9e-8 of the first; a
    # computed basis of [g, g] then failed its abelian test, where the ideal
    # system keeps the accuracy of c
    rng = np.random.default_rng(77)
    kinds = ("einstein", "trace", "generic")
    for i in range(1100):
        kind = kinds[i % 3]
        m = samples.random_almost_abelian(rng, 3 + i % 7, kind, basis_change=bool(i % 2))
        cls = classify_weyl_einstein(decompose(m), m)
        assert cls.case is {"einstein": WEClass.EINSTEIN_FAMILY, "trace": WEClass.TRACE_CASE,
                            "generic": WEClass.NO_WE}[kind], i
        roots = solve_lee_forms(m).roots
        assert len(roots) == len(cls.lee_forms), i
        for a, b in zip(sorted(map(tuple, cls.lee_forms)), sorted(map(tuple, roots))):
            assert np.linalg.norm(np.array(a) - np.array(b)) <= 1e-6, i


def test_structure_flags_match_the_einsum_bracket_span(monkeypatch):
    draws = acceptance_mix(30) + LADDER_MODELS + [samples.abelian(4)]
    flags = [structure_flags(m.algebra) for m in draws]
    monkeypatch.setattr(algebra_module, "_bracket_span", oracle.bracket_span_by_einsum)
    assert flags == [structure_flags(m.algebra) for m in draws]


def test_random_generators_refuse_dimension_two_before_drawing():
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    for draw, message in ((lambda: samples.random_metric_algebra(rng, 2), "dimension at least 3"),
                          (lambda: samples.random_almost_abelian(rng, 2, "einstein"),
                           "dimension at least 3"),
                          (lambda: samples.random_trace_case(rng, 2), "dimension at least 3"),
                          (lambda: samples.random_almost_abelian(rng, 4, "bogus"),
                           "unknown kind 'bogus'")):
        with pytest.raises(InputError, match=message):
            draw()
        assert rng.bit_generator.state == state

