"""Three-dimensional family catalog: metrics, verdicts and adapted frames."""

import numpy as np
import pytest

from lieweyl import (
    BracketFamily,
    Family3D,
    FrameKind,
    LieAlgebra,
    MetricFamily,
    MetricLieAlgebra,
    adapted_frame,
    admits_weyl_einstein,
    build_family,
    table_admits,
)
from lieweyl.errors import (
    ConsistencyError,
    DimensionError,
    InputError,
    NoNormalFormError,
    PreconditionError,
)
from lieweyl import catalog3d, samples
from lieweyl.algebra import REL_TOL

TOL = 1e-9


def point(family, metric, **kw):
    return Family3D(family, metric, **kw)


def test_build_family_sol_standard():
    m = build_family(point(BracketFamily.SOL, MetricFamily.STD))
    np.testing.assert_allclose(m.metric, np.eye(3))
    np.testing.assert_allclose(m.algebra.bracket(np.eye(3)[0], np.eye(3)[2]), [-1.0, 0.0, 0.0])
    np.testing.assert_allclose(m.algebra.bracket(np.eye(3)[1], np.eye(3)[2]), [0.0, 1.0, 0.0])


def test_invalid_pairings_raise():
    with pytest.raises(InputError):
        build_family(point(BracketFamily.ABELIAN, MetricFamily.G_NU, nu=1.0))
    with pytest.raises(InputError):
        build_family(point(BracketFamily.R_ID_R2, MetricFamily.STD))
    with pytest.raises(InputError):
        build_family(point(BracketFamily.SO2R2, MetricFamily.G_NU, nu=1.0))


def test_sol_pairs_with_every_catalog_metric():
    # the published table runs Sol against all five metric families; none admit
    for mf, kw in (
        (MetricFamily.STD, {}),
        (MetricFamily.G_NU, {"nu": 0.5}),
        (MetricFamily.G_MU_NU, {"mu": 0.5, "nu": 2.0}),
        (MetricFamily.H_MU_NU, {"mu": 2.0, "nu": 1.0}),
        (MetricFamily.M_NU, {"nu": 1.0}),
    ):
        p = point(BracketFamily.SOL, mf, **kw)
        build_family(p)
        assert not table_admits(p)


def test_parameter_range_checks():
    with pytest.raises(InputError):
        build_family(point(BracketFamily.R_ID_R2, MetricFamily.G_NU, nu=-1.0))
    with pytest.raises(InputError):
        build_family(point(BracketFamily.SO2R2, MetricFamily.G_MU_NU, mu=1.5, nu=1.0))
    with pytest.raises(InputError):
        # non-deformed families must keep t = 0
        build_family(point(BracketFamily.SOL, MetricFamily.STD, t=1.0))


def test_gt_parameter_window():
    # t in (0, 1] has no admissible catalog metric
    with pytest.raises(InputError):
        build_family(point(BracketFamily.GT, MetricFamily.H_MU_NU, t=0.5, mu=2.0, nu=1.0))
    # deformed metric family needs mu above 1 to stay positive definite
    with pytest.raises(InputError):
        build_family(point(BracketFamily.GT, MetricFamily.H_MU_NU, t=2.0, mu=0.5, nu=1.0))
    # and mu must not exceed t
    with pytest.raises(InputError):
        build_family(point(BracketFamily.GT, MetricFamily.H_MU_NU, t=2.0, mu=3.0, nu=1.0))


def test_gt_zero_is_rotation_family():
    m = build_family(point(BracketFamily.GT, MetricFamily.M_NU, t=0.0, nu=1.0))
    a = m.algebra
    np.testing.assert_allclose(a.bracket(np.eye(3)[0], np.eye(3)[2]), [0.0, -1.0, 0.0])
    np.testing.assert_allclose(a.bracket(np.eye(3)[1], np.eye(3)[2]), [0.0, -2.0, 0.0])


def test_table_admits_closed_form():
    assert table_admits(point(BracketFamily.ABELIAN, MetricFamily.STD))
    assert not table_admits(point(BracketFamily.SOL, MetricFamily.STD))
    for nu in (0.5, 1.0, 2.0):
        assert table_admits(point(BracketFamily.R_ID_R2, MetricFamily.G_NU, nu=nu))
    assert table_admits(point(BracketFamily.SO2R2, MetricFamily.G_MU_NU, mu=1.0, nu=0.7))
    assert not table_admits(point(BracketFamily.SO2R2, MetricFamily.G_MU_NU, mu=0.5, nu=0.7))
    assert table_admits(point(BracketFamily.GT, MetricFamily.M_NU, t=0.0, nu=1.2))
    assert not table_admits(point(BracketFamily.GT, MetricFamily.G_MU_NU, t=0.0, mu=0.8, nu=1.2))
    # deformed family admits exactly on the mu = t boundary
    assert table_admits(point(BracketFamily.GT, MetricFamily.H_MU_NU, t=2.0, mu=2.0, nu=0.4))
    assert not table_admits(point(BracketFamily.GT, MetricFamily.H_MU_NU, t=2.0, mu=1.5, nu=0.4))


@pytest.mark.parametrize("mu", [0.5, 1.0])
@pytest.mark.parametrize("family, t", [(BracketFamily.SOL, 0.0), (BracketFamily.GT, 2.0)])
def test_table_admits_rejects_h_at_mu_up_to_one(family, t, mu):
    # h is a metric only for mu > 1: the table states that bound, so such a
    # point is off the catalog rather than a point that does not admit
    with pytest.raises(InputError, match="mu > 1"):
        table_admits(point(family, MetricFamily.H_MU_NU, t=t, mu=mu, nu=1.0))


@pytest.mark.parametrize("t", [2.0, 5.0])
def test_table_admits_compares_mu_with_its_cap_relative_to_the_cap(t):
    # mu meets its cap t within REL_TOL t, the cap's own scale
    p = point(BracketFamily.GT, MetricFamily.H_MU_NU, t=t, nu=1.0)
    assert table_admits(p._replace(mu=t * (1 + 0.9 * REL_TOL)))
    with pytest.raises(InputError, match="mu <= "):
        table_admits(p._replace(mu=t * (1 + 1.1 * REL_TOL)))


def test_verdict_agreement_spot_points():
    for p in (
        point(BracketFamily.SOL, MetricFamily.STD),
        point(BracketFamily.R_ID_R2, MetricFamily.G_NU, nu=2.0),
        point(BracketFamily.GT, MetricFamily.M_NU, t=0.0, nu=0.9),
        point(BracketFamily.GT, MetricFamily.H_MU_NU, t=2.0, mu=1.5, nu=0.7),
    ):
        v = admits_weyl_einstein(p)
        assert v.admits == table_admits(p)
        assert (len(v.lee_forms) > 0) == v.admits


def test_verdict_einstein_boundary_has_two_roots():
    v = admits_weyl_einstein(point(BracketFamily.GT, MetricFamily.H_MU_NU, t=2.0, mu=2.0, nu=0.7))
    assert v.admits
    assert len(v.lee_forms) == 2


@pytest.mark.parametrize("admits", [False, True])
def test_table_solver_disagreement_raises_without_a_seeded_search(monkeypatch, admits):
    # the verdict reads only the solver's roots, so the cross-check holds on
    # the default path, which runs no seeded search; a table flipped at one
    # point must trip it in both directions
    p = (point(BracketFamily.GT, MetricFamily.H_MU_NU, t=2.0, mu=2.0, nu=0.7) if admits
         else point(BracketFamily.SOL, MetricFamily.STD))
    assert admits_weyl_einstein(p).admits is admits
    monkeypatch.setattr(catalog3d, "table_admits", lambda _: not admits)
    with pytest.raises(ConsistencyError, match="table and solver disagree"):
        admits_weyl_einstein(p)


def test_adapted_frame_similarity_ridr2():
    m = build_family(point(BracketFamily.R_ID_R2, MetricFamily.G_NU, nu=1.0))
    fr = adapted_frame(m)
    assert fr.kind is FrameKind.SIMILARITY
    assert fr.k == pytest.approx(1.0, abs=TOL)
    assert fr.l == pytest.approx(0.0, abs=TOL)


def test_adapted_frame_similarity_gt():
    m = build_family(point(BracketFamily.GT, MetricFamily.H_MU_NU, t=2.0, mu=2.0, nu=1.0))
    fr = adapted_frame(m)
    assert fr.kind is FrameKind.SIMILARITY
    assert fr.k == pytest.approx(1.0, abs=TOL)
    assert fr.l == pytest.approx(1.0, abs=TOL)


def test_adapted_frame_rank_one_g0():
    m = build_family(point(BracketFamily.GT, MetricFamily.M_NU, t=0.0, nu=1.0))
    fr = adapted_frame(m)
    assert fr.kind is FrameKind.RANK_ONE
    assert fr.alpha == pytest.approx(2.0, abs=1e-9)


def test_adapted_frame_bracket_relations():
    # similarity frames satisfy [b,u] = k u - l v and [b,v] = l u + k v
    for p in (
        point(BracketFamily.R_ID_R2, MetricFamily.G_NU, nu=0.5),
        point(BracketFamily.GT, MetricFamily.H_MU_NU, t=3.0, mu=3.0, nu=2.0),
    ):
        m = build_family(p)
        fr = adapted_frame(m)
        assert fr.kind is FrameKind.SIMILARITY
        b, u, v = fr.basis.T
        np.testing.assert_allclose(
            m.algebra.bracket(b, u), fr.k * u - fr.l * v, atol=1e-9
        )
        np.testing.assert_allclose(
            m.algebra.bracket(b, v), fr.l * u + fr.k * v, atol=1e-9
        )


def test_adapted_frame_rank_one_relations():
    m = build_family(point(BracketFamily.GT, MetricFamily.M_NU, t=0.0, nu=2.0))
    fr = adapted_frame(m)
    b, u, v = fr.basis.T
    np.testing.assert_allclose(m.algebra.bracket(b, u), fr.alpha * u, atol=1e-9)
    np.testing.assert_allclose(m.algebra.bracket(b, v), 0.0, atol=1e-9)


def test_adapted_frame_is_orthonormal():
    m = build_family(point(BracketFamily.R_ID_R2, MetricFamily.G_NU, nu=2.0))
    fr = adapted_frame(m)
    np.testing.assert_allclose(fr.basis.T @ m.metric @ fr.basis, np.eye(3), atol=1e-9)


def test_adapted_frame_refuses_no_we_metric():
    with pytest.raises(NoNormalFormError):
        adapted_frame(build_family(point(BracketFamily.SOL, MetricFamily.STD)))


def test_adapted_frame_preconditions():
    so3 = LieAlgebra.from_brackets(
        3, {(0, 1): [0.0, 0.0, 1.0], (1, 2): [1.0, 0.0, 0.0], (0, 2): [0.0, -1.0, 0.0]}
    )
    with pytest.raises(PreconditionError):
        adapted_frame(MetricLieAlgebra(so3, np.eye(3)))
    with pytest.raises(DimensionError):
        adapted_frame(samples.hyperbolic(4, 1.0))


def test_abelian_point_admits_trivially():
    v = admits_weyl_einstein(point(BracketFamily.ABELIAN, MetricFamily.STD))
    assert v.admits
    assert len(v.lee_forms) == 1
    assert np.linalg.norm(v.lee_forms[0]) <= 1e-7


def test_adapted_frame_alarm_names_routes_gap_and_tolerance(monkeypatch):
    # the bound is c-sized, so the alarm keeps its strength at any scale
    base = build_family(point(BracketFamily.R_ID_R2, MetricFamily.G_NU, nu=1.5))
    for lam in (1.0, 1e8):
        m = MetricLieAlgebra(LieAlgebra(lam * base.c), base.metric)
        honest = LieAlgebra.bracket

        def shifted(self, x, y):
            return honest(self, x, y) + 1e-3 * lam

        monkeypatch.setattr(LieAlgebra, "bracket", shifted)
        with pytest.raises(ConsistencyError) as info:
            adapted_frame(m)
        monkeypatch.undo()
        frame = adapted_frame(m)
        b, u, v = frame.basis.T
        gap = float(np.max(np.abs(shifted(m.algebra, b, u) - (frame.k * u - frame.l * v))))
        bound = REL_TOL * m.structure_scale
        message = str(info.value)
        assert "structure constants" in message and "normal form" in message
        assert f"{gap:.3e}" in message and f"{bound:.3e}" in message
