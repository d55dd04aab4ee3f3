#!/usr/bin/env python3
"""Classifier, solver and Weyl-route verdicts in ill-conditioned bases.

Draws random almost abelian metric Lie algebras in their adapted basis
(kinds einstein, trace and generic cycled, n = 3..9) and moves each draw to a
basis U diag(s) V (``samples.conditioned_basis``), with U and V random
orthogonal and s log-spaced from 1 to kappa, so that the metric has condition
kappa^2.  A moved draw is right when the classifier case, the classifier's
Lee form count and the solver's root count all equal those of the
undisturbed draw, wrong when one differs, and raised when the library raised.

Two Weyl routes are scored on every draw.  The Weyl-Ricci cross-checks of a
random Lee form theta (its own generator, seed + 1) are right when
``weyl_ricci`` raises nothing and its scalar is that of the undisturbed draw
to 1e-6 (1 + |scal|).  At each nonzero closed classifier root, the numeric
flatness verdicts (``weyl.conformal_flatness``) agree when the rescaled metric
is Ricci-flat, as the theorem says, and flat exactly when the spectral verdict
(``almost_abelian.conformal_metric_flatness``) of the moved draw says so.

Flat draws (the Einstein family with k = 0) are counted apart: their one Lee
form, 0, is a double root of the Weyl-Einstein residual, which rounding in
its constant term splits into two roots or into a complex pair.  The script
exits 1 if a draw that is not flat is wrong or raised, or if a Weyl-Ricci
check of any draw is wrong or raised or a flatness verdict differs or raised,
at kappa <= 1e3.
"""
from __future__ import annotations

import argparse
import functools
import time
from collections import Counter

import numpy as np

from lieweyl import almost_abelian, riemann, samples, weyl
from lieweyl.algebra import REL_TOL
from lieweyl.errors import LieweylError

KINDS = ("einstein", "trace", "generic")
KAPPAS = (1.0, 1e2, 1e3, 1e4)
GATED_KAPPA = 1e3
SCALAR_RTOL = 1e-6


def verdict(m: riemann.MetricLieAlgebra) -> tuple:
    """(classifier case, its Lee form count, the solver's root count)."""
    cls = almost_abelian.classify_weyl_einstein(almost_abelian.decompose(m), m)
    return cls.case, len(cls.lee_forms), len(weyl.solve_lee_forms(m).roots)


def closed_roots(m: riemann.MetricLieAlgebra) -> list:
    """The classifier's nonzero closed Lee forms."""
    cls = almost_abelian.classify_weyl_einstein(almost_abelian.decompose(m), m)
    return [root for root in cls.lee_forms if m.covector_norm(root) > REL_TOL * m.structure_scale
            and weyl.faraday(m, root).closed]


def weyl_scalar(m: riemann.MetricLieAlgebra, theta: np.ndarray) -> float:
    return weyl.weyl_ricci(weyl.weyl_connection(m, theta))[1]


def flatness_agrees(m: riemann.MetricLieAlgebra, root: np.ndarray) -> bool:
    """Whether the numeric verdicts at ``root`` read Ricci-flat and the spectral flatness."""
    flat = almost_abelian.conformal_metric_flatness(almost_abelian.decompose(m), m, root)
    numeric = weyl.conformal_flatness(m, root)
    return numeric.ricci_flat and numeric.flat == flat


def attempt(check) -> str:
    """right if ``check()`` holds, wrong if not, raised if the library raised."""
    try:
        return "right" if check() else "wrong"
    except LieweylError:
        return "raised"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=300, help="draws, moved once per kappa")
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)

    rng, theta_rng = np.random.default_rng(args.seed), np.random.default_rng(args.seed + 1)
    draws = []
    for i in range(args.count):
        kind = KINDS[i % 3]
        m = samples.random_almost_abelian(rng, 3 + i % 7, kind, basis_change=False)
        want = verdict(m)
        flat = want[0] is almost_abelian.WEClass.EINSTEIN_FAMILY and want[1] == 1
        theta = theta_rng.standard_normal(m.dim)
        draws.append(("flat" if flat else kind, m, want, theta, weyl_scalar(m, theta),
                      closed_roots(m)))

    begin = time.perf_counter()
    failed = weyl_failed = 0
    for kappa in KAPPAS:
        counts = {label: Counter() for label in KINDS + ("flat",)}
        for label, m, want, theta, scal, roots in draws:
            basis = samples.conditioned_basis(rng, m.dim, kappa)
            moved = functools.cache(lambda: riemann.change_basis(m, basis))
            outcome = attempt(lambda: verdict(moved()) == want)
            ricci = attempt(lambda: abs(weyl_scalar(moved(), basis.T @ theta) - scal)
                            <= SCALAR_RTOL * (1.0 + abs(scal)))
            flatness = [attempt(lambda: flatness_agrees(moved(), basis.T @ root)) for root in roots]
            counts[label].update([outcome, "ricci " + ricci] + ["flat " + f for f in flatness])
            if kappa <= GATED_KAPPA:
                failed += label != "flat" and outcome != "right"
                weyl_failed += (ricci != "right") + sum(f != "right" for f in flatness)
        for label, count in counts.items():
            print(f"kappa {kappa:7.0e} {label:9s} right {count['right']:4d} "
                  f"wrong {count['wrong']:4d} raised {count['raised']:4d} | weyl-ricci right "
                  f"{count['ricci right']:4d} wrong {count['ricci wrong']:4d} raised "
                  f"{count['ricci raised']:4d} | flatness agree {count['flat right']:4d} "
                  f"differ {count['flat wrong']:4d} raised {count['flat raised']:4d}")
    elapsed = time.perf_counter() - begin
    print(f"{len(draws)} draws at {len(KAPPAS)} conditions in {elapsed:.1f}s, {failed} "
          f"draws that are not flat wrong or raised at kappa <= {GATED_KAPPA:.0e}")
    print(f"{weyl_failed} Weyl-Ricci or flatness checks wrong, differing or raised at "
          f"kappa <= {GATED_KAPPA:.0e}")
    return 1 if failed or weyl_failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
