#!/usr/bin/env python3
"""Classifier and solver verdicts in ill-conditioned bases.

Draws random almost abelian metric Lie algebras in their adapted basis
(kinds einstein, trace and generic cycled, n = 3..9) and moves each draw to a
basis U diag(s) V, with U and V random orthogonal and s log-spaced from 1 to
kappa, so that the metric has condition kappa^2.  A moved draw is right when
the classifier case, the classifier's Lee form count and the solver's root
count all equal those of the undisturbed draw, wrong when one differs, and
raised when the library raised.

Flat draws (the Einstein family with k = 0) are counted apart: their one Lee
form, 0, is a double root of the Weyl-Einstein residual, which rounding in
its constant term splits into two roots or into a complex pair.  The script
exits 1 if a draw that is not flat is wrong or raised at kappa <= 1e3.
"""
from __future__ import annotations

import argparse
import time
from collections import Counter

import numpy as np

from lieweyl import almost_abelian, riemann, samples, weyl
from lieweyl.errors import LieweylError

KINDS = ("einstein", "trace", "generic")
KAPPAS = (1.0, 1e2, 1e3, 1e4)
GATED_KAPPA = 1e3


def conditioned_basis(rng: np.random.Generator, n: int, kappa: float) -> np.ndarray:
    """U diag(s) V with U, V random orthogonal and s log-spaced from 1 to kappa."""
    s = np.logspace(0.0, np.log10(kappa), n)
    return samples.random_orthogonal(rng, n) @ np.diag(s) @ samples.random_orthogonal(rng, n)


def verdict(m: riemann.MetricLieAlgebra) -> tuple:
    """(classifier case, its Lee form count, the solver's root count)."""
    cls = almost_abelian.classify_weyl_einstein(almost_abelian.decompose(m), m)
    return cls.case, len(cls.lee_forms), len(weyl.solve_lee_forms(m).roots)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=300, help="draws, moved once per kappa")
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    draws = []
    for i in range(args.count):
        kind = KINDS[i % 3]
        m = samples.random_almost_abelian(rng, 3 + i % 7, kind, basis_change=False)
        want = verdict(m)
        flat = want[0] is almost_abelian.WEClass.EINSTEIN_FAMILY and want[1] == 1
        draws.append(("flat" if flat else kind, m, want))

    begin = time.perf_counter()
    failed = 0
    for kappa in KAPPAS:
        counts = {label: Counter() for label in KINDS + ("flat",)}
        for label, m, want in draws:
            try:
                moved = riemann.change_basis(m, conditioned_basis(rng, m.dim, kappa))
                outcome = "right" if verdict(moved) == want else "wrong"
            except LieweylError:
                outcome = "raised"
            counts[label][outcome] += 1
            if label != "flat" and outcome != "right" and kappa <= GATED_KAPPA:
                failed += 1
        for label, count in counts.items():
            print(f"kappa {kappa:7.0e} {label:9s} right {count['right']:4d} "
                  f"wrong {count['wrong']:4d} raised {count['raised']:4d}")
    elapsed = time.perf_counter() - begin
    print(f"{len(draws)} draws at {len(KAPPAS)} conditions in {elapsed:.1f}s, {failed} "
          f"draws that are not flat wrong or raised at kappa <= {GATED_KAPPA:.0e}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
