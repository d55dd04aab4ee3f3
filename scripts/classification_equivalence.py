#!/usr/bin/env python3
"""Stress the almost abelian classifier against the numeric solver.

Draws random almost abelian metric Lie algebras of each classification kind,
computes the exact Lee form set from the closed-form case analysis, and
compares it with the solver's root set.  Reports the worst root-set
distance seen; a structural mismatch (different root counts) is a hard
failure.  Per kind it also prints how often each quotient dimension occurred,
how many solves fell back to the seeded multistart search and how many
polished quotient candidates failed the root test.  An instance with Lee
forms that needed the fallback is a failure too, because the quotient ring
route should have found them, and so is a rejected candidate, because each
candidate is a distinct real root of the quotient ring.

Every solve that fell back is checked against a seeded search of
``CHECK_STARTS`` starts: the worst relative gap between the two infima is
printed per kind, and a gap above ``INFIMUM_RTOL`` is a failure, because the
solver's start count (``--starts``) is meant to reach the residual's minimum.
"""
from __future__ import annotations

import argparse
import time
from collections import Counter

import numpy as np

from lieweyl import almost_abelian, samples, weyl

KINDS = ("einstein", "trace", "generic")
CHECK_STARTS = 256
INFIMUM_RTOL = 1e-12


def root_set_distance(a, b):
    """Greedy max-norm matching distance between two small root sets."""
    if len(a) != len(b):
        return np.inf
    remaining = [np.asarray(r, dtype=float) for r in b]
    worst = 0.0
    for root in a:
        errors = [float(np.max(np.abs(cand - np.asarray(root)))) for cand in remaining]
        i = int(np.argmin(errors))
        worst = max(worst, errors[i])
        remaining.pop(i)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=300)
    parser.add_argument("--dims", type=int, nargs="+", default=[3, 4, 5, 6, 7])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--starts", type=int, default=weyl.DEFAULT_STARTS)
    parser.add_argument("--tol", type=float, default=1e-6)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    per_kind = {kind: 0 for kind in KINDS}
    worst = {kind: 0.0 for kind in KINDS}
    quotient_dims = {kind: Counter() for kind in KINDS}
    fallbacks = {kind: 0 for kind in KINDS}
    rejected = {kind: 0 for kind in KINDS}
    infimum_gap = {kind: 0.0 for kind in KINDS}
    mismatches = 0
    missed = 0
    checking = 0.0  # time of the 256-start checks, kept out of the per-instance figure
    begin = time.perf_counter()
    for i in range(args.count):
        kind = KINDS[i % 3]
        dim = args.dims[(i // 3) % len(args.dims)]
        m = samples.random_almost_abelian(rng, dim, kind)
        dec = almost_abelian.decompose(m)
        cls = almost_abelian.classify_weyl_einstein(dec, m)
        result = weyl.solve_lee_forms(m, starts=args.starts)
        distance = root_set_distance(cls.lee_forms, result.roots)
        per_kind[kind] += 1
        quotient_dims[kind][result.quotient_dim] += 1
        polished = sum(result.exits.values()) - (args.starts if result.seeded else 0)
        rejected[kind] += polished - len(result.roots)
        if result.seeded:
            fallbacks[kind] += 1
            system = weyl._residual_system(m)
            start = time.perf_counter()
            _, residuals, _ = weyl._seeded_search(system, CHECK_STARTS, weyl.DEFAULT_SEED)
            checking += time.perf_counter() - start
            best = float(np.min(residuals))
            gap = abs(result.infimum / system.scale**2 - best) / best
            infimum_gap[kind] = max(infimum_gap[kind], gap)
            if cls.lee_forms:
                missed += 1
                print(f"FALLBACK #{i}: kind={kind} dim={dim} has {len(cls.lee_forms)} Lee forms "
                      f"but needed the seeded search (quotient dim {result.quotient_dim})")
        if distance > args.tol:
            mismatches += 1
            print(
                f"MISMATCH #{i}: kind={kind} dim={dim} case={cls.case.value} "
                f"exact={len(cls.lee_forms)} numeric={len(result.roots)} distance={distance:.3e}"
            )
        else:
            worst[kind] = max(worst[kind], distance)
    elapsed = time.perf_counter() - begin - checking

    for kind in KINDS:
        print(f"{kind:9s} {per_kind[kind]:5d} instances, worst matched distance {worst[kind]:.3e}")
    for kind in KINDS:
        dims = ", ".join(f"{r}: {k}" for r, k in sorted(quotient_dims[kind].items()))
        print(f"{kind:9s} quotient dims {{{dims}}}, seeded fallbacks {fallbacks[kind]}, "
              f"rejected candidates {rejected[kind]}")
    for kind in KINDS:
        print(f"{kind:9s} infimum against {CHECK_STARTS} starts: worst relative gap "
              f"{infimum_gap[kind]:.3e} over {fallbacks[kind]} fallbacks")
    print(
        f"total {args.count} instances in {elapsed:.1f}s "
        f"({1000.0 * elapsed / max(args.count, 1):.1f} ms each), {mismatches} mismatches, "
        f"{missed} fallbacks with Lee forms, {sum(rejected.values())} rejected candidates"
    )
    wide = max(infimum_gap.values()) > INFIMUM_RTOL
    return 1 if mismatches or missed or any(rejected.values()) or wide else 0


if __name__ == "__main__":
    raise SystemExit(main())
