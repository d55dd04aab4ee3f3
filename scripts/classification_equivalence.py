#!/usr/bin/env python3
"""Stress the almost abelian classifier against the numeric solver.

Draws random almost abelian metric Lie algebras of each classification kind,
computes the exact Lee form set from the closed-form case analysis, and
compares it with the solver's root set.  Reports the worst root-set
distance seen; a structural mismatch (different root counts) is a hard
failure, which also covers a quotient ring route that misses a classifier
root.  Per kind it also prints how often each quotient dimension occurred.
A quotient candidate that fails the root test ends the run with the solver's
ConsistencyError, because each candidate is a distinct real root of the
quotient ring.
"""
from __future__ import annotations

import argparse
import time
from collections import Counter

import numpy as np

from lieweyl import almost_abelian, samples, weyl

KINDS = ("einstein", "trace", "generic")


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
    parser.add_argument("--tol", type=float, default=1e-6)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    per_kind = {kind: 0 for kind in KINDS}
    worst = {kind: 0.0 for kind in KINDS}
    quotient_dims = {kind: Counter() for kind in KINDS}
    mismatches = 0
    begin = time.perf_counter()
    for i in range(args.count):
        kind = KINDS[i % 3]
        dim = args.dims[(i // 3) % len(args.dims)]
        m = samples.random_almost_abelian(rng, dim, kind)
        dec = almost_abelian.decompose(m)
        cls = almost_abelian.classify_weyl_einstein(dec, m)
        result = weyl.solve_lee_forms(m)
        distance = root_set_distance(cls.lee_forms, result.roots)
        per_kind[kind] += 1
        quotient_dims[kind][result.quotient_dim] += 1
        if distance > args.tol:
            mismatches += 1
            print(
                f"MISMATCH #{i}: kind={kind} dim={dim} case={cls.case.value} "
                f"exact={len(cls.lee_forms)} numeric={len(result.roots)} distance={distance:.3e}"
            )
        else:
            worst[kind] = max(worst[kind], distance)
    elapsed = time.perf_counter() - begin

    for kind in KINDS:
        print(f"{kind:9s} {per_kind[kind]:5d} instances, worst matched distance {worst[kind]:.3e}")
    for kind in KINDS:
        dims = ", ".join(f"{r}: {k}" for r, k in sorted(quotient_dims[kind].items()))
        print(f"{kind:9s} quotient dims {{{dims}}}")
    print(
        f"total {args.count} instances in {elapsed:.1f}s "
        f"({1000.0 * elapsed / max(args.count, 1):.1f} ms each), {mismatches} mismatches"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
