#!/usr/bin/env python3
"""Sweep the 3-dimensional catalog and tabulate admission verdicts.

Every valid bracket/metric pairing is evaluated on a parameter grid; for each
point the closed-form table and the numeric solver are run side by side
(a disagreement would raise ConsistencyError and abort the sweep).
"""
from __future__ import annotations

import argparse
import time

import numpy as np

from lieweyl import catalog3d
from lieweyl.catalog3d import BracketFamily, Family3D, MetricFamily
from lieweyl.errors import InputError


def grid_points(nus, mu_steps, ts):
    yield Family3D(BracketFamily.ABELIAN, MetricFamily.STD)
    yield Family3D(BracketFamily.SOL, MetricFamily.STD)
    for nu in nus:
        yield Family3D(BracketFamily.SOL, MetricFamily.G_NU, nu=nu)
        yield Family3D(BracketFamily.SOL, MetricFamily.M_NU, nu=nu)
        yield Family3D(BracketFamily.R_ID_R2, MetricFamily.G_NU, nu=nu)
        yield Family3D(BracketFamily.GT, MetricFamily.M_NU, nu=nu)
        for j in range(1, mu_steps + 1):
            mu = j / mu_steps
            yield Family3D(BracketFamily.SO2R2, MetricFamily.G_MU_NU, mu=mu, nu=nu)
            yield Family3D(BracketFamily.GT, MetricFamily.G_MU_NU, mu=mu, nu=nu)
            yield Family3D(BracketFamily.SOL, MetricFamily.G_MU_NU, mu=mu, nu=nu)
        for t in ts:
            for j in range(1, mu_steps + 1):
                yield Family3D(
                    BracketFamily.GT, MetricFamily.H_MU_NU, t=t, mu=t * j / mu_steps, nu=nu
                )


def point_label(point):
    parts = [point.family.value, point.metric_family.value]
    if point.t:
        parts.append(f"t={point.t:g}")
    if point.metric_family in (MetricFamily.G_MU_NU, MetricFamily.H_MU_NU):
        parts.append(f"mu={point.mu:g}")
    if point.metric_family is not MetricFamily.STD:
        parts.append(f"nu={point.nu:g}")
    return " ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nu", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    parser.add_argument("--t", type=float, nargs="+", default=[1.5, 2.0, 5.0])
    parser.add_argument("--mu-steps", type=int, default=8)
    parser.add_argument("--quiet", action="store_true", help="summary only")
    args = parser.parse_args(argv)

    begin = time.perf_counter()
    admitted = rejected = degenerate = 0
    by_family = {}
    for point in grid_points(args.nu, args.mu_steps, args.t):
        label = point_label(point)
        try:
            verdict = catalog3d.admits_weyl_einstein(point)
        except InputError as exc:
            degenerate += 1
            if not args.quiet:
                print(f"{label:42s}  -- out of domain ({exc})")
            continue
        key = (point.family.value, point.metric_family.value)
        tally = by_family.setdefault(key, [0, 0])
        if verdict.admits:
            admitted += 1
            tally[0] += 1
            norms = ", ".join(f"{np.linalg.norm(r):.3f}" for r in verdict.lee_forms)
            if not args.quiet:
                print(f"{label:42s}  admits ({len(verdict.lee_forms)} roots, |theta| {norms})")
        else:
            rejected += 1
            tally[1] += 1
            if not args.quiet:
                print(f"{label:42s}  no")
    elapsed = time.perf_counter() - begin

    print()
    print(f"{'family':10s} {'metric':8s} {'admits':>7s} {'no':>5s}")
    for (fam, mf), (yes, no) in sorted(by_family.items()):
        print(f"{fam:10s} {mf:8s} {yes:7d} {no:5d}")
    print()
    print(
        f"total: {admitted} admit, {rejected} do not, {degenerate} degenerate points "
        f"({elapsed:.1f}s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
