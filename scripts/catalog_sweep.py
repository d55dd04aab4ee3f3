#!/usr/bin/env python3
"""Sweep the 3-dimensional catalog and tabulate admission verdicts.

The grid comes from the catalog's table: every bracket/metric pairing, at each
``--t`` where its row takes t, with nu over ``--nu`` and mu on ``--mu-steps``
even steps from its lower bound up to its cap, or up to the bound + 1 where
the row has no cap.  For each point the closed-form table and the numeric
solver are run side by side; a disagreement raises ConsistencyError, and a
point the table rejects raises InputError, either of which aborts the sweep.
"""
from __future__ import annotations

import argparse
import itertools
import math
import time

import numpy as np

from lieweyl import catalog3d
from lieweyl.catalog3d import Family3D


def grid_points(nus, mu_steps, ts):
    """(row name, point) for every grid point of every pairing in the table."""
    for name, row in catalog3d._ROWS.items():
        for t, metric in itertools.product(ts if row.takes_t else [0.0], row.pairings):
            axes = {}
            for param, (low, high) in catalog3d._bounds(row, metric, t).items():
                high = high if math.isfinite(high) else low + 1.0
                axes[param] = nus if param == "nu" else [
                    low + (high - low) * j / mu_steps for j in range(1, mu_steps + 1)]
            for values in itertools.product(*axes.values()):
                yield name, Family3D(row.family, metric, t, **dict(zip(axes, values)))


def point_label(name, point):
    parts = [name, point.metric_family.value]
    if point.t:
        parts.append(f"t={point.t:g}")
    parts += [f"{param}={getattr(point, param):g}"
              for param in catalog3d._METRICS[point.metric_family].params]
    return " ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nu", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    parser.add_argument("--t", type=float, nargs="+", default=[1.5, 2.0, 5.0])
    parser.add_argument("--mu-steps", type=int, default=8)
    parser.add_argument("--quiet", action="store_true", help="summary only")
    args = parser.parse_args(argv)

    begin = time.perf_counter()
    admitted = rejected = 0
    by_pairing = {}
    for name, point in grid_points(args.nu, args.mu_steps, args.t):
        label = point_label(name, point)
        verdict = catalog3d.admits_weyl_einstein(point)
        tally = by_pairing.setdefault((name, point.metric_family.value), [0, 0])
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
    for (fam, mf), (yes, no) in sorted(by_pairing.items()):
        print(f"{fam:10s} {mf:8s} {yes:7d} {no:5d}")
    print()
    print(f"total: {admitted} admit, {rejected} do not ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
