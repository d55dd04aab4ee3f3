#!/usr/bin/env python3
"""Probe nonabelian nilpotent algebras for Weyl-Einstein structures.

None should admit one; the interesting output is the infimum of the residual
over an escalating number of solver starts.  A floor that stays put as the
start count grows is numerical evidence that the equation really has no
solution, rather than the solver missing one.  Below each model, one line
per rung counts the starts by the rule that stopped them (see
``weyl.EXIT_REASONS``), so the evidence says why every start ended.  The
script exits 1 when a model has a root or a start ends by the damping or
iteration cap, so a clean run says that every start ended at a critical
point of |E| above the root floor.  Each model also gets one ``quotient dim
r`` line: the number of complex roots of E counted with multiplicity, from
the solver's quotient ring route.  r = 0 says that E has no complex root at
all; Heisenberg keeps a complex pair (r = 2) with no real candidate.
"""
from __future__ import annotations

import argparse
import time

import numpy as np

from lieweyl import samples, weyl


def models(max_extra):
    for extra in range(max_extra + 1):
        yield f"heisenberg+{extra}", samples.heisenberg(extra=extra)
    yield "filiform4", samples.filiform4()
    yield "free 2-step (3 gen)", samples.free_two_step()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ladder", type=int, nargs="+", default=[50, 200, 800])
    parser.add_argument("--seed", type=int, default=weyl.DEFAULT_SEED)
    parser.add_argument("--max-extra", type=int, default=2,
                        help="largest abelian factor glued onto the Heisenberg algebra")
    args = parser.parse_args(argv)

    width = max(len(name) for name, _ in models(args.max_extra))
    header = " ".join(f"{f'starts={s}':>14s}" for s in args.ladder)
    print(f"{'model':{width}s} dim {header}   roots")
    failures = 0
    capped = []
    begin = time.perf_counter()
    for name, m in models(args.max_extra):
        infima = []
        exits = []
        root_count = None
        for starts in args.ladder:
            result = weyl.solve_lee_forms(m, starts=starts, seed=args.seed)
            infima.append(result.infimum)
            exits.append((starts, result.exits))
            root_count = len(result.roots)
            if root_count:
                failures += 1
                break
        cells = " ".join(f"{v:14.6f}" for v in infima)
        print(f"{name:{width}s} {m.dim:3d} {cells}   {root_count}")
        print(f"{'':{width}s}     quotient dim {result.quotient_dim}")
        for starts, counts in exits:
            stops = ", ".join(f"{reason} {k}" for reason, k in counts.items() if k)
            print(f"{'':{width}s}     exits at starts={starts}: {stops}")
            if counts["damping-cap"] or counts["iteration-cap"]:
                capped.append(f"{name} at starts={starts}")
        spread = max(infima) - min(infima)
        if spread > 1e-6 * (1.0 + max(infima)):
            print(f"{'':{width}s}     warning: infimum drifted by {spread:.2e} across the ladder")
    print(f"\n{time.perf_counter() - begin:.1f}s total")
    if failures:
        print(f"unexpected: {failures} model(s) produced a root")
    for rung in capped:
        print(f"unexpected: a start ended by a cap on {rung}")
    return 1 if failures or capped else 0


if __name__ == "__main__":
    raise SystemExit(main())
