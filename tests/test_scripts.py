"""Smoke runs of the experiment scripts on tiny grids.

Each script exits 0 only when its check holds: no classifier/solver mismatch,
no root on a nilpotent model, no table/solver disagreement in the catalog,
no wrong verdict on a draw that is not flat in a basis of condition up to 1e3.
The nilpotent ladder also says why each start stopped: one line of exit
counts per model and rung, and it exits 1 when any start ends by a cap.
Both solver scripts report the quotient dimension of each solve: the ladder
once per model, the classifier comparison as a histogram per kind beside the
number of seeded fallbacks, which only root-free kinds may need, and the
worst gap between a fallback's infimum and that of a 256-start search.
"""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, args",
    [
        ("classification_equivalence.py", ["--count", "6", "--dims", "3", "4"]),
        ("nilpotent_no_go.py", ["--ladder", "8", "16", "--max-extra", "0"]),
        ("catalog_sweep.py", ["--nu", "1", "--t", "2", "--mu-steps", "1", "--quiet"]),
        ("conditioning_sweep.py", ["--count", "6"]),
    ],
)
def test_script_exits_clean(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if script == "nilpotent_no_go.py":
        # three models (Heisenberg, filiform4, free 2-step) at two rungs; every
        # start, those placed on the critical point t = 0 included, ends by
        # the stall rule at a critical point of |E| above the root floor
        rungs = [line.split(":", 1) for line in proc.stdout.splitlines()
                 if "exits at starts=" in line]
        assert [head.strip() for head, _ in rungs] == ["exits at starts=8",
                                                      "exits at starts=16"] * 3
        for head, counts in rungs:
            want = head.rsplit("=", 1)[1]
            assert counts.strip() == f"stall {want}", proc.stdout
    if script == "nilpotent_no_go.py":
        # Heisenberg keeps a complex pair; filiform4 and free 2-step have no
        # complex root at all
        dims = [line.strip() for line in proc.stdout.splitlines() if "quotient dim" in line]
        assert dims == ["quotient dim 2", "quotient dim 0", "quotient dim 0"], proc.stdout
    if script == "catalog_sweep.py":
        # every grid point is in the catalog's domain
        assert "0 degenerate points" in proc.stdout, proc.stdout
    if script == "conditioning_sweep.py":
        # one line per condition and kind, flat draws apart; a draw that is
        # not flat is right at every kappa up to 1e3
        rows = [line.split() for line in proc.stdout.splitlines() if line.startswith("kappa")]
        assert [(row[1], row[2]) for row in rows] == [
            (kappa, label) for kappa in ("1e+00", "1e+02", "1e+03", "1e+04")
            for label in ("einstein", "trace", "generic", "flat")], proc.stdout
        assert "6 draws at 4 conditions" in proc.stdout
        assert "0 draws that are not flat wrong or raised at kappa <= 1e+03" in proc.stdout
        # the Weyl-Ricci and flatness checks of every draw, flat ones included
        assert "0 Weyl-Ricci or flatness checks wrong, differing or raised at kappa <= 1e+03" \
            in proc.stdout
    if script == "classification_equivalence.py":
        # 6 instances: two per kind; only the root-free generic kind falls
        # back (a polished quotient candidate that is no root would end the
        # run with a ConsistencyError)
        lines = {line.split()[0]: line for line in proc.stdout.splitlines()
                 if "quotient dims" in line}
        assert sorted(lines) == ["einstein", "generic", "trace"], proc.stdout
        assert lines["einstein"].endswith("seeded fallbacks 0")
        assert lines["trace"].endswith("seeded fallbacks 0")
        assert lines["generic"].endswith("quotient dims {0: 2}, seeded fallbacks 2")
        assert "0 fallbacks with Lee forms" in proc.stdout
        # each fallback's infimum matches a 256-start search from the same seed
        gaps = {line.split()[0]: line for line in proc.stdout.splitlines()
                if "infimum against 256 starts" in line}
        assert sorted(gaps) == ["einstein", "generic", "trace"], proc.stdout
        assert gaps["generic"].endswith("over 2 fallbacks"), proc.stdout
        for line in gaps.values():
            assert float(line.split("worst relative gap ")[1].split()[0]) <= 1e-12, line
