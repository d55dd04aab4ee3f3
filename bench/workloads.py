"""The three benchmark workloads: inputs from a seed, the timed call, checks.

Each workload builds a list of :class:`Item` from the seed (set-up), runs one
item per call (the timed part) and checks each output against a reference
that does not come from the code path being timed.  ``canonical`` renders an
output as text: the run digests the first pass of it and requires every
later pass to reproduce it byte for byte.

Why these three, and which layers each one loads, is in ``NOTES.md``.
"""
from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from lieweyl import almost_abelian, catalog3d, mla, riemann, samples, weyl
from lieweyl.algebra import LieAlgebra
from lieweyl.catalog3d import BracketFamily, Family3D, MetricFamily

ROOT_MATCH_TOL = 1e-6  # tests/test_acceptance.py ROOT_MATCH_TOL
DRIFT_RTOL = 1e-6  # scripts/nilpotent_no_go.py drift bound
RICCI_AGREE_RTOL = 1e-8
REPORT_TIMEOUT_S = 120
# report-cold has generic documents up to this n only: the generic sampler
# fails from n = 10 on (NOTES.md, "Known defect")
GENERIC_MAX_N = 9

KIND_CASE = {
    "einstein": almost_abelian.WEClass.EINSTEIN_FAMILY,
    "trace": almost_abelian.WEClass.TRACE_CASE,
    "generic": almost_abelian.WEClass.NO_WE,
}


@dataclass
class Item:
    index: int
    n: int
    label: str
    data: dict = field(default_factory=dict)


def roots_text(roots) -> str:
    return ";".join(" ".join(repr(float(x)) for x in root) for root in roots)


def root_set_mismatch(found, expected, tol=ROOT_MATCH_TOL):
    """None when the sets match one to one within ``tol`` (max norm), else why."""
    found = [np.asarray(r, dtype=float) for r in found]
    remaining = [np.asarray(r, dtype=float) for r in expected]
    if len(found) != len(remaining):
        return f"{len(found)} roots, expected {len(remaining)}"
    for root in found:
        errors = [float(np.max(np.abs(cand - root))) for cand in remaining]
        best = int(np.argmin(errors))
        if errors[best] > tol:
            return f"root {root.tolist()} is {errors[best]:.3e} from the nearest expected root"
        remaining.pop(best)
    return None


def with_abelian(m: riemann.MetricLieAlgebra, extra: int) -> riemann.MetricLieAlgebra:
    """Direct sum with an ``extra``-dimensional abelian algebra, orthogonally.

    ``samples`` has the same helper under a private name; the benchmark keeps
    its own so that a refactor of private sampler code cannot change its inputs.
    """
    n = m.dim + extra
    c = np.zeros((n, n, n))
    c[: m.dim, : m.dim, : m.dim] = m.c
    metric = np.eye(n)
    metric[: m.dim, : m.dim] = m.metric
    return riemann.MetricLieAlgebra(LieAlgebra(c), metric)


class AAEquivalence:
    """Classifier against solver on random almost abelian algebras.

    Kinds cycle einstein/trace/generic and dimensions cycle 3..7, the mix of
    the acceptance test; ``size`` items per pass.
    """

    name = "aa-equivalence"
    reference = "warm"
    dims = (3, 4, 5, 6, 7)
    kinds = ("einstein", "trace", "generic")

    def __init__(self, size: int = 300):
        self.size = size

    def build(self, seed: int, workdir: str) -> list[Item]:
        rng = np.random.default_rng(seed)
        items = []
        for i in range(self.size):
            kind = self.kinds[i % 3]
            n = self.dims[(i // 3) % len(self.dims)]
            m = samples.random_almost_abelian(rng, n, kind)
            items.append(Item(i, n, f"{kind}-{n}", {"kind": kind, "m": m}))
        return items

    def run(self, item: Item):
        m = item.data["m"]
        dec = almost_abelian.decompose(m)
        cls = almost_abelian.classify_weyl_einstein(dec, m)
        return cls, weyl.solve_lee_forms(m)

    def check(self, item: Item, output) -> str | None:
        cls, result = output
        if cls.case is not KIND_CASE[item.data["kind"]]:
            return f"classifier says {cls.case.value} for a {item.data['kind']} instance"
        return root_set_mismatch(result.roots, cls.lee_forms)

    def canonical(self, output) -> str:
        return roots_text(output[1].roots)


class NilpotentLadder:
    """No-go ladder: nilpotent models solved at growing start counts.

    The models are fixed; the seed sets the solver's start directions.  An
    item is one model solved at every rung of the ladder, so that items are
    of similar cost and the no-go check (no roots, an infimum that does not
    move across the rungs) sees the whole ladder.
    """

    name = "nilpotent-ladder"
    reference = "warm"

    def __init__(self, ladder=(50, 200, 800), max_extra: int = 2):
        self.ladder = tuple(ladder)
        self.max_extra = max_extra

    def models(self):
        for extra in range(self.max_extra + 1):
            yield f"heisenberg+{extra}", samples.heisenberg(extra=extra)
        yield "filiform4", samples.filiform4()
        yield "free2step", samples.free_two_step()

    def build(self, seed: int, workdir: str) -> list[Item]:
        return [Item(i, m.dim, model, {"m": m, "seed": seed})
                for i, (model, m) in enumerate(self.models())]

    def run(self, item: Item):
        m, seed = item.data["m"], item.data["seed"]
        return [weyl.solve_lee_forms(m, starts=starts, seed=seed) for starts in self.ladder]

    def check(self, item: Item, output) -> str | None:
        first = output[0].infimum
        for starts, result in zip(self.ladder, output):
            if result.roots:
                return f"{len(result.roots)} roots at {starts} starts on a nilpotent algebra"
            drift = abs(result.infimum - first)
            if drift > DRIFT_RTOL * (1.0 + max(result.infimum, first)):
                return f"infimum at {starts} starts drifted by {drift:.3e} from the first rung"
        return None

    def canonical(self, output) -> str:
        return " ".join(f"{roots_text(r.roots)}|{r.infimum!r}" for r in output)


def parse_record_lines(text: str) -> dict:
    """``key = value`` lines to a dict of strings; the checker's own reader."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"not a record line: {line!r}")
        out[key] = value
    return out


def record_vector(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split()])


def record_matrix(text: str) -> np.ndarray:
    return np.array([[float(tok) for tok in row.split()] for row in text.split(";")])


class ReportCold:
    """``python -m lieweyl report FILE --format records`` in a fresh interpreter.

    The corpus covers n = 3..12 with a fixed layout; the seed draws the
    instances and the random basis each document is written in.  Generic
    almost abelian documents stop at ``GENERIC_MAX_N``.
    """

    name = "report-cold"
    reference = "cold"  # the items are fresh interpreters

    def __init__(self, dims=range(3, 13), nilpotent=None, catalog: int = 2):
        self.dims = tuple(dims)
        # (model, abelian factor) pairs, spread over n = 3..12
        self.nilpotent = nilpotent if nilpotent is not None else (
            ("heisenberg", 0), ("filiform4", 4), ("free2step", 3), ("heisenberg", 8))
        self.catalog = catalog
        self.command = [sys.executable, "-m", "lieweyl", "report"]
        self.env = None

    def _documents(self, rng):
        for n in self.dims:
            yield "einstein", n, samples.random_almost_abelian(rng, n, "einstein")
            yield "trace", n, samples.random_almost_abelian(rng, n, "trace")
            if n <= GENERIC_MAX_N:
                yield "generic", n, samples.random_almost_abelian(rng, n, "generic")
        base = {"heisenberg": samples.heisenberg(), "filiform4": samples.filiform4(),
                "free2step": samples.free_two_step()}
        for model, extra in self.nilpotent:
            m = with_abelian(base[model], extra)
            yield "nilpotent", m.dim, riemann.change_basis(m, samples.random_basis_change(rng, m.dim))
        for _ in range(self.catalog):
            point = _catalog_point(rng)
            m = catalog3d.build_family(point)
            m = riemann.change_basis(m, samples.random_basis_change(rng, 3))
            yield "catalog", 3, (m, catalog3d.table_admits(point))

    def build(self, seed: int, workdir: str) -> list[Item]:
        src = os.path.dirname(os.path.dirname(os.path.abspath(mla.__file__)))
        self.env = dict(os.environ, PYTHONPATH=src)
        rng = np.random.default_rng(seed)
        items = []
        for kind, n, payload in self._documents(rng):
            m, admits = payload if kind == "catalog" else (payload, None)
            text = mla.emit_mla(mla.MlaDocument.from_metric_lie_algebra(m))
            path = os.path.join(workdir, f"doc{len(items):03d}-{kind}-{n}.mla")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            # the reference comes from the written text, parsed back
            m = mla.parse_mla(text).to_metric_lie_algebra()
            data = {"kind": kind, "path": path, "admits": admits}
            if kind in KIND_CASE:
                cls = almost_abelian.classify_weyl_einstein(almost_abelian.decompose(m), m)
                data["roots"] = cls.lee_forms
            elif kind == "nilpotent":
                data["roots"] = ()
            items.append(Item(len(items), n, f"{kind}-{n}", data))
        return items

    def run(self, item: Item, command=None):
        argv = (command or self.command) + [item.data["path"], "--format", "records"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=self.env,
                              timeout=REPORT_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, item: Item, output) -> str | None:
        code, stdout, stderr = output
        if code != 0 or stderr:
            return f"exit {code}: {stderr.strip()[:200]}"
        try:
            rec = parse_record_lines(stdout)
            if rec["algebra.dim"] != str(item.n) or rec["algebra.ok"] != "true":
                return "algebra records do not describe the input"
            ric = record_matrix(rec["ricci.matrix"])
            besse = record_matrix(rec["ricci.besse"])
            if np.max(np.abs(ric - besse)) > RICCI_AGREE_RTOL * (1.0 + np.max(np.abs(ric))):
                return "ricci.matrix and ricci.besse disagree"
            count = int(rec["weyl.root_count"])
            roots = [record_vector(rec[f"weyl.roots[{i}]"]) for i in range(count)]
            kind = item.data["kind"]
            if kind == "catalog":
                return None if (count > 0) == item.data["admits"] else (
                    f"{count} roots but the catalog table says admits={item.data['admits']}")
            why = root_set_mismatch(roots, item.data["roots"])
            if why is None and kind in KIND_CASE:
                if rec["aa.almost_abelian"] != "true" or rec["aa.case"] != KIND_CASE[kind].value:
                    return f"aa.case {rec.get('aa.case')} for a {kind} document"
                if int(rec["aa.root_count"]) != len(item.data["roots"]):
                    return "aa.root_count differs from the classifier"
            return why
        except (KeyError, ValueError) as exc:
            return f"malformed records: {exc!r}"

    def canonical(self, output) -> str:
        return output[1]


def _catalog_point(rng) -> Family3D:
    """A catalog point inside its family's domain, built from public names only."""
    nu = float(rng.uniform(0.4, 2.5))
    roll = int(rng.integers(0, 4))
    if roll == 0:
        return Family3D(BracketFamily.SOL, MetricFamily.G_MU_NU, mu=float(rng.uniform(0.4, 2.0)), nu=nu)
    if roll == 1:
        return Family3D(BracketFamily.SO2R2, MetricFamily.G_MU_NU, mu=float(rng.uniform(0.3, 1.0)), nu=nu)
    if roll == 2:
        return Family3D(BracketFamily.R_ID_R2, MetricFamily.G_NU, nu=nu)
    t = float(rng.uniform(1.2, 4.0))
    return Family3D(BracketFamily.GT, MetricFamily.H_MU_NU, t=t, mu=float(rng.uniform(1.001, t)), nu=nu)


WORKLOADS = {w.name: w for w in (AAEquivalence, NilpotentLadder, ReportCold)}
