#!/usr/bin/env python3
"""lieweyl benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload aa-equivalence --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, nothing is installed.  The run

1. builds the corpus, runs one warm-up item, then runs items in corpus order,
   pass after pass, until ``--seconds`` have passed and at least one whole
   pass is done (one client, closed loop);
2. times set-up (``import lieweyl`` plus corpus generation from the seed) in
   fresh interpreters, several times spread over the run, and reports the
   median;
3. checks every output (see ``workloads.py``) and requires every pass to
   reproduce the first pass's outputs byte for byte;
4. prints a summary line, then one JSON line with ``correct``, ``attempted``,
   ``failed`` and ``metrics``, and writes the details to
   ``.bench_work/results/``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
every item runs twice, untraced and traced (alternating which goes first),
and the metrics are per-layer figures from the traced runs plus the tracing
overhead.  Exact counts (LM iterations, cap hits, calls) are taken over the
first pass.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import tracing

# ``workloads`` and ``reference`` import numpy, so they are imported late:
# a set-up probe must time the numpy import as part of ``import lieweyl``.

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60
WARM_REF_EVERY_S = 0.25
COLD_REF_EVERY_S = 1.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_ms.p50": "ms",
}
P90_MIN_ITEMS = 100  # a p90 from fewer items rests on fewer than 10 beyond it

# per-layer metric -> unit; "self_ms" is self time per traced item, "calls"
# is calls in the first pass
SELF_MS = (
    "weyl.lm", "weyl.solve_lee_forms", "weyl.weyl_einstein_residual",
    "riemann.ricci", "riemann.besse_ricci", "riemann.levi_civita", "riemann.curvature",
    "frames.structure_in_basis", "algebra.validate", "algebra.structure_flags",
    "riemann.MetricLieAlgebra", "almost_abelian.decompose",
    "almost_abelian.classify_weyl_einstein", "almost_abelian.conformal_metric_flatness",
    "mla.parse_mla", "mla.emit_report",
)
CALLS = ("weyl.solve_lee_forms", "frames.structure_in_basis", "algebra.validate",
         "riemann.MetricLieAlgebra")
LM_METRICS = ("weyl.lm.self_ms", "weyl.lm.iterations", "weyl.lm.ms_per_iteration",
              "weyl.lm.cap_solves", "weyl.lm.root_start_fraction",
              "weyl.residual_system.build_ms")


class SetupError(RuntimeError):
    pass


def load_package():
    """Import ``lieweyl`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "lieweyl", "__init__.py")):
        raise SetupError(f"no lieweyl sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import lieweyl

    if os.path.dirname(os.path.dirname(os.path.abspath(lieweyl.__file__))) != SRC:
        raise SetupError(f"imported lieweyl from {lieweyl.__file__}, not from {SRC}")
    return lieweyl


def setup_probe(workload: str, seed: int) -> dict:
    """Set-up cost as a user pays it: a fresh interpreter, import, corpus."""
    start = time.perf_counter()
    load_package()
    imported = time.perf_counter()
    import workloads

    workdir = os.path.join(WORK, f"probe-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workloads.WORKLOADS[workload]().build(seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"setup_s": time.perf_counter() - start, "import_ms": 1e3 * (imported - start)}


def probe_once(workload: str, seed: int) -> dict:
    """One set-up probe in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Measurement:
    """Item outcomes of one run, with the checks applied as items complete."""

    def __init__(self, wl, items):
        self.wl = wl
        self.items = items
        self.first = [None] * len(items)
        self.times = []  # untraced item seconds, in run order
        self.traced_times = []
        self.ref_ms = []  # machine-speed reference, timed between items
        self.probes = []  # set-up probes, spread over the run
        self.attempted = 0
        self.failures = []

    def record(self, k, output, error):
        item = self.items[k % len(self.items)]
        self.attempted += 1
        if error is None:
            error = self.wl.check(item, output)
            canon = self.wl.canonical(output)
            if self.first[item.index] is None:
                self.first[item.index] = canon
            elif canon != self.first[item.index]:
                error = error or "output differs from the first pass"
        if error is not None:
            self.failures.append({"item": k, "label": item.label, "error": error})

    def digest(self) -> str:
        return hashlib.sha256("\n".join(c or "" for c in self.first).encode()).hexdigest()


def timed(call):
    start = time.perf_counter()
    try:
        output, error = call(), None
    except Exception as exc:  # a failing item is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        output, error = None, f"raised {exc!r}"
    return output, error, time.perf_counter() - start


def measure(wl, items, seconds, probe, traced_call=None, ref=None) -> Measurement:
    """Run items pass after pass for ``seconds`` and at least one whole pass.

    ``traced_call`` (trace mode) runs next to the untraced call on every
    item; even items run untraced first, odd items traced first.
    ``ref`` is ``(op, every_s)``: ``op`` is timed between items once
    ``every_s`` seconds have passed since it last ran.  ``probe`` runs one
    set-up probe: ``SETUP_PROBES`` of them are spread evenly over the run, so
    that they see the machine at as many moments as the items do, and the
    time they take does not count against ``seconds``.
    """
    meas = Measurement(wl, items)
    size = len(items)
    begin = last_ref = time.perf_counter()
    k = 0
    while k < size or time.perf_counter() - begin < seconds:
        if len(meas.probes) < SETUP_PROBES and (
                time.perf_counter() - begin >= len(meas.probes) * seconds / SETUP_PROBES):
            start = time.perf_counter()
            meas.probes.append(probe())
            begin += time.perf_counter() - start
        if ref and time.perf_counter() - last_ref >= ref[1]:
            meas.ref_ms.append(1e3 * timed(ref[0])[2])
            last_ref = time.perf_counter()
        item = items[k % size]
        calls = [(wl.run, False), (traced_call, True)] if traced_call else [(wl.run, False)]
        if k % 2:
            calls.reverse()
        for call, traced in calls:
            output, error, dt = timed(lambda: call(item, k) if traced else call(item))
            meas.record(k, output, error)
            if traced:
                meas.traced_times.append(dt)
            else:
                meas.times.append(dt)
        k += 1
    while len(meas.probes) < SETUP_PROBES:
        meas.probes.append(probe())
    return meas


def end_to_end(meas, nominal_ms):
    """Raw figures, and the same scaled to the reference's nominal speed.

    ``wall_s`` sums, over the corpus, each item's mean time in the run, so a
    partly done last pass does not bias it.  ``setup_s`` is the median of the
    set-up probes.  Every figure is scaled by the mean of the reference timed
    between items (see ``reference.py``); the mean, because the items, and
    the probes spread among them, average over the machine's fast and slow
    spells.
    """
    ms = [1e3 * t for t in meas.times]
    size = len(meas.items)
    raw = {
        "setup_s": statistics.median(p["setup_s"] for p in meas.probes),
        "wall_s": sum(statistics.mean(meas.times[i::size]) for i in range(size)),
        "items_per_s": len(meas.times) / sum(meas.times),
        "item_ms.p50": statistics.median(ms),
    }
    if len(ms) >= P90_MIN_ITEMS:
        raw["item_ms.p90"] = statistics.quantiles(ms, n=10, method="inclusive")[-1]
    scale = nominal_ms / statistics.mean(meas.ref_ms)
    scaled = {k: v * scale for k, v in raw.items()}
    scaled["items_per_s"] = raw["items_per_s"] / scale
    return raw, scaled, scale


def per_layer(meas, summary, absent, size):
    """Per-layer metrics of a traced run.

    A layer function the workload never calls reports 0: per-layer metrics
    carry no bound, and every one of them is in every traced result.
    ``uncalled`` (see :func:`uncalled`) names those zeros in the details.
    """
    s, calls = summary["self_ms_per_item"], summary["calls_per_pass"]
    lm = summary["lm_pass"]
    out = {}
    for name in SELF_MS:
        out[f"{name}.self_ms"] = (s.get(name, 0.0), "ms")
    for name in CALLS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    out["riemann.ricci.calls_per_item"] = (calls.get("riemann.ricci", 0) / size, "count/item")
    out["cli.report.self_ms"] = (s.get("cli.main", 0.0), "ms")
    out["cli.startup_ms"] = (statistics.median(p["import_ms"] for p in meas.probes), "ms")
    if absent:
        for name in LM_METRICS:
            out.pop(name, None)
    else:
        out["weyl.lm.iterations"] = (lm["iterations"], "count")
        out["weyl.lm.cap_solves"] = (lm["cap_solves"], "count")
        lm_ms = summary["total_ms"].get("weyl.lm", 0.0)
        its = summary["lm_iterations_all"]
        out["weyl.lm.ms_per_iteration"] = (lm_ms / its if its else 0.0, "ms")
        if lm["root_starts"] is not None:
            out["weyl.lm.root_start_fraction"] = (
                lm["root_starts"] / lm["starts"] if lm["starts"] else 0.0, "ratio")
        out["weyl.residual_system.build_ms"] = (s.get("weyl.residual_system.build", 0.0), "ms")
    out["trace.overhead_ratio"] = (sum(meas.traced_times) / sum(meas.times), "ratio")
    return dict(sorted(out.items()))


def uncalled(summary) -> list[str]:
    """``*.self_ms`` metrics whose function had no span in the run."""
    spanned = summary["self_ms_per_item"]
    out = [f"{name}.self_ms" for name in SELF_MS if name not in spanned]
    return out + (["cli.report.self_ms"] if "cli.main" not in spanned else [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args.workload, args.seed)))
            return 0
        load_package()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(workloads.WORKLOADS)}")
        workdir = os.path.join(WORK, f"run-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            result = run(args, workloads.WORKLOADS[args.workload](), workdir,
                         lambda: probe_once(args.workload, args.seed))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def run(args, wl, workdir, probe) -> dict:
    items = wl.build(args.seed, workdir)
    timed(lambda: wl.run(items[0]))  # warm-up, not counted
    tracer = plan = None
    traced_call = None
    children = []
    if args.trace:
        tracer = tracing.Tracer()
        if wl.name == "report-cold":
            script = os.path.join(BENCH, "traced_report.py")

            def traced_call(item, k):
                path = os.path.join(workdir, f"trace-{k}.json")
                out = wl.run(item, [sys.executable, script, path, str(k), "report"])
                with open(path, encoding="utf-8") as handle:
                    children.append(json.load(handle))
                os.remove(path)
                return out
        else:
            plan = tracing.plan(tracer)

            def traced_call(item, k):
                tracer.item = k
                plan.install()
                try:
                    return wl.run(item)
                finally:
                    plan.uninstall()

    import reference

    ref = None
    if not args.trace:  # per-layer times are not scaled
        if wl.reference == "cold":
            ref, nominal_ms = (reference.cold, COLD_REF_EVERY_S), reference.COLD_NOMINAL_MS
        else:
            ref, nominal_ms = (reference.warm, WARM_REF_EVERY_S), reference.WARM_NOMINAL_MS
        timed(ref[0])  # warm-up, not counted
    meas = measure(wl, items, args.seconds, probe, traced_call, ref)
    size = len(items)
    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "corpus_items": size, "passes": len(meas.times) // size, "items_timed": len(meas.times),
        "attempted": meas.attempted, "failed": len(meas.failures),
        "failed_fraction": len(meas.failures) / meas.attempted,
        "output_digest": meas.digest(), "failures": meas.failures[:50],
        "item_ms": [[items[k % size].label, 1e3 * t] for k, t in enumerate(meas.times)],
        "setup_probes": meas.probes,
        "reference_ms": meas.ref_ms,
    }
    if args.trace:
        if children:
            spans, lm, absent = merge_children(children)
        else:
            spans, lm, absent = tracer.spans, tracer.lm, plan.absent
        n_of = {k: items[k % size].n for k in range(len(meas.times))}
        summary = tracing.summarize(spans, lm, set(range(size)), n_of, len(meas.traced_times))
        metrics = per_layer(meas, summary, absent, size)
        per_n_items = {}
        for k in range(len(meas.traced_times)):
            per_n_items[n_of[k]] = per_n_items.get(n_of[k], 0) + 1
        detail["absent"] = absent + (["weyl._ResidualSystem.ric_scale"]
                                     if summary["lm_pass"]["root_starts"] is None else [])
        detail["uncalled"] = [m for m in uncalled(summary) if m in metrics]
        detail["lm_pass"] = summary["lm_pass"]
        detail["calls_per_pass"] = summary["calls_per_pass"]
        detail["self_ms_per_item"] = summary["self_ms_per_item"]
        detail["per_n_self_ms_per_item"] = {
            str(n): {name: v / per_n_items[n] for name, v in sorted(row.items())}
            for n, row in sorted(summary["per_n"].items())
        }
        detail["spans"] = spans
    else:
        raw, scaled, scale = end_to_end(meas, nominal_ms)
        detail["raw_metrics"] = raw
        detail["reference_scale"] = scale
        if "item_ms.p90" in scaled:
            detail["item_ms.p90"] = {"value": scaled.pop("item_ms.p90"), "unit": "ms"}
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in scaled.items()}
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    detail["reference_digest"] = reference_digest(wl.name, args.seed)

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    out_path = os.path.join(WORK, "results", f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(detail, handle)
    print_summary(detail, out_path)
    return {
        "correct": not meas.failures,
        "attempted": meas.attempted,
        "failed": len(meas.failures),
        "metrics": detail["metrics"],
    }


def merge_children(children):
    spans, lm, absent = [], [], set()
    for child in children:
        base = len(spans)
        spans.extend([name, s, e, p + base if p >= 0 else -1, item]
                     for name, s, e, p, item in child["spans"])
        lm.extend(child["lm"])
        absent.update(child["absent"])
    return spans, lm, sorted(absent)


def reference_digest(workload, seed):
    path = os.path.join(BENCH, "reference_digests.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def print_summary(detail, out_path):
    ref = detail["reference_digest"]
    verdict = "no reference" if ref is None else (
        "matches reference" if ref == detail["output_digest"] else "CHANGED from reference")
    print(f"{detail['workload']} seed={detail['seed']} trace={detail['trace']}: "
          f"{detail['items_timed']} items in {detail['passes']} passes of "
          f"{detail['corpus_items']}, failed_fraction={detail['failed_fraction']:.4f} "
          f"({detail['failed']}/{detail['attempted']}), output_digest="
          f"{detail['output_digest'][:16]} ({verdict})")
    for failure in detail["failures"][:5]:
        print(f"  FAILED item {failure['item']} {failure['label']}: {failure['error']}")
    if detail.get("absent"):
        print(f"  absent (private names gone): {', '.join(detail['absent'])}")
    if detail.get("uncalled"):
        print(f"  not called, so 0 ms: {', '.join(detail['uncalled'])}")
    if "lm_pass" in detail:
        lm = detail["lm_pass"]
        print(f"  first pass: {lm['iterations']} LM iterations in {lm['runs']} runs, "
              f"{lm['cap_solves']} capped, {lm['root_starts']}/{lm['starts']} root starts")
    raw = detail.get("raw_metrics", {})
    shown = dict(detail["metrics"])
    if "item_ms.p90" in detail:
        shown["item_ms.p90"] = detail["item_ms.p90"]
    for name, m in shown.items():
        as_timed = f"  (as timed: {raw[name]:.6g})" if name in raw else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{as_timed}")
    if "reference_scale" in detail:
        print(f"  scaled to reference speed by {detail['reference_scale']:.4f}")
    print(f"  details: {os.path.relpath(out_path, ROOT)}")


if __name__ == "__main__":
    raise SystemExit(main())
