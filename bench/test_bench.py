"""Self-tests of the benchmark: tiny workloads, tracing, and checks that bite.

    python3 -m pytest bench/test_bench.py -q

Each workload runs at a tiny size and must pass its own checks; then its
outputs are tampered with and the same checks must count failures.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lieweyl import samples, weyl  # noqa: E402


def tiny(name):
    if name == "aa-equivalence":
        return workloads.AAEquivalence(size=6)
    if name == "nilpotent-ladder":
        return workloads.NilpotentLadder(ladder=(10, 20), max_extra=0)
    return workloads.ReportCold(dims=(3, 4), nilpotent=(("heisenberg", 0),), catalog=1)


def run_passes(wl, tmp_path, passes=1):
    """Whole untraced passes over a seed-7 corpus, with the run's bookkeeping."""
    items = wl.build(7, str(tmp_path))
    meas = run.Measurement(wl, items)
    for k in range(passes * len(items)):
        item = items[k % len(items)]
        output, error, _ = run.timed(lambda: wl.run(item))
        meas.record(k, output, error)
    return meas


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    meas = run_passes(tiny(name), tmp_path, passes=2)
    assert meas.attempted > 0
    assert meas.failures == []


def _spurious_root(monkeypatch):
    solve = weyl.solve_lee_forms

    def tampered(m, *args, **kwargs):
        result = solve(m, *args, **kwargs)
        return weyl.SolveResult(roots=result.roots + (np.full(m.dim, 0.5),),
                                residuals=result.residuals + (0.0,), infimum=0.0)

    monkeypatch.setattr(weyl, "solve_lee_forms", tampered)


def test_tampered_root_set_fails_aa_equivalence(monkeypatch, tmp_path):
    _spurious_root(monkeypatch)
    meas = run_passes(tiny("aa-equivalence"), tmp_path)
    assert len(meas.failures) == meas.attempted


def test_spurious_nilpotent_root_fails_ladder(monkeypatch, tmp_path):
    _spurious_root(monkeypatch)
    meas = run_passes(tiny("nilpotent-ladder"), tmp_path)
    assert len(meas.failures) == meas.attempted


def test_infimum_drift_fails_ladder(monkeypatch, tmp_path):
    solve = weyl.solve_lee_forms

    def drifting(m, starts=weyl.DEFAULT_STARTS, seed=0):
        result = solve(m, starts=starts, seed=seed)
        return weyl.SolveResult(roots=(), residuals=(), infimum=result.infimum + 1e-3 * starts)

    monkeypatch.setattr(weyl, "solve_lee_forms", drifting)
    meas = run_passes(tiny("nilpotent-ladder"), tmp_path)
    assert len(meas.failures) == meas.attempted
    assert all("drifted" in f["error"] for f in meas.failures)


def test_altered_records_fail_report_cold(monkeypatch, tmp_path):
    wl = tiny("report-cold")
    honest = wl.run

    def altered(item, command=None):
        code, out, err = honest(item, command)
        count = workloads.parse_record_lines(out)["weyl.root_count"]
        return code, out.replace(f"weyl.root_count = {count}",
                                 f"weyl.root_count = {int(count) + 1}"), err

    monkeypatch.setattr(wl, "run", altered)
    meas = run_passes(wl, tmp_path)
    assert len(meas.failures) == meas.attempted


def test_records_that_change_between_passes_fail(monkeypatch, tmp_path):
    wl = tiny("report-cold")
    honest = wl.run
    calls = []

    def flaky(item, command=None):
        code, out, err = honest(item, command)
        calls.append(item.index)
        if len(calls) > 1 and item.index == 0:  # second pass: last digit moves
            key, _, value = out.splitlines()[-1].partition(" = ")
            out = out.replace(f"{key} = {value}", f"{key} = {value} ")
        return code, out, err

    monkeypatch.setattr(wl, "run", flaky)
    meas = run_passes(wl, tmp_path, passes=2)
    assert [f["error"] for f in meas.failures] == ["output differs from the first pass"]


def test_self_times_subtract_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0],
             ["d", 5.0, 9.0, 0, 0]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_plan_traces_nested_calls_and_restores():
    tracer = tracing.Tracer()
    plan = tracing.plan(tracer)
    before = weyl.riemann.ricci
    plan.install()
    try:
        tracer.item = 0
        weyl.solve_lee_forms(samples.hyperbolic(4, 1.0), starts=8)
    finally:
        plan.uninstall()
    assert weyl.riemann.ricci is before
    names = [s[0] for s in tracer.spans]
    solve = names.index("weyl.solve_lee_forms")
    lm = names.index(tracing.LM_NAME)
    assert tracer.spans[lm][3] == solve
    ricci = names.index("riemann.ricci")
    assert tracer.spans[ricci][3] == names.index(tracing.BUILD_NAME)
    (record,) = tracer.lm
    assert record[0] > 0 and record[1] == 8 and record[2] > 0
    assert plan.absent == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    details = []
    args = argparse.Namespace(seed=424242, seconds=0.0, trace=1)
    def probe():
        return {"setup_s": 0.1, "import_ms": 100.0}

    for _ in range(2):
        result = run.run(args, tiny(name), str(tmp_path), probe)
        assert result["correct"] and result["failed"] == 0
        path = os.path.join(run.WORK, "results", f"{name}-seed424242-trace1.json")
        with open(path, encoding="utf-8") as handle:
            details.append(json.load(handle))
    first, second = details
    assert first["lm_pass"] == second["lm_pass"] and first["lm_pass"]["iterations"] > 0
    assert first["calls_per_pass"] == second["calls_per_pass"]
    assert first["output_digest"] == second["output_digest"]
    metrics = first["metrics"]
    assert metrics["trace.overhead_ratio"]["value"] > 0 and "weyl.lm.iterations" in metrics
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as handle:
        assert set(metrics) == {m["name"] for m in json.load(handle)["per_layer"]}
    assert all(metrics[metric]["value"] == 0 for metric in first["uncalled"])
    if name == "report-cold":
        assert metrics["cli.report.self_ms"]["value"] > 0
        assert metrics["mla.parse_mla.self_ms"]["value"] > 0
        assert set(first["per_n_self_ms_per_item"]) == {"3", "4"}
    else:
        assert "mla.parse_mla.self_ms" in first["uncalled"]


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "aa-equivalence", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_end_to_end_scales_to_reference_speed():
    import reference

    meas = run.Measurement(None, list(range(10)))
    meas.times = [0.1] * run.P90_MIN_ITEMS
    meas.ref_ms = [2 * reference.WARM_NOMINAL_MS] * 5  # machine at half speed
    meas.probes = [{"setup_s": t} for t in (0.4, 0.5, 9.0)]
    raw, scaled, scale = run.end_to_end(meas, reference.WARM_NOMINAL_MS)
    assert scale == pytest.approx(0.5)
    assert raw["wall_s"] == pytest.approx(1.0) and scaled["wall_s"] == pytest.approx(0.5)
    assert scaled["items_per_s"] == pytest.approx(2 * raw["items_per_s"]) == 20.0
    assert scaled["item_ms.p50"] == pytest.approx(50.0) == scaled["item_ms.p90"]
    assert raw["setup_s"] == 0.5 and scaled["setup_s"] == pytest.approx(0.25)  # median probe


def test_setup_probes_spread_over_the_run(tmp_path):
    wl = tiny("nilpotent-ladder")
    items = wl.build(7, str(tmp_path))
    clock = []

    def probe():
        clock.append(len(meas_items))
        return {"setup_s": 0.1, "import_ms": 100.0}

    meas_items = []
    honest = wl.run
    wl.run = lambda item: meas_items.append(item) or honest(item)
    meas = run.measure(wl, items, 1.0, probe)
    assert len(meas.probes) == run.SETUP_PROBES
    assert clock[0] == 0 and clock[-1] > clock[0]  # not all before the first item
