"""Layer spans for the benchmark, installed from outside the package.

The package under test is not edited.  :func:`plan` finds the public
functions of each layer module and builds a wrapper for each; the wrappers
replace every module attribute of ``lieweyl`` that refers to the original
function, so a call goes through the wrapper whether it comes from the
benchmark, from another layer (``weyl`` calling ``riemann.ricci``) or from
inside the layer itself.  A span is ``[name, start, end, parent, item]``;
spans stay in memory until the run writes them out.

Three private names are traced as well, because the LM metrics need them:
``weyl._levenberg_marquardt`` (one span per LM run), the ``__init__`` of
``weyl._ResidualSystem`` (system build) and its ``jacobian`` method, which is
counted but not spanned (one call per LM iteration).  When a later version
drops any of them, :attr:`Plan.absent` names what could not be traced and the
metrics built on it are reported as absent.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("algebra", "riemann", "frames", "weyl", "almost_abelian", "mla", "cli")

# per-value formatting inside ``mla.emit_report``; a span per number would
# move the formatting cost out of emit_report's self time
UNTRACED = {"mla.format_number", "mla.format_value"}

LM_NAME = "weyl.lm"
BUILD_NAME = "weyl.residual_system.build"
MLA_NAME = "riemann.MetricLieAlgebra"


class Tracer:
    """Span and LM-counter store for one process.

    ``item`` is set by the caller before each traced item so that every span
    of that item carries its identifier.  ``lm`` holds one record per LM run:
    ``[iterations, starts, root_starts, capped, item]``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.lm: list[list] = []
        self.item = None
        self._lm_open = None

    def span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.item]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "lm": self.lm}


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Children of one span never overlap (one thread), so their summed
    duration is the part of the parent's interval that they cover.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


class Plan:
    """Attribute replacements that turn tracing on and off.

    ``install`` and ``uninstall`` only swap attributes, so a benchmark can
    alternate untraced and traced items in one process.
    """

    def __init__(self, patches, absent):
        self.patches = patches  # (owner, attribute, original, replacement)
        self.absent = absent

    def install(self):
        for owner, attr, _, new in self.patches:
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old, _ in reversed(self.patches):
            setattr(owner, attr, old)


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "lieweyl" or name.startswith("lieweyl."))]


def plan(tracer: Tracer) -> Plan:
    """Wrappers for every layer's public functions plus the LM internals."""
    for layer in LAYERS:
        importlib.import_module(f"lieweyl.{layer}")
    modules = _package_modules()
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        mod = sys.modules[f"lieweyl.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if name not in UNTRACED:
                wrapped[id(obj)] = (obj, tracer.span(name, obj))
    absent = []

    weyl = sys.modules["lieweyl.weyl"]
    lm = getattr(weyl, "_levenberg_marquardt", None)
    system_cls = getattr(weyl, "_ResidualSystem", None)
    lm_traced = (lm is not None and "max_iter" in inspect.signature(lm).parameters
                 and system_cls is not None and hasattr(system_cls, "jacobian"))
    if lm_traced:
        wrapped[id(lm)] = (lm, _lm_wrapper(tracer, lm, weyl))
    else:
        absent.append("weyl._levenberg_marquardt(max_iter)/_ResidualSystem.jacobian")

    patches = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                patches.append((mod, attr, obj, hit[1]))

    mla_cls = sys.modules["lieweyl.riemann"].MetricLieAlgebra
    patches.append((mla_cls, "__init__", mla_cls.__init__, tracer.span(MLA_NAME, mla_cls.__init__)))
    if lm_traced:
        patches.append((system_cls, "__init__", system_cls.__init__,
                        tracer.span(BUILD_NAME, system_cls.__init__)))
        patches.append((system_cls, "jacobian", system_cls.jacobian,
                        _counting(tracer, system_cls.jacobian)))
    return Plan(patches, absent)


def _counting(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer._lm_open is not None:
            tracer._lm_open[0] += 1
        return fn(*args, **kwargs)

    return wrapper


def _lm_wrapper(tracer: Tracer, fn, weyl):
    """LM span plus one counter record per run.

    A run is capped when it made ``max_iter`` Jacobian calls.  A start is a
    root start when its final residual is at most ``DEFAULT_ROOT_TOL * (1 +
    |Ric|)``, the threshold every benchmark workload solves with; without the
    system's ``ric_scale`` the root starts are unknown (None).
    """
    default_cap = inspect.signature(fn).parameters["max_iter"].default
    spanned = tracer.span(LM_NAME, fn)

    @functools.wraps(fn)
    def wrapper(system, t0, *args, **kwargs):
        cap = kwargs.get("max_iter", args[0] if args else default_cap)
        record = [0, int(len(t0)), 0, False, tracer.item]
        outer, tracer._lm_open = tracer._lm_open, record
        try:
            result = spanned(system, t0, *args, **kwargs)
        finally:
            tracer._lm_open = outer
        if hasattr(system, "ric_scale"):
            threshold = weyl.DEFAULT_ROOT_TOL * system.ric_scale
            record[2] = int(sum(1 for r in result[1] if r <= threshold))
        else:
            record[2] = None
        record[3] = record[0] >= cap
        tracer.lm.append(record)
        return result

    return wrapper


def summarize(spans, lm, items_of_pass, n_of_item, traced_items):
    """Per-layer figures from spans and LM records.

    ``items_of_pass`` is the set of item identifiers of the first full pass,
    over which exact counts are taken; ``traced_items`` is how many items were
    traced in all, over which times are averaged.
    """
    selfs = self_times(spans)
    self_ms = defaultdict(float)
    total_ms = defaultdict(float)
    calls = defaultdict(int)
    per_n = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, selfs):
        name, start, end, _, item = span
        self_ms[name] += 1e3 * own
        total_ms[name] += 1e3 * (end - start)
        per_n[n_of_item[item]][name] += 1e3 * own
        if item in items_of_pass:
            calls[name] += 1
    first = [r for r in lm if r[4] in items_of_pass]
    return {
        "self_ms_per_item": {k: v / traced_items for k, v in sorted(self_ms.items())},
        "total_ms": dict(sorted(total_ms.items())),
        "calls_per_pass": dict(sorted(calls.items())),
        "per_n": per_n,
        "lm_iterations_all": sum(r[0] for r in lm),
        "lm_pass": {
            "runs": len(first),
            "iterations": sum(r[0] for r in first),
            "cap_solves": sum(1 for r in first if r[3]),
            "starts": sum(r[1] for r in first),
            "root_starts": None if any(r[2] is None for r in first) else sum(r[2] for r in first),
        },
    }
