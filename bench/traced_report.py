"""Run one ``lieweyl`` command like ``python -m lieweyl``, with layer spans.

    python3 bench/traced_report.py OUT.json ITEM report FILE --format records

Behaves as ``python -m lieweyl report FILE --format records`` (same stdout,
stderr and exit code), with the benchmark's wrappers installed after the
import; the spans and LM records are written to ``OUT.json``.
"""
import json
import runpy
import sys

if __name__ == "__main__":
    out_path, item = sys.argv[1], int(sys.argv[2])
    import tracing  # next to this script, so first on sys.path

    tracer = tracing.Tracer()
    tracer.item = item
    plan = tracing.plan(tracer)
    plan.install()
    sys.argv = ["lieweyl"] + sys.argv[3:]
    code = 0
    try:
        runpy.run_module("lieweyl", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        plan.uninstall()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({**tracer.dump(), "absent": plan.absent}, handle)
    sys.exit(code)
