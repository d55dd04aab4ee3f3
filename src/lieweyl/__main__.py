"""The process entry point: ``python -m lieweyl`` and the ``lieweyl`` command.

:func:`main` imports :mod:`lieweyl.cli`, numpy included, with the cyclic
collector paused, since nothing that import makes is garbage; it then
freezes that heap, so that no later collection walks it, turns the
collector back on and runs :func:`lieweyl.cli.entrypoint`.  Callers of
:func:`lieweyl.cli.main` keep their collector as it was.
"""
import gc


def main() -> None:
    gc.disable()
    try:
        from . import cli
    finally:
        gc.freeze()
        gc.enable()
    cli.entrypoint()


if __name__ == "__main__":
    main()
