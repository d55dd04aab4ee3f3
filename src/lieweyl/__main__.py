"""The process entry point: ``python -m lieweyl`` and the ``lieweyl`` command.

:func:`main` imports :mod:`lieweyl.cli`, numpy included, with the cyclic
collector paused, since nothing that import makes is garbage, and freezes
that heap, so that no later collection walks it, shutdown's included.  It
runs :func:`lieweyl.cli.main`; a write to stdout that fails ends in one
``error:`` line and exit 1, argparse's ``--help`` text included.
"""
import gc
import os
import sys


def main() -> None:
    gc.disable()
    try:
        from . import cli
    finally:
        gc.freeze()
        gc.enable()
    try:
        try:
            code = cli.main()
        except SystemExit as exc:  # argparse's own exits: --help, usage errors
            code = exc.code
        sys.stdout.flush()  # a failed write surfaces here, not at shutdown
    except OSError as exc:
        # point stdout at devnull, as the Python docs' note on SIGPIPE says,
        # so that the flush at shutdown cannot raise again with what is
        # still buffered
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    main()
