"""Run one ``nttmul`` subcommand with the benchmark's span wrappers installed.

Usage: ``python cli_traced.py SPANS_OUT RUN_ID <nttmul arguments...>``

Patches the ``nttmul.cli`` module attributes (and the library functions
behind them), calls ``nttmul.cli.main`` and writes the spans to SPANS_OUT
when the subcommand returns, whatever its exit code.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_out, run_id, *argv = sys.argv[1:]
    tracer = Tracer(run_id)
    tracer.install()
    import nttmul.cli

    try:
        with tracer.span(f"cli.{argv[0]}"):
            return nttmul.cli.main(argv)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
