"""Start one venturebank CLI command as the installed ``venturebank`` script does.

    PYTHONPATH=src python3 perfbench/launcher.py <subcommand> [flags]

When ``PERFBENCH_TRACE_OUT`` names a file, the layer modules are wrapped
by :class:`tracing.Tracer` before the command runs, and the spans and
counters are written to that file when it ends.
"""

import os


def main() -> None:
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    from venturebank.cli import main as cli_main

    if not trace_out:
        cli_main()
        return

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    from venturebank import cli  # rebound by install()

    try:
        cli.main()
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    main()
