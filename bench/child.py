"""Child-process entry points of the benchmark (run with ``src`` on the path).

    python3 bench/child.py setup CLI_ARGS...
        Import ``heisenpaths.cli`` and run its ``main`` on CLI_ARGS with the
        command drivers stubbed out: argument parsing, config resolution and
        validation run, nothing is simulated and no file is written.

    python3 bench/child.py trace SUMMARY.json CLI_ARGS...
        Run ``heisenpaths.cli.main`` on CLI_ARGS under span tracing and write
        the span summary to SUMMARY.json.  Exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys


def setup(cli_args: list[str]) -> int:
    from heisenpaths import cli, sde

    drivers = [name for name in vars(cli) if name.startswith("_drive_")]
    if not drivers:
        print("setup probe: heisenpaths.cli has no _drive_* functions to stub", file=sys.stderr)
        return 2
    for name in drivers:
        setattr(cli, name, lambda *args, **kwargs: ([], {}, {}))
    cli.RunWriter.flush = lambda self: None

    def no_simulation(*args, **kwargs):
        raise RuntimeError("setup probe reached the simulator")

    sde.stream = no_simulation
    return cli.main(cli_args)


def trace(summary_path: str, cli_args: list[str]) -> int:
    import tracer as tracing
    from heisenpaths import cli, rng

    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(rng.BLOCK_PATHS), fh)
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(rest))
    if mode == "trace":
        sys.exit(trace(rest[0], rest[1:]))
    sys.exit(f"unknown mode {mode!r}")
