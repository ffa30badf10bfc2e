"""The names ``bench/tracer.py`` patches must exist where it patches them.

The tracer wraps functions by name in the modules that call them, so a
refactor that drops one of those imports would make ``bench/run.py --trace
1`` crash.  This reads the tracer's name tables; it changes nothing under
``bench/``.
"""

import importlib.util
from pathlib import Path

from heisenpaths import analysis, cli, sde

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patch_points_resolve():
    tracer = load_tracer()
    points = [(sde, name) for name in tracer.OPERATORS_IN_SDE + tracer.GEOMETRY_IN_SDE + ("stream",)]
    points += [(sde, name) for name in tracer.SIMULATORS]
    points += [(cli, name) for name in tracer.EXPERIMENTS + ("resolve_config",)]
    points += [(analysis, name) for name in tracer.GEOMETRY_IN_ANALYSIS + ("survival_T", "ks_two_sample")]
    missing = [f"{m.__name__}.{name}" for m, name in points if not callable(getattr(m, name, None))]
    missing += [f"heisenpaths.sde.CLOCKS[{c!r}]" for c in tracer.CLOCK_FACTORS if c not in sde.CLOCKS]
    if not callable(getattr(cli.RunWriter, "flush", None)):
        missing.append("heisenpaths.cli.RunWriter.flush")
    # each simulator must be reachable where the tracer wraps it
    missing += [name for name in tracer.SIMULATORS if not (hasattr(cli, name) or hasattr(analysis, name))]
    assert not missing
