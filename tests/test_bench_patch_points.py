"""The names ``bench/tracer.py`` patches must exist where it patches them,
and the set-up probe of ``bench/child.py`` must run every workload.

The tracer wraps functions by name in the modules that call them, so a
refactor that drops one of those imports would make ``bench/run.py --trace
1`` crash.  The set-up probe stubs every ``cli._drive_*`` function and
``sde.stream``, so a dispatch through a table captured at import would reach
the simulator and fail the probe.  These tests read ``bench/``; they change
nothing there.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heisenpaths import analysis, cli, sde

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


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


def bench_workloads() -> dict:
    """``WORKLOADS`` of ``bench/run.py``, read from its source: importing it
    needs ``bench/`` on the path."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WORKLOADS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no WORKLOADS")


@pytest.mark.parametrize("workload", sorted(bench_workloads()))
def test_bench_setup_probe_exits_zero(workload, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["bench/child.py", "setup", *bench_workloads()[workload],
            "--seed", "1", "--workers", "1", "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
