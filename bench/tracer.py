"""Spans around calls into the ``heisenpaths`` modules.

The wrappers are installed by patching each name where the *calling* module
looks it up (``heisenpaths.sde.stream``, ``heisenpaths.analysis.sim_hproc``,
``heisenpaths.cli.RunWriter.flush``, ...), so nothing under ``src/`` changes
and the wrapped functions compute exactly what they compute untraced: a
traced run writes the same bytes as an untraced one.

A span is ``[name, parent index, start, end]``; spans are kept in memory and
summarised once the run ends.  The self time of a span is its duration minus
the durations of its children, which is exact here because every traced run
is single-threaded (``--workers 1``), so children never overlap.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

# |sum of self times - root duration| must stay below this share of the root
SELF_SUM_TOLERANCE = 1e-6
# a self time may fall below zero by this much (seconds) from clock rounding
SELF_FLOOR_S = -1e-6


class Tracer:
    """Records nested spans and the simulator calls needed for step counts."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.sim_calls: list[dict] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def wrap_simulator(self, name: str, fn):
        """Span a simulator and keep what its result says about useful steps."""
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def recorded(cfg, *args, **kwargs):
            ens = traced(cfg, *args, **kwargs)
            self.sim_calls.append(
                {
                    "name": name,
                    "paths": int(cfg.paths),
                    "steps": int(cfg.steps),
                    "step": float(cfg.step),
                    "last_record": float(ens.times[-1]) if len(ens.times) else 0.0,
                    "crossing_times": [c["time"] for c in ens.crossings.values()],
                    "death_time": ens.death_time,
                }
            )
            return ens

        return recorded

    def summary(self, block_paths: int) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        nest_errors = 0
        for name, parent, start, end in spans:
            if parent >= 0:
                _, _, p_start, p_end = spans[parent]
                child[parent] += end - start
                if start < p_start or end > p_end:
                    nest_errors += 1
        by_name: dict[str, dict] = {}
        min_self = math.inf
        roots = []
        for i, (name, parent, start, end) in enumerate(spans):
            self_s = (end - start) - child[i]
            min_self = min(min_self, self_s)
            if parent < 0:
                roots.append(end - start)
            d = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            d["calls"] += 1
            d["total_s"] += end - start
            d["self_s"] += self_s
        self_sum = sum(d["self_s"] for d in by_name.values())
        root_s = sum(roots)
        return {
            "spans": len(spans),
            "roots": len(roots),
            "root_s": root_s,
            "self_sum_s": self_sum,
            "nest_errors": nest_errors,
            "min_self_s": min_self if spans else 0.0,
            "by_name": by_name,
            "stepping": stepping(self.sim_calls, block_paths),
        }


def check_summary(summary: dict) -> list[str]:
    """Problems with a span summary: one root, proper nesting, non-negative
    self times, and self times that add up to the root span."""
    problems = []
    if summary["roots"] != 1:
        problems.append(f"expected one root span, found {summary['roots']}")
    if summary["nest_errors"]:
        problems.append(f"{summary['nest_errors']} span(s) outside their parent")
    if summary["min_self_s"] < SELF_FLOOR_S:
        problems.append(f"negative self time {summary['min_self_s']:.3g} s")
    gap = abs(summary["self_sum_s"] - summary["root_s"])
    if gap > SELF_SUM_TOLERANCE * summary["root_s"]:
        problems.append(f"self times miss the root span by {gap:.3g} s")
    return problems


def _useful_steps(call: dict, block_paths: int) -> float:
    """Steps of one simulator call that its outputs need, in block-steps.

    Absorbing runs need each kept path only until it is absorbed (live
    path-steps, in block units).  Clocked runs need a block until its last
    level crossing, or the whole horizon if a path never crosses.  A block
    also runs until its last record time.  Everything else needs every step.
    """
    steps, step, paths = call["steps"], call["step"], call["paths"]
    blocks = -(-paths // block_paths)
    if call["death_time"] is not None:
        live = np.minimum(np.round(call["death_time"] / step), steps)
        return float(live.sum()) / paths * blocks
    if not call["crossing_times"]:
        return float(blocks * steps)
    record_steps = round(call["last_record"] / step)
    last = np.fmax.reduce(np.vstack(call["crossing_times"]), axis=0)
    never = np.isnan(np.vstack(call["crossing_times"])).any(axis=0)
    total = 0.0
    for b in range(blocks):
        sl = slice(b * block_paths, (b + 1) * block_paths)
        need = steps if never[sl].any() else math.ceil(float(last[sl].max()) / step)
        total += min(steps, max(need, record_steps))
    return total


def stepping(sim_calls: list[dict], block_paths: int) -> dict:
    block_steps = kept = drawn = useful = 0.0
    for call in sim_calls:
        blocks = -(-call["paths"] // block_paths)
        block_steps += blocks * call["steps"]
        kept += call["paths"] * call["steps"]
        drawn += blocks * block_paths * call["steps"]
        useful += _useful_steps(call, block_paths)
    return {
        "calls": [{k: c[k] for k in ("name", "paths", "steps")} for c in sim_calls],
        "block_steps": int(block_steps),
        "kept_path_frac": kept / drawn if drawn else 0.0,
        "useful_step_frac": useful / block_steps if block_steps else 0.0,
    }


class _TracedGenerator:
    """A numpy Generator whose ``standard_normal`` is spanned."""

    def __init__(self, gen, standard_normal):
        self._gen = gen
        self.standard_normal = standard_normal

    def __getattr__(self, name):
        return getattr(self._gen, name)


SIMULATORS = ("sim_full_h", "sim_radial_h", "sim_radial_s", "sim_hproc", "sim_Nproc")
EXPERIMENTS = (
    "pushforward_experiment_cayley",
    "pushforward_experiment_kelvin",
    "tdist_experiment",
    "doob_semigroup_check",
    "doob_semigroup_check_N",
)
OPERATORS_IN_SDE = ("drift_hproc", "drift_Nproc", "sphere_radial_drift")
GEOMETRY_IN_SDE = ("h_fun", "koranyi_N")
GEOMETRY_IN_ANALYSIS = ("h_fun", "h_tilde", "koranyi_N", "cayley1_chart", "cayley1_chart_inv", "kelvin_radial")
CLOCK_FACTORS = {"cayley": "geometry.H_fun", "kelvin_preimage": "geometry.koranyi_N"}


def install(tracer: Tracer) -> None:
    """Patch every traced name in the modules that call it."""
    from heisenpaths import analysis, cli, sde

    def patch(module, attr, name):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr)))

    patch(cli, "resolve_config", "cli.resolve")
    cli.RunWriter.flush = tracer.wrap("cli.flush", cli.RunWriter.flush)
    for fn in EXPERIMENTS:
        patch(cli, fn, f"analysis.{fn}")
    for module in (cli, analysis):
        for fn in SIMULATORS:
            if hasattr(module, fn):
                setattr(module, fn, tracer.wrap_simulator(f"sde.{fn}", getattr(module, fn)))
    patch(analysis, "survival_T", "analysis.survival_T")
    patch(analysis, "ks_two_sample", "analysis.ks_two_sample")
    for fn in GEOMETRY_IN_ANALYSIS:
        patch(analysis, fn, f"geometry.{fn}")
    for fn in GEOMETRY_IN_SDE:
        patch(sde, fn, f"geometry.{fn}")
    for fn in OPERATORS_IN_SDE:
        patch(sde, fn, f"operators.{fn}")
    for clock, name in CLOCK_FACTORS.items():
        sde.CLOCKS[clock] = tracer.wrap(name, sde.CLOCKS[clock])

    stream = tracer.wrap("rng.stream", sde.stream)

    def traced_stream(*args, **kwargs):
        gen = stream(*args, **kwargs)
        return _TracedGenerator(gen, tracer.wrap("rng.standard_normal", gen.standard_normal))

    sde.stream = traced_stream
