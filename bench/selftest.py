"""Fast self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at a tiny size, untraced and traced, through the same
code as ``bench/run.py``, and checks that each run is correct, that exactly
the metrics named in ``BENCHMARK.json`` are emitted with their units, that
spans nest, and that self times are non-negative and add up to the root
span.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import tracer as tracing

# the pinned workloads cut down to about a second each; at seed 1 and these sizes
# every statistical gate of the CLI still passes
TINY = {
    "cayley-clocked": ("experiment", "cayley", "paths=512", "step=1e-2", "u_grid=0.3", "horizon_a=2"),
    "radial-csv": ("simulate", "radial-h", "paths=300", "horizon=0.01"),
    "tdist-absorb": ("experiment", "tdist", "paths=2000", "step=1e-2", "ts=0,0.5,1"),
}


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {what}")


def check_tracer() -> None:
    """Self times of a known call tree."""
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))

    def outer():
        inner()
        inner()

    tracer.wrap("outer", outer)()
    summary = tracer.summary(block_paths=4096)
    by = summary["by_name"]
    check(by["inner"]["calls"] == 2 and by["outer"]["calls"] == 1, "span call counts")
    check(
        abs(by["outer"]["self_s"] - (by["outer"]["total_s"] - by["inner"]["total_s"])) < 1e-12,
        "outer self time is its duration minus its children",
    )
    check(tracing.check_summary(summary) == [], "clean summary has no problems")
    broken = dict(summary, roots=2, nest_errors=1, min_self_s=-1.0, self_sum_s=summary["root_s"] + 1)
    check(len(tracing.check_summary(broken)) == 4, "check_summary reports every defect")


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS) == set(TINY), "workload names")
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check_tracer()
    for name, cli_args in TINY.items():
        for trace in (False, True):
            record = run.measure(root, f"selftest-{name}", cli_args, seed=1, seconds=0, trace=trace)
            result = record["result"]
            label = f"{name} trace={int(trace)}"
            check(result["correct"] and result["failed"] == 0, f"{label}: {record['problems']}")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            check(emitted == declared[trace], f"{label}: metrics differ from BENCHMARK.json")
            check(
                all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                f"{label}: non-numeric metric",
            )
            if trace:
                spans = next(s["spans"] for s in record["samples"] if s["kind"] == "traced")
                # nesting, non-negative self times, self times summing to the root
                check(tracing.check_summary(spans) == [], f"{label}: {tracing.check_summary(spans)}")
                check(result["metrics"]["sde.block_steps"]["value"] > 0, f"{label}: no steps traced")
            print(f"ok {label}: {result['attempted']} runs")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
