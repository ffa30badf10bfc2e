"""Benchmark of the ``heisenpaths`` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (no install needed: children get
``src`` on ``PYTHONPATH``).  Every run of the CLI is a fresh child process at
``--workers 1``; the seed is passed through as ``--seed``.  With ``--trace 0``
the last stdout line reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of one extra traced run.  Workloads, metrics and the
predicted layer -> end-to-end mapping are documented in ``bench/README.md``.

A run is correct when it exits 0 and the SHA-256 of its ``manifest.txt``
plus CSVs equals that of every other run of the same workload and seed --
traced and ``--workers 2`` runs included.  The full record (environment,
every sample, digests, input sizes, span table) is written to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import tracer as tracing

WORKLOADS = {
    "cayley-clocked": (
        "experiment", "cayley", "paths=8192", "step=2e-3", "u_grid=0.3", "horizon_a=25",
    ),
    # about 3 s a run, so an invocation takes the median of 11 or more runs;
    # formatting is still about 90% of cli.main at this size
    "radial-csv": ("simulate", "radial-h", "paths=20000", "horizon=0.1"),
    # the tdist defaults, pinned: at paths=4096 its absolute 0.03 sup-gap
    # gate fails at some seeds, so the budget cannot be cut
    "tdist-absorb": (
        "experiment", "tdist", "paths=20000", "step=1e-3", "ts=0,0.25,0.5,1,2",
    ),
}

SETUP_PROBES = 7      # timed set-up probes per run (after one warm-up)
MIN_RUNS = 2          # untraced workload runs, so digests can be compared
DEADLINE_S = 170.0    # children still running after this are killed

# metric name -> unit; the order is the order printed
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "frac",
}
PER_LAYER = {
    "rng.standard_normal_s": "s",
    "rng.standard_normal_calls": "count",
    "rng.stream_calls": "count",
    "sde.sim_radial_h.self_s": "s",
    "sde.sim_hproc.self_s": "s",
    "sde.sim_radial_s.self_s": "s",
    "sde.block_steps": "count",
    "sde.us_per_block_step": "us",
    "sde.kept_path_frac": "frac",
    "sde.useful_step_frac": "frac",
    "sde.parallel_speedup": "x",
    "geometry.H_fun_s": "s",
    "geometry.H_fun_calls": "count",
    "geometry.h_fun_s": "s",
    "geometry.h_fun_calls": "count",
    "geometry.koranyi_N_s": "s",
    "geometry.koranyi_N_calls": "count",
    "operators.drift_hproc_s": "s",
    "operators.drift_hproc_calls": "count",
    "operators.sphere_radial_drift_s": "s",
    "operators.sphere_radial_drift_calls": "count",
    "analysis.self_s": "s",
    "analysis.ks_two_sample_s": "s",
    "cli.resolve_s": "s",
    "cli.self_s": "s",
    "cli.flush_s": "s",
    "cli.rows": "count",
    "cli.bytes_written": "B",
    "cli.us_per_row": "us",
    "trace.spans": "count",
    "trace_overhead_frac": "frac",
}


class Bench:
    """One benchmark invocation: runs children inside ``root`` and keeps
    every sample it takes."""

    def __init__(self, root: Path, workload: str, cli_args: tuple[str, ...], seed: int):
        self.root = root
        self.workload = workload
        self.cli_args = list(cli_args)
        self.seed = seed
        self.work = root / ".bench_work"
        self.started = time.perf_counter()
        self.samples: list[dict] = []
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.env = env

    def _child(self, args: list[str], log: Path) -> dict:
        """Run one child to completion; wall time, CPU time and peak RSS are
        those of the child process alone (``wait4``)."""
        timeout = DEADLINE_S - (time.perf_counter() - self.started)
        if timeout <= 0:
            return {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "exit": "deadline"}
        with open(log, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write(log.read_text(errors="replace")[-2000:])
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode,
        }

    def setup_probe(self) -> dict:
        i = len(self.samples)
        out = self.work / "out" / f"{self.workload}-setup-{i}"
        rec = self._child(
            ["bench/child.py", "setup", *self.cli_args, "--seed", str(self.seed),
             "--workers", "1", "--out", str(out)],
            self.work / "logs" / f"{self.workload}-setup-{i}.log",
        )
        rec["kind"] = "setup"
        self.samples.append(rec)
        return rec

    def cli_run(self, kind: str, workers: int = 1) -> dict:
        """One workload run; ``kind`` is ``run``, ``traced`` or ``workers2``."""
        i = len(self.samples)
        tag = f"{self.workload}-{kind}-{i}"
        out = self.work / "out" / tag
        shutil.rmtree(out, ignore_errors=True)
        cli = [*self.cli_args, "--seed", str(self.seed), "--workers", str(workers), "--out", str(out)]
        summary_path = self.work / "logs" / f"{tag}.spans.json"
        if kind == "traced":
            args = ["bench/child.py", "trace", str(summary_path), *cli]
        else:
            args = ["-m", "heisenpaths.cli", *cli]
        rec = self._child(args, self.work / "logs" / f"{tag}.log")
        rec["kind"] = kind
        rec.update(digest_outputs(out))
        shutil.rmtree(out, ignore_errors=True)
        if kind == "traced" and rec["exit"] == 0:
            rec["spans"] = json.loads(summary_path.read_text())
        self.samples.append(rec)
        return rec

    def timed_runs(self, seconds: float) -> list[dict]:
        """At least MIN_RUNS untraced runs, then more while the next one is
        expected to end within ``seconds`` of the first."""
        t0 = time.perf_counter()
        runs: list[dict] = []
        while True:
            runs.append(self.cli_run("run"))
            elapsed = time.perf_counter() - t0
            if len(runs) >= MIN_RUNS and elapsed + max(r["wall_s"] for r in runs) > seconds:
                return runs

    def failures(self) -> int:
        """Children that exited non-zero, workload runs that wrote nothing,
        and workload runs whose digest is not the majority digest (all of
        them when there is no majority)."""
        runs = [r for r in self.samples if r["kind"] != "setup"]
        failed = sum(1 for r in self.samples if r["exit"] != 0)
        failed += sum(1 for r in runs if r["exit"] == 0 and r["digest"] is None)
        digests = Counter(r["digest"] for r in runs if r["exit"] == 0 and r["digest"] is not None)
        if len(digests) > 1:
            top, count = digests.most_common(1)[0]
            majority = top if count * 2 > sum(digests.values()) else None
            failed += sum(n for d, n in digests.items() if d != majority)
        return failed


def digest_outputs(out: Path) -> dict:
    """SHA-256 over ``manifest.txt`` and the CSVs (names included, in name
    order), with their data-row and byte counts; ``run.log`` is excluded
    because it holds wall-clock content."""
    h = hashlib.sha256()
    rows = nbytes = 0
    files = sorted(p for p in out.glob("*") if p.name != "run.log") if out.is_dir() else []
    for p in files:
        data = p.read_bytes()
        h.update(p.name.encode() + b"\0" + data + b"\0")
        nbytes += len(data)
        if p.suffix == ".csv":
            rows += data.count(b"\n") - 1
    return {"digest": h.hexdigest() if files else None, "rows": rows, "bytes": nbytes}


def layer_metrics(traced: dict, untraced_wall: float, workers2_wall: float) -> dict:
    summary = traced["spans"]
    by = summary["by_name"]
    step = summary["stepping"]

    def total(name):
        return by.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return by.get(name, {}).get("calls", 0)

    def self_s(name):
        return by.get(name, {}).get("self_s", 0.0)

    sim_s = sum(total(f"sde.{fn}") for fn in tracing.SIMULATORS)
    block_steps = step["block_steps"]
    rows = traced["rows"]
    return {
        "rng.standard_normal_s": total("rng.standard_normal"),
        "rng.standard_normal_calls": calls("rng.standard_normal"),
        "rng.stream_calls": calls("rng.stream"),
        "sde.sim_radial_h.self_s": self_s("sde.sim_radial_h"),
        "sde.sim_hproc.self_s": self_s("sde.sim_hproc"),
        "sde.sim_radial_s.self_s": self_s("sde.sim_radial_s"),
        "sde.block_steps": block_steps,
        "sde.us_per_block_step": 1e6 * sim_s / block_steps if block_steps else 0.0,
        "sde.kept_path_frac": step["kept_path_frac"],
        "sde.useful_step_frac": step["useful_step_frac"],
        "sde.parallel_speedup": untraced_wall / workers2_wall if workers2_wall > 0 else 0.0,
        "geometry.H_fun_s": total("geometry.H_fun"),
        "geometry.H_fun_calls": calls("geometry.H_fun"),
        "geometry.h_fun_s": total("geometry.h_fun"),
        "geometry.h_fun_calls": calls("geometry.h_fun"),
        "geometry.koranyi_N_s": total("geometry.koranyi_N"),
        "geometry.koranyi_N_calls": calls("geometry.koranyi_N"),
        "operators.drift_hproc_s": total("operators.drift_hproc"),
        "operators.drift_hproc_calls": calls("operators.drift_hproc"),
        "operators.sphere_radial_drift_s": total("operators.sphere_radial_drift"),
        "operators.sphere_radial_drift_calls": calls("operators.sphere_radial_drift"),
        "analysis.self_s": sum(
            (d["self_s"] for n, d in by.items()
             if n.startswith("analysis.") and n != "analysis.ks_two_sample"),
            0.0,
        ),
        "analysis.ks_two_sample_s": total("analysis.ks_two_sample"),
        "cli.resolve_s": total("cli.resolve"),
        "cli.self_s": self_s("cli.main"),
        "cli.flush_s": total("cli.flush"),
        "cli.rows": rows,
        "cli.bytes_written": traced["bytes"],
        "cli.us_per_row": 1e6 * self_s("cli.main") / rows if rows else 0.0,
        "trace.spans": summary["spans"],
        "trace_overhead_frac": traced["wall_s"] / untraced_wall - 1.0,
    }


def environment(root: Path) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu_model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    src = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        src.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "git_sha": git_sha(root),
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def git_sha(root: Path) -> str | None:
    """HEAD of ``root`` when it is a git work tree, else None."""
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def measure(root: Path, workload: str, cli_args: tuple[str, ...], seed: int,
            seconds: float, trace: bool) -> dict:
    """Run one benchmark invocation and return its full record; the
    reported line is ``record["result"]``."""
    bench = Bench(root, workload, cli_args, seed)
    for sub in ("out", "logs", "results"):
        (bench.work / sub).mkdir(parents=True, exist_ok=True)
    env = environment(root)
    # the first probe compiles bytecode and warms the file cache; untimed
    probes = [bench.setup_probe() for _ in range(1 + (0 if trace else SETUP_PROBES))][1:]
    # a traced invocation needs only a baseline for the overhead and speed-up
    runs = bench.timed_runs(0 if trace else seconds)
    wall = statistics.median(r["wall_s"] for r in runs)
    problems: list[str] = []
    if trace:
        traced = bench.cli_run("traced")
        workers2 = bench.cli_run("workers2", workers=2)
        if "spans" in traced:
            problems += tracing.check_summary(traced["spans"])
            metrics = layer_metrics(traced, wall, workers2["wall_s"])
        else:
            problems.append("traced run failed")
            metrics = {name: 0.0 for name in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "setup_s": statistics.median(p["wall_s"] for p in probes),
        }
        units = END_TO_END
    attempted = len(bench.samples)
    failed = bench.failures()
    if not trace:
        metrics["ok_frac"] = (attempted - failed) / attempted
    if failed:
        problems.append(f"{failed} of {attempted} child runs failed")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    first = runs[0]
    record = {
        "workload": workload,
        "cli_args": list(cli_args),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "sizes": {
            "rows": first["rows"],
            "bytes": first["bytes"],
            **({"stepping": traced["spans"]["stepping"]} if trace and "spans" in traced else {}),
        },
        "runs_untraced": len(runs),
        "problems": problems,
        "samples": bench.samples,
        "result": result,
    }
    out = bench.work / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "heisenpaths" / "cli.py").is_file():
        print(f"no heisenpaths sources under {root / 'src'}", file=sys.stderr)
        return 2
    record = measure(root, args.workload, WORKLOADS[args.workload], args.seed,
                     args.seconds, bool(args.trace))
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
