"""Command-line runner: config resolution, experiment drivers, and flat
serialization of results.

Every command resolves its parameters the same way: built-in defaults, then
a ``key = value`` config file (``--config``), then command-line overrides
(``--seed``/``--out``/``--workers`` flags and positional ``key=value``
pairs).  A command takes only the keys it reads, as ``COMMANDS`` lists
them, and has a flag only for those; any other key is rejected.  Each run
writes into its output directory:

* ``manifest.txt`` — flat sorted ``key = value`` lines: the resolved config
  echo (execution-only keys like the worker count excluded), tool version,
  numeric results, and one ``test.<name>.value/.tolerance/.pass`` triple per
  named check;
* data CSVs (schemas in the README): header row, fixed column order,
  floats as ``'%.17g' % v``.  Each chunk of rows is assembled in numpy
  as byte rows, one NUL-padded field per column, and every NUL is then
  dropped.  Floats in fixed notation are rendered exactly by numpy
  (:func:`.csvrows.float_rows`); a value it cannot certify (not finite,
  exponent notation, near a rounding tie, wrong exponent estimate) is
  formatted by Python's ``%``;
* ``run.log`` — timestamp, invocation echo, phase timings, the count of
  floats ``%`` formatted and the CPU time of the whole process so far.
  The log is the only file with wall-clock content, so manifest and CSVs
  are byte-identical across reruns with the same config and seed, for any
  worker count.

Each file is written to a temporary name and renamed into place, so it
appears whole or not at all.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
config error (including an output path whose parent directory is missing),
3 I/O failure while writing results.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .analysis import (
    CheckRecord,
    doob_semigroup_check,
    doob_semigroup_check_N,
    pushforward_experiment_cayley,
    pushforward_experiment_kelvin,
    tdist_experiment,
)
from .csvrows import csv_lines, float_rows, int_rows, str_rows
from .operators import TestFunction, exp_jet, gauge_jet, sphere_basket
from .sde import (
    SimConfig,
    conditioned_start,
    grid_steps,
    sim_full_h,
    sim_hproc,
    sim_Nproc,
    sim_radial_h,
    sim_radial_s,
)
from .verify import verify_geometry, verify_operators

__all__ = ["main"]


class ConfigError(ValueError):
    """Bad key, bad value, or unusable output location (exit code 2)."""


# ---------------------------------------------------------------------------
# config schema and resolution


def _parse_float(s: str) -> float:
    f = float(s)
    if not math.isfinite(f):
        raise ValueError(f"expected a finite number, got {s!r}")
    return f


def _parse_int(s: str) -> int:
    # integer literals parse exactly; a float literal is taken only where
    # it names an integer exactly (below 2**53), so no value is rounded
    try:
        return int(s)
    except ValueError:
        pass
    f = _parse_float(s)
    if not f.is_integer() or abs(f) >= 2.0**53:
        raise ValueError(f"expected an integer, got {s!r}")
    return int(f)


def _parse_floats(s: str) -> tuple[float, ...]:
    items = [p for p in s.replace(",", " ").split() if p]
    if not items:
        raise ValueError("empty list")
    return tuple(_parse_float(p) for p in items)


def _parse_str(s: str) -> str:
    return s


# a key parses by the type of its default
_PARSERS = {int: _parse_int, float: _parse_float, tuple: _parse_floats, str: _parse_str}

# keys that describe execution, not the experiment: excluded from the
# manifest's config echo so reruns compare byte-identical
ECHO_EXCLUDE = {"workers", "out"}

# the simulation keys (``SimConfig`` fields) of the simulators, by whether
# they read the absorption floor, and of the experiments, which set the
# horizon of each of their runs from their own keys
_FREE = {"n": 1, "step": 1e-3, "horizon": 1.0, "paths": 20_000, "seed": 1, "workers": 1}
_ABSORBING = {**_FREE, "pole_eps": 1e-3}
_EXPERIMENT = {k: v for k, v in _ABSORBING.items() if k != "horizon"}

# every command with the defaults of every key it reads; ``out`` defaults to
# ``<group>_<target>_out``
COMMANDS = {
    ("verify", "geometry"): {"seed": 1},
    ("verify", "operators"): {"seed": 1},
    ("experiment", "cayley"): {**_EXPERIMENT, "x0_r": 0.0, "x0_t": 0.0, "u_grid": (0.3,), "horizon_a": 25.0},
    ("experiment", "kelvin"): {**_EXPERIMENT, "x0_r": 1.0, "x0_t": 0.0, "u_grid": (0.2,), "horizon_a": 50.0},
    ("experiment", "tdist"): {**_EXPERIMENT, "x0_r": 0.0, "x0_t": 0.0, "ts": (0.0, 0.25, 0.5, 1.0, 2.0)},
    ("experiment", "semigroup"): {
        **_EXPERIMENT, "x0_r": 0.0, "x0_t": 0.0, "t_grid": (0.25, 0.5), "xn_r": 1.0, "xn_t": 0.0, "tn": 0.5,
    },
    ("simulate", "full-h"): {**_FREE, "x0_t": 0.0, "record": ()},
    ("simulate", "radial-h"): {**_FREE, "x0_r": 0.0, "x0_t": 0.0, "record": ()},
    ("simulate", "radial-s"): {**_FREE, "x0_r": 0.0, "x0_t": 0.0, "record": ()},
    ("simulate", "hproc"): {**_ABSORBING, "x0_r": 0.0, "x0_t": 0.0, "record": ()},
    ("simulate", "nproc"): {**_ABSORBING, "x0_r": 1.0, "x0_t": 0.0, "record": ()},
}


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    out: dict[str, str] = {}
    for ln, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def resolve_config(command: tuple[str, str], raw: dict[str, str]) -> dict:
    """Typed config from raw key=value strings."""
    group, target = command
    defaults = {**COMMANDS[command], "out": f"{group}_{target}_out"}
    cfg = dict(defaults)
    for key, value in raw.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r} for {group} {target}")
        try:
            cfg[key] = _PARSERS[type(defaults[key])](value)
        except ValueError as e:
            raise ConfigError(f"bad value for {key}: {value!r} ({e})") from e
    return cfg


def _sim_config(cfg: dict) -> SimConfig:
    """``SimConfig`` of the simulation keys in ``cfg``; the fields a command
    does not take keep their ``SimConfig`` defaults.  Without ``horizon``
    the horizon is one step: each experiment run replaces it."""
    sim = {f.name: cfg[f.name] for f in fields(SimConfig) if f.name in cfg}
    if "step" in sim:
        sim.setdefault("horizon", sim["step"])
    try:
        return SimConfig(**sim)
    except ValueError as e:
        raise ConfigError(str(e)) from e


# ---------------------------------------------------------------------------
# serialization


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def _manifest_lines(command, cfg, records: list[CheckRecord], extra: dict) -> list[str]:
    rows = {
        "meta.command": " ".join(command),
        "meta.version": __version__,
    }
    for key, value in cfg.items():
        if key in ECHO_EXCLUDE:
            continue
        if isinstance(value, tuple):
            rows[f"config.{key}"] = ",".join(_fmt(x) for x in value)
        else:
            rows[f"config.{key}"] = _fmt(value)
    for key, value in extra.items():
        rows[key] = _fmt(value)
    for rec in records:
        rows[f"test.{rec.name}.value"] = _fmt(rec.value)
        rows[f"test.{rec.name}.tolerance"] = _fmt(rec.tolerance)
        rows[f"test.{rec.name}.op"] = rec.kind
        rows[f"test.{rec.name}.pass"] = _fmt(rec.passed)
    return [f"{k} = {rows[k]}\n" for k in sorted(rows)]


# rows per formatted chunk.  A chunk is assembled as numpy byte rows, so it
# bounds the arrays alive at once (a few hundred bytes a row) and is long
# enough to keep numpy's per-call cost small; only the floats the vectorized
# %.17g cannot certify go to Python's ``%`` one by one (``float_rows``)
CSV_CHUNK_ROWS = 4096

# kinds of CSV column: integers (``%d``), floats (``%.17g``) and strings
_CSV_KINDS = "iufU"


def _field_rows(kind: str, col: np.ndarray) -> tuple[np.ndarray, int]:
    """The text of each value of ``col`` as ``_fmt`` prints it, as NUL-padded
    byte rows, and how many floats ``%`` formatted."""
    if kind == "f":
        rows, python = float_rows(np.asarray(col, dtype=np.float64))
        return rows, int(np.count_nonzero(python))
    if kind in "iu":
        return int_rows(np.asarray(col, dtype=np.int64 if kind == "i" else np.uint64)), 0
    return str_rows(col.tolist()), 0


def _csv_kind(name: str, col: np.ndarray) -> str:
    if col.dtype.kind not in _CSV_KINDS:
        raise TypeError(f"CSV column {name!r} has unsupported values ({col.dtype})")
    return col.dtype.kind


class Coded(NamedTuple):
    """A CSV column of ``rows`` rows given as its distinct ``values`` (a 1-D
    array) and ``codes``, which maps an array of row numbers to those rows'
    indices into ``values``."""

    values: np.ndarray
    rows: int
    codes: Callable[[np.ndarray], np.ndarray]


def _csv_chunks(header: list[str], columns) -> tuple[list[str], int]:
    """CSV text: the header line, then the rows of ``columns`` (one 1-D array
    or :class:`Coded` column per header name) in chunks of ``CSV_CHUNK_ROWS``
    rows; and how many float fields ``%`` formatted.

    Each value prints as ``_fmt`` prints it: integers in decimal, floats as
    ``%.17g``, strings as they are.  A column of any other dtype (booleans
    and objects included) is an error.  Each column becomes a matrix of
    NUL-padded byte rows (:mod:`.csvrows`), and ``csv_lines`` joins a
    chunk's fields into lines and drops every NUL byte.  A coded column
    formats each of its values once, and each chunk gathers its rows' byte
    rows by code."""
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} CSV header names for {len(columns)} columns")
    plain = [c for c in columns if not isinstance(c, Coded)]
    lengths = {c.rows if isinstance(c, Coded) else len(c) for c in columns}
    if any(c.ndim != 1 for c in plain) or len(lengths) > 1:
        raise ValueError("CSV columns must be 1-D and of one length")
    total = lengths.pop() if columns else 0
    kinds, texts, python = [], {}, 0
    for j, (name, c) in enumerate(zip(header, columns)):
        if isinstance(c, Coded):
            values = c.values
            if values.ndim != 1:
                raise ValueError(f"CSV column {name!r} has values that are not 1-D")
            rows, count = _field_rows(_csv_kind(name, values), values)
            # the byte columns that are NUL in every row would only be dropped again
            texts[j], python = rows[:, rows.any(axis=0)], python + count
            kinds.append(None)
        else:
            kinds.append(_csv_kind(name, c))
    out = [",".join(header) + "\n"]
    for lo in range(0, total, CSV_CHUNK_ROWS):
        hi = min(lo + CSV_CHUNK_ROWS, total)
        fields = []
        for j, c in enumerate(columns):
            if j not in texts:
                rows, count = _field_rows(kinds[j], c[lo:hi])
                fields.append(rows)
                python += count
                continue
            index = np.arange(lo, hi)
            codes = np.asarray(c.codes(index))
            if codes.dtype.kind not in "iu" or codes.shape != index.shape:
                raise TypeError(f"CSV column {header[j]!r} needs one integer code per row")
            if len(codes) and (codes.min() < 0 or codes.max() >= len(texts[j])):
                raise IndexError(f"CSV column {header[j]!r} has a code out of range")
            fields.append(np.take(texts[j], codes, axis=0))
        out.append(csv_lines(fields).decode())
    return out, python


MANIFEST = "manifest.txt"

# every CSV name some command writes; a run removes those it does not write
CSV_NAMES = (
    "paths.csv",
    "samples.csv",
    "samples_image.csv",
    "samples_preimage.csv",
    "semigroup.csv",
    "survival.csv",
)


class RunWriter:
    """Collects all output files, then writes them once.

    The output directory itself is created if missing, but a missing parent
    is a config error: the caller pointed the run somewhere that does not
    exist.  Each file is written to a temporary name in the output
    directory and renamed into place, so none is ever left half written.
    Any older ``manifest.txt``, and any file named in ``CSV_NAMES`` that
    this run does not write, is removed before the first rename and the new
    manifest is renamed last, so a manifest in the output directory means
    every file of its run landed and no CSV of another run is beside it.
    Files with other names are left alone.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.files: dict[str, list[str]] = {}
        parent = os.path.dirname(os.path.abspath(out_dir))
        if not os.path.isdir(parent):
            raise ConfigError(f"parent of output directory does not exist: {parent}")

    def add(self, name: str, lines: list[str]):
        self.files[name] = lines

    def flush(self):
        os.makedirs(self.out_dir, exist_ok=True)
        names = sorted(self.files, key=lambda name: (name == MANIFEST, name))
        tmp = {name: os.path.join(self.out_dir, f".{name}.{os.getpid()}.tmp") for name in names}
        try:
            for name in names:
                with open(tmp[name], "w", encoding="utf-8", newline="") as fh:
                    fh.writelines(self.files[name])
            for name in [MANIFEST] + [n for n in CSV_NAMES if n not in self.files]:
                path = os.path.join(self.out_dir, name)
                if os.path.lexists(path):
                    os.remove(path)
            for name in names:
                os.replace(tmp[name], os.path.join(self.out_dir, name))
        except OSError:
            for path in tmp.values():
                if os.path.lexists(path):
                    os.remove(path)
            raise


# ---------------------------------------------------------------------------
# command drivers (each takes the resolved config and its ``SimConfig`` and
# returns manifest records, manifest extras and data files as {name: (header,
# columns)}; ``main`` formats the CSVs).  An experiment decides its own
# checks, and its driver passes them through unchanged.


def _drive_verify(target: str, cfg: dict, sim: SimConfig) -> tuple[list[CheckRecord], dict, dict]:
    if target == "geometry":
        records = verify_geometry(seed=cfg["seed"])
        extra = {
            "note.green_relation": (
                "ratio is 2^n with the factor as implemented; rescaling the factor "
                "by its chart-center value 4 would normalize the constant to 1"
            )
        }
    else:
        records, meta = verify_operators(seed=cfg["seed"])
        extra = {"result.skipped_cells": meta["skipped_cells"]}
    return records, extra, {}


def _sample_columns(rep: dict, coord: str) -> list[np.ndarray]:
    """Columns ``u, route, r, <coord>, gauge`` of a pushforward report: for
    each level in ``u_grid``, its route A samples, then its route B ones."""
    parts = [rep[u]["samples"][route] for u in rep["u_grid"] for route in ("A", "B")]
    ends = np.cumsum([len(sam["r"]) for sam in parts])
    rows = int(ends[-1])
    return [
        Coded(np.array(rep["u_grid"]), rows, lambda i: np.searchsorted(ends, i, side="right") // 2),
        Coded(np.array(["A", "B"]), rows, lambda i: np.searchsorted(ends, i, side="right") % 2),
        *(np.concatenate([sam[name] for sam in parts]) for name in ("r", coord, "gauge")),
    ]


def _level_results(rep: dict, tag: str, keys: Sequence[str]) -> dict:
    """``result.<tag>_u<j>_<key>`` of each level ``j`` of a pushforward report."""
    return {f"result.{tag}_u{j}_{key}": rep[u][key] for j, u in enumerate(rep["u_grid"]) for key in keys}


def _drive_cayley(cfg: dict, sim: SimConfig) -> tuple[list[CheckRecord], dict, dict]:
    rep = pushforward_experiment_cayley(
        (cfg["x0_r"], cfg["x0_t"]), cfg["u_grid"], sim, horizon_a=cfg["horizon_a"]
    )
    extra = _level_results(rep, "cayley", ("p_r", "p_th", "p_gauge", "dropA", "dropB"))
    files = {"samples.csv": (["u", "route", "r", "theta", "gauge"], _sample_columns(rep, "th"))}
    return rep["checks"], extra, files


def _drive_kelvin(cfg: dict, sim: SimConfig) -> tuple[list[CheckRecord], dict, dict]:
    x0 = (cfg["x0_r"], cfg["x0_t"])
    records, extra, files = [], {}, {}
    for orientation, keys in (("image", ("p_r", "p_t", "p_gauge")), ("preimage", ("ks_r",))):
        rep = pushforward_experiment_kelvin(
            x0, cfg["u_grid"], sim, orientation=orientation, horizon_a=cfg["horizon_a"]
        )
        records += rep["checks"]
        extra.update(_level_results(rep, f"kelvin_{orientation}", keys))
        if orientation == "preimage":
            # the negative control's own check is its separation; its radial
            # law check is expected to fail
            for j, u in enumerate(rep["u_grid"]):
                extra[f"note.kelvin_preimage_u{j}_law"] = (
                    "PASS (unexpected)" if rep[u]["law"]["ks_r"].passed else "FAIL (expected: negative control)"
                )
        files[f"samples_{orientation}.csv"] = (
            ["u", "route", "r", "t", "gauge"], _sample_columns(rep, "t")
        )
    return records, extra, files


def _drive_tdist(cfg: dict, sim: SimConfig) -> tuple[list[CheckRecord], dict, dict]:
    rep = tdist_experiment(cfg["ts"], sim, x0=(cfg["x0_r"], cfg["x0_t"]))
    curve = rep["curve"]
    extra = {"result.capped_mass": curve.capped_mass}
    files = {
        "survival.csv": (
            ["t", "s_hat", "se", "absorb_ecdf", "gap"],
            [curve.ts, curve.s_hat, curve.se, rep["ecdf"], rep["gap"]],
        )
    }
    return rep["checks"], extra, files


def _drive_semigroup(cfg: dict, sim: SimConfig) -> tuple[list[CheckRecord], dict, dict]:
    # both sides' times and starts are checked before either side runs
    grid_steps("t_grid time", cfg["t_grid"], sim.step)
    grid_steps("tn", (cfg["tn"],), sim.step)
    x = conditioned_start(sim, (cfg["x0_r"], cfg["x0_t"]), True, "x0_r, x0_t")
    xn = conditioned_start(sim, (cfg["xn_r"], cfg["xn_t"]), False, "xn_r, xn_t")
    # each side is one conditioned and one free run, recorded at every time
    expN = TestFunction("expN", lambda u, v: exp_jet(gauge_jet(u, v), -1.0))
    results = [("sphere", res) for res in doob_semigroup_check(sphere_basket(), x, cfg["t_grid"], sim)]
    results += [("heis", res) for res in doob_semigroup_check_N([expN], xn, (cfg["tn"],), sim)]
    records = [res["check"] for _, res in results]
    rows = [
        (side, res["func"], res["t"], res["conditioned"].value, res["conditioned"].std_error,
         res["weighted"].value, res["weighted"].std_error, res["gap"], res["tol"])
        for side, res in results
    ]
    header = ["side", "func", "t", "conditioned", "conditioned_se", "weighted", "weighted_se", "gap", "tol"]
    return records, {}, {"semigroup.csv": (header, [np.array(c) for c in zip(*rows)])}


def _default_record(sim: SimConfig) -> tuple[float, ...]:
    ks = sorted({int(round(i * sim.steps / 10)) for i in range(11)})
    return tuple(k * sim.step for k in ks)


def _drive_simulate(target: str, cfg: dict, sim: SimConfig) -> tuple[list[CheckRecord], dict, dict]:
    record = cfg["record"] or _default_record(sim)
    if target == "full-h":
        ens = sim_full_h(sim, x0_t=cfg["x0_t"], record_times=record)
        z = ens.states["z"]
        header, columns = [], []
        for j in range(sim.n):
            zj = z[:, j, :].T.ravel()
            header += [f"z{j + 1}_re", f"z{j + 1}_im"]
            columns += [zj.real, zj.imag]
        header.append("t")
        columns.append(ens.states["t"].T.ravel())
    else:
        fn = {
            "radial-h": sim_radial_h, "radial-s": sim_radial_s, "hproc": sim_hproc, "nproc": sim_Nproc,
        }[target]
        ens = fn(sim, x0=(cfg["x0_r"], cfg["x0_t"]), record_times=record)
        # the radial simulators hold ("r", "t") or ("r", "th"), in column order
        header = [{"th": "theta"}.get(name, name) for name in ens.states]
        columns = [state.T.ravel() for state in ens.states.values()]
    # one row per (path, record time), path-major: row i is path i // m at
    # record time i % m
    m = len(ens.times)
    rows = ens.paths * m
    if ens.alive is not None:
        dead = ~ens.alive
        header += ["absorbed", "absorption_time"]
        columns += [
            Coded(np.array([0, 1]), rows, lambda i: dead[i % m, i // m].astype(np.intp)),
            Coded(ens.death_time, rows, lambda i: i // m),
        ]
    header = ["path", "time"] + header
    columns = [
        Coded(np.arange(ens.paths), rows, lambda i: i // m),
        Coded(ens.times, rows, lambda i: i % m),
    ] + columns
    extra = {
        "result.paths": ens.paths,
        "result.record_times": len(ens.times),
    }
    if ens.alive is not None:
        extra["result.absorbed_fraction"] = float(np.mean(~ens.alive[-1]))
    return [], extra, {"paths.csv": (header, columns)}


# ---------------------------------------------------------------------------
# entry point


# config keys that also have a flag, which beats every other source and
# parses like the key
_FLAGS = ("seed", "out", "workers")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisenpaths",
        description="Simulators and checks for conformal images of group Brownian motion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    targets: dict[str, list[str]] = {}
    for group, target in COMMANDS:
        targets.setdefault(group, []).append(target)
    for group, choices in targets.items():
        p = sub.add_parser(group)
        p.add_argument("target", choices=choices)
        p.add_argument("--config", help="flat key = value config file")
        for key in _FLAGS:
            if key == "out" or any(key in COMMANDS[group, target] for target in choices):
                p.add_argument(f"--{key}")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    # trailing key=value overrides are collected from the leftovers so they
    # can be interleaved with the flags
    args, overrides = parser.parse_known_args(argv)
    command = group, target = args.command, args.target
    try:
        raw: dict[str, str] = {}
        if args.config:
            raw.update(_read_config_file(args.config))
        for item in overrides:
            if item.startswith("-") or "=" not in item:
                parser.error(f"unrecognized argument: {item}")
            key, _, value = item.partition("=")
            raw[key.strip()] = value.strip()
        for key in _FLAGS:
            if getattr(args, key, None) is not None:
                raw[key] = getattr(args, key)
        cfg = resolve_config(command, raw)
        sim = _sim_config(cfg)  # validates the simulation keys (a verify seed too) up front
        writer = RunWriter(cfg["out"])

        t0 = time.perf_counter()
        # drivers are looked up by name on each call, so one replaced on the
        # module is the one that runs: ``_drive_<target>(cfg, sim)`` for an
        # experiment, ``_drive_<group>(target, cfg, sim)`` otherwise
        if group == "experiment":
            records, extra, files = globals()[f"_drive_{target}"](cfg, sim)
        else:
            records, extra, files = globals()[f"_drive_{group}"](target, cfg, sim)
        t1 = time.perf_counter()
    except ValueError as e:
        # library preconditions (bad start point, bad grid, ...) are config
        # errors from the runner's point of view
        print(f"config error: {e}", file=sys.stderr)
        return 2
    csvs, python_fields = {}, 0
    for name, (header, columns) in files.items():
        csvs[name], count = _csv_chunks(header, columns)
        python_fields += count
    t2 = time.perf_counter()

    writer.add(MANIFEST, _manifest_lines(command, cfg, records, extra))
    for name, lines in csvs.items():
        writer.add(name, lines)
    writer.add(
        "run.log",
        [
            f"started {time.strftime('%Y-%m-%dT%H:%M:%S%z')}\n",
            f"command {' '.join(command)}\n",
            f"version {__version__}\n",
            f"workers {cfg.get('workers', 1)}\n",
            f"elapsed_s {t2 - t0:.3f}\n",
            f"phase.drive_s {t1 - t0:.3f}\n",
            f"phase.format_s {t2 - t1:.3f}\n",
            f"format.python_fields {python_fields}\n",
            f"cpu_s {time.process_time():.3f}\n",
        ],
    )
    try:
        writer.flush()
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3

    failed = [r for r in records if not r.passed]
    try:
        for rec in records:
            flag = "PASS" if rec.passed else "FAIL"
            rel = "<=" if rec.kind == "le" else ">="
            print(f"{flag} {rec.name}: {_fmt(rec.value)} {rel} {_fmt(rec.tolerance)}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has exited; the files have landed, so the
        # checks still decide the exit code.  Python flushes stdout again at
        # exit, so point it at the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
