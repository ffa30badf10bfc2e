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
  17-significant-digit floats;
* ``run.log`` — timestamp, invocation echo and phase timings.  The log is
  the only file with wall-clock content, so manifest and CSVs are
  byte-identical across reruns with the same config and seed, for any
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
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .analysis import (
    doob_semigroup_check,
    doob_semigroup_check_N,
    pushforward_experiment_cayley,
    pushforward_experiment_kelvin,
    tdist_experiment,
)
from .operators import TestFunction, exp_jet, gauge_jet, sphere_basket
from .sde import (
    SimConfig,
    sim_full_h,
    sim_hproc,
    sim_Nproc,
    sim_radial_h,
    sim_radial_s,
)
from .verify import CheckRecord, verify_geometry, verify_operators

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

# the simulation keys (``SimConfig`` fields) of the simulators, by the
# guards and absorption floor they read, and of the experiments, which set
# the horizon of each of their runs from their own keys
_FREE = {"n": 1, "step": 1e-3, "horizon": 1.0, "paths": 20_000, "seed": 1, "workers": 1}
_GUARDED = {**_FREE, "r_floor": 1e-6, "tame": 4.0}
_ABSORBING = {**_GUARDED, "pole_eps": 1e-3}
_EXPERIMENT = {k: v for k, v in _ABSORBING.items() if k != "horizon"}

# every command with the defaults of every key it reads; ``out`` defaults to
# ``<group>_<target>_out`` and ``tol.<check>`` overrides are taken by the
# verify commands only
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
    ("simulate", "radial-h"): {**_GUARDED, "x0_r": 0.0, "x0_t": 0.0, "record": ()},
    ("simulate", "radial-s"): {**_GUARDED, "x0_r": 0.0, "x0_t": 0.0, "record": ()},
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


def resolve_config(command: tuple[str, str], raw: dict[str, str]) -> tuple[dict, dict[str, float]]:
    """Typed config plus tolerance overrides from raw key=value strings."""
    group, target = command
    defaults = {**COMMANDS[command], "out": f"{group}_{target}_out"}
    cfg = dict(defaults)
    tol: dict[str, float] = {}
    for key, value in raw.items():
        if group == "verify" and key.startswith("tol."):
            try:
                tol[key[4:]] = _parse_float(value)
            except ValueError as e:
                raise ConfigError(f"bad tolerance override {key}={value!r} ({e})") from e
            continue
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r} for {group} {target}")
        try:
            cfg[key] = _PARSERS[type(defaults[key])](value)
        except ValueError as e:
            raise ConfigError(f"bad value for {key}: {value!r} ({e})") from e
    return cfg, tol


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


# rows per formatted chunk: bounds the Python objects alive at once
CSV_CHUNK_ROWS = 4096

# CSV template field per column kind: same text as ``_fmt`` per value
_CSV_FIELDS = {"i": "%d", "u": "%d", "f": "%.17g", "U": "%s"}


def _csv_field(name: str, col: np.ndarray) -> str:
    kinds = {col.dtype.kind}
    if col.dtype.kind == "O":
        # a column built from a Python sequence takes the kind of its values
        kinds = {np.asarray(v).dtype.kind for v in col.tolist()}
    if len(kinds) > 1:
        raise TypeError(f"CSV column {name!r} mixes value kinds {sorted(kinds)}")
    kind = kinds.pop() if kinds else "U"
    if kind not in _CSV_FIELDS:
        raise TypeError(f"CSV column {name!r} has unsupported values ({col.dtype})")
    return _CSV_FIELDS[kind]


def _csv_chunks(header: list[str], columns) -> list[str]:
    """CSV text: the header line, then the rows of ``columns`` (one 1-D array
    or sequence per header name) in chunks of ``CSV_CHUNK_ROWS`` rows.

    One row template serves every row, with a field per column: ``%d`` for
    integers, ``%.17g`` for floats and ``%s`` for strings, so each value
    prints as ``_fmt`` prints it.  A column that mixes these kinds, or holds
    anything else (booleans included), is an error."""
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} CSV header names for {len(columns)} columns")
    cols = [c if isinstance(c, np.ndarray) else np.asarray(c, dtype=object) for c in columns]
    if any(c.ndim != 1 for c in cols) or len({len(c) for c in cols}) > 1:
        raise ValueError("CSV columns must be 1-D and of one length")
    template = ",".join(_csv_field(name, c) for name, c in zip(header, cols)) + "\n"
    out = [",".join(header) + "\n"]
    for lo in range(0, len(cols[0]) if cols else 0, CSV_CHUNK_ROWS):
        part = [c[lo:lo + CSV_CHUNK_ROWS].tolist() for c in cols]
        out.append("".join(map(template.__mod__, zip(*part))))
    return out


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


def _apply_tol(records: list[CheckRecord], tol: dict[str, float]) -> list[CheckRecord]:
    known = {r.name for r in records}
    for name in tol:
        if name not in known:
            raise ConfigError(f"tolerance override for unknown check {name!r}")
    return [replace(r, tolerance=tol.get(r.name, r.tolerance)) for r in records]


# ---------------------------------------------------------------------------
# command drivers (each returns manifest records, manifest extras and data
# files as {name: (header, columns)}; ``main`` formats the CSVs)


def _drive_verify(target: str, cfg: dict) -> tuple[list[CheckRecord], dict, dict]:
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
    parts = [(u, route, rep[u]["samples"][route]) for u in rep["u_grid"] for route in ("A", "B")]
    sizes = [len(sam["r"]) for _, _, sam in parts]
    return [
        np.repeat([u for u, _, _ in parts], sizes),
        np.repeat([route for _, route, _ in parts], sizes),
        *(np.concatenate([sam[name] for _, _, sam in parts]) for name in ("r", coord, "gauge")),
    ]


def _law_records(tag: str, rec: dict, coords, records: list, extra: dict):
    """Append one level's KS record per coordinate in ``coords`` (its slack
    is 0.02 over the 1% critical value) and its drop-gap record."""
    for name in coords:
        tol = rec[f"crit_{name}"] + 0.02
        records.append(CheckRecord(f"{tag}_ks_{name}", rec[f"ks_{name}"], tol))
        extra[f"result.{tag}_p_{name}"] = rec[f"p_{name}"]
    records.append(CheckRecord(f"{tag}_drop_gap", rec["drop_gap"], rec["drop_tol"]))


def _drive_cayley(cfg: dict) -> tuple[list[CheckRecord], dict, dict]:
    sim = _sim_config(cfg)
    rep = pushforward_experiment_cayley(
        (cfg["x0_r"], cfg["x0_t"]), cfg["u_grid"], sim, horizon_a=cfg["horizon_a"]
    )
    records: list[CheckRecord] = []
    extra: dict = {}
    for j, u in enumerate(rep["u_grid"]):
        tag, rec = f"cayley_u{j}", rep[u]
        _law_records(tag, rec, ("r", "th", "gauge"), records, extra)
        extra[f"result.{tag}_dropA"] = rec["dropA"]
        extra[f"result.{tag}_dropB"] = rec["dropB"]
    files = {"samples.csv": (["u", "route", "r", "theta", "gauge"], _sample_columns(rep, "th"))}
    return records, extra, files


def _drive_kelvin(cfg: dict) -> tuple[list[CheckRecord], dict, dict]:
    sim = _sim_config(cfg)
    x0 = (cfg["x0_r"], cfg["x0_t"])
    records: list[CheckRecord] = []
    extra: dict = {}
    files: dict = {}
    for orientation in ("image", "preimage"):
        rep = pushforward_experiment_kelvin(
            x0, cfg["u_grid"], sim, orientation=orientation, horizon_a=cfg["horizon_a"]
        )
        for j, u in enumerate(rep["u_grid"]):
            tag, rec = f"kelvin_{orientation}_u{j}", rep[u]
            if orientation == "image":
                _law_records(tag, rec, ("r", "t", "gauge"), records, extra)
            else:
                # negative control: the mismatch must be LARGE for the run to pass
                records.append(CheckRecord(f"{tag}_separation", rec["ks_r"], 0.1, kind="ge"))
                law_ok = rec["ks_r"] <= rec["crit_r"] + 0.02
                extra[f"note.{tag}_law"] = (
                    "FAIL (expected: negative control)" if not law_ok else "PASS (unexpected)"
                )
                extra[f"result.{tag}_ks_r"] = rec["ks_r"]
        files[f"samples_{orientation}.csv"] = (
            ["u", "route", "r", "t", "gauge"], _sample_columns(rep, "t")
        )
    return records, extra, files


def _drive_tdist(cfg: dict) -> tuple[list[CheckRecord], dict, dict]:
    sim = _sim_config(cfg)
    rep = tdist_experiment(cfg["ts"], sim, x0=(cfg["x0_r"], cfg["x0_t"]))
    curve = rep["curve"]
    records = [
        CheckRecord("tdist_sup_gap", rep["sup_gap"], 0.03),
        CheckRecord("tdist_s0_exact", abs(float(curve.s_hat[curve.ts == 0.0][0]) - 1.0) if np.any(curve.ts == 0.0) else 0.0, 0.0),
    ]
    extra = {"result.capped_mass": curve.capped_mass}
    ecdf = rep["ecdf"]
    gap = np.where(curve.ts > 0, np.abs(ecdf - (1.0 - curve.s_hat)), 0.0)
    files = {
        "survival.csv": (
            ["t", "s_hat", "se", "absorb_ecdf", "gap"],
            [curve.ts, curve.s_hat, curve.se, ecdf, gap],
        )
    }
    return records, extra, files


def _semigroup_result(label: str, side: str, func: str, t: float, res: dict):
    """Check record and ``semigroup.csv`` row of one semigroup comparison."""
    cond, weighted = res["conditioned"], res["weighted"]
    record = CheckRecord(f"semigroup_{label}_t{_fmt(t)}", res["gap"], res["tol"])
    row = (side, func, t, cond.value, cond.std_error, weighted.value, weighted.std_error,
           res["gap"], res["tol"])
    return record, row


def _drive_semigroup(cfg: dict) -> tuple[list[CheckRecord], dict, dict]:
    sim = _sim_config(cfg)
    x = (cfg["x0_r"], cfg["x0_t"])
    results = [
        _semigroup_result(f.name, "sphere", f.name, t, doob_semigroup_check(f, x, t, sim))
        for f in sphere_basket()
        for t in cfg["t_grid"]
    ]
    expN = TestFunction("expN", lambda u, v: exp_jet(gauge_jet(u, v), -1.0))
    res = doob_semigroup_check_N(expN, (cfg["xn_r"], cfg["xn_t"]), cfg["tn"], sim)
    results.append(_semigroup_result("N_expN", "heis", "expN", cfg["tn"], res))
    records, rows = zip(*results)
    files = {
        "semigroup.csv": (
            ["side", "func", "t", "conditioned", "conditioned_se", "weighted", "weighted_se", "gap", "tol"],
            list(zip(*rows)),
        )
    }
    return list(records), {}, files


def _default_record(sim: SimConfig) -> tuple[float, ...]:
    ks = sorted({int(round(i * sim.steps / 10)) for i in range(11)})
    return tuple(k * sim.step for k in ks)


def _drive_simulate(target: str, cfg: dict) -> tuple[list[CheckRecord], dict, dict]:
    sim = _sim_config(cfg)
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
        if ens.alive is not None:
            header += ["absorbed", "absorption_time"]
            columns += [
                (~ens.alive).T.ravel().astype(np.int8),
                np.repeat(ens.death_time, len(ens.times)),
            ]
    # one row per (path, record time), path-major
    header = ["path", "time"] + header
    paths, times = np.arange(ens.paths), ens.times
    columns = [np.repeat(paths, len(times)), np.tile(times, ens.paths)] + columns
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
        cfg, tol = resolve_config(command, raw)
        _sim_config(cfg)  # validate the simulation keys (a verify seed too) up front
        writer = RunWriter(cfg["out"])

        t0 = time.perf_counter()
        # drivers are looked up by name on each call, so one replaced on the
        # module is the one that runs: ``_drive_<target>(cfg)`` for an
        # experiment, ``_drive_<group>(target, cfg)`` otherwise
        if group == "experiment":
            records, extra, files = globals()[f"_drive_{target}"](cfg)
        else:
            records, extra, files = globals()[f"_drive_{group}"](target, cfg)
        records = _apply_tol(records, tol)
        t1 = time.perf_counter()
    except ValueError as e:
        # library preconditions (bad start point, bad grid, ...) are config
        # errors from the runner's point of view
        print(f"config error: {e}", file=sys.stderr)
        return 2
    csvs = {name: _csv_chunks(header, columns) for name, (header, columns) in files.items()}
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
