"""Runner behaviour: config plumbing, exit taxonomy, file formats,
reproducibility."""

import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heisenpaths.cli import (
    COMMANDS,
    CSV_CHUNK_ROWS,
    CSV_NAMES,
    Coded,
    ConfigError,
    _csv_chunks,
    _fmt,
    main,
    resolve_config,
)
from heisenpaths.csvrows import float_rows


def read_manifest(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# exit taxonomy


def test_verify_geometry_default_passes(tmp_path, capsys):
    code = main(["verify", "geometry", "--out", str(tmp_path / "g")])
    assert code == 0
    assert "PASS kelvin_involution" in capsys.readouterr().out
    man = read_manifest(tmp_path / "g" / "manifest.txt")
    assert man["test.kelvin_involution.pass"] == "true"
    assert man["meta.command"] == "verify geometry"


def test_corrupted_tolerance_fails_named_check(tmp_path, capsys, monkeypatch):
    # no verify check fails at its own bound, so the suite is replaced by
    # one record whose tolerance the value exceeds
    from heisenpaths import cli

    record = cli.CheckRecord("chart_roundtrip_fwd", 1e-16, 1e-30)
    monkeypatch.setattr(cli, "verify_geometry", lambda seed: [record])
    assert main(["verify", "geometry", "--out", str(tmp_path / "g")]) == 1
    assert "FAIL chart_roundtrip_fwd" in capsys.readouterr().out
    man = read_manifest(tmp_path / "g" / "manifest.txt")
    assert man["test.chart_roundtrip_fwd.pass"] == "false"
    assert man["test.chart_roundtrip_fwd.tolerance"] == "%.17g" % 1e-30


def test_unknown_key_rejected(tmp_path, capsys):
    assert main(["verify", "geometry", "--out", str(tmp_path / "g"), "bogus=1"]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("item", ["n=0", "workers=0"])
def test_bad_n_rejected(tmp_path, capsys, item):
    out = tmp_path / "r"
    assert main(["simulate", "radial-h", "paths=2", "horizon=0.002", item, "--out", str(out)]) == 2
    key, _, value = item.partition("=")
    assert f"{key} must be a positive integer, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_horizon_off_the_step_grid_names_horizon_and_step(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["simulate", "radial-h", "horizon=0.0015", "paths=4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "horizon 0.0015" in err and "step=0.001" in err
    assert not out.exists()


def test_missing_out_parent(tmp_path):
    target = tmp_path / "not" / "there" / "run"
    assert main(["verify", "geometry", "--out", str(target)]) == 2


def test_unknown_tolerance_name(tmp_path):
    assert main(["verify", "geometry", "--out", str(tmp_path / "g"), "tol.nope=1"]) == 2


def test_bad_subcommand_usage_error():
    with pytest.raises(SystemExit) as e:
        main(["verify", "nonsense"])
    assert e.value.code == 2


def test_too_few_law_samples_is_config_error(tmp_path, capsys):
    # 8 paths cannot give 10 samples on a route at the level
    argv = ["experiment", "cayley", "paths=8", "step=5e-3", "horizon_a=5", "--seed", "1"]
    assert main(argv + ["--out", str(tmp_path / "c")]) == 2
    assert "config error: need at least 10 samples on each side" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, where",
    [
        ("cayley", "got 8 and 8 (route A, route B) on the cayley clock at level u=0.3"),
        ("kelvin", "got 7 and 8 (route A, route B) on the kelvin_image clock at level u=0.2"),
    ],
)
def test_too_few_law_samples_names_the_counts_clock_and_level(tmp_path, capsys, experiment, where):
    argv = ["experiment", experiment, "paths=8", "step=5e-3", "horizon_a=5", "--seed", "1"]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    assert f"config error: need at least 10 samples on each side, {where}\n" in capsys.readouterr().err


def test_start_outside_the_map_domain_fails_before_simulating(tmp_path, capsys, monkeypatch):
    # the gauge inversion is undefined at the origin: the start must be
    # rejected by name before route A steps a single path
    from heisenpaths import analysis

    def no_route_a(*args, **kwargs):
        raise AssertionError("route A was simulated")

    monkeypatch.setattr(analysis, "sim_radial_h", no_route_a)
    out = tmp_path / "k"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["experiment", "kelvin", "x0_r=0", "x0_t=0", "--out", str(out)]) == 2
    assert not caught
    assert "kelvin_radial cannot map the start point (0.0, 0.0)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target, chart", [("cayley", "cayley1_chart"), ("kelvin", "kelvin_radial")])
def test_start_mapped_into_route_b_absorption_fails_before_route_a(tmp_path, capsys, monkeypatch, target, chart):
    # a far start maps next to route B's absorbing point: route B rejects it
    # before route A steps a single path, and the message names the start,
    # the map and the mapped point
    from heisenpaths import analysis

    def no_route_a(*args, **kwargs):
        raise AssertionError("route A was simulated")

    monkeypatch.setattr(analysis, "sim_radial_h", no_route_a)
    out = tmp_path / target
    assert main(["experiment", target, "x0_r=1000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{chart} maps the start point (1000.0, 0.0) to (0.00" in err
    assert "inside the absorption region" in err
    assert not out.exists()


@pytest.mark.parametrize("target", ["cayley", "kelvin"])
@pytest.mark.parametrize("grid", ["0.3001", "0.1,0.3001", "-0.1", "0.3,0.3"])
def test_level_off_the_step_grid_names_u_grid_and_step(tmp_path, capsys, monkeypatch, target, grid):
    # route B records at each level, so a level must sit on the step grid;
    # the message names the keys the experiment takes, not its runs' horizon
    from heisenpaths import analysis

    def no_route(*args, **kwargs):
        raise AssertionError("a route was simulated")

    for name in ("sim_radial_h", "sim_hproc", "sim_Nproc"):
        monkeypatch.setattr(analysis, name, no_route)
    out = tmp_path / target
    assert main(["experiment", target, f"u_grid={grid}", "paths=100", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "u_grid level" in err and "step=0.001" in err and "horizon" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "target, horizon_a, named",
    [
        ("cayley", "1.001", "horizon 1.001 is not a positive whole number of steps of step=0.002"),
        ("cayley", "0.001", "horizon 0.001 is not a positive whole number of steps of step=0.002"),
        ("kelvin", "100000", "more than 1e7 steps requested: horizon 100000.0 at step=0.002"),
    ],
)
def test_route_a_horizon_off_the_step_grid_names_horizon_a_and_step(
    tmp_path, capsys, monkeypatch, target, horizon_a, named
):
    # route A runs to horizon_a: its run is configured before route B runs,
    # so a horizon_a that does not suit step fails, by name, before either
    # route steps a path
    from heisenpaths import analysis

    def no_route(*args, **kwargs):
        raise AssertionError("a route was simulated")

    for name in ("sim_radial_h", "sim_hproc", "sim_Nproc"):
        monkeypatch.setattr(analysis, name, no_route)
    out = tmp_path / target
    argv = ["experiment", target, "paths=200", "step=2e-3", f"horizon_a={horizon_a}", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"horizon_a={float(horizon_a)!r}" in err and "step=0.002" in err and named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "target, bad, named",
    [
        ("tdist", "ts=0.0005", "ts time 0.0005"),
        ("tdist", "ts=0.25,0.25", "duplicate ts time 0.25"),
        ("tdist", "ts=0.00051,1", "ts time 0.00051"),
        ("semigroup", "t_grid=0", "t_grid time 0.0"),
        ("semigroup", "tn=0.0004", "tn 0.0004"),
    ],
)
def test_time_off_the_step_grid_names_its_key_and_step(tmp_path, capsys, monkeypatch, target, bad, named):
    # each time is a record time or the horizon of a run, so it must sit on
    # the step grid; the message names the key and step, not a run's
    # horizon, and no simulator runs first
    from heisenpaths import analysis

    def no_run(*args, **kwargs):
        raise AssertionError("a simulator ran")

    for name in ("sim_radial_h", "sim_radial_s", "sim_hproc", "sim_Nproc"):
        monkeypatch.setattr(analysis, name, no_run)
    out = tmp_path / target
    assert main(["experiment", target, bad, "paths=100", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert named in err and "step=0.001" in err and "horizon" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "bad, named",
    [
        (["xn_r=0"], "xn_r, xn_t = (0.0, 0.0) lies inside the absorption region"),
        (["x0_r=0", "x0_t=3.14159"], "x0_r, x0_t = (0.0, 3.14159) lies inside the absorption region"),
        (["xn_r=-1"], "xn_r, xn_t radial coordinate must be nonnegative"),
        (["x0_r=2"], "x0_r, x0_t radial coordinate must lie in [0, pi/2)"),
    ],
)
def test_semigroup_start_names_its_keys_before_either_side_runs(tmp_path, capsys, monkeypatch, bad, named):
    # a bad group-side start fails before the sphere side runs, and the
    # message names the keys of the start, not a simulator's argument
    from heisenpaths import analysis

    def no_run(*args, **kwargs):
        raise AssertionError("a simulator ran")

    for name in ("sim_radial_h", "sim_radial_s", "sim_hproc", "sim_Nproc"):
        monkeypatch.setattr(analysis, name, no_run)
    out = tmp_path / "s"
    assert main(["experiment", "semigroup", "paths=200", "step=5e-3", *bad, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_experiment_horizon_is_not_checked_against_step(tmp_path):
    # each experiment run sets its own horizon, so a step that does not
    # divide the old default horizon of 1 is no config error
    out = tmp_path / "c"
    argv = ["experiment", "cayley", "step=3e-3", "horizon_a=24", "paths=400", "--seed", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    assert "config.horizon" not in read_manifest(out / "manifest.txt")


def test_bad_start_point_is_config_error(tmp_path):
    code = main(
        ["simulate", "nproc", "--out", str(tmp_path / "s"), "x0_r=0.0001", "x0_t=0",
         "paths=8", "horizon=0.01"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "target, x0_r",
    [("hproc", "2.0"), ("hproc", "-0.5"), ("nproc", "-1"), ("radial-s", "2.0"), ("radial-h", "-1")],
)
def test_start_radius_outside_domain_is_config_error(tmp_path, capsys, target, x0_r):
    # [0, pi/2) on the sphere side, [0, inf) on the Heisenberg side
    out = tmp_path / "o"
    argv = ["simulate", target, "paths=8", "horizon=0.01", f"x0_r={x0_r}", "--out", str(out)]
    assert main(argv) == 2
    assert "x0 radial coordinate" in capsys.readouterr().err
    assert not out.exists()


def _config_error(command, bad, message="finite"):
    return pytest.param(command, bad, message, id=f"{command}-{bad}")


@pytest.mark.parametrize(
    "command, bad, message",
    [
        _config_error("simulate radial-h", "horizon=inf"),
        _config_error("simulate radial-h", "paths=inf"),
        _config_error("simulate radial-h", "x0_r=nan"),
        _config_error("simulate radial-h", "x0_t=inf"),
        _config_error("simulate radial-h", "record=0,inf"),
        # on the step grid, but past the horizon of 0.01
        _config_error("simulate radial-h", "record=0.02", "record time 0.02 lies beyond the horizon 0.01"),
        _config_error("simulate hproc", "record=nan"),
        _config_error("experiment cayley", "horizon_a=inf"),
        _config_error("experiment cayley", "u_grid=0.1,nan"),
        _config_error("experiment kelvin", "u_grid=inf"),
        _config_error("experiment tdist", "ts=0,inf"),
        _config_error("verify geometry", "seed=nan"),
    ],
)
def test_non_finite_value_is_config_error(tmp_path, capsys, command, bad, message):
    out = tmp_path / "o"
    # later overrides win, so the bad value replaces the small defaults of
    # the keys the command takes
    keys = COMMANDS[tuple(command.split())]
    small = [item for item in ("paths=8", "horizon=0.01") if item.partition("=")[0] in keys]
    argv = command.split() + small + [bad, "--out", str(out)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


RADIAL_H = ["simulate", "radial-h", "paths=2", "horizon=0.002"]


@pytest.mark.parametrize(
    "argv",
    [
        [*RADIAL_H, "--seed", "-1"],
        [*RADIAL_H, "seed=-1"],
        [*RADIAL_H, "seed=18446744073709551616"],
        [*RADIAL_H, "seed=9007199254740993.0"],  # a float literal would round to 2**53
        [*RADIAL_H, "seed=1.5"],
        # verify takes no other simulation key, yet range-checks its seed
        ["verify", "geometry", "--seed", "-1"],
        ["verify", "geometry", "seed=18446744073709551616"],
    ],
)
def test_bad_seed_is_config_error(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_verify_has_no_workers_flag(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["verify", "geometry", "--workers", "2", "--out", str(tmp_path / "o")])
    assert e.value.code == 2


@pytest.mark.parametrize("seed", ["9007199254740993", str(2**64 - 1)])
def test_large_seed_parses_exactly(tmp_path, seed):
    out = tmp_path / "o"
    argv = ["simulate", "radial-h", "paths=2", "horizon=0.002", f"seed={seed}", "--out", str(out)]
    assert main(argv) == 0
    assert read_manifest(out / "manifest.txt")["config.seed"] == seed


# ---------------------------------------------------------------------------
# key types: declared here on their own, so a default written with the wrong
# type (``4`` for ``4.0``) changes what its key accepts and fails a case

INT_KEYS = {"n", "paths", "seed", "workers"}
LIST_KEYS = {"u_grid", "ts", "t_grid", "record"}
STR_KEYS = {"out"}


# simulation keys that these commands do not read, and so reject as unknown
DROPPED = [
    *[(c, k) for c in COMMANDS if c[0] == "verify"
      for k in ("n", "step", "horizon", "paths", "pole_eps", "workers")],
    *[(c, "horizon") for c in COMMANDS if c[0] == "experiment"],
    *[(("simulate", t), "pole_eps") for t in ("full-h", "radial-h", "radial-s")],
    # the guards of the tamed scheme are constants, sde.TAME and sde.R_FLOOR
    *[(c, k) for c in COMMANDS for k in ("r_floor", "tame")],
]


def test_settable_keys_per_command():
    counts = {" ".join(c): len(resolve_config(c, {})) for c in COMMANDS}
    assert counts == {
        "verify geometry": 2, "verify operators": 2,
        "experiment cayley": 11, "experiment kelvin": 11,
        "experiment tdist": 10, "experiment semigroup": 13,
        "simulate full-h": 9, "simulate radial-h": 10, "simulate radial-s": 10,
        "simulate hproc": 11, "simulate nproc": 11,
    }
    assert sum(counts.values()) == 100 and len(set(DROPPED)) == 41


@pytest.mark.parametrize(
    "command, key",
    [(c, k) for c in COMMANDS for k in [*COMMANDS[c], "out"]] + DROPPED,
    ids=lambda v: "-".join(v) if isinstance(v, tuple) else v,
)
def test_key_parses_by_its_kind(command, key, tmp_path, capsys):
    """Each key a command takes parses by the type of its default; each
    ``DROPPED`` key is unknown to its command and exits 2."""
    if (command, key) in DROPPED:
        out = tmp_path / "o"
        assert main([*command, f"{key}=1", "--out", str(out)]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()
    elif key in INT_KEYS:
        assert resolve_config(command, {key: "2"})[key] == 2
        with pytest.raises(ConfigError):
            resolve_config(command, {key: "1.5"})
    elif key in LIST_KEYS:
        assert resolve_config(command, {key: "0.1,0.2"})[key] == (0.1, 0.2)
    elif key in STR_KEYS:
        assert resolve_config(command, {key: "runs/x"})[key] == "runs/x"
    else:
        assert resolve_config(command, {key: "0.5"})[key] == 0.5
        with pytest.raises(ConfigError):
            resolve_config(command, {key: "0.1,0.2"})


# the verify commands included: each check's bound is set in verify.py alone
@pytest.mark.parametrize("command", list(COMMANDS), ids=" ".join)
def test_tolerance_override_outside_verify_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "o"
    assert main([*command, "tol.tdist_sup_gap=1", "--out", str(out)]) == 2
    assert "unknown config key 'tol.tdist_sup_gap'" in capsys.readouterr().err
    assert not out.exists()


def test_default_out_is_group_target_out():
    for group, target in COMMANDS:
        assert resolve_config((group, target), {})["out"] == f"{group}_{target}_out"


# ---------------------------------------------------------------------------
# config file plumbing


def test_config_file_and_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# comment line\n"
        "\n"
        "paths = 16\n"
        "seed = 5\n"
        "horizon = 0.02\n"
        "step = 2e-3\n"
    )
    out = tmp_path / "r"
    code = main(
        ["simulate", "radial-h", "--config", str(cfgfile), "--out", str(out),
         "--seed", "9", "paths=24"]
    )
    assert code == 0
    man = read_manifest(out / "manifest.txt")
    assert man["config.seed"] == "9"  # flag beats file
    assert man["config.paths"] == "24"  # positional beats file
    assert man["config.horizon"] == "%.17g" % 0.02


def test_config_file_missing(tmp_path):
    assert main(["simulate", "radial-h", "--config", str(tmp_path / "no.cfg")]) == 2


def test_malformed_config_line(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("paths 16\n")
    assert main(["simulate", "radial-h", "--config", str(bad)]) == 2


# ---------------------------------------------------------------------------
# CSV schemas


def test_radial_h_csv_path_ids(tmp_path):
    out = tmp_path / "r"
    assert main(
        ["simulate", "radial-h", "--out", str(out), "paths=10", "horizon=0.02", "step=2e-3"]
    ) == 0
    header, rows = read_csv(out / "paths.csv")
    assert header == ["path", "time", "r", "t"]
    assert {int(float(r[0])) for r in rows} == set(range(10))


def test_full_h_n2_five_state_columns(tmp_path):
    out = tmp_path / "f"
    assert main(
        ["simulate", "full-h", "--out", str(out), "n=2", "paths=4", "horizon=0.02", "step=2e-3"]
    ) == 0
    header, rows = read_csv(out / "paths.csv")
    assert header == ["path", "time", "z1_re", "z1_im", "z2_re", "z2_im", "t"]
    assert len(header) - 2 == 5


def test_hproc_csv_absorption_columns(tmp_path):
    out = tmp_path / "h"
    assert main(
        ["simulate", "hproc", "--out", str(out), "paths=32", "horizon=1.0",
         "step=5e-3", "pole_eps=0.05", "x0_r=0.2", "x0_t=2.5"]
    ) == 0
    header, rows = read_csv(out / "paths.csv")
    assert header[-2:] == ["absorbed", "absorption_time"]
    flags = {r[-2] for r in rows}
    assert flags <= {"0", "1"}
    # an absorbed row carries a finite absorption time, a live one inf
    for r in rows:
        if r[-2] == "1":
            assert float(r[-1]) <= 1.0
    man = read_manifest(out / "manifest.txt")
    assert "result.absorbed_fraction" in man


def test_radial_s_csv(tmp_path):
    out = tmp_path / "s"
    assert main(
        ["simulate", "radial-s", "--out", str(out), "paths=6", "horizon=0.02",
         "step=2e-3", "x0_r=0.7", "x0_t=1.0"]
    ) == 0
    header, _ = read_csv(out / "paths.csv")
    assert header == ["path", "time", "r", "theta"]


def test_tdist_survival_csv_starts_at_one(tmp_path):
    out = tmp_path / "t"
    assert main(
        ["experiment", "tdist", "--out", str(out), "paths=2000", "step=2e-3",
         "ts=0,0.25,0.5"]
    ) == 0
    header, rows = read_csv(out / "survival.csv")
    assert header == ["t", "s_hat", "se", "absorb_ecdf", "gap"]
    assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 1.0


# ---------------------------------------------------------------------------
# CSV formatting


def reference_csv(header, columns):
    """Row-by-row text, ``_fmt`` per value: what the column formatter must
    reproduce byte for byte."""
    lines = [",".join(header) + "\n"]
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row) + "\n")
    return "".join(lines)


EDGE_FLOATS = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308, 0.1]


@pytest.mark.parametrize(
    "rows", [0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 3]
)
def test_csv_chunks_match_fmt_per_value(rows):
    rng = np.random.default_rng(rows)
    edge = np.resize(np.array(EDGE_FLOATS), rows)
    spread = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    columns = [
        np.arange(rows, dtype=np.int64) - rows // 2,        # numpy int64
        np.resize(np.array([-(2**63), 2**63 - 1, 0, -1, 10**18]), rows),  # int64 extremes
        np.resize(np.array([2**64 - 1, 0, 10**19], dtype=np.uint64), rows),  # uint64
        np.array([2**62 - i for i in range(rows)], dtype=np.int64),  # large int64
        (np.arange(rows) % 2).astype(np.int8),              # small ints
        edge,                                               # float64 edge values
        spread,                                             # float64 across exponents
        np.resize(np.array(["A", "B"]), rows),              # one-letter str
        np.resize(np.array(["sphere", "heis"]), rows),      # str of two widths
    ]
    header = [f"c{j}" for j in range(len(columns))]
    chunks, _ = _csv_chunks(header, columns)
    assert len(chunks) == 1 + -(-rows // CSV_CHUNK_ROWS)
    got, want = "".join(chunks), reference_csv(header, columns)
    if got != want:
        # name the first differing line: a diff of the whole text is slow
        pairs = zip(got.splitlines(keepends=True), want.splitlines(keepends=True))
        line, g, w = next((i, g, w) for i, (g, w) in enumerate(pairs) if g != w)
        pytest.fail(f"line {line}: {g!r} != {w!r}")


def expand(column: Coded) -> list:
    """The rows of a coded column, one value each."""
    values = list(column.values)
    return [values[c] for c in column.codes(np.arange(column.rows))]


@pytest.mark.parametrize(
    "rows", [0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 3]
)
def test_coded_columns_match_fmt_per_value(rows):
    # every value list ends in one that no row uses; runs of 3, 5 and 7
    # equal codes straddle each chunk boundary
    floats = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, 2.5])
    columns = [
        Coded(np.arange(rows // 11 + 2), rows, lambda i: i // 11),       # path ids
        Coded(floats, rows, lambda i: (i // 5) % 7),                     # float64 edges
        Coded(np.array([0.0, -0.0, 1e300]), rows, lambda i: (i % 2).astype(np.uint8)),  # uint8 codes
        Coded(np.array([2**62 - k for k in range(4)]), rows, lambda i: (i // 7) % 3),   # large ints
        Coded(np.array([0, 1, 2]), rows, lambda i: i % 2),               # small ints
        Coded(np.array(["A", "B", "C"]), rows, lambda i: (i // 3) % 2),  # one-letter str
        Coded(np.array(["sphere", "heis", "none"]), rows, lambda i: i % 2),  # str of two widths
        np.arange(rows) * 0.5,                                           # a plain column beside them
    ]
    header = [f"c{j}" for j in range(len(columns))]
    want = reference_csv(header, [expand(c) if isinstance(c, Coded) else c for c in columns])
    assert "".join(_csv_chunks(header, columns)[0]) == want
    if rows:
        assert "-0,0," in want and "0,-0," in want  # -0.0 and 0.0 print apart


@pytest.mark.parametrize("code", [-1, 3])
def test_coded_column_code_out_of_range_raises(code):
    column = Coded(np.array([1.0, 2.0, 3.0]), CSV_CHUNK_ROWS + 1, lambda i: np.where(i == CSV_CHUNK_ROWS, code, 0))
    with pytest.raises(IndexError):
        _csv_chunks(["x"], [column])


def test_coded_column_needs_one_integer_code_per_row():
    for codes in (lambda i: i % 2 == 0, lambda i: (i % 2).astype(float), lambda i: i[1:] % 2):
        with pytest.raises(TypeError):
            _csv_chunks(["x"], [Coded(np.array([1.0, 2.0]), 5, codes)])


def test_coded_column_length_counts_for_raggedness():
    with pytest.raises(ValueError):
        _csv_chunks(["a", "b"], [Coded(np.array([1.0]), 3, lambda i: i * 0), np.zeros(4)])


@pytest.mark.parametrize(
    "column",
    [
        np.array([1, 2.5], dtype=object),
        np.array(["a", 1.0], dtype=object),
        np.array([1, "a"], dtype=object),
        np.array([True, 1], dtype=object),
        np.array([True, False]),
    ],
)
def test_csv_chunks_reject_mixed_or_boolean_columns(column):
    # a column's dtype decides how it prints, so an object column is
    # rejected whatever it holds
    with pytest.raises(TypeError):
        _csv_chunks(["x"], [column])
    with pytest.raises(TypeError):
        _csv_chunks(["x"], [Coded(column, 1, lambda i: i * 0)])


def test_csv_chunks_reject_ragged_columns():
    with pytest.raises(ValueError):
        _csv_chunks(["a", "b"], [np.zeros(3), np.zeros(4)])


@pytest.mark.parametrize(
    "column", [np.array(["\0b"]), np.array(["a", "b\0c"]), np.array(["\0\0x", "y"]), np.array(["a\0b"])]
)
def test_csv_string_with_nul_is_rejected(column):
    # the byte rows are NUL-padded and every NUL is dropped, so a NUL in a
    # string would vanish from the file (numpy itself strips trailing NULs)
    with pytest.raises(ValueError, match="NUL"):
        _csv_chunks(["x"], [column])
    with pytest.raises(ValueError, match="NUL"):
        _csv_chunks(["x"], [Coded(column, 1, lambda i: i * 0)])


# ---------------------------------------------------------------------------
# the vectorized %.17g


def rendered(values) -> tuple[list[str], list[bool]]:
    """Text of each float as ``float_rows`` writes it, and whether ``%``
    formatted it."""
    rows, python = float_rows(np.asarray(values, dtype=np.float64))
    return [row[row != 0].tobytes().decode() for row in rows], python.tolist()


def certified(v: float) -> bool:
    """Whether ``float_rows`` formats ``v`` without ``%``: its certificate
    in exact arithmetic, from the same floating-point estimate of the
    exponent."""
    if v == 0:
        return True
    if not 1e-4 <= abs(v) < 1e16:
        return False
    k = int(np.floor(np.log10(np.array([abs(v)])))[0])
    scaled = Fraction(abs(v)) * Fraction(10) ** (16 - k)
    frac = scaled - math.floor(scaled)
    digits = math.floor(scaled) + (frac > Fraction(1, 2))
    return abs(frac - Fraction(1, 2)) >= Fraction(1e-6) and 10**16 <= digits < 10**17


def near_tie(r: int) -> float:
    """The float ``x`` in [1, 2) whose ``x * 10**16`` has the fraction
    ``1/2 + r / 2**36``."""
    m = (2**35 + r) * pow(5**16, -1, 2**36) % 2**36
    return (2**52 + m) / 2**52


# each edge of the certificate with the path it must take: "numpy" writes
# the text, "%" hands it to Python
FLOAT_EDGES = [
    (0.0, "numpy"), (-0.0, "numpy"),
    (math.nan, "%"), (math.inf, "%"), (-math.inf, "%"),
    (5e-324, "%"), (-2.2250738585072014e-308, "%"),  # subnormal, smallest normal
    (1e-4, "numpy"), (-1e-4, "numpy"), (math.nextafter(1e-4, 0), "%"),  # exponent notation below
    (2.0**53, "numpy"), (-(2.0**53), "numpy"), (1e16, "%"),  # ... and from 1e16 up
    (1 + 2**-17, "%"), (1 + 3 * 2**-17, "%"), (1e15 + 0.25, "%"), (1e15 + 0.75, "%"),  # exact ties
    (near_tie(68719), "%"), (near_tie(-68719), "%"),  # within 1e-6 of a tie
    (near_tie(68720), "numpy"), (near_tie(-68720), "numpy"),  # just outside
    (0.1, "numpy"), (-123.456, "numpy"), (0.00012, "numpy"),
]

# where the estimate of the exponent may be one off, which the digit count
# catches: powers of ten and their neighbours
POWERS_NEAR = [f(10.0**j) for j in range(-4, 17) for f in (
    lambda v: v, lambda v: math.nextafter(v, 0), lambda v: math.nextafter(v, math.inf)
)]


def with_examples(values):
    def apply(test):
        for v in values:
            test = example(v)(test)
        return test
    return apply


@settings(max_examples=500)
@given(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, dtype=np.uint64).view(np.float64))),
))
@with_examples([v for v, _ in FLOAT_EDGES] + POWERS_NEAR)
def test_float_rows_match_percent_g(v):
    (text,), (python,) = rendered([v])
    assert text == "%.17g" % v
    assert python == (not certified(v))


@pytest.mark.parametrize("value, path", FLOAT_EDGES, ids=[repr(v) for v, _ in FLOAT_EDGES])
def test_float_certificate_edges_take_their_path(value, path):
    (text,), (python,) = rendered([value])
    assert text == "%.17g" % value
    assert ("%" if python else "numpy") == path == ("numpy" if certified(value) else "%")


def test_float_rows_batch_matches_one_by_one():
    # one chunk of every edge and neighbour, each value in its own row
    values = [v for v, _ in FLOAT_EDGES] + POWERS_NEAR
    texts, python = rendered(values)
    assert texts == ["%.17g" % v for v in values]
    assert python == [not certified(v) for v in values]


# ---------------------------------------------------------------------------
# experiments through the runner


def test_kelvin_manifest_shows_both_orientations(tmp_path):
    out = tmp_path / "k"
    code = main(
        ["experiment", "kelvin", "--out", str(out), "paths=1000", "step=2e-3",
         "horizon_a=25"]
    )
    assert code == 0  # the preimage law split is the expected outcome
    man = read_manifest(out / "manifest.txt")
    assert man["test.kelvin_image_u0_ks_r.pass"] == "true"
    assert man["test.kelvin_preimage_u0_separation.pass"] == "true"
    assert man["note.kelvin_preimage_u0_law"].startswith("FAIL")
    assert (out / "samples_image.csv").exists()
    assert (out / "samples_preimage.csv").exists()


def test_semigroup_csv(tmp_path):
    out = tmp_path / "sg"
    assert main(
        ["experiment", "semigroup", "--out", str(out), "paths=2000", "step=2e-3",
         "t_grid=0.25"]
    ) == 0
    header, rows = read_csv(out / "semigroup.csv")
    assert header[:3] == ["side", "func", "t"]
    sides = {r[0] for r in rows}
    assert sides == {"sphere", "heis"}


def test_semigroup_runs_one_conditioned_and_one_free_process_per_side(tmp_path, monkeypatch):
    # every function and time of a side is read from one pair of runs, each
    # recorded at every time of that side
    from heisenpaths import analysis

    calls = []
    for name in ("sim_radial_h", "sim_radial_s", "sim_hproc", "sim_Nproc"):

        def counted(*args, _name=name, _sim=getattr(analysis, name), **kwargs):
            calls.append((_name, tuple(kwargs["record_times"])))
            return _sim(*args, **kwargs)

        monkeypatch.setattr(analysis, name, counted)
    argv = ["experiment", "semigroup", "paths=200", "step=5e-3", "t_grid=0.5,0.25", "tn=0.25"]
    assert main(argv + ["--out", str(tmp_path / "sg")]) in (0, 1)
    assert sorted(calls) == [
        ("sim_Nproc", (0.25,)),
        ("sim_hproc", (0.5, 0.25)),
        ("sim_radial_h", (0.25,)),
        ("sim_radial_s", (0.5, 0.25)),
    ]


# a cheap run of every command
SMALL_RUNS = {
    ("verify", "geometry"): [],
    ("verify", "operators"): [],
    ("experiment", "cayley"): ["paths=200", "step=5e-3", "horizon_a=2"],
    ("experiment", "kelvin"): ["paths=200", "step=5e-3", "horizon_a=2"],
    ("experiment", "tdist"): ["paths=200", "step=5e-3", "ts=0,0.5"],
    ("experiment", "semigroup"): ["paths=200", "step=5e-3", "t_grid=0.25", "tn=0.25"],
    ("simulate", "full-h"): ["paths=4", "horizon=0.01", "step=5e-3"],
    ("simulate", "radial-h"): ["paths=4", "horizon=0.01", "step=5e-3"],
    ("simulate", "radial-s"): ["paths=4", "horizon=0.01", "step=5e-3"],
    ("simulate", "hproc"): ["paths=4", "horizon=0.01", "step=5e-3"],
    ("simulate", "nproc"): ["paths=4", "horizon=0.01", "step=5e-3"],
}


@pytest.mark.parametrize("target", ["cayley", "kelvin", "tdist", "semigroup"])
def test_experiment_manifest_checks_are_the_library_checks(target, tmp_path, monkeypatch):
    # the runner adds, drops and changes no check and sets no bound: the
    # manifest's test.* keys are exactly the checks the analysis functions
    # returned in the same run
    from heisenpaths import cli

    returned = []
    for name in ("pushforward_experiment_cayley", "pushforward_experiment_kelvin", "tdist_experiment",
                 "doob_semigroup_check", "doob_semigroup_check_N"):

        def spy(*args, _fn=getattr(cli, name), **kwargs):
            rep = _fn(*args, **kwargs)
            returned.extend(rep["checks"] if isinstance(rep, dict) else [res["check"] for res in rep])
            return rep

        monkeypatch.setattr(cli, name, spy)
    out = tmp_path / target
    assert main(["experiment", target, *SMALL_RUNS["experiment", target], "--out", str(out)]) in (0, 1)
    expected = {}
    for c in returned:
        fields = {"value": _fmt(c.value), "tolerance": _fmt(c.tolerance), "op": c.kind, "pass": _fmt(c.passed)}
        expected.update({f"test.{c.name}.{key}": value for key, value in fields.items()})
    man = read_manifest(out / "manifest.txt")
    assert returned and len(expected) == 4 * len(returned)
    assert {k: v for k, v in man.items() if k.startswith("test.")} == expected


@pytest.mark.parametrize("command", sorted(COMMANDS), ids="-".join)
def test_every_csv_a_command_writes_is_in_csv_names(command, tmp_path):
    assert set(SMALL_RUNS) == set(COMMANDS)
    out = tmp_path / "o"
    assert main([*command, *SMALL_RUNS[command], "--out", str(out)]) in (0, 1)
    written = {p.name for p in out.iterdir()} - {"manifest.txt", "run.log"}
    assert written <= set(CSV_NAMES)


def test_reused_out_holds_only_the_latest_runs_csvs(tmp_path):
    out = tmp_path / "o"
    assert main(["simulate", "radial-s", *SMALL_RUNS["simulate", "radial-s"], "--out", str(out)]) == 0
    assert (out / "paths.csv").exists()
    (out / "notes.txt").write_text("kept\n")
    assert main(["experiment", "tdist", "paths=2000", "step=2e-3", "ts=0,0.25,0.5",
                 "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"manifest.txt", "run.log", "survival.csv", "notes.txt"}
    assert (out / "notes.txt").read_text() == "kept\n"


def test_closed_stdout_keeps_the_check_exit_code(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "heisenpaths.cli", "experiment", "tdist", "paths=2000",
            "step=2e-3", "ts=0,0.25,0.5", "--out", str(tmp_path / "t")]
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the run prints
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (tmp_path / "t" / "manifest.txt").exists()


# ---------------------------------------------------------------------------
# reproducibility


def _run_tdist(out, workers):
    return main(
        ["experiment", "tdist", "--out", str(out), "paths=6000", "step=2e-3",
         "ts=0,0.25,0.5", "--workers", str(workers), "--seed", "42"]
    )


def test_byte_identity_across_reruns_and_workers(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert _run_tdist(a, 1) == 0
    assert _run_tdist(b, 1) == 0
    assert _run_tdist(c, 4) == 0
    for name in ("manifest.txt", "survival.csv"):
        ref = (a / name).read_bytes()
        assert (b / name).read_bytes() == ref
        assert (c / name).read_bytes() == ref
    # the log carries the wall clock and may differ
    assert (a / "run.log").exists()


def test_run_log_reports_phase_timings(tmp_path):
    out = tmp_path / "o"
    assert main(["simulate", "radial-h", "--out", str(out), "paths=16", "horizon=0.02",
                 "step=2e-3"]) == 0
    log = dict(line.split(" ", 1) for line in (out / "run.log").read_text().splitlines())
    drive, fmt, total = (float(log[k]) for k in ("phase.drive_s", "phase.format_s", "elapsed_s"))
    assert drive >= 0.0 and fmt >= 0.0
    # each printed to the millisecond
    assert abs(total - drive - fmt) <= 0.0015
    assert int(log["format.python_fields"]) >= 0
    # CPU of the whole process, all threads, since the interpreter started
    assert float(log["cpu_s"]) > 0.0


def test_run_log_counts_the_floats_left_to_percent(tmp_path):
    # two steps in, some |t| are below 1e-4, which %.17g writes in exponent
    # notation; no field of this run is a near-tie
    out = tmp_path / "o"
    assert main(["simulate", "radial-h", "--out", str(out), "paths=64", "horizon=0.02",
                 "step=2e-3", "record=0.002,0.004"]) == 0
    log = dict(line.split(" ", 1) for line in (out / "run.log").read_text().splitlines())
    _, rows = read_csv(out / "paths.csv")
    exponent = sum("e" in field for row in rows for field in row)
    assert int(log["format.python_fields"]) == exponent > 0


def test_write_failure_exits_3_and_leaves_no_partial_file(tmp_path, capsys):
    argv = ["simulate", "radial-h", "paths=16", "horizon=0.02", "step=2e-3"]
    ref = tmp_path / "ref"
    assert main(argv + ["--out", str(ref)]) == 0
    out = tmp_path / "o"
    (out / "paths.csv").mkdir(parents=True)
    (out / "manifest.txt").write_text("an older run's manifest\n")
    assert main(argv + ["--out", str(out)]) == 3
    assert "i/o error" in capsys.readouterr().err
    assert (out / "paths.csv").is_dir() and not any((out / "paths.csv").iterdir())
    left = [p for p in out.iterdir() if p.name != "paths.csv"]
    assert not [p.name for p in left if p.name.endswith(".tmp")]
    # neither manifest is left: one in ``out`` says every file of its run landed
    assert not (out / "manifest.txt").exists()
    # any file that did land is whole: byte-equal to a clean run's
    for p in left:
        assert p.name != "run.log" and p.read_bytes() == (ref / p.name).read_bytes()


def test_seed_changes_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "radial-h", "--out", str(a), "paths=16", "horizon=0.02",
                 "step=2e-3", "--seed", "1"]) == 0
    assert main(["simulate", "radial-h", "--out", str(b), "paths=16", "horizon=0.02",
                 "step=2e-3", "--seed", "2"]) == 0
    assert (a / "paths.csv").read_bytes() != (b / "paths.csv").read_bytes()


def test_manifest_floats_roundtrip(tmp_path):
    out = tmp_path / "m"
    assert main(["simulate", "radial-h", "--out", str(out), "paths=4", "horizon=0.02",
                 "step=2e-3", "x0_t=1e-6"]) == 0
    man = read_manifest(out / "manifest.txt")
    # 17 significant digits reproduce the binary double exactly
    assert float(man["config.step"]) == 2e-3
    assert man["config.x0_t"] == "9.9999999999999995e-07" and float(man["config.x0_t"]) == 1e-6
