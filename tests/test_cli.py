"""Runner behaviour: config plumbing, exit taxonomy, file formats,
reproducibility."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from heisenpaths.cli import (
    COMMANDS,
    CSV_CHUNK_ROWS,
    CSV_NAMES,
    ConfigError,
    _csv_chunks,
    _fmt,
    main,
    resolve_config,
)


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


def test_corrupted_tolerance_fails_named_check(tmp_path, capsys):
    code = main(
        ["verify", "geometry", "--out", str(tmp_path / "g"), "tol.chart_roundtrip_fwd=1e-30"]
    )
    assert code == 1
    assert "FAIL chart_roundtrip_fwd" in capsys.readouterr().out
    man = read_manifest(tmp_path / "g" / "manifest.txt")
    assert man["test.chart_roundtrip_fwd.pass"] == "false"
    assert man["test.chart_roundtrip_fwd.tolerance"] == "%.17g" % 1e-30


def test_unknown_key_rejected(tmp_path, capsys):
    assert main(["verify", "geometry", "--out", str(tmp_path / "g"), "bogus=1"]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_bad_n_rejected(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["simulate", "radial-h", "paths=2", "horizon=0.002", "n=0", "--out", str(out)]) == 2
    assert "n must be a positive integer" in capsys.readouterr().err
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


@pytest.mark.parametrize(
    "command, bad",
    [
        ("simulate radial-h", "horizon=inf"),
        ("simulate radial-h", "paths=inf"),
        ("simulate radial-h", "x0_r=nan"),
        ("simulate radial-h", "x0_t=inf"),
        ("simulate radial-h", "tame=nan"),
        ("simulate radial-h", "record=0,inf"),
        ("simulate hproc", "record=nan"),
        ("experiment cayley", "horizon_a=inf"),
        ("experiment cayley", "u_grid=0.1,nan"),
        ("experiment kelvin", "u_grid=inf"),
        ("experiment tdist", "ts=0,inf"),
        ("verify geometry", "seed=nan"),
        ("verify geometry", "tol.kelvin_involution=inf"),
    ],
)
def test_non_finite_value_is_config_error(tmp_path, capsys, command, bad):
    out = tmp_path / "o"
    # later overrides win, so the bad value replaces the small defaults of
    # the keys the command takes
    keys = COMMANDS[tuple(command.split())]
    small = [item for item in ("paths=8", "horizon=0.01") if item.partition("=")[0] in keys]
    argv = command.split() + small + [bad, "--out", str(out)]
    assert main(argv) == 2
    assert "finite" in capsys.readouterr().err
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
      for k in ("n", "step", "horizon", "paths", "pole_eps", "r_floor", "tame", "workers")],
    *[(c, "horizon") for c in COMMANDS if c[0] == "experiment"],
    *[(("simulate", "full-h"), k) for k in ("pole_eps", "r_floor", "tame")],
    (("simulate", "radial-h"), "pole_eps"),
    (("simulate", "radial-s"), "pole_eps"),
]


def test_settable_keys_per_command():
    counts = {" ".join(c): len(resolve_config(c, {})[0]) for c in COMMANDS}
    assert counts == {
        "verify geometry": 2, "verify operators": 2,
        "experiment cayley": 13, "experiment kelvin": 13,
        "experiment tdist": 12, "experiment semigroup": 15,
        "simulate full-h": 9, "simulate radial-h": 12, "simulate radial-s": 12,
        "simulate hproc": 13, "simulate nproc": 13,
    }
    assert sum(counts.values()) == 116 and len(set(DROPPED)) == 25


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
        assert resolve_config(command, {key: "2"})[0][key] == 2
        with pytest.raises(ConfigError):
            resolve_config(command, {key: "1.5"})
    elif key in LIST_KEYS:
        assert resolve_config(command, {key: "0.1,0.2"})[0][key] == (0.1, 0.2)
    elif key in STR_KEYS:
        assert resolve_config(command, {key: "runs/x"})[0][key] == "runs/x"
    else:
        assert resolve_config(command, {key: "0.5"})[0][key] == 0.5
        with pytest.raises(ConfigError):
            resolve_config(command, {key: "0.1,0.2"})


@pytest.mark.parametrize("command", [c for c in COMMANDS if c[0] != "verify"], ids=" ".join)
def test_tolerance_override_outside_verify_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "o"
    assert main([*command, "tol.tdist_sup_gap=1", "--out", str(out)]) == 2
    assert "unknown config key 'tol.tdist_sup_gap'" in capsys.readouterr().err
    assert not out.exists()


def test_default_out_is_group_target_out():
    for group, target in COMMANDS:
        assert resolve_config((group, target), {})[0]["out"] == f"{group}_{target}_out"


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
        [2**62 - i for i in range(rows)],                   # Python int
        (np.arange(rows) % 2).astype(np.int8),              # small ints
        edge,                                               # float64 edge values
        spread,                                             # float64 across exponents
        [float(v) for v in spread[::-1]],                   # Python float
        np.resize(np.array(["A", "B"]), rows),              # numpy str
        [("sphere", "heis")[i % 2] for i in range(rows)],   # Python str
    ]
    header = [f"c{j}" for j in range(len(columns))]
    chunks = _csv_chunks(header, columns)
    assert len(chunks) == 1 + -(-rows // CSV_CHUNK_ROWS)
    got, want = "".join(chunks), reference_csv(header, columns)
    if got != want:
        # name the first differing line: a diff of the whole text is slow
        pairs = zip(got.splitlines(keepends=True), want.splitlines(keepends=True))
        line, g, w = next((i, g, w) for i, (g, w) in enumerate(pairs) if g != w)
        pytest.fail(f"line {line}: {g!r} != {w!r}")


@pytest.mark.parametrize(
    "column",
    [[1, 2.5], ["a", 1.0], np.array([1, "a"], dtype=object), [True, 1], np.array([True, False])],
)
def test_csv_chunks_reject_mixed_or_boolean_columns(column):
    with pytest.raises(TypeError):
        _csv_chunks(["x"], [column])


def test_csv_chunks_reject_ragged_columns():
    with pytest.raises(ValueError):
        _csv_chunks(["a", "b"], [np.zeros(3), np.zeros(4)])


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
    # the log carries the wall clock and worker count and may differ
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
                 "step=2e-3"]) == 0
    man = read_manifest(out / "manifest.txt")
    # 17 significant digits reproduce the binary double exactly
    assert float(man["config.step"]) == 2e-3
    assert float(man["config.r_floor"]) == 1e-6
