"""Every script under ``scripts/`` imports what it names from the package:
``--help`` runs each one in a fresh process and exits 0.  ``gate_table.py``
also runs a command over seeds, and stops quietly when its reader does;
``src_lines.py`` totals the package's lines and settable values."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from heisenpaths.cli import COMMANDS, resolve_config

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_help_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(script), "--help"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_gate_table_counts_passing_seeds():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, str(ROOT / "scripts" / "gate_table.py"), "--seeds", "1-2", "verify geometry"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split("\t") for line in proc.stdout.splitlines()]
    assert header == ["check", "seed1", "seed2", "passed"]
    assert rows and all(row[0].startswith("verify geometry: test.") for row in rows)
    assert all(len(row) == 4 and row[-1] == "2/2" for row in rows)


def test_gate_table_stops_quietly_when_the_reader_closes_the_pipe():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, str(ROOT / "scripts" / "gate_table.py"), "--seeds", "1-2", "verify geometry"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        header = proc.stdout.readline()
        proc.stdout.close()  # like ``| head -1``: the reader leaves after the header
        _, err = proc.communicate(timeout=300)
    finally:
        proc.kill()
    assert header.split(b"\t")[0] == b"check"
    assert proc.returncode == 0, err.decode()
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_src_lines_total_is_the_plain_line_count():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "src_lines.py")], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    total, settable = (line.split() for line in proc.stdout.splitlines()[-2:])
    files = (ROOT / "src" / "heisenpaths").glob("*.py")
    assert total[0] == "total" and int(total[1]) == sum(len(p.read_text().splitlines()) for p in files)
    assert 0 < int(total[2]) < int(total[1])
    assert settable == ["settable", str(sum(len(resolve_config(c, {})) for c in COMMANDS))]
