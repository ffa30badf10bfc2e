"""The README's examples run as written: its Python quick tour executes, and
every ``tol.<check>`` override it shows names a check the verify suites
emit."""

import re
from pathlib import Path

from heisenpaths import verify_geometry, verify_operators

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_tolerance_overrides_name_verify_checks():
    names = set(re.findall(r"\btol\.(\w+)", README))
    checks = {r.name for r in verify_geometry()} | {r.name for r in verify_operators()[0]}
    assert names and not names - checks
