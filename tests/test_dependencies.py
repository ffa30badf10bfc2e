"""The package runs on numpy alone: no module imports another third-party
package, and the law experiments, whose KS p-values and critical values are
computed in-repo, load no scipy module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def third_party_imports() -> dict[str, list[str]]:
    found: dict[str, list[str]] = {}
    for path in sorted((SRC / "heisenpaths").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top != "heisenpaths":
                    found.setdefault(top, []).append(path.name)
    return found


def test_only_third_party_import_is_numpy():
    assert set(third_party_imports()) == {"numpy"}


def test_law_experiments_load_no_scipy(tmp_path):
    code = f"""
import sys
from heisenpaths import cli
for target in ("cayley", "kelvin"):
    out = {str(tmp_path)!r} + "/" + target
    rc = cli.main(["experiment", target, "paths=300", "step=5e-3", "horizon_a=5", "--out", out])
    assert rc == 0, (target, rc)
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    for target in ("cayley", "kelvin"):
        assert "ks_r" in (tmp_path / target / "manifest.txt").read_text(encoding="utf-8")
