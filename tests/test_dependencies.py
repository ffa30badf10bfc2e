"""The package runs on numpy alone: no module imports another third-party
package, and the law experiments, whose KS p-values and critical values are
computed in-repo, load no scipy module.  Importing the package pins
numpy's OpenBLAS to one thread, unless the user set the thread count or
numpy loaded first."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_exports_resolve_and_src_imports_no_tests():
    # every name a module lists in __all__, or the package __init__ imports,
    # is defined, and nothing under src/ imports from the test tree
    for path in sorted((SRC / "heisenpaths").glob("*.py")):
        module = importlib.import_module("heisenpaths" + ("" if path.stem == "__init__" else f".{path.stem}"))
        names = list(getattr(module, "__all__", []))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                mods = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
                assert not {m.partition(".")[0] for m in mods} & {"tests", "conftest"}, path.name
                if path.stem == "__init__" and isinstance(node, ast.ImportFrom):
                    names += [alias.name for alias in node.names]
        assert [name for name in names if not hasattr(module, name)] == [], path.name


def _run_python(code: str, **env_vars: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with ``src`` on the path and
    ``OPENBLAS_NUM_THREADS`` unset unless given in ``env_vars``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_vars)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_law_experiments_load_no_scipy(tmp_path):
    # importing the package first pins numpy's OpenBLAS to one thread, so no
    # worker thread starts beside the main one
    code = f"""
import os
import sys
from heisenpaths import cli
print(os.environ.get("OPENBLAS_NUM_THREADS"))
print(len(os.listdir("/proc/self/task")) if sys.platform == "linux" else 1)
for target in ("cayley", "kelvin"):
    out = {str(tmp_path)!r} + "/" + target
    rc = cli.main(["experiment", target, "paths=300", "step=5e-3", "horizon_a=5", "--out", out])
    assert rc == 0, (target, rc)
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""
    lines = _run_python(code).stdout.splitlines()
    assert lines[:2] == ["1", "1"]
    assert lines[-1] == "[]"
    for target in ("cayley", "kelvin"):
        assert "ks_r" in (tmp_path / target / "manifest.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "first, preset, expected",
    [("", "3", "3"), ("import numpy\n", None, "None")],
    ids=["value-set-by-the-user", "numpy-loaded-first"],
)
def test_openblas_pin_leaves_a_set_value_and_a_loaded_numpy_alone(first, preset, expected):
    code = first + "import os\nimport heisenpaths\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    assert _run_python(code, **env).stdout.strip() == expected
