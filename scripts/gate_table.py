#!/usr/bin/env python3
"""Print the check values of CLI commands over a range of seeds as one
tab-separated table: a row per ``test.<name>.value`` manifest key, a column
per seed, and a trailing ``passed`` column that counts the seeds whose check
passed (``k/N``).  A value whose check failed is marked with a trailing
``*``.

Each run is a fresh ``python -m heisenpaths.cli`` process on the ``src``
tree of the checkout this script lives in, writing to a temporary
directory.  Running it from two checkouts shows their gate values side by
side, for example before and after a change that alters output bytes.

Usage:
    python3 scripts/gate_table.py --seeds 1-5 "experiment tdist" \\
        "experiment cayley paths=8192"
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def parse_seeds(text: str) -> list[int]:
    """``"1-5"`` or ``"1,3,7"``."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run(command: list[str], seed: int, out: Path) -> dict[str, str]:
    """Run one command and return its manifest as a dict."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "heisenpaths.cli", *command, "--seed", str(seed), "--out", str(out)]
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{' '.join(command)} --seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
    return dict(line.split(" = ", 1) for line in lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("commands", nargs="+", help='a quoted CLI command, e.g. "experiment tdist paths=4096"')
    ap.add_argument("--seeds", default="1-5")
    ns = ap.parse_args()
    seeds = parse_seeds(ns.seeds)

    try:
        print("\t".join(["check"] + [f"seed{s}" for s in seeds] + ["passed"]), flush=True)
        with tempfile.TemporaryDirectory() as tmp:
            for command in ns.commands:
                words = command.split()
                manifests = [run(words, s, Path(tmp) / f"{'-'.join(words)}-{s}") for s in seeds]
                keys = sorted(k for k in manifests[0] if k.startswith("test.") and k.endswith(".value"))
                for key in keys:
                    passed = key[: -len(".value")] + ".pass"
                    ok = [m[passed] == "true" for m in manifests]
                    cells = [m[key] + ("" if p else "*") for m, p in zip(manifests, ok)]
                    rate = f"{sum(ok)}/{len(ok)}"
                    print("\t".join([f"{words[0]} {words[1]}: {key}"] + cells + [rate]), flush=True)
    except BrokenPipeError:
        # the reader of stdout has exited (``| head``): stop.  Python
        # flushes stdout again at exit, so point it at the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
