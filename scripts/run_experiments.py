#!/usr/bin/env python3
"""Run the verification suites and every experiment with default settings,
collecting the outputs under runs/ (one directory per command).

Usage: python scripts/run_experiments.py [--paths P] [--seed S] [--root DIR]
"""

import argparse
import pathlib
import sys

from heisenpaths.cli import COMMANDS
from heisenpaths.cli import main as cli


def run(root: pathlib.Path, command: tuple[str, str], common: dict[str, int]) -> int:
    # each command is passed only the keys it takes
    label = "-".join(command)
    args = [*command, *(f"{k}={v}" for k, v in common.items() if k in COMMANDS[command])]
    out = root / label
    print(f"== {label}: heisenpaths {' '.join(args)}")
    code = cli(args + ["--out", str(out)])
    print(f"== {label}: exit {code}\n")
    return code


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--paths", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--root", default="runs")
    ns = ap.parse_args()

    root = pathlib.Path(ns.root)
    root.mkdir(parents=True, exist_ok=True)
    common = {"paths": ns.paths, "seed": ns.seed}

    codes = {"-".join(c): run(root, c, common) for c in COMMANDS if c[0] != "simulate"}
    bad = {k: v for k, v in codes.items() if v != 0}
    if bad:
        print(f"failures: {bad}")
        return 1
    print(f"all runs passed; outputs under {root}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
