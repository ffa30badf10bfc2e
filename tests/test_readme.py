"""The README's examples run as written: its Python quick tour executes,
every ``heisenpaths`` command line it shows resolves to a valid config,
and its key table lists the keys each command takes."""

import re
import shlex
from pathlib import Path

from heisenpaths.cli import _FLAGS, COMMANDS, _build_parser, resolve_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_command_lines_resolve():
    blocks = re.findall(r"```sh\n(.*?)```", README, re.S)
    lines = [ln for block in blocks for ln in block.splitlines() if ln.startswith("heisenpaths ")]
    assert lines
    parser = _build_parser()
    for line in lines:
        args, overrides = parser.parse_known_args(shlex.split(line)[1:])
        raw = dict(item.split("=", 1) for item in overrides)
        raw.update({k: getattr(args, k) for k in _FLAGS if getattr(args, k, None) is not None})
        resolve_config((args.command, args.target), raw)


def test_key_table_matches_commands():
    table = {}
    for cell, keys in re.findall(r"^\| (`(?:verify|experiment|simulate) .*?) \| (.*) \|$", README, re.M):
        for command in re.findall(r"`(\w+ [\w-]+)`", cell):
            table[tuple(command.split())] = set(re.findall(r"`(\w+)`", keys))
    assert table == {c: {*COMMANDS[c], "out"} for c in COMMANDS}
