#!/usr/bin/env python3
"""Line counts of the ``heisenpaths`` package, one module a row.

``lines`` is the physical line count; ``code`` counts the lines that hold
a token other than a comment, a docstring or a line break, as
``tokenize`` reads them.  A docstring is a string expression standing
alone as a statement.  The ``total`` row sums each column.  The last
line, ``settable <N>``, counts the values a run can set: each key of each
command in ``heisenpaths.cli.COMMANDS``, plus its ``out``.

Usage: python scripts/src_lines.py
"""

import argparse
import io
import sys
import token
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "heisenpaths"
sys.path.insert(0, str(SRC.parent))

from heisenpaths.cli import COMMANDS  # noqa: E402

_LAYOUT = {token.NEWLINE, tokenize.NL, token.INDENT, token.DEDENT, token.ENDMARKER, tokenize.COMMENT}


def code_lines(text: str) -> int:
    """Lines that hold code: no blank, comment-only or docstring lines."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT:
            if tok.type == token.NEWLINE and statement:
                if not (len(statement) == 1 and statement[0].type == token.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return len(lines)


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    rows = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        rows.append((path.name, text.count("\n"), code_lines(text)))
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for name, physical, code in rows:
        print(f"{name:<16} {physical:>6} {code:>6}")
    print(f"{'total':<16} {sum(r[1] for r in rows):>6} {sum(r[2] for r in rows):>6}")
    print(f"settable {sum(len(keys) + 1 for keys in COMMANDS.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
