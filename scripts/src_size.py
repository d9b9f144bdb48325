#!/usr/bin/env python3
"""Print the line and token counts of ``src/momsec/*.py``.

Usage: python scripts/src_size.py

Tokens are those of Python's ``tokenize`` module, leaving out comments,
non-logical newlines (NL), INDENT, DEDENT, ENCODING and ENDMARKER, so
comments and line wrapping do not change the count.  One line per file
is printed, then the totals.
"""

import pathlib
import sys
import tokenize

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "momsec"
SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def size(path: pathlib.Path) -> tuple[int, int]:
    """(lines, tokens) of one source file."""
    with open(path, "rb") as fh:
        tokens = sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in SKIPPED)
    return len(path.read_bytes().splitlines()), tokens


def main() -> int:
    total_lines = total_tokens = 0
    for path in sorted(SRC.glob("*.py")):
        lines, tokens = size(path)
        total_lines += lines
        total_tokens += tokens
        print(f"{lines:6d} {tokens:7d}  {path.name}")
    print(f"{total_lines:6d} {total_tokens:7d}  total (lines, tokens)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
