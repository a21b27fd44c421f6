"""Count code lines: lines holding a token that is not a comment or a docstring.

Blank lines, comment lines and lines inside a bare string statement (a
docstring) do not count. A directory argument stands for its ``*.py``
files. Prints one line per file, then the total::

    python tools/codelines.py                      # src/sirpool/*.py
    python tools/codelines.py src/sirpool/cli.py tools/digest.py
    python tools/codelines.py tools                # tools/*.py
"""

from __future__ import annotations

import pathlib
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: pathlib.Path) -> int:
    """The number of distinct lines of path that hold a code token."""
    with path.open("rb") as fh:
        tokens = [tok for tok in tokenize.tokenize(fh.readline) if tok.type != tokenize.COMMENT]
    lines = set()
    for k, tok in enumerate(tokens):
        statement_start = k == 0 or tokens[k - 1].type in LAYOUT
        docstring = (tok.type == tokenize.STRING and statement_start
                     and tokens[k + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if tok.type not in LAYOUT and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(arg) -> list[pathlib.Path]:
    """arg as a path: a directory's ``*.py`` files, sorted, or the one file."""
    path = pathlib.Path(arg)
    return sorted(path.glob("*.py")) if path.is_dir() else [path]


def main(argv: list[str]) -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = [path for arg in argv or [root / "src/sirpool"] for path in python_files(arg)]
    counts = {path: code_lines(path) for path in paths}
    for path, count in counts.items():
        print(f"{count:6d}  {path.stem}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
