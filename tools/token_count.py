"""Print the token count of each ``src/paulidyn/*.py`` module.

A module's count is what ``tokenize`` yields for it, less its COMMENT, NL and
ENCODING tokens: the tokens that the parser reads.  One line per module, then
the total::

    <module> <tokens>[ <mark>]

A module at or above ``PARSER_STEP`` tokens is marked: past about that many
tokens CPython's parser takes a larger peak allocation to compile the file, and
a module is compiled from source in every process that writes no bytecode::

    python3 tools/token_count.py [<package directory>]
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

#: the module size, in tokens, from which CPython's parser peak steps up
PARSER_STEP = 8192
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def token_count(path: Path) -> int:
    with path.open("rb") as source:
        return sum(tok.type not in SKIPPED for tok in tokenize.tokenize(source.readline))


def main(package: Path) -> None:
    total = 0
    for path in sorted(package.glob("*.py")):
        count = token_count(path)
        total += count
        mark = f" >= {PARSER_STEP}" if count >= PARSER_STEP else ""
        print(f"{path.name} {count}{mark}")
    print(f"total {total}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else
         Path(__file__).resolve().parents[1] / "src" / "paulidyn")
