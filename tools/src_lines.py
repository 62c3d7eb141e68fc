"""Print the non-blank line count of each ``src/reeslab`` module and the total.

A line counts when it holds anything besides whitespace; comments and
docstrings count.  Run from anywhere:

    python tools/src_lines.py
"""
from __future__ import annotations

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "reeslab"


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = sum(1 for line in path.read_text().splitlines() if line.strip())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
