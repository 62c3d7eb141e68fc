"""Print one digest line per CLI command over a fixed grid.

Each line is ``exit sha256(stdout) argv``; a command that writes its
``--out`` file also has that file's sha256 after the stdout one.  The
commands run in-process through ``reeslab.cli.main``, from the ``src``
directory next to this script, with stderr (the timing trailer)
discarded; the grid's ``--out`` value, ``FILE``, names a file in a fresh
temporary directory.  To check that a change leaves every report
byte-identical, run the script in both trees and compare the outputs:

    python tools/cli_digest.py > after.txt
    diff before.txt after.txt

The grid, each command in text and in JSON (a ``sweep --out`` in JSON
and in CSV):

- ``binary-gens d b`` for every b < d <= 12, gcd > 1 included;
- ``binary-verify d b`` for every coprime d <= 12, plain and with each
  ``--drop`` index;
- ``binary-verify 20 7``, plain and with each ``--drop`` index, whose top
  levels build their member masks in more than one block;
- ``ternary a b`` and ``ternary a b --verify`` for every a <= 10, and
  ``ternary a b --lengths`` for every a <= 6;
- ``ternary 18 5 --verify``, whose colon claims span more than one block
  of batched memberships;
- ``lengths d b`` for every d <= 15;
- ``red --uniform n a b`` for n <= 4 and a <= 7, and ``red --a --b`` with
  a decided reduction number, an undecided one and the
  ``sum_b_over_a_below_1`` short cut;
- ``sweep --binary-max-d 10 --ternary-max-a 5 --uniform``, and
  ``sweep --binary-max-d 8 --ternary-max-a 4 --out FILE``;
- one refused input (exit 2) per command;
- the binary image-exponent cap of ``toric.binary_spec``:
  ``binary-gens 1010 3`` (over it, exit 2) and ``binary-gens 1002 5``
  (under it), ``binary-gens 2020 6`` and ``binary-gens 1000 2``, the
  same with gcd(d, b) = 2, and ``binary-verify 1010 3`` (over it);
- between those sections, one argv the parser refuses (``SystemExit``,
  whose code is printed as the exit), so that a parser reused after a
  refusal must still give the next command the same report.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from reeslab import binary, cli  # noqa: E402

OUT = "FILE"

REFUSED = (
    ["binary-gens", "5", "5"],
    ["binary-verify", "4", "2"],
    ["ternary", "4", "2"],
    ["lengths", "1001", "2"],
    ["red", "--uniform", "1000", "5", "1"],
    ["sweep", "--binary-max-d", "1"],
)

IMAGE_CAP = (
    ["binary-gens", "1010", "3"],  # 1010 * 1007 above 10^6
    ["binary-gens", "1002", "5"],  # 1002 * 997 below it
    ["binary-gens", "2020", "6"],  # 2020 * 2014 / 2 above it
    ["binary-gens", "1000", "2"],  # 1000 * 998 / 2 below it
    ["binary-verify", "1010", "3"],
)

PARSER_REFUSED = (
    ["lengths", "7"],  # a missing argument
    ["binary-verify", "7", "x"],  # not an integer
    ["red"],  # neither --a and --b nor --uniform
    ["ternary", "5", "2", "--bogus"],  # an unknown option
    ["red", "--uniform", "3", "7"],  # too few values
    ["sweep", "--out"],  # an option without its value
    ["no-such-command", "1"],
)


def commands():
    refused = iter(PARSER_REFUSED)
    for d in range(2, 13):
        for b in range(1, d):
            yield ["binary-gens", str(d), str(b)]
            if gcd(d, b) == 1:
                yield ["binary-verify", str(d), str(b)]
                for i in range(len(binary.sigma_set(d, b))):
                    yield ["binary-verify", str(d), str(b), "--drop", str(i)]
    yield ["binary-verify", "20", "7"]
    for i in range(len(binary.sigma_set(20, 7))):
        yield ["binary-verify", "20", "7", "--drop", str(i)]
    yield next(refused)
    for a in range(3, 11):
        for b in range(1, (a - 1) // 2 + 1):
            yield ["ternary", str(a), str(b)]
            yield ["ternary", str(a), str(b), "--verify"]
            if a <= 6:
                yield ["ternary", str(a), str(b), "--lengths"]
    yield next(refused)
    yield ["ternary", "18", "5", "--verify"]
    yield next(refused)
    for d in range(2, 16):
        for b in range(1, d):
            yield ["lengths", str(d), str(b)]
    yield next(refused)
    for n in range(2, 5):
        for a in range(2, 8):
            for b in range(1, a):
                yield ["red", "--uniform", str(n), str(a), str(b)]
    yield next(refused)
    yield ["red", "--a", "3,5,7", "--b", "1,2,2"]  # decided
    yield ["red", "--a", "2,3,6", "--b", "1,1,1", "--r-cap", "4"]  # undecided
    yield ["red", "--a", "4,4", "--b", "1,1"]  # sum of b_i / a_i below 1
    yield next(refused)
    yield ["sweep", "--binary-max-d", "10", "--ternary-max-a", "5", "--uniform"]
    yield ["sweep", "--binary-max-d", "8", "--ternary-max-a", "4", "--out", OUT]
    yield next(refused)
    yield from REFUSED
    yield from IMAGE_CAP


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(argv: list[str]) -> str:
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / OUT
        run = [str(path) if arg == OUT else arg for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(run)
            except SystemExit as exc:
                code = exc.code
        wrote = f" {_sha(path.read_bytes())}" if path.exists() else ""
    return f"{code} {_sha(out.getvalue().encode())}{wrote} {' '.join(argv)}"


def main() -> None:
    for argv in commands():
        for fmt in ("json", "csv") if OUT in argv else ("text", "json"):
            print(digest(argv + ["--format", fmt]), flush=True)


if __name__ == "__main__":
    main()
