"""Byte-identical CLI output: a fixed corpus of in-process `cli.main` calls
against a committed table, tests/cli_golden.tsv, with one line per call:
the call, its exit code, and the first 16 hex digits of the sha-256 of its
stdout and of its stderr.

The corpus covers every subcommand on every lens pair with p <= 10, `mcg
s1s2`, `check --pmax 2..8` and the `error:` calls that README names.
Argparse usage errors and `-h` are left out: their wording follows argparse
and the terminal width, and tests/test_cli.py holds the parser to argparse.

A change that means to change output regenerates the table and says so:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.tsv
"""

import contextlib
import hashlib
import io
import shlex
import sys
from pathlib import Path

from lensknots.checks import lens_pairs
from lensknots.cli import _MCG_TABLES, main
from lensknots.surgery import ORIENTED_KNOTS
from lensknots.tight import enumerate_tight

TABLE = Path(__file__).with_name("cli_golden.tsv")


def corpus():
    """Every call of the corpus, as an argv list, in the table's order."""
    for p, q in lens_pairs(10):
        pq, slope = [str(p), str(q)], f"-{p}/{q}"
        yield ["tight-structures", *pq]
        yield ["tight-structures", *pq, "--list"]
        for fmt in ("tsv", "json"):
            yield ["unknots", *pq, "--format", fmt]
        for knot in ("k1", "k2"):
            for fmt in ("tsv", "json"):
                yield ["surgery", *pq, "--knot", knot, "--format", fmt]
        signs = enumerate_tight(p, q)[0].sign_string
        structure = [f"--structure={signs}"] if signs else []
        for knot in ORIENTED_KNOTS:
            for fmt in ("tsv", "json", "svg"):
                yield ["mountain-range", *pq, f"--knot={knot}", *structure, "--depth", "2", "--format", fmt]
        yield ["mcg", *pq]
        for table in _MCG_TABLES:
            yield ["mcg", *pq, f"--{table}"]
        yield ["farey", "path", slope, "0"]
        for side in ("--front", "--back"):
            yield ["bypass", slope, "0", side]
    yield ["mcg", "s1s2"]
    for p_max in range(2, 9):
        for fmt in ("text", "json"):
            yield ["check", "--pmax", str(p_max), "--format", fmt]
    # The error: calls of README: a --structure of the wrong length, a
    # mountain range without one on a lens space of several structures,
    # and a --rots that is not comma-separated integers.
    yield ["unknots", "1000000000000000003", "12", "--structure", "++-"]
    yield ["mountain-range", "12", "5"]
    yield ["surgery", "12", "5", "--rots", "1,x"]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def row(argv) -> str:
    """One table line: the call, its exit code and its output digests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return f"{shlex.join(argv)}\t{code}\t{_digest(out.getvalue())}\t{_digest(err.getvalue())}"


def test_cli_output_matches_the_golden_table():
    expected = TABLE.read_text().splitlines()
    got = [row(argv) for argv in corpus()]
    assert len(got) == len(expected)
    changed = [(old, new) for old, new in zip(expected, got) if old != new]
    assert changed == []


def test_the_corpus_covers_each_kind_of_call():
    lines = TABLE.read_text().splitlines()
    codes = [line.split("\t")[1] for line in lines]
    assert len(lines) > 800 and codes.count("2") == 3
    assert {argv[0] for argv in corpus()} == {
        "tight-structures", "unknots", "surgery", "mountain-range", "mcg", "farey", "bypass", "check"
    }


if __name__ == "__main__":
    sys.stdout.write("".join(row(argv) + "\n" for argv in corpus()))
