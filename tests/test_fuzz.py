"""Fuzzing the parsers and the command line: every input ends in a
documented error or exit status, never in a traceback.

The parsers may raise only ``ChainError`` subclasses, and every table they
return through ``OpTable._built`` must pass ``OpTable``'s check, the same
``_structural_violations`` the table parser raises from; ``main`` may only
return, or exit through argparse, with a status from 0 to 3.  Inputs are
valid documents and command lines with random edits.  Integers stay small,
so no run builds a large table.
"""

import contextlib
import io
import os
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import idem_max, idem_min, luk_upper
from unichain import decompose
from unichain.catalog import parse_family_spec
from unichain.cli import main
from unichain.core import _structural_violations
from unichain.errors import ChainError
from unichain.formats import dump_decomposition, dump_table, parse_decomposition, parse_table

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

TABLES = [dump_table(u) for u in (idem_min(2, 1), idem_min(3, 2), luk_upper(4, 2))]
DECOMPOSITIONS = [
    dump_decomposition(decompose(u1, u2), u1.scale, u1.e, u2.e)
    for u1, u2 in ((idem_min(4, 2), idem_min(4, 1)), (idem_max(4, 2), idem_max(4, 3)))
]
SPECS = [
    "idemmin(e=2,n=4)", "max(n=3)", "luk-upper(e=1,n=3)", "umin(T=luk,S=max,e=2,n=4)",
    "umax(T=luk-tnorm(n=2),S=drastic,e=2,n=3)", "drastic_tconorm(n=2)",
]
TOKENS = [
    " ", "\n", "#", "(", ")", ",", "=", "-", "_", "0", "1", "2", "-1", "x", "1.5",
    "scale", "neutral", "case", "inner", "boundary", "selection", "first", "second",
    "greater-neutral", "less-neutral", "n", "e", "T", "S", "min", "max", "luk", "drastic",
    "umin", "umax", "idemmin", "luk-upper", "\t", "é", "\x00",
]
NAMES = ["min", "max", "luk", "drastic", "luk-tnorm", "LUK_TCONORM", "drastic-tconorm",
         "idemmin", "idemmax", "umin", "umax-of", "luk-upper", "product", ""]
VALUES = ["0", "1", "2", "3", "4", "x", "", "²", "-1", " 2 "]


@st.composite
def edited(draw, bases):
    """One of ``bases`` with up to four insertions, deletions or replacements."""
    text = draw(st.sampled_from(bases))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        piece = draw(st.sampled_from(TOKENS) | st.text(max_size=3))
        text = text[:i] + piece + text[j:]
    return text


@st.composite
def cell_edited(draw, bases):
    """One of ``bases`` with up to three of its numbers replaced: a document
    that mostly keeps its shape, so its table reaches the structure checks."""
    parts = re.split(r"(\d+)", draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(range(1, len(parts), 2)))  # the numbers split out
        parts[i] = draw(st.sampled_from(["0", "1", "2", "3", "4", "5", "-1", "1.5"]))
    return "".join(parts)


@st.composite
def specs(draw, depth=1):
    """Spec strings from the grammar's pieces: names, keys and values."""
    name = draw(st.sampled_from(NAMES))
    if draw(st.booleans()):
        return name
    value = st.sampled_from(VALUES) | (specs(depth - 1) if depth else st.sampled_from(NAMES))
    args = draw(st.lists(st.tuples(st.sampled_from(["n", "e", "T", "S", "t"]), value),
                         max_size=5))
    return f"{name}({','.join(f'{key}={v}' for key, v in args)})"


def small_integers(text):
    return all(int(d) <= 64 for d in re.findall(r"\d+", text))


def assert_well_formed(table):
    """``OpTable``'s own check, and tuple rows, on a table the parser built
    through ``_built`` after running that check: the kernel relies on both
    unchecked."""
    assert not list(_structural_violations(table.values, table.scale.n)), table
    assert type(table.values) is tuple and all(type(row) is tuple for row in table.values)


@FUZZ
@given(edited(TABLES) | cell_edited(TABLES) | st.text(max_size=60))
def test_parse_table_raises_only_chain_errors(text):
    try:
        table, _ = parse_table(text)
    except ChainError:
        return
    assert_well_formed(table)


@FUZZ
@given(edited(DECOMPOSITIONS) | cell_edited(DECOMPOSITIONS) | st.text(max_size=60))
def test_parse_decomposition_raises_only_chain_errors(text):
    try:
        d, _, _, _ = parse_decomposition(text)
    except ChainError:
        return
    assert_well_formed(d.inner.table)
    assert_well_formed(d.boundary_op.table)


@FUZZ
@given(specs() | edited(SPECS))
def test_parse_family_spec_raises_only_chain_errors(text):
    assume(small_integers(text))
    try:
        parse_family_spec(text)
    except ChainError:
        pass


@pytest.fixture(scope="module")
def operand_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("operands")
    files = {"valid.tbl": TABLES[1], "broken.tbl": TABLES[1].replace("2 2", "2 1", 1),
             "d.txt": DECOMPOSITIONS[0], "bad-d.txt": DECOMPOSITIONS[0][:-12]}
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    not_utf8 = TABLES[1].replace("\n", "\n# \xff\n", 1).encode("latin-1")
    (root / "not-utf8.tbl").write_bytes(not_utf8)
    return root


COMMANDS = ["validate", "classify", "check", "decompose", "compose", "enumerate", "scan",
            "certify", "bogus"]
OPTIONS = ["--format", "text", "structured", "--verbose", "--max-n", "--n", "--e",
           "--e1", "--e2", "--table", "--u1", "--u2", "--decomposition", "--pair-budget",
           "--no-timing", "--idempotent-only", "--locally-internal-only", "--conjunctive-only",
           "-1", "0", "1", "2", "x", "-h", "./valid.tbl", "./broken.tbl", "./d.txt",
           "./bad-d.txt", "./not-utf8.tbl", "./missing.tbl"]


def run_main(operand_dir, argv):
    """``main(argv)``'s exit status, run in the operand directory, where any
    --out lands; argparse's exits count as statuses too."""
    sink = io.StringIO()
    cwd = os.getcwd()
    os.chdir(operand_dir)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except SystemExit as exc:  # argparse: usage errors and --help
        code = exc.code
    finally:
        os.chdir(cwd)
    return code, sink.getvalue()


@settings(FUZZ, max_examples=150)
@given(st.data())
def test_main_exits_with_a_documented_status(operand_dir, data):
    # every command runs in this process, so a fuzzed command line starts none
    words = st.sampled_from(OPTIONS) | specs() | edited(SPECS)
    argv = [data.draw(st.sampled_from(COMMANDS))] + data.draw(st.lists(words, max_size=8))
    assume(all(small_integers(word) for word in argv))
    if data.draw(st.booleans()):
        argv += ["--out", "out.txt"]
    code, output = run_main(operand_dir, argv)
    assert code in (0, 1, 2, 3), (argv, output)


# the commands that read operand files, with the options that name them
READERS = {"validate": ("--table",), "classify": ("--table",), "check": ("--u1", "--u2"),
           "decompose": ("--u1", "--u2"), "compose": ("--decomposition",)}
FILES = [word for word in OPTIONS if word.startswith("./")]


@pytest.mark.parametrize("path", FILES)
@settings(FUZZ, max_examples=12)
@given(data=st.data())
def test_file_operands_exit_with_a_documented_status(operand_dir, path, data):
    # ``path`` is the value of one of the command's reading options, and the
    # command gets all of them, so it reaches its files
    command = data.draw(st.sampled_from(sorted(READERS)))
    target = data.draw(st.sampled_from(READERS[command]))
    values = st.sampled_from(FILES) | st.sampled_from(SPECS)
    argv = [command]
    for option in READERS[command]:
        argv += [option, path if option == target else data.draw(values)]
    argv += data.draw(st.sampled_from([[], ["--format", "structured"], ["--out", "out.txt"]]))
    code, output = run_main(operand_dir, argv)
    assert code in (0, 1, 2, 3), (argv, output)
