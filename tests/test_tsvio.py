"""read_facts_dir against the per-line reader it replaced (tsvio_reference):
the same rows and the same error text, whatever the chunk size."""

import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import tsvio_reference
from gdlog import tsvio
from gdlog.lang import MAX_INT, MIN_INT
from gdlog.tsvio import FactFileError, read_facts_dir

ODD_CELLS = [
    str(MIN_INT), str(MAX_INT), str(MAX_INT + 1), str(MIN_INT - 1), "-0", "007", "-007", "0" * 30 + "5",
    "²", "", "'a'", "'a b'", "'node7'", "node7", "'7'", "''", "'", "-", "1_000", " 7", "+5",
    "a\x0cb", "a b", "a\rb", "%x", "'%x'",
]
CELLS = st.one_of(
    st.integers(MIN_INT, MAX_INT).map(str),
    st.integers(0, 999).map(lambda i: f"{i:05d}"),
    st.sampled_from(ODD_CELLS),
    st.text(st.characters(codec="utf-8", exclude_characters="\t\n\r"), max_size=6),
)


@st.composite
def fact_file(draw):
    arity = draw(st.integers(1, 3))
    row = st.lists(CELLS, min_size=arity, max_size=arity).map("\t".join)
    comment = st.text(st.characters(codec="utf-8", exclude_characters="\n\r"), max_size=5).map("%".__add__)
    lines = draw(st.lists(st.one_of(row, row, row, comment, st.just("")), max_size=40))
    end = "\n" if draw(st.booleans()) else ""
    return "\n".join(lines) + (end if lines else "")


def _outcome(read, dirpath):
    try:
        return read(dirpath)
    except FactFileError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(
    files=st.dictionaries(st.sampled_from(["g", "h", "node"]), fact_file(), min_size=1, max_size=3),
    chunk=st.sampled_from([1, 5, 64, tsvio._CHUNK]),
)
def test_read_facts_dir_matches_the_per_line_reader(files, chunk):
    with tempfile.TemporaryDirectory() as d:
        for pred, text in files.items():
            with open(os.path.join(d, f"{pred}.facts"), "w", encoding="utf-8", newline="") as f:
                f.write(text)
        with mock.patch.object(tsvio, "_CHUNK", chunk):
            assert _outcome(read_facts_dir, d) == _outcome(tsvio_reference.read_facts_dir, d)


# 10,000 two-column lines are longer than one chunk, so line 9,000 and after
# are read in a later chunk than line 2
LINES = 10_000
BIG = str(MAX_INT + 1)


@pytest.mark.parametrize(
    "bad, ln",
    [
        ({9000: "a\tb\tc"}, 9000),
        ({9000: f"a\t{BIG}"}, 9000),
        ({9000: "a\tb\tc", 9003: f"a\t{BIG}"}, 9000),
        ({9000: f"a\t{BIG}", 9003: "a"}, 9000),
        ({9000: f"a\t{BIG}\tc"}, 9000),
        ({2: "x", 9000: "a\tb\tc"}, 2),
        ({1: "% a comment", 2: "", 3: f"{BIG}\t1\t2"}, 3),
        ({LINES: "a"}, LINES),
    ],
    ids=["width", "range", "width-first", "range-first", "both-on-one-line", "first-chunk", "first-data-line", "last"],
)
def test_first_bad_line_wins_as_in_the_per_line_reader(tmp_path, bad, ln):
    lines = [bad.get(i, f"n{i}\t{i}") for i in range(1, LINES + 1)]
    assert sum(map(len, lines)) > tsvio._CHUNK
    (tmp_path / "g.facts").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FactFileError) as exc:
        read_facts_dir(str(tmp_path))
    assert str(exc.value).startswith(f"g.facts:{ln}: ")
    with pytest.raises(FactFileError) as ref:
        tsvio_reference.read_facts_dir(str(tmp_path))
    assert str(exc.value) == str(ref.value)


@pytest.mark.parametrize("prefix", [b"a\t1\n", b"a\t1\n" * LINES], ids=["first-chunk", "later-chunk"])
def test_non_utf8_error_matches_the_per_line_reader(tmp_path, prefix):
    (tmp_path / "g.facts").write_bytes(prefix + b"\xff\tb\n")
    with pytest.raises(FactFileError) as exc:
        read_facts_dir(str(tmp_path))
    with pytest.raises(FactFileError) as ref:
        tsvio_reference.read_facts_dir(str(tmp_path))
    assert str(exc.value) == str(ref.value) == "g.facts: not UTF-8 text (invalid start byte)"


def test_an_integer_column_with_a_long_cell_is_range_checked(tmp_path):
    # every cell of the column is ASCII digits, one of them too long for int()
    (tmp_path / "g.facts").write_text("a\t1\nb\t" + "9" * 5000 + "\nc\t" + "0" * 5000 + "7\n")
    with pytest.raises(FactFileError, match="^g.facts:2: integer 9{5000} outside the 64-bit range$"):
        read_facts_dir(str(tmp_path))
    (tmp_path / "g.facts").write_text("a\t1\nc\t" + "0" * 5000 + "7\n")
    assert read_facts_dir(str(tmp_path)) == {"g": [("a", 1), ("c", 7)]}


def test_equal_symbols_of_one_directory_are_one_object(tmp_path):
    (tmp_path / "g.facts").write_text("node7\tnode8\t1\n'node7'\tnode9\t2\n")
    (tmp_path / "h.facts").write_text("node8\n'node9'\nnode7\n")
    for read, one in ((read_facts_dir, True), (tsvio_reference.read_facts_dir, False)):
        edb = read(str(tmp_path))
        cells = [c for rows in edb.values() for t in rows for c in t]
        for sym in ("node7", "node8", "node9"):
            assert (len({id(c) for c in cells if c == sym}) == 1) is one
