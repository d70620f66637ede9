"""TSV serialization: model files, fact files (<predicate>.facts) and the
benchmark report rows.  Integers are written bare; symbols are bare when they
look like identifiers and single-quoted otherwise, so files round-trip."""

from __future__ import annotations

import os
from itertools import chain, repeat
from typing import Iterable

from .lang import MAX_INT, RESERVED_PREFIXES, Const, GdlogError, format_const, int_in_range
from .storage import order_key


class FactFileError(GdlogError):
    pass


def parse_cell(cell: str) -> Const:
    """A quoted cell is the symbol inside the quotes, an optional '-' followed
    by ASCII digits is an integer, which must fit in 64 bits, and any other
    cell is a symbol as written."""
    if cell.isascii() and (cell.isdigit() or cell[:1] == "-" and cell[1:].isdigit()):
        value = int_in_range(cell)
        if value is None:
            raise FactFileError(f"integer {cell} outside the 64-bit range")
        return value
    if len(cell) >= 2 and cell[0] == "'" and cell[-1] == "'":
        return cell[1:-1]
    return cell


def model_lines(relations: dict[str, Iterable[tuple]]) -> list[str]:
    """One `predicate<TAB>args...` line per tuple, predicates in name order
    and tuples in storage.order_key order: integers before symbols in each
    column, column by column.  Each predicate has one arity.

    A relation is first sorted by plain tuple comparison.  Two distinct
    tuples compare at the first column where they differ; when both cells
    there have one type, plain comparison and order_key agree, and when
    they do not, plain comparison raises TypeError.  So a sort that
    finishes made only the comparisons order_key would have and gives its
    order, which always happens when no column holds both integers and
    symbols; a sort that raises is redone with order_key.  Each line is
    then one `%` format of its tuple, after the symbols that format_const
    quotes are replaced by their quoted cells; each distinct symbol goes
    through _cell once per call."""
    out: list[str] = []
    cells: dict[str, str] = {}  # symbol -> _cell(symbol)
    quoted: dict[str, str] = {}  # the symbols whose cells differ from them
    for pred in sorted(relations):
        rows = relations[pred]
        if not rows:
            continue
        symbols = set(filter(str.__instancecheck__, chain.from_iterable(rows)))
        for c in symbols.difference(cells):
            cell = cells[c] = _cell(c)
            if cell != c:
                quoted[c] = cell
        arity = len(next(iter(rows)))
        try:
            rows = sorted(rows)
        except TypeError:
            rows = sorted(rows, key=order_key(arity))
        if not quoted.keys().isdisjoint(symbols):
            get = quoted.get
            rows = [tuple(map(get, t, t)) for t in rows]
        out += map((pred.replace("%", "%%") + "\t%s" * arity).__mod__, rows)
    return out


def _cell(c: Const) -> str:
    """format_const(c), as a cell of a model or fact file.  A symbol holding
    a tab, '\\n' or '\\r' raises: read back, it would split the cell or line."""
    if c.__class__ is str and ("\t" in c or "\n" in c or "\r" in c):
        raise FactFileError(f"symbol {c!r} holds a tab or line break, which no file cell can hold")
    return format_const(c)


def read_model(path: str) -> dict[str, set[tuple]]:
    """The atoms of a model file.  Text mode reads '\\r' and '\\r\\n' as
    '\\n', so lines end at all three, as in fact files, and at no other line
    separator: a symbol may hold '\\x0c' or '\\u2028', not '\\r'."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise FactFileError(f"{path}: not UTF-8 text ({exc.reason})") from None
    out: dict[str, set[tuple]] = {}
    for ln, line in enumerate(text.split("\n"), 1):
        if not line or line.startswith("%"):
            continue
        cells = line.split("\t")
        try:
            t = tuple(parse_cell(c) for c in cells[1:])
        except FactFileError as exc:
            raise FactFileError(f"{path}:{ln}: {exc}") from None
        out.setdefault(cells[0], set()).add(t)
    return out


def write_facts_dir(dirpath: str, edb: dict[str, Iterable[tuple]]) -> None:
    os.makedirs(dirpath, exist_ok=True)
    for pred, rows in edb.items():
        text = "".join("\t".join(map(_cell, t)) + "\n" for t in rows)
        with open(os.path.join(dirpath, f"{pred}.facts"), "w", encoding="utf-8") as f:
            f.write(text)


# characters of whole lines that read_facts_dir reads and converts at a time
_CHUNK = 1 << 16
# an ASCII-digit cell this long or shorter is a non-negative 64-bit integer
_SAFE_DIGITS = len(str(MAX_INT)) - 1


def read_facts_dir(dirpath: str) -> dict[str, list[tuple]]:
    """The rows of every <predicate>.facts file in a directory, by
    predicate.  Cells are read as parse_cell reads them, and equal symbols
    read by one call are one object."""
    if not os.path.isdir(dirpath):
        if os.path.exists(dirpath):
            raise FactFileError(f"facts path {dirpath} is not a directory")
        raise FactFileError(f"facts directory {dirpath} does not exist")
    consts: dict[str, Const] = {}  # cell text -> its constant
    symbols: dict[str, str] = {}  # symbol -> its one object
    out: dict[str, list[tuple]] = {}
    for name in sorted(os.listdir(dirpath)):
        if not name.endswith(".facts"):
            continue
        pred = name[: -len(".facts")]
        if pred.startswith(RESERVED_PREFIXES):
            # chosen_r and diffchoice_r hold only what the run itself chooses
            raise FactFileError(f"{name}: predicate name {pred} uses a reserved prefix")
        if pred.startswith("%"):
            raise FactFileError(f"{name}: predicate name {pred} starts with '%'")
        try:
            with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                out[pred] = _read_fact_file(f, name, consts, symbols)
        except UnicodeDecodeError as exc:
            raise FactFileError(f"{name}: not UTF-8 text ({exc.reason})") from None
    return out


def _read_fact_file(f, name: str, consts: dict[str, Const], symbols: dict[str, str]) -> list[tuple]:
    """One fact file, read _CHUNK characters of lines at a time.  Each chunk
    is split into columns; a column of ASCII digits short enough to fit is
    converted by one map(int), and every other cell goes through consts, so
    each distinct cell text is parsed once.  A chunk with a bad line is read
    again line by line, which raises the first line's error."""
    rows: list[tuple] = []
    arity = None
    first_ln = 1  # line number of the chunk's first line
    while chunk := f.readlines(_CHUNK):
        text = "".join(chunk)
        lines = text.split("\n")
        if text[-1] == "\n":
            lines.pop()
        if "" in lines or text[0] == "%" or "\n%" in text:
            lines = [line for line in lines if line and line[0] != "%"]
        if lines:
            if arity is None:
                arity = lines[0].count("\t") + 1
            cols = _columns(lines, arity, consts, symbols)
            if cols is None:
                _raise_first_error(chunk, name, first_ln, arity)
            rows += zip(*cols)
        first_ln += len(chunk)
    return rows


def _columns(lines: list[str], arity: int, consts: dict[str, Const], symbols: dict[str, str]):
    """The converted columns of a chunk's fact lines, or None when a line
    has other than arity cells or a cell is an integer outside 64 bits."""
    if list(map(str.count, lines, repeat("\t"))).count(arity - 1) != len(lines):
        return None
    cells = "\t".join(lines).split("\t")
    cols = []
    for i in range(arity):
        col = cells[i::arity]
        digits = "".join(col)
        if digits.isascii() and digits.isdigit() and "" not in col and max(map(len, col)) <= _SAFE_DIGITS:
            cols.append(list(map(int, col)))
            continue
        for cell in set(col).difference(consts):
            try:
                c = parse_cell(cell)
            except FactFileError:
                return None
            consts[cell] = c if c.__class__ is int else symbols.setdefault(c, c)
        cols.append(list(map(consts.__getitem__, col)))
    return cols


def _raise_first_error(chunk: list[str], name: str, first_ln: int, arity: int):
    """Raise the error of the first bad line in chunk, whose first line is
    line first_ln of the file and whose rows have arity cells."""
    for ln, line in enumerate(chunk, first_ln):
        line = line.rstrip("\n")
        if not line or line[0] == "%":
            continue
        try:
            for cell in line.split("\t"):
                parse_cell(cell)
        except FactFileError as exc:
            raise FactFileError(f"{name}:{ln}: {exc}") from None
        width = line.count("\t") + 1
        if width != arity:
            raise FactFileError(f"{name}:{ln}: expected {arity} columns, found {width}")
    raise AssertionError(f"{name}: no bad line from line {first_ln} on")
