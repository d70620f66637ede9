"""TSV serialization: model files, fact files (<predicate>.facts) and the
benchmark report rows.  Integers are written bare; symbols are bare when they
look like identifiers and single-quoted otherwise, so files round-trip."""

from __future__ import annotations

import os
from typing import Iterable

from .lang import MAX_INT, MIN_INT, Const, GdlogError, format_const
from .storage import tuple_key


class FactFileError(GdlogError):
    pass


def parse_cell(cell: str) -> Const:
    """A quoted cell is the symbol inside the quotes, an optional '-' followed
    by ASCII digits is an integer, which must fit in 64 bits, and any other
    cell is a symbol as written."""
    if cell.isascii() and (cell.isdigit() or cell[:1] == "-" and cell[1:].isdigit()):
        value = int(cell)
        if not MIN_INT <= value <= MAX_INT:
            raise FactFileError(f"integer {cell} outside the 64-bit range")
        return value
    if len(cell) >= 2 and cell[0] == "'" and cell[-1] == "'":
        return cell[1:-1]
    return cell


def model_lines(relations: dict[str, Iterable[tuple]]) -> list[str]:
    """One `predicate<TAB>args...` line per tuple, predicates in name order
    and tuples in storage.tuple_key order."""
    out = []
    for pred in sorted(relations):
        for t in sorted(relations[pred], key=tuple_key):
            out.append("\t".join([pred] + [format_const(c) for c in t]))
    return out


def read_model(path_or_file) -> dict[str, set[tuple]]:
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
        where = getattr(path_or_file, "name", "model")
    else:
        where = path_or_file
        with open(path_or_file, encoding="utf-8") as f:
            text = f.read()
    out: dict[str, set[tuple]] = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.rstrip("\n")
        if not line or line.startswith("%"):
            continue
        cells = line.split("\t")
        try:
            t = tuple(parse_cell(c) for c in cells[1:])
        except FactFileError as exc:
            raise FactFileError(f"{where}:{ln}: {exc}") from None
        out.setdefault(cells[0], set()).add(t)
    return out


def write_facts_dir(dirpath: str, edb: dict[str, Iterable[tuple]]) -> None:
    os.makedirs(dirpath, exist_ok=True)
    for pred, rows in edb.items():
        with open(os.path.join(dirpath, f"{pred}.facts"), "w", encoding="utf-8") as f:
            for t in rows:
                f.write("\t".join(format_const(c) for c in t) + "\n")


def read_facts_dir(dirpath: str) -> dict[str, list[tuple]]:
    out: dict[str, list[tuple]] = {}
    if not os.path.isdir(dirpath):
        raise FactFileError(f"facts directory {dirpath} does not exist")
    for name in sorted(os.listdir(dirpath)):
        if not name.endswith(".facts"):
            continue
        pred = name[: -len(".facts")]
        rows: list[tuple] = []
        arity = None
        with open(os.path.join(dirpath, name), encoding="utf-8") as f:
            for ln, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line or line.startswith("%"):
                    continue
                try:
                    t = tuple(parse_cell(c) for c in line.split("\t"))
                except FactFileError as exc:
                    raise FactFileError(f"{name}:{ln}: {exc}") from None
                if arity is None:
                    arity = len(t)
                elif len(t) != arity:
                    raise FactFileError(f"{name}:{ln}: expected {arity} columns, found {len(t)}")
                rows.append(t)
        out[pred] = rows
    return out
