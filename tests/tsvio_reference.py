"""The per-line fact-file reader that gdlog.tsvio.read_facts_dir replaced,
kept as the reference the chunked reader is tested against: one parse_cell
call per cell and one tuple per line, numbering every line as it goes.  Its
parse_cell reads an integer with int() directly, so it takes no cell of
more digits than sys.get_int_max_str_digits() allows."""

from __future__ import annotations

import os

from gdlog.lang import MAX_INT, MIN_INT, RESERVED_PREFIXES, Const
from gdlog.tsvio import FactFileError


def parse_cell(cell: str) -> Const:
    if cell.isascii() and (cell.isdigit() or cell[:1] == "-" and cell[1:].isdigit()):
        value = int(cell)
        if not MIN_INT <= value <= MAX_INT:
            raise FactFileError(f"integer {cell} outside the 64-bit range")
        return value
    if len(cell) >= 2 and cell[0] == "'" and cell[-1] == "'":
        return cell[1:-1]
    return cell


def read_facts_dir(dirpath: str) -> dict[str, list[tuple]]:
    out: dict[str, list[tuple]] = {}
    if not os.path.isdir(dirpath):
        raise FactFileError(f"facts directory {dirpath} does not exist")
    for name in sorted(os.listdir(dirpath)):
        if not name.endswith(".facts"):
            continue
        pred = name[: -len(".facts")]
        if pred.startswith(RESERVED_PREFIXES):
            raise FactFileError(f"{name}: predicate name {pred} uses a reserved prefix")
        rows: list[tuple] = []
        arity = None
        try:
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
        except UnicodeDecodeError as exc:
            raise FactFileError(f"{name}: not UTF-8 text ({exc.reason})") from None
        out[pred] = rows
    return out
