"""In-memory tuple storage: relations with hash indexes, and the theta
candidate tables (hash-keyed, optionally heap-ordered by cost), each with
its rule's chosen side, a view of the rule's chosen_r relation.  All lives
in main memory; tables are single-writer and owned by one fixpoint run.

Chosen sides and theta tables keep one FD index per distinct left side, not
one per declared FD: the FDs L -> R1, ..., L -> Rk of a rule share an index
on L whose right side is R1 + ... + Rk, in declared order.  By Armstrong's
union rule the k FDs hold exactly when that one does, so a tuple agrees
with another on L and differs on some Ri exactly when it differs on the
concatenation: the index sees the declared conflicts and no others.

Every hash index follows one key rule: a key on one column is the bare
constant, and a key on zero or two or more columns is a tuple.  A 1-tuple
would be allocated and hashed afresh on every insert, probe and removal,
since tuples do not cache their hash; a str does, and an int's is trivial.
key_of and key_source build keys by this rule, in Python and in generated
code; projector and tuple_source always build tuples, for head tuples.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, fields
from functools import cache
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Optional

from .analysis import FD, ChoiceInfo, RuleKind
from .lang import GdlogError

Tup = tuple  # fixed-arity tuple of constants


class StorageError(GdlogError):
    pass


class FDViolation(GdlogError):
    pass


def generate(name: str, lines: list[str], values: dict[str, object]) -> Callable:
    """The first function that lines define, compiled under the file name
    <gdlog name>, for profilers and tracebacks, inside a factory make(<value
    names>) that is called with values: each value reaches the generated
    code as a closure variable, never as source text.  The one place the
    package compiles code."""
    entry = lines[0][len("def ") : lines[0].index("(")]
    source = "\n".join([f"def make({', '.join(values)}):", *(f"    {line}" for line in lines), f"    return {entry}"])
    namespace: dict = {}
    exec(compile(source, f"<gdlog {name}>", "exec"), namespace)
    return namespace["make"](**values)


def tuple_source(items: list[str]) -> str:
    """The source of a tuple of the given item sources."""
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def key_source(items: list[str]) -> str:
    """The source of the index key of the given item sources, by the key
    rule: the bare item for one, a tuple of them otherwise."""
    return items[0] if len(items) == 1 else tuple_source(items)


def _order_columns(arity: int) -> str:
    """The source of t's order columns: per column, is it a symbol, then its value."""
    return "".join(f"t[{i}].__class__ is str, t[{i}], " for i in range(arity))


@cache
def order_key(arity: int) -> Callable[[Tup], tuple]:
    """The sort key of same-arity tuples in constant order, integers before
    symbols in each column: t -> (t[0] is a symbol, t[0], t[1] is a symbol,
    t[1], ..., t), with the tuple itself last, where _Heap reads it.  One
    generated function per arity, made once; its source holds only column
    indices."""
    return generate(f"order_key {arity}", ["def order_key(t):", f"    return ({_order_columns(arity)}t,)"], {})


def projector(cols: tuple[int, ...]) -> Callable[[Tup], Tup]:
    """The function t -> (t[cols[0]], t[cols[1]], ...), made once per column
    list so that a projection is one C call.  itemgetter returns a bare value
    for one column and cannot take none, so those get a tuple slice."""
    if len(cols) > 1:
        return itemgetter(*cols)
    if cols:
        return itemgetter(slice(cols[0], cols[0] + 1))
    return itemgetter(slice(0, 0))


def key_of(cols: tuple[int, ...]) -> Callable[[Tup], object]:
    """The function t -> the index key of t on cols, by the key rule: the
    bare value t[cols[0]] for one column, projector(cols)(t) otherwise."""
    return itemgetter(cols[0]) if len(cols) == 1 else projector(cols)


def _fd_groups(fds: tuple[FD, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...], tuple[FD, ...]]]:
    """(left, right, declared) per distinct FD left side, in order of first
    appearance: right concatenates the right sides of the declared FDs with
    that left side, in their order."""
    groups: dict[tuple[int, ...], list[FD]] = {}
    for fd in fds:
        groups.setdefault(fd.left, []).append(fd)
    return [(left, sum((fd.right for fd in g), ()), tuple(g)) for left, g in groups.items()]


TIE_POLICIES = ("lex", "fifo", "random")


def resolve_ties(policy: str | None, seed: int | None) -> tuple[str, random.Random]:
    """The pure-choice tie policy and its generator: None means lex, or
    random when a seed is given; the generator is only drawn from under
    random."""
    if policy is None:
        policy = "lex" if seed is None else "random"
    if policy not in TIE_POLICIES:
        raise StorageError(f"unknown tie policy {policy!r}")
    return policy, random.Random(seed or 0)


@dataclass
class Counters:
    """Machine-independent operation counters.

    work is the master counter, the sum of seven parts, each ticked once per
    elementary operation: join_probes (body rows probed), emissions (tuples
    a closure evaluation returns, facts already held included),
    conflict_checks (candidates checked against a theta table's chosen side),
    theta_inserts, theta_deletes, pq_ops (heap operations and sift levels)
    and scan_steps (settled candidates a pq=off selection visits).  The
    benchmark slope checks run on these counters; wall time is reported only
    informationally.
    """

    iterations: int = 0
    firings: int = 0
    derived: int = 0
    join_probes: int = 0
    theta_inserts: int = 0
    theta_deletes: int = 0
    pq_ops: int = 0
    conflict_checks: int = 0
    emissions: int = 0
    scan_steps: int = 0
    wall_time_s: float = 0.0

    @property
    def work(self) -> int:
        return (
            self.join_probes + self.emissions + self.conflict_checks + self.theta_inserts
            + self.theta_deletes + self.pq_ops + self.scan_steps
        )

    def as_dict(self) -> dict[str, float]:
        """The counters by field name, in field order, with work before
        wall_time_s (the --stats and bench TSV column order)."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        wall_time_s = d.pop("wall_time_s")
        return {**d, "work": self.work, "wall_time_s": wall_time_s}


# ---------------------------------------------------------------------------
# Relations


class Relation:
    """Set of same-arity tuples with insertion order and hash indexes.

    Insertion order is what makes differential evaluation cheap: a delta is
    just a suffix of the row list, addressed by position.  An index on one
    column is keyed by the bare constant, an index on more columns by
    tuples (the key rule), and lookup takes its key in the same form.
    """

    __slots__ = ("name", "arity", "rows", "_pos", "_indexes", "_keyed")

    def __init__(self, name: str, arity: int):
        self.name = name
        self.arity = arity
        self.rows: list[Tup] = []
        self._pos: set[Tup] = set()
        self._indexes: dict[tuple[int, ...], dict[object, list[Tup]]] = {}
        self._keyed: list[tuple[Callable[[Tup], object], dict[object, list[Tup]]]] = []

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tup]:
        return iter(self.rows)

    def __contains__(self, t: Tup) -> bool:
        return t in self._pos

    def insert(self, t: Tup) -> bool:
        """Add a tuple; False when it is a duplicate.  Amortized constant
        time, indexes included."""
        if len(t) != self.arity:
            raise StorageError(f"{self.name}: arity mismatch, expected {self.arity} got {len(t)}")
        if t in self._pos:
            return False
        self._pos.add(t)
        self.rows.append(t)
        for key, index in self._keyed:
            index.setdefault(key(t), []).append(t)
        return True

    def insert_all(self, ts: list[Tup]) -> None:
        """insert(t) for each t of ts in order, in bulk: the first occurrence
        of a tuple is added, its repeats and the tuples already present are
        not.  A tuple of the wrong arity raises as insert does, after the
        tuples before it are added."""
        arity = self.arity
        if list(map(len, ts)).count(arity) != len(ts):
            bad = next(i for i, t in enumerate(ts) if len(t) != arity)
            self.insert_all(ts[:bad])
            self.insert(ts[bad])  # raises
        pos = self._pos
        if pos:
            fresh = [t for t in dict.fromkeys(ts) if t not in pos]
            pos.update(fresh)
        else:
            pos.update(ts)
            fresh = ts if len(pos) == len(ts) else list(dict.fromkeys(ts))
        self.rows += fresh
        for key, index in self._keyed:
            for t in fresh:
                index.setdefault(key(t), []).append(t)

    def ensure_index(self, cols: tuple[int, ...]) -> dict[object, list[Tup]]:
        """The index on cols, built on first request; on no columns (an
        empty FD left side) it keys every tuple by ()."""
        index = self._indexes.get(cols)
        if index is None:
            key = key_of(cols)
            index = self._indexes[cols] = {}
            for t in self.rows:
                index.setdefault(key(t), []).append(t)
            self._keyed.append((key, index))
        return index

    def lookup(self, cols: tuple[int, ...], key) -> list[Tup]:
        """Exactly the tuples matching key on the given columns: the bare
        constant for one column, a tuple of constants for more."""
        return self._indexes[cols].get(key, _EMPTY)


_EMPTY: list = []


# ---------------------------------------------------------------------------
# Chosen tables


class ChosenTable:
    """The chosen side of one choice rule's theta table: an FD view of the
    rule's chosen_r relation, the one store of its chosen tuples, through
    the relation's index of each FD left side (which ThetaTable.admit reads
    inline).  The FDs hold at all times (a violating insert raises and
    changes nothing), so a bucket's first tuple has the right side of all."""

    def __init__(self, info: ChoiceInfo, relation: Relation):
        self.info = info
        self.relation = relation
        # per left side: its key, the projector of its right side, the
        # relation's index on it, and the declared FDs of that left side
        self._fds: list[tuple[Callable, Callable, dict, tuple[FD, ...]]] = [
            (key_of(left), projector(right), relation.ensure_index(left), declared)
            for left, right, declared in _fd_groups(info.fds)
        ]

    def conflicts(self, t: Tup) -> bool:
        """True when t is chosen already, or agrees with a chosen tuple on the
        left side of some FD and differs from it on the right side.  The
        reference for ThetaTable.admit's inline check."""
        for left, right, index, _ in self._fds:
            rows = index.get(left(t))
            if rows is not None and right(rows[0]) != right(t):
                return True
        return t in self.relation

    def insert(self, t: Tup) -> None:
        """Add t to the relation once it is checked on every FD left side."""
        for left, right, index, declared in self._fds:
            rows = index.get(left(t))
            if rows is None or (r := right(rows[0])) == right(t):
                continue
            # name the first declared FD of this left side that t violates
            for fd in declared:
                part, r = r[: len(fd.right)], r[len(fd.right) :]
                if part != projector(fd.right)(t):
                    raise FDViolation(
                        f"{self.info.chosen_pred}: FD {fd.left}->{fd.right} violated by {t}, "
                        f"whose left side is chosen with right side {part}"
                    )
        self.relation.insert(t)


# ---------------------------------------------------------------------------
# Binary heaps, slotted or not


class _Heap:
    """Min-heap over the keys of a theta table's candidates: order-key
    tuples whose last element is the keyed tuple (two keys of distinct
    tuples differ before it, so the tuple itself is never compared),
    records (below), or the signed costs of a unary cost table (see
    _signed_cost).  A push counts one priority-queue operation plus one per
    level its key rises.

    pop and delete_all share one sift, _fill, which fills the slot of a
    removed key with the last key (Wegener's bottom-up sift, the one heapq's
    heappop uses): the hole descends along the lesser child to a leaf,
    taking the right child only when it is strictly less, and the key then
    rises while it is less than its parent.  Keys are distinct, so the key
    stops where a rise-or-sink from that slot would put it, and the fill
    counts one operation plus the levels between the two slots.

    A slotted heap deletes from the middle in O(log m): each of its keys is
    a mutable record [order columns..., slot, t] that carries its own slot
    (the handle-in-element design of addressable priority queues).  Keys of
    distinct tuples differ before the slot, so comparisons never reach it,
    and the sifts write rec[-2] = i wherever a record lands.  Only a theta
    table with an FD index or a unique key deletes a key that is not the
    least, so only its heap is slotted; any other heap keeps tuples or
    signed costs, writes nothing, and its delete accepts only the least key
    (a slotted domain heap made the sort solve about 45% slower).  Both
    kinds of heap leave the same tuple order and counts."""

    __slots__ = ("items", "slotted", "counters")

    def __init__(self, counters: Counters, slotted: bool):
        self.items: list = []
        self.slotted = slotted
        self.counters = counters

    def __len__(self):
        return len(self.items)

    def push_all(self, keys: Collection) -> None:
        """Push each key, in order."""
        items, slotted = self.items, self.slotted
        moved = 0
        for key in keys:
            i = len(items)
            items.append(key)
            while i:
                parent = (i - 1) // 2
                above = items[parent]
                if not key < above:
                    break
                items[i] = above
                if slotted:
                    above[-2] = i
                i = parent
                moved += 1
            items[i] = key
            if slotted:
                key[-2] = i
        self.counters.pq_ops += len(keys) + moved

    def pop(self):
        """Remove and return the least key of a non-empty heap."""
        least = self.items[0]
        self._fill(0)
        return least

    def delete_all(self, keys: Iterable) -> None:
        """Delete each key, in order: a slotted heap reads the key's slot
        from its record; any other heap deletes only its least key."""
        items, slotted, fill = self.items, self.slotted, self._fill
        for key in keys:
            if slotted:
                fill(key[-2])
            elif items and items[0] == key:
                fill(0)
            else:
                raise StorageError(f"heap without slots can only delete its least key, not {key}")

    def _fill(self, i: int) -> None:
        """Move the last key into slot i, whose key was removed."""
        items, slotted = self.items, self.slotted
        key = items.pop()
        n = len(items)
        if i == n:  # the removed key was the last
            self.counters.pq_ops += 1
            return
        depth = (i + 1).bit_length()  # slot i's depth, plus one
        child = 2 * i + 1
        while child < n:
            below = items[child]
            right = child + 1
            if right < n and items[right] < below:
                child = right
                below = items[right]
            items[i] = below
            if slotted:
                below[-2] = i
            i = child
            child = 2 * i + 1
        while i:
            parent = (i - 1) // 2
            above = items[parent]
            if not key < above:
                break
            items[i] = above
            if slotted:
                above[-2] = i
            i = parent
        items[i] = key
        if slotted:
            key[-2] = i
        self.counters.pq_ops += 1 + abs((i + 1).bit_length() - depth)


# ---------------------------------------------------------------------------
# Theta tables


class _Shape(NamedTuple):
    """What a theta table's generated code depends on: the arity of its
    tuples, the declared FDs, the cost position and whether the most cost
    is best, the unique key, the selection policy ("lex" for every ordered
    table) and its heap: None, "plain" (order-key tuples or signed costs)
    or "slotted" (records).  The key under which _admission, _removal and
    _purge cache the code of each shape."""

    arity: int
    fds: tuple[FD, ...]
    cost_pos: Optional[int]
    most: bool
    unique_key: Optional[tuple[int, ...]]
    policy: str
    heap: Optional[str]

    def __str__(self) -> str:
        fds = ",".join(f"{fd.left}->{fd.right}" for fd in self.fds)
        return (
            f"arity={self.arity} fds={fds} cost={self.cost_pos} most={self.most} ukey={self.unique_key} "
            f"{self.policy} heap={self.heap}"
        )


def _signed_cost(shape: _Shape) -> bool:
    """Whether the shape keys each candidate by its bare signed cost, -c
    (choice_most) or c (choice_least), instead of an order-key tuple: a
    unary table costed on its one column, whose heap (if any) is not
    slotted, such as the factorized domain table.  Distinct 1-tuples have
    distinct costs, so the signed cost orders them exactly as the tuple
    key (-c, False, c, (c,)) does, and each heap comparison compares two
    ints instead of two tuples."""
    return shape.arity == 1 and shape.cost_pos == 0 and shape.heap != "slotted"


def _least_cost_tuple(key: int) -> Tup:
    return (key,)


def _most_cost_tuple(key: int) -> Tup:
    return (-key,)


def _key_tuple(shape: _Shape) -> Callable[[object], Tup]:
    """The tuple that a key of the shape stands for: the signed cost's
    1-tuple, or the last element of an order-key tuple or a record."""
    if _signed_cost(shape):
        return _most_cost_tuple if shape.most else _least_cost_tuple
    return itemgetter(-1)


def _fd_locals(shape: _Shape) -> list[str]:
    """The line that binds f<g> to the FD index of each left side, in the
    order of the table's _fd_index; none for a table without FDs."""
    groups = _fd_groups(shape.fds)
    return [f"    {''.join(f'f{g}, ' for g in range(len(groups)))}= self._fd_index"] if groups else []


@cache
def _admission(shape: _Shape) -> Callable[["ThetaTable", Collection[Tup]], None]:
    """The loop of ThetaTable.admit for one table shape, generated once per
    shape.  A candidate chosen already is skipped, as is one whose FD left
    side has a bucket in the chosen relation's index whose first tuple
    differs from it on the right side.  Each candidate's FD left sides and
    unique key (by the key rule) and its key (an order-key tuple, a record
    for a slotted heap, or the signed cost of a unary cost table) are built
    inline from column indices, with no call and no branch on the table's
    kind; a candidate that replaces a worse one of its unique key removes
    it through the table's generated removal.  The source holds only column indices; everything else is read
    from the table or bound as a value of generate."""
    arity, fds, cost_pos, most, unique_key, policy, heap = shape
    groups = [(left, right) for left, right, _ in _fd_groups(fds)]
    ordered = policy == "lex"
    cells = _order_columns(arity)
    if cost_pos is not None:
        cells = f"{'-c' if most else 'c'}, {cells}"
    if _signed_cost(shape):
        key = "-c" if most else "c"
    elif heap == "slotted":
        key = f"[{cells}-1, t]"
    else:
        key = f"({cells}t,)"
    src = [
        "def admit(self, ts):",
        "    counters = self.counters",
        "    entries = self._entries",
        "    crows = self.chosen.relation._pos",
    ]
    if groups:
        src += [
            f"    {''.join(f'c{g}, ' for g in range(len(groups)))}= self._chosen_index",
            *_fd_locals(shape),
            "    counters.conflict_checks += len(ts)",
        ]
    if unique_key is not None:
        src += ["    ukey_index = self._ukey_index", "    remove = self._remove"]
    if ordered:
        src += ["    staged = self._staged", "    best = self._staged_best"]
    elif policy == "random":
        src.append("    rand_list = self._rand_list")
    src += [
        "    added = 0",
        "    try:",
        "        for t in ts:",
        "            if t in entries or t in crows:",
        "                continue",
    ]
    for g, (left, right) in enumerate(groups):
        src += [
            f"            l{g} = {key_source([f't[{i}]' for i in left])}",
            f"            r = c{g}.get(l{g})",
            f"            if r is not None and ({' or '.join(f'r[0][{i}] != t[{i}]' for i in right)}):",
            "                continue",
        ]
    src.append("            added += 1")
    if cost_pos is not None:
        src += [
            f"            c = t[{cost_pos}]",
            "            if not isinstance(c, int):",
            "                raise error(cost_message.format(self.info.chosen_pred, c))",
        ]
    if ordered:
        src.append(f"            key = {key}")
    if unique_key is not None:
        src += [
            f"            u = {key_source([f't[{i}]' for i in unique_key])}",
            "            cur = ukey_index.get(u)",
            "            if cur is not None:",
            "                if not key < entries[cur]:",
            "                    continue",
            "                self._staged_best = best",
            "                remove(self, (cur,))",
            "                best = self._staged_best",
            "            ukey_index[u] = t",
        ]
    for g in range(len(groups)):
        src += [
            f"            bucket = f{g}.get(l{g})",
            "            if bucket is None:",
            f"                f{g}[l{g}] = {{t: None}}",
            "            else:",
            "                bucket[t] = None",
        ]
    if ordered:
        src += [
            "            if best is None:",
            "                self._flush()",
            "                best = key",
            "            elif key < best:",
            "                best = key",
            "            staged[t] = key",
            "            entries[t] = key",
        ]
    elif policy == "random":
        src += ["            entries[t] = len(rand_list)", "            rand_list.append(t)"]
    else:
        src.append("            entries[t] = None")
    src.append("    finally:")
    if ordered:
        src.append("        self._staged_best = best")
    src.append("        counters.theta_inserts += added")
    message = "{}: cost argument must be an integer, got {!r}"
    return generate(f"admit {shape}", src, {"error": StorageError, "cost_message": message})


@cache
def _removal(shape: _Shape) -> Callable[["ThetaTable", Collection[Tup]], None]:
    """ThetaTable's removal of candidates ts, all in the table, for one
    table shape, generated once per shape: each candidate leaves its entry,
    its FD buckets (an emptied bucket leaves its index) and the unique-key
    index if it holds the unique key; an ordered table unstages it, forgets
    the staged best if that was its key, and deletes a settled key from the
    heap through _Heap._fill (or delete_all, for a plain heap, which only
    deletes its least key); a random table moves its last candidate into the
    freed slot of the list.  Each removal counts one theta delete.  Only the
    upkeep of the table's own kind is emitted, and the FD sides and the
    unique key are projected inline from column indices."""
    ordered = shape.policy == "lex"
    src = ["def remove_all(self, ts):", "    entries = self._entries", *_fd_locals(shape)]
    if shape.unique_key is not None:
        src.append("    ukey_index = self._ukey_index")
    if ordered:
        src += ["    staged = self._staged", "    best = self._staged_best"]
        if shape.heap == "slotted":
            src.append("    fill = self._heap._fill")
        elif shape.heap == "plain":
            src.append("    delete_all = self._heap.delete_all")
    elif shape.policy == "random":
        src.append("    rand_list = self._rand_list")
    src += ["    for t in ts:", "        entry = entries.pop(t)"]
    for g, (left, _, _) in enumerate(_fd_groups(shape.fds)):
        src += [
            f"        l = {key_source([f't[{i}]' for i in left])}",
            f"        bucket = f{g}[l]",
            "        del bucket[t]",
            "        if not bucket:",
            f"            del f{g}[l]",
        ]
    if shape.unique_key is not None:
        src += [
            f"        u = {key_source([f't[{i}]' for i in shape.unique_key])}",
            "        if ukey_index.get(u) == t:",
            "            del ukey_index[u]",
        ]
    if ordered and shape.heap is None:
        src += [
            "        if staged.pop(t, None) is not None and entry is best:",
            "            self._staged_best = best = None",
        ]
    elif ordered:
        src += [
            "        if staged.pop(t, None) is None:",
            f"            {'fill(entry[-2])' if shape.heap == 'slotted' else 'delete_all((entry,))'}",
            "        elif entry is best:",
            "            self._staged_best = best = None",
        ]
    elif shape.policy == "random":
        src += [
            "        last = rand_list.pop()",
            "        if last != t:",
            "            rand_list[entry] = last",
            "            entries[last] = entry",
        ]
    src.append("    self.counters.theta_deletes += len(ts)")
    return generate(f"remove {shape}", src, {})


@cache
def _purge(shape: _Shape) -> Callable[["ThetaTable", Tup], int]:
    """ThetaTable.purge_conflicting for one table shape, generated once per
    shape: one pass per declared FD, in declared order, over the bucket of
    delta's left side in the index of that side, whose victims (the
    candidates that differ from delta on the FD's right side, and delta
    itself) leave through the table's generated removal before the next FD
    is looked up.  Victims therefore leave in the order heap upkeep and
    random ties depend on.  Returns how many candidates left."""
    lefts = [left for left, _, _ in _fd_groups(shape.fds)]
    src = ["def purge_conflicting(self, delta):"]
    if shape.fds:
        src += [*_fd_locals(shape), "    remove = self._remove", "    removed = 0"]
    for fd in shape.fds:
        differs = [f"t[{i}] != delta[{i}]" for i in fd.right]
        src += [
            f"    bucket = f{lefts.index(fd.left)}.get({key_source([f'delta[{i}]' for i in fd.left])})",
            "    if bucket:",
            f"        victims = [t for t in bucket if {' or '.join(differs + ['t == delta'])}]",
            "        if victims:",
            "            remove(self, victims)",
            "            removed += len(victims)",
        ]
    src.append("    return removed" if shape.fds else "    return 0")
    return generate(f"purge {shape}", src, {})


class ThetaTable:
    """Future candidates for one choice rule.

    Hash-keyed on every FD left side and on the unique key, each by the key
    rule (a bare constant for one column, a tuple otherwise), and holding
    the rule's chosen side (ChosenTable over the chosen relation given),
    against which admit checks candidates and into which choose records
    each selected one.  The info alone shapes the table: a cost position makes it greedy (choice_least
    or choice_most by its kind), and with a unique key only the best-cost
    tuple per key value is retained; the plain choice fixpoint passes a
    pure view of the info.
    Every pass over candidates runs code generated once per table shape
    (_Shape): the admission loop (_admission), the removal (_removal) that
    a selection, a purge and a unique-key replacement all take, and the
    purge's victim scan (_purge).  select_extreme and purge_conflicting stay
    methods of the class, one call each per selection, so that a wrapper on
    the class sees every selection and every purge.

    Each candidate has one record, its entry, whose value is what the
    table's policy keeps of it.  A table with a fixed order (greedy, or pure
    under lex ties) keeps the candidate's order key and stages fresh
    candidates, together with their least key.  A selection takes the
    better of that key and the least settled key, and a purge drops staged
    victims at no further cost.  Once the least staged key is lost (its
    tuple was selected, purged or replaced), the staged survivors settle at
    the next insert or selection: with the priority queue they are pushed in
    insertion order onto a heap, found in O(log m) at selection; without it
    they stay in the entries, which each selection scans, one tick per
    settled candidate.  A candidate purged while still staged never settles.
    A table with an FD index or a unique key deletes candidates from the
    middle of its heap, so its heap is slotted: the entry is the mutable
    record the heap holds, and the record carries its heap slot, -1 while
    staged.  Every other order key is a tuple ending in its candidate,
    except a unary cost table's (_signed_cost): its key is the bare signed
    cost, -c for choice_most and c for choice_least.  _key_tuple, the one
    key-to-tuple rule, gives back the candidate of any key.

    The order key is order_key's for the table's arity: integers before
    symbols in each column, column by column, behind the extreme cost for a
    greedy table.  tie_policy governs selection among pure-choice
    candidates (equal costs always break in that order):
      lex    deterministic, lexicographically least tuple
      fifo   oldest surviving candidate, the first entry, in constant time
      random seeded uniform choice, constant time: the entry is the
             candidate's slot in a list of the candidates
    """

    def __init__(
        self, info: ChoiceInfo, chosen: Relation, counters: Counters, use_pq: bool, tie_policy: str, rng: random.Random
    ):
        self.info = info
        self.chosen = ChosenTable(info, chosen)
        self.counters = counters
        self.rng = rng
        # greedy and lex tables have a fixed order: an order key per candidate
        self._ordered = info.cost_pos is not None or tie_policy == "lex"
        self._random = tie_policy == "random" and not self._ordered
        # tuple -> its order key or record (ordered), its slot in _rand_list
        # (random) or None (fifo, whose OrderedDict finds its first key in
        # O(1) after deletes at the front)
        self._entries: dict[Tup, object] = {} if self._ordered or self._random else OrderedDict()
        # one index per FD left side, in order of first appearance: left
        # side -> bucket of the candidates with that left side; buckets are
        # insertion-ordered dicts, not sets, so purge order (and with it heap
        # and random-tie upkeep) does not depend on str hashing
        self._fd_index: list[dict[object, dict[Tup, None]]] = [{} for _ in _fd_groups(info.fds)]
        # the chosen relation's index of each left side, in the same order
        self._chosen_index = [index for _, _, index, _ in self.chosen._fds]
        self._ukey_index: dict[object, Tup] = {}
        # ordered tables only: tuple -> order key of the candidates not yet
        # settled, and their least key (None when staged is empty, or unknown
        # since that key's tuple was removed); settled candidates live in the
        # heap with the queue, and only in the entries without it
        self._staged: dict[Tup, object] = {}
        self._staged_best: object = None
        slotted = bool(info.fds) or info.unique_key is not None
        self._heap: Optional[_Heap] = _Heap(self.counters, slotted) if use_pq and self._ordered else None
        shape = _Shape(
            len(info.w_vars),
            info.fds,
            info.cost_pos,
            info.kind is RuleKind.CHOICE_MOST,
            info.unique_key,
            "lex" if self._ordered else tie_policy,
            None if self._heap is None else "slotted" if self._heap.slotted else "plain",
        )
        self._rand_list: list[Tup] = []
        self._key_tuple = _key_tuple(shape)
        self._admit = _admission(shape)
        self._remove = _removal(shape)
        self._purge = _purge(shape)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tup]:
        return iter(self._entries)

    def __contains__(self, t: Tup) -> bool:
        return t in self._entries

    # -- mutation -----------------------------------------------------------

    def insert(self, t: Tup) -> None:
        """Add one candidate, as admit((t,)) does."""
        self.admit((t,))

    def admit(self, ts: Collection[Tup]) -> None:
        """Add each candidate of ts that is neither in the table nor in
        conflict with the chosen side (as self.chosen.conflicts(t) decides).
        When the rule has an FD, every tuple of ts counts as one conflict
        check; a table without one (the factorized domain table, from which
        nothing is chosen) counts none.  An added candidate counts as a theta
        insert, and its order key surfaces a non-integer cost; the
        candidates before it stay added.  Under a unique key only the
        better-cost tuple per key value is retained."""
        self._admit(self, ts)

    # -- selection ----------------------------------------------------------

    def select_extreme(self) -> Optional[Tup]:
        """Remove and return the next tuple to choose, None when the table is
        empty: for a greedy rule the least (choice_least) or most
        (choice_most) cost tuple, equal costs in lexicographic order; for
        pure choice the tie policy's pick.  Greedy and lex tables take the
        least order key, settled candidates in O(log m) with the priority
        queue and by a linear scan without it."""
        entries = self._entries
        if not entries:
            return None
        if self._ordered:
            staged, heap = self._staged, self._heap
            if heap is not None and not heap.slotted and not staged:
                # the least key of a table with no FD index and no unique
                # key: what the removal does for it, with one pop
                t = self._key_tuple(heap.pop())
                del entries[t]
                self.counters.theta_deletes += 1
                return t
            if self._staged_best is None and staged:
                self._flush()
            best = self._staged_best
            if heap is not None:
                settled = heap.items[0] if heap.items else None
            else:
                self.counters.scan_steps += len(entries) - len(staged)
                settled = min((key for t, key in entries.items() if t not in staged), default=None)
            if best is None or (settled is not None and settled < best):
                best = settled
            t = self._key_tuple(best)
        elif self._random:
            t = self._rand_list[self.rng.randrange(len(self._rand_list))]
        else:
            t = next(iter(entries))
        self._remove(self, (t,))
        return t

    def choose(self, delta: Tup) -> int:
        """Record delta, the selected candidate, in the chosen relation (a
        tuple that violates an FD there raises FDViolation) and purge the
        candidates it conflicts with; returns how many were purged."""
        self.chosen.insert(delta)
        return self.purge_conflicting(delta)

    def purge_conflicting(self, delta: Tup) -> int:
        """Drop delta and every candidate that agrees with it on the left side
        of some FD and differs from it on the right side, one declared FD at
        a time (_purge); the FD indexes find them, and each removal is
        constant time (plus heap maintenance for a candidate already
        pushed).  Returns how many were dropped."""
        return self._purge(self, delta)

    def _flush(self) -> None:
        if self._heap is not None:
            self._heap.push_all(self._staged.values())
        self._staged.clear()
