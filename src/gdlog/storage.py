"""In-memory tuple storage: relations with hash indexes, and the theta
candidate tables (hash-keyed, optionally heap-ordered by cost), each with
its rule's chosen tuples.  Everything lives in main memory; tables are
single-writer and owned by one fixpoint run at a time.

Chosen and theta tables keep one FD index per distinct left side, not one
per declared FD: the FDs L -> R1, ..., L -> Rk of a rule share an index on
L whose right side is R1 + ... + Rk, in declared order.  By Armstrong's
union rule the k FDs hold exactly when that one does, so a tuple agrees
with another on L and differs on some Ri exactly when it differs on the
concatenation: the index sees the declared conflicts and no others.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, fields
from functools import cache
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Optional

from .analysis import FD, ChoiceInfo, RuleKind
from .lang import GdlogError

Tup = tuple  # fixed-arity tuple of constants


class StorageError(GdlogError):
    pass


class FDViolation(GdlogError):
    pass


@cache
def order_key(arity: int) -> Callable[[Tup], tuple]:
    """The sort key of same-arity tuples in constant order, integers before
    symbols in each column: t -> (t[0] is a symbol, t[0], t[1] is a symbol,
    t[1], ..., t), with the tuple itself last, where _Heap reads it.  One
    generated function per arity, made once; its source holds only column
    indices."""
    cols = "".join(f"t[{i}].__class__ is str, t[{i}], " for i in range(arity))
    return eval(f"lambda t: ({cols}t,)")


def projector(cols: tuple[int, ...]) -> Callable[[Tup], Tup]:
    """The function t -> (t[cols[0]], t[cols[1]], ...), made once per column
    list so that a projection is one C call.  itemgetter returns a bare value
    for one column and cannot take none, so those get a tuple slice."""
    if len(cols) > 1:
        return itemgetter(*cols)
    if cols:
        return itemgetter(slice(cols[0], cols[0] + 1))
    return itemgetter(slice(0, 0))


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
    just a suffix of the row list, addressed by position.
    """

    __slots__ = ("name", "arity", "rows", "_pos", "_indexes", "_keyed")

    def __init__(self, name: str, arity: int):
        self.name = name
        self.arity = arity
        self.rows: list[Tup] = []
        self._pos: set[Tup] = set()
        self._indexes: dict[tuple[int, ...], dict[Tup, list[Tup]]] = {}
        self._keyed: list[tuple[Callable[[Tup], Tup], dict[Tup, list[Tup]]]] = []

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

    def ensure_index(self, cols: tuple[int, ...]) -> None:
        if cols in self._indexes or not cols:
            return
        key = projector(cols)
        index: dict[Tup, list[Tup]] = {}
        for t in self.rows:
            index.setdefault(key(t), []).append(t)
        self._indexes[cols] = index
        self._keyed.append((key, index))

    def lookup(self, cols: tuple[int, ...], key: Tup) -> list[Tup]:
        """Exactly the tuples matching key on the given columns."""
        return self._indexes[cols].get(key, _EMPTY)


_EMPTY: list = []


# ---------------------------------------------------------------------------
# Chosen tables


class ChosenTable:
    """The chosen side of one choice rule's theta table: the tuples chosen so
    far, and one hash index per FD left side from each chosen left side to
    its right side, which the FDs make unique.  The FDs hold at all times; a
    violating insert raises.  ThetaTable.admit reads the indexes inline; the
    engine stores each chosen tuple in the chosen_r relation as well."""

    def __init__(self, info: ChoiceInfo):
        self.info = info
        self.rows: set[Tup] = set()
        groups = _fd_groups(info.fds)
        # per left side: its left and right projections, the index, and the
        # declared FDs of that left side
        self._fds: list[tuple[Callable, Callable, dict[Tup, Tup], tuple[FD, ...]]] = [
            (projector(left), projector(right), {}, declared) for left, right, declared in groups
        ]

    def conflicts(self, t: Tup) -> bool:
        """True when t is chosen already, or agrees with a chosen tuple on the
        left side of some FD and differs from it on the right side.  The
        reference for ThetaTable.admit's inline check."""
        for left, right, index, _ in self._fds:
            r = index.get(left(t))
            if r is not None and r != right(t):
                return True
        return t in self.rows

    def insert(self, t: Tup) -> None:
        if t in self.rows:
            return
        # each side projected once; t's new left sides are written only
        # after every index has been checked
        fresh = []
        for left, right, index, declared in self._fds:
            lt = left(t)
            r = index.get(lt)
            if r is None:
                fresh.append((index, lt, right(t)))
            elif r != right(t):
                # name the first declared FD of this left side that t violates
                for fd in declared:
                    part, r = r[: len(fd.right)], r[len(fd.right) :]
                    if part != projector(fd.right)(t):
                        raise FDViolation(
                            f"{self.info.chosen_pred}: FD {fd.left}->{fd.right} violated by {t}, "
                            f"whose left side is chosen with right side {part}"
                        )
        for index, lt, rt in fresh:
            index[lt] = rt
        self.rows.add(t)


# ---------------------------------------------------------------------------
# Binary heaps, slotted or not


class _Heap:
    """Min-heap over order keys whose last element is the keyed tuple (two
    keys of distinct tuples differ before it, so the tuple itself is never
    compared).  A push counts one priority-queue operation plus one per
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
    least, so only its heap is slotted; any other heap keeps the order keys
    as tuples, writes nothing, and its delete accepts only the least key
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


def _cols(cols: tuple[int, ...]) -> str:
    """The source of t's projection onto cols, a tuple as projector's is."""
    return "(" + "".join(f"t[{c}], " for c in cols) + ")"


def _cost_error(theta: "ThetaTable", c: object) -> StorageError:
    return StorageError(f"{theta.info.chosen_pred}: cost argument must be an integer, got {c!r}")


@cache
def _admission(
    arity: int,
    groups: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
    cost_pos: Optional[int],
    most: bool,
    unique_key: Optional[tuple[int, ...]],
    policy: str,
    slotted: bool,
) -> Callable[["ThetaTable", Collection[Tup]], None]:
    """The loop of ThetaTable.admit for one table shape, generated once per
    shape: the (left, right) columns of each FD group, the cost position and
    whether the most cost is best, the unique key, the selection policy
    ("lex" for every ordered table) and whether the heap is slotted.  Each
    candidate's FD sides, unique key and order key (a record for a slotted
    heap) are built inline from column indices, with no call and no branch
    on the table's kind.  The source holds only column indices; everything
    else is bound by name."""
    ordered = policy == "lex"
    cells = "".join(f"t[{i}].__class__ is str, t[{i}], " for i in range(arity))
    if cost_pos is not None:
        cells = f"{'-c' if most else 'c'}, {cells}"
    key = f"[{cells}-1, t]" if slotted else f"({cells}t,)"
    src = [
        "def admit(self, ts):",
        "    counters = self.counters",
        "    entries = self._entries",
        "    crows = self.chosen.rows",
    ]
    if groups:
        src += [
            f"    {''.join(f'c{g}, ' for g in range(len(groups)))}= [i for _, _, i, _ in self.chosen._fds]",
            f"    {''.join(f'f{g}, ' for g in range(len(groups)))}= [i for _, _, i in self._fd_index]",
            "    counters.conflict_checks += len(ts)",
        ]
    if unique_key is not None:
        src.append("    ukey_index = self._ukey_index")
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
            f"            l{g} = {_cols(left)}",
            f"            r = c{g}.get(l{g})",
            f"            if r is not None and r != {_cols(right)}:",
            "                continue",
        ]
    src.append("            added += 1")
    if cost_pos is not None:
        src += [
            f"            c = t[{cost_pos}]",
            "            if not isinstance(c, int):",
            "                raise cost_error(self, c)",
        ]
    if ordered:
        src.append(f"            key = {key}")
    if unique_key is not None:
        src += [
            f"            u = {_cols(unique_key)}",
            "            cur = ukey_index.get(u)",
            "            if cur is not None:",
            "                if not key < entries[cur]:",
            "                    continue",
            "                self._staged_best = best",
            "                self._remove_all((cur,))",
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
    namespace = {"cost_error": _cost_error}
    exec("\n".join(src), namespace)
    return namespace["admit"]


class ThetaTable:
    """Future candidates for one choice rule.

    Hash-keyed on every FD left side, and holding the rule's chosen side
    (ChosenTable), against which admit checks candidates and into which
    choose records each selected one.  The info alone shapes the table: a
    cost position makes it greedy (choice_least or choice_most by its kind),
    and with a unique key only the best-cost tuple per key value is
    retained; the plain choice fixpoint passes a pure view of the info.
    admit runs a loop generated once per table shape (_admission).

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
    staged.  Every other order key is a tuple.

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
        self,
        info: ChoiceInfo,
        counters: Counters | None = None,
        use_pq: bool = False,
        tie_policy: str = "lex",
        rng: random.Random | None = None,
    ):
        self.info = info
        self.chosen = ChosenTable(info)
        self.counters = counters if counters is not None else Counters()
        self.rng = rng if rng is not None else random.Random(0)
        self._most = info.kind is RuleKind.CHOICE_MOST
        # projection onto the unique key, None when no key is kept
        self._ukey = None if info.unique_key is None else projector(info.unique_key)
        # greedy and lex tables have a fixed order: an order key per candidate
        self._ordered = info.cost_pos is not None or tie_policy == "lex"
        self._random = tie_policy == "random" and not self._ordered
        # tuple -> its order key or record (ordered), its slot in _rand_list
        # (random) or None (fifo, whose OrderedDict finds its first key in
        # O(1) after deletes at the front)
        self._entries: dict[Tup, object] = {} if self._ordered or self._random else OrderedDict()
        # buckets are insertion-ordered dicts, not sets, so purge order (and
        # with it heap and random-tie upkeep) does not depend on str hashing
        groups = _fd_groups(info.fds)
        self._fd_index: list[tuple[Callable, Callable, dict[Tup, dict[Tup, None]]]] = [
            (projector(left), projector(right), {}) for left, right, _ in groups
        ]
        # a purge passes once per declared FD, in declared order, over the
        # index of its left side: victims leave in that order
        by_left = {left: entry for (left, _, _), entry in zip(groups, self._fd_index)}
        self._purges = [(by_left[fd.left][0], projector(fd.right), by_left[fd.left][2]) for fd in info.fds]
        self._ukey_index: dict[Tup, Tup] = {}
        # ordered tables only: tuple -> order key of the candidates not yet
        # settled, and their least key (None when staged is empty, or unknown
        # since that key's tuple was removed); settled candidates live in the
        # heap with the queue, and only in the entries without it
        self._staged: dict[Tup, object] = {}
        self._staged_best: object = None
        self._heap: Optional[_Heap] = (
            _Heap(self.counters, slotted=bool(groups) or self._ukey is not None)
            if use_pq and self._ordered
            else None
        )
        self._rand_list: list[Tup] = []
        self._admit = _admission(
            len(info.w_vars),
            tuple((left, right) for left, right, _ in groups),
            info.cost_pos,
            self._most,
            info.unique_key,
            "lex" if self._ordered else tie_policy,
            self._heap is not None and self._heap.slotted,
        )

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

    def _remove_all(self, ts: Iterable[Tup]) -> None:
        counters = self.counters
        entries = self._entries
        fd_index, ukey, ukey_index = self._fd_index, self._ukey, self._ukey_index
        staged, heap = self._staged, self._heap
        ordered = self._ordered
        rand_list = self._rand_list if self._random else None
        removed = 0
        heaped = []  # the keys of the removed candidates the heap holds, in order
        for t in ts:
            entry = entries.pop(t)
            removed += 1
            for left, _, index in fd_index:
                key = left(t)
                bucket = index[key]
                del bucket[t]
                if not bucket:
                    del index[key]
            if ukey is not None:
                key = ukey(t)
                if ukey_index.get(key) == t:
                    del ukey_index[key]
            if ordered:
                if staged.pop(t, None) is None:
                    if heap is not None:
                        heaped.append(entry)
                elif entry is self._staged_best:
                    self._staged_best = None
            elif rand_list is not None:
                # the last candidate moves into the freed slot
                last = rand_list.pop()
                if last != t:
                    rand_list[entry] = last
                    entries[last] = entry
        if heaped:
            heap.delete_all(heaped)
        counters.theta_deletes += removed

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
                # key: what _remove_all does for it, with one pop
                t = heap.pop()[-1]
                del entries[t]
                self.counters.theta_deletes += 1
                return t
            if self._staged_best is None and staged:
                self._flush()
            best = self._staged_best
            if heap is not None:
                settled = heap.items[0] if heap else None
            else:
                self.counters.scan_steps += len(entries) - len(staged)
                settled = min((key for t, key in entries.items() if t not in staged), default=None)
            if best is None or (settled is not None and settled < best):
                best = settled
            t = best[-1]
        elif self._random:
            t = self._rand_list[self.rng.randrange(len(self._rand_list))]
        else:
            t = next(iter(entries))
        self._remove_all((t,))
        return t

    def choose(self, delta: Tup) -> int:
        """Record delta, the selected candidate, on the chosen side (a tuple
        that violates an FD there raises FDViolation) and purge the
        candidates it conflicts with; returns how many were purged."""
        self.chosen.insert(delta)
        return self.purge_conflicting(delta)

    def purge_conflicting(self, delta: Tup) -> int:
        """Drop delta and every candidate that agrees with it on the left side
        of some FD and differs from it on the right side; the FD indexes
        find them, and each removal is constant time (plus heap maintenance
        for a candidate already pushed)."""
        removed = 0
        for left, right, index in self._purges:
            r = right(delta)
            victims = [t for t in index.get(left(delta), ()) if right(t) != r or t == delta]
            if victims:
                self._remove_all(victims)
                removed += len(victims)
        return removed

    def _flush(self) -> None:
        if self._heap is not None:
            self._heap.push_all(self._staged.values())
        self._staged.clear()
