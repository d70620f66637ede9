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
from collections import deque
from dataclasses import dataclass, fields
from functools import cache
from heapq import heappush
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
# Binary heaps: with positions for deletion from the middle, or on heapq


class _Heap:
    """Min-heap over order keys whose last element is the keyed tuple (two
    keys of distinct tuples differ before it, so the tuple itself is never
    compared).  A push or delete counts as one priority-queue operation, and
    each level a sift moves one more.

    Indexed, the heap keeps each stored tuple's position, so conflicting
    candidates can be deleted from the middle in O(log m); its sifts move a
    hole, rewrite the position of every key they pass and write the sifted
    key once at the end.  A delete fills the hole with the last key, which
    rises while it is less than its parent and otherwise sinks while a child
    is less than it.  A table with neither an FD index nor a unique key only
    ever deletes its least key, so its heap keeps no positions: delete
    accepts only the least key, and pop removes it.  The counts stay the
    same because the arrays do: keys are distinct, a push is heappush, which
    sifts up as the indexed push does, and pop is heappop written out
    (Wegener's bottom-up sift, as heapq does it), which moves the last key
    to the same slot as the indexed sink, since both take the right child
    only when it is strictly smaller.  A push counts the levels its key rose
    by finding it on the path up from the last slot; pop, which delete_all
    calls, counts one plus the depth of the slot where the last key stops,
    which is the levels the indexed sink would move it."""

    __slots__ = ("items", "pos", "counters")

    def __init__(self, counters: Counters, indexed: bool):
        self.items: list[tuple] = []
        self.pos: Optional[dict[Tup, int]] = {} if indexed else None
        self.counters = counters

    def __len__(self):
        return len(self.items)

    def push_all(self, keys: Collection[tuple]) -> None:
        """Push each key, in order."""
        items, pos = self.items, self.pos
        moved = 0
        if pos is None:
            for key in keys:
                heappush(items, key)
                i = len(items) - 1
                while items[i] is not key:
                    i = (i - 1) // 2
                    moved += 1
        else:
            for key in keys:
                i = len(items)
                items.append(key)
                while i > 0:
                    parent = (i - 1) // 2
                    above = items[parent]
                    if not key < above:
                        break
                    items[i] = above
                    pos[above[-1]] = i
                    i = parent
                    moved += 1
                items[i] = key
                pos[key[-1]] = i
        self.counters.pq_ops += len(keys) + moved

    def pop(self) -> tuple:
        """Remove and return the least key of a non-empty heap without
        positions: heappop written out, so that one pass both moves and
        counts.  The hole left at the root descends along the lesser child
        to a leaf, and the last key rises from there while it is less than
        its parent.  It stops in the slot where the indexed sink would put
        it, so the pop counts one operation plus the depth of that slot."""
        items = self.items
        key = items.pop()
        if not items:
            self.counters.pq_ops += 1
            return key
        least = items[0]
        n = len(items)  # the size after this pop
        i, child = 0, 1
        while child < n:
            below = items[child]
            right = child + 1
            if right < n and items[right] < below:
                child = right
                below = items[right]
            items[i] = below
            i = child
            child = 2 * i + 1
        while i:
            parent = (i - 1) // 2
            above = items[parent]
            if not key < above:
                break
            items[i] = above
            i = parent
        items[i] = key
        self.counters.pq_ops += (i + 1).bit_length()
        return least

    def delete_all(self, ts: Iterable[Tup]) -> None:
        """Delete the key of each tuple t, in order."""
        items, pos = self.items, self.pos
        if pos is None:
            for t in ts:
                if not items or items[0][-1] != t:
                    raise StorageError(f"heap without positions can only delete its least key, not {t}")
                self.pop()
            return
        deleted = moved = 0
        try:
            for t in ts:
                n = len(items) - 1  # the size after this delete
                i = pos.pop(t)
                key = items.pop()
                if i < n:
                    # the last key fills the hole: it rises past greater
                    # parents, or else sinks past lesser children (one that
                    # rose has only greater children)
                    while i > 0:
                        parent = (i - 1) // 2
                        above = items[parent]
                        if not key < above:
                            break
                        items[i] = above
                        pos[above[-1]] = i
                        i = parent
                        moved += 1
                    while True:
                        child = 2 * i + 1
                        if child >= n:
                            break
                        right = child + 1
                        if right < n and items[right] < items[child]:
                            child = right
                        below = items[child]
                        if not below < key:
                            break
                        items[i] = below
                        pos[below[-1]] = i
                        i = child
                        moved += 1
                    items[i] = key
                    pos[key[-1]] = i
                deleted += 1
        finally:
            self.counters.pq_ops += deleted + moved


# ---------------------------------------------------------------------------
# Theta tables


class ThetaTable:
    """Future candidates for one choice rule.

    Hash-keyed on every FD left side, and holding the rule's chosen side
    (ChosenTable), against which admit checks candidates and into which
    choose records each selected one.  The info alone shapes the table: a
    cost position makes it greedy (choice_least or choice_most by its kind),
    and with a unique key only the best-cost tuple per key value is
    retained; the plain choice fixpoint passes a pure view of the info.  A
    table with a fixed order (greedy, or pure under lex ties) stores each
    candidate's order key at insert.

    An ordered table stages fresh candidates, together with their least key.
    A selection takes the better of that key and the least settled key, and
    a purge drops staged victims at no further cost.  Once the least staged
    key is lost (its tuple was selected, purged or replaced), the staged
    survivors settle at the next insert or selection: with the priority queue
    they are pushed in insertion order onto a heap, found in O(log m) at
    selection; without it they move to a dict that each selection scans, one
    tick per settled candidate.  A candidate purged while still staged never
    settles.  drain() yields the selections of a table that is emptied
    without purges (the factorized domain table): it makes the calls of
    select_extreme, except that a heap without positions, once everything is
    settled, is popped in one loop with the same counts.

    The order key is order_key's generated function for the table's arity:
    integers before symbols in each column, column by column, behind the
    extreme cost for a greedy table.  tie_policy governs selection among
    pure-choice candidates (equal costs always break in that order):
      lex    deterministic, lexicographically least tuple
      fifo   oldest surviving candidate, amortised constant time
      random seeded uniform choice, constant time
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
        self.greedy = info.cost_pos is not None
        self._most = info.kind is RuleKind.CHOICE_MOST
        # projection onto the unique key, None when no key is kept
        self._ukey = None if info.unique_key is None else projector(info.unique_key)
        # greedy and lex tables have a fixed order: an order key per candidate
        self._ordered = self.greedy or tie_policy == "lex"
        self._key = order_key(len(info.w_vars))
        self._random = tie_policy == "random" and not self.greedy
        # tuple -> its order key (ordered) or its insertion sequence number
        self._entries: dict[Tup, object] = {}
        self._seq = 0
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
        # heap with the queue, in _settled without it
        self._staged: dict[Tup, tuple] = {}
        self._staged_best: Optional[tuple] = None
        # only purge_conflicting (through an FD index) and unique-key
        # replacement delete a candidate that is not the least
        self._heap: Optional[_Heap] = (
            _Heap(self.counters, indexed=bool(self._fd_index) or self._ukey is not None)
            if use_pq and self._ordered
            else None
        )
        self._settled: dict[Tup, tuple] = {}
        # fifo: (sequence number, tuple) per insert, oldest first; a record
        # whose tuple was removed since is skipped when it reaches the front
        self._fifo: Optional[deque] = deque() if tie_policy == "fifo" and not self.greedy else None
        self._rand_list: list[Tup] = []
        self._rand_pos: dict[Tup, int] = {}

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
        insert, and its order key surfaces a non-integer cost.  Under a
        unique key only the better-cost tuple per key value is retained."""
        if not ts:
            return
        counters = self.counters
        entries = self._entries
        cfds, crows = self.chosen._fds, self.chosen.rows
        fd_index, ukey, ukey_index = self._fd_index, self._ukey, self._ukey_index
        ordered, greedy, okey = self._ordered, self.greedy, self._key
        cost_pos, most = self.info.cost_pos, self._most
        staged, best = self._staged, self._staged_best
        fifo, rand_list, rand_pos = self._fifo, self._rand_list, self._rand_pos
        randomized = self._random
        if cfds:
            counters.conflict_checks += len(ts)
        added = 0
        try:
            for t in ts:
                if t in entries or t in crows:
                    continue
                conflict = False
                for left, right, index, _ in cfds:
                    r = index.get(left(t))
                    if r is not None and r != right(t):
                        conflict = True
                        break
                if conflict:
                    continue
                added += 1
                if not ordered:
                    key = self._seq
                    self._seq += 1
                elif greedy:
                    c = t[cost_pos]
                    if not isinstance(c, int):
                        raise StorageError(
                            f"{self.info.chosen_pred}: cost argument must be an integer, got {c!r}"
                        )
                    # the extreme cost first, so equal-cost ties break in
                    # constant order
                    key = (-c if most else c, *okey(t))
                else:
                    key = okey(t)
                if ukey is not None:
                    u = ukey(t)
                    cur = ukey_index.get(u)
                    if cur is not None:
                        if not key < entries[cur]:
                            continue
                        self._staged_best = best
                        self._remove_all((cur,))
                        best = self._staged_best
                    ukey_index[u] = t
                entries[t] = key
                for left, _, index in fd_index:
                    index.setdefault(left(t), {})[t] = None
                if ordered:
                    if best is None:
                        self._flush()
                        best = key
                    elif key < best:
                        best = key
                    staged[t] = key
                if fifo is not None:
                    fifo.append((key, t))
                if randomized:
                    rand_pos[t] = len(rand_list)
                    rand_list.append(t)
        finally:
            self._staged_best = best
            counters.theta_inserts += added

    def _remove_all(self, ts: Iterable[Tup]) -> None:
        counters = self.counters
        entries = self._entries
        fd_index, ukey, ukey_index = self._fd_index, self._ukey, self._ukey_index
        staged, heap, settled = self._staged, self._heap, self._settled
        ordered, randomized = self._ordered, self._random
        rand_list, rand_pos = self._rand_list, self._rand_pos
        removed = 0
        heaped = []  # the removed candidates the heap holds, in order
        for t in ts:
            del entries[t]
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
                key = staged.pop(t, None)
                if key is None:
                    if heap is not None:
                        heaped.append(t)
                    else:
                        del settled[t]
                elif key is self._staged_best:
                    self._staged_best = None
            if randomized:
                i = rand_pos.pop(t)
                last = rand_list.pop()
                if last != t:
                    rand_list[i] = last
                    rand_pos[last] = i
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
        if not self._entries:
            return None
        if self._ordered:
            if self._staged_best is None and self._staged:
                self._flush()
            best = self._staged_best
            settled = self._least_settled()
            if best is None or (settled is not None and settled < best):
                best = settled
            t = best[-1]
        elif self._fifo is not None:
            while True:
                seq, t = self._fifo.popleft()
                if self._entries.get(t) == seq:
                    break
        else:
            t = self._rand_list[self.rng.randrange(len(self._rand_list))]
        self._remove_all((t,))
        return t

    def drain(self) -> Iterator[Tup]:
        """Yield what select_extreme would return, call after call, until the
        table is empty, each tuple removed before it is yielded; the counters
        and random draws are those of the calls.  A heap without positions
        pops its least key in one loop once every candidate is settled; any
        other table, and a candidate inserted between yields, goes through
        select_extreme."""
        entries, staged, counters = self._entries, self._staged, self.counters
        heap = self._heap
        pop = heap.pop if heap is not None and heap.pos is None else None
        while entries:
            if pop is None or staged:
                yield self.select_extreme()
                continue
            # what select_extreme and _remove_all do for a settled least key
            # of a table with no FD index and no unique key
            t = pop()[-1]
            del entries[t]
            counters.theta_deletes += 1
            yield t

    def choose(self, delta: Tup) -> int:
        """Record delta, the selected candidate, on the chosen side (a tuple
        that violates an FD there raises FDViolation) and purge the
        candidates it conflicts with; returns how many were purged."""
        self.chosen.insert(delta)
        return self.purge_conflicting(delta)

    def _least_settled(self) -> Optional[tuple]:
        if self._heap is not None:
            return self._heap.items[0] if self._heap else None
        self.counters.scan_steps += len(self._settled)
        return min(self._settled.values(), default=None)

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
        else:
            self._settled.update(self._staged)
        self._staged.clear()
