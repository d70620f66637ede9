"""In-memory tuple storage: relations with hash indexes, the per-rule chosen
tables, and the theta candidate tables (hash-keyed, optionally heap-ordered
by cost).  Everything lives in main memory; tables are single-writer and
owned by one fixpoint run at a time.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, fields
from functools import cache
from heapq import heappop, heappush
from operator import itemgetter
from typing import Callable, Iterator, Optional

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

    work is the master counter: one tick per elementary engine operation
    (join probe, table insert/delete, selection scan step, heap sift level,
    conflict check, derived tuple).  The benchmark slope checks run on these
    counters; wall time is reported only informationally.
    """

    iterations: int = 0
    firings: int = 0
    derived: int = 0
    join_probes: int = 0
    theta_inserts: int = 0
    theta_deletes: int = 0
    pq_ops: int = 0
    conflict_checks: int = 0
    work: int = 0
    wall_time_s: float = 0.0

    def as_dict(self) -> dict[str, float]:
        """The counters by field name, in field order (the --stats and bench
        TSV column order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
    """The chosen_r tuples of one choice rule, with one hash index per FD left
    side.  The FDs hold at all times; a violating insert raises.

    The tuples live in rel, the interpretation's chosen_r relation, so each
    chosen tuple is stored once."""

    def __init__(self, info: ChoiceInfo, rel: Relation):
        self.info = info
        self.rel = rel
        # per FD: its left and right projections and an index on its left
        # side; the FD invariant means key -> single tuple
        self._fds: list[tuple[FD, Callable, Callable, dict[Tup, Tup]]] = [
            (fd, projector(fd.left), projector(fd.right), {}) for fd in info.fds
        ]

    def __len__(self) -> int:
        return len(self.rel)

    def __iter__(self) -> Iterator[Tup]:
        return iter(self.rel)

    def __contains__(self, t: Tup) -> bool:
        return t in self.rel

    def conflicts(self, t: Tup) -> bool:
        """True when t agrees with some stored tuple on the left side of at
        least one FD (an equal tuple conflicts with its own keys)."""
        for _, left, _, index in self._fds:
            if left(t) in index:
                return True
        return False

    def insert(self, t: Tup) -> None:
        if t in self.rel:
            return
        for fd, left, right, index in self._fds:
            other = index.get(left(t))
            if other is not None and right(other) != right(t):
                raise FDViolation(
                    f"{self.info.chosen_pred}: FD {fd.left}->{fd.right} violated by {t} against {other}"
                )
        for _, left, _, index in self._fds:
            index[left(t)] = t
        self.rel.insert(t)


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
    key once at the end.  A table with neither an FD index nor a unique key
    only ever deletes its least key, so its heap keeps no positions and runs
    on heapq: delete accepts only the least key.  The counts stay the same
    because the arrays do: keys are distinct, heappush sifts up as _sift_up
    does, and heappop moves the sifted key to the same place as _sift_down,
    since both take the right child only when it is strictly smaller.  push
    counts the levels its key rose by finding it on the path up from the
    last slot; delete counts the levels the last key will sink by walking
    the min-child path first, with _sift_down's comparisons but no writes."""

    __slots__ = ("items", "pos", "counters")

    def __init__(self, counters: Counters, indexed: bool):
        self.items: list[tuple] = []
        self.pos: Optional[dict[Tup, int]] = {} if indexed else None
        self.counters = counters

    def __len__(self):
        return len(self.items)

    def push(self, key: tuple) -> None:
        items = self.items
        self.counters.pq_ops += 1
        self.counters.work += 1
        if self.pos is not None:
            items.append(key)
            self.pos[key[-1]] = len(items) - 1
            self._sift_up(len(items) - 1)
            return
        heappush(items, key)
        i = len(items) - 1
        moved = 0
        while items[i] is not key:
            i = (i - 1) // 2
            moved += 1
        self.counters.pq_ops += moved
        self.counters.work += moved

    def delete(self, t: Tup) -> None:
        items = self.items
        if self.pos is None and (not items or items[0][-1] != t):
            raise StorageError(f"heap without positions can only delete its least key, not {t}")
        self.counters.pq_ops += 1
        self.counters.work += 1
        if self.pos is None:
            n = len(items) - 1
            key = items[n]
            i = moved = 0
            while True:
                child = 2 * i + 1
                if child >= n:
                    break
                right = child + 1
                if right < n and items[right] < items[child]:
                    child = right
                if not items[child] < key:
                    break
                i = child
                moved += 1
            heappop(items)
            self.counters.pq_ops += moved
            self.counters.work += moved
            return
        i = self.pos.pop(t)
        last = items.pop()
        if i < len(items):
            items[i] = last
            self.pos[last[-1]] = i
            i = self._sift_up(i)
            self._sift_down(i)

    def _place(self, key, i: int, moved: int) -> None:
        self.items[i] = key
        self.pos[key[-1]] = i
        self.counters.pq_ops += moved
        self.counters.work += moved

    def _sift_up(self, i: int) -> int:
        items, pos = self.items, self.pos
        key = items[i]
        moved = 0
        while i > 0:
            parent = (i - 1) // 2
            above = items[parent]
            if not key < above:
                break
            items[i] = above
            pos[above[-1]] = i
            i = parent
            moved += 1
        if moved:
            self._place(key, i, moved)
        return i

    def _sift_down(self, i: int) -> None:
        items, pos = self.items, self.pos
        n = len(items)
        key = items[i]
        moved = 0
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
        if moved:
            self._place(key, i, moved)


# ---------------------------------------------------------------------------
# Theta tables


class ThetaTable:
    """Future candidates for one choice rule.

    Hash-keyed on every FD left side; for choice-least/most rules the union
    of the FD left sides is a unique key and only the best-cost tuple per key
    value is retained.  A table with a fixed order (least/most, or pure under
    lex ties) stores each candidate's order key at insert.

    An ordered table stages fresh candidates, together with their least key.
    A selection takes the better of that key and the least settled key, and
    a purge drops staged victims at no further cost.  Once the least staged
    key is lost (its tuple was selected, purged or replaced), the staged
    survivors settle at the next insert or selection: with the priority queue
    they are pushed in insertion order onto a heap, found in O(log m) at
    selection; without it they move to a dict that each selection scans, one
    tick per settled candidate.  A candidate purged while still staged never
    settles.

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
        treat_as_pure: bool = False,
    ):
        self.info = info
        self.counters = counters if counters is not None else Counters()
        self.rng = rng if rng is not None else random.Random(0)
        # treat_as_pure drops cost-based retention and selection: the plain
        # choice fixpoint reads least/most goals as ordinary choice goals
        self.greedy = info.cost_pos is not None and not treat_as_pure
        self._most = info.kind is RuleKind.CHOICE_MOST
        # projection onto the unique key, None when no key is kept
        self._ukey = (
            projector(info.unique_key) if self.greedy and info.unique_key is not None else None
        )
        # greedy and lex tables have a fixed order: an order key per candidate
        self._ordered = self.greedy or tie_policy == "lex"
        self._key = order_key(len(info.w_vars))
        self._random = tie_policy == "random" and not self.greedy
        # tuple -> its order key (ordered) or its insertion sequence number
        self._entries: dict[Tup, object] = {}
        self._seq = 0
        # buckets are insertion-ordered dicts, not sets, so purge order (and
        # with it heap and random-tie upkeep) does not depend on str hashing
        self._fd_index: list[tuple[Callable[[Tup], Tup], dict[Tup, dict[Tup, None]]]] = [
            (projector(fd.left), {}) for fd in info.fds
        ]
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

    # -- cost / ordering ----------------------------------------------------

    def _order_key(self, t: Tup):
        # heap/selection key: for a greedy table the extreme cost first, then
        # the generated key, so equal-cost ties break in constant order; the
        # tuple itself last, where _Heap reads it
        if not self.greedy:
            return self._key(t)
        c = t[self.info.cost_pos]
        if not isinstance(c, int):
            raise StorageError(
                f"{self.info.chosen_pred}: cost argument must be an integer, got {c!r}"
            )
        return (-c if self._most else c, *self._key(t))

    # -- mutation -----------------------------------------------------------

    def insert(self, t: Tup) -> None:
        """Add a candidate; the caller has already filtered tuples conflicting
        with the chosen table.  A duplicate is ignored.  Restores the
        unique-key invariant for greedy rules, retaining only the better-cost
        tuple per key value."""
        self.counters.theta_inserts += 1
        self.counters.work += 1
        if self._ordered:
            key = self._order_key(t)  # surfaces a non-integer cost at insertion time
        else:
            key = self._seq
            self._seq += 1
        if t in self._entries:
            return
        if self._ukey is not None:
            cur = self._ukey_index.get(self._ukey(t))
            if cur is not None:
                if not key < self._entries[cur]:
                    return
                self._remove(cur)
        self._add(t, key)

    def _add(self, t: Tup, key) -> None:
        self._entries[t] = key
        for left, index in self._fd_index:
            index.setdefault(left(t), {})[t] = None
        if self._ukey is not None:
            self._ukey_index[self._ukey(t)] = t
        if self._ordered:
            if self._staged_best is None:
                self._flush()
                self._staged_best = key
            elif key < self._staged_best:
                self._staged_best = key
            self._staged[t] = key
        if self._fifo is not None:
            self._fifo.append((key, t))
        if self._random:
            self._rand_pos[t] = len(self._rand_list)
            self._rand_list.append(t)

    def _remove(self, t: Tup) -> None:
        del self._entries[t]
        self.counters.theta_deletes += 1
        self.counters.work += 1
        for left, index in self._fd_index:
            key = left(t)
            bucket = index[key]
            del bucket[t]
            if not bucket:
                del index[key]
        if self._ukey is not None:
            key = self._ukey(t)
            if self._ukey_index.get(key) == t:
                del self._ukey_index[key]
        if self._ordered:
            key = self._staged.pop(t, None)
            if key is None:
                if self._heap is not None:
                    self._heap.delete(t)
                else:
                    del self._settled[t]
            elif key is self._staged_best:
                self._staged_best = None
        if self._random:
            i = self._rand_pos.pop(t)
            last = self._rand_list.pop()
            if last != t:
                self._rand_list[i] = last
                self._rand_pos[last] = i

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
        self._remove(t)
        return t

    def _least_settled(self) -> Optional[tuple]:
        if self._heap is not None:
            return self._heap.items[0] if self._heap else None
        least = None
        for k in self._settled.values():
            self.counters.work += 1
            if least is None or k < least:
                least = k
        return least

    def purge_conflicting(self, delta: Tup) -> int:
        """Drop every candidate agreeing with delta on the left side of some
        FD; each removal is constant time through the FD indexes (plus heap
        maintenance for a candidate already pushed)."""
        removed = 0
        for left, index in self._fd_index:
            for t in list(index.get(left(delta), ())):
                self._remove(t)
                removed += 1
        return removed

    def _flush(self) -> None:
        if self._heap is not None:
            for key in self._staged.values():
                self._heap.push(key)
        else:
            self._settled.update(self._staged)
        self._staged.clear()
