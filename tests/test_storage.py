import dataclasses
import heapq
import math
import random
import time
from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gdlog.analysis import RuleKind, choice_info
from gdlog.corpus import domain_facts, get_program
from gdlog.engine import Engine
from gdlog.lang import MAX_INT, MIN_INT, format_const, parse_program
from gdlog.oracle import _fd_conflict, tuple_key
from gdlog.storage import (
    ChosenTable,
    Counters,
    FDViolation,
    Relation,
    StorageError,
    ThetaTable,
    _Heap,
    order_key,
    projector,
)
from gdlog import storage, tsvio
from gdlog.tsvio import model_lines


def _info(src: str):
    return choice_info(parse_program(src).rules[0])


def audit_heap(h: _Heap) -> bool:
    """Structural check: every element's key is >= its parent's, and each
    record of a slotted heap holds its own slot."""
    for i in range(1, len(h.items)):
        if h.items[i] < h.items[(i - 1) // 2]:
            return False
    return not h.slotted or all(rec[-2] == k for k, rec in enumerate(h.items))


def audit_theta(th: ThetaTable) -> bool:
    """For an ordered table: the heap, if any, is well formed, and each of
    its keys is the very entry of its tuple; the settled and the staged
    candidates hold every entry exactly once under its order key, a staged
    record (slotted heap) with slot -1; and the staged best is None or the
    least staged key.  For a random table: each entry is its candidate's
    slot in the list of candidates, and the two are the same size.  A fifo
    table's entries are an OrderedDict."""
    if th._random:
        return len(th._rand_list) == len(th._entries) and all(
            th._rand_list[i] == t for t, i in th._entries.items()
        )
    if not th._ordered:
        return isinstance(th._entries, OrderedDict)
    if th._heap is not None:
        heap = th._heap
        if not audit_heap(heap) or not all(th._entries.get(key[-1]) is key for key in heap.items):
            return False
        if heap.slotted and not all(key[-2] == -1 for key in th._staged.values()):
            return False
        settled = {key[-1]: key for key in heap.items}
    else:
        settled = {t: key for t, key in th._entries.items() if t not in th._staged}
    return (
        not settled.keys() & th._staged.keys()
        and {**settled, **th._staged} == th._entries
        and all(th._entries[t] is key for t, key in th._staged.items())
        and th._staged_best in (None, min(th._staged.values(), default=None))
    )


def _record(key: tuple) -> list:
    """The slotted heap's record of an order key: the key with a slot, -1
    until pushed, before its tuple.  Keys of distinct tuples must differ
    before the tuple, as order keys do."""
    return [*key[:-1], -1, key[-1]]


def _order(h: _Heap) -> list:
    """The heap's keys in slot order, as tuples without their slots."""
    return [(*key[:-2], key[-1]) for key in h.items] if h.slotted else list(h.items)


# FDs X -> Y and Y -> X over a two-column schema
PAIR = _info("p(X,Y) :- q(X,Y), choice((X),(Y)), choice((Y),(X)).")
# Prim-shaped: W = (X, Y, C), FDs Y -> X and Y -> C, unique key Y, cost C
LEAST = _info("p(X,Y,C) :- q(X,Y,C), choice((Y),(X)), choice_least((Y),(C)).")
MOST = _info("p(X,Y,C) :- q(X,Y,C), choice((Y),(X)), choice_most((Y),(C)).")
# TSP-shaped: unique key is the union (X, Y)
UNION = _info(
    "p(X,Y,C) :- q(X,Y,C), choice((X),(Y)), choice((Y),(X)), choice_least((Y),(C))."
)


# Relation --------------------------------------------------------------------


def test_relation_duplicate_insert():
    r = Relation("p", 2)
    assert r.insert(("a", "b")) is True
    assert r.insert(("a", "b")) is False
    assert len(r) == 1


def test_relation_index_lookup():
    r = Relation("p", 2)
    r.ensure_index((0,))
    r.insert(("a", "b"))
    r.insert(("a", "c"))
    r.insert(("d", "b"))
    assert sorted(r.lookup((0,), ("a",)), key=tuple_key) == [("a", "b"), ("a", "c")]
    assert r.lookup((0,), ("zzz",)) == []


@pytest.mark.parametrize("cols", [(), (1,), (2, 0), (0, 1, 2)])
def test_projector_always_returns_a_tuple(cols):
    # itemgetter alone would return a bare value for one column
    t = ("a", 7, "b")
    assert projector(cols)(t) == tuple(t[i] for i in cols)


def test_relation_arity_mismatch():
    r = Relation("p", 2)
    with pytest.raises(StorageError, match="arity"):
        r.insert(("a",))


def _relation_state(r: Relation):
    return r.rows, r._pos, r._indexes, len(r)


PAIRS = st.tuples(st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(
    before=st.one_of(st.just([]), st.lists(PAIRS, max_size=6)),
    # mostly pairs, with now and then a tuple of the wrong arity
    ts=st.lists(st.one_of(PAIRS, PAIRS, PAIRS, st.tuples(st.integers(0, 3))), max_size=20),
    indexes=st.lists(st.sampled_from([(0,), (1,), (1, 0)]), max_size=2),
)
@example(before=[], ts=[(1, 1), (1, 1)], indexes=[])
def test_relation_insert_all_equals_repeated_insert(before, ts, indexes):
    one, bulk = Relation("p", 2), Relation("p", 2)
    for r in (one, bulk):
        for cols in indexes:
            r.ensure_index(cols)
        for t in before:
            r.insert(t)
    errors = []
    try:
        for t in ts:
            one.insert(t)
    except StorageError as exc:
        errors.append(str(exc))
    try:
        bulk.insert_all(ts)
    except StorageError as exc:
        errors.append(str(exc))
    assert len(errors) in (0, 2) and len(set(errors)) <= 1
    assert _relation_state(bulk) == _relation_state(one)
    # an index made afterwards sees the same rows
    one.ensure_index((1,))
    bulk.ensure_index((1,))
    assert _relation_state(bulk) == _relation_state(one)


def test_relation_insert_amortized_constant():
    # 10^6 random inserts must cost no more than 3x of 10 batches of 10^5
    rng = random.Random(0)
    big = [(rng.randrange(10**9), rng.randrange(10**9)) for _ in range(10**6)]

    r = Relation("p", 2)
    r.ensure_index((0,))
    t0 = time.perf_counter()
    for t in big:
        r.insert(t)
    t_big = time.perf_counter() - t0

    t_small = 0.0
    for b in range(10):
        r2 = Relation("p", 2)
        r2.ensure_index((0,))
        chunk = big[b * 10**5 : (b + 1) * 10**5]
        t0 = time.perf_counter()
        for t in chunk:
            r2.insert(t)
        t_small += time.perf_counter() - t0
    assert t_big <= 3 * t_small


# conflicts -------------------------------------------------------------------


def _chosen(against):
    # the chosen side the engine would build from `against`: each tuple that
    # conflicts with none before it
    chosen = ChosenTable(PAIR)
    for t in against:
        if not chosen.conflicts(t):
            chosen.insert(t)
    return chosen


def _conflicting(s, chosen):
    return [t for t in s if chosen.conflicts(t)]


def test_conflict_fd_key_agreement():
    s = [("a", "c"), ("d", "b"), ("d", "e")]
    assert _conflicting(s, _chosen([("a", "b")])) == [("a", "c"), ("d", "b")]


def test_conflict_empty_against():
    assert _conflicting([("a", "c")], _chosen([])) == []


def test_conflict_tuple_conflicts_with_itself():
    assert _conflicting([("a", "b")], _chosen([("a", "b")])) == [("a", "b")]


def test_conflict_against_chosen_table():
    # the theta table's own chosen side, which choose fills and admit reads
    th = ThetaTable(PAIR)
    th.admit([("a", "b"), ("x", "y")])
    assert th.select_extreme() == ("a", "b")
    assert th.choose(("a", "b")) == 0
    assert th.chosen.rows == {("a", "b")}
    assert _conflicting([("a", "c"), ("x", "y")], th.chosen) == [("a", "c")]
    th.admit([("a", "b"), ("a", "c"), ("z", "b"), ("x", "z")])
    assert list(th) == [("x", "y"), ("x", "z")]


@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20),
)
def test_conflict_matches_bruteforce(s, against):
    kept: list = []
    for u in against:
        if not any(u[0] == v[0] or u[1] == v[1] for v in kept):
            kept.append(u)
    chosen = _chosen(against)
    assert chosen.rows == set(kept)
    brute = [t for t in s if any(t[0] == u[0] or t[1] == u[1] for u in kept)]
    assert _conflicting(s, chosen) == brute


@st.composite
def _fd_cases(draw):
    # FDs of 1-3 choice goals over q/4, chosen tuples offered in turn, and
    # candidates, all over two values so that FD sides collide often
    goals = []
    for _ in range(draw(st.integers(1, 3))):
        right = draw(st.lists(st.sampled_from("XYZU"), min_size=1, max_size=2, unique=True))
        left = draw(st.lists(st.sampled_from([v for v in "XYZU" if v not in right]), max_size=2, unique=True))
        goals.append(f"choice(({','.join(left)}),({','.join(right)}))")
    info = _info(f"p(X,Y,Z,U) :- q(X,Y,Z,U), {', '.join(goals)}.")
    row = st.tuples(*[st.sampled_from("ab")] * len(info.w_vars))
    return info, draw(st.lists(row, max_size=6)), draw(st.lists(row, max_size=8)), draw(row)


@settings(max_examples=200)
@given(_fd_cases())
def test_conflicts_and_purge_follow_the_declared_fd_rule(case):
    # a conflict agrees on an FD's left side and differs on its right side
    # (oracle._fd_conflict); a chosen tuple conflicts with itself, and a
    # purge drops delta itself
    info, offered, cands, delta = case
    chosen = ChosenTable(info)
    kept = []
    for u in offered:
        if not chosen.conflicts(u):
            chosen.insert(u)  # raises FDViolation if the check let a conflict through
            kept.append(u)
    assert chosen.rows == set(kept)
    declared = [t for t in cands if t in kept or any(_fd_conflict(info.fds, t, u) for u in kept)]
    assert _conflicting(cands, chosen) == declared
    th = ThetaTable(info)
    for t in cands:
        th.insert(t)
    th.purge_conflicting(delta)
    assert list(th) == [t for t in dict.fromkeys(cands) if t != delta and not _fd_conflict(info.fds, t, delta)]


@settings(max_examples=200)
@given(_fd_cases())
def test_purge_removes_victims_fd_by_fd_in_declared_order(case):
    # FDs that share a left side share one index, yet a purge still takes
    # them one at a time, so heap upkeep and random ties see the same order
    info, _, cands, delta = case
    th = ThetaTable(info)
    th.admit(cands)
    removed = []
    remove_all = th._remove_all

    def record(ts):
        removed.extend(ts)
        remove_all(ts)

    th._remove_all = record
    th.purge_conflicting(delta)
    live, want = list(dict.fromkeys(cands)), []
    for fd in info.fds:
        for t in list(live):
            if projector(fd.left)(t) == projector(fd.left)(delta) and (
                projector(fd.right)(t) != projector(fd.right)(delta) or t == delta
            ):
                live.remove(t)
                want.append(t)
    assert removed == want


# ChosenTable -----------------------------------------------------------------


def test_chosen_table_enforces_fds():
    c = ChosenTable(PAIR)
    c.insert(("a", "b"))
    c.insert(("a", "b"))  # duplicate is fine
    with pytest.raises(FDViolation):
        c.insert(("a", "c"))
    with pytest.raises(FDViolation):
        c.insert(("z", "b"))
    assert c.rows == {("a", "b")}


def test_a_violating_insert_changes_no_fd_index():
    c = ChosenTable(PAIR)
    c.insert(("a", "b"))
    # ("z", "b") passes X -> Y, whose index has no "z", and violates Y -> X
    with pytest.raises(FDViolation):
        c.insert(("z", "b"))
    assert not c.conflicts(("z", "c"))
    c.insert(("z", "c"))
    assert c.rows == {("a", "b"), ("z", "c")}


def test_fd_violation_names_a_declared_fd_of_a_shared_left_side():
    # X -> Y and X -> C share one index on X, whose right side is (Y, C)
    info = _info("p(X,Y,C) :- q(X,Y,C), choice((X),(Y)), choice((X),(C)).")
    c = ChosenTable(info)
    assert len(info.fds) == 2 and len(c._fds) == 1
    c.insert(("a", "b", 1))
    with pytest.raises(FDViolation, match=r"FD \(0,\)->\(2,\) violated by \('a', 'b', 2\), .* right side \(1,\)$"):
        c.insert(("a", "b", 2))
    with pytest.raises(FDViolation, match=r"FD \(0,\)->\(1,\) violated by \('a', 'c', 1\), .* right side \('b',\)$"):
        c.insert(("a", "c", 1))
    # both violated: the first declared one is named
    with pytest.raises(FDViolation, match=r"FD \(0,\)->\(1,\) violated by \('a', 'c', 2\)"):
        c.insert(("a", "c", 2))
    assert c.rows == {("a", "b", 1)}


def test_tables_keep_one_fd_index_per_left_side():
    # the matching rule declares Y -> X, X -> Y and X -> C: two left sides
    info = choice_info(get_program("matching").rules[0])
    assert [fd.left for fd in info.fds] == [(1,), (0,), (0,)]
    th = ThetaTable(info)
    assert len(th._fd_index) == len(th.chosen._fds) == 2


# ThetaTable ------------------------------------------------------------------


def test_theta_insert_replaces_worse_in_least_mode():
    th = ThetaTable(LEAST)
    th.insert(("x", "y", 5))
    assert list(th) == [("x", "y", 5)]
    th.insert(("x", "y", 3))  # better cost for key Y = y replaces
    assert list(th) == [("x", "y", 3)]
    th.insert(("x", "y", 3))  # duplicate
    th.insert(("w", "y", 5))  # worse cost for key Y = y is rejected
    assert list(th) == [("x", "y", 3)]
    assert th.counters.theta_deletes == 1


def test_theta_insert_most_mode_dual():
    th = ThetaTable(MOST)
    th.insert(("x", "y", 3))
    th.insert(("x", "y", 5))
    assert list(th) == [("x", "y", 5)]


def test_theta_insert_pure_rule_accumulates():
    th = ThetaTable(PAIR)
    th.insert(("a", "b"))
    th.insert(("a", "c"))
    assert list(th) == [("a", "b"), ("a", "c")]


def test_select_extreme_least():
    th = ThetaTable(LEAST)
    th.insert(("a", "b", 1))
    th.insert(("a", "c", 3))
    assert th.select_extreme() == ("a", "b", 1)
    assert len(th) == 1  # removal included


def test_select_extreme_empty():
    assert ThetaTable(LEAST).select_extreme() is None


def test_select_extreme_tie_any_of_equal_cost():
    th = ThetaTable(UNION)
    th.insert(("a", "b", 1))
    th.insert(("c", "d", 1))
    assert th.select_extreme() in [("a", "b", 1), ("c", "d", 1)]


def test_purge_conflicting_shared_keys():
    th = ThetaTable(PAIR)
    th.insert(("a", "c"))
    th.insert(("b", "c"))
    assert th.purge_conflicting(("a", "c")) == 2  # X=a and Y=c both match
    assert len(th) == 0


def test_purge_conflicting_no_shared_keys():
    th = ThetaTable(PAIR)
    th.insert(("b", "d"))
    assert th.purge_conflicting(("a", "c")) == 0
    assert len(th) == 1


def test_purge_after_spanning_tree_choice():
    # candidates reachable from the source on the three-node triangle; after
    # choosing (a, b, 1), arcs into b die (FD left Y) and the rest survive
    th = ThetaTable(LEAST)  # W = (X, Y, C), FDs Y -> X and Y -> C
    th.insert(("a", "b", 1))
    th.insert(("a", "c", 3))
    delta = th.select_extreme()
    assert delta == ("a", "b", 1)
    assert th.purge_conflicting(delta) == 0
    th.insert(("c", "b", 2))  # would re-reach b
    assert th.purge_conflicting(delta) == 1
    assert list(th) == [("a", "c", 3)]


def test_pq_and_scan_agree_on_cost():
    # same insert sequence, with and without the heap: selected costs match
    rng = random.Random(7)
    seq = [(f"x{i}", f"y{rng.randrange(8)}", rng.randrange(20)) for i in range(64)]
    a = ThetaTable(UNION, use_pq=True)
    b = ThetaTable(UNION, use_pq=False)
    for t in seq:
        a.insert(t)
        b.insert(t)
    while len(a):
        ta, tb = a.select_extreme(), b.select_extreme()
        assert ta[2] == tb[2]
        assert ta == tb  # lexicographic tie-break makes them identical
    assert b.select_extreme() is None


TRIPLES = st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 30))


@settings(max_examples=200)
@given(
    st.lists(TRIPLES, max_size=40),
    # a triple inserts, "select" selects, an integer purges the i-th candidate
    st.lists(st.one_of(TRIPLES, st.just("select"), st.integers(0, 39)), max_size=60),
)
def test_heap_property_after_every_mutation(tuples, ops):
    # inserts between selections and purges settle staged candidates and
    # replace staged bests under the unique key (X, Y), in the heap table
    # and in the scan table alike
    for th in (ThetaTable(UNION, use_pq=True), ThetaTable(UNION, use_pq=False)):
        for t in tuples:
            th.insert(t)
            assert audit_theta(th)
        for op in ops:
            if isinstance(op, tuple):
                th.insert(op)
            elif op == "select":
                th.select_extreme()
            elif len(th):
                th.purge_conflicting(sorted(th, key=tuple_key)[op % len(th)])
            assert audit_theta(th)
        while th.select_extreme() is not None:
            assert audit_theta(th)


def test_staged_candidates_reach_the_heap_only_when_their_best_is_lost():
    th = ThetaTable(UNION, use_pq=True)  # unique key (X, Y), least C
    for t in [("a", "b", 5), ("a", "c", 3), ("d", "b", 4)]:
        th.insert(t)
    assert th.select_extreme() == ("a", "c", 3)  # the staged best
    assert th.purge_conflicting(("a", "c", 3)) == 1  # ("a", "b", 5), staged
    assert th.counters.pq_ops == 0
    # the staged best was taken: this insert pushes ("d", "b", 4) first
    th.insert(("e", "f", 1))
    assert th.counters.pq_ops == 1
    # a better tuple for key (e, f) replaces the staged best ("e", "f", 1)
    th.insert(("e", "f", 0))
    assert audit_theta(th)
    assert th.select_extreme() == ("e", "f", 0)
    assert th.select_extreme() == ("d", "b", 4)  # one heap delete
    assert th.select_extreme() is None
    assert th.counters.pq_ops == 2


def test_scan_visits_only_settled_candidates():
    th = ThetaTable(UNION, use_pq=False)
    for t in [("a", "b", 5), ("a", "c", 3), ("d", "b", 4)]:
        th.insert(t)
    assert th.select_extreme() == ("a", "c", 3)  # the staged best, no scan
    assert th.purge_conflicting(("a", "c", 3)) == 1  # ("a", "b", 5), staged
    # inserts and their checks against the chosen side, the selected, the
    # purged
    assert th.counters.work == 3 + 3 + 1 + 1
    th.insert(("e", "f", 1))  # settles ("d", "b", 4)
    assert audit_theta(th)
    assert th.select_extreme() == ("e", "f", 1)  # scans the one settled candidate
    assert th.counters.work == 8 + 2 + 1 + 1
    assert th.counters.scan_steps == 1
    assert th.select_extreme() == ("d", "b", 4)
    assert th.counters.pq_ops == 0


def test_heap_handle_deletion_is_logarithmic_shape():
    h = _Heap(Counters(), slotted=True)
    recs = {(i,): [(i * 37) % 101, -1, (i,)] for i in range(101)}
    for rec in recs.values():
        h.push_all((rec,))
    for rec in sorted(recs.values())[::3]:
        h.delete_all((rec,))
        assert audit_heap(h)
    got = []
    while len(h):
        got.append(h.items[0][-1])
        h.delete_all((recs[got[-1]],))
    keys = [((t[0]) * 37) % 101 for t in got]
    assert keys == sorted(keys)
    # one pq_op per push and delete plus one per level a sift moves
    assert h.counters.pq_ops == h.counters.work == 578


@settings(max_examples=200)
# an integer pushes a key with that cost, a list pushes one key per cost,
# None deletes the least key
@given(st.lists(st.one_of(st.integers(0, 20), st.lists(st.integers(0, 20), max_size=6), st.none()), max_size=120))
def test_heap_without_positions_matches_the_indexed_heap(ops):
    # the heap without slots leaves the tuple order and counts of the
    # slotted heap; push_all leaves the array, the slots and the counts of
    # one push per key
    a, b = _Heap(Counters(), slotted=True), _Heap(Counters(), slotted=False)
    c, d = _Heap(Counters(), slotted=True), _Heap(Counters(), slotted=False)
    for seq, op in enumerate(ops):
        if isinstance(op, int):
            for h in (a, b, c, d):
                key = (op, seq, (seq,))
                h.push_all((_record(key) if h.slotted else key,))
        elif op is not None:
            keys = [(cost, seq, i, (seq, i)) for i, cost in enumerate(op)]
            for h in (a, b):
                for key in keys:
                    h.push_all((_record(key) if h.slotted else key,))
            for h in (c, d):
                h.push_all([_record(key) if h.slotted else key for key in keys])
        elif len(a):
            for h in (a, b, c, d):
                h.delete_all((h.items[0],))
        assert _order(a) == b.items == _order(c) == d.items
        assert audit_heap(a) and audit_heap(b) and audit_heap(c)
        assert len({(h.counters.pq_ops, h.counters.work) for h in (a, b, c, d)}) == 1


@settings(max_examples=200)
@given(
    st.lists(st.integers(0, 20), max_size=60),
    st.lists(st.integers(0, 59), max_size=30),
)
def test_heap_delete_all_equals_repeated_deletes(costs, picks):
    # deletes from the middle, in one call or one call each
    a, b = _Heap(Counters(), slotted=True), _Heap(Counters(), slotted=True)
    recs = {}
    for h in (a, b):
        recs[h] = [[cost, i, -1, (i,)] for i, cost in enumerate(costs)]
        h.push_all(recs[h])
    victims = list(dict.fromkeys(p % len(costs) for p in picks)) if costs else []
    for i in victims:
        a.delete_all((recs[a][i],))
    b.delete_all([recs[b][i] for i in victims])
    assert a.items == b.items and audit_heap(a) and audit_heap(b)
    assert (a.counters.pq_ops, a.counters.work) == (b.counters.pq_ops, b.counters.work)


def test_heap_without_positions_deletes_only_its_least_key():
    h = _Heap(Counters(), slotted=False)
    with pytest.raises(StorageError):
        h.delete_all(((0, ("a",)),))
    for i in (3, 1, 2):
        h.push_all(((i, (i,)),))
    with pytest.raises(StorageError):
        h.delete_all(((2, (2,)),))
    assert [k for k, _ in h.items] == [1, 3, 2]
    h.delete_all(((1, (1,)),))
    assert h.items[0] == (2, (2,))


def _sink_walk_ops(items):
    """The pq_ops of popping a heap as _ReferenceHeap's sink counts them:
    one, plus one per level the last key sinks from the root along the
    lesser child, walked with the sink's comparisons and no writes."""
    n = len(items) - 1  # the size after the pop
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
    return 1 + moved


class _ReferenceHeap:
    """The sifts that _Heap's one hole-filling sift replaced, kept as the
    reference for its arrays, positions and pq_ops.  Without positions, a
    push is heappush, counted by finding the key on the path up from the
    last slot, and a delete (of the least key only) is heappop, counted by
    _sink_walk_ops.  With positions, a push is a rise loop, and a delete
    fills the hole with the last key, which rises while it is less than its
    parent and otherwise sinks while a child is less than it.  Each
    operation counts one plus the levels its key moved."""

    def __init__(self, indexed: bool):
        self.items: list[tuple] = []
        self.pos = {} if indexed else None
        self.pq_ops = 0

    def push(self, key: tuple) -> None:
        items, pos = self.items, self.pos
        self.pq_ops += 1
        if pos is None:
            heapq.heappush(items, key)
            i = len(items) - 1
            while items[i] is not key:
                i = (i - 1) // 2
                self.pq_ops += 1
            return
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
            self.pq_ops += 1
        items[i] = key
        pos[key[-1]] = i

    def delete(self, t: tuple) -> None:
        items, pos = self.items, self.pos
        if pos is None:
            assert items[0][-1] == t
            self.pq_ops += _sink_walk_ops(items)
            heapq.heappop(items)
            return
        self.pq_ops += 1
        n = len(items) - 1  # the size after this delete
        i = pos.pop(t)
        key = items.pop()
        if i == n:
            return
        while i > 0:
            parent = (i - 1) // 2
            above = items[parent]
            if not key < above:
                break
            items[i] = above
            pos[above[-1]] = i
            i = parent
            self.pq_ops += 1
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
            self.pq_ops += 1
        items[i] = key
        pos[key[-1]] = i


@settings(max_examples=300)
# an integer pushes a key with that cost, ("delete", k) deletes the key in
# slot k modulo the size (slot 0 on a heap without positions), None pops
@given(
    st.lists(
        st.one_of(st.integers(0, 30), st.tuples(st.just("delete"), st.integers(0, 99)), st.none()),
        max_size=150,
    )
)
# the pushes leave [0, 10, 1, 11, 12, 2, 3]; deleting 11 from slot 3 moves
# the last key, 3, there, and it rises past 10 to slot 1
@example([0, 10, 1, 11, 12, 2, 3, ("delete", 3)])
def test_heap_sift_equals_the_reference_sifts(ops):
    # the reference holds tuple keys and, with positions, a position map;
    # _Heap holds records that carry their slots when it is slotted
    for slotted in (True, False):
        h, ref = _Heap(Counters(), slotted=slotted), _ReferenceHeap(slotted)
        recs = {}
        for seq, op in enumerate(ops):
            if isinstance(op, int):
                key = (op, seq, (seq,))
                recs[key[-1]] = _record(key) if slotted else key
                h.push_all((recs[key[-1]],))
                ref.push(key)
            elif not ref.items:
                continue
            elif op is None:
                least = ref.items[0]
                assert h.pop() is recs[least[-1]]
                ref.delete(least[-1])
            else:
                t = ref.items[op[1] % len(ref.items) if slotted else 0][-1]
                h.delete_all((recs[t],))
                ref.delete(t)
            assert _order(h) == ref.items and audit_heap(h)
            if slotted:
                assert {rec[-1]: rec[-2] for rec in h.items} == ref.pos
            assert h.counters.pq_ops == h.counters.work == ref.pq_ops


def _pop_both(h: _Heap, ref: list) -> None:
    """Pop h and the heapq list ref, which hold the same array: the same key
    comes out, the arrays stay equal, and the pop counts the sink walk,
    within 1 + floor(log2(size after)) for a non-empty heap after it."""
    expected = _sink_walk_ops(ref)
    before = h.counters.pq_ops
    assert h.pop() == heapq.heappop(ref)
    assert h.items == ref
    delta = h.counters.pq_ops - before
    assert delta == expected
    assert delta <= 1 + (math.floor(math.log2(len(ref))) if ref else 0)


@settings(max_examples=300)
# an integer pushes a key with that cost, None pops
@given(st.lists(st.one_of(st.integers(0, 30), st.none()), max_size=150))
def test_heap_pop_equals_heappop_and_counts_the_sink_walk(ops):
    h, ref = _Heap(Counters(), slotted=False), []
    for seq, op in enumerate(ops):
        if op is not None:
            key = (op, (seq,))
            h.push_all((key,))
            heapq.heappush(ref, key)
        elif ref:
            _pop_both(h, ref)
        assert h.items == ref
    while ref:
        _pop_both(h, ref)
    assert not h.items


@pytest.mark.parametrize("size", [1, 2, 5000])
def test_heap_pop_drains_like_heappop(size):
    keys = [(cost, (i,)) for i, cost in enumerate(random.Random(size).choices(range(size), k=size))]
    h, ref = _Heap(Counters(), slotted=False), []
    h.push_all(keys)
    for key in keys:
        heapq.heappush(ref, key)
    assert h.items == ref
    while ref:
        _pop_both(h, ref)
    assert not h.items


def test_theta_heap_keeps_positions_only_with_an_fd_index_or_unique_key(monkeypatch):
    for info in (UNION, PAIR, LEAST):
        assert ThetaTable(info, use_pq=True)._heap.slotted
    # the factorized stratum's own domain table, as the engine builds it
    tables = []
    theta_table = Engine._theta_table

    def capture(self, info):
        tables.append(theta_table(self, info))
        return tables[-1]

    monkeypatch.setattr(Engine, "_theta_table", capture)
    eng = Engine(get_program("sort"), edb=domain_facts(8, seed=1), ties="lex", factorize=True)
    eng.run()
    assert eng.factorized_strata
    (theta,) = tables
    assert not theta.info.fds and theta.info.unique_key is None
    assert not theta._heap.slotted


# one rule per shape: FDs sharing a left side (the matching rule), empty
# left sides, unique keys (Y; X, Y; X) and least/most costs, greedy rules
# without a unique key, and greedy tables with neither an FD index nor a
# unique key (the factorized domain table's shape), whose heap is not
# slotted
ADMISSION_RULES = [
    "p(X,Y,C) :- q(X,Y,C), choice((Y),(X)), choice((X),(Y)), choice((X),(C)).",
    "p(X,Y,C) :- q(X,Y,C), choice((),(X)), choice((),(Y,C)).",
    "p(X,Y,C) :- q(X,Y,C), choice((X),(Y)), choice_least((),(C)).",
    "p(X,Y,C) :- q(X,Y,C), choice((Y),(X)), choice_least((Y),(C)).",
    "p(X,Y,C) :- q(X,Y,C), choice((X),(Y)), choice((Y),(X)), choice_least((Y),(C)).",
    "p(X,Y,C) :- q(X,Y,C), choice((X),(Y)), choice_most((X),(C)).",
    "p(X,Y,C) :- q(X,Y,C), choice((X,Y),(C)), choice_least((X),(C)).",
    "p(X,Y,C) :- q(X,Y,C), choice((Y),(X)), choice_most((),(C)).",
]
ADMISSION_INFOS = [_info(src) for src in ADMISSION_RULES]
ADMISSION_INFOS += [dataclasses.replace(ADMISSION_INFOS[i], fds=(), unique_key=None) for i in (2, 5)]
TRIPLE = st.tuples(st.integers(0, 2), st.sampled_from([0, 1, "a"]), st.integers(0, 3))
# a triple whose cost is now and then not an integer
COSTED = st.tuples(
    st.integers(0, 2), st.sampled_from([0, 1, "a"]), st.integers(0, 12).map(lambda c: "c" if c == 12 else c % 4)
)


def _reference_admit(theta, ts):
    """ThetaTable.admit's loop as it was before it was generated per table
    shape: each candidate projected through projector calls, keyed through
    order_key and stored by a branch on the table's kind.  The reference
    for the generated loops."""
    if not ts:
        return
    counters = theta.counters
    entries = theta._entries
    cfds, crows = theta.chosen._fds, theta.chosen.rows
    fd_index, ukey, ukey_index = theta._fd_index, theta._ukey, theta._ukey_index
    ordered, okey = theta._ordered, order_key(len(theta.info.w_vars))
    cost_pos, most = theta.info.cost_pos, theta._most
    slotted = theta._heap is not None and theta._heap.slotted
    staged, best = theta._staged, theta._staged_best
    rand_list = theta._rand_list if theta._random else None
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
                key = None
            elif cost_pos is not None:
                c = t[cost_pos]
                if not isinstance(c, int):
                    raise StorageError(f"{theta.info.chosen_pred}: cost argument must be an integer, got {c!r}")
                key = (-c if most else c, *okey(t))
            else:
                key = okey(t)
            if slotted:
                key = _record(key)
            if ukey is not None:
                u = ukey(t)
                cur = ukey_index.get(u)
                if cur is not None:
                    if not key < entries[cur]:
                        continue
                    theta._staged_best = best
                    theta._remove_all((cur,))
                    best = theta._staged_best
                ukey_index[u] = t
            for left, _, index in fd_index:
                index.setdefault(left(t), {})[t] = None
            if ordered:
                if best is None:
                    theta._flush()
                    best = key
                elif key < best:
                    best = key
                staged[t] = key
            elif rand_list is not None:
                key = len(rand_list)
                rand_list.append(t)
            entries[t] = key
    finally:
        theta._staged_best = best
        counters.theta_inserts += added


class _SlottedHeap(_Heap):
    """A heap that is slotted whatever its table asks for."""

    __slots__ = ()

    def __init__(self, counters, slotted):
        super().__init__(counters, True)


def _table(info, ties="lex", use_pq=True, slotted=False):
    """A theta table; slotted=True gives it a slotted heap (and the
    admission of one) even without an FD index or a unique key."""
    with mock.patch.object(storage, "_Heap", _SlottedHeap if slotted else _Heap):
        return ThetaTable(info, counters=Counters(), use_pq=use_pq, tie_policy=ties, rng=random.Random(3))


def _state(theta):
    """Everything admission writes: the entries and their values, the
    staged candidates and their best, the heap, the indexes, the random
    list, the counters and the chosen side."""
    fds = [[(k, list(b)) for k, b in index.items()] for _, _, index in theta._fd_index]
    heap = None if theta._heap is None else theta._heap.items
    return (
        list(theta._entries.items()),
        list(theta._staged.items()),
        theta._staged_best,
        heap,
        fds,
        list(theta._ukey_index.items()),
        theta._rand_list,
        theta.counters,
        theta.chosen.rows,
    )


def test_admission_cases_cover_the_table_shapes():
    assert any(len({fd.left for fd in i.fds}) < len(i.fds) for i in ADMISSION_INFOS)
    assert any(fd.left == () for i in ADMISSION_INFOS for fd in i.fds)
    assert {i.unique_key for i in ADMISSION_INFOS} >= {None, (1,), (0, 1), (0,)}
    assert {i.kind for i in ADMISSION_INFOS} == {RuleKind.PURE_CHOICE, RuleKind.CHOICE_LEAST, RuleKind.CHOICE_MOST}
    # greedy least and most, each with and without a unique key; zero, one
    # and two FD left sides
    assert {(i.kind, i.unique_key is None) for i in ADMISSION_INFOS if i.cost_pos is not None} == {
        (kind, keyless) for kind in (RuleKind.CHOICE_LEAST, RuleKind.CHOICE_MOST) for keyless in (False, True)
    }
    assert {len({fd.left for fd in i.fds}) for i in ADMISSION_INFOS} == {0, 1, 2}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(ADMISSION_INFOS),
    st.booleans(),  # the plain choice fixpoint's pure view of a greedy rule
    st.sampled_from(["lex", "fifo", "random"]),
    st.booleans(),  # the priority queue
    # a list admits a candidate batch, None selects, chooses and purges
    st.lists(st.one_of(st.lists(COSTED, max_size=8), st.none()), max_size=12),
)
# a non-integer cost after an admitted candidate and a repeat, then a
# chosen tuple offered again
@example(
    ADMISSION_INFOS[3], False, "lex", True,
    [[(0, 0, 1), (1, 1, 0), (0, 0, 1), (2, 1, "c"), (2, 0, 3)], None, [(1, 1, 0), (2, 1, 2), (0, 1, 3)]],
)
# staged survivors settle onto a slotted heap, the later key rising
@example(ADMISSION_INFOS[0], False, "lex", True, [[(2, 1, 0), (1, 0, 0), (0, "a", 0)], None, [(2, 0, 1)]])
def test_batch_admission_equals_the_per_candidate_path(info, pure, ties, use_pq, ops):
    # the generated admission of each table shape against the reference
    # loop: the same state after every batch, the same error mid-batch
    if pure:
        info = dataclasses.replace(info, kind=RuleKind.PURE_CHOICE, cost_pos=None, unique_key=None)
    gen, ref = _table(info, ties, use_pq), _table(info, ties, use_pq)
    for op in ops:
        if op is not None:
            errors = []
            for theta, admit in ((gen, ThetaTable.admit), (ref, _reference_admit)):
                try:
                    admit(theta, op)
                    errors.append(None)
                except StorageError as exc:
                    errors.append(str(exc))
            assert errors[0] == errors[1]
        else:
            for theta in (gen, ref):
                delta = theta.select_extreme()
                if delta is not None:
                    theta.choose(delta)
        assert _state(gen) == _state(ref)
        assert audit_theta(gen) and audit_theta(ref)


def _run_out(theta, late):
    """select_extreme until the table is empty, each selection with the
    table's size, counters and heap keys right after it; the candidates of
    late[k] are inserted after the k-th selection."""
    steps = []
    while len(theta):
        t = theta.select_extreme()
        heap = None if theta._heap is None else _order(theta._heap)
        steps.append((t, len(theta), dataclasses.replace(theta.counters), heap))
        for u in late.get(len(steps) - 1, ()):
            theta.insert(u)
    return steps


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(ADMISSION_INFOS),
    st.booleans(),  # the plain choice fixpoint's pure view of a greedy rule
    st.sampled_from(["lex", "fifo", "random"]),
    st.booleans(),  # the priority queue
    # before running out: a list admits a candidate batch, None selects,
    # chooses and purges
    st.lists(st.one_of(st.lists(TRIPLE, max_size=8), st.none()), max_size=8),
    # candidates inserted between selections, by the selection they follow
    st.dictionaries(st.integers(0, 10), st.lists(TRIPLE, min_size=1, max_size=3), max_size=3),
)
def test_drain_equals_repeated_select_extreme(info, pure, ties, use_pq, ops, late):
    # draining a table by repeated select_extreme: a heap without slots pops
    # its least key; the same table with a slotted heap takes the generic
    # path, through _remove_all and delete_all
    if pure:
        info = dataclasses.replace(info, kind=RuleKind.PURE_CHOICE, cost_pos=None, unique_key=None)
    sides = []
    for slotted in (False, True):
        theta = _table(info, ties, use_pq, slotted)
        for op in ops:
            if op is not None:
                theta.admit(op)
            elif (delta := theta.select_extreme()) is not None:
                theta.choose(delta)
        sides.append(theta)
    bare, slotted = sides
    assert _run_out(bare, late) == _run_out(slotted, late)
    assert len(bare) == 0 and audit_theta(bare) and audit_theta(slotted)
    assert bare.counters == slotted.counters
    assert bare.rng.getstate() == slotted.rng.getstate()


def test_drain_pops_a_heap_without_positions_and_takes_late_candidates():
    # the factorized domain table's shape: greedy, no FD, no unique key
    info = ADMISSION_INFOS[-2]
    assert not info.fds and info.unique_key is None and info.kind is RuleKind.CHOICE_LEAST
    cands = [(i % 3, "a", (i * 7) % 11) for i in range(30)]
    late = {0: [(9, 9, 5)], 12: [(8, 8, -1), (8, 8, 20)]}  # early, into the heap phase
    sides = [_table(info, slotted=slotted) for slotted in (False, True)]
    for theta in sides:
        theta.admit(cands)
    bare, slotted = sides
    assert not bare._heap.slotted and slotted._heap.slotted
    got = _run_out(bare, late)
    assert got == _run_out(slotted, late)
    assert [t for t, _, _, _ in got][13] == (8, 8, -1)  # the late least key comes next
    assert len(got) == 33 and len(bare) == 0
    assert bare.counters == slotted.counters and bare.counters.pq_ops > 33


def test_fifo_policy_returns_oldest():
    th = ThetaTable(PAIR, tie_policy="fifo")
    th.insert(("b", "x"))
    th.insert(("a", "y"))
    assert th.select_extreme() == ("b", "x")


def test_fifo_policy_matches_insertion_order_reference():
    # the oldest surviving candidate, a re-inserted tuple counting as new:
    # the order of a dict that deletes and re-adds its keys
    rng = random.Random(3)
    th = ThetaTable(PAIR, tie_policy="fifo")
    ref: dict = {}
    for _ in range(2000):
        op = rng.random()
        if op < 0.5:
            t = (rng.randrange(12), rng.randrange(12))
            th.insert(t)
            ref.setdefault(t, None)
        elif op < 0.7 and ref:
            victim = rng.choice(sorted(ref))
            th.purge_conflicting(victim)
            for t in [t for t in ref if t[0] == victim[0] or t[1] == victim[1]]:
                del ref[t]
        else:
            want = next(iter(ref), None)
            assert th.select_extreme() == want
            ref.pop(want, None)
        assert list(th) == list(ref)


def test_fifo_selection_is_amortised_constant_time():
    th = ThetaTable(_info("p(X) :- q(X), choice((),(X))."), tie_policy="fifo")
    n = 200_000
    for i in range(n):
        th.insert((i,))
    t0 = time.perf_counter()
    picks = [th.select_extreme() for _ in range(n)]
    elapsed = time.perf_counter() - t0
    assert picks == [(i,) for i in range(n)]
    # taking the first key of a dict whose front was deleted scans the
    # deleted slots, which is quadratic: tens of seconds at this size
    assert elapsed < 4.0, f"fifo selection of {n} candidates took {elapsed:.2f} s"


def test_random_selection_is_constant_time():
    th = ThetaTable(_info("p(X) :- q(X), choice((),(X))."), tie_policy="random", rng=random.Random(7))
    n = 200_000
    for i in range(n):
        th.insert((i,))
    t0 = time.perf_counter()
    picks = [th.select_extreme() for _ in range(n)]
    elapsed = time.perf_counter() - t0
    assert sorted(picks) == [(i,) for i in range(n)] and picks != sorted(picks)
    # a removal moves the last candidate into the freed slot; deleting from
    # the middle of the list instead shifts its tail, which is quadratic
    assert elapsed < 4.0, f"random selection of {n} candidates took {elapsed:.2f} s"


def _const_order(t):
    # integers before symbols, then by value: the reference constant order
    return [(isinstance(c, str), c) for c in t]


def test_lex_policy_matches_sorted_reference():
    # the least surviving candidate in constant order, through the heap and
    # through the linear scan alike; the heap stays well-formed throughout
    rng = random.Random(5)
    consts = list(range(6)) + ["a", "b", "c", "d", "e", "f"]
    heap = ThetaTable(PAIR, tie_policy="lex", use_pq=True)
    scan = ThetaTable(PAIR, tie_policy="lex", use_pq=False)
    ref: set = set()
    for _ in range(2000):
        op = rng.random()
        if op < 0.5:
            t = (rng.choice(consts), rng.choice(consts))
            heap.insert(t)
            scan.insert(t)
            ref.add(t)
        elif op < 0.7 and ref:
            victim = sorted(ref, key=_const_order)[rng.randrange(len(ref))]
            heap.purge_conflicting(victim)
            scan.purge_conflicting(victim)
            ref -= {t for t in ref if t[0] == victim[0] or t[1] == victim[1]}
        else:
            want = min(ref, key=_const_order, default=None)
            assert heap.select_extreme() == want
            assert scan.select_extreme() == want
            ref.discard(want)
        assert audit_theta(heap) and audit_theta(scan)
        assert set(heap) == set(scan) == ref


def test_lex_selection_with_the_queue_is_logarithmic():
    # 1000 rows of 40 candidates under the FD X -> Y: each selection takes
    # the least of a row and purges the other 39; a scan per selection
    # visits ~20M candidates here, tens of seconds
    th = ThetaTable(_info("p(X,Y) :- q(X,Y), choice((X),(Y))."), tie_policy="lex", use_pq=True)
    cands = [(x, y) for x in range(1000) for y in range(40)]
    random.Random(1).shuffle(cands)
    t0 = time.perf_counter()
    for t in cands:
        th.insert(t)
    picks = []
    while len(th):
        picks.append(th.select_extreme())
        th.purge_conflicting(picks[-1])
    elapsed = time.perf_counter() - t0
    assert picks == [(x, 0) for x in range(1000)]
    assert elapsed < 4.0, f"lex selection of {len(cands)} candidates took {elapsed:.2f} s"


def test_tuple_key_is_flat_and_orders_integers_before_symbols():
    assert tuple_key((3, "a")) == (0, 3, 1, "a")
    rows = [("b", 2), (10, "a"), (2, "z"), ("a", 1)]
    assert sorted(rows, key=tuple_key) == [(2, "z"), (10, "a"), ("a", 1), ("b", 2)]


# constants of every kind: 64-bit integers and their bounds, the empty
# symbol, digit-like symbols and symbols that print quoted
CONSTS = st.one_of(
    st.integers(MIN_INT, MAX_INT),
    st.sampled_from([MIN_INT, MAX_INT, -1, 0, 1, 12]),
    st.sampled_from(["", "12", "-3", "a", "b_c", "Abc", "a b", "it's", "\t"]),
    st.text(max_size=4),
)


@settings(max_examples=200)
@given(st.integers(0, 4).flatmap(lambda n: st.lists(st.tuples(*[CONSTS] * n), max_size=30)))
def test_generated_order_key_sorts_as_the_reference_key(rows):
    key = order_key(len(rows[0]) if rows else 0)
    assert sorted(rows, key=key) == sorted(rows, key=tuple_key)
    for a, b in zip(rows, rows[1:]):
        assert (key(a) < key(b)) == (tuple_key(a) < tuple_key(b))


@pytest.mark.parametrize("arity", range(5))
def test_generated_order_key_holds_only_column_indices(arity):
    key = order_key(arity)
    assert key is order_key(arity)  # made once per arity
    code = key.__code__
    assert set(code.co_consts) <= {None, *range(arity)}
    assert set(code.co_names) <= {"__class__", "str"}
    t = tuple(range(arity))
    assert key(t) == (*[x for c in t for x in (False, c)], t)


def _reference_model_lines(relations):
    # model output as written before the generated key: sorted by the
    # reference key, every cell through format_const
    return [
        "\t".join([pred] + [format_const(c) for c in t])
        for pred in sorted(relations)
        for t in sorted(relations[pred], key=tuple_key)
    ]


# symbols that print bare and symbols that print quoted, '%' included
SYMBOLS = st.one_of(st.sampled_from(["", "a", "b_c", "Abc", "a b", "it's", "12", "%s", "x%d"]), st.text(max_size=4))
INTS = st.one_of(st.integers(MIN_INT, MAX_INT), st.sampled_from([MIN_INT, MAX_INT, -1, 0, 1, 12]))
# a relation's rows: each column holds integers, symbols or both
RELATION = st.integers(0, 3).flatmap(
    lambda n: st.lists(st.sampled_from([INTS, SYMBOLS, CONSTS]), min_size=n, max_size=n).flatmap(
        lambda cols: st.sets(st.tuples(*cols), max_size=12)
    )
)


@settings(max_examples=300)
@given(st.dictionaries(st.sampled_from(["p", "q", "r_s", "t", "%", "a%sb", "100%", "%%d"]), RELATION, max_size=4))
@example({"p": {(1, "a"), (2, "A b")}, "q": {(1, "a"), ("a", 1)}})
def test_model_lines_match_the_reference_formula(relations):
    relations["flag"] = {()}  # a 0-arity predicate
    assert model_lines(relations) == _reference_model_lines(relations)


def test_model_lines_sorts_by_order_key_only_when_plain_comparison_fails(monkeypatch):
    keyed = []
    monkeypatch.setattr(tsvio, "order_key", lambda arity: keyed.append(arity) or order_key(arity))
    one_type_per_column = {(2, "a b"), (1, "Abc"), (1, "")}
    assert model_lines({"p": one_type_per_column}) == _reference_model_lines({"p": one_type_per_column})
    assert keyed == []
    # integers and symbols meet in the first column
    mixed = {(2, "a"), ("b", 1), (1, "c")}
    assert model_lines({"p": mixed}) == ["p\t1\tc", "p\t2\ta", "p\tb\t1"]
    assert keyed == [2]


def test_random_policy_is_seeded():
    picks = []
    for _ in range(2):
        th = ThetaTable(PAIR, tie_policy="random", rng=random.Random(42))
        for i in range(10):
            th.insert((f"x{i}", f"y{i}"))
        picks.append([th.select_extreme() for _ in range(10)])
    assert picks[0] == picks[1]


def test_cost_column_must_be_integer():
    th = ThetaTable(LEAST)
    with pytest.raises(StorageError, match="integer"):
        th.insert(("x", "y", "notacost"))
