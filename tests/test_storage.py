import dataclasses
import heapq
import math
import random
import time

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
from gdlog import tsvio
from gdlog.tsvio import model_lines


def _info(src: str):
    return choice_info(parse_program(src).rules[0])


def audit_heap(h: _Heap) -> bool:
    """Structural check: every element's key is >= its parent's, and an
    indexed heap's positions point at their tuples."""
    for i in range(1, len(h.items)):
        if h.items[i] < h.items[(i - 1) // 2]:
            return False
    return h.pos is None or all(h.items[p][-1] == t for t, p in h.pos.items())


def audit_theta(th: ThetaTable) -> bool:
    """For an ordered table: the heap, if any, is well formed; the settled
    and the staged candidates hold every entry exactly once under its order
    key; and the staged best is None or the least staged key."""
    if not th._ordered:
        return True
    if th._heap is not None:
        if not audit_heap(th._heap):
            return False
        settled = {key[-1]: key for key in th._heap.items}
    else:
        settled = th._settled
    return (
        not settled.keys() & th._staged.keys()
        and {**settled, **th._staged} == th._entries
        and th._staged_best in (None, min(th._staged.values(), default=None))
    )


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
    h = _Heap(Counters(), indexed=True)
    items = [((i * 37) % 101, (i,)) for i in range(101)]
    for key, t in items:
        h.push_all(((key, t),))
    for key, t in sorted(items)[::3]:
        h.delete_all((t,))
        assert audit_heap(h)
    got = []
    while len(h):
        got.append(h.items[0][-1])
        h.delete_all((got[-1],))
    keys = [((t[0]) * 37) % 101 for t in got]
    assert keys == sorted(keys)
    # one pq_op per push and delete plus one per level a sift moves
    assert h.counters.pq_ops == h.counters.work == 578


@settings(max_examples=200)
# an integer pushes a key with that cost, a list pushes one key per cost,
# None deletes the least key
@given(st.lists(st.one_of(st.integers(0, 20), st.lists(st.integers(0, 20), max_size=6), st.none()), max_size=120))
def test_heap_without_positions_matches_the_indexed_heap(ops):
    # heappush and the written-out heappop of the heap without positions
    # leave the array the indexed sifts leave, and the counted sift levels
    # are the levels those sifts move; push_all leaves the array, the
    # positions and the counts of one push per key
    a, b = _Heap(Counters(), indexed=True), _Heap(Counters(), indexed=False)
    c, d = _Heap(Counters(), indexed=True), _Heap(Counters(), indexed=False)
    for seq, op in enumerate(ops):
        if isinstance(op, int):
            for h in (a, b, c, d):
                h.push_all(((op, (seq,)),))
        elif op is not None:
            keys = [(cost, (seq, i)) for i, cost in enumerate(op)]
            for h in (a, b):
                for key in keys:
                    h.push_all((key,))
            for h in (c, d):
                h.push_all(keys)
        elif len(a):
            t = a.items[0][-1]
            for h in (a, b, c, d):
                h.delete_all((t,))
        assert a.items == b.items == c.items == d.items
        assert a.pos == c.pos
        assert len({(h.counters.pq_ops, h.counters.work) for h in (a, b, c, d)}) == 1
        assert audit_heap(b)


@settings(max_examples=200)
@given(
    st.lists(st.integers(0, 20), max_size=60),
    st.lists(st.integers(0, 59), max_size=30),
)
def test_heap_delete_all_equals_repeated_deletes(costs, picks):
    # deletes from the middle, in one call or one call each
    a, b = _Heap(Counters(), indexed=True), _Heap(Counters(), indexed=True)
    for h in (a, b):
        h.push_all([(cost, (i,)) for i, cost in enumerate(costs)])
    victims = list(dict.fromkeys((p % len(costs),) for p in picks)) if costs else []
    for t in victims:
        a.delete_all((t,))
    b.delete_all(victims)
    assert a.items == b.items and a.pos == b.pos and audit_heap(b)
    assert (a.counters.pq_ops, a.counters.work) == (b.counters.pq_ops, b.counters.work)


def test_heap_without_positions_deletes_only_its_least_key():
    h = _Heap(Counters(), indexed=False)
    with pytest.raises(StorageError):
        h.delete_all((("a",),))
    for i in (3, 1, 2):
        h.push_all(((i, (i,)),))
    with pytest.raises(StorageError):
        h.delete_all(((2,),))
    assert [k for k, _ in h.items] == [1, 3, 2]
    h.delete_all(((1,),))
    assert h.items[0] == (2, (2,))


def _sink_walk_ops(items):
    """The pq_ops of popping a heap without positions as the indexed sink
    counts them: one, plus one per level the last key sinks from the root
    along the lesser child, walked with the sink's comparisons and no
    writes."""
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
    h, ref = _Heap(Counters(), indexed=False), []
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
    h, ref = _Heap(Counters(), indexed=False), []
    h.push_all(keys)
    for key in keys:
        heapq.heappush(ref, key)
    assert h.items == ref
    while ref:
        _pop_both(h, ref)
    assert not h.items


def test_theta_heap_keeps_positions_only_with_an_fd_index_or_unique_key(monkeypatch):
    for info in (UNION, PAIR, LEAST):
        assert ThetaTable(info, use_pq=True)._heap.pos is not None
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
    assert theta._heap.pos is None


# one rule per shape: FDs sharing a left side (the matching rule), empty
# left sides, unique keys (Y; X, Y; X) and least/most costs, a greedy rule
# without a unique key
ADMISSION_RULES = [
    "p(X,Y,C) :- q(X,Y,C), choice((Y),(X)), choice((X),(Y)), choice((X),(C)).",
    "p(X,Y,C) :- q(X,Y,C), choice((),(X)), choice((),(Y,C)).",
    "p(X,Y,C) :- q(X,Y,C), choice((X),(Y)), choice_least((),(C)).",
    "p(X,Y,C) :- q(X,Y,C), choice((Y),(X)), choice_least((Y),(C)).",
    "p(X,Y,C) :- q(X,Y,C), choice((X),(Y)), choice((Y),(X)), choice_least((Y),(C)).",
    "p(X,Y,C) :- q(X,Y,C), choice((X),(Y)), choice_most((X),(C)).",
    "p(X,Y,C) :- q(X,Y,C), choice((X,Y),(C)), choice_least((X),(C)).",
]
ADMISSION_INFOS = [_info(src) for src in ADMISSION_RULES]
TRIPLE = st.tuples(st.integers(0, 2), st.sampled_from([0, 1, "a"]), st.integers(0, 3))


def _reference_admit(theta, ts):
    # the per-candidate path: each candidate checked against the chosen side
    # by ChosenTable.conflicts, and a survivor admitted alone (one conflict
    # check each way: every rule here has an FD)
    for t in ts:
        if theta.chosen.conflicts(t):
            theta.counters.conflict_checks += 1
        else:
            theta.insert(t)


def test_admission_cases_cover_the_table_shapes():
    assert any(len({fd.left for fd in i.fds}) < len(i.fds) for i in ADMISSION_INFOS)
    assert any(fd.left == () for i in ADMISSION_INFOS for fd in i.fds)
    assert {i.unique_key for i in ADMISSION_INFOS} >= {None, (1,), (0, 1), (0,)}
    assert {i.kind for i in ADMISSION_INFOS} == {RuleKind.PURE_CHOICE, RuleKind.CHOICE_LEAST, RuleKind.CHOICE_MOST}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(ADMISSION_INFOS),
    st.booleans(),  # the plain choice fixpoint's pure view of a greedy rule
    st.sampled_from(["lex", "fifo", "random"]),
    st.booleans(),  # the priority queue
    # a list admits a candidate batch, None selects, chooses and purges
    st.lists(st.one_of(st.lists(TRIPLE, max_size=8), st.none()), max_size=12),
)
def test_batch_admission_equals_the_per_candidate_path(info, pure, ties, use_pq, ops):
    if pure:
        info = dataclasses.replace(info, kind=RuleKind.PURE_CHOICE, cost_pos=None, unique_key=None)
    batch, ref = (
        ThetaTable(info, counters=Counters(), use_pq=use_pq, tie_policy=ties, rng=random.Random(3))
        for _ in range(2)
    )
    for op in ops:
        if op is not None:
            batch.admit(op)
            _reference_admit(ref, op)
        else:
            for theta in (batch, ref):
                delta = theta.select_extreme()
                if delta is not None:
                    theta.choose(delta)
        assert list(batch._entries.items()) == list(ref._entries.items())
        assert audit_theta(batch) and audit_theta(ref)
        assert batch.counters == ref.counters
        assert batch.chosen.rows == ref.chosen.rows
        if use_pq and batch._heap is not None:
            assert batch._heap.items == ref._heap.items


# the admission shapes, plus greedy tables with neither an FD index nor a
# unique key (the factorized domain table's shape), whose heap keeps no
# positions
DRAIN_INFOS = ADMISSION_INFOS + [
    dataclasses.replace(ADMISSION_INFOS[i], fds=(), unique_key=None) for i in (2, 5)
]


def _select_all(theta):
    # the per-call path: select_extreme until the table is empty
    while len(theta):
        yield theta.select_extreme()


def _run_out(theta, selections, late):
    """Each selection with the table's size and counters right after it;
    the candidates of late[k] are inserted after the k-th selection."""
    steps = []
    for k, t in enumerate(selections):
        steps.append((t, len(theta), dataclasses.replace(theta.counters)))
        for u in late.get(k, ()):
            theta.insert(u)
    return steps


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(DRAIN_INFOS),
    st.booleans(),  # the plain choice fixpoint's pure view of a greedy rule
    st.sampled_from(["lex", "fifo", "random"]),
    st.booleans(),  # the priority queue
    # before draining: a list admits a candidate batch, None selects,
    # chooses and purges
    st.lists(st.one_of(st.lists(TRIPLE, max_size=8), st.none()), max_size=8),
    # candidates inserted between yields, by the selection they follow
    st.dictionaries(st.integers(0, 10), st.lists(TRIPLE, min_size=1, max_size=3), max_size=3),
)
def test_drain_equals_repeated_select_extreme(info, pure, ties, use_pq, ops, late):
    if pure:
        info = dataclasses.replace(info, kind=RuleKind.PURE_CHOICE, cost_pos=None, unique_key=None)
    sides = []
    for _ in range(2):
        theta = ThetaTable(info, counters=Counters(), use_pq=use_pq, tie_policy=ties, rng=random.Random(3))
        for op in ops:
            if op is not None:
                theta.admit(op)
            elif (delta := theta.select_extreme()) is not None:
                theta.choose(delta)
        sides.append(theta)
    drained, called = sides
    assert _run_out(drained, drained.drain(), late) == _run_out(called, _select_all(called), late)
    assert len(drained) == 0 and audit_theta(drained)
    assert drained.counters == called.counters
    assert drained.rng.getstate() == called.rng.getstate()


def test_drain_pops_a_heap_without_positions_and_takes_late_candidates():
    # the factorized domain table's shape: greedy, no FD, no unique key
    info = dataclasses.replace(ADMISSION_INFOS[2], fds=(), unique_key=None)
    cands = [(i % 3, "a", (i * 7) % 11) for i in range(30)]
    late = {0: [(9, 9, 5)], 12: [(8, 8, -1), (8, 8, 20)]}  # early, into the heap phase
    sides = [ThetaTable(info, use_pq=True) for _ in range(2)]
    for theta in sides:
        theta.admit(cands)
    drained, called = sides
    assert drained._heap.pos is None
    got = _run_out(drained, drained.drain(), late)
    assert got == _run_out(called, _select_all(called), late)
    assert [t for t, _, _ in got][13] == (8, 8, -1)  # the late least key comes next
    assert len(got) == 33 and len(drained) == 0
    assert drained.counters == called.counters and drained.counters.pq_ops > 33


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
