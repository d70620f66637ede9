"""Checkers that only the tests use: a second stable-model checker, built
differently from gdlog.oracle.check_stable_model so the two can be
cross-checked, the FDs of a model's chosen tables, a plain graph search over
arc lists, and two independent minimum-spanning-tree weights (Kruskal and
Prim)."""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, Optional

from gdlog.analysis import choice_info
from gdlog.lang import Program
from gdlog.oracle import GAtom, GroundProgram, complete_with_diffchoice


def audit_stable_model(g: GroundProgram, m: Iterable[GAtom], *, complete_diffchoice: bool = True) -> bool:
    """Second, independently structured check: every ground rule must be true
    in m, and every atom of m must be derivable inside the reduct (queue-based
    propagation rather than round iteration)."""
    m_set = set(m)
    if complete_diffchoice:
        m_set = complete_with_diffchoice(g, m_set)

    for r in g.rules:
        body_true = all(p in m_set for p in r.pos) and not any(q in m_set for q in r.neg)
        if body_true and r.head not in m_set:
            return False

    # derivability in the reduct, by counting unsatisfied positive goals
    waiting: dict[GAtom, list[int]] = {}
    remaining: list[int] = []
    heads: list[GAtom] = []
    queue: list[GAtom] = []
    derived: set[GAtom] = set()
    idx = 0
    for r in g.rules:
        if any(q in m_set for q in r.neg):
            continue
        heads.append(r.head)
        remaining.append(len(r.pos))
        if not r.pos:
            queue.append(r.head)
        for p in r.pos:
            waiting.setdefault(p, []).append(idx)
        idx += 1
    qi = 0
    seenq: set[GAtom] = set(queue)
    while qi < len(queue):
        a = queue[qi]
        qi += 1
        if a in derived:
            continue
        derived.add(a)
        for ri in waiting.get(a, ()):  # a rule may wait on the same atom twice
            remaining[ri] -= 1
            if remaining[ri] <= 0 and heads[ri] not in seenq:
                queue.append(heads[ri])
                seenq.add(heads[ri])
    return m_set <= derived


def assert_fds_hold(prog: Program, model: Mapping[str, Iterable[tuple]]) -> None:
    """Every declared FD of every choice rule holds on its chosen_<rule>
    table in model ({predicate: tuples}): no two chosen tuples agree on an
    FD's left side and differ on its right side."""
    for r in prog.rules:
        if not r.choice_goals:
            continue
        info = choice_info(r)
        rows = list(model.get(info.chosen_pred, ()))
        for fd in info.fds:
            seen: dict[tuple, tuple] = {}
            for t in rows:
                key = tuple(t[i] for i in fd.left)
                val = tuple(t[i] for i in fd.right)
                assert seen.setdefault(key, val) == val, (info.chosen_pred, fd, t)


def reachable(arcs: Iterable[tuple], src) -> set:
    """Every node reachable from src along the arcs (u, v, ...)."""
    adj: dict = {}
    for u, v, *_ in arcs:
        adj.setdefault(u, []).append(v)
    out = {src}
    stack = [src]
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v not in out:
                out.add(v)
                stack.append(v)
    return out


def ref_mst_weight(edges: Iterable[tuple]) -> Optional[int]:
    """Kruskal; None when the edge set does not span a single component."""
    edges = list(edges)
    nodes = {u for u, _, _ in edges} | {v for _, v, _ in edges}
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0
    used = 0
    for u, v, c in sorted(edges, key=lambda e: e[2]):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            total += c
            used += 1
    if nodes and used != len(nodes) - 1:
        return None
    return total


def ref_prim_weight(edges: Iterable[tuple], start=None) -> Optional[int]:
    """Heap-based Prim over an undirected edge list; independent of Kruskal."""
    adj: dict = {}
    for u, v, c in edges:
        adj.setdefault(u, []).append((c, v))
        adj.setdefault(v, []).append((c, u))
    if not adj:
        return 0
    if start is None:
        start = next(iter(sorted(adj)))
    seen = {start}
    heap = list(adj[start])
    heapq.heapify(heap)
    total = 0
    while heap and len(seen) < len(adj):
        c, v = heapq.heappop(heap)
        if v in seen:
            continue
        seen.add(v)
        total += c
        for e in adj[v]:
            if e[1] not in seen:
                heapq.heappush(heap, e)
    if len(seen) != len(adj):
        return None
    return total
