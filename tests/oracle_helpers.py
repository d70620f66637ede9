"""Checkers that only the tests use: a second stable-model checker, built
differently from gdlog.oracle.check_stable_model so the two can be
cross-checked, and a plain graph search over arc lists."""

from __future__ import annotations

from typing import Iterable

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
