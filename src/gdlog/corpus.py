"""The example-program corpus and random fact-set builders.

Program sources follow the dialect spelling of docs/dialect.md; names match
what each program computes.  Builders return EDB dictionaries
(predicate -> list of tuples) and are shared by the CLI generator, the
benchmark harness and the test suite.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .lang import Program, parse_program

PROGRAMS: dict[str, str] = {
    # unique advisor per student, nondeterministic among same-major professors
    "advisor": (
        "actual_adv(S, P) :- student(S, Majr, Yr), professor(P, Majr), choice((S), (P)).\n"
    ),
    # chain the elements of d in an arbitrary total order
    "sequence": (
        "succ(root, root).\n"
        "succ(X, Y) :- succ(_, X), d(Y), choice((X), (Y)), choice((Y), (X)).\n"
    ),
    # a matching in a bipartite graph g(X,Y,C)
    "matching": (
        "matching(X, Y) :- g(X, Y, C), choice((Y), (X)), choice((X), (Y)), choice((X), (C)).\n"
    ),
    # rooted spanning tree over symmetric g facts, source node a
    "spantree": (
        "st(root, a, 0).\n"
        "st(X, Y, C) :- st(_, X, _), g(X, Y, C), Y \\= a, Y \\= X, choice((Y), (X)), choice((Y), (C)).\n"
    ),
    # single-source reachability with accumulated cost
    "reach": (
        "reach(a, 0).\n"
        "reach(Y, C) :- reach(X, C1), g(X, Y, C2), Y \\= a, C = C1 + C2, choice((Y), (C)).\n"
    ),
    # simple path (Hamiltonian on complete graphs)
    "simplepath": (
        "spath(root, X, 0) :- g(X, _, _), choice((), X).\n"
        "spath(X, Y, C) :- spath(_, X, _), g(X, Y, C), spath(root, Z, 0), Y \\= Z, "
        "choice((X), (Y)), choice((Y), (X)), choice((Y), (C)).\n"
    ),
    # minimum-cost matching, greedy
    "optmatching": (
        "opt_matching(X, Y) :- g(X, Y, C), choice((Y), (X)), choice((X), (Y)), choice_least((X), (C)).\n"
    ),
    # minimum spanning tree from source a (greedy spantree)
    "prim": (
        "st(root, a, 0).\n"
        "st(X, Y, C) :- st(_, X, _), g(X, Y, C), Y \\= a, choice((Y), (X)), choice_least((Y), (C)).\n"
    ),
    # single-source shortest paths from a, nonnegative integer costs
    "dijkstra": (
        "dj(a, 0).\n"
        "dj(Y, C) :- dj(X, C1), g(X, Y, C2), Y \\= a, C = C1 + C2, choice_least((Y), (C)).\n"
    ),
    # chain the elements of d in decreasing order (greedy sequence)
    "sort": (
        "succ(root, root).\n"
        "succ(X, Y) :- succ(_, X), d(Y), choice_most((X), (Y)), choice((Y), (X)).\n"
    ),
    # greedy traveling-salesperson heuristic over a complete graph
    "tsp": (
        "spath(root, X, 0) :- node(X), choice((), X).\n"
        "spath(X, Y, C) :- spath(_, X, _), g(X, Y, C), spath(root, Z, 0), Y \\= Z, "
        "choice((X), (Y)), choice((Y), (X)), choice_least((Y), (C)).\n"
    ),
}


@lru_cache(maxsize=None)
def get_program(name: str) -> Program:
    return parse_program(PROGRAMS[name])


def node_names(n: int) -> list[str]:
    """Node symbols a, n2, n3, ...; the examples take `a` as the source."""
    return ["a"] + [f"n{i}" for i in range(2, n + 1)]


def complete_graph(n: int, *, cost_max: int = 1000, seed: int = 0, directed: bool = False) -> dict[str, list[tuple]]:
    """All undirected pairs with a random cost; each edge is emitted as the
    two symmetric facts unless directed is set."""
    rng = random.Random(seed)
    nodes = node_names(n)
    g = []
    for i in range(n):
        for j in range(i + 1, n):
            c = rng.randint(1, cost_max)
            g.append((nodes[i], nodes[j], c))
            if not directed:
                g.append((nodes[j], nodes[i], c))
    return {"g": g, "node": [(x,) for x in nodes]}


def sparse_connected_graph(
    n: int,
    arcs: int,
    *,
    cost_max: int = 1000,
    seed: int = 0,
    directed: bool = False,
) -> dict[str, list[tuple]]:
    """Random spanning tree from the source plus extra random arcs; connected
    by construction (every node can be reached from `a`)."""
    rng = random.Random(seed)
    nodes = node_names(n)
    edges: set[tuple[str, str]] = set()
    order = nodes[1:]
    rng.shuffle(order)
    reached = [nodes[0]]
    for v in order:
        u = rng.choice(reached)
        edges.add((u, v))
        reached.append(v)
    tries = 0
    while len(edges) < arcs and tries < 20 * arcs:
        u, v = rng.choice(nodes), rng.choice(nodes)
        tries += 1
        if u == v or (u, v) in edges:
            continue
        if not directed and (v, u) in edges:
            continue
        edges.add((u, v))
    g = []
    for u, v in sorted(edges):
        c = rng.randint(1, cost_max)
        g.append((u, v, c))
        if not directed:
            g.append((v, u, c))
    return {"g": g, "node": [(x,) for x in nodes]}


def bipartite_graph(
    n1: int,
    n2: int | None = None,
    *,
    cost_max: int = 1000,
    seed: int = 0,
) -> dict[str, list[tuple]]:
    """g(x, y, c) facts for every pair across the two parts u1..un1 / v1..vn2."""
    rng = random.Random(seed)
    n2 = n1 if n2 is None else n2
    left = [f"u{i}" for i in range(1, n1 + 1)]
    right = [f"v{i}" for i in range(1, n2 + 1)]
    return {"g": [(u, v, rng.randint(1, cost_max)) for u in left for v in right]}


def domain_facts(n: int, *, seed: int = 0) -> dict[str, list[tuple]]:
    """n distinct integers from 1..max(10n, 100) for the sequencing/sorting
    examples (`root` never appears in the domain)."""
    rng = random.Random(seed)
    values = rng.sample(range(1, max(10 * n, 100) + 1), n)
    return {"d": [(v,) for v in values]}


def advisor_facts(n_students: int, n_professors: int, *, seed: int = 0) -> dict[str, list[tuple]]:
    """Students and professors, each in one of the majors m1 and m2."""
    rng = random.Random(seed)
    majors = ["m1", "m2"]
    years = ["junior", "senior"]
    students = [
        (f"s{i}", rng.choice(majors), rng.choice(years)) for i in range(1, n_students + 1)
    ]
    professors = [(f"p{i}", rng.choice(majors)) for i in range(1, n_professors + 1)]
    return {"student": students, "professor": professors}

