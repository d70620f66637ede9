"""Fact-set builders that only the tests use: small random EDBs for each
corpus program, on graphs that the stable-model oracle can ground."""

from __future__ import annotations

import random

from gdlog.corpus import (
    advisor_facts,
    bipartite_graph,
    complete_graph,
    domain_facts,
    node_names,
    sparse_connected_graph,
)


def acyclic_digraph(n: int, arcs: int | None = None, *, cost_max: int = 1000, seed: int = 0) -> dict[str, list[tuple]]:
    """Random DAG rooted at `a`: every node can be reached, all arcs point forward
    in one fixed topological order.  Cost-accumulating programs stay finitely
    groundable on these (distinct path costs cannot cycle), which is what the
    stable-model oracle needs."""
    rng = random.Random(seed)
    nodes = node_names(n)
    if arcs is None:
        arcs = 2 * n
    edges: set[tuple[str, str]] = set()
    for j in range(1, n):
        i = rng.randrange(0, j)
        edges.add((nodes[i], nodes[j]))
    tries = 0
    while len(edges) < arcs and tries < 20 * arcs:
        tries += 1
        i = rng.randrange(0, n - 1)
        j = rng.randrange(i + 1, n)
        edges.add((nodes[i], nodes[j]))
    g = [(u, v, rng.randint(1, cost_max)) for u, v in sorted(edges)]
    return {"g": g, "node": [(x,) for x in nodes]}


def example_edb(name: str, n: int, *, seed: int = 0, cost_max: int = 100) -> dict[str, list[tuple]]:
    """A small random fact set appropriate for the named example.

    reach and dijkstra get acyclic digraphs here: these builders feed the
    stable-model oracle, whose grounding of cost-accumulating rules is finite
    only when the graph has no directed cycle.  The engine itself handles
    cyclic inputs (the declared FDs bound the recursion).
    """
    if name == "advisor":
        return advisor_facts(n, n, seed=seed)
    if name in ("sequence", "sort"):
        return domain_facts(n, seed=seed)
    if name in ("matching", "optmatching"):
        return bipartite_graph(max(2, n // 2), max(2, n - n // 2), cost_max=cost_max, seed=seed)
    if name in ("spantree", "prim"):
        return sparse_connected_graph(n, 2 * n, cost_max=cost_max, seed=seed)
    if name in ("reach", "dijkstra"):
        return acyclic_digraph(n, 2 * n, cost_max=cost_max, seed=seed)
    if name in ("simplepath", "tsp"):
        return complete_graph(n, cost_max=cost_max, seed=seed)
    raise KeyError(name)
