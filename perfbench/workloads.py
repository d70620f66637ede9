"""The three benchmark workloads: how each builds its inputs from a seed and
how each checks a model against an independent reference.

Inputs come from the `gdlog.corpus` builders; references come from
`gdlog.oracle` and plain Python, never from the engine.  Every workload runs a
doubling ladder of instance sizes; its largest size is the one the end-to-end
timings describe, and the whole ladder gives `work_slope`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from gdlog import corpus, oracle


def instance_seed(workload: str, seed: int, n: int) -> int:
    """A corpus seed for one ladder rung, fixed by (workload, seed, n)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{n}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


def parse_model(lines: list[str]) -> dict[str, list[tuple]]:
    """Model lines back into tuples; integers are the cells made of digits."""
    out: dict[str, list[tuple]] = {}
    for line in lines:
        pred, *cells = line.split("\t")
        out.setdefault(pred, []).append(
            tuple(int(c) if c.lstrip("-").isdigit() else c for c in cells)
        )
    return out


# -- dijkstra-sparse --------------------------------------------------------


def _dijkstra_edb(n: int, seed: int) -> dict[str, list[tuple]]:
    return corpus.sparse_connected_graph(n, 4 * n, seed=seed, directed=True)


def _dijkstra_expected(edb, n):
    return oracle.ref_dijkstra(edb["g"], "a")


def _dijkstra_check(model, expected, n) -> str | None:
    dj = model.get("dj", [])
    got = dict(dj)
    if len(got) != len(dj):
        return "a node has more than one dj distance"
    if got != expected:
        wrong = sorted(set(got.items()) ^ set(expected.items()))[:3]
        return f"dj distances differ from the reference Dijkstra, e.g. {wrong}"
    return None


# -- matching-bipartite -----------------------------------------------------


def _matching_edb(n: int, seed: int) -> dict[str, list[tuple]]:
    return corpus.bipartite_graph(n, n, seed=seed)


def _matching_expected(edb, n):
    return edb["g"]


def _matching_check(model, edges, n) -> str | None:
    pairs = model.get("matching", [])
    if not oracle.bipartite_matching_valid(pairs, edges):
        return "matching repeats a node or uses a non-edge"
    # a choice model is maximal, and a maximal matching of K(n,n) is perfect
    if len(pairs) != n:
        return f"matching has {len(pairs)} pairs, expected {n}"
    return None


# -- sort-factorized --------------------------------------------------------


def _sort_edb(n: int, seed: int) -> dict[str, list[tuple]]:
    return corpus.domain_facts(n, seed=seed)


def _sort_expected(edb, n):
    """The succ facts of the decreasing chain root -> max -> ... -> min.
    (oracle.chain_is_total_order checks the same chain but is quadratic in n,
    which at n = 50000 costs more than the solve.)"""
    chain = ["root"] + sorted((v for (v,) in edb["d"]), reverse=True)
    return {("root", "root"), *zip(chain, chain[1:])}


def _sort_check(model, expected, n) -> str | None:
    pairs = model.get("succ", [])
    if len(pairs) != len(expected) or set(pairs) != expected:
        return "succ is not the decreasing chain through the whole domain"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    program: str  # key of gdlog.corpus.PROGRAMS
    factorize: bool
    ladder: tuple[int, ...]  # doubling sizes; the last is the timed size
    make_edb: Callable[[int, int], dict[str, list[tuple]]]
    expected: Callable  # (edb, n) -> reference answer, computed before timing
    check: Callable  # (model, expected, n) -> error message or None
    why: str
    loads: tuple[str, ...]
    bypasses: tuple[str, ...]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dijkstra-sparse",
            "dijkstra",
            False,
            (250, 500, 1000, 2000),
            _dijkstra_edb,
            _dijkstra_expected,
            _dijkstra_check,
            "join probes are ~98% of work and work grows ~n^2 (ROADMAP item 1): "
            "the evaluator workload for join-order and compiled-plan changes",
            ("lang", "analysis", "engine.load", "engine.evaluator", "engine.selection_loop",
             "storage.relation", "storage.theta(heap)", "storage.chosen", "tsvio", "output"),
            ("engine.factorized_loop",),
        ),
        Workload(
            "matching-bipartite",
            "matching",
            False,
            (15, 30, 60, 120),
            _matching_edb,
            _matching_expected,
            _matching_check,
            "pure choice on complete K(n,n): lex scans in ThetaTable.select_extreme, purges and "
            "chosen-table conflict checks dominate; theta used as a set with deletes",
            ("lang", "analysis", "engine.load", "engine.evaluator", "engine.selection_loop",
             "storage.relation", "storage.theta(set)", "storage.chosen", "tsvio", "output"),
            ("engine.factorized_loop", "storage.heap"),
        ),
        Workload(
            "sort-factorized",
            "sort",
            True,
            (6250, 12500, 25000, 50000),
            _sort_edb,
            _sort_expected,
            _sort_check,
            "sort --factorize bypasses the evaluator (no join probes): factorized loop, heap and "
            "Relation.insert, with a large model to serialise",
            ("lang", "analysis", "engine.load", "engine.factorized_loop", "storage.relation",
             "storage.heap", "storage.chosen", "tsvio", "output"),
            ("engine.evaluator", "engine.selection_loop", "storage.theta"),
        ),
    )
}


# Which end-to-end metric each per-layer metric should move, and where.
LAYER_METRIC_MAP: dict[str, dict[str, object]] = {
    "tsvio.read_facts_s": {"moves": ["setup_s"], "on": ["all"]},
    "lang.parse_s": {"moves": ["setup_s"], "on": ["all"]},
    "engine.solve_s": {"moves": ["total_s"], "on": ["all"]},
    "output.model_lines_s": {"moves": ["total_s"], "on": ["sort-factorized"]},
    "engine.work": {"moves": ["work", "work_slope"], "on": ["all"]},
    "engine.join_probes": {"moves": ["work", "work_slope", "total_s"], "on": ["dijkstra-sparse"]},
    "engine.probe_yield": {"moves": ["work", "work_slope", "total_s"], "on": ["dijkstra-sparse"]},
    "storage.theta_yield": {"moves": ["work", "total_s"], "on": ["matching-bipartite"]},
    "engine.ns_per_work": {"moves": ["total_s"], "on": ["all"],
                           "note": "diagnostic: a change that cuts work legitimately raises it"},
    "engine.eval_self_s": {"moves": ["total_s"], "on": ["dijkstra-sparse"]},
    "storage.relation.insert_s": {"moves": ["total_s"], "on": ["matching-bipartite", "sort-factorized"],
                                  "note": "EDB load happens inside the solve, not in setup_s"},
    "storage.relation.lookup_s": {"moves": ["total_s"], "on": ["dijkstra-sparse", "matching-bipartite"]},
    "storage.theta.insert_s": {"moves": ["total_s"], "on": ["matching-bipartite"]},
    "storage.theta.select_s": {"moves": ["total_s"], "on": ["matching-bipartite"]},
    "storage.theta.purge_s": {"moves": ["total_s"], "on": ["matching-bipartite"]},
    "storage.chosen.conflicts_s": {"moves": ["total_s"], "on": ["matching-bipartite"]},
    "storage.pq_ops": {"moves": ["work", "total_s"], "on": ["sort-factorized", "dijkstra-sparse"]},
    "trace.overhead": {"moves": [], "on": ["all"], "note": "traced total_s over untraced total_s"},
}

KNOWN_DEFECTS = {
    "dijkstra-sparse": "work grows ~n^2 (work_slope ~2, not ~1 for e log n): the delta plan of "
    "the rewritten rule scans dj with no bound column every iteration (ROADMAP item 1)",
}
