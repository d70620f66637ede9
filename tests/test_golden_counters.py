"""Models and operation counters of the corpus matrix, pinned.

Each run of the matrix (every corpus program on two `bench.build_edb`
instances, under lex, fifo and random(7) ties, pq auto and off, mode auto
and choice, and with and without factorize for sort and sequence) has its
model's SHA-256, its --trace rows' SHA-256 and its eleven counters recorded in
golden_counters.json.  A storage or engine change that moves any of them
shows here, whichever program, knob or tie policy it touches.  Every run
also checks the declared FDs on each chosen table of its model, the
factorized chain's included.

The matrix instances (n <= 32) never build a deep heap, so three lex,
pq=auto runs at the top rungs of perfbench's ladders are pinned as well:
sort --factorize on 50,000 values, matching on K(120,120) and dijkstra on
a directed sparse graph with 2,000 nodes and 8,000 arcs.

To record the file again after a change that means to move a counter:

    PYTHONPATH=src python3 tests/test_golden_counters.py
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from gdlog import bench, corpus
from gdlog.corpus import PROGRAMS, get_program
from gdlog.engine import run_with_counters
from oracle_helpers import assert_fds_hold

GOLDEN_PATH = Path(__file__).with_name("golden_counters.json")
COUNTERS = (
    "iterations",
    "firings",
    "derived",
    "join_probes",
    "theta_inserts",
    "theta_deletes",
    "pq_ops",
    "conflict_checks",
    "emissions",
    "scan_steps",
    "work",
)
INSTANCES = ((16, 3), (32, 1))  # (n, seed) of bench.build_edb
TIES = {"lex": dict(ties="lex"), "fifo": dict(ties="fifo"), "random7": dict(ties="random", seed=7)}
# run id -> its EDB, for the deep-heap runs outside the matrix
DEEP_RUNS = {
    "sort/domain50000s0/lex/pq-auto/auto/factorize": lambda: corpus.domain_facts(50000, seed=0),
    "matching/bipartite120x120s0/lex/pq-auto/auto": lambda: corpus.bipartite_graph(120, 120, seed=0),
    "dijkstra/sparse2000x8000s0/lex/pq-auto/auto": lambda: corpus.sparse_connected_graph(
        2000, 8000, seed=0, directed=True
    ),
}


def run_ids() -> list[str]:
    ids = []
    for name in sorted(PROGRAMS):
        for n, seed in INSTANCES:
            for ties in TIES:
                for pq in ("auto", "off"):
                    for mode in ("auto", "choice"):
                        for fac in (False, True) if name in ("sort", "sequence") else (False,):
                            ids.append(f"{name}/n{n}s{seed}/{ties}/pq-{pq}/{mode}" + ("/factorize" * fac))
    return ids


def measure(run_id: str) -> dict:
    name, inst, ties, pq, mode, *fac = run_id.split("/")
    if run_id in DEEP_RUNS:
        edb = DEEP_RUNS[run_id]()
    else:
        n, seed = map(int, inst[1:].split("s"))
        edb = bench.build_edb(bench.BenchSpec(example=name, sizes=(n,)), n, seed)
    trace = io.StringIO()
    model, c = run_with_counters(
        get_program(name), edb=edb, pq=pq[3:], mode=mode, factorize=bool(fac), trace=trace, **TIES[ties]
    )
    assert_fds_hold(get_program(name), model.as_sets())
    text = "".join(line + "\n" for line in model.sorted_lines())
    return {
        "model_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "trace_sha256": hashlib.sha256(trace.getvalue().encode()).hexdigest(),
        **{k: getattr(c, k) for k in COUNTERS},
    }


def _golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as f:
        return json.load(f)


def test_golden_file_covers_the_matrix():
    assert sorted(_golden()) == sorted(run_ids() + list(DEEP_RUNS))
    assert len(run_ids()) == 312


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_models_and_counters_match_the_golden_record(name):
    golden = _golden()
    for run_id in run_ids():
        if run_id.startswith(name + "/"):
            assert measure(run_id) == golden[run_id], run_id


@pytest.mark.parametrize("run_id", sorted(DEEP_RUNS))
def test_deep_heap_runs_match_the_golden_record(run_id):
    assert measure(run_id) == _golden()[run_id]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as f:
        json.dump({rid: measure(rid) for rid in run_ids() + list(DEEP_RUNS)}, f, indent=1, sort_keys=True)
        f.write("\n")
