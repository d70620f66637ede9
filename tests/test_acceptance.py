"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here; run with `pytest -s
tests/test_acceptance.py` to see the lines as they complete."""

import random
import time

import pytest

from gdlog.analysis import choice_info, foe_transform
from gdlog.bench import BenchSpec, run_bench
from gdlog.corpus import (
    TOY_TRIANGLE,
    complete_graph,
    domain_facts,
    get_program,
    sparse_connected_graph,
)
from gdlog.engine import Engine, run_with_counters
from gdlog.oracle import (
    check_stable_model,
    enumerate_choice_models,
    ground,
    ref_dijkstra,
    run_lico_reference,
)
from corpus_helpers import example_edb
from oracle_helpers import ref_mst_weight

CORPUS = [
    "advisor",
    "sequence",
    "matching",
    "spantree",
    "reach",
    "simplepath",
    "optmatching",
    "prim",
    "dijkstra",
    "sort",
    "tsp",
]
GREEDY = {"optmatching", "prim", "dijkstra", "sort", "tsp"}

# sizes whose ground chosen-candidate count stays <= 12 for every seed
SMALL_SIZE = {
    "advisor": 3,
    "sequence": 3,
    "matching": 5,
    "spantree": 4,
    "reach": 4,
    "simplepath": 3,
    "optmatching": 5,
    "prim": 4,
    "dijkstra": 4,
    "sort": 3,
    "tsp": 3,
}


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    assert ok, f"{criterion}: {detail}"


def _choice(prog, ties="lex", **kw):
    """The plain choice fixpoint, choice rules in program order."""
    return run_with_counters(prog, mode="choice", ties=ties, **kw)[0]


def _greedy(prog, **kw):
    return run_with_counters(prog, mode="greedy", ties="lex", **kw)[0]


def _run_engine(name, edb, seed=None):
    prog = get_program(name)
    if name in GREEDY:
        return _greedy(prog, edb=edb)
    return _choice(prog, ties="random" if seed is not None else "lex", seed=seed, edb=edb)


def test_01_spanning_tree_enumeration():
    t0 = time.perf_counter()
    models = enumerate_choice_models(get_program("spantree"), TOY_TRIANGLE)
    elapsed = time.perf_counter() - t0
    sts = {frozenset(m["st"] - {("root", "a", 0)}) for m in models}
    expected = {
        frozenset({("a", "b", 1), ("b", "c", 2)}),
        frozenset({("a", "b", 1), ("a", "c", 3)}),
        frozenset({("a", "c", 3), ("c", "b", 2)}),
    }
    report(
        "01 three-model enumeration",
        sts == expected and len(models) == 3 and elapsed < 1.0,
        f"{len(models)} models in {elapsed:.3f}s",
    )


def test_02_engine_models_are_stable():
    t0 = time.perf_counter()
    checked = 0
    failures = []
    seeds_per_program = 46  # 11 programs x 46 seeds = 506 instances
    for seed in range(seeds_per_program):
        for name in CORPUS:
            prog = get_program(name)
            edb = example_edb(name, SMALL_SIZE[name], seed=seed)
            foe = foe_transform(prog)
            g = ground(foe, edb)
            assert g.candidate_count() <= 12, (name, seed, g.candidate_count())
            interp = _run_engine(name, edb, seed=seed)
            atoms = {(pred, t) for pred, ts in interp.as_sets().items() for t in ts}
            res = check_stable_model(g, atoms)
            checked += 1
            if not res.is_stable:
                failures.append((name, seed))
    elapsed = time.perf_counter() - t0
    report(
        "02 stability on random instances",
        checked >= 500 and not failures and elapsed < 120,
        f"{checked} instances, {len(failures)} failures, {elapsed:.1f}s",
    )


def _fd_violations(prog, interp) -> int:
    bad = 0
    for r in prog.rules:
        if not r.choice_goals:
            continue
        info = choice_info(r)
        rows = interp.rel(info.chosen_pred).rows
        for fd in info.fds:
            seen = {}
            for t in rows:
                key = tuple(t[i] for i in fd.left)
                val = tuple(t[i] for i in fd.right)
                if seen.setdefault(key, val) != val:
                    bad += 1
    return bad


def test_03_fd_property_randomized_runs():
    t0 = time.perf_counter()
    runs = 0
    violations = 0
    rng = random.Random(99)
    while runs < 10_000:
        name = CORPUS[runs % len(CORPUS)]
        prog = get_program(name)
        n = rng.choice([3, 4])
        edb = example_edb(name, n, seed=rng.randrange(10**6))
        if name in GREEDY and runs % 2 == 0:
            interp = _greedy(prog, edb=edb)
        else:
            interp = _choice(prog, ties="random", seed=rng.randrange(10**6), edb=edb)
        violations += _fd_violations(prog, interp)
        runs += 1
    elapsed = time.perf_counter() - t0
    report(
        "03 FD property",
        runs >= 10_000 and violations == 0,
        f"{runs} runs, {violations} violations, {elapsed:.1f}s",
    )


def test_04_dijkstra_equivalence():
    mismatches = 0
    rng = random.Random(4)
    for i in range(100):
        n = rng.randint(20, 200)
        edb = sparse_connected_graph(n, 4 * n, cost_max=1000, seed=1000 + i, directed=True)
        interp = _greedy(get_program("dijkstra"), edb=edb)
        got = {y: c for y, c in interp.rel("dj").rows}
        want = ref_dijkstra(edb["g"], "a")
        if got != want:
            mismatches += 1
    report("04 dijkstra equivalence", mismatches == 0, f"100 digraphs, {mismatches} mismatches")


def test_05_prim_equivalence():
    mismatches = 0
    rng = random.Random(5)
    for i in range(100):
        n = rng.randint(20, 200)
        edb = sparse_connected_graph(n, 3 * n, cost_max=1000, seed=2000 + i)
        interp = _greedy(get_program("prim"), edb=edb)
        st = [t for t in interp.rel("st").rows if t[0] != "root"]
        weight = sum(c for _, _, c in st)
        undirected = {tuple(sorted((u, v))) + (c,) for u, v, c in edb["g"]}
        if weight != ref_mst_weight(sorted(undirected)):
            mismatches += 1
    report("05 prim equivalence", mismatches == 0, f"100 graphs, {mismatches} mismatches")


def test_06_sorting_chains():
    ok = True
    detail = []
    for n in (10, 100, 1000):
        edb = domain_facts(n, seed=n)
        plain = _greedy(get_program("sort"), edb=edb)
        eng = Engine(get_program("sort"), edb=edb, ties="lex", factorize=True)
        fact = eng.run()
        applied = bool(eng.factorized_strata)
        succ = [t for t in plain.rel("succ").rows if t != ("root", "root")]
        values = sorted((v for (v,) in edb["d"]), reverse=True)
        # strictly decreasing chain covering every element
        nxt = dict(t for t in succ)
        chain = []
        cur = "root"
        while cur in nxt:
            cur = nxt[cur]
            chain.append(cur)
        chain_ok = chain == values
        if not (applied and chain_ok and plain.as_sets() == fact.as_sets()):
            ok = False
        detail.append(f"n={n} chain_ok={chain_ok} factorized_agrees={plain.as_sets() == fact.as_sets()}")
    report("06 sorting", ok, "; ".join(detail))


def _ladder(spec: BenchSpec, budget_s: float = 60.0):
    t0 = time.perf_counter()
    rep = run_bench(spec)
    elapsed = time.perf_counter() - t0
    ok = rep.passed() and all(c.verdict == "PASS" for c in rep.checks) and elapsed < budget_s
    details = "; ".join(f"{c.name} {c.verdict} ({c.detail})" for c in rep.checks)
    return ok, f"{details}; {elapsed:.1f}s"


def test_07a_prim_pq_off_quadratic():
    ok, detail = _ladder(BenchSpec("prim", (32, 64, 128, 256), family="complete", pq="off", reps=5))
    report("07a prim pq=off n^2", ok, detail)


def test_07b_dijkstra_pq_off_quadratic():
    ok, detail = _ladder(
        BenchSpec("dijkstra", (32, 64, 128, 256), family="complete", pq="off", reps=5)
    )
    report("07b dijkstra pq=off n^2", ok, detail)


def test_07c_prim_pq_on_elogn_budget():
    ok, detail = _ladder(
        BenchSpec("prim", (64, 128, 256, 512), family="sparse-connected", pq="auto", reps=5)
    )
    report("07c prim pq=auto e*log n budget", ok, detail)


def test_07d_dijkstra_pq_on_elogn_budget():
    ok, detail = _ladder(
        BenchSpec("dijkstra", (64, 128, 256, 512), family="sparse-connected", pq="auto", reps=5)
    )
    report("07d dijkstra pq=auto e*log n budget", ok, detail)


@pytest.mark.parametrize(
    "ties, sizes",
    [
        pytest.param("fifo", (16, 32, 64, 128), id="fifo"),
        # lex up to K(128,128), where a linear scan per selection shows as
        # slope ~1.36
        pytest.param("lex", (32, 64, 128, 256), id="lex"),
    ],
)
def test_07e_matching_linear_in_e(ties, sizes):
    ok, detail = _ladder(BenchSpec("matching", sizes, family="bipartite", ties=ties, reps=5))
    report(f"07e matching linear in e, {ties} ties", ok, detail)


def test_07f_sort_factorized_nlogn():
    ok, detail = _ladder(
        BenchSpec("sort", (128, 256, 512, 1024), family="domain", pq="auto", factorize=True, reps=5)
    )
    report("07f sort factorized n log n", ok, detail)


def test_07g_sequence_factorized_linear():
    ok, detail = _ladder(
        BenchSpec("sequence", (128, 256, 512, 1024), family="domain", factorize=True, reps=5)
    )
    report("07g sequence factorized linear", ok, detail)


def test_08_greedy_tsp_sanity():
    hamiltonian_ok = True
    for n in (12, 25, 50, 100):
        edb = complete_graph(n, cost_max=1000, seed=800 + n)
        interp = _greedy(get_program("tsp"), edb=edb)
        spath = interp.rel("spath").rows
        start = [y for x, y, _ in spath if x == "root"]
        hops = dict((x, y) for x, y, _ in spath if x != "root")
        visited = []
        cur = start[0] if len(start) == 1 else None
        while cur is not None and cur not in visited:
            visited.append(cur)
            cur = hops.get(cur)
        nodes = [t[0] for t in edb["node"]]
        if not (len(start) == 1 and cur is None and sorted(visited) == sorted(nodes)):
            hamiltonian_ok = False
    ok_slope, detail = _ladder(BenchSpec("tsp", (12, 25, 50, 100), family="complete", reps=5))
    report(
        "08 greedy tsp",
        hamiltonian_ok and ok_slope,
        f"hamiltonian={hamiltonian_ok}; {detail}",
    )


def test_09_engine_lico_agreement():
    disagreements = []
    for name in CORPUS:
        prog = get_program(name)
        for seed in range(3):
            edb = example_edb(name, min(8, max(3, SMALL_SIZE[name] + 2)), seed=seed)
            if name in GREEDY:
                a = _greedy(prog, edb=edb)
                b = run_lico_reference(prog, "least", edb=edb, ties="lex")
            else:
                a = _choice(prog, edb=edb)
                b = run_lico_reference(prog, "lazy", edb=edb, ties="lex")
            if a.as_sets() != b:
                disagreements.append((name, seed))
    report(
        "09 engine/LICO agreement",
        not disagreements,
        f"11 programs x 3 seeds, disagreements: {disagreements}",
    )
