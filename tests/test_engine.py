import ast
import cProfile
import hashlib
import inspect
import io
import pstats
import random
import sys
import types
from pathlib import Path

import pytest

from gdlog.corpus import (
    PROGRAMS,
    complete_graph,
    domain_facts,
    get_program,
    sparse_connected_graph,
)
from gdlog.engine import (
    Counters,
    Engine,
    EngineError,
    run_with_counters,
    _bound_first_order,
    _rewritten_goals,
)
from gdlog import bench, engine, storage, tsvio
from gdlog.lang import MAX_INT, MIN_INT, Atom, Program, Rule, Var, _Parser, format_goal, parse_program
from gdlog.analysis import choice_info, foe_transform
from gdlog.oracle import chain_is_total_order, check_stable_model, ground, ref_dijkstra, run_lico_reference
from gdlog.storage import StorageError
from corpus_helpers import ADVISOR_TOY, TOY_TRIANGLE, acyclic_digraph, example_edb
from oracle_helpers import assert_fds_hold, ref_mst_weight

EXIT_RULE = Rule(Atom("st", ("root", "a", 0)), (), ())


def _model(interp):
    return interp.as_sets()


def _choice(program, ties="lex", **kw):
    """The plain choice fixpoint, choice rules in program order."""
    return run_with_counters(program, mode="choice", ties=ties, **kw)[0]


def _greedy(program, ties="lex", **kw):
    return run_with_counters(program, mode="greedy", ties=ties, **kw)[0]


# immediate consequences and closure, through run_with_counters -------------


def test_immediate_consequence_exit_rule_on_empty():
    m, c = run_with_counters(Program((EXIT_RULE,), ()))
    assert m.as_sets() == {"st": frozenset({("root", "a", 0)})}
    assert (c.firings, c.derived) == (1, 1)


def test_immediate_consequence_empty_delta():
    # three rule instances fire, each once: e(a,b) and e(b,c) give t(a,b)
    # and t(b,c), which give t(a,c); the last delta, t(a,c), has no e
    # successor and fires nothing
    prog = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z). e(a,b). e(b,c).")
    m, c = run_with_counters(prog)
    assert m.as_sets()["t"] == {("a", "b"), ("b", "c"), ("a", "c")}
    assert (c.firings, c.derived) == (3, 3)


def test_immediate_consequence_excludes_known_tuples():
    prog = parse_program("t(X,Y) :- e(X,Y). e(a,b). t(a,b).")
    m, c = run_with_counters(prog)
    assert m.relations["t"].rows == [("a", "b")]
    assert (c.firings, c.derived) == (1, 0)


def test_naive_and_seminaive_transitive_closure_agree():
    # random DAG, 100 nodes: the engine's semi-naive closure equals the
    # reference operator's naive one
    rng = random.Random(5)
    arcs = set()
    for _ in range(250):
        u, v = sorted(rng.sample(range(100), 2))
        arcs.add((f"v{u}", f"v{v}"))
    prog = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z).")
    edb = {"e": sorted(arcs)}
    seminaive, _ = run_with_counters(prog, edb=edb)
    assert seminaive.as_sets() == run_lico_reference(prog, edb=edb)


def test_closure_is_identity_without_rules():
    m, c = run_with_counters(parse_program("p(a)."))
    assert m.relations["p"].rows == [("a",)]
    assert (c.firings, c.derived, c.work) == (0, 0, 0)


def test_closure_after_choice_delta_is_trivial_step():
    # spanning tree: each iteration adds its chosen tuple, and closing around
    # it adds exactly the matching st tuple, so the trace's size column grows
    # by 2 per iteration
    buf = io.StringIO()
    m, c = run_with_counters(get_program("spantree"), edb=TOY_TRIANGLE, trace=buf)
    sizes = [int(line.split("\t")[5]) for line in buf.getvalue().splitlines()]
    start = len(TOY_TRIANGLE["g"]) + 1  # g and st(root, a, 0)
    assert c.iterations == 2
    assert sizes == [start + 1, start + 3]
    assert sum(len(r) for r in m.relations.values()) == start + 4


# choice fixpoint -------------------------------------------------------------


def test_advisor_picks_exactly_one():
    m = _choice(get_program("advisor"), edb=ADVISOR_TOY)
    adv = m.relations["actual_adv"].rows
    assert len(adv) == 1
    assert adv[0] in [("Jim Black", "ohm"), ("Jim Black", "bell")]


def test_spantree_toy_gives_one_of_three_models():
    expected = [
        {("a", "b", 1), ("b", "c", 2)},
        {("a", "b", 1), ("a", "c", 3)},
        {("a", "c", 3), ("c", "b", 2)},
    ]
    seen = set()
    for seed in range(12):
        m = _choice(get_program("spantree"), ties="random", seed=seed, edb=TOY_TRIANGLE)
        st = set(m.relations["st"].rows) - {("root", "a", 0)}
        assert st in expected
        seen.add(frozenset(st))
    assert len(seen) >= 2  # different seeds do explore different models


def test_sequence_chain_is_permutation():
    edb = {"d": [(f"e{i}",) for i in range(1, 6)]}
    m = _choice(get_program("sequence"), ties="random", seed=3, edb=edb)
    succ = m.relations["succ"].rows
    assert chain_is_total_order(succ, [f"e{i}" for i in range(1, 6)])


def test_determinism_for_fixed_seed():
    edb = example_edb("spantree", 6, seed=9)
    runs = [
        _choice(get_program("spantree"), ties="random", seed=4, edb=edb)
        for _ in range(2)
    ]
    assert _model(runs[0]) == _model(runs[1])


def test_exit_choice_rule_executes_once():
    # matching: the single non-recursive choice rule fills theta once; the
    # model is a valid matching
    edb = {"g": [("u1", "v1", 1), ("u1", "v2", 2), ("u2", "v1", 3), ("u2", "v2", 4)]}
    m = _choice(get_program("matching"), edb=edb)
    pairs = m.relations["matching"].rows
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    assert len(set(xs)) == len(xs) and len(set(ys)) == len(ys)
    assert len(pairs) == 2  # maximal here: both sides can be matched


# greedy fixpoint -------------------------------------------------------------


def test_greedy_requires_extreme_rule():
    with pytest.raises(EngineError):
        _greedy(get_program("sequence"), edb={"d": [("x",)]})


def test_dijkstra_small_graph():
    edb = {"g": [("a", "b", 1), ("b", "c", 2), ("a", "c", 5)]}
    m = _greedy(get_program("dijkstra"), edb=edb)
    assert sorted(m.relations["dj"].rows) == [("a", 0), ("b", 1), ("c", 3)]


def test_dijkstra_matches_reference_on_cyclic_graph():
    edb = sparse_connected_graph(60, 240, cost_max=50, seed=11, directed=True)
    m = _greedy(get_program("dijkstra"), edb=edb)
    assert {y: c for y, c in m.relations["dj"].rows} == ref_dijkstra(edb["g"], "a")


def test_prim_toy_graph_is_min_spanning_tree():
    m = _greedy(get_program("prim"), edb=TOY_TRIANGLE)
    st = set(m.relations["st"].rows) - {("root", "a", 0)}
    assert st == {("a", "b", 1), ("b", "c", 2)}
    assert sum(c for _, _, c in st) == 3 == ref_mst_weight(
        [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)]
    )


def test_sort_decreasing_chain():
    m = _greedy(get_program("sort"), edb={"d": [(3,), (1,), (2,)]})
    succ = [t for t in m.relations["succ"].rows if t != ("root", "root")]
    assert set(succ) == {("root", 3), (3, 2), (2, 1)}


def test_greedy_pq_on_off_same_model():
    for name in ("prim", "dijkstra", "optmatching", "sort", "tsp"):
        edb = example_edb(name, 7, seed=2)
        a = _greedy(get_program(name), edb=edb, pq="auto")
        b = _greedy(get_program(name), edb=edb, pq="off")
        assert _model(a) == _model(b), name


def test_tsp_path_is_hamiltonian():
    edb = complete_graph(8, cost_max=30, seed=13)
    m = _greedy(get_program("tsp"), edb=edb)
    spath = m.relations["spath"].rows
    start = [y for x, y, _ in spath if x == "root"]
    assert len(start) == 1
    hops = [(x, y) for x, y, _ in spath if x != "root"]
    nodes = [t[0] for t in edb["node"]]
    visited = [start[0]]
    cur = start[0]
    nxt = dict(hops)
    assert len(nxt) == len(hops)
    while cur in nxt:
        cur = nxt[cur]
        assert cur not in visited
        visited.append(cur)
    assert sorted(visited) == sorted(nodes)


# reference operator ----------------------------------------------------------


def test_lico_lazy_satisfies_fds():
    for name in ("spantree", "sequence", "matching"):
        edb = example_edb(name, 5, seed=1)
        m = run_lico_reference(get_program(name), "lazy", edb=edb)
        assert_fds_hold(get_program(name), m)


def test_lico_least_equals_greedy_on_small_graphs():
    for seed in range(4):
        edb = acyclic_digraph(7, 14, cost_max=40, seed=seed)
        a = _greedy(get_program("dijkstra"), edb=edb)
        b = run_lico_reference(get_program("dijkstra"), "least", edb=edb)
        assert _model(a) == b


def test_lico_no_choice_rules_gives_minimal_model():
    prog = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z). e(a,b). e(b,c).")
    m = run_lico_reference(prog, "lazy")
    assert m["t"] == {("a", "b"), ("b", "c"), ("a", "c")}


# factorized evaluation -------------------------------------------------------


@pytest.mark.parametrize("pq", ["auto", "off"])
@pytest.mark.parametrize("ties", ["lex", "fifo"])
def test_factorized_sort_agrees_with_plain_engine(ties, pq):
    edb = domain_facts(50, seed=21)
    a = _greedy(get_program("sort"), edb=edb, pq=pq)
    eng = Engine(get_program("sort"), edb=edb, ties=ties, pq=pq, factorize=True)
    b = eng.run()
    assert eng.factorized_strata
    assert _model(a) == _model(b)


@pytest.mark.parametrize("pq", ["auto", "off"])
@pytest.mark.parametrize("kind", ["choice_least", "choice_most"])
def test_factorized_sort_on_extreme_costs_agrees_with_plain_engine(kind, pq):
    # the domain table keys each value by its signed cost: the integer
    # extremes, zero, and a value beside its negation
    prog = parse_program(PROGRAMS["sort"].replace("choice_most", kind))
    values = [5, MAX_INT, 0, MIN_INT, -5]
    edb = {"d": [(v,) for v in values]}
    a = _greedy(prog, edb=edb, pq=pq)
    eng = Engine(prog, edb=edb, ties="lex", pq=pq, factorize=True)
    b = eng.run()
    assert eng.factorized_strata
    assert _model(a) == _model(b)
    chain = sorted(values, reverse=kind == "choice_most")
    assert b.as_sets()["succ"] == {("root", chain[0]), *zip(chain, chain[1:]), ("root", "root")}


@pytest.mark.parametrize("pq", ["auto", "off"])
@pytest.mark.parametrize("ties, seed", [("lex", None), ("fifo", None), ("random", 7)])
@pytest.mark.parametrize("name", ["sort", "sequence"])
def test_factorized_chain_keeps_both_fds(name, ties, seed, pq):
    # the factorized step writes chosen_r without a ChosenTable, so nothing
    # checks the FDs X -> Y and Y -> X as it runs; the model must keep both
    edb = domain_facts(200, seed=31)
    prog = get_program(name)
    eng = Engine(prog, edb=edb, ties=ties, seed=seed, pq=pq, factorize=True)
    interp = eng.run()
    assert eng.factorized_strata
    model = interp.as_sets()
    assert_fds_hold(prog, model)
    (rule,) = [r for r in prog.rules if r.choice_goals]
    ys = [y for _, y in model[choice_info(rule).chosen_pred]]
    assert sorted(ys) == sorted(v for (v,) in edb["d"])


@pytest.mark.parametrize("pq", ["auto", "off"])
@pytest.mark.parametrize("ties", ["lex", "fifo"])
@pytest.mark.parametrize("name", ["sort", "sequence"])
def test_factorized_trace_rows_match_the_generic_loop(name, ties, pq):
    # both loops commit a selection the same way, so their trace rows agree
    # on iteration, rule, chosen tuple and model size; theta size and purged
    # differ, since the factorized table holds only domain values
    edb = domain_facts(40, seed=3)
    rows = []
    for factorize in (False, True):
        trace = io.StringIO()
        eng = Engine(get_program(name), edb=edb, ties=ties, pq=pq, factorize=factorize, trace=trace)
        eng.run()
        assert bool(eng.factorized_strata) == factorize
        cells = [line.split("\t") for line in trace.getvalue().splitlines()]
        rows.append([(it, rule, chosen, size) for it, rule, _, chosen, _, size in cells])
    assert len(rows[0]) == 40
    assert rows[0] == rows[1]


def test_factorized_sequence_linear_candidate_work():
    edb = domain_facts(200, seed=2)
    _, counters = run_with_counters(
        get_program("sequence"), edb=edb, factorize=True, ties="fifo"
    )
    assert counters.theta_inserts == 200


def test_unfactorized_lex_sequence_keeps_fresh_candidates_off_the_heap():
    # each iteration derives (x, y) for every remaining y, selects the least
    # and purges the rest by the FD X -> Y before any of them is pushed
    n = 300
    _, c = run_with_counters(get_program("sequence"), edb=domain_facts(n, seed=3), ties="lex")
    assert c.iterations == n
    assert c.pq_ops <= 2 * n


def test_greedy_trace_counts_every_purged_candidate():
    # row i of greedy sort selects one of the n - i + 1 candidates derived
    # from its frontier and purges the other n - i, fresh ones included
    n = 16
    buf = io.StringIO()
    run_with_counters(get_program("sort"), edb=domain_facts(n, seed=3), trace=buf)
    rows = [line.split("\t") for line in buf.getvalue().splitlines()]
    assert [int(r[0]) for r in rows] == list(range(1, n + 1))
    assert [int(r[4]) for r in rows] == [n - i for i in range(1, n + 1)]


def test_factorized_prim_not_applicable():
    eng = Engine(get_program("prim"), edb=TOY_TRIANGLE, ties="lex", factorize=True)
    m = eng.run()
    assert not eng.factorized_strata
    st = set(m.relations["st"].rows) - {("root", "a", 0)}
    assert sum(c for _, _, c in st) == 3  # fallback still computes the MST


@pytest.mark.parametrize("ties", ["lex", "fifo"])
def test_factorized_sequence_agrees_with_plain_engine(ties):
    edb = domain_facts(30, seed=5)
    a = _choice(get_program("sequence"), ties=ties, edb=edb)
    eng = Engine(get_program("sequence"), edb=edb, ties=ties, factorize=True)
    b = eng.run()
    assert eng.factorized_strata
    assert _model(a) == _model(b)


@pytest.mark.parametrize(
    "facts, edb",
    [
        ("d(root). d(zz).", None),  # the chain could return to its start
        ("d(root).", None),
        ("d(1). d(2).", {"succ": [("b", 1)]}),  # a second head fact
    ],
)
def test_factorize_keeps_the_generic_loop_unless_the_chain_is_fresh(facts, edb):
    prog = parse_program(facts + "\n" + PROGRAMS["sequence"])
    eng = Engine(prog, edb=edb, ties="lex", factorize=True)
    assert _model(eng.run()) == _model(_choice(prog, edb=edb))
    assert not eng.factorized_strata


# Programs of the sequence shape that _factorize_pattern rejects for one
# reason each, with the facts they run on
FACTORIZE_REJECTED = [
    (
        "succ(root, root).\n"
        "succ(X, Y) :- succ(_, X), d(Y), Y > 20, choice((X), (Y)), choice((Y), (X)).\n",
        {"d": [(v,) for v in (5, 31, 77, 24, 12)]},
    ),
    (
        "prev(root, root).\nsucc(root, root).\n"
        "succ(X, Y) :- prev(_, X), d(Y), choice((X), (Y)), choice((Y), (X)).\n",
        {"d": [(v,) for v in (5, 31, 77)]},
    ),
    (
        "d(Y) :- e(Y).\nsucc(root, root).\n"
        "succ(X, Y) :- succ(_, X), d(Y), choice((X), (Y)), choice((Y), (X)).\n",
        {"e": [(v,) for v in (5, 31, 77)]},
    ),
]


@pytest.mark.parametrize(
    "src, edb", FACTORIZE_REJECTED, ids=["third-body-goal", "chain-over-another-predicate", "derived-domain"]
)
def test_factorize_rejects_other_shapes(src, edb):
    prog = parse_program(src)
    eng = Engine(prog, edb=edb, ties="lex", factorize=True)
    assert _model(eng.run()) == _model(run_with_counters(prog, edb=edb, ties="lex")[0])
    assert eng.factorized_strata == []


# the recursive atom must be exactly succ(_, X): succ(root, X) continues only
# from root and root's successor, and succ(X, _) only from values that
# already have a successor, so neither derives the chain
@pytest.mark.parametrize("ties", ["lex", "fifo"])
@pytest.mark.parametrize(
    "recursive, factorized", [("succ(_, X)", True), ("succ(root, X)", False), ("succ(X, _)", False)]
)
def test_factorize_requires_the_recursive_atom_h_any_x(recursive, factorized, ties):
    prog = parse_program(
        f"succ(root, root).\nsucc(X, Y) :- {recursive}, d(Y), choice((X), (Y)), choice((Y), (X)).\n"
    )
    edb = {"d": [(1,), (2,), (3,)]}
    eng = Engine(prog, edb=edb, ties=ties, factorize=True)
    assert _model(eng.run()) == _model(run_with_counters(prog, edb=edb, ties=ties)[0])
    assert bool(eng.factorized_strata) == factorized


def test_factorized_sort_counters():
    # n = 1000 theta inserts and deletes; the first selection takes the
    # staged best with no heap operation, the other n - 1 = 999 candidates
    # are pushed and deleted with 8,483 sift levels:
    # pq_ops = 2(n - 1) + sifts = 10,481, work = 2n + pq_ops = 12,481
    _, c = run_with_counters(
        get_program("sort"), edb=domain_facts(1000, seed=3), ties="lex", factorize=True
    )
    assert (c.pq_ops, c.work) == (10_481, 12_481)
    assert c.theta_inserts == c.theta_deletes == c.iterations == c.derived == 1000
    assert (c.join_probes, c.firings, c.conflict_checks) == (0, 0, 0)


def test_factorized_sort_non_integer_domain_is_a_storage_error():
    edb = {"d": [(3,), ("x",), (5,)]}
    for factorize in (False, True):
        with pytest.raises(StorageError, match="r1: cost argument must be an integer, got 'x'"):
            run_with_counters(get_program("sort"), edb=edb, factorize=factorize)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_lex_models_agree_with_and_without_the_queue(name):
    # under lex ties the heap and the linear scan pick the same least
    # candidate, with and without the factorized stratum
    for n, seed in ((16, 3), (64, 1)):
        edb = bench.build_edb(bench.BenchSpec(name, (n,)), n, seed)
        models = set()
        for pq in ("auto", "off"):
            for fac in (False, True):
                interp, _ = run_with_counters(
                    get_program(name), edb=edb, ties="lex", pq=pq, factorize=fac
                )
                models.add("\n".join(interp.sorted_lines()))
        assert len(models) == 1


# pushes + deletes + sift levels: dijkstra 311 + 311 + 1,389 = 2,011 (237 of
# its 548 theta inserts never reach the heap), prim 443 + 443 + 1,547 = 2,433
@pytest.mark.parametrize(
    "name, pq_ops", [("dijkstra", 2011), ("prim", 2433)], ids=["dijkstra", "prim"]
)
def test_heap_pq_ops_on_sparse_graphs(name, pq_ops):
    spec = bench.BenchSpec(name, (256,))
    _, c = run_with_counters(get_program(name), edb=bench.build_edb(spec, 256, 1), ties="lex")
    assert c.pq_ops == pq_ops


# a scan table, like a heap table, stages fresh candidates: those a greedy
# selection purges right away are never scanned
@pytest.mark.parametrize("name, work", [("sort", 12_545), ("tsp", 12_545)], ids=["sort", "tsp"])
def test_scan_work_without_the_queue(name, work):
    spec = bench.BenchSpec(name, (64,))
    _, c = run_with_counters(get_program(name), edb=bench.build_edb(spec, 64, 1), ties="lex", pq="off")
    assert c.work == work


# run settings and public entry points ----------------------------------------


def test_unknown_pq_is_an_engine_error():
    # pq takes auto or off only
    for pq in ("bogus", "on"):
        with pytest.raises(EngineError, match=f"unknown pq setting '{pq}'"):
            Engine(get_program("prim"), pq=pq)
        with pytest.raises(EngineError, match=f"unknown pq setting '{pq}'"):
            bench.run_bench(bench.BenchSpec("prim", (8, 16), reps=3, pq=pq))


def test_unknown_mode_is_an_engine_error():
    with pytest.raises(EngineError, match="unknown mode 'bogus'"):
        run_with_counters(get_program("sort"), mode="bogus", edb={"d": [(1,)]})


def test_mode_auto_is_greedy_exactly_with_least_or_most_rule():
    assert Engine(get_program("sort")).greedy
    assert not Engine(get_program("sequence")).greedy
    assert not Engine(get_program("sort"), mode="choice").greedy


PERFBENCH_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _child_solve_call():
    """The COUNTERS tuple of perfbench/child.py and the keyword names of its
    engine.run_with_counters call, read from the source without importing it."""
    tree = ast.parse(PERFBENCH_CHILD.read_text(encoding="utf-8"))
    counters, keywords = None, None
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "COUNTERS" for t in node.targets
        ):
            counters = ast.literal_eval(node.value)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "run_with_counters"
        ):
            keywords = {k.arg for k in node.keywords}
    return counters, keywords


def test_benchmark_entry_points_keep_working():
    counters_keys, keywords = _child_solve_call()
    assert counters_keys and keywords
    # run_with_counters forwards its keywords to Engine
    assert keywords <= set(inspect.signature(Engine).parameters)
    # the sort-factorized solve as the benchmark makes it, on a small domain
    # with negative integers, plus a relation whose symbols need quoting
    edb = {"d": [(5,), (-3,), (12,), (-40,)], "label": [("Jim Black",), ("x",)]}
    interp, counters = run_with_counters(
        get_program("sort"), mode="auto", pq="auto", ties="lex", edb=edb, factorize=True
    )
    lines = interp.sorted_lines()
    assert lines == tsvio.model_lines(interp.as_sets())
    assert "label\t'Jim Black'" in lines and "succ\t-3\t-40" in lines
    assert set(counters_keys) <= set(counters.as_dict())


# counters and trace ----------------------------------------------------------


def test_reach_explores_each_arc_once():
    edb = acyclic_digraph(40, 120, cost_max=9, seed=3)
    _, counters = run_with_counters(get_program("reach"), edb=edb, ties="fifo")
    # every candidate insert stems from one arc exploration
    assert counters.theta_inserts <= len(edb["g"]) + 1


def test_empty_edb_all_counters_zero():
    _, counters = run_with_counters(get_program("reach"), edb={"g": []})
    assert counters.theta_inserts == 0
    assert counters.pq_ops == 0
    assert counters.iterations == 0


def test_prim_pq_ops_bounded_by_e_log_n():
    import math

    n = 128
    edb = sparse_connected_graph(n, 4 * n, cost_max=1000, seed=17)
    _, counters = run_with_counters(get_program("prim"), edb=edb, pq="auto")
    e = len(edb["g"])
    assert counters.pq_ops <= 2 * e * math.log2(n)


def test_inflationary_growth_via_trace():
    buf = io.StringIO()
    _choice(get_program("spantree"), edb=example_edb("spantree", 8, seed=4), trace=buf)
    sizes = [int(line.split("\t")[5]) for line in buf.getvalue().splitlines()]
    assert sizes == sorted(sizes) and sizes


def test_overflow_is_a_run_error_with_rule_id():
    prog = parse_program(
        "reach(a,0).\n"
        f"big(b, {2**63 - 1}).\n"
        "reach(Y,C) :- reach(X,C1), big(Y,C2), C = C1 + C2, choice((Y),(C)).\n"
    )
    with pytest.raises(EngineError, match="r1.*overflow"):
        _choice(prog)


def test_each_stratum_choice_rule_selects_its_own_extreme():
    # a pure and a least rule with different heads, so in different strata:
    # the least rule chooses its cheapest candidate, the pure rule one of
    # its own (which rule runs first is the stratum plan's, not the mode's)
    src = (
        "pick(X) :- cand(X), choice((),(X)).\n"
        "best(X,C) :- cand2(X,C), choice_least((),(C)).\n"
    )
    edb = {"cand": [("p1",), ("p2",)], "cand2": [("q1", 5), ("q2", 1)]}
    m = _greedy(parse_program(src), edb=edb)
    assert m.relations["best"].rows == [("q2", 1)]
    assert len(m.relations["pick"].rows) == 1


def test_choice_mode_takes_rules_in_program_order():
    # two choice rules in one stratum: the plain choice fixpoint drains the
    # pure rule first, as written, the greedy one the least rule; the
    # reference operator agrees in both modes
    src = (
        "pick(X,0) :- cand(X), choice((),(X)).\n"
        "pick(X,C) :- cand2(X,C), choice_least((),(C)).\n"
    )
    edb = {"cand": [("p1",), ("p2",)], "cand2": [("q1", 5), ("q2", 1)]}
    for mode, ref_mode, first in (("choice", "lazy", "r1"), ("greedy", "least", "r2")):
        buf = io.StringIO()
        interp, _ = run_with_counters(parse_program(src), mode=mode, ties="lex", edb=edb, trace=buf)
        assert buf.getvalue().split("\t")[1] == first
        assert interp.as_sets() == run_lico_reference(parse_program(src), ref_mode, edb=edb)


# compiled plans ---------------------------------------------------------------


# The goal order _bound_first_order gives every plan of every corpus rule:
# per rule, the candidate rule (its body), and for a choice rule the
# rewritten rule if _rewritten_goals gives one (for no corpus rule: W binds
# each head variable, so the commit step writes the head); per body, the
# full plan and then one delta plan per body atom, in body order.  Pinned,
# with the indexes below, so that no change to how plans are compiled
# changes which plans run.
PLAN_ORDERS = {
    "advisor": {"r1/body": [[0, 1], [0, 1], [1, 0]]},
    "dijkstra": {"r1/body": [[0, 1, 2, 3], [0, 1, 2, 3], [1, 2, 0, 3]]},
    "matching": {"r1/body": [[0], [0]]},
    "optmatching": {"r1/body": [[0], [0]]},
    "prim": {"r1/body": [[0, 1, 2], [0, 1, 2], [1, 2, 0]]},
    "reach": {"r1/body": [[0, 1, 2, 3], [0, 1, 2, 3], [1, 2, 0, 3]]},
    "sequence": {"r1/body": [[0, 1], [0, 1], [1, 0]]},
    "simplepath": {
        "r1/body": [[0], [0]],
        "r2/body": [[2, 0, 1, 3], [0, 2, 1, 3], [1, 2, 3, 0], [2, 0, 1, 3]],
    },
    "sort": {"r1/body": [[0, 1], [0, 1], [1, 0]]},
    "spantree": {"r1/body": [[0, 1, 2, 3], [0, 1, 2, 3], [1, 2, 3, 0]]},
    "tsp": {
        "r1/body": [[0], [0]],
        "r2/body": [[2, 0, 1, 3], [0, 2, 1, 3], [1, 2, 3, 0], [2, 0, 1, 3]],
    },
}

# The index column lists each relation holds after the n=16 seed-3 benchmark
# run under lex ties: the plans create one index per distinct set of
# constant or already-bound columns they probe.  Only the full plan and the
# delta plans of atoms that can grow are compiled, so an index that only
# the delta plan of a complete relation would probe is never made.  A
# chosen_r relation also holds its theta table's index of each distinct FD
# left side, in order of first appearance, () for an empty left side.
INDEX_COLUMNS = {
    "advisor": {"actual_adv": [], "chosen_r1": [(0,)], "professor": [(1,)], "student": []},
    "dijkstra": {"chosen_r1": [(0,)], "dj": [], "g": [(0,)], "node": []},
    "matching": {"chosen_r1": [(1,), (0,)], "g": [], "matching": []},
    "optmatching": {"chosen_r1": [(1,), (0,)], "g": [], "opt_matching": []},
    "prim": {"chosen_r1": [(1,)], "g": [(0,)], "node": [], "st": []},
    "reach": {"chosen_r1": [(0,)], "g": [(0,)], "node": [], "reach": []},
    "sequence": {"chosen_r1": [(0,), (1,)], "d": [], "succ": []},
    "simplepath": {"chosen_r1": [()], "chosen_r2": [(0,), (1,)], "g": [(0,)], "node": [], "spath": [(0, 2)]},
    "sort": {"chosen_r1": [(0,), (1,)], "d": [], "succ": []},
    "spantree": {"chosen_r1": [(1,)], "g": [(0,)], "node": [], "st": []},
    "tsp": {"chosen_r1": [()], "chosen_r2": [(0,), (1,)], "g": [(0,)], "node": [], "spath": [(0, 2)]},
}


def _plan_bodies(name):
    """(key, goals) of every body the engine compiles for a corpus program."""
    prog = get_program(name)
    eng = Engine(prog)
    for r in prog.rules:
        yield f"{r.rule_id}/body", r.body
        if r.choice_goals and (goals := _rewritten_goals(r, eng.infos[r.rule_id])) is not None:
            yield f"{r.rule_id}/rewritten", goals


def _plans(goals):
    """(start, goal order) of the full plan and of each delta plan."""
    starts = [None] + [i for i, g in enumerate(goals) if isinstance(g, Atom)]
    return [(start, _bound_first_order(goals, start)) for start in starts]


def _plan_shape(goals, order):
    """Each goal of a plan in order: an atom as its predicate and the columns
    that are constant or already bound where it runs, a builtin as its text."""
    bound, shape = set(), []
    for gi in order:
        g = goals[gi]
        if isinstance(g, Atom):
            shape.append((g.pred, tuple(p for p, a in enumerate(g.args) if not isinstance(a, Var) or a in bound)))
        else:
            shape.append(format_goal(g))
        bound.update(g.vars())
    return shape


def _index_columns(name):
    """Index column lists per relation after the n=16 seed-3 benchmark run."""
    edb = bench.build_edb(bench.BenchSpec(example=name, sizes=(16,)), 16, 3)
    interp, _ = run_with_counters(get_program(name), edb=edb, ties="lex")
    return {p: list(r._indexes) for p, r in interp.relations.items()}


@pytest.mark.parametrize("name", sorted(PLAN_ORDERS))
def test_plan_goal_orders_are_pinned(name):
    bodies = dict(_plan_bodies(name))
    assert {key: [order for _, order in _plans(goals)] for key, goals in bodies.items()} == PLAN_ORDERS[name]
    for goals in bodies.values():
        for start, order in _plans(goals):
            assert start is None or order[0] == start  # the delta atom comes first
            # each builtin runs as soon as its operands are bound: no atom
            # runs while a builtin after it is ready
            bound = set()
            for k, gi in enumerate(order):
                if isinstance(goals[gi], Atom) and (k or start is None):
                    later = [goals[j] for j in order[k + 1 :] if not isinstance(goals[j], Atom)]
                    assert not any({t for t in (b.left, b.right) if isinstance(t, Var)} <= bound for b in later)
                bound.update(goals[gi].vars())


@pytest.mark.parametrize("name", sorted(INDEX_COLUMNS))
def test_index_columns_are_pinned(name):
    assert _index_columns(name) == INDEX_COLUMNS[name]


def test_dijkstra_chosen_delta_plan_is_bound_first():
    # a new dj(X, C1) row probes g by that X (column 0), then checks Y and
    # computes C; W = (Y, C) is the head, so no rewritten rule is compiled:
    # a selection writes its dj tuple and joins nothing
    bodies = dict(_plan_bodies("dijkstra"))
    goals = bodies["r1/body"]
    start, order = _plans(goals)[1]
    assert goals[start].pred == "dj"
    assert _plan_shape(goals, order) == [
        ("dj", ()),
        ("g", (0,)),
        "Y \\= a",
        "C = C1 + C2",
    ]
    assert "r1/rewritten" not in bodies
    # g is complete before the stratum starts, so its delta plan, which
    # would probe dj on column 0, is not compiled
    indexes = _index_columns("dijkstra")
    assert (0,) in indexes["g"] and (0,) not in indexes["dj"]


def _full_rewritten_goals(rule, info):
    return rule.body + (Atom(info.chosen_pred, info.w_vars),)


# what writing the head in the commit step changes: only the rewritten
# rule's joins
SAME_COUNTERS = ("iterations", "derived", "theta_inserts", "theta_deletes", "pq_ops", "conflict_checks")
FEWER_COUNTERS = ("join_probes", "firings", "work")


def test_projection_runs_as_the_full_rewritten_rule(monkeypatch):
    # the head tuple the commit step writes is the one head <- B(Z),
    # chosen_r(W) derives in the next closure pass: same models and
    # selections, and no more joins, on every corpus program under every tie
    # policy and queue
    runs = []
    for name in sorted(PROGRAMS):
        edb = bench.build_edb(bench.BenchSpec(example=name, sizes=(16,)), 16, 3)
        for ties, seed in (("lex", None), ("fifo", None), ("random", 7)):
            for pq in ("auto", "off"):
                for mode in ("auto", "choice"):
                    runs.append((name, edb, dict(ties=ties, seed=seed, pq=pq, mode=mode)))

    def run_all():
        out = []
        for name, edb, kw in runs:
            m, c = run_with_counters(get_program(name), edb=edb, **kw)
            out.append((m.sorted_lines(), c))
        return out

    projected = run_all()
    monkeypatch.setattr("gdlog.engine._rewritten_goals", _full_rewritten_goals)
    full = run_all()
    for (name, _, kw), (mp, cp), (mf, cf) in zip(runs, projected, full):
        assert mp == mf, (name, kw)
        assert [getattr(cp, f) for f in SAME_COUNTERS] == [getattr(cf, f) for f in SAME_COUNTERS], (name, kw)
        assert all(getattr(cp, f) <= getattr(cf, f) for f in FEWER_COUNTERS), (name, kw, cp, cf)
    assert sum(c.work for _, c in projected) < sum(c.work for _, c in full)


# Choice rules whose head has a variable outside W, so that chosen_r1 alone
# cannot bind it: the rewritten rule keeps B(Z), and each chosen W gives the
# head tuples of every body match.  In the second, the delta plan from a
# chosen (X, S) recomputes S = Y + Z and checks it against the bound S.
HEAD_OUTSIDE_W = [
    (
        "p(X, Z) :- q(X, Y, Z), choice((X), (Y)).\n",
        [(1, "a", 10), (1, "a", 11), (1, "b", 12), (2, "c", 20), (2, "c", 21), (2, "d", 22)],
        ("X", "Y"),
        {(1, 10), (1, 11), (2, 20), (2, 21)},
    ),
    (
        "p(X, Z, S) :- q(X, Y, Z), S = Y + Z, choice((X), (S)).\n",
        [(1, 2, 3), (1, 1, 4), (1, 0, 9), (2, 5, 5), (2, 0, 11)],
        ("X", "S"),
        {(1, 3, 5), (1, 4, 5), (2, 5, 10)},
    ),
]


@pytest.mark.parametrize("src, q, w, p", HEAD_OUTSIDE_W, ids=["two-columns", "sum"])
def test_head_variable_outside_w_keeps_the_full_body(src, q, w, p):
    prog = parse_program(src)
    edb = {"q": q}
    rule = prog.rules[0]
    goals = _rewritten_goals(rule, Engine(prog, edb=edb).infos[rule.rule_id])
    assert goals == rule.body + (Atom("chosen_r1", tuple(map(Var, w))),)
    model = run_with_counters(prog, edb=edb, ties="lex")[0].as_sets()
    assert model["p"] == p
    assert model == run_lico_reference(prog, edb=edb)
    g = ground(foe_transform(prog), edb)
    for kw in (dict(ties="lex"), dict(ties="fifo"), dict(ties="random", seed=5)):
        atoms = {(pred, t) for pred, ts in _choice(prog, edb=edb, **kw).as_sets().items() for t in ts}
        assert check_stable_model(g, atoms).is_stable, kw


@pytest.mark.parametrize("pred", ["chosen_r1", "diffchoice_r1"])
def test_database_rows_for_a_reserved_predicate_are_an_engine_error(pred):
    # chosen_r rows come only from selection; the head tuple the commit
    # step projects from each relies on it being a candidate the rule derived
    edb = {"g": [("a", "b", 5), ("b", "c", 1)], pred: [("c", 1), ("b", 99)]}
    with pytest.raises(EngineError, match=f"database predicate {pred} uses a reserved prefix"):
        Engine(get_program("dijkstra"), edb=edb)


def test_database_rows_for_a_percent_led_predicate_are_an_engine_error(tmp_path):
    # the model line "%x<TAB>a" would read back as a comment, losing the fact
    prog = parse_program("p(X) :- q(X).")
    with pytest.raises(EngineError, match="database predicate %x starts with '%'"):
        run_with_counters(prog, edb={"%x": [("a",)], "q": [("b",)]})
    # a '%' after the first character is an ordinary name character
    model, _ = run_with_counters(prog, edb={"x%": [("a",)], "q": [("b",)]})
    path = tmp_path / "model.tsv"
    path.write_text("".join(line + "\n" for line in model.sorted_lines()), encoding="utf-8")
    assert tsvio.read_model(str(path)) == model.as_sets()


def _compiled_plans(name, monkeypatch):
    """The index columns per relation after the n=16 seed-3 benchmark run,
    and (plan name, goals, start) of every plan that run compiles."""
    compiled, plan_function = [], engine._plan_function

    def recording(rule_id, plan, emit, goals, slots, start, rel):
        compiled.append((plan, goals, start))
        return plan_function(rule_id, plan, emit, goals, slots, start, rel)

    monkeypatch.setattr(engine, "_plan_function", recording)
    return _index_columns(name), compiled


@pytest.mark.parametrize("name", ["prim", "dijkstra", "reach"])
def test_delta_plans_probe_an_index_after_the_delta_atom(name, monkeypatch):
    indexes, compiled = _compiled_plans(name, monkeypatch)
    deltas = [(plan, goals, start) for plan, goals, start in compiled if start is not None]
    assert deltas
    for plan, goals, start in deltas:
        order = _bound_first_order(goals, start)
        assert order[0] == start
        atoms = [s for s in _plan_shape(goals, order)[1:] if isinstance(s, tuple)]
        assert all(cols and cols in indexes[pred] for pred, cols in atoms), (plan, order)


# The plans each corpus program compiles: the full plan of each body, and a
# delta plan only for a body atom whose relation the stratum derives or
# chooses into; database relations and lower strata are complete.
COMPILED_PLANS = {
    "advisor": ["plan r1 candidates full"],
    "dijkstra": ["plan r1 candidates full", "plan r1 candidates delta 0"],
    "matching": ["plan r1 candidates full"],
    "simplepath": [
        "plan r1 candidates full",
        "plan r2 candidates full",
        "plan r2 candidates delta 0",
        "plan r2 candidates delta 2",
    ],
}


@pytest.mark.parametrize("name", sorted(COMPILED_PLANS))
def test_delta_plans_are_compiled_only_for_atoms_that_can_grow(name, monkeypatch):
    _, compiled = _compiled_plans(name, monkeypatch)
    assert [plan for plan, _, _ in compiled] == COMPILED_PLANS[name]


@pytest.mark.parametrize(
    "src",
    ["p(X) :- q(X), Y \\= X.", "p(X) :- Y \\= X, q(X).", "p(X) :- q(X), Y < X."],
    ids=["neq-last", "neq-first", "less"],
)
def test_unbound_builtin_operand_is_an_engine_error(src):
    prog = _Parser(src + " q(1). q(2).").program()
    with pytest.raises(EngineError, match="r1: variable Y is unbound"):
        run_with_counters(prog)


# Builtin goals over symbols fail at run time, with the rule id; the CLI's
# exit code for these is tested in test_cli.py.
BUILTIN_TYPE_ERRORS = [
    ("p(Y) :- q(X), Y = X + 1.\nq(b).\n", "r1: arithmetic over non-integers 'b' + 1"),
    ("p(X) :- q(X), X < 3.\nq(b).\n", "r1: order comparison over non-integers 'b' < 3"),
]


@pytest.mark.parametrize("src, message", BUILTIN_TYPE_ERRORS, ids=["plus", "less"])
def test_builtin_over_symbols_is_an_engine_error_with_rule_id(src, message):
    with pytest.raises(EngineError) as exc:
        run_with_counters(parse_program(src))
    assert str(exc.value) == message


# constants and predicate names that would break generated source if they
# reached it as text: quotes, backslashes, format braces, percent signs and
# Python names or keywords
HOSTILE_PROGRAM = (
    "for('a\"b', 'x\\y').\n"
    "for('{0}', '%s').\n"
    "for('__import__', 'a\"b').\n"
    "for('%s', '{0}').\n"
    "lambda(X, '{0}') :- for(X, Y), Y \\= '%s'.\n"
    "in('__import__', Y) :- lambda(X, Y), for(X, 'x\\y').\n"
    "in(X, Y) :- for(X, Y), for(Y, '{0}'), choice((), (X)).\n"
    "in('%s', X) :- lambda(X, '{0}'), X \\= 'a\"b', choice((X), ()).\n"
)


def test_plans_compile_hostile_constants_and_predicate_names():
    # constants and predicate names reach the compiled plans as values only:
    # they all evaluate as the reference operator says
    prog = parse_program(HOSTILE_PROGRAM)
    model = run_with_counters(prog, mode="choice", ties="lex")[0].as_sets()
    assert model == run_lico_reference(prog, "lazy")
    assert ("__import__", "{0}") in model["in"]


def _code_objects(code):
    yield code
    for c in code.co_consts:
        if isinstance(c, types.CodeType):
            yield from _code_objects(c)


def _constants(values):
    for c in values:
        if isinstance(c, (tuple, frozenset)):
            yield from _constants(c)
        else:
            yield c


def _strings(code):
    """The str constants of code, apart from the qualified names of the
    functions it makes, which CPython before 3.11 keeps as constants."""
    made = {f".{c.co_name}" for c in code.co_consts if isinstance(c, types.CodeType)}
    qualname = sys.version_info < (3, 11)
    return [c for c in _constants(code.co_consts) if isinstance(c, str) and not (qualname and c.endswith(tuple(made)))]


def test_generated_code_holds_no_program_symbol(monkeypatch):
    # every function storage.generate makes while the corpus runs under
    # every knob, and while the hostile program runs: no string constant
    # anywhere in its code, and a <gdlog ...> file name
    made, generate = [], storage.generate

    def recording(name, lines, values):
        made.append(generate(name, lines, values))
        return made[-1]

    monkeypatch.setattr(storage, "generate", recording)
    monkeypatch.setattr(engine, "generate", recording)
    storage.order_key.cache_clear()
    for generated in (storage._admission, storage._removal, storage._purge):
        generated.cache_clear()
    for arity in range(4):
        storage.order_key(arity)
    for name in sorted(PROGRAMS):
        edb = example_edb(name, 6, seed=1)
        for ties in ("lex", "fifo", "random"):
            for pq in ("auto", "off"):
                for mode in ("auto", "choice"):
                    for factorize in (False, True) if name in ("sort", "sequence") else (False,):
                        run_with_counters(
                            get_program(name), edb=edb, ties=ties, seed=3, pq=pq, mode=mode, factorize=factorize
                        )
    run_with_counters(parse_program(HOSTILE_PROGRAM), mode="choice", ties="lex")
    assert {f.__code__.co_filename.split()[1] for f in made} == {"order_key", "admit", "remove", "purge", "plan"}
    for f in made:
        for code in _code_objects(f.__code__):
            assert code.co_filename.startswith("<gdlog ")
            assert _strings(code) == [], code.co_filename


def test_a_profile_keeps_one_entry_per_plan_and_admission_shape():
    # two choice rules whose theta tables differ in shape; each rule's
    # candidate plan runs once, and each table admits once per step and has
    # its own removal and purge
    prog = parse_program("p(X, Y) :- e(X, Y), choice((X), (Y)).\nq(X) :- p(X, Y), choice((), (X)).\n")
    profile = cProfile.Profile()
    profile.runcall(run_with_counters, prog, edb={"e": [(1, 2), (1, 3), (2, 3)]}, ties="lex")
    plans, generated, methods = {}, {}, {}
    for (file, _, func), (_, calls, *_) in pstats.Stats(profile).stats.items():
        if file.startswith("<gdlog plan") and func not in ("<module>", "make"):
            plans[file] = plans.get(file, 0) + calls
        elif file.startswith("<") and func in ("admit", "remove_all", "purge_conflicting"):
            generated.setdefault(func, {})[file] = generated.get(func, {}).get(file, 0) + calls
        elif file.endswith("storage.py") and func in ("admit", "select_extreme", "purge_conflicting"):
            methods[func] = methods.get(func, 0) + calls  # the ThetaTable methods
    assert plans == {"<gdlog plan r1 candidates full>": 1, "<gdlog plan r2 candidates full>": 1}
    prefixes = {"admit": "<gdlog admit ", "remove_all": "<gdlog remove ", "purge_conflicting": "<gdlog purge "}
    for func, prefix in prefixes.items():
        assert len(generated[func]) == 2 and all(name.startswith(prefix) for name in generated[func])
    assert sum(generated["admit"].values()) == methods["admit"]
    assert sum(generated["purge_conflicting"].values()) == methods["purge_conflicting"]
    # each selection removes its tuple; purges remove the rest
    assert sum(generated["remove_all"].values()) >= methods["select_extreme"] > 0


def _per_selection(profile, selections):
    """Calls per selection of every gdlog function called at least once per
    selection: a source function as module.name, a generated one by its
    <gdlog ...> file name without the table shape."""
    calls = {}
    for (file, _, func), (_, n, *_) in pstats.Stats(profile).stats.items():
        if file.startswith("<gdlog "):
            name = f"{file.split(' arity=')[0].rstrip('>')}> {func}"
        elif Path(file).parent.name == "gdlog":
            name = f"{Path(file).stem}.{func}"
        else:
            continue
        calls[name] = calls.get(name, 0) + n
    return {name: round(n / selections, 2) for name, n in calls.items() if n >= selections}


def test_dijkstra_runs_a_pinned_set_of_functions_per_selection():
    # the functions a selection runs, and how often: a new layer in the
    # stratum loop, the theta table or the generated code shows up here
    # (at n = 200 each function the run calls only while compiling runs
    # fewer times than there are selections)
    edb = sparse_connected_graph(200, 800, seed=1, directed=True)
    eng = Engine(get_program("dijkstra"), edb=edb, ties="lex")
    profile = cProfile.Profile()
    profile.runcall(eng.run)
    assert eng.counters.iterations == 199
    assert _per_selection(profile, eng.counters.iterations) == {
        "engine.evaluate": 1.01,  # once more when the stratum starts
        "<gdlog plan r1 candidates delta 0> f0": 1.0,
        "storage.admit": 1.01,
        "<gdlog admit> admit": 1.01,
        "storage.lookup": 1.01,
        "storage.select_extreme": 1.0,
        "<gdlog remove> remove_all": 1.33,  # selections and unique-key replacements
        "storage._fill": 1.17,
        "storage.choose": 1.0,
        "storage.purge_conflicting": 1.0,
        "<gdlog purge> purge_conflicting": 1.0,
        "engine._commit": 1.0,
        "storage.insert": 3.0,  # ChosenTable.insert, and Relation.insert into chosen_r1 and dj
    }


# Rule-body shapes checked against the reference operator: comments in the
# program text, one variable twice in one atom (the generated plan checks the
# second column against the first inline), and zero-arity body goals
BODY_SHAPES = [
    ("% facts first\nq(1). q(2).  % two of them\np(X) :- q(X). % a copy\n", None, "p", {(1,), (2,)}),
    (
        "loop(X) :- e(X, X).\nout(X, Y) :- e(X, X), e(X, Y), choice((X), (Y)).\n",
        {"e": [(1, 1), (1, 2), (2, 2), (3, 1), (2, 3)]},
        "loop",
        {(1,), (2,)},
    ),
    ("on.\np(X) :- q(X), on.\nr(X) :- q(X), off.\nq(1). q(2).\n", None, "p", {(1,), (2,)}),
]


@pytest.mark.parametrize("src, edb, pred, rows", BODY_SHAPES, ids=["comments", "repeated-variable", "zero-arity"])
def test_rule_bodies_agree_with_the_reference(src, edb, pred, rows):
    prog = parse_program(src)
    model = run_with_counters(prog, edb=edb, ties="lex")[0].as_sets()
    assert model == run_lico_reference(prog, edb=edb)
    assert model[pred] == rows


def test_rule_longer_than_one_generated_function_nests():
    # 34 body atoms take three generated functions (at most 16 loops each);
    # the builtins after the last atom run in the innermost one
    chain = ", ".join(f"e(X{i}, X{i + 1})" for i in range(34))
    src = f"p(X0, S) :- {chain}, X0 < X34, S = X0 + X34.\n"
    edb = {"e": [(i, i + 1) for i in range(40)] + [(i, i + 2) for i in range(0, 40, 7)]}
    prog = parse_program(src)
    model, c = run_with_counters(prog, edb=edb)
    assert model.as_sets() == run_lico_reference(prog, edb=edb)
    assert model.relations["p"].rows


# Counters and models of every corpus program on the n=16 seed-3 benchmark
# instance under lex ties: (work, join_probes, firings, derived, iterations,
# sha256 of the sorted model lines).  The model digests date from before plans
# were compiled to generated functions; the counters were re-recorded when the
# rewritten rule became a projection of the chosen atom, and again when the
# commit step began writing the head, so that no rule is compiled for it.
# Any change to them is a change to the engine's operation count, not only
# to its speed.
GOLDEN = {
    ("advisor", "auto"): (1352, 148, 132, 16, 16, "ba619d53d13d639a3e197fc68b561708052949bd7729b7b8618bce3d175e99e1"),
    ("advisor", "off"): (1584, 148, 132, 16, 16, "ba619d53d13d639a3e197fc68b561708052949bd7729b7b8618bce3d175e99e1"),
    ("dijkstra", "auto"): (224, 80, 60, 15, 15, "480dc6577612af8250af6ae7781e78e9e52e29dba74a1428d4c564ae60bba828"),
    ("dijkstra", "off"): (227, 80, 60, 15, 15, "480dc6577612af8250af6ae7781e78e9e52e29dba74a1428d4c564ae60bba828"),
    ("matching", "auto"): (454, 64, 64, 8, 8, "4776845aaa63389ec08ef603d354bc7bdf6f094c80c2b9ae38b939daf7bda69f"),
    ("matching", "off"): (396, 64, 64, 8, 8, "4776845aaa63389ec08ef603d354bc7bdf6f094c80c2b9ae38b939daf7bda69f"),
    ("optmatching", "auto"): (445, 64, 64, 8, 8, "452acfb0522ec2272d61b5872c41853da13ea652187a66be49637c68d14c3d8f"),
    ("optmatching", "off"): (396, 64, 64, 8, 8, "452acfb0522ec2272d61b5872c41853da13ea652187a66be49637c68d14c3d8f"),
    ("prim", "auto"): (407, 144, 121, 15, 15, "c3903913ff1e5cc352f310c11e534a1d38c17c754a2d0654d7735df9de969484"),
    ("prim", "off"): (429, 144, 121, 15, 15, "c3903913ff1e5cc352f310c11e534a1d38c17c754a2d0654d7735df9de969484"),
    ("reach", "auto"): (356, 80, 60, 15, 15, "97f2b679c647ce199e4129d5cb3901114e2cd77dbdc9e6c67d2e603a13f5bc4b"),
    ("reach", "off"): (388, 80, 60, 15, 15, "97f2b679c647ce199e4129d5cb3901114e2cd77dbdc9e6c67d2e603a13f5bc4b"),
    ("sequence", "auto"): (833, 289, 272, 16, 16, "33c0e7742a559af4256c32f4a2509b5db7f814ce04b50229b72370e512fb29e3"),
    ("sequence", "off"): (833, 289, 272, 16, 16, "33c0e7742a559af4256c32f4a2509b5db7f814ce04b50229b72370e512fb29e3"),
    ("simplepath", "auto"): (1040, 527, 465, 16, 16, "2bd4825a397d9f9afc415d92da8d6c1d5b6c4bca92380e8ef12e704d5cfac70c"),
    ("simplepath", "off"): (1040, 527, 465, 16, 16, "2bd4825a397d9f9afc415d92da8d6c1d5b6c4bca92380e8ef12e704d5cfac70c"),
    ("sort", "auto"): (833, 289, 272, 16, 16, "5fcb1503eb6fb90896f20692748c631f1fd2491c141069089376bd4b5f1d5bd1"),
    ("sort", "off"): (833, 289, 272, 16, 16, "5fcb1503eb6fb90896f20692748c631f1fd2491c141069089376bd4b5f1d5bd1"),
    ("spantree", "auto"): (477, 144, 121, 15, 15, "fe309ea6d1e97468b20ae8683d5f6a0fca68999d9357075503947ac922d24858"),
    ("spantree", "off"): (486, 144, 121, 15, 15, "fe309ea6d1e97468b20ae8683d5f6a0fca68999d9357075503947ac922d24858"),
    ("tsp", "auto"): (833, 320, 256, 16, 16, "6eb8cc9ba735145fa388b158fcbb9cf3695c2bfcf2fdff856f83800f65519af0"),
    ("tsp", "off"): (833, 320, 256, 16, 16, "6eb8cc9ba735145fa388b158fcbb9cf3695c2bfcf2fdff856f83800f65519af0"),
}


class _SizeAtRow:
    """A trace stream that also records the engine's model size, counted
    relation by relation, when each row is written."""

    def __init__(self):
        self.engine = None
        self.rows: list[tuple[int, int]] = []

    def write(self, line):
        actual = sum(len(r) for r in self.engine.interp.relations.values())
        self.rows.append((int(line.split("\t")[5]), actual))


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_trace_model_size_is_the_model_size(name):
    # the column is loaded atoms + derived + chosen, kept by counters
    edb = bench.build_edb(bench.BenchSpec(example=name, sizes=(16,)), 16, 3)
    runs = [dict(ties=t, mode=m) for t in ("lex", "fifo") for m in ("auto", "choice")]
    if name in ("sort", "sequence"):
        runs += [dict(ties=t, factorize=True) for t in ("lex", "fifo")]
    for kw in runs:
        tr = _SizeAtRow()
        tr.engine = Engine(get_program(name), edb=edb, trace=tr, **kw)
        tr.engine.run()
        assert len(tr.rows) == tr.engine.counters.iterations > 0
        assert all(col == actual for col, actual in tr.rows), (kw, tr.rows)


@pytest.mark.parametrize("name, pq", sorted(GOLDEN))
def test_corpus_counters_and_models_are_pinned(name, pq):
    edb = bench.build_edb(bench.BenchSpec(example=name, sizes=(16,)), 16, 3)
    m, c = run_with_counters(get_program(name), edb=edb, ties="lex", pq=pq)
    sha = hashlib.sha256("".join(line + "\n" for line in m.sorted_lines()).encode()).hexdigest()
    assert (c.work, c.join_probes, c.firings, c.derived, c.iterations, sha) == GOLDEN[name, pq]
