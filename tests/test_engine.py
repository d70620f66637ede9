import ast
import inspect
import io
import random
from pathlib import Path

import pytest

from gdlog.corpus import (
    ADVISOR_TOY,
    PROGRAMS,
    TOY_TRIANGLE,
    acyclic_digraph,
    complete_graph,
    domain_facts,
    example_edb,
    get_program,
    sparse_connected_graph,
)
from gdlog.engine import (
    Counters,
    Engine,
    EngineError,
    run_with_counters,
    _AtomStep,
    _CompareStep,
    _PlusStep,
)
from gdlog import bench, tsvio
from gdlog.lang import Atom, Program, Rule, Var, parse_program
from gdlog.oracle import chain_is_total_order, ref_dijkstra, ref_mst_weight, run_lico_reference
from gdlog.storage import StorageError, tuple_key

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
    assert m.rel("t").rows == [("a", "b")]
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
    assert m.rel("p").rows == [("a",)]
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
    assert m.size() == start + 4


# choice fixpoint -------------------------------------------------------------


def test_advisor_picks_exactly_one():
    m = _choice(get_program("advisor"), edb=ADVISOR_TOY)
    adv = m.rel("actual_adv").rows
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
        st = set(m.rel("st").rows) - {("root", "a", 0)}
        assert st in expected
        seen.add(frozenset(st))
    assert len(seen) >= 2  # different seeds do explore different models


def test_sequence_chain_is_permutation():
    edb = {"d": [(f"e{i}",) for i in range(1, 6)]}
    m = _choice(get_program("sequence"), ties="random", seed=3, edb=edb)
    succ = m.rel("succ").rows
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
    pairs = m.rel("matching").rows
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
    assert sorted(m.rel("dj").rows) == [("a", 0), ("b", 1), ("c", 3)]


def test_dijkstra_matches_reference_on_cyclic_graph():
    edb = sparse_connected_graph(60, 240, cost_max=50, seed=11, directed=True)
    m = _greedy(get_program("dijkstra"), edb=edb)
    assert {y: c for y, c in m.rel("dj").rows} == ref_dijkstra(edb["g"], "a")


def test_prim_toy_graph_is_min_spanning_tree():
    m = _greedy(get_program("prim"), edb=TOY_TRIANGLE)
    st = set(m.rel("st").rows) - {("root", "a", 0)}
    assert st == {("a", "b", 1), ("b", "c", 2)}
    assert sum(c for _, _, c in st) == 3 == ref_mst_weight(
        [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)]
    )


def test_sort_decreasing_chain():
    m = _greedy(get_program("sort"), edb={"d": [(3,), (1,), (2,)]})
    succ = [t for t in m.rel("succ").rows if t != ("root", "root")]
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
    spath = m.rel("spath").rows
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
        _assert_fds_hold(get_program(name), m)


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


def _assert_fds_hold(prog, model):
    from gdlog.analysis import choice_info

    for r in prog.rules:
        if not r.choice_goals:
            continue
        info = choice_info(r)
        rows = model.get(info.chosen_pred, ())
        for fd in info.fds:
            seen = {}
            for t in rows:
                key = tuple(t[i] for i in fd.left)
                val = tuple(t[i] for i in fd.right)
                assert seen.setdefault(key, val) == val, (info.chosen_pred, fd, rows)


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
    assert "product" in "; ".join(eng.factorize_reasons)
    st = set(m.rel("st").rows) - {("root", "a", 0)}
    assert sum(c for _, _, c in st) == 3  # fallback still computes the MST


@pytest.mark.parametrize("ties", ["lex", "fifo"])
def test_factorized_sequence_agrees_with_plain_engine(ties):
    edb = domain_facts(30, seed=5)
    a = _choice(get_program("sequence"), ties=ties, edb=edb)
    eng = Engine(get_program("sequence"), edb=edb, ties=ties, factorize=True)
    b = eng.run()
    assert eng.factorized_strata
    assert _model(a) == _model(b)


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
@pytest.mark.parametrize("name, work", [("sort", 12_866), ("tsp", 17_215)], ids=["sort", "tsp"])
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
    assert keywords <= set(inspect.signature(run_with_counters).parameters)
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
    assert m.rel("best").rows == [("q2", 1)]
    assert len(m.rel("pick").rows) == 1


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


def _compiled_rules(name):
    prog = get_program(name)
    eng = Engine(prog)
    for r in prog.rules:
        if not r.choice_goals:
            yield eng._compile_nonchoice(r)
            continue
        info = eng.infos[r.rule_id]
        yield eng._compile_rewritten(r, info)
        yield eng._compile_candidates(r, info)


def test_dijkstra_chosen_delta_plan_is_bound_first():
    prog = get_program("dijkstra")
    eng = Engine(prog)
    rule = prog.rules[0]
    info = eng.infos[rule.rule_id]
    cr = eng._compile_rewritten(rule, info)
    plan = cr.delta_plans[cr.atom_preds.index(info.chosen_pred)]
    chosen, neq, g, dj, plus = plan.steps
    assert isinstance(chosen, _AtomStep) and chosen.pred == info.chosen_pred
    assert isinstance(neq, _CompareStep) and neq.op == "\\="
    assert isinstance(g, _AtomStep) and (g.pred, g.index_cols) == ("g", (1,))
    assert isinstance(dj, _AtomStep) and (dj.pred, dj.index_cols) == ("dj", (0,))
    assert isinstance(plus, _PlusStep) and plus.out_bound


@pytest.mark.parametrize("name", ["prim", "dijkstra", "reach"])
def test_delta_plans_probe_an_index_after_the_delta_atom(name):
    for cr in _compiled_rules(name):
        for plan in cr.delta_plans.values():
            atoms = [s for s in plan.steps if isinstance(s, _AtomStep)]
            assert atoms[0].occ == plan.delta_occ
            assert all(s.index_cols for s in atoms[1:]), (cr.rule_id, plan.steps)


@pytest.mark.parametrize(
    "src",
    ["p(X) :- q(X), Y \\= X.", "p(X) :- Y \\= X, q(X).", "p(X) :- q(X), Y < X."],
    ids=["neq-last", "neq-first", "less"],
)
def test_unbound_builtin_operand_is_an_engine_error(src):
    prog = parse_program(src + " q(1). q(2).", strict=False)
    with pytest.raises(EngineError, match="r1: variable Y is unbound"):
        run_with_counters(prog)
