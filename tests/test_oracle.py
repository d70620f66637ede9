import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from gdlog.analysis import MODES, foe_transform
from gdlog.corpus import (
    get_program,
    sparse_connected_graph,
)
from gdlog.engine import run_with_counters
from gdlog import oracle
from gdlog.lang import GdlogError, parse_program
from gdlog.oracle import (
    EnumerationError,
    GroundingError,
    GroundRule,
    GroundProgram,
    bipartite_matching_valid,
    chain_is_total_order,
    check_stable_model,
    complete_with_diffchoice,
    enumerate_choice_models,
    ground,
    ref_dijkstra,
    run_lico_reference,
)
from corpus_helpers import ADVISOR_TOY, TOY_TRIANGLE, example_edb
from oracle_helpers import audit_stable_model, reachable, ref_mst_weight, ref_prim_weight


def _ground(name, edb):
    return ground(foe_transform(get_program(name)), edb)


def _atomset(interp):
    return {(pred, t) for pred, ts in interp.as_sets().items() for t in ts}


# grounding -------------------------------------------------------------------


def test_ground_advisor_candidates():
    g = _ground("advisor", ADVISOR_TOY)
    cands = {w for w, _ in g.chosen_instances["r1"]}
    assert cands == {("Jim Black", "ohm"), ("Jim Black", "bell")}
    heads = {r.head for r in g.rules}
    assert ("diffchoice_r1", ("Jim Black", "ohm")) in heads
    assert ("diffchoice_r1", ("Jim Black", "bell")) in heads


def test_ground_empty_edb_keeps_program_facts():
    g = ground(foe_transform(parse_program("succ(root,root).")), {})
    assert g.facts == [("succ", ("root", "root"))]


def test_ground_instance_count_matches_bruteforce_enumeration():
    # spanning tree, 5 nodes: compare the rewritten-rule instances against a
    # naive substitute-everything enumerator over the final derived base
    edb = example_edb("spantree", 5, seed=8)
    prog = get_program("spantree")
    g = _ground("spantree", edb)

    st_atoms = sorted({t for (p, t) in g.base if p == "st"})
    g_atoms = sorted(set(edb["g"]))
    chosen_atoms = sorted({t for (p, t) in g.base if p == "chosen_r1"})
    brute = set()
    for (_, x, _c0) in st_atoms:
        for (gx, gy, gc) in g_atoms:
            for w in chosen_atoms:
                if gx != x or w != (x, gy, gc):
                    continue
                if gy == "a" or gy == gx:
                    continue
                brute.add((("st", (x, gy, gc)), w))
    rewritten = {
        (r.head, r.pos[-1][1])
        for r in g.rules
        if r.head[0] == "st" and r.pos and not r.neg
    }
    assert rewritten == brute


def test_grounding_cap_reported(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_INSTANCES", 3)
    with pytest.raises(GroundingError, match="cap"):
        ground(foe_transform(get_program("spantree")), TOY_TRIANGLE)


def test_grounding_probe_budget_reported(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_PROBES", 20)
    with pytest.raises(GroundingError, match="budget"):
        ground(foe_transform(get_program("spantree")), TOY_TRIANGLE)


def test_cyclic_cost_accumulation_refused(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_ATOMS", 500)
    edb = {"g": [("a", "b", 1), ("b", "c", 1), ("c", "b", 1)]}
    with pytest.raises(GroundingError):
        ground(foe_transform(get_program("reach")), edb)


# stable-model checking -------------------------------------------------------


def test_advisor_model_stable_by_hand():
    g = _ground("advisor", ADVISOR_TOY)
    m = {
        ("student", ("Jim Black", "ee", "senior")),
        ("professor", ("ohm", "ee")),
        ("professor", ("bell", "ee")),
        ("chosen_r1", ("Jim Black", "ohm")),
        ("actual_adv", ("Jim Black", "ohm")),
        ("diffchoice_r1", ("Jim Black", "bell")),
    }
    res = check_stable_model(g, m, complete_diffchoice=False)
    assert res.is_model and res.is_stable
    assert audit_stable_model(g, m, complete_diffchoice=False)


def test_positive_program_minimal_model_is_stable():
    prog = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z). e(a,b). e(b,c).")
    g = ground(foe_transform(prog), {})
    m = {
        ("e", ("a", "b")),
        ("e", ("b", "c")),
        ("t", ("a", "b")),
        ("t", ("b", "c")),
        ("t", ("a", "c")),
    }
    assert check_stable_model(g, m).is_stable
    # dropping a derived atom breaks modelhood; adding junk breaks stability
    assert not check_stable_model(g, m - {("t", ("a", "c"))}).is_model
    bigger = m | {("t", ("c", "a"))}
    res = check_stable_model(g, bigger)
    assert res.is_model and not res.is_stable and res.witness == frozenset(m)


def test_fd_violating_set_is_not_a_model():
    g = _ground("advisor", ADVISOR_TOY)
    m = {
        ("student", ("Jim Black", "ee", "senior")),
        ("professor", ("ohm", "ee")),
        ("professor", ("bell", "ee")),
        ("chosen_r1", ("Jim Black", "ohm")),
        ("chosen_r1", ("Jim Black", "bell")),
        ("actual_adv", ("Jim Black", "ohm")),
        ("actual_adv", ("Jim Black", "bell")),
    }
    res = check_stable_model(g, m, complete_diffchoice=False)
    assert not res.is_model  # derivable diffchoice atoms are missing
    completed = complete_with_diffchoice(g, m)
    res2 = check_stable_model(g, completed, complete_diffchoice=False)
    assert not res2.is_stable  # both chosen rules are blocked in the reduct


def test_checker_paths_agree_on_random_sets():
    g = _ground("advisor", ADVISOR_TOY)
    base = sorted(g.base)
    rng = random.Random(3)
    for _ in range(200):
        m = {a for a in base if rng.random() < 0.5}
        assert check_stable_model(g, m).is_stable == audit_stable_model(g, m)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_checker_paths_agree_on_random_ground_programs(data):
    atoms = [("p", (i,)) for i in range(4)] + [("q", (i,)) for i in range(3)]
    n_rules = data.draw(st.integers(1, 6))
    rules = []
    for _ in range(n_rules):
        head = data.draw(st.sampled_from(atoms))
        pos = tuple(data.draw(st.lists(st.sampled_from(atoms), max_size=2)))
        neg = tuple(data.draw(st.lists(st.sampled_from(atoms), max_size=1)))
        rules.append(GroundRule(head, pos, neg))
    rules.append(GroundRule(("p", (0,)), (), ()))
    g = GroundProgram(rules, [("p", (0,))], {}, {}, set(atoms))
    m = {a for a in atoms if data.draw(st.booleans())}
    assert check_stable_model(g, m).is_stable == audit_stable_model(g, m)


# enumeration -----------------------------------------------------------------


def test_enumerate_spantree_three_models():
    models = enumerate_choice_models(get_program("spantree"), TOY_TRIANGLE)
    sts = {frozenset(m["st"] - {("root", "a", 0)}) for m in models}
    assert sts == {
        frozenset({("a", "b", 1), ("b", "c", 2)}),
        frozenset({("a", "b", 1), ("a", "c", 3)}),
        frozenset({("a", "c", 3), ("c", "b", 2)}),
    }


def test_enumerate_advisor_two_models():
    models = enumerate_choice_models(get_program("advisor"), ADVISOR_TOY)
    advs = sorted(sorted(m["actual_adv"]) for m in models)
    assert advs == [[("Jim Black", "bell")], [("Jim Black", "ohm")]]


def test_enumerate_no_choice_single_model():
    prog = parse_program("t(X,Y) :- e(X,Y). e(a,b).")
    models = enumerate_choice_models(prog, {})
    assert len(models) == 1
    assert models[0]["t"] == frozenset({("a", "b")})


def test_enumerate_candidate_cap():
    with pytest.raises(EnumerationError, match="candidates"):
        enumerate_choice_models(get_program("spantree"), TOY_TRIANGLE, candidate_cap=1)


def test_enumerate_model_cap_carries_partial_models():
    with pytest.raises(EnumerationError) as exc:
        enumerate_choice_models(get_program("spantree"), TOY_TRIANGLE, cap=1)
    assert len(exc.value.models) == 1


def test_engine_models_are_enumerated_models():
    for name, size in [("advisor", 3), ("spantree", 4), ("sequence", 3), ("matching", 4)]:
        prog = get_program(name)
        edb = example_edb(name, size, seed=5)
        models = enumerate_choice_models(prog, edb)
        assert models, name
        for seed in range(3):
            interp, _ = run_with_counters(prog, mode="choice", ties="random", seed=seed, edb=edb)
            got = interp.as_sets()
            assert any(m == got for m in models), name


def test_greedy_model_is_a_choice_model():
    for name, size in [("prim", 4), ("dijkstra", 4), ("sort", 3), ("optmatching", 4)]:
        prog = get_program(name)
        edb = example_edb(name, size, seed=6)
        models = enumerate_choice_models(prog, edb)
        got = run_with_counters(prog, mode="auto", ties="lex", edb=edb)[0].as_sets()
        assert any(m == got for m in models), name


# q's rule reads p, which two rules of a lower stratum derive
Q_RULE = "q(Y,X) :- p(X,Y), X \\= Y, choice((),(Y)), choice((),(X)).\n"
P_RULES = (
    "p(X,W) :- e(W,X,_), e(_,X,C), choice((X),(W)).\n"
    "p(W,W) :- e(_,_,_), e(_,W,_), choice((),(W)).\n"
)
QP_EDB = {"e": [("a", "c", 3), ("b", "a", 2), ("b", "c", 0)]}
# h is chosen in one stratum, dj by choice_least over h in the next: dj
# reaches c by the shortest path only once h is complete
LEAST_OVER_CHOSEN = (
    "dj(a, 0).\n"
    "h(X, Y, C) :- g(X, Y, C), choice((X, Y), (C)).\n"
    "dj(Y, C) :- dj(X, C1), h(X, Y, C2), Y \\= a, C = C1 + C2, choice_least((Y), (C)).\n"
)
LEAST_OVER_CHOSEN_EDB = {"g": [("a", "c", 10), ("a", "b", 1), ("b", "c", 1)]}


def test_reference_schedule_agrees_with_the_engine_in_stratum_order():
    # written first or after the p rules, q chooses only once p's stratum
    # is complete, in the reference as in the engine
    for src in (Q_RULE + P_RULES, P_RULES + Q_RULE):
        prog = parse_program(src)
        engine = run_with_counters(prog, edb=QP_EDB, ties="lex")[0].as_sets()
        assert engine == run_lico_reference(prog, edb=QP_EDB)
        assert engine["q"] == {("b", "a")}


SCHEDULE_CASES = [
    (LEAST_OVER_CHOSEN, LEAST_OVER_CHOSEN_EDB, "dj", ("c", 2)),
    (Q_RULE + P_RULES, QP_EDB, "q", ("b", "a")),
    (P_RULES + Q_RULE, QP_EDB, "q", ("b", "a")),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("src, edb, pred, row", SCHEDULE_CASES, ids=["least-over-chosen", "q-first", "p-first"])
def test_engine_and_reference_share_one_schedule(src, edb, pred, row, mode):
    prog = parse_program(src)
    engine = run_with_counters(prog, mode=mode, ties="lex", edb=edb)[0].as_sets()
    assert engine == run_lico_reference(prog, mode, ties="lex", edb=edb)
    assert row in engine[pred]


@pytest.mark.parametrize("mode", ["greedy", "lazy", "least"])
def test_reference_takes_only_the_engine_modes(mode):
    with pytest.raises(GdlogError, match=f"unknown reference mode '{mode}'"):
        run_lico_reference(parse_program(LEAST_OVER_CHOSEN), mode, edb=LEAST_OVER_CHOSEN_EDB)


def test_choice_models_always_exist():
    # every corpus program with every small EDB has at least one choice model
    for name in ("advisor", "sequence", "matching", "spantree", "reach"):
        for seed in range(3):
            edb = example_edb(name, 3, seed=seed)
            assert enumerate_choice_models(get_program(name), edb), (name, seed)


def test_enumerated_models_satisfy_fds():
    from gdlog.analysis import choice_info

    prog = get_program("spantree")
    info = choice_info(prog.rules[0])
    for m in enumerate_choice_models(prog, TOY_TRIANGLE):
        rows = m.get(info.chosen_pred, frozenset())
        for fd in info.fds:
            seen = {}
            for t in rows:
                key = tuple(t[i] for i in fd.left)
                assert seen.setdefault(key, t) == t


# reference graph algorithms --------------------------------------------------


def test_ref_dijkstra_example():
    dist = ref_dijkstra([("a", "b", 1), ("b", "c", 2), ("a", "c", 5)], "a")
    assert dist == {"a": 0, "b": 1, "c": 3}


def test_ref_dijkstra_unreachable_absent():
    dist = ref_dijkstra([("a", "b", 1), ("c", "d", 1)], "a")
    assert "c" not in dist and "d" not in dist


def test_ref_mst_weight_toy_triangle():
    edges = [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)]
    assert ref_mst_weight(edges) == 3
    assert ref_prim_weight(edges) == 3


def test_ref_mst_disconnected_is_none():
    assert ref_mst_weight([("a", "b", 1), ("c", "d", 1)]) is None


def test_single_node_graph():
    assert ref_dijkstra([], "a") == {"a": 0}
    assert ref_mst_weight([]) == 0


def test_kruskal_and_prim_agree_on_random_graphs():
    for seed in range(10):
        edb = sparse_connected_graph(30, 80, cost_max=50, seed=seed)
        edges = list({tuple(sorted((u, v))) + (c,) for u, v, c in edb["g"]})
        assert ref_mst_weight(edges) == ref_prim_weight(edges)


def test_matching_validity():
    assert bipartite_matching_valid([("u1", "v1"), ("u2", "v2")])
    assert not bipartite_matching_valid([("u1", "v1"), ("u1", "v2")])
    assert not bipartite_matching_valid([("u1", "v1"), ("u2", "v1")])
    assert not bipartite_matching_valid([("u1", "v9")], edges=[("u1", "v1", 3)])


def test_chain_checker():
    assert chain_is_total_order([("root", "root"), ("root", 3), (3, 1)], [3, 1])
    assert not chain_is_total_order([("root", 3), (3, 1)], [3, 1, 2])
    assert not chain_is_total_order([("root", 3), ("root", 1)], [3, 1])


def test_chain_checker_rejects_bad_chains_and_scales():
    assert not chain_is_total_order([("root", 1), (1, 2), (2, 1)], [1, 2])  # cycle
    assert not chain_is_total_order([("root", 1), (1, 2), (1, 3)], [1, 2, 3])  # repeated x
    assert not chain_is_total_order([("root", 1), (1, 2)], [1, 2, 3])  # missing element
    n = 50_000
    succ = [("root", "root"), ("root", 1)] + [(i, i + 1) for i in range(1, n)]
    t0 = time.perf_counter()
    assert chain_is_total_order(succ, range(1, n + 1))
    assert time.perf_counter() - t0 < 1.0


def test_reachable_bfs():
    arcs = [("a", "b", 1), ("b", "c", 1), ("d", "a", 1)]
    assert reachable(arcs, "a") == {"a", "b", "c"}


def test_reference_algorithms_on_one_edge():
    assert ref_dijkstra([("a", "b", 2)], "a") == {"a": 0, "b": 2}
    assert ref_mst_weight([("a", "b", 2)]) == 2
    assert ref_prim_weight([("a", "b", 2)]) == 2
    assert bipartite_matching_valid([("u1", "v1")])
    assert chain_is_total_order([("root", "x"), ("x", "y")], ["x", "y"])
