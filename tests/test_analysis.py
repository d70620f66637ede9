import networkx as nx
import pytest

from gdlog.analysis import (
    FD,
    RuleKind,
    VectorNeq,
    build_dependency_graph,
    choice_info,
    classify_rules,
    foe_transform,
    format_foe_program,
    plan_subprograms,
)
from gdlog.corpus import PROGRAMS, get_program
from gdlog.lang import Atom, Var, parse_program


def test_dependency_graph_spantree():
    g = build_dependency_graph(get_program("spantree"))
    assert ("st", "st") in g.edges and ("st", "g") in g.edges
    assert frozenset({"st"}) in g.cliques


def test_dependency_graph_fact_only():
    g = build_dependency_graph(parse_program("p(a). q(b)."))
    assert g.edges == frozenset()
    assert all(len(c) == 1 for c in g.cliques)


def test_mutual_recursion_single_clique():
    g = build_dependency_graph(parse_program("p(X) :- q(X). q(X) :- p(X). p(a)."))
    assert frozenset({"p", "q"}) in g.cliques


def test_plan_chain_matches_networkx_condensation():
    # three-predicate chain: strata must come out dependencies-first, matching
    # an independent SCC condensation
    prog = parse_program("p(X) :- q(X). q(X) :- r(X). r(a).")
    g = build_dependency_graph(prog)
    plan = plan_subprograms(g, prog)
    order = [s.preds for s in plan.strata]
    assert order.index(frozenset({"r"})) < order.index(frozenset({"q"})) < order.index(
        frozenset({"p"})
    )

    nxg = nx.DiGraph()
    nxg.add_nodes_from(g.nodes)
    nxg.add_edges_from(g.edges)
    expected = {frozenset(c) for c in nx.strongly_connected_components(nxg)}
    assert set(g.cliques) == expected


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_plan_respects_dependencies_everywhere(name):
    prog = get_program(name)
    g = build_dependency_graph(prog)
    plan = plan_subprograms(g, prog)
    seen = set()
    for stratum in plan.strata:
        for r in stratum.rules:
            for a in r.body_atoms():
                assert a.pred in seen or a.pred in stratum.preds
        seen |= stratum.preds
    nxg = nx.DiGraph()
    nxg.add_nodes_from(g.nodes)
    nxg.add_edges_from(g.edges)
    assert set(g.cliques) == {frozenset(c) for c in nx.strongly_connected_components(nxg)}


def test_classify_rules():
    # exit clauses are ground facts, so the recursive rule is r1
    kinds = classify_rules(get_program("prim"))
    assert kinds["r1"] is RuleKind.CHOICE_LEAST
    kinds = classify_rules(get_program("optmatching"))
    assert kinds["r1"] is RuleKind.CHOICE_LEAST
    kinds = classify_rules(get_program("sequence"))
    assert kinds["r1"] is RuleKind.PURE_CHOICE
    kinds = classify_rules(get_program("sort"))
    assert kinds["r1"] is RuleKind.CHOICE_MOST
    kinds = classify_rules(parse_program("p(a). p(X) :- q(X). q(a)."))
    assert all(k is RuleKind.NON_CHOICE for k in kinds.values())


def test_classification_is_a_partition():
    for name in PROGRAMS:
        prog = get_program(name)
        kinds = classify_rules(prog)
        assert set(kinds) == {r.rule_id for r in prog.rules}


def test_foe_transform_advisor_shape():
    # one rewritten rule, one chosen rule with the negated goal, one
    # diffchoice rule priming exactly the non-left variables
    foe = foe_transform(get_program("advisor"))
    assert len(foe.rewritten) == 1 and len(foe.chosen) == 1 and len(foe.diffchoice) == 1
    rewritten = foe.rewritten[0]
    assert rewritten.pos_body[-1] == Atom("chosen_r1", (Var("S"), Var("P")))
    chosen = foe.chosen[0]
    assert chosen.head == Atom("chosen_r1", (Var("S"), Var("P")))
    assert chosen.neg_body == (Atom("diffchoice_r1", (Var("S"), Var("P"))),)
    diff = foe.diffchoice[0]
    assert diff.head == Atom("diffchoice_r1", (Var("S"), Var("P")))
    assert diff.pos_body[0] == Atom("chosen_r1", (Var("S"), Var("P'")))
    assert diff.pos_body[1] == VectorNeq(((Var("P"), Var("P'")),))


def test_foe_transform_two_choice_goals():
    prog = parse_program("p(X,Y) :- q(X,Y), choice((X),(Y)), choice((Y),(X)).")
    foe = foe_transform(prog)
    assert len(foe.chosen) == 1 and len(foe.diffchoice) == 2
    first, second = foe.diffchoice
    # first goal: X kept, Y primed; second goal: Y kept, X primed
    assert first.pos_body[0].args == (Var("X"), Var("Y'"))
    assert second.pos_body[0].args == (Var("X'"), Var("Y"))


def test_foe_transform_identity_without_choice():
    prog = parse_program("p(X) :- q(X). q(a).")
    foe = foe_transform(prog)
    assert not foe.chosen and not foe.diffchoice
    assert [r.head.pred for r in foe.rewritten] == ["p"]
    assert foe.rewritten[0].neg_body == ()


def test_extract_fds():
    # the FDs a choice rule declares over its chosen schema W
    def r1_fds(prog):
        return choice_info(next(r for r in prog.rules if r.rule_id == "r1")).fds

    assert r1_fds(get_program("advisor")) == (FD((0,), (1,)),)

    prog = parse_program("p(X,Y,C) :- q(X,Y,C), choice((X),(Y)), choice((X),(C)).")
    assert r1_fds(prog) == (FD((0,), (1,)), FD((0,), (2,)))

    prog = parse_program("p(root,X,0) :- g(X,Y,C), choice((),X).")
    assert r1_fds(prog) == (FD((), (0,)),)


def test_choice_schema_first_occurrence_order():
    info = choice_info(get_program("prim").rules[0])
    assert tuple(v.name for v in info.w_vars) == ("X", "Y", "C")
    assert info.fds == (FD((1,), (0,)), FD((1,), (2,)))
    assert info.unique_key == (1,)
    assert info.cost_pos == 2


def test_unique_key_union_of_left_sides():
    info = choice_info(get_program("tsp").rules[1])
    # goals choice((X),(Y)), choice((Y),(X)), choice_least((Y),(C))
    assert info.unique_key == (0, 1)


def test_foe_printer_mentions_negation():
    text = format_foe_program(foe_transform(get_program("advisor")))
    assert "not diffchoice_r1(S, P)" in text
    assert "P \\= P'" in text
