import pytest
from hypothesis import example, given, strategies as st

from gdlog.lang import (
    Atom,
    ChoiceGoal,
    DialectSyntaxError,
    ProgramError,
    Program,
    Rule,
    Var,
    format_const,
    format_program,
    parse_program,
    validate,
)
from gdlog.corpus import PROGRAMS


def test_parse_advisor_rule():
    p = parse_program(
        "actual_adv(S,P) :- student(S,M,Y), professor(P,M), choice((S),(P))."
    )
    assert len(p.rules) == 1 and not p.facts
    r = p.rules[0]
    assert r.head.pred == "actual_adv"
    assert [a.pred for a in r.body_atoms()] == ["student", "professor"]
    assert r.choice_goals == (ChoiceGoal("choice", (Var("S"),), (Var("P"),)),)


def test_parse_fact_only():
    p = parse_program("p(root,root).")
    assert len(p.facts) == 1 and not p.rules
    assert p.facts[0] == Atom("p", ("root", "root"))


def test_unbound_head_variable_rejected():
    with pytest.raises(ProgramError, match="head variable X is unbound"):
        parse_program("p(X) :- q(Y).")


def test_arity_clash_rejected():
    with pytest.raises(ProgramError, match="arity clash"):
        parse_program("p(a). p(a,b).")


def test_syntax_error_carries_position():
    with pytest.raises(DialectSyntaxError) as exc:
        parse_program("p(a) :- q(,).")
    assert exc.value.line == 1 and exc.value.col > 0


def test_choice_sides_must_be_disjoint():
    p = parse_program("p(X,Y) :- q(X,Y), choice((X),(X)).", strict=False)
    msgs = [d.message for d in validate(p)]
    assert any("X ∩ Y nonempty" in m for m in msgs)


def test_at_most_one_choice_least():
    p = parse_program(
        "p(X,Y,C,D) :- q(X,Y,C,D), choice_least((X),(C)), choice_least((X),(D)).",
        strict=False,
    )
    msgs = [d.message for d in validate(p)]
    assert any("at most one choice_least" in m for m in msgs)


def test_least_and_most_cannot_share_a_rule():
    p = parse_program(
        "p(X,C,D) :- q(X,C,D), choice_least((X),(C)), choice_most((X),(D)).",
        strict=False,
    )
    assert any("cannot share" in d.message for d in validate(p))


def test_cost_side_must_be_single_variable():
    p = parse_program("p(X,Y,C) :- q(X,Y,C), choice_least((X),(Y,C)).", strict=False)
    assert any("single cost variable" in d.message for d in validate(p))


def test_comparison_needs_bound_operands():
    p = parse_program("p(X) :- X \\= a, q(X).", strict=False)
    assert any("not bound by an earlier goal" in d.message for d in validate(p))


def test_arithmetic_binds_fresh_variable():
    p = parse_program("p(C) :- q(C,B), C = C + B.", strict=False)
    assert any("already bound" in d.message for d in validate(p))


def test_reserved_prefix_rejected():
    p = parse_program("chosen_r1(X) :- q(X).", strict=False)
    assert any("reserved prefix" in d.message for d in validate(p))


def test_spanning_tree_program_validates_cleanly():
    assert validate(parse_program(PROGRAMS["spantree"], strict=False)) == []


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_corpus_parses_and_validates(name):
    p = parse_program(PROGRAMS[name])
    assert validate(p) == []


def test_empty_left_side_spellings_normalize():
    a = parse_program("p(root,X,0) :- g(X,Y,C), choice((),X).")
    b = parse_program("p(root,X,0) :- g(X,Y,C), choice((),(X)).")
    assert a.rules[0] == b.rules[0]
    assert a.rules[0].choice_goals[0].left == ()


def test_quoted_symbols_and_integers():
    p = parse_program("student('Jim Black', ee, -3).")
    assert p.facts[0].args == ("Jim Black", "ee", -3)


def test_integer_range_enforced():
    with pytest.raises(DialectSyntaxError, match="64-bit"):
        parse_program(f"p({2**63}).")


@pytest.mark.parametrize("src, col", [("p(\u00b2).", 3), ("p(1\u00b2).", 4), ("p(-\u0663).", 3)])
def test_only_ascii_digits_make_integers(src, col):
    # str.isdigit holds for superscripts and other scripts' digits
    with pytest.raises(DialectSyntaxError) as exc:
        parse_program(src)
    assert (exc.value.line, exc.value.col) == (1, col)
    assert exc.value.message.startswith("unexpected character")


def _format_const_by_characters(c):
    # format_const's symbol rule as a test over each character
    if c and c[0].isalpha() and c[0].islower() and all(ch.isalnum() or ch == "_" for ch in c):
        return c
    return f"'{c}'"


@given(st.text(max_size=8))
@example("abc")
@example("\u00e9dith")  # unicode letters
@example("\u03c9_\u00df")
@example("\u65e5\u672c")  # letters with no case
@example("_a")
@example("Abc")
@example("a\u00b2")  # digits, ASCII or not
@example("a1")
@example("1a")
@example("a-b")
@example("a__")
@example("")
def test_format_const_symbol_rule(c):
    assert format_const(c) == _format_const_by_characters(c)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_roundtrip_corpus(name):
    p1 = parse_program(PROGRAMS[name])
    text = format_program(p1)
    p2 = parse_program(text)
    assert p1.rules == p2.rules and p1.facts == p2.facts
    assert format_program(p2) == text


# hypothesis round-trip over generated programs ------------------------------

_sym = st.sampled_from(["p", "q", "edge", "node", "cost_1", "a", "b", "x9"])
_varname = st.sampled_from(["X", "Y", "Z", "C", "C1", "Node"])
_const = st.one_of(st.integers(-(10**6), 10**6), _sym, st.just("Jim Black"))
_term = st.one_of(_varname.map(Var), _const)


@st.composite
def _programs(draw):
    rules = []
    facts = []
    for _ in range(draw(st.integers(0, 3))):
        pred = draw(_sym)
        args = tuple(draw(st.lists(_const, min_size=0, max_size=3)))
        facts.append(Atom(pred, args))
    for _ in range(draw(st.integers(0, 3))):
        body_atoms = []
        vars_seen = []
        for _ in range(draw(st.integers(1, 3))):
            args = tuple(draw(st.lists(_term, min_size=1, max_size=3)))
            vars_seen += [a for a in args if isinstance(a, Var)]
            body_atoms.append(Atom(draw(_sym), args))
        head_args = tuple(draw(st.lists(st.sampled_from(vars_seen), max_size=3))) if vars_seen else ()
        choice_goals = ()
        if len(set(vars_seen)) >= 2 and draw(st.booleans()):
            vs = sorted(set(vars_seen), key=lambda v: v.name)
            choice_goals = (ChoiceGoal("choice", (vs[0],), (vs[1],)),)
        rules.append(Rule(Atom(draw(_sym), head_args), tuple(body_atoms), choice_goals))
    return Program(tuple(rules), tuple(facts))


@given(_programs())
def test_roundtrip_generated(p1):
    text = format_program(p1)
    p2 = parse_program(text, strict=False)
    assert p1.rules == p2.rules and p1.facts == p2.facts
    assert format_program(p2) == text
