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
    _Parser,
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


def _diagnostics(text):
    with pytest.raises(ProgramError) as exc:
        parse_program(text)
    return [d.message for d in exc.value.diagnostics]


def test_choice_sides_must_be_disjoint():
    msgs = _diagnostics("p(X,Y) :- q(X,Y), choice((X),(X)).")
    assert any("X ∩ Y nonempty" in m for m in msgs)


def test_at_most_one_choice_least():
    msgs = _diagnostics("p(X,Y,C,D) :- q(X,Y,C,D), choice_least((X),(C)), choice_least((X),(D)).")
    assert any("at most one choice_least" in m for m in msgs)


def test_least_and_most_cannot_share_a_rule():
    msgs = _diagnostics("p(X,C,D) :- q(X,C,D), choice_least((X),(C)), choice_most((X),(D)).")
    assert any("cannot share" in m for m in msgs)


def test_cost_side_must_be_single_variable():
    msgs = _diagnostics("p(X,Y,C) :- q(X,Y,C), choice_least((X),(Y,C)).")
    assert any("single cost variable" in m for m in msgs)


def test_comparison_needs_bound_operands():
    msgs = _diagnostics("p(X) :- X \\= a, q(X).")
    assert any("not bound by an earlier goal" in m for m in msgs)


def test_arithmetic_binds_fresh_variable():
    msgs = _diagnostics("p(C) :- q(C,B), C = C + B.")
    assert any("already bound" in m for m in msgs)


def test_reserved_prefix_rejected():
    msgs = _diagnostics("chosen_r1(X) :- q(X).")
    assert any("reserved prefix" in m for m in msgs)


@pytest.mark.parametrize("prefix", ["chosen_", "diffchoice_"])
def test_reserved_prefix_rejected_in_a_body(prefix):
    # a body atom over chosen_r2 would be planned before r2 selects anything
    msgs = _diagnostics(
        f"e(a,b).\np(X,Y) :- {prefix}r2(X,Y).\nq(X,Y) :- e(X,Y), choice((X),(Y)).\n"
    )
    assert msgs == [f"predicate name {prefix}r2 uses a reserved prefix"]


def test_spanning_tree_program_validates_cleanly():
    assert validate(parse_program(PROGRAMS["spantree"])) == []


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


@pytest.mark.parametrize("ch", ["\t", "\r"])
def test_quoted_symbol_cannot_hold_a_tab_or_carriage_return(ch):
    # no fact or model cell can hold one, so the model could not be read back
    with pytest.raises(DialectSyntaxError) as exc:
        parse_program(f"q(a).\np(b, 'a{ch}b').")
    assert (exc.value.line, exc.value.col) == (2, 6)
    assert exc.value.message == f"quoted symbol holds {ch!r}"


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


@pytest.mark.parametrize("name", ["a b", "Foo", "12", ""])
def test_roundtrip_quoted_predicate_names(name):
    quoted = "'" + name + "'"
    for src in (f"{quoted}(X) :- q(X).\nq(1).\nr :- {quoted}(1).\n", f"{quoted}.\n"):
        p1 = parse_program(src)
        text = format_program(p1)
        assert text.count(quoted) == src.count(quoted)
        p2 = parse_program(text)
        assert p1.rules == p2.rules and p1.facts == p2.facts


@pytest.mark.parametrize("kind", ["choice", "choice_least", "choice_most"])
def test_quoted_choice_keyword_is_a_body_atom(kind):
    p1 = parse_program(f"q(1).\n{kind}(1).\np(X) :- q(X), '{kind}'(X).\n")
    (rule,) = p1.rules
    assert rule.body == (Atom("q", (Var("X"),)), Atom(kind, (Var("X"),))) and not rule.choice_goals
    text = format_program(p1)
    assert f"'{kind}'(X)" in text
    p2 = parse_program(text)
    assert p1.rules == p2.rules and p1.facts == p2.facts


@pytest.mark.parametrize("kind", ["choice", "choice_least", "choice_most"])
def test_a_body_atom_named_by_a_choice_keyword_round_trips(kind):
    # built in Python: printed bare, the atom would parse as a choice goal
    x = Var("X")
    p1 = Program((Rule(Atom("p", (x,)), (Atom("q", (x,)), Atom(kind, (x,))), (), rule_id="r1"),), ())
    p2 = parse_program(format_program(p1))
    assert p1.rules == p2.rules


# hypothesis round-trip over generated programs ------------------------------

_sym = st.sampled_from(["p", "q", "edge", "node", "cost_1", "a", "b", "x9"])
# predicate names include ones that only parse back quoted
_pred = st.one_of(_sym, st.sampled_from(["a b", "Foo", "12", ""]))
_varname = st.sampled_from(["X", "Y", "Z", "C", "C1", "Node"])
_const = st.one_of(st.integers(-(10**6), 10**6), _sym, st.just("Jim Black"))
_term = st.one_of(_varname.map(Var), _const)


@st.composite
def _programs(draw):
    rules = []
    facts = []
    for _ in range(draw(st.integers(0, 3))):
        pred = draw(_pred)
        args = tuple(draw(st.lists(_const, min_size=0, max_size=3)))
        facts.append(Atom(pred, args))
    for _ in range(draw(st.integers(0, 3))):
        body_atoms = []
        vars_seen = []
        for _ in range(draw(st.integers(1, 3))):
            args = tuple(draw(st.lists(_term, min_size=1, max_size=3)))
            vars_seen += [a for a in args if isinstance(a, Var)]
            body_atoms.append(Atom(draw(_pred), args))
        head_args = tuple(draw(st.lists(st.sampled_from(vars_seen), max_size=3))) if vars_seen else ()
        choice_goals = ()
        if len(set(vars_seen)) >= 2 and draw(st.booleans()):
            vs = sorted(set(vars_seen), key=lambda v: v.name)
            choice_goals = (ChoiceGoal("choice", (vs[0],), (vs[1],)),)
        rules.append(Rule(Atom(draw(_pred), head_args), tuple(body_atoms), choice_goals))
    return Program(tuple(rules), tuple(facts))


@given(_programs())
def test_roundtrip_generated(p1):
    text = format_program(p1)
    p2 = _Parser(text).program()
    assert p1.rules == p2.rules and p1.facts == p2.facts
    assert format_program(p2) == text
