"""Randomized cross-validation of the differential engine against the
enumeration oracle and the unoptimized reference operator.

Programs come from a family of shapes (single/multiple choice goals,
multi-variable right sides, empty left sides, recursion through and around
choice rules, chained choice strata) over random fact sets with tiny cost
ranges, so equal-cost ties are frequent.  Every run must be a stable model,
appear in the exhaustive model enumeration, respect the declared FDs, and -
for greedy programs - coincide with the reference computation under
lexicographic ties."""

import dataclasses
import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from gdlog.analysis import choice_info, foe_transform
from gdlog.corpus import PROGRAMS, get_program
from gdlog.engine import Engine, run_with_counters
from gdlog.lang import Atom, Program, format_program, parse_program
from gdlog.oracle import check_stable_model, enumerate_choice_models, ground, run_lico_reference
from corpus_helpers import example_edb
from oracle_helpers import assert_fds_hold

SHAPES = {
    "single-fd": "h(X,Y) :- e2(X,Y), choice((X),(Y)).",
    "double-fd": "h(X,Y) :- e2(X,Y), choice((X),(Y)), choice((Y),(X)).",
    "least-frontier": "h(X,Y,C) :- e3(X,Y,C), choice((Y),(X)), choice_least((Y),(C)).",
    "most-frontier": "h(X,Y,C) :- e3(X,Y,C), choice((Y),(X)), choice_most((Y),(C)).",
    "multivar-right": "h(X,Y,C) :- e3(X,Y,C), choice((X),(Y,C)).",
    "global-one": "h(X) :- d(X), choice((),(X)).",
    "global-least": "h(X,C) :- ec(X,C), choice_least((),(C)).",
    "chained-strata": (
        "f(X) :- d(X), choice((),(X)).\n"
        "h(X,Y) :- f(X), e2(X,Y), choice((X),(Y)).\n"
    ),
    "recursive-pure": (
        "h(root,root).\n"
        "h(X,Y) :- h(_,X), d(Y), choice((X),(Y)), choice((Y),(X)).\n"
    ),
    "recursive-least": (
        "h(root,a,0).\n"
        "h(X,Y,C) :- h(_,X,_), e3(X,Y,C), Y \\= a, choice((Y),(X)), choice_least((Y),(C)).\n"
    ),
    "clique-mix": (
        "r(a).\n"
        "r(Y) :- s(X,Y).\n"
        "s(X,Y) :- r(X), e2(X,Y), choice((X),(Y)), choice((Y),(X)).\n"
    ),
    "choice-on-derived": (
        "t(X,Y) :- e2(X,Y).\n"
        "h(X,Y) :- t(X,Y), choice((Y),(X)).\n"
    ),
    "two-choice-clique": (
        "p(a).\n"
        "p(Y) :- cp(X,Y).\n"
        "p(Y) :- cq(X,Y).\n"
        "cp(X,Y) :- p(X), e2(X,Y), choice((X),(Y)).\n"
        "cq(Y,X) :- p(X), e2(X,Y), choice((Y),(X)).\n"
    ),
}

GREEDY_SHAPES = {"least-frontier", "most-frontier", "global-least", "recursive-least"}


def _random_edb(rng: random.Random) -> dict[str, list[tuple]]:
    nodes = ["a", "b", "c", "d"][: rng.randint(3, 4)]
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    rng.shuffle(pairs)
    e2 = sorted(pairs[: rng.randint(2, 5)])
    e3 = sorted((u, v, rng.randint(1, 3)) for (u, v) in pairs[: rng.randint(2, 5)])
    return {
        "e2": e2,
        "e3": e3,
        "d": [(x,) for x in nodes[: rng.randint(2, 3)]],
        "ec": [(x, rng.randint(1, 3)) for x in nodes],
    }


def _atoms(interp):
    return {(pred, t) for pred, ts in interp.as_sets().items() for t in ts}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_engine_against_oracle_and_reference(shape):
    prog = parse_program(SHAPES[shape])
    rng = random.Random(zlib.crc32(shape.encode()))
    for trial in range(15):
        edb = _random_edb(rng)
        g = ground(foe_transform(prog), edb)
        if g.candidate_count() > 14:
            continue
        models = enumerate_choice_models(prog, edb, cap=4096)
        assert models, (shape, trial)
        model_keys = {frozenset(_atoms_of(m)) for m in models}

        # nondeterministic fixpoint: stable and enumerable
        interp, _ = run_with_counters(prog, mode="choice", ties="random", seed=trial, edb=edb)
        assert_fds_hold(prog, interp.as_sets())
        assert check_stable_model(g, _atoms(interp)).is_stable, (shape, trial)
        assert frozenset(_atoms(interp)) in model_keys, (shape, trial)

        # the reference operator lands in the same model set
        ref = run_lico_reference(prog, "choice", edb=edb, ties="random", seed=trial)
        assert frozenset(_atoms_of(ref)) in model_keys, (shape, trial)

        if shape in GREEDY_SHAPES:
            greedy, _ = run_with_counters(prog, mode="auto", ties="lex", edb=edb)
            assert_fds_hold(prog, greedy.as_sets())
            assert check_stable_model(g, _atoms(greedy)).is_stable, (shape, trial)
            assert frozenset(_atoms(greedy)) in model_keys, (shape, trial)
            ref = run_lico_reference(prog, "auto", edb=edb, ties="lex")
            assert greedy.as_sets() == ref, (shape, trial)
            # both queue layouts agree tuple-for-tuple under lex ties
            off, _ = run_with_counters(prog, mode="auto", ties="lex", edb=edb, pq="off")
            assert greedy.as_sets() == off.as_sets(), (shape, trial)


def _atoms_of(model: dict) -> set:
    return {(pred, t) for pred, ts in model.items() for t in ts}


# FDs with a shared left side ------------------------------------------------
#
# A candidate conflicts with a chosen tuple when the two agree on an FD's left
# side and differ on its right side.  P1's two tuples agree on X and on Y and
# differ on Z, so neither FD makes them conflict and both are chosen.  In P2,
# retention on the key (X, Z) would drop (x,y2,z,5) for (x,y1,z,1), which the
# cheaper (x,y2,z2,0) then purges, though the declared FDs admit (x,y2,z,5).

P1 = "p(X,Y,Z,V) :- q(X,Y,Z,V), choice((X),(Y)), choice((Z),(V))."
P1_FACTS = [("a", "b", "c", "d"), ("a", "b", "e", "f")]
# the same FDs, with the second candidate derived only after the first is
# chosen, so the chosen table rather than a purge decides on it
P1_LATER = (
    "q(a,b,c,d).\n"
    "q(X,Y,e,f) :- p(X,Y,c,d).\n"
    "p(X,Y,Z,V) :- q(X,Y,Z,V), choice((X),(Y)), choice((Z),(V)).\n"
)
P2 = "p(X,Y,Z,C) :- q(X,Y,Z,C), choice((X),(Y)), choice_least((Z),(C))."
P2_FACTS = [("x", "y1", "z", 1), ("x", "y2", "z", 5), ("x", "y2", "z2", 0)]


@pytest.mark.parametrize("src, edb", [(P1, {"q": P1_FACTS}), (P1_LATER, {})], ids=["at-once", "later"])
@pytest.mark.parametrize("ties, seed", [("lex", None), ("fifo", None), ("random", 7)])
def test_a_candidate_equal_on_an_fd_right_side_is_chosen_too(src, edb, ties, seed):
    prog = parse_program(src)
    interp, _ = run_with_counters(prog, ties=ties, seed=seed, edb=edb)
    assert sorted(interp.relations["p"].rows) == P1_FACTS
    assert check_stable_model(ground(foe_transform(prog), edb), _atoms(interp)).is_stable


@pytest.mark.parametrize("pq", ["auto", "off"])
def test_unique_key_keeps_what_the_declared_fds_admit(pq):
    prog, edb = parse_program(P2), {"q": P2_FACTS}
    assert choice_info(prog.rules[0]).unique_key is None
    interp, _ = run_with_counters(prog, ties="lex", pq=pq, edb=edb)
    assert set(interp.relations["p"].rows) == {("x", "y2", "z2", 0), ("x", "y2", "z", 5)}
    assert interp.as_sets() == run_lico_reference(prog, "auto", edb=edb)
    assert check_stable_model(ground(foe_transform(prog), edb), _atoms(interp)).is_stable


# Generated single-rule programs over q/4: 1-3 choice goals, each with 0-2 left
# and 1-2 right variables, and maybe one choice_least on U, over tiny fact sets
# whose columns share their values, so FD left sides collide often

Q4_VARS = ("X", "Y", "Z", "U")


@st.composite
def _q4_programs(draw):
    goals = []
    for _ in range(draw(st.integers(1, 3))):
        right = draw(st.lists(st.sampled_from(Q4_VARS), min_size=1, max_size=2, unique=True))
        rest = [v for v in Q4_VARS if v not in right]
        left = draw(st.lists(st.sampled_from(rest), max_size=2, unique=True))
        goals.append(f"choice(({','.join(left)}),({','.join(right)}))")
    if draw(st.booleans()):
        left = draw(st.lists(st.sampled_from(Q4_VARS[:3]), max_size=2, unique=True))
        goals.insert(draw(st.integers(0, len(goals))), f"choice_least(({','.join(left)}),(U))")
    src = f"p(X,Y,Z,U) :- q(X,Y,Z,U), {', '.join(goals)}."
    sym = st.sampled_from("ab")
    facts = draw(st.lists(st.tuples(sym, sym, sym, st.integers(0, 2)), min_size=1, max_size=6, unique=True))
    return src, facts


@settings(max_examples=200, deadline=None)
@given(_q4_programs())
def test_generated_programs_give_stable_reference_models(case):
    src, facts = case
    prog, edb = parse_program(src), {"q": facts}
    g = ground(foe_transform(prog), edb)
    for mode in ("auto", "choice"):
        for ties, seed in (("lex", None), ("fifo", None), ("random", 7)):
            interp, _ = run_with_counters(prog, mode=mode, ties=ties, seed=seed, edb=edb)
            assert check_stable_model(g, _atoms(interp)).is_stable, (mode, ties)
            if ties == "lex":
                assert interp.as_sets() == run_lico_reference(prog, mode, edb=edb), mode
                # linear scans select what the priority queue does
                scanned, _ = run_with_counters(prog, mode=mode, ties=ties, pq="off", edb=edb)
                assert scanned.as_sets() == interp.as_sets(), (mode, "pq off")


# Metamorphic runs of the corpus: under lex ties the model depends on the
# program and the sets of database facts alone, not on the order of a
# relation's rows nor on the names of the predicates


def _renamed(prog: Program, edb: dict) -> tuple[Program, dict, dict]:
    """The program and database with every predicate renamed, the new names
    sorting in the reverse order of the old, and the map back."""
    preds = sorted(set(prog.predicates()) | set(edb))
    names = {p: f"p{len(preds) - i:02d}" for i, p in enumerate(preds)}

    def atom(a):
        return Atom(names[a.pred], a.args) if isinstance(a, Atom) else a

    rules = tuple(dataclasses.replace(r, head=atom(r.head), body=tuple(map(atom, r.body))) for r in prog.rules)
    renamed = parse_program(format_program(Program(rules, tuple(map(atom, prog.facts)))))
    return renamed, {names[p]: rows for p, rows in edb.items()}, {new: old for old, new in names.items()}


METAMORPHIC_RUNS = [
    (name, n, dict(mode=mode, pq=pq, factorize=factorize))
    for name in sorted(PROGRAMS)
    for n in (4, 6)
    for mode in ("auto", "choice")
    for pq in ("auto", "off")
    for factorize in ((False, True) if name in ("sort", "sequence") else (False,))
]


def _lex_model(prog: Program, edb: dict, knobs: dict) -> dict:
    eng = Engine(prog, edb=edb, ties="lex", **knobs)
    model = eng.run().as_sets()
    assert bool(eng.factorized_strata) == knobs["factorize"]
    assert any(pred.startswith("chosen_") for pred in model)
    return model


def test_models_ignore_row_order_and_predicate_names():
    for name, n, knobs in METAMORPHIC_RUNS:
        prog, edb = get_program(name), example_edb(name, n, seed=n)
        model = _lex_model(prog, edb, knobs)
        renamed, renamed_edb, back = _renamed(prog, {p: rows[::-1] for p, rows in edb.items()})
        other = _lex_model(renamed, renamed_edb, knobs)
        assert {back.get(p, p): rows for p, rows in other.items()} == model, (name, n, knobs)
