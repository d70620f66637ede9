"""Randomized cross-validation of the differential engine against the
enumeration oracle and the unoptimized reference operator.

Programs come from a family of shapes (single/multiple choice goals,
multi-variable right sides, empty left sides, recursion through and around
choice rules, chained choice strata) over random fact sets with tiny cost
ranges, so equal-cost ties are frequent.  Every run must be a stable model,
appear in the exhaustive model enumeration, respect the declared FDs, and -
for greedy programs - coincide with the reference computation under
lexicographic ties."""

import random
import zlib

import pytest

from gdlog.analysis import choice_info, foe_transform
from gdlog.engine import run_with_counters
from gdlog.lang import parse_program
from gdlog.oracle import check_stable_model, enumerate_choice_models, ground, run_lico_reference

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


def _check_fds(prog, interp):
    for r in prog.rules:
        if not r.choice_goals:
            continue
        info = choice_info(r)
        for fd in info.fds:
            seen = {}
            for t in interp.rel(info.chosen_pred).rows:
                key = tuple(t[i] for i in fd.left)
                val = tuple(t[i] for i in fd.right)
                assert seen.setdefault(key, val) == val, (info.chosen_pred, fd)


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
        _check_fds(prog, interp)
        assert check_stable_model(g, _atoms(interp)).is_stable, (shape, trial)
        assert frozenset(_atoms(interp)) in model_keys, (shape, trial)

        # the reference operator lands in the same model set
        lazy = run_lico_reference(prog, "lazy", edb=edb, ties="random", seed=trial)
        assert frozenset(_atoms_of(lazy)) in model_keys, (shape, trial)

        if shape in GREEDY_SHAPES:
            greedy, _ = run_with_counters(prog, mode="greedy", ties="lex", edb=edb)
            _check_fds(prog, greedy)
            assert check_stable_model(g, _atoms(greedy)).is_stable, (shape, trial)
            assert frozenset(_atoms(greedy)) in model_keys, (shape, trial)
            ref = run_lico_reference(prog, "least", edb=edb, ties="lex")
            assert greedy.as_sets() == ref, (shape, trial)
            # both queue layouts agree tuple-for-tuple under lex ties
            off, _ = run_with_counters(prog, mode="greedy", ties="lex", edb=edb, pq="off")
            assert greedy.as_sets() == off.as_sets(), (shape, trial)


def _atoms_of(model: dict) -> set:
    return {(pred, t) for pred, ts in model.items() for t in ts}
