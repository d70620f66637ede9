"""Every method perfbench's tracer wraps by name exists on its owner in src/.

perfbench/tracer.py names its targets as (owner, attribute, name) triples
in SPAN_TARGETS and AGGREGATE_TARGETS, and Tracer.installed raises
AttributeError for one that is missing, so a rename in src/ would otherwise
show only in a traced benchmark run.  The module is read as source, not
imported: nothing under perfbench/ is executed or written.  A wrapped method
must also still run once per step it stands for, which the last test checks
for the two per-selection targets, in the generic and the factorized loop."""

import ast
import functools
import importlib
from pathlib import Path

import pytest

from gdlog.corpus import domain_facts, get_program, sparse_connected_graph
from gdlog.engine import run_with_counters
from gdlog.storage import ThetaTable

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
TARGET_LISTS = ("SPAN_TARGETS", "AGGREGATE_TARGETS")


def _targets() -> list[tuple[str, str]]:
    """(owner expression, attribute) of each target, e.g. ("storage.ThetaTable", "select_extreme")."""
    found = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in TARGET_LISTS:
            triples = [elt.elts for elt in node.value.elts]
            found[node.targets[0].id] = [(ast.unparse(owner), ast.literal_eval(attr)) for owner, attr, _ in triples]
    assert sorted(found) == sorted(TARGET_LISTS)
    return [t for name in TARGET_LISTS for t in found[name]]


def _resolve(owner: str):
    # owners are gdlog modules and their attributes: "engine.Engine"
    module, *rest = owner.split(".")
    obj = importlib.import_module(f"gdlog.{module}")
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_the_tracer_names_targets():
    assert len(_targets()) >= 10


@pytest.mark.parametrize("owner, attr", _targets(), ids=lambda v: v)
def test_tracer_target_exists(owner, attr):
    assert callable(getattr(_resolve(owner), attr, None)), f"{owner}.{attr}"


# dijkstra selects and purges once per step; the factorized sort stratum
# selects once per step and once more to find its domain table empty, and
# never purges
@pytest.mark.parametrize(
    "program, edb, knobs, iterations, selections, purges",
    [
        ("dijkstra", sparse_connected_graph(100, 400, seed=1, directed=True), {}, 99, 99, 99),
        ("sort", domain_facts(100, seed=1), {"factorize": True}, 100, 101, 0),
    ],
    ids=["dijkstra", "sort"],
)
def test_wrapped_selection_and_purge_run_once_per_selection(
    monkeypatch, program, edb, knobs, iterations, selections, purges
):
    # wrapped on the class, as the tracer wraps its aggregate targets: every
    # selection passes through the selection wrapper once, and every purge
    # through the purge wrapper
    calls = {"select_extreme": 0, "purge_conflicting": 0}

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        assert ("storage.ThetaTable", name) in _targets()
        monkeypatch.setattr(ThetaTable, name, counting(name, getattr(ThetaTable, name)))
    _, counters = run_with_counters(get_program(program), edb=edb, ties="lex", **knobs)
    assert counters.iterations == iterations
    assert calls == {"select_extreme": selections, "purge_conflicting": purges}
