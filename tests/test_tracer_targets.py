"""Every method perfbench's tracer wraps by name exists on its owner in src/.

perfbench/tracer.py names its targets as (owner, attribute, name) triples
in SPAN_TARGETS and AGGREGATE_TARGETS, and Tracer.installed raises
AttributeError for one that is missing, so a rename in src/ would otherwise
show only in a traced benchmark run.  The module is read as source, not
imported: nothing under perfbench/ is executed or written."""

import ast
import importlib
from pathlib import Path

import pytest

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
