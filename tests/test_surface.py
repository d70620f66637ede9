"""The settable surface of gdlog, pinned: every defaulted parameter of the
package's functions and methods, every dataclass field with a default, and
the values each knob with a fixed vocabulary accepts.  A change that adds
or removes a knob, or a value of one, shows it in this file's diff."""

import dataclasses
import importlib
import inspect
import pkgutil

import gdlog

SURFACE = [
    "bench.BenchReport.checks",
    "bench.BenchSpec.base_seed",
    "bench.BenchSpec.cost_max",
    "bench.BenchSpec.factorize",
    "bench.BenchSpec.family",
    "bench.BenchSpec.pq",
    "bench.BenchSpec.reps",
    "bench.BenchSpec.ties",
    "cli.main(argv)",
    "corpus.advisor_facts(seed)",
    "corpus.bipartite_graph(cost_max)",
    "corpus.bipartite_graph(n2)",
    "corpus.bipartite_graph(seed)",
    "corpus.complete_graph(cost_max)",
    "corpus.complete_graph(directed)",
    "corpus.complete_graph(seed)",
    "corpus.domain_facts(seed)",
    "corpus.sparse_connected_graph(cost_max)",
    "corpus.sparse_connected_graph(directed)",
    "corpus.sparse_connected_graph(seed)",
    "engine.Engine.__init__(edb)",
    "engine.Engine.__init__(factorize)",
    "engine.Engine.__init__(mode)",
    "engine.Engine.__init__(pq)",
    "engine.Engine.__init__(seed)",
    "engine.Engine.__init__(ties)",
    "engine.Engine.__init__(trace)",
    "lang.Diagnostic.line",
    "lang.Rule.line",
    "lang.Rule.rule_id",
    "lang._Parser.peek(ahead)",
    "oracle.EnumerationError.__init__(models)",
    "oracle._all_matches(budget)",
    "oracle.bipartite_matching_valid(edges)",
    "oracle.check_stable_model(complete_diffchoice)",
    "oracle.enumerate_choice_models(candidate_cap)",
    "oracle.enumerate_choice_models(cap)",
    "oracle.enumerate_choice_models(edb)",
    "oracle.ground(edb)",
    "oracle.run_lico_reference(edb)",
    "oracle.run_lico_reference(mode)",
    "oracle.run_lico_reference(seed)",
    "oracle.run_lico_reference(ties)",
    "storage.Counters.conflict_checks",
    "storage.Counters.derived",
    "storage.Counters.emissions",
    "storage.Counters.firings",
    "storage.Counters.iterations",
    "storage.Counters.join_probes",
    "storage.Counters.pq_ops",
    "storage.Counters.scan_steps",
    "storage.Counters.theta_deletes",
    "storage.Counters.theta_inserts",
    "storage.Counters.wall_time_s",
]

# the accepted values, by the name of the tuple that lists them
KNOB_VALUES = {
    "analysis.MODES": ("auto", "choice"),
    "engine.PQ_SETTINGS": ("auto", "off"),
    "storage.TIE_POLICIES": ("lex", "fifo", "random"),
}


def _defaulted(qualname, func):
    return [
        f"{qualname}({p.name})"
        for p in inspect.signature(func).parameters.values()
        if p.default is not inspect.Parameter.empty
    ]


def _settable_surface():
    out = []
    for info in pkgutil.iter_modules(gdlog.__path__):
        module = importlib.import_module(f"gdlog.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported, not defined here
            qualname = f"{info.name}.{name}"
            if inspect.isfunction(obj):
                out += _defaulted(qualname, obj)
            elif inspect.isclass(obj):
                is_dataclass = dataclasses.is_dataclass(obj)
                if is_dataclass:
                    out += [
                        f"{qualname}.{f.name}"
                        for f in dataclasses.fields(obj)
                        if f.default is not dataclasses.MISSING
                        or f.default_factory is not dataclasses.MISSING
                    ]
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    # a dataclass's generated __init__ repeats its field defaults
                    if inspect.isfunction(member) and not (is_dataclass and attr == "__init__"):
                        out += _defaulted(f"{qualname}.{attr}", member)
    return sorted(out)


def test_settable_surface_is_pinned():
    assert _settable_surface() == SURFACE


def test_knob_values_are_pinned():
    for name, values in KNOB_VALUES.items():
        module, attr = name.split(".")
        assert getattr(importlib.import_module(f"gdlog.{module}"), attr) == values, name
