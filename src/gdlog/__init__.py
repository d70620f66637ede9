"""gdlog: a bottom-up Datalog engine with nondeterministic choice and greedy
choice_least/choice_most selection, plus a brute-force stable-model oracle
and a counter-based benchmark harness."""

from .analysis import (
    ChoiceInfo,
    DependencyGraph,
    FD,
    FoeProgram,
    RuleKind,
    build_dependency_graph,
    classify_rules,
    foe_transform,
    plan_subprograms,
)
from .engine import (
    Counters,
    EngineError,
    Interpretation,
    run_with_counters,
)
from .lang import (
    Atom,
    ChoiceGoal,
    Comparison,
    Diagnostic,
    DialectSyntaxError,
    GdlogError,
    PlusBinding,
    Program,
    ProgramError,
    Rule,
    Var,
    format_program,
    format_rule,
    parse_program,
    validate,
)
from .oracle import (
    EnumerationError,
    GroundingError,
    StableCheckResult,
    check_stable_model,
    enumerate_choice_models,
    ground,
    run_lico_reference,
)
from .storage import ChosenTable, FDViolation, Relation, ThetaTable

__version__ = "0.1.0"
