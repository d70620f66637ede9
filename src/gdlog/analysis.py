"""Static analysis: dependency graph, evaluation strata, rule classification,
functional-dependency extraction, and the chosen/diffchoice rewriting that
gives choice programs their stable-model reading.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from .lang import (
    Atom,
    BodyGoal,
    Comparison,
    Program,
    Rule,
    Var,
    format_atom,
    format_const,
    format_goal,
)

# the evaluation modes of the engine and the reference operator: "auto" is
# the greedy computation exactly when the program has a choice_least or
# choice_most rule, "choice" the plain choice fixpoint
MODES = ("auto", "choice")


class RuleKind(enum.Enum):
    NON_CHOICE = "non-choice"
    PURE_CHOICE = "pure-choice"
    CHOICE_LEAST = "choice-least"
    CHOICE_MOST = "choice-most"


def classify_rule(rule: Rule) -> RuleKind:
    if not rule.choice_goals:
        return RuleKind.NON_CHOICE
    for c in rule.choice_goals:
        if c.kind == "choice_least":
            return RuleKind.CHOICE_LEAST
        if c.kind == "choice_most":
            return RuleKind.CHOICE_MOST
    return RuleKind.PURE_CHOICE


def classify_rules(program: Program) -> dict[str, RuleKind]:
    """Tag every rule as non-choice, pure-choice, choice-least or choice-most."""
    return {r.rule_id: classify_rule(r) for r in program.rules}


# ---------------------------------------------------------------------------
# Dependency graph and subprogram plan


@dataclass(frozen=True)
class DependencyGraph:
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]  # (p, q): p directly depends on q
    cliques: tuple[frozenset[str], ...]  # maximal strong components, dependencies first


def build_dependency_graph(program: Program) -> DependencyGraph:
    nodes: set[str] = set(program.predicates())
    edges: set[tuple[str, str]] = set()
    for r in program.rules:
        for a in r.body_atoms():
            edges.add((r.head.pred, a.pred))
    cliques = _strong_components(sorted(nodes), edges)
    return DependencyGraph(frozenset(nodes), frozenset(edges), tuple(cliques))


def _strong_components(nodes: list[str], edges: set[tuple[str, str]]) -> list[frozenset[str]]:
    """Iterative Tarjan; components are emitted dependencies-first, which is
    exactly the evaluation order for subprograms."""
    succ: dict[str, list[str]] = {n: [] for n in nodes}
    for p, q in sorted(edges):
        succ[p].append(q)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out: list[frozenset[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ[child])))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                out.append(frozenset(comp))
    return out


@dataclass(frozen=True)
class Stratum:
    preds: frozenset[str]
    rules: tuple[Rule, ...]

    def is_recursive_clique(self) -> bool:
        return len(self.preds) > 1 or any(
            a.pred in self.preds for r in self.rules for a in r.body_atoms()
        )


def plan_subprograms(graph: DependencyGraph, program: Program) -> tuple[Stratum, ...]:
    """Group mutually recursive predicates and order the groups so every body
    predicate of a stratum is defined in the same or an earlier stratum;
    earlier results act as database facts for later strata."""
    by_head: dict[str, list[Rule]] = {}
    order = {r.rule_id: i for i, r in enumerate(program.rules)}
    for r in program.rules:
        by_head.setdefault(r.head.pred, []).append(r)
    strata = []
    for clique in graph.cliques:
        rules: list[Rule] = []
        for pred in sorted(clique):
            rules.extend(by_head.get(pred, []))
        rules.sort(key=lambda r: order[r.rule_id])
        strata.append(Stratum(clique, tuple(rules)))
    return tuple(strata)


# ---------------------------------------------------------------------------
# Functional dependencies and the per-rule chosen schema


@dataclass(frozen=True)
class FD:
    """left -> right as column positions over a rule's chosen schema W."""

    left: tuple[int, ...]
    right: tuple[int, ...]


@dataclass(frozen=True)
class ChoiceInfo:
    rule_id: str
    w_vars: tuple[Var, ...]  # canonical W: first-occurrence order in the body
    fds: tuple[FD, ...]  # one per choice goal, in goal order
    kind: RuleKind
    cost_pos: int | None  # W position of the cost variable for least/most
    unique_key: tuple[int, ...] | None  # least/most: the union of FD left sides, when sound
    chosen_pred: str
    diffchoice_pred: str


def choice_schema(rule: Rule) -> tuple[Var, ...]:
    """W for a choice rule: the union of all choice-goal variables, ordered by
    first occurrence in the body (a repo convention; see docs/dialect.md)."""
    wanted = {v for c in rule.choice_goals for v in c.vars()}
    ordered: list[Var] = []
    seen: set[Var] = set()

    def visit(v):
        if isinstance(v, Var) and v in wanted and v not in seen:
            seen.add(v)
            ordered.append(v)

    for g in rule.body:
        if isinstance(g, Atom):
            for t in g.args:
                visit(t)
        elif isinstance(g, Comparison):
            visit(g.left)
            visit(g.right)
        else:
            visit(g.left)
            visit(g.right)
            visit(g.out)
    return tuple(ordered)


def choice_info(rule: Rule) -> ChoiceInfo:
    """W, the FDs, and for a least/most rule the cost position and the unique
    key, the union of the FD left sides, on which theta keeps the best-cost
    candidate only.  Dropping the worse of two candidates equal on the key
    is sound when each chosen tuple conflicting with the better one also
    conflicts with it: when all FDs share one left side, or when every FD
    but the cost goal's has its right side in the key (a tuple chosen while
    the better one waits costs no more, so it differs from both on the
    cost).  Otherwise unique_key is None."""
    kind = classify_rule(rule)
    w = choice_schema(rule)
    pos = {v: i for i, v in enumerate(w)}
    fds = tuple(
        FD(tuple(pos[v] for v in c.left), tuple(pos[v] for v in c.right))
        for c in rule.choice_goals
    )
    cost_pos = unique_key = None
    if kind in (RuleKind.CHOICE_LEAST, RuleKind.CHOICE_MOST):
        i = next(i for i, c in enumerate(rule.choice_goals) if c.kind != "choice")
        cost_pos = pos[rule.choice_goals[i].right[0]]
        key = tuple(sorted({p for fd in fds for p in fd.left}))
        others = fds[:i] + fds[i + 1 :]
        if len({fd.left for fd in fds}) == 1 or all(set(fd.right) <= set(key) for fd in others):
            unique_key = key
    return ChoiceInfo(
        rule_id=rule.rule_id,
        w_vars=w,
        fds=fds,
        kind=kind,
        cost_pos=cost_pos,
        unique_key=unique_key,
        chosen_pred=f"chosen_{rule.rule_id}",
        diffchoice_pred=f"diffchoice_{rule.rule_id}",
    )


# ---------------------------------------------------------------------------
# First-order rewriting: chosen and diffchoice rules


@dataclass(frozen=True)
class VectorNeq:
    """Disjunctive disequality over variable pairs: true when at least one
    pair is bound to different constants."""

    pairs: tuple[tuple[Var, Var], ...]


FoeGoal = Union[BodyGoal, VectorNeq]


@dataclass(frozen=True)
class FoeRule:
    head: Atom
    pos_body: tuple[FoeGoal, ...]
    neg_body: tuple[Atom, ...]
    origin: str  # rule id of the source rule, "" for facts


@dataclass(frozen=True)
class FoeProgram:
    """The rewriting of a choice program into rules with negation.

    rewritten: the source rules with choice goals replaced by chosen_r(W)
    chosen: one rule per choice rule, with the negated diffchoice_r(W) goal
    diffchoice: one rule per choice goal, over the primed schema W'
    """

    rewritten: tuple[FoeRule, ...]
    chosen: tuple[FoeRule, ...]
    diffchoice: tuple[FoeRule, ...]
    facts: tuple[Atom, ...]
    infos: dict[str, ChoiceInfo]


def _prime(v: Var) -> Var:
    return Var(v.name + "'")


def foe_transform(program: Program) -> FoeProgram:
    """Replace each choice rule by its chosen/diffchoice constellation; rules
    without choice goals pass through unchanged."""
    rewritten: list[FoeRule] = []
    chosen: list[FoeRule] = []
    diffchoice: list[FoeRule] = []
    infos: dict[str, ChoiceInfo] = {}
    for r in program.rules:
        if not r.choice_goals:
            rewritten.append(FoeRule(r.head, tuple(r.body), (), r.rule_id))
            continue
        info = choice_info(r)
        infos[r.rule_id] = info
        w_atom = Atom(info.chosen_pred, info.w_vars)
        d_atom = Atom(info.diffchoice_pred, info.w_vars)
        rewritten.append(FoeRule(r.head, tuple(r.body) + (w_atom,), (), r.rule_id))
        chosen.append(FoeRule(w_atom, tuple(r.body), (d_atom,), r.rule_id))
        for goal in r.choice_goals:
            keep = set(goal.left)
            primed_w = tuple(v if v in keep else _prime(v) for v in info.w_vars)
            neq = VectorNeq(tuple((v, _prime(v)) for v in goal.right))
            diffchoice.append(
                FoeRule(d_atom, (Atom(info.chosen_pred, primed_w), neq), (), r.rule_id)
            )
    return FoeProgram(tuple(rewritten), tuple(chosen), tuple(diffchoice), program.facts, infos)


def format_foe_rule(r: FoeRule) -> str:
    parts = []
    for g in r.pos_body:
        if isinstance(g, VectorNeq):
            parts.append(" ; ".join(f"{a.name} \\= {b.name}" for a, b in g.pairs))
        else:
            parts.append(format_goal(g))
    parts += [f"not {format_atom(a)}" for a in r.neg_body]
    if not parts:
        return f"{format_atom(r.head)}."
    return f"{format_atom(r.head)} :- {', '.join(parts)}."


def format_foe_program(foe: FoeProgram) -> str:
    lines = [f"{format_atom(f)}." for f in foe.facts]
    lines += [format_foe_rule(r) for r in foe.rewritten + foe.chosen + foe.diffchoice]
    return "\n".join(lines) + "\n"


def format_plan(strata: tuple[Stratum, ...]) -> str:
    lines = []
    for i, s in enumerate(strata, 1):
        preds = ", ".join(format_const(p) for p in sorted(s.preds))
        kinds = {r.rule_id: classify_rule(r).value for r in s.rules}
        tag = " recursive" if s.is_recursive_clique() else ""
        lines.append(f"stratum {i}{tag}: {preds} rules={kinds if kinds else '{}'}")
    return "\n".join(lines) + "\n"
