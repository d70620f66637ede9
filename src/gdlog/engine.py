"""Fixpoint evaluation.

The engine computes stable models of choice programs bottom-up: strata are
evaluated in dependency order; within a stratum the non-choice rules are
closed by semi-naive iteration, and choice rules run the candidate/selection
loop: derive new candidate tuples differentially, buffer them in per-rule
theta tables, move one tuple per iteration into the chosen table, purge the
candidates it conflicts with, and re-close the non-choice rules.  Both
modes run this one loop and insert every fresh candidate; when a candidate
enters the priority queue is the theta table's decision alone.

With factorize, a stratum whose one choice rule chains a frontier value X to
a fresh database domain value Y (sort, sequence) keeps only the domain
column of theta: a ThetaTable over the domain values, filled once.  Each
step selects Y from it, chooses (X, Y) and moves the frontier to Y, so
selection, ties, counters and trace rows are those of every choice rule.

Each rule compiles to one full plan and one delta plan per body atom, all
ordered bound-first: a delta plan starts from its delta atom, the full plan
from nothing bound; every comparison or arithmetic goal goes in as soon as
its operands are bound, and otherwise the next goal is the atom with the
most constant or already-bound arguments (ties in source order), which is
then probed through an index on exactly those columns.  A builtin operand
that is still unbound where the plan reaches it is an EngineError.

run_with_counters is the one entry point: it builds an Engine, runs it and
returns the model together with its operation counters.  Nothing else in the
package evaluates rules with the compiled plans; the oracle keeps its own
naive matcher.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from typing import Iterable, Union

from . import analysis, tsvio
from .analysis import ChoiceInfo, RuleKind, Stratum
from .lang import (
    MAX_INT,
    MIN_INT,
    Atom,
    Comparison,
    Const,
    GdlogError,
    Program,
    Rule,
    Var,
    format_const,
    format_goal,
)
from .storage import ChosenTable, Counters, Relation, ThetaTable, Tup, resolve_ties


class EngineError(GdlogError):
    pass


EDB = dict[str, Iterable[Tup]]
PQ_SETTINGS = ("auto", "off")


class Interpretation:
    """The growing model of a fixpoint run: per-predicate relations covering
    database facts, derived facts and the per-rule chosen tables."""

    def __init__(self):
        self.relations: dict[str, Relation] = {}

    def rel(self, pred: str, arity: int | None = None) -> Relation:
        r = self.relations.get(pred)
        if r is None:
            if arity is None:
                raise EngineError(f"unknown predicate {pred}")
            r = Relation(pred, arity)
            self.relations[pred] = r
        return r

    def as_sets(self, skip: tuple[str, ...] = ()) -> dict[str, frozenset]:
        return {
            pred: frozenset(rel.rows)
            for pred, rel in self.relations.items()
            if rel.rows and not pred.startswith(skip)
        }

    def size(self) -> int:
        return sum(len(r) for r in self.relations.values())

    def sorted_lines(self) -> list[str]:
        return tsvio.model_lines({p: r.rows for p, r in self.relations.items()})


# ---------------------------------------------------------------------------
# Rule compilation: each rule becomes one full plan plus one plan per body
# atom occurrence that starts from that occurrence, which is where the
# differential (delta) rows are fed in.  Every plan orders the remaining goals
# bound-first (_bound_first_order).


@dataclass(frozen=True)
class _AtomStep:
    pred: str
    occ: int  # occurrence number among the rule's body atoms
    const_checks: tuple[tuple[int, Const], ...]
    self_checks: tuple[tuple[int, int], ...]  # same variable twice in one atom
    eq_checks: tuple[tuple[int, int], ...]  # (position, slot)
    binds: tuple[tuple[int, int], ...]  # (position, slot)
    index_cols: tuple[int, ...]  # constant + already-bound positions
    index_key: tuple[tuple[str, object], ...]  # ("const", v) / ("slot", i) per index col


@dataclass(frozen=True)
class _CompareStep:
    op: str
    left: tuple[str, object]
    right: tuple[str, object]


@dataclass(frozen=True)
class _PlusStep:
    out_slot: int
    left: tuple[str, object]
    right: tuple[str, object]
    # the output may be bound already (e.g. by the chosen atom a delta plan
    # starts from); then the step checks instead of binding
    out_bound: bool = False


_Step = Union[_AtomStep, _CompareStep, _PlusStep]


@dataclass
class _Plan:
    steps: tuple[_Step, ...]
    delta_occ: int | None  # occurrence fed from delta rows, None for full plan


@dataclass
class _CompiledRule:
    rule_id: str
    head_pred: str
    emit: tuple[tuple[str, object], ...]  # head or W template
    full_plan: _Plan
    delta_plans: dict[int, _Plan]  # per body-atom occurrence
    atom_preds: tuple[str, ...]  # predicate per occurrence


def _operand(term, slots) -> tuple[str, object]:
    if isinstance(term, Var):
        return ("slot", slots[term])
    return ("const", term)


def _bound_first_order(goals, start: int | None) -> list[int]:
    """Goal order of one plan (indices into goals), starting from the goal at
    start (the delta atom) or from nothing bound.  Each builtin goes in as
    soon as its operands are bound; otherwise the next goal is the atom with
    the most constant or already-bound arguments, ties in source order.
    Builtins whose operands no atom binds go last, where compilation rejects
    them."""
    order = [] if start is None else [start]
    bound = set() if start is None else set(goals[start].vars())
    rest = [i for i in range(len(goals)) if i != start]

    def bound_args(i: int) -> int:
        return sum(not isinstance(a, Var) or a in bound for a in goals[i].args)

    while rest:
        atoms = [i for i in rest if isinstance(goals[i], Atom)]
        ready = [
            i
            for i in rest
            if i not in atoms
            and all(t in bound for t in (goals[i].left, goals[i].right) if isinstance(t, Var))
        ]
        if ready:
            nxt = ready[0]
        elif atoms:
            nxt = max(atoms, key=lambda i: (bound_args(i), -i))
        else:
            nxt = rest[0]
        order.append(nxt)
        rest.remove(nxt)
        bound.update(goals[nxt].vars())
    return order


def _compile_goals(goals, slots, order: list[int], rule_id: str) -> tuple[_Step, ...]:
    """Compile body goals in the given goal order (indices into goals); a
    builtin operand left unbound at its position is an EngineError."""
    steps: list[_Step] = []
    bound: set[int] = set()
    # occurrence numbers follow the original body order, not the plan order
    occ_of = {}
    k = 0
    for gi, g in enumerate(goals):
        if isinstance(g, Atom):
            occ_of[gi] = k
            k += 1
    for gi in order:
        g = goals[gi]
        if isinstance(g, Atom):
            const_checks = []
            self_checks = []
            eq_checks = []
            binds = []
            first_pos: dict[int, int] = {}  # slot -> first position in this atom
            for pos, a in enumerate(g.args):
                if isinstance(a, Var):
                    slot = slots[a]
                    if slot in bound:
                        eq_checks.append((pos, slot))
                    elif slot in first_pos:
                        self_checks.append((pos, first_pos[slot]))
                    else:
                        binds.append((pos, slot))
                        first_pos[slot] = pos
                else:
                    const_checks.append((pos, a))
            index_cols = tuple(sorted([p for p, _ in const_checks] + [p for p, _ in eq_checks]))
            key = []
            cc = dict(const_checks)
            ec = dict(eq_checks)
            for col in index_cols:
                if col in cc:
                    key.append(("const", cc[col]))
                else:
                    key.append(("slot", ec[col]))
            steps.append(
                _AtomStep(
                    g.pred,
                    occ_of[gi],
                    tuple(const_checks),
                    tuple(self_checks),
                    tuple(eq_checks),
                    tuple(binds),
                    index_cols,
                    tuple(key),
                )
            )
            for _, s in binds:
                bound.add(s)
            continue
        for t in (g.left, g.right):
            if isinstance(t, Var) and slots[t] not in bound:
                raise EngineError(f"{rule_id}: variable {t.name} is unbound in {format_goal(g)}")
        if isinstance(g, Comparison):
            steps.append(_CompareStep(g.op, _operand(g.left, slots), _operand(g.right, slots)))
        else:
            out_slot = slots[g.out]
            steps.append(
                _PlusStep(out_slot, _operand(g.left, slots), _operand(g.right, slots), out_slot in bound)
            )
            bound.add(out_slot)
    return tuple(steps)


def _compile_rule(rule: Rule, emit_terms: tuple, goals: tuple) -> _CompiledRule:
    slots: dict[Var, int] = {}
    for g in goals:
        for v in g.vars():
            slots.setdefault(v, len(slots))
    if len(slots) > 64:
        raise EngineError(f"{rule.rule_id}: too many distinct variables ({len(slots)})")
    for t in emit_terms:
        if isinstance(t, Var) and t not in slots:
            raise EngineError(f"{rule.rule_id}: emitted variable {t.name} is unbound")
    emit = tuple(_operand(t, slots) for t in emit_terms)
    atom_idx = [i for i, g in enumerate(goals) if isinstance(g, Atom)]

    def plan(start: int | None) -> tuple[_Step, ...]:
        return _compile_goals(goals, slots, _bound_first_order(goals, start), rule.rule_id)

    full = _Plan(plan(None), None)
    delta_plans = {occ: _Plan(plan(gi), occ) for occ, gi in enumerate(atom_idx)}
    return _CompiledRule(
        rule_id=rule.rule_id,
        head_pred=rule.head.pred,
        emit=emit,
        full_plan=full,
        delta_plans=delta_plans,
        atom_preds=tuple(goals[i].pred for i in atom_idx),
    )


# ---------------------------------------------------------------------------
# Plan evaluation


class _Evaluator:
    """Executes compiled plans against an interpretation; per-rule cursors
    into the append-only relations make evaluation differential."""

    def __init__(self, interp: Interpretation, counters: Counters, arities: dict[str, int]):
        self.interp = interp
        self.counters = counters
        self.arities = arities

    def rel(self, pred: str) -> Relation:
        return self.interp.rel(pred, self.arities[pred])

    def prepare(self, cr: _CompiledRule) -> None:
        for plan in [cr.full_plan, *cr.delta_plans.values()]:
            for step in plan.steps:
                if isinstance(step, _AtomStep) and step.index_cols:
                    self.rel(step.pred).ensure_index(step.index_cols)

    def eval_plan(self, cr: _CompiledRule, plan: _Plan, delta_rows, rule_id: str):
        """Yield emitted tuples for every binding of the plan."""
        counters = self.counters
        env: list = [None] * 64

        def value(op):
            tag, v = op
            return env[v] if tag == "slot" else v

        def run(i: int):
            if i == len(plan.steps):
                counters.firings += 1
                yield tuple(value(op) for op in cr.emit)
                return
            step = plan.steps[i]
            if isinstance(step, _AtomStep):
                if plan.delta_occ is not None and step.occ == plan.delta_occ:
                    rows = delta_rows
                elif step.index_cols:
                    key = tuple(value(op) for op in step.index_key)
                    rows = self.rel(step.pred).lookup(step.index_cols, key)
                else:
                    rows = self.rel(step.pred).rows
                for t in rows:
                    counters.join_probes += 1
                    counters.work += 1
                    ok = True
                    for pos, c in step.const_checks:
                        if t[pos] != c:
                            ok = False
                            break
                    if ok:
                        for pos, first in step.self_checks:
                            if t[pos] != t[first]:
                                ok = False
                                break
                    if ok:
                        for pos, slot in step.eq_checks:
                            if t[pos] != env[slot]:
                                ok = False
                                break
                    if not ok:
                        continue
                    for pos, slot in step.binds:
                        env[slot] = t[pos]
                    yield from run(i + 1)
            elif isinstance(step, _CompareStep):
                if _compare(step.op, value(step.left), value(step.right), rule_id):
                    yield from run(i + 1)
            else:
                a, b = value(step.left), value(step.right)
                if not (isinstance(a, int) and isinstance(b, int)):
                    raise EngineError(f"{rule_id}: arithmetic over non-integers {a!r} + {b!r}")
                c = a + b
                if not (MIN_INT <= c <= MAX_INT):
                    raise EngineError(f"{rule_id}: arithmetic overflow computing {a} + {b}")
                if step.out_bound:
                    if env[step.out_slot] == c:
                        yield from run(i + 1)
                else:
                    env[step.out_slot] = c
                    yield from run(i + 1)

        yield from run(0)


def _compare(op: str, a, b, rule_id: str) -> bool:
    if op == "\\=":
        return a != b
    if not (isinstance(a, int) and isinstance(b, int)):
        raise EngineError(f"{rule_id}: order comparison over non-integers {a!r} {op} {b!r}")
    if op == "<":
        return a < b
    if op == "=<":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


class _DifferentialRule:
    """Tracks how much of each body relation a rule has already consumed and
    evaluates only the new suffixes."""

    def __init__(self, cr: _CompiledRule, ev: _Evaluator):
        self.cr = cr
        self.ev = ev
        self.cursors = [0] * len(cr.atom_preds)
        self.virgin = True

    def evaluate(self) -> list[Tup]:
        """Tuples derivable using at least one not-yet-seen body row (all
        tuples on the first call); duplicates are removed, order is the
        derivation order."""
        ev, cr = self.ev, self.cr
        out: list[Tup] = []
        seen: set[Tup] = set()

        def take(gen):
            for t in gen:
                if t not in seen:
                    seen.add(t)
                    out.append(t)

        if self.virgin:
            self.virgin = False
            snapshot = [len(ev.rel(p)) for p in cr.atom_preds]
            take(ev.eval_plan(cr, cr.full_plan, None, cr.rule_id))
            self.cursors = snapshot
            return out
        snapshot = [len(ev.rel(p)) for p in cr.atom_preds]
        for occ, pred in enumerate(cr.atom_preds):
            if self.cursors[occ] >= snapshot[occ]:
                continue
            delta = ev.rel(pred).rows[self.cursors[occ] : snapshot[occ]]
            take(ev.eval_plan(cr, cr.delta_plans[occ], delta, cr.rule_id))
        self.cursors = snapshot
        return out

    def pending_delta(self) -> bool:
        if self.virgin:
            return True
        return any(
            self.cursors[occ] < len(self.ev.rel(p)) for occ, p in enumerate(self.cr.atom_preds)
        )


class _Closure:
    """Semi-naive least fixpoint of a set of non-choice rules."""

    def __init__(self, compiled: list[_CompiledRule], ev: _Evaluator):
        self.rules = [_DifferentialRule(cr, ev) for cr in compiled]
        self.ev = ev

    def run(self) -> None:
        changed = True
        while changed:
            changed = False
            for dr in self.rules:
                if not dr.pending_delta():
                    continue
                rel = self.ev.rel(dr.cr.head_pred)
                for t in dr.evaluate():
                    self.ev.counters.work += 1
                    if rel.insert(t):
                        self.ev.counters.derived += 1
                        changed = True


# ---------------------------------------------------------------------------
# The engine


@dataclass
class _ChoiceState:
    rule: Rule
    info: ChoiceInfo
    cand: _DifferentialRule
    theta: ThetaTable
    chosen: ChosenTable


class Engine:
    """One fixpoint run over a validated program.

    mode "choice" runs the plain choice fixpoint (least/most goals read as
    ordinary choice goals); "greedy" runs the greedy computation with
    cost-based selection and unique-key retention, and needs a choice_least
    or choice_most rule; "auto" is greedy exactly when the program has one.
    Both modes run the same candidate loop.  Within a stratum the greedy
    computation tries least/most rules before pure ones and the choice
    fixpoint takes its rules in program order.  ties=None means lex, or
    random under a seed; pq is auto (heap-ordered selection for every table
    with a fixed order) or off (linear scans).

    A run is strictly sequential and owns its storage exclusively; run
    independent Engine instances for parallelism.  After run() returns, the
    per-rule chosen/theta tables stay readable on choice_tables.
    """

    def __init__(
        self,
        program: Program,
        *,
        edb: EDB | None = None,
        mode: str = "auto",
        pq: str = "auto",
        ties: str | None = None,
        seed: int | None = None,
        factorize: bool = False,
        trace=None,
    ):
        if pq not in PQ_SETTINGS:
            raise EngineError(f"unknown pq setting {pq!r}")
        self.program = program
        self.pq = pq
        self.factorize = factorize
        self.trace = trace
        self.counters = Counters()
        self.tie_policy, self.rng = resolve_ties(ties, seed)
        self.interp = Interpretation()
        self.factorized_strata: list[str] = []
        self.factorize_reasons: list[str] = []
        self.choice_tables: dict[str, tuple[ChosenTable, ThetaTable]] = {}

        self.arities = dict(program.predicates())
        self.infos: dict[str, ChoiceInfo] = {}
        for r in program.rules:
            if r.choice_goals:
                info = analysis.choice_info(r)
                self.infos[r.rule_id] = info
                self.arities[info.chosen_pred] = len(info.w_vars)
        self.greedy = self._resolve_mode(mode)
        graph = analysis.build_dependency_graph(program)
        self.plan = analysis.plan_subprograms(graph, program)
        self.ev = _Evaluator(self.interp, self.counters, self.arities)

        self._load_facts(edb)

    def _resolve_mode(self, mode: str) -> bool:
        if mode not in ("auto", "choice", "greedy"):
            raise EngineError(f"unknown mode {mode!r}")
        has_extreme = any(info.cost_pos is not None for info in self.infos.values())
        if mode == "greedy" and not has_extreme:
            raise EngineError("greedy fixpoint requires at least one choice_least or choice_most rule")
        return has_extreme if mode == "auto" else mode == "greedy"

    def _load_facts(self, edb: EDB | None) -> None:
        for f in self.program.facts:
            self.interp.rel(f.pred, f.arity).insert(f.args)
        if edb:
            for pred, rows in edb.items():
                for t in rows:
                    arity = self.arities.setdefault(pred, len(t))
                    self.interp.rel(pred, arity).insert(tuple(t))

    # -- compilation --------------------------------------------------------

    def _compile_nonchoice(self, rule: Rule) -> _CompiledRule:
        return _compile_rule(rule, rule.head.args, rule.body)

    def _compile_rewritten(self, rule: Rule, info: ChoiceInfo) -> _CompiledRule:
        # the rewritten rule head <- B(Z), chosen_r(W)
        chosen_atom = Atom(info.chosen_pred, info.w_vars)
        return _compile_rule(rule, rule.head.args, tuple(rule.body) + (chosen_atom,))

    def _compile_candidates(self, rule: Rule, info: ChoiceInfo) -> _CompiledRule:
        # the chosen rule chosen_r(W) <- B(Z), with conflicts checked against
        # the chosen table instead of a diffchoice relation
        return _compile_rule(rule, tuple(info.w_vars), rule.body)

    # -- run ----------------------------------------------------------------

    def run(self) -> Interpretation:
        t0 = time.perf_counter()
        for stratum in self.plan.strata:
            pattern = self._factorize_pattern(stratum) if self.factorize else None
            if self.factorize and pattern is None and any(
                r.choice_goals for r in stratum.rules
            ):
                self.factorize_reasons.append(
                    f"stratum {sorted(stratum.preds)}: candidate set is not a frontier x domain product"
                )
            if pattern is not None:
                self._run_stratum_factorized(*pattern)
            else:
                self._run_stratum(stratum)
        self.counters.wall_time_s += time.perf_counter() - t0
        return self.interp

    def _run_stratum(self, stratum: Stratum) -> None:
        nonchoice: list[_CompiledRule] = []
        states: list[_ChoiceState] = []
        for r in stratum.rules:
            if not r.choice_goals:
                nonchoice.append(self._compile_nonchoice(r))
                continue
            info = self.infos[r.rule_id]
            nonchoice.append(self._compile_rewritten(r, info))
            cand = _DifferentialRule(self._compile_candidates(r, info), self.ev)
            state = _ChoiceState(r, info, cand, self._theta_table(info), self._chosen_table(info))
            states.append(state)
            self.choice_tables[r.rule_id] = (state.chosen, state.theta)
        for cr in nonchoice:
            self.ev.prepare(cr)
        for st in states:
            self.ev.prepare(st.cand.cr)

        closure = _Closure(nonchoice, self.ev)
        closure.run()
        if not states:
            return
        # the greedy computation drains least/most rules first; the plain
        # choice fixpoint takes its rules in program order
        ordered = states
        if self.greedy:
            ordered = sorted(states, key=lambda s: s.info.kind is RuleKind.PURE_CHOICE)

        while True:
            selected: _ChoiceState | None = None
            for st in ordered:
                self._insert_fresh(st)
                if len(st.theta):
                    selected = st
                    break
            if selected is None:
                return
            delta = selected.theta.select_extreme()
            selected.chosen.insert(delta)
            purged = selected.theta.purge_conflicting(delta)
            self.counters.iterations += 1
            self._trace_row(selected.rule.rule_id, selected.theta, delta, purged)
            closure.run()

    def _insert_fresh(self, st: _ChoiceState) -> None:
        for t in st.cand.evaluate():
            self.counters.conflict_checks += 1
            self.counters.work += 1
            if t not in st.theta and not st.chosen.conflicts(t):
                st.theta.insert(t)

    def _theta_table(self, info: ChoiceInfo) -> ThetaTable:
        return ThetaTable(
            info,
            counters=self.counters,
            use_pq=self.pq != "off",
            tie_policy=self.tie_policy,
            rng=self.rng,
            treat_as_pure=not self.greedy,
        )

    def _chosen_table(self, info: ChoiceInfo) -> ChosenTable:
        return ChosenTable(info, self.ev.rel(info.chosen_pred))

    def _trace_row(self, rule_id: str, theta: ThetaTable, delta: Tup, purged: int) -> None:
        if self.trace is None:
            return
        self.trace.write(
            "\t".join(
                [
                    str(self.counters.iterations),
                    rule_id,
                    str(len(theta)),
                    ",".join(format_const(c) for c in delta),
                    str(purged),
                    str(self.interp.size()),
                ]
            )
            + "\n"
        )

    # -- factorized evaluation (candidates form a Cartesian product) --------

    def _factorize_pattern(self, stratum: Stratum):
        choice_rules = [r for r in stratum.rules if r.choice_goals]
        if len(choice_rules) != 1:
            return None
        r = choice_rules[0]
        others = [x for x in stratum.rules if x is not r]
        if others:
            return None
        if len(r.body) != 2 or not all(isinstance(g, Atom) for g in r.body):
            return None
        rec, dom = r.body  # type: ignore[misc]
        if rec.pred != r.head.pred or dom.arity != 1:
            return None
        if any(x.head.pred == dom.pred for x in self.program.rules):
            return None  # domain goal must be database-defined
        rec_named = [a for a in rec.args if isinstance(a, Var) and not a.name.startswith("_#")]
        if len(rec_named) != 1:
            return None
        x_var = rec_named[0]
        y = dom.args[0]
        if not isinstance(y, Var) or y == x_var:
            return None
        if r.head.args != (x_var, y):
            return None
        fds = {(c.left, c.right) for c in r.choice_goals}
        if fds != {((x_var,), (y,)), ((y,), (x_var,))}:
            return None
        info = self.infos[r.rule_id]
        if info.cost_pos is not None:
            goal = next(c for c in r.choice_goals if c.kind != "choice")
            if goal.left != (x_var,) or goal.right != (y,):
                return None
        starts = [f.args for f in self.program.facts if f.pred == r.head.pred]
        if len(starts) != 1 or len(starts[0]) != 2:
            return None
        if info.w_vars != (x_var, y):
            return None
        return (r, info, dom.pred, starts[0][1])

    def _run_stratum_factorized(self, rule: Rule, info: ChoiceInfo, dom_pred: str, start: Const) -> None:
        """Keep only the domain column of theta: a table over the domain
        values, filled once, from which each step takes the next y and
        chooses (x, y), y becoming the next x."""
        self.factorized_strata.append(rule.rule_id)
        dom_info = dataclasses.replace(
            info,
            w_vars=info.w_vars[1:],
            fds=(),
            unique_key=None,
            cost_pos=None if info.cost_pos is None else 0,
        )
        theta = self._theta_table(dom_info)
        chosen = self._chosen_table(info)
        self.choice_tables[rule.rule_id] = (chosen, theta)
        head_rel = self.interp.rel(rule.head.pred, 2)
        for t in self.interp.rel(dom_pred, 1).rows:
            theta.insert(t)

        x = start
        while len(theta):
            (y,) = theta.select_extreme()
            delta = (x, y)
            chosen.insert(delta)
            head_rel.insert(delta)
            self.counters.derived += 1
            self.counters.iterations += 1
            self._trace_row(rule.rule_id, theta, delta, 0)
            x = y


# ---------------------------------------------------------------------------
# Public operations


class _TraceTarget:
    """Resolves a trace argument (path, file object or None) and closes the
    file afterwards only if this helper opened it.  The GDLOG_TRACE variable
    mirrors the CLI flag."""

    def __init__(self, trace):
        if trace is None:
            trace = os.environ.get("GDLOG_TRACE") or None
        self._own = isinstance(trace, str)
        self.target = open(trace, "w", encoding="utf-8") if self._own else trace

    def __enter__(self):
        return self.target

    def __exit__(self, *exc):
        if self._own:
            self.target.close()
        return False


def run_with_counters(
    program: Program,
    *,
    mode: str = "auto",
    pq: str = "auto",
    ties: str | None = None,
    seed: int | None = None,
    edb: EDB | None = None,
    factorize: bool = False,
    trace=None,
) -> tuple[Interpretation, Counters]:
    """Run the program and report operation counters alongside the model.
    The knobs are Engine's; trace may also be a path, and GDLOG_TRACE
    stands in when it is None."""
    with _TraceTarget(trace) as tr:
        eng = Engine(
            program,
            edb=edb,
            mode=mode,
            pq=pq,
            ties=ties,
            seed=seed,
            factorize=factorize,
            trace=tr,
        )
        interp = eng.run()
    return interp, eng.counters
