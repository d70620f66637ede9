"""Fixpoint evaluation.

The engine computes stable models of choice programs bottom-up: strata are
evaluated in dependency order; within a stratum the non-choice rules are
closed by semi-naive iteration, and choice rules run the candidate/selection
loop: derive new candidate tuples differentially, buffer them in per-rule
theta tables, select one tuple per iteration, record it in chosen_r (the
table's chosen side) and purge the candidates it conflicts with
(ThetaTable.choose), commit it (Engine._commit), and re-close the
non-choice rules.  Both modes run this one loop and insert every fresh
candidate; when a candidate enters the priority queue is the theta table's
decision alone.  When W binds every head variable, a commit writes the head
tuple to the head, so the rewritten rule head <- B(Z), chosen_r(W) is
compiled only for a rule with a head variable outside W.

The loop binds each choice rule's callables once, when its stratum starts:
the candidate rule's evaluate, the table's admit, select_extreme and choose,
and the table's entries, whose truth says whether it holds a candidate.  A
selection is then a flat run of those calls, each into code generated for
its plan or table shape, and the closure is re-run only when it has
rules: rules that are not choice rules, or a choice rule's rewritten rule.
select_extreme and choose (which calls purge_conflicting) are still looked
up on the ThetaTable class, so a wrapper installed there before the run
sees every selection and purge.

With factorize, a stratum whose one choice rule is exactly
h(X, Y) :- h(_, X), dom(Y) (sort, sequence), which chains a frontier value
X to a fresh database domain value Y, keeps only the domain column of
theta: a ThetaTable over the domain values, filled once and emptied by
select_extreme, called once per step as in the generic loop.  Each step
takes the next Y from it, writes (X, Y) to chosen_r, commits it and moves
the frontier to Y.  No FD is checked: the pattern's one start value is not
a domain value and the domain rows are distinct, so the chain repeats no X
and no Y, and both FDs X -> Y and Y -> X hold.

Each rule compiles to one full plan and one delta plan per body atom that
can grow while its stratum runs: its relation is a head of the stratum or
one of the stratum's chosen_r relations, and every other relation is
complete before the stratum starts.  All are ordered bound-first: a delta
plan starts from its delta atom, the full plan from nothing bound; every
comparison or arithmetic goal goes in as soon as its operands are bound,
and otherwise the next goal is the atom with the most constant or
already-bound arguments (ties in source order), which is then probed
through an index on exactly those columns.  A builtin operand that is
still unbound where the plan reaches it is an EngineError.

Every plan compiles once, when its stratum starts, into a generated Python
function, written in one pass over the goals in that order: nested for
loops over the atoms' rows, the rule's variables as local names, inline
checks and builtins, and the head tuple deduplicated into the caller's
output list.  storage.generate compiles it under a name that says which
plan it is, such as <gdlog plan r2 delta 1>, so a profiler keeps one entry
per plan.

run_with_counters is the one entry point: it builds an Engine, runs it and
returns the model together with its operation counters.  Nothing else in the
package evaluates rules with the compiled plans; the oracle keeps its own
naive matcher.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Optional

from . import analysis, tsvio
from .analysis import FD, ChoiceInfo, RuleKind, Stratum
from .lang import (
    MAX_INT,
    MIN_INT,
    RESERVED_PREFIXES,
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
from .storage import Counters, Relation, ThetaTable, Tup, generate, key_source, projector, resolve_ties, tuple_source


class EngineError(GdlogError):
    pass


EDB = dict[str, Iterable[Tup]]
PQ_SETTINGS = ("auto", "off")
MODES = ("auto", "choice", "greedy")


class Interpretation:
    """The growing model of a fixpoint run: per-predicate relations covering
    database facts, derived facts and the per-rule chosen tables."""

    def __init__(self):
        self.relations: dict[str, Relation] = {}

    def rel(self, pred: str, arity: int) -> Relation:
        """The relation of pred, made empty with that arity on first use."""
        r = self.relations.get(pred)
        if r is None:
            r = self.relations[pred] = Relation(pred, arity)
        return r

    def as_sets(self) -> dict[str, frozenset]:
        return {pred: frozenset(rel.rows) for pred, rel in self.relations.items() if rel.rows}

    def sorted_lines(self) -> list[str]:
        return tsvio.model_lines({p: r.rows for p, r in self.relations.items()})


# ---------------------------------------------------------------------------
# Rule compilation: each rule compiles to one full plan plus one delta plan
# per occurrence of a body atom that can grow, which starts from that
# occurrence: that is where the differential (delta) rows are fed in.  Every
# plan orders the goals bound-first (_bound_first_order), and _plan_function
# writes its generated function straight from the goals in that order.


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


# ---------------------------------------------------------------------------
# Plan evaluation: every plan compiles once into a generated function with
# one nested for loop per atom and locals v<slot> for the variables.  The
# source text holds only names made from slot and goal-position numbers,
# column positions, Python operators and the 64-bit bounds; constants,
# relations, lookup methods, the error class and its message texts reach it
# through generate as the values of k<n> names, so no symbol of a program can
# change the generated code.

# CPython allows 20 statically nested blocks per function; a plan with more
# atoms continues in a further function after this many loops
_MAX_LOOPS = 16
_NEGATED = {"<": ">=", "=<": ">", ">": "<=", ">=": "<"}  # negated order comparisons


def _plan_function(
    rule_id: str,
    name: str,
    emit: tuple,
    goals: tuple,
    slots: dict[Var, int],
    start: int | None,
    rel: Callable[[str], Relation],
) -> Callable[[Optional[list], set, list], tuple[int, int]]:
    """Compile the plan of goals that starts from the atom at start (None:
    from nothing bound) into f(delta, seen, out) -> (probes, firings), named
    name.  Each emit tuple the plan derives is appended to out unless it is
    in seen; delta holds the rows of the start atom.  probes counts the rows
    the loops iterate, firings the tuples built, duplicates included.
    Creates the indexes the plan probes; a builtin operand still unbound
    where the plan reaches it is an EngineError."""
    values: dict[str, object] = {}

    def bind(value) -> str:
        k = f"k{len(values)}"
        values[k] = value
        return k

    def term(t) -> str:
        return f"v{slots[t]}" if isinstance(t, Var) else bind(t)

    def error(message: str, *operands: str) -> str:
        return f"raise {bind(EngineError)}({bind(message)}.format({bind(rule_id)}, {', '.join(operands)}))"

    funcs: list[list[str]] = []
    bound: list[int] = []  # slots bound so far, in binding order

    def open_function(params: str) -> list[str]:
        funcs.append([f"def f{len(funcs)}(delta, seen, out{params}):", "    probes = fired = 0"])
        return funcs[-1]

    body = open_function("")
    depth, loops = 1, 0
    for i, gi in enumerate(_bound_first_order(goals, start)):
        g = goals[gi]
        if isinstance(g, Atom) and loops == _MAX_LOOPS:
            args = "".join(f", v{s}" for s in bound)
            pad = "    " * depth
            body += [
                f"{pad}p, f = f{len(funcs)}(delta, seen, out{args})",
                f"{pad}probes += p",
                f"{pad}fired += f",
            ]
            body = open_function(args)
            depth, loops = 1, 0
        pad = "    " * depth
        skip = "continue" if loops else "return 0, 0"
        if isinstance(g, Atom):
            # constant and already-bound positions: an index lookup matches
            # them, except on the delta atom, whose rows are checked inline
            keyed = tuple(p for p, a in enumerate(g.args) if not isinstance(a, Var) or slots[a] in bound)
            cols = [f"a{i}_{p}" for p in range(len(g.args))]
            checks = []
            fresh: list[int] = []  # slots this atom binds
            for p, a in enumerate(g.args):
                if p in keyed:
                    continue
                if slots[a] in fresh:  # same variable twice in one atom
                    checks.append(f"{cols[p]} != v{slots[a]}")
                else:
                    fresh.append(slots[a])
                    cols[p] = f"v{slots[a]}"
            r = rel(g.pred)
            if gi == start:
                rows = "delta"
                checks += [f"{cols[p]} != {bind(g.args[p])}" for p in keyed]
            elif keyed:
                r.ensure_index(keyed)
                # the bare constant for one column (the storage key rule)
                key = key_source([term(g.args[p]) for p in keyed])
                rows = f"{bind(r.lookup)}({keyed!r}, {key})"
            else:
                rows = bind(r.rows)
            bound += fresh
            body += [
                f"{pad}rows{i} = {rows}",
                f"{pad}probes += len(rows{i})",
                f"{pad}for {tuple_source(cols)} in rows{i}:",
            ]
            if checks:
                body.append(f"{pad}    if {' or '.join(checks)}: continue")
            depth += 1
            loops += 1
            continue
        for t in (g.left, g.right):
            if isinstance(t, Var) and slots[t] not in bound:
                raise EngineError(f"{rule_id}: variable {t.name} is unbound in {format_goal(g)}")
        a, b = term(g.left), term(g.right)
        if isinstance(g, Comparison) and g.op == "\\=":
            body.append(f"{pad}if {a} == {b}: {skip}")
        elif isinstance(g, Comparison):
            err = error("{}: order comparison over non-integers {!r} {} {!r}", a, bind(g.op), b)
            body += [
                f"{pad}if not (isinstance({a}, int) and isinstance({b}, int)): {err}",
                f"{pad}if {a} {_NEGATED[g.op]} {b}: {skip}",
            ]
        else:
            # the output may be bound already (e.g. by the chosen atom a
            # delta plan starts from); then the sum is checked against it
            out = slots[g.out]
            target = f"s{i}" if out in bound else f"v{out}"
            body += [
                f"{pad}if not (isinstance({a}, int) and isinstance({b}, int)):"
                f" {error('{}: arithmetic over non-integers {!r} + {!r}', a, b)}",
                f"{pad}{target} = {a} + {b}",
                f"{pad}if not ({MIN_INT} <= {target} <= {MAX_INT}):"
                f" {error('{}: arithmetic overflow computing {} + {}', a, b)}",
            ]
            if out in bound:
                body.append(f"{pad}if {target} != v{out}: {skip}")
            else:
                bound.append(out)
    pad = "    " * depth
    body += [
        f"{pad}fired += 1",
        f"{pad}h = {tuple_source([term(t) for t in emit])}",
        f"{pad}if h not in seen:",
        f"{pad}    seen.add(h)",
        f"{pad}    out.append(h)",
    ]
    return generate(name, [line for f in funcs for line in f + ["    return probes, fired"]], values)


class _DifferentialRule:
    """One rule, emit <- goals, compiled to its full plan and one delta plan
    per body atom that can grow: one whose predicate is in grows, the
    relations the rule's stratum derives or chooses into.  Every other body
    relation is complete before the stratum starts, so after the full plan
    it has no new rows and its delta plan would never run.  Tracks how much
    of each growing relation it has already consumed and evaluates only the
    new suffixes."""

    def __init__(
        self,
        rule_id: str,
        name: str,
        emit: tuple,
        goals: tuple,
        rel: Callable[[str], Relation],
        counters: Counters,
        grows: Collection[str],
    ):
        slots: dict[Var, int] = {}
        for g in goals:
            for v in g.vars():
                slots.setdefault(v, len(slots))
        if len(slots) > 64:
            raise EngineError(f"{rule_id}: too many distinct variables ({len(slots)})")
        for t in emit:
            if isinstance(t, Var) and t not in slots:
                raise EngineError(f"{rule_id}: emitted variable {t.name} is unbound")
        atoms = [i for i, g in enumerate(goals) if isinstance(g, Atom) and g.pred in grows]
        self.counters = counters
        self.rows = [rel(goals[i].pred).rows for i in atoms]  # per growing body-atom occurrence
        self.cursors = [0] * len(atoms)
        self.virgin = True
        self.full = _plan_function(rule_id, f"plan {name} full", emit, goals, slots, None, rel)
        self.deltas = [_plan_function(rule_id, f"plan {name} delta {i}", emit, goals, slots, i, rel) for i in atoms]

    def evaluate(self) -> list[Tup]:
        """Tuples derivable using at least one not-yet-seen body row (all
        tuples on the first call); duplicates are removed, order is the
        derivation order."""
        out: list[Tup] = []
        seen: set[Tup] = set()
        counters, cursors = self.counters, self.cursors
        if self.virgin:
            self.virgin = False
            self.cursors = [len(rows) for rows in self.rows]
            probes, fired = self.full(None, seen, out)
            counters.join_probes += probes
            counters.firings += fired
            return out
        # the plans only read relations: each length read here is the
        # length the relation had when the call began
        for k, rows in enumerate(self.rows):
            lo, hi = cursors[k], len(rows)
            if lo < hi:
                cursors[k] = hi
                probes, fired = self.deltas[k](rows[lo:hi], seen, out)
                counters.join_probes += probes
                counters.firings += fired
        return out

    def pending_delta(self) -> bool:
        return self.virgin or any(c < len(rows) for c, rows in zip(self.cursors, self.rows))


class _Closure:
    """Semi-naive least fixpoint of a set of non-choice rules."""

    def __init__(self, rules: list[tuple[_DifferentialRule, Relation]], counters: Counters):
        self.rules = rules  # each rule with its head relation
        self.counters = counters

    def run(self) -> None:
        counters = self.counters
        changed = True
        while changed:
            changed = False
            for dr, head in self.rules:
                if not dr.pending_delta():
                    continue
                ts = dr.evaluate()
                counters.emissions += len(ts)
                for t in ts:
                    if head.insert(t):
                        counters.derived += 1
                        changed = True


# ---------------------------------------------------------------------------
# The engine


def _rewritten_goals(rule: Rule, info: ChoiceInfo) -> Optional[tuple]:
    """The goals of a choice rule's rewritten rule head <- B(Z), chosen_r(W)
    for the closure, or None when W binds every head variable: every
    chosen_r row is a candidate B(Z) derived, and relations only grow within
    a run, so the rule would derive exactly the head tuple projected from
    each chosen tuple, which the commit step writes instead.  With a head
    variable outside W, each chosen W gives the head tuples of every body
    match."""
    if set(rule.head.vars()) <= set(info.w_vars):
        return None
    return rule.body + (Atom(info.chosen_pred, info.w_vars),)


def _head_projection(head: Atom, w_vars: tuple[Var, ...]) -> Callable[[Tup], Tup]:
    """The head tuple of a chosen W tuple, for a head whose variables W all
    binds: one C call (tuple returns a tuple unchanged, so a head that is W
    itself shares the chosen tuple), except for a head with constants."""
    if head.args == w_vars:
        return tuple
    if all(isinstance(a, Var) for a in head.args):
        return projector(tuple(w_vars.index(a) for a in head.args))
    cols = [(w_vars.index(a), None) if isinstance(a, Var) else (None, a) for a in head.args]
    return lambda t: tuple(a if i is None else t[i] for i, a in cols)


@dataclass
class _ChoiceState:
    rule: Rule
    info: ChoiceInfo
    # the candidate rule chosen_r(W) <- B(Z); None for a factorized stratum,
    # whose domain table is filled once
    cand: Optional[_DifferentialRule]
    theta: ThetaTable
    head_rel: Relation
    # the head tuple of a chosen tuple, or None when the closure derives
    # the head through the rewritten rule
    head: Optional[Callable[[Tup], Tup]]


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
    independent Engine instances for parallelism.  trace is a text stream
    that gets one TSV row per selection, or None.
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

        self.arities = dict(program.predicates())
        self.infos: dict[str, ChoiceInfo] = {}
        for r in program.rules:
            if r.choice_goals:
                info = analysis.choice_info(r)
                self.infos[r.rule_id] = info
                self.arities[info.chosen_pred] = len(info.w_vars)
        self.greedy = self._resolve_mode(mode)
        graph = analysis.build_dependency_graph(program)
        self.strata = analysis.plan_subprograms(graph, program)

        self._load_facts(edb)
        # atoms after loading: the model then grows by one atom per derived
        # and per chosen tuple, which is how the trace counts model size
        self._loaded = sum(map(len, self.interp.relations.values()))

    def _resolve_mode(self, mode: str) -> bool:
        if mode not in MODES:
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
                # chosen_r rows come only from selection: the head the commit
                # step writes relies on each being a candidate its rule derived
                if pred.startswith(RESERVED_PREFIXES):
                    raise EngineError(f"database predicate {pred} uses a reserved prefix")
                # a model line starting with '%' is a comment to read_model
                if pred.startswith("%"):
                    raise EngineError(f"database predicate {pred} starts with '%'")
                rows = list(map(tuple, rows))
                if rows:
                    arity = self.arities.setdefault(pred, len(rows[0]))
                    self.interp.rel(pred, arity).insert_all(rows)

    def _rel(self, pred: str) -> Relation:
        return self.interp.rel(pred, self.arities[pred])

    # -- run ----------------------------------------------------------------

    def run(self) -> Interpretation:
        t0 = time.perf_counter()
        for stratum in self.strata:
            pattern = self._factorize_pattern(stratum) if self.factorize else None
            if pattern is not None:
                self._run_stratum_factorized(*pattern)
            else:
                self._run_stratum(stratum)
        self.counters.wall_time_s += time.perf_counter() - t0
        return self.interp

    def _run_stratum(self, stratum: Stratum) -> None:
        # the relations that can grow while the stratum runs: its heads and
        # its chosen_r relations; only their body atoms get delta plans
        grows = {r.head.pred for r in stratum.rules}
        grows |= {self.infos[r.rule_id].chosen_pred for r in stratum.rules if r.rule_id in self.infos}
        rules: list[tuple[_DifferentialRule, Relation]] = []
        states: list[_ChoiceState] = []
        for r in stratum.rules:
            info = self.infos.get(r.rule_id)
            head_rel = self._rel(r.head.pred)
            # a choice rule runs as its rewritten rule, unless the commit
            # step writes its head (see _rewritten_goals)
            goals = r.body if info is None else _rewritten_goals(r, info)
            if goals is not None:
                dr = _DifferentialRule(r.rule_id, r.rule_id, r.head.args, goals, self._rel, self.counters, grows)
                rules.append((dr, head_rel))
            if info is None:
                continue
            # and the chosen rule chosen_r(W) <- B(Z), with conflicts checked
            # against the theta table's chosen side instead of a diffchoice
            # relation
            name = f"{r.rule_id} candidates"
            cand = _DifferentialRule(r.rule_id, name, info.w_vars, r.body, self._rel, self.counters, grows)
            head = None if goals is not None else _head_projection(r.head, info.w_vars)
            theta = self._theta_table(info, self._rel(info.chosen_pred))
            states.append(_ChoiceState(r, info, cand, theta, head_rel, head))

        closure = _Closure(rules, self.counters)
        closure.run()
        if not states:
            return
        # the greedy computation drains least/most rules first; the plain
        # choice fixpoint takes its rules in program order
        if self.greedy:
            states.sort(key=lambda s: s.info.kind is RuleKind.PURE_CHOICE)
        # each rule's callables and its table's entries, bound once: a step
        # admits the rules' new candidates in that order until a table holds
        # one, selects from it, chooses, commits and re-runs the closure if
        # it has rules
        steps = [
            (s.cand.evaluate, s.theta.admit, s.theta._entries, s.theta.select_extreme, s.theta.choose, s)
            for s in states
        ]
        commit, reclose = self._commit, closure.run if rules else None
        while True:
            for evaluate, admit, entries, select, choose, st in steps:
                admit(evaluate())
                if entries:
                    break
            else:
                return
            delta = select()
            commit(st, delta, choose(delta))
            if reclose is not None:
                reclose()

    def _theta_table(self, info: ChoiceInfo, chosen: Relation) -> ThetaTable:
        if not self.greedy:
            # the plain choice fixpoint reads least/most goals as ordinary
            # choice goals: no cost order and no unique-key retention
            info = dataclasses.replace(info, kind=RuleKind.PURE_CHOICE, cost_pos=None, unique_key=None)
        return ThetaTable(info, chosen, self.counters, self.pq != "off", self.tie_policy, self.rng)

    def _commit(self, st: _ChoiceState, delta: Tup, purged: int) -> None:
        """Store a selection, in both loops, once delta is in chosen_r: the
        trace row is written (its model size counts delta, not yet the head
        tuple), and then the head tuple goes to the head if this step writes
        it."""
        c = self.counters
        c.iterations += 1
        if self.trace is not None:
            chosen = ",".join(format_const(v) for v in delta)
            size = self._loaded + c.derived + c.iterations
            row = f"{c.iterations}\t{st.rule.rule_id}\t{len(st.theta)}\t{chosen}\t{purged}\t{size}\n"
            self.trace.write(row)
        if st.head is not None and st.head_rel.insert(st.head(delta)):
            c.derived += 1

    # -- factorized evaluation (candidates form a Cartesian product) --------

    def _factorize_pattern(self, stratum: Stratum):
        # one rule head(X, Y) :- head(_, X), dom(Y), dom from the database,
        # with W = (X, Y), FDs X -> Y and Y -> X, and no cost or a cost on Y
        if len(stratum.rules) != 1:
            return None
        r = stratum.rules[0]
        info = self.infos.get(r.rule_id)
        if info is None or info.w_vars != r.head.args:
            return None
        if set(info.fds) != {FD((0,), (1,)), FD((1,), (0,))} or info.cost_pos not in (None, 1):
            return None
        if len(r.body) != 2 or not all(isinstance(g, Atom) for g in r.body):
            return None
        x, y = info.w_vars
        rec, dom = r.body  # type: ignore[misc]
        if rec.pred != r.head.pred or dom.args != (y,):
            return None
        # the chain continues from every chosen Y only through head(_, X): a
        # constant or X in the first column matches just some chosen tuples
        first, frontier = rec.args
        if not (isinstance(first, Var) and first.name.startswith("_#")) or frontier != x:
            return None
        if any(o.head.pred == dom.pred for o in self.program.rules):
            return None
        # the chain starts from the head relation's one loaded tuple; with a
        # second one, or a start value that is also a domain value, the
        # generic loop can choose other tuples (a second frontier, or the
        # chain back at its start), so it runs instead
        starts = self._rel(r.head.pred).rows
        if len(starts) != 1 or starts[0][1:] in self._rel(dom.pred):
            return None
        return (r, info, dom.pred, starts[0][1])

    def _run_stratum_factorized(self, rule: Rule, info: ChoiceInfo, dom_pred: str, start: Const) -> None:
        """Keep only the domain column of theta: a table over the domain
        values, filled once and emptied, from which each step takes the next
        y, writes (x, y) to chosen_r and commits it, y becoming the next x.
        The domain table chooses nothing (its chosen side is an empty
        relation of its own) and has no FD, so no FD is checked:
        _factorize_pattern admits only FDs {X -> Y, Y -> X}, one start tuple
        whose frontier value is not a domain value, and a database domain,
        whose rows are distinct.  So
        the x values (the start, then each y but the last) are pairwise
        distinct, and so are the y values: both FDs hold."""
        self.factorized_strata.append(rule.rule_id)
        dom_info = dataclasses.replace(
            info,
            w_vars=info.w_vars[1:],
            fds=(),
            unique_key=None,
            cost_pos=None if info.cost_pos is None else 0,
        )
        theta = self._theta_table(dom_info, Relation(info.chosen_pred, 1))
        theta.admit(self.interp.rel(dom_pred, 1).rows)
        chosen_r, head_rel = self._rel(info.chosen_pred), self._rel(rule.head.pred)
        st = _ChoiceState(rule, info, None, theta, head_rel, _head_projection(rule.head, info.w_vars))
        x, select = start, theta.select_extreme
        while (t := select()) is not None:
            delta = (x, t[0])
            chosen_r.insert(delta)
            self._commit(st, delta, 0)
            x = t[0]


# ---------------------------------------------------------------------------
# Public operations


def run_with_counters(program: Program, **knobs) -> tuple[Interpretation, Counters]:
    """Run the program and report operation counters alongside the model.
    The keywords are Engine's knobs."""
    eng = Engine(program, **knobs)
    interp = eng.run()
    return interp, eng.counters
