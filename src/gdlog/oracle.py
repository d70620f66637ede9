"""Ground-level semantics oracle.

Everything here is deliberately independent of the optimized engine: a naive
grounder over the rewritten program, a stable-model checker built on the
reduct, an exhaustive enumerator of choice models, the unoptimized
one-tuple-per-step operator (run_lico_reference), and a textbook graph
algorithm and output checkers (ref_dijkstra, bipartite_matching_valid,
chain_is_total_order) used to cross-validate engine output.  The grounder,
the enumerator and the reference operator evaluate rule bodies with one
naive matcher, _all_matches, and test FD conflicts with one predicate,
_fd_conflict; the reference operator breaks ties in its own constant order,
tuple_key.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional

from .analysis import ChoiceInfo, FoeProgram, RuleKind, VectorNeq, choice_info, foe_transform
from .lang import MAX_INT, MIN_INT, Atom, Comparison, Const, GdlogError, PlusBinding, Program, Var
from .storage import resolve_ties

Tup = tuple
GAtom = tuple[str, Tup]  # (predicate, argument tuple)


class GroundingError(GdlogError):
    pass


def const_key(c: Const):
    """Total order over mixed int/symbol constants: integers first, then
    symbols lexicographically.  The reference operator's own lex order,
    written apart from the engine's generated storage.order_key."""
    if isinstance(c, int):
        return (0, c)
    return (1, c)


def tuple_key(t: Tup):
    """Sort key of a tuple in constant order, column by column: one flat
    (kind0, v0, kind1, v1, ...) tuple.  Keys of same-arity tuples compare as
    the tuples do under const_key."""
    return (*chain.from_iterable(map(const_key, t)),)


class EnumerationError(GdlogError):
    def __init__(self, message: str, models=None):
        super().__init__(message)
        self.models = models or []


@dataclass
class GroundRule:
    head: GAtom
    pos: tuple[GAtom, ...]
    neg: tuple[GAtom, ...]


@dataclass
class GroundProgram:
    rules: list[GroundRule]  # rewritten + chosen + diffchoice instances
    facts: list[GAtom]
    chosen_instances: dict[str, list[tuple[Tup, tuple[GAtom, ...]]]]  # rule_id -> (W, body)
    infos: dict[str, ChoiceInfo]
    base: set[GAtom]  # relevant Herbrand base (positive closure)

    def candidate_count(self) -> int:
        return sum(
            len({w for w, _ in insts}) for insts in self.chosen_instances.values()
        )


# ---------------------------------------------------------------------------
# Naive matching over plain atom stores (insertion-ordered for determinism)


def _eval_builtin(goal, env) -> bool:
    def val(t):
        return env[t] if isinstance(t, Var) else t

    if isinstance(goal, Comparison):
        a, b = val(goal.left), val(goal.right)
        if goal.op == "\\=":
            return a != b
        if not (isinstance(a, int) and isinstance(b, int)):
            raise GroundingError(f"order comparison over non-integers {a!r} {goal.op} {b!r}")
        return {"<": a < b, "=<": a <= b, ">": a > b, ">=": a >= b}[goal.op]
    if isinstance(goal, VectorNeq):
        return any(val(x) != val(y) for x, y in goal.pairs)
    raise AssertionError(goal)


def _all_matches(goals, store: dict[str, dict[Tup, None]], budget: list[int] | None = None):
    """Every binding of the positive goals; builtins filter, PlusBinding
    extends the binding.  The optional budget caps the total number of row
    probes so divergent groundings fail fast instead of grinding."""

    def step(i: int, env: dict):
        if i == len(goals):
            yield dict(env)
            return
        g = goals[i]
        if isinstance(g, Atom):
            for t in list(store.get(g.pred, ())):
                if budget is not None:
                    budget[0] -= 1
                    if budget[0] < 0:
                        raise GroundingError("grounding work budget exceeded")
                added = []
                ok = True
                for pos, a in enumerate(g.args):
                    if isinstance(a, Var):
                        if a in env:
                            if env[a] != t[pos]:
                                ok = False
                                break
                        else:
                            env[a] = t[pos]
                            added.append(a)
                    elif a != t[pos]:
                        ok = False
                        break
                if ok:
                    yield from step(i + 1, env)
                for a in added:
                    del env[a]
        elif isinstance(g, PlusBinding):
            a = env[g.left] if isinstance(g.left, Var) else g.left
            b = env[g.right] if isinstance(g.right, Var) else g.right
            if not (isinstance(a, int) and isinstance(b, int)):
                raise GroundingError("arithmetic over non-integers")
            c = a + b
            if not (MIN_INT <= c <= MAX_INT):
                raise GroundingError(f"arithmetic overflow computing {a} + {b}")
            env[g.out] = c
            yield from step(i + 1, env)
            del env[g.out]
        else:
            if _eval_builtin(g, env):
                yield from step(i + 1, env)

    yield from step(0, {})


def _subst_atom(a: Atom, env) -> GAtom:
    return (a.pred, tuple(env[t] if isinstance(t, Var) else t for t in a.args))


def _fd_conflict(fds, w: Tup, u: Tup) -> bool:
    """Do w and u agree on the left side and differ on the right side of
    one of the FDs?"""
    return any(
        all(w[i] == u[i] for i in fd.left) and any(w[i] != u[i] for i in fd.right)
        for fd in fds
    )


# ---------------------------------------------------------------------------
# Grounding


def ground(
    foe: FoeProgram,
    edb: dict[str, Iterable[Tup]] | None = None,
    *,
    max_instances: int = 10**6,
    max_atoms: int = 100_000,
    max_probes: int = 5_000_000,
) -> GroundProgram:
    """Instantiate the rewritten program over its active domain.

    Positive bodies are closed ignoring negation (a superset of every stable
    model), so every relevant instance is produced.  diffchoice rules, which
    are not range restricted, are instantiated only over pairs of derivable
    chosen candidates; that preserves the stable models over the relevant
    base.  Exceeding either cap raises with the offending size; programs that
    accumulate costs around a directed cycle have no finite grounding at all
    and trip the atom cap.
    """
    store: dict[str, dict[Tup, None]] = {}
    n_atoms = 0
    facts: list[GAtom] = []
    for f in foe.facts:
        store.setdefault(f.pred, {})[f.args] = None
        facts.append((f.pred, f.args))
    if edb:
        for pred, rows in edb.items():
            for t in rows:
                t = tuple(t)
                if t not in store.setdefault(pred, {}):
                    store[pred][t] = None
                    facts.append((pred, t))
    n_atoms = sum(len(b) for b in store.values())

    deriving = list(foe.rewritten) + list(foe.chosen)
    instances: dict[tuple, GroundRule] = {}
    chosen_instances: dict[str, list[tuple[Tup, tuple[GAtom, ...]]]] = {
        rid: [] for rid in foe.infos
    }
    body_preds = [
        tuple({g.pred for g in rule.pos_body if isinstance(g, Atom)}) for rule in deriving
    ]
    last_sizes: list[dict[str, int] | None] = [None] * len(deriving)
    budget = [max_probes]

    changed = True
    while changed:
        changed = False
        for ri, rule in enumerate(deriving):
            sizes = {p: len(store.get(p, ())) for p in body_preds[ri]}
            if last_sizes[ri] == sizes:
                continue
            last_sizes[ri] = sizes
            pos_atoms = [g for g in rule.pos_body if isinstance(g, Atom)]
            for env in _all_matches(rule.pos_body, store, budget):
                head = _subst_atom(rule.head, env)
                pos = tuple(_subst_atom(a, env) for a in pos_atoms)
                neg = tuple(_subst_atom(a, env) for a in rule.neg_body)
                key = (ri, head, pos)
                if key in instances:
                    continue
                if len(instances) >= max_instances:
                    raise GroundingError(
                        f"grounding exceeds the cap of {max_instances} instances"
                    )
                instances[key] = GroundRule(head, pos, neg)
                if rule.neg_body:  # a chosen rule: record the candidate
                    chosen_instances[rule.origin].append((head[1], pos))
                bucket = store.setdefault(head[0], {})
                if head[1] not in bucket:
                    bucket[head[1]] = None
                    n_atoms += 1
                    if n_atoms > max_atoms:
                        raise GroundingError(
                            f"grounding exceeds the cap of {max_atoms} ground atoms"
                        )
                    changed = True

    rules = list(instances.values())

    # diffchoice over candidate pairs: diffchoice_r(w) <- chosen_r(w') when w
    # and w' agree on some FD's left side and differ on its right side
    base: set[GAtom] = {(p, t) for p, ts in store.items() for t in ts}
    for rid, info in foe.infos.items():
        cands = list(dict.fromkeys(w for w, _ in chosen_instances[rid]))
        for fd in info.fds:
            for w in cands:
                for w2 in cands:
                    if not _fd_conflict((fd,), w, w2):
                        continue
                    if len(rules) >= max_instances:
                        raise GroundingError(
                            f"grounding exceeds the cap of {max_instances} instances"
                        )
                    head = (info.diffchoice_pred, w)
                    rules.append(GroundRule(head, ((info.chosen_pred, w2),), ()))
                    base.add(head)

    for f in facts:
        rules.append(GroundRule(f, (), ()))
    return GroundProgram(rules, facts, chosen_instances, dict(foe.infos), base)


# ---------------------------------------------------------------------------
# Stable-model checking


@dataclass
class StableCheckResult:
    is_model: bool
    is_stable: bool
    witness: Optional[frozenset[GAtom]]  # minimum model of the reduct, when it differs


def complete_with_diffchoice(g: GroundProgram, m: Iterable[GAtom]) -> set[GAtom]:
    """Close a model candidate under the diffchoice rules; the engine never
    materializes the bookkeeping atoms, the declarative reading needs them."""
    out = set(m)
    for r in g.rules:
        if r.head[0].startswith("diffchoice_") and not r.neg:
            if all(p in out for p in r.pos):
                out.add(r.head)
    return out


def check_stable_model(g: GroundProgram, m: Iterable[GAtom], *, complete_diffchoice: bool = True) -> StableCheckResult:
    """Is m a stable model: build the reduct (drop rules whose negated goal is
    in m, strip negation from the rest), take its minimum model, compare."""
    m_set = set(m)
    if complete_diffchoice:
        m_set = complete_with_diffchoice(g, m_set)

    is_model = True
    for r in g.rules:
        if all(p in m_set for p in r.pos) and not any(q in m_set for q in r.neg):
            if r.head not in m_set:
                is_model = False
                break

    reduct = [(r.head, r.pos) for r in g.rules if not any(q in m_set for q in r.neg)]
    lm = _least_model(reduct)
    is_stable = is_model and lm == m_set
    witness = None if is_stable else frozenset(lm)
    return StableCheckResult(is_model, is_stable, witness)


def _least_model(positive_rules: list[tuple[GAtom, tuple[GAtom, ...]]]) -> set[GAtom]:
    lm: set[GAtom] = set()
    changed = True
    while changed:
        changed = False
        for head, pos in positive_rules:
            if head not in lm and all(p in lm for p in pos):
                lm.add(head)
                changed = True
    return lm


# ---------------------------------------------------------------------------
# Exhaustive enumeration of choice models


def enumerate_choice_models(
    program: Program,
    edb: dict[str, Iterable[Tup]] | None = None,
    cap: int = 1024,
    *,
    candidate_cap: int = 20,
    max_instances: int = 10**6,
) -> list[dict[str, frozenset]]:
    """All choice models of the program over the given facts.

    Explores maximal FD-respecting choice sequences (mirroring the
    one-at-a-time fixpoint computation, which reaches every choice model),
    closes each, keeps the distinct end states that pass the stable-model
    check, and strips the diffchoice bookkeeping.  Exponential in the number
    of ground chosen candidates, hence the candidate_cap; more than cap
    models raises EnumerationError with the models found so far.
    """
    foe = foe_transform(program)
    g = ground(foe, edb, max_instances=max_instances)
    n_cands = g.candidate_count()
    if n_cands > candidate_cap:
        raise EnumerationError(
            f"{n_cands} ground chosen candidates exceed the enumeration cap of {candidate_cap}"
        )

    positive = [
        (r.head, r.pos) for r in g.rules if not r.neg and not r.head[0].startswith("diffchoice_")
    ]
    cand_instances = [
        (rid, w, pos) for rid, insts in g.chosen_instances.items() for (w, pos) in insts
    ]
    infos = g.infos

    def closure(chosen_atoms: frozenset[GAtom]) -> frozenset[GAtom]:
        rules = positive + [(a, ()) for a in chosen_atoms]
        return frozenset(_least_model(rules))

    def fd_ok(rid: str, w: Tup, chosen_by_rule: dict[str, frozenset[Tup]]) -> bool:
        # FDs are per-rule
        fds = infos[rid].fds
        return not any(_fd_conflict(fds, w, u) for u in chosen_by_rule.get(rid, ()))

    models: dict[frozenset[GAtom], dict[str, frozenset]] = {}
    visited: set[frozenset[tuple[str, Tup]]] = set()

    def explore(chosen: frozenset[tuple[str, Tup]]):
        if chosen in visited:
            return
        visited.add(chosen)
        chosen_atoms = frozenset((infos[rid].chosen_pred, w) for rid, w in chosen)
        interp = closure(chosen_atoms)
        by_rule: dict[str, frozenset[Tup]] = {}
        for rid, w in chosen:
            by_rule[rid] = by_rule.get(rid, frozenset()) | {w}
        theta = []
        seen = set()
        for rid, w, pos in cand_instances:
            if (rid, w) in seen or (rid, w) in chosen:
                continue
            if not all(p in interp for p in pos):
                continue
            if w in by_rule.get(rid, ()):
                continue
            if fd_ok(rid, w, by_rule):
                seen.add((rid, w))
                theta.append((rid, w))
        if not theta:
            if interp not in models:
                res = check_stable_model(g, interp)
                if res.is_stable:
                    if len(models) >= cap:
                        raise EnumerationError(
                            f"more than {cap} choice models", list(models.values())
                        )
                    grouped: dict[str, set[Tup]] = {}
                    for pred, t in interp:
                        if not pred.startswith("diffchoice_"):
                            grouped.setdefault(pred, set()).add(t)
                    models[interp] = {p: frozenset(ts) for p, ts in grouped.items()}
            return
        for rid, w in theta:
            explore(chosen | {(rid, w)})

    explore(frozenset())
    return list(models.values())


# ---------------------------------------------------------------------------
# Reference operator: unoptimized one-tuple-per-step semantics


def run_lico_reference(
    program: Program,
    mode: str = "lazy",
    *,
    ties: str = "lex",
    seed: int | None = None,
    edb: dict[str, Iterable[Tup]] | None = None,
) -> dict[str, frozenset]:
    """Direct implementation of the one-tuple-per-step operator: at each step
    recompute every rule's candidate set from scratch, keep the tuples that
    are new and compatible with the declared FDs, adjoin one, and re-close
    the non-choice rules naively.

    mode "lazy" ignores costs; "least"/"most" pick the extreme-cost candidate
    of choice_least/choice_most rules (each rule under its own cost sense)
    and try those rules first; "lazy" takes the rules in program order.
    Rule scheduling and tie-breaking mirror the engine's greedy and choice
    modes so the two computations can be compared model-for-model.  The
    model comes back as {predicate: tuples}, chosen tables included, the
    shape of the engine's Interpretation.as_sets().
    """
    if mode not in ("lazy", "least", "most"):
        raise GdlogError(f"unknown reference mode {mode!r}")
    tie_policy, rng = resolve_ties(ties, seed)
    store: dict[str, dict[Tup, None]] = {}
    for f in program.facts:
        store.setdefault(f.pred, {})[f.args] = None
    if edb:
        for pred, rows in edb.items():
            for t in rows:
                store.setdefault(pred, {})[tuple(t)] = None

    infos = {r.rule_id: choice_info(r) for r in program.rules if r.choice_goals}
    closure_rules: list[tuple[Atom, tuple]] = []
    for r in program.rules:
        body = tuple(r.body)
        if r.choice_goals:
            info = infos[r.rule_id]
            body += (Atom(info.chosen_pred, info.w_vars),)
        closure_rules.append((r.head, body))

    def close():
        changed = True
        while changed:
            changed = False
            for head, body in closure_rules:
                produced = [_subst_atom(head, env)[1] for env in _all_matches(body, store)]
                bucket = store.setdefault(head.pred, {})
                for t in produced:
                    if t not in bucket:
                        bucket[t] = None
                        changed = True

    def fd_compatible(info: ChoiceInfo, t: Tup) -> bool:
        chosen = store.get(info.chosen_pred, ())
        return not any(_fd_conflict(info.fds, t, u) for u in chosen)

    choice_rules = [r for r in program.rules if r.choice_goals]
    if mode != "lazy":
        choice_rules.sort(key=lambda r: infos[r.rule_id].kind is RuleKind.PURE_CHOICE)

    close()
    while True:
        delta = None
        delta_info = None
        for r in choice_rules:
            info = infos[r.rule_id]
            theta = []
            seen = set()
            for env in _all_matches(tuple(r.body), store):
                t = tuple(env[v] for v in info.w_vars)
                if t in seen or t in store.get(info.chosen_pred, ()):
                    continue
                seen.add(t)
                if fd_compatible(info, t):
                    theta.append(t)
            if not theta:
                continue
            if mode != "lazy" and info.cost_pos is not None:
                sense = -1 if info.kind is RuleKind.CHOICE_MOST else 1

                def cost_key(t, sense=sense, pos=info.cost_pos, rid=r.rule_id):
                    c = t[pos]
                    if not isinstance(c, int):
                        raise GroundingError(f"{rid}: cost argument must be an integer")
                    return (sense * c, tuple_key(t))

                delta = min(theta, key=cost_key)
            elif tie_policy == "random":
                delta = theta[rng.randrange(len(theta))]
            elif tie_policy == "fifo":
                delta = theta[0]
            else:
                delta = min(theta, key=tuple_key)
            delta_info = info
            break
        if delta is None:
            break
        store.setdefault(delta_info.chosen_pred, {})[delta] = None
        close()
    return {pred: frozenset(ts) for pred, ts in store.items() if ts}


# ---------------------------------------------------------------------------
# Reference graph algorithms (classical implementations used as oracles)


def ref_dijkstra(arcs: Iterable[tuple], src) -> dict:
    adj: dict = {}
    for u, v, c in arcs:
        adj.setdefault(u, []).append((v, c))
    dist = {src: 0}
    heap = [(0, 0, src)]
    tiebreak = 0
    while heap:
        d, _, u = heapq.heappop(heap)
        if d > dist.get(u, float("inf")):
            continue
        for v, c in adj.get(u, ()):
            nd = d + c
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                tiebreak += 1
                heapq.heappush(heap, (nd, tiebreak, v))
    return dist


def bipartite_matching_valid(pairs: Iterable[tuple], edges: Iterable[tuple] | None = None) -> bool:
    """Each left node matched at most once, each right node at most once, and
    every pair is an actual edge when an edge list is supplied."""
    pairs = list(pairs)
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    if len(xs) != len(set(xs)) or len(ys) != len(set(ys)):
        return False
    if edges is not None:
        allowed = {(u, v) for u, v, *_ in edges}
        return all((x, y) in allowed for x, y in pairs)
    return True


def chain_is_total_order(succ_pairs: Iterable[tuple], domain: Iterable, root="root") -> bool:
    """succ tuples (minus the root loop) must form a chain starting at root
    and visiting every domain element exactly once."""
    domain = set(domain)
    nxt = {}
    for x, y in succ_pairs:
        if x == root and y == root:
            continue
        if x in nxt:
            return False
        nxt[x] = y
    seen = set()
    cur = root
    while cur in nxt:
        cur = nxt[cur]
        if cur in seen:
            return False
        seen.add(cur)
    return len(seen) == len(nxt) and seen == domain
