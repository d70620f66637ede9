"""Benchmark harness: doubling ladders over generated inputs, operation
counters per run, and log-log slope checks of the expected complexity.

Counters, not wall time, are the primary signal: they are machine
independent and deterministic for a fixed seed.  Wall time is carried along
informationally.  Pure-choice selection runs under the constant-time fifo
policy here, so selection cost never masks the evaluation cost being
measured.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, fields

from . import corpus
from .engine import run_with_counters
from .lang import GdlogError
from .storage import Counters

DEFAULT_FAMILY = {
    "advisor": "advisor",
    "sequence": "domain",
    "sort": "domain",
    "matching": "bipartite",
    "optmatching": "bipartite",
    "spantree": "sparse-connected",
    "prim": "sparse-connected",
    "reach": "sparse-connected",
    "dijkstra": "sparse-connected",
    "simplepath": "complete",
    "tsp": "complete",
}

DIRECTED_EXAMPLES = ("reach", "dijkstra")


@dataclass
class BenchSpec:
    example: str
    sizes: tuple[int, ...]
    family: str = "auto"
    reps: int = 5
    cost_max: int = 1000
    pq: str = "auto"
    factorize: bool = False
    ties: str = "fifo"
    base_seed: int = 0
    arcs_per_node: int = 4  # sparse family: e = arcs_per_node * n

    def resolved_family(self) -> str:
        return DEFAULT_FAMILY[self.example] if self.family == "auto" else self.family

    def validate(self) -> None:
        if self.example not in corpus.PROGRAMS:
            raise GdlogError(f"unknown example {self.example!r}")
        if len(self.sizes) == 0:
            raise GdlogError("empty size ladder")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise GdlogError("sizes must be strictly increasing")
        if self.reps < 3:
            raise GdlogError("at least 3 repetitions required")


@dataclass
class BenchRow:
    n: int
    e: int
    rep: int
    seed: int
    counters: dict[str, float]


@dataclass
class LadderCheck:
    name: str
    metric: str
    verdict: str  # PASS / FAIL / NA
    detail: str


@dataclass
class BenchReport:
    spec: BenchSpec
    rows: list[BenchRow]
    medians: dict[int, dict[str, float]]  # size -> median counters (+ e)
    checks: list[LadderCheck] = field(default_factory=list)

    def passed(self) -> bool:
        return all(c.verdict != "FAIL" for c in self.checks)

    def to_tsv(self) -> str:
        cols = [f.name for f in fields(Counters)]
        fam = self.spec.resolved_family()
        lines = [
            f"# gdlog bench example={self.spec.example} family={fam} pq={self.spec.pq}"
            f" factorize={int(self.spec.factorize)} reps={self.spec.reps}",
            "\t".join(["example", "family", "n", "e", "rep", "seed"] + cols),
        ]
        for r in self.rows:
            lines.append(
                "\t".join(
                    [self.spec.example, fam, str(r.n), str(r.e), str(r.rep), str(r.seed)]
                    + [_fmt(r.counters.get(c, 0)) for c in cols]
                )
            )
        for n in sorted(self.medians):
            med = self.medians[n]
            lines.append(
                "\t".join(
                    [self.spec.example, fam, str(n), str(int(med["e"])), "median", "-"]
                    + [_fmt(med.get(c, 0)) for c in cols]
                )
            )
        for c in self.checks:
            lines.append(f"# check {c.name}: metric={c.metric} verdict={c.verdict} {c.detail}")
        return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    return f"{v:.6f}" if isinstance(v, float) and not float(v).is_integer() else str(int(v))


def build_edb(spec: BenchSpec, n: int, seed: int) -> dict[str, list[tuple]]:
    family = spec.resolved_family()
    directed = spec.example in DIRECTED_EXAMPLES
    if family == "complete":
        return corpus.complete_graph(n, cost_max=spec.cost_max, seed=seed)
    if family == "sparse-connected":
        return corpus.sparse_connected_graph(
            n, spec.arcs_per_node * n, cost_max=spec.cost_max, seed=seed, directed=directed
        )
    if family == "bipartite":
        half = max(1, n // 2)
        return corpus.bipartite_graph(half, n - half, cost_max=spec.cost_max, seed=seed)
    if family == "domain":
        return corpus.domain_facts(n, seed=seed)
    if family == "advisor":
        return corpus.advisor_facts(n, n, seed=seed)
    raise GdlogError(f"unknown graph family {family!r}")


def run_bench(spec: BenchSpec) -> BenchReport:
    spec.validate()
    program = corpus.get_program(spec.example)
    rows: list[BenchRow] = []
    medians: dict[int, dict[str, float]] = {}
    for n in spec.sizes:
        per_size: list[BenchRow] = []
        for rep in range(spec.reps):
            seed = spec.base_seed + 1000 * rep + n
            edb = build_edb(spec, n, seed)
            e = len(edb.get("g", edb.get("d", ())))
            _, counters = run_with_counters(
                program,
                edb=edb,
                pq=spec.pq,
                ties=spec.ties,
                seed=None,
                factorize=spec.factorize,
            )
            per_size.append(BenchRow(n, e, rep, seed, counters.as_dict()))
        rows.extend(per_size)
        med = {
            key: statistics.median(r.counters[key] for r in per_size)
            for key in per_size[0].counters
        }
        med["e"] = statistics.median(r.e for r in per_size)
        medians[n] = med
    report = BenchReport(spec, rows, medians)
    report.checks = _ladder_checks(spec, medians)
    return report


# ---------------------------------------------------------------------------
# Complexity checks

SLOPE_TOL = 0.3


def fit_slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of log2(y) against log2(x); None for degenerate
    ladders (fewer than two distinct sizes)."""
    pts = [(math.log2(x), math.log2(max(y, 1.0))) for x, y in points if x > 0]
    if len({x for x, _ in pts}) < 2:
        return None
    slope, _ = statistics.linear_regression([x for x, _ in pts], [y for _, y in pts])
    return slope


def model_slope(model, xs: list[float]) -> float:
    """Average log-log slope the model itself shows across the ladder; this is
    what an empirical fit of that model should approximate."""
    lo, hi = min(xs), max(xs)
    return (math.log2(model(hi)) - math.log2(model(lo))) / (math.log2(hi) - math.log2(lo))


def _slope_check(name, metric, points, expected, tol=SLOPE_TOL) -> LadderCheck:
    slope = fit_slope(points)
    if slope is None:
        return LadderCheck(name, metric, "NA", "slope undefined: need at least 2 sizes")
    verdict = "PASS" if abs(slope - expected) <= tol else "FAIL"
    return LadderCheck(
        name, metric, verdict, f"slope={slope:.3f} expected={expected:.3f} tol={tol}"
    )


def _budget_check(name, metric, ratios, max_spread=2.0) -> LadderCheck:
    """Fitted constants c_i = metric / budget must stay stable across the
    ladder (bounded spread), i.e. the metric is O(budget)."""
    if len(ratios) < 2:
        return LadderCheck(name, metric, "NA", "budget fit undefined: need at least 2 sizes")
    spread = max(ratios) / min(ratios)
    verdict = "PASS" if spread <= max_spread else "FAIL"
    cs = ", ".join(f"{c:.3f}" for c in ratios)
    return LadderCheck(name, metric, verdict, f"c=[{cs}] spread={spread:.2f} max={max_spread}")


def _ladder_checks(spec: BenchSpec, medians: dict[int, dict[str, float]]) -> list[LadderCheck]:
    checks: list[LadderCheck] = []
    sizes = sorted(medians)
    family = spec.resolved_family()
    work_n = [(float(n), medians[n]["work"]) for n in sizes]
    work_e = [(medians[n]["e"], medians[n]["work"]) for n in sizes]

    if spec.example in ("prim", "dijkstra"):
        if spec.pq == "off" and family == "complete":
            checks.append(_slope_check(f"{spec.example}-pq-off-n2", "work~n^2", work_n, 2.0))
        if spec.pq != "off" and family == "sparse-connected":
            for suffix, counter in (("elogn", "pq_ops"), ("work-elogn", "work")):
                ratios = [
                    medians[n][counter] / (medians[n]["e"] * math.log2(n)) for n in sizes if n > 1
                ]
                checks.append(
                    _budget_check(
                        f"{spec.example}-pq-on-{suffix}", f"{counter}<=c*e*log2(n)", ratios
                    )
                )
    elif spec.example == "matching":
        checks.append(_slope_check("matching-linear-e", "work~e", work_e, 1.0))
    elif spec.example == "sort" and spec.factorize and spec.pq != "off":
        expected = model_slope(lambda x: x * math.log2(x), [float(n) for n in sizes])
        checks.append(_slope_check("sort-factorized-nlogn", "work~n*log2(n)", work_n, expected))
    elif spec.example == "sequence" and spec.factorize:
        checks.append(_slope_check("sequence-factorized-linear", "work~n", work_n, 1.0))
    elif spec.example == "tsp":
        checks.append(_slope_check("tsp-n2", "work~n^2", work_n, 2.0))
    return checks
