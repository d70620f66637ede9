"""Command-line interface.

Subcommands: run, enumerate, check, explain, bench, gen.  All outputs are
UTF-8 TSV.  Exit codes: 0 success, 1 parse/validation error, 2 runtime error
(overflow, grounding or enumeration cap), 3 check/bench verdict failure.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import analysis, bench, corpus, tsvio
from .analysis import foe_transform
from .engine import PQ_SETTINGS, Engine, EngineError, run_with_counters
from .lang import Diagnostic, GdlogError, ProgramError, parse_program
from .oracle import (
    EnumerationError,
    GroundingError,
    check_stable_model,
    enumerate_choice_models,
    ground,
)
from .storage import TIE_POLICIES, StorageError


def _load_program(path: str):
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as exc:
            raise ProgramError([Diagnostic("", f"{path} is not UTF-8 text ({exc.reason})")]) from None
    return parse_program(text)


def _load_edb(args) -> dict[str, list[tuple]] | None:
    if getattr(args, "facts", None):
        return tsvio.read_facts_dir(args.facts)
    return None


def _out_stream(path: str | None):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def cmd_run(args) -> int:
    program = _load_program(args.program)
    edb = _load_edb(args)
    with open(args.trace, "w", encoding="utf-8") if args.trace else contextlib.nullcontext() as tr:
        interp, counters = run_with_counters(
            program,
            mode=args.mode,
            pq=args.pq,
            ties=args.ties,
            seed=args.seed,
            edb=edb,
            factorize=args.factorize,
            trace=tr,
        )
    out, close = _out_stream(args.output)
    try:
        lines = interp.sorted_lines()
        out.write("\n".join(lines) + ("\n" if lines else ""))
    finally:
        if close:
            out.close()
    if args.stats:
        for k, v in counters.as_dict().items():
            print(f"{k}\t{v}", file=sys.stderr)
    return 0


def cmd_enumerate(args) -> int:
    program = _load_program(args.program)
    edb = _load_edb(args)
    truncated = False
    try:
        models = enumerate_choice_models(
            program, edb, cap=args.max_models, candidate_cap=args.candidate_cap
        )
    except EnumerationError as exc:
        if not exc.models:
            raise
        models, truncated = exc.models, True
    out, close = _out_stream(args.output)
    try:
        for i, model in enumerate(models, 1):
            out.write(f"% model {i}\n")
            lines = tsvio.model_lines(model)
            out.write("\n".join(lines) + ("\n" if lines else ""))
        out.write(f"% {len(models)} model(s){' (truncated)' if truncated else ''}\n")
    finally:
        if close:
            out.close()
    return 0


def cmd_check(args) -> int:
    program = _load_program(args.program)
    edb = _load_edb(args)
    model = tsvio.read_model(args.model)
    g = ground(foe_transform(program), edb)
    atoms = {(pred, t) for pred, ts in model.items() for t in ts}
    res = check_stable_model(g, atoms)
    if res.is_stable:
        print("stable")
        return 0
    print("not a model" if not res.is_model else "model but not stable")
    if res.witness is not None and args.witness:
        grouped: dict[str, set] = {}
        for pred, t in res.witness:
            grouped.setdefault(pred, set()).add(t)
        for line in tsvio.model_lines(grouped):
            print(f"% reduct minimum: {line}")
    return 3


def cmd_explain(args) -> int:
    program = _load_program(args.program)
    show_all = not (args.foe or args.plan or args.classify)
    if args.foe or show_all:
        print(analysis.format_foe_program(analysis.foe_transform(program)), end="")
    if args.plan or show_all:
        graph = analysis.build_dependency_graph(program)
        print(analysis.format_plan(analysis.plan_subprograms(graph, program)), end="")
    if args.classify:
        for rid, kind in analysis.classify_rules(program).items():
            print(f"{rid}\t{kind.value}")
    if args.trace:
        edb = _load_edb(args)
        with open(args.trace, "w", encoding="utf-8") as tr:
            eng = Engine(program, edb=edb, trace=tr)
            eng.run()
            tr.write("% final chosen tables\n")
            for rid in sorted(eng.choice_tables):
                chosen, theta = eng.choice_tables[rid]
                for line in tsvio.model_lines({chosen.info.chosen_pred: list(chosen)}):
                    tr.write(line + "\n")
                tr.write(f"% theta_{rid}: {len(theta)} candidates left\n")
                for line in tsvio.model_lines({f"theta_{rid}": list(theta)}):
                    tr.write(line + "\n")
        print(f"trace written to {args.trace}")
    return 0


def cmd_bench(args) -> int:
    spec = bench.BenchSpec(
        example=args.example,
        sizes=tuple(int(s) for s in args.sizes.split(",")),
        family=args.family,
        reps=args.reps,
        cost_max=args.cost_max,
        pq=args.pq,
        factorize=args.factorize,
        ties=args.ties,
        base_seed=args.seed,
    )
    report = bench.run_bench(spec)
    out, close = _out_stream(args.out)
    try:
        out.write(report.to_tsv())
    finally:
        if close:
            out.close()
    for c in report.checks:
        print(f"{c.name}: {c.verdict} ({c.detail})", file=sys.stderr)
    return 0 if report.passed() else 3


def cmd_gen(args) -> int:
    if args.family == "complete":
        edb = corpus.complete_graph(
            args.n, cost_max=args.cost_max, seed=args.seed, directed=args.directed
        )
    elif args.family == "sparse-connected":
        edb = corpus.sparse_connected_graph(
            args.n, args.arcs, cost_max=args.cost_max, seed=args.seed, directed=args.directed
        )
    elif args.family == "bipartite":
        edb = corpus.bipartite_graph(args.n, args.n2, cost_max=args.cost_max, seed=args.seed)
    else:
        raise GdlogError(f"unknown family {args.family!r}")
    tsvio.write_facts_dir(args.out, edb)
    total = sum(len(rows) for rows in edb.values())
    print(f"wrote {total} facts to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gdlog", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compute one model of a program")
    run.add_argument("program")
    run.add_argument("--facts", help="directory of <predicate>.facts TSV files")
    run.add_argument("--output", "-o", help="model file (default stdout)")
    run.add_argument("--seed", type=int, help="seed for random ties")
    run.add_argument("--ties", choices=TIE_POLICIES, help="default lex, or random with --seed")
    run.add_argument("--pq", choices=PQ_SETTINGS, default="auto")
    run.add_argument("--mode", choices=["auto", "choice", "greedy"], default="auto")
    run.add_argument("--factorize", action="store_true")
    run.add_argument("--trace", help="write one TSV row per selection to this file")
    run.add_argument("--stats", action="store_true", help="print counters to stderr")
    run.set_defaults(func=cmd_run)

    enum = sub.add_parser("enumerate", help="enumerate all choice models (small inputs)")
    enum.add_argument("program")
    enum.add_argument("--facts")
    enum.add_argument("--output", "-o")
    enum.add_argument("--max-models", type=int, default=64)
    enum.add_argument("--candidate-cap", type=int, default=20)
    enum.set_defaults(func=cmd_enumerate)

    chk = sub.add_parser("check", help="check a model file for stability")
    chk.add_argument("program")
    chk.add_argument("--model", required=True)
    chk.add_argument("--facts")
    chk.add_argument("--witness", action="store_true", help="print the reduct minimum on failure")
    chk.set_defaults(func=cmd_check)

    exp = sub.add_parser("explain", help="print the rewritten program and the evaluation plan")
    exp.add_argument("program")
    exp.add_argument("--foe", action="store_true")
    exp.add_argument("--plan", action="store_true")
    exp.add_argument("--classify", action="store_true")
    exp.add_argument("--facts")
    exp.add_argument("--trace", help="run and dump the iteration trace plus final chosen tables")
    exp.set_defaults(func=cmd_explain)

    bn = sub.add_parser("bench", help="counter-based complexity ladders")
    bn.add_argument("--example", required=True, choices=sorted(corpus.PROGRAMS))
    bn.add_argument("--sizes", required=True, help="comma-separated, strictly increasing")
    bn.add_argument(
        "--family",
        default="auto",
        choices=["auto", "complete", "sparse-connected", "bipartite", "domain", "advisor"],
    )
    bn.add_argument("--reps", type=int, default=5)
    bn.add_argument("--cost-max", type=int, default=1000)
    bn.add_argument("--pq", choices=PQ_SETTINGS, default="auto")
    bn.add_argument("--factorize", action="store_true")
    bn.add_argument("--ties", choices=TIE_POLICIES, default="fifo")
    bn.add_argument("--seed", type=int, default=0)
    bn.add_argument("--out", help="report TSV (default stdout)")
    bn.set_defaults(func=cmd_bench)

    gen = sub.add_parser("gen", help="generate fact files")
    gen.add_argument("--family", required=True, choices=["complete", "sparse-connected", "bipartite"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--n2", type=int, help="right part size for bipartite (default n)")
    gen.add_argument("--arcs", type=int, help="arc count for sparse-connected (default 4n)")
    gen.add_argument("--cost-max", type=int, default=1000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--directed", action="store_true")
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_gen)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProgramError, tsvio.FactFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EngineError, GroundingError, EnumerationError, StorageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GdlogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
