"""One benchmark run of one workload, in its own process (started by run.py).

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR

Builds the workload's ladder from the seed, writes the fact files and runs
one discarded warm-up.  Then, for the given seconds, it solves the way
`gdlog run` does (read facts, parse, solve, serialise): the whole ladder twice,
then the largest instance again and again.  Peak resident memory is read
after the first pass over the ladder.  With --trace 1 the ladder is
solved once untraced and once traced, each followed by repeats of the largest
instance for half the time.  Every solve is checked against an independent
reference outside its timed section, and every repeat of an instance must
reproduce its first counters and model digest; if one does not, the run fails
instead of reporting.  With --trace 0, every solve of the largest instance
and every solve after the first pass is followed by hostspeed.reference_s,
which times a fixed plain-Python computation for half the solve's time;
the end-to-end timings are scaled by its nominal over its measured time,
which takes the shared host's speed drift out of them.  The result goes to
DIR/result.json, which run.py prints.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import gdlog  # noqa: E402

if not Path(gdlog.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"perfbench: imported gdlog from {gdlog.__file__}, not from {SRC}")

from gdlog import corpus, engine, lang, tsvio  # noqa: E402

import hostspeed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, instance_seed, parse_model  # noqa: E402

BASELINE = HERE / "baseline.json"
REF_SHARE = 0.5  # reference time after each untraced solve, as a share of the solve

COUNTERS = (
    "work", "join_probes", "firings", "derived", "iterations",
    "theta_inserts", "theta_deletes", "pq_ops", "conflict_checks",
)


class Nondeterminism(Exception):
    pass


class Instance:
    def __init__(self, index, workload, seed, n, root):
        self.index = index
        self.n = n
        self.seed = instance_seed(workload.name, seed, n)
        edb = workload.make_edb(n, self.seed)
        self.expected = workload.expected(edb, n)
        self.facts_dir = root / f"n{n}"
        self.facts_dir.mkdir(parents=True)
        for pred, rows in edb.items():
            with open(self.facts_dir / f"{pred}.facts", "w", encoding="utf-8") as f:
                f.writelines("\t".join(map(str, t)) + "\n" for t in rows)
        self.first: dict | None = None  # counters and digest of the first timed solve


def solve(workload, source: str, inst: Instance, tracer: Tracer | None) -> dict:
    """One `gdlog run` of an instance, timed at its public calls."""
    span = tracer.span if tracer is not None else _untraced
    gc.collect()
    if tracer is not None:
        tracer.solve_id = len(tracer.spans)  # the id of the root span opened next
    with span("gdlog.run"):
        t0 = perf_counter()
        with span("tsvio.read_facts"):
            edb = tsvio.read_facts_dir(str(inst.facts_dir))
        t1 = perf_counter()
        with span("lang.parse"):
            program = lang.parse_program(source)
        t2 = perf_counter()
        with span("engine.solve"):
            interp, counters = engine.run_with_counters(
                program, mode="auto", pq="auto", ties="lex", edb=edb, factorize=workload.factorize
            )
        t3 = perf_counter()
        with span("output.model_lines"):
            lines = interp.sorted_lines()
            text = "\n".join(lines)
        t4 = perf_counter()
    c = counters.as_dict()
    return {
        "n": inst.n,
        "trace_id": tracer.solve_id if tracer is not None else None,
        "read_s": t1 - t0,
        "parse_s": t2 - t1,
        "solve_s": t3 - t2,
        "lines_s": t4 - t3,
        "total_s": t4 - t0,
        "counters": {k: c[k] for k in COUNTERS},
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "error": workload.check(parse_model(lines), inst.expected, inst.n),
    }


def _untraced(name):
    return nullcontext()


def run_pass(workload, source, instances, tracer, records, label, ref) -> None:
    for inst in instances:
        try:
            rec = solve(workload, source, inst, tracer)
        except Exception:
            traceback.print_exc()
            records.append({"n": inst.n, "pass": label, "error": "raised", "instance": inst.index})
            continue
        rec["pass"], rec["instance"] = label, inst.index
        if ref:
            rec["ref_s"] = hostspeed.reference_s(REF_SHARE * rec["total_s"])
        records.append(rec)
        if rec["error"]:
            print(f"perfbench: n={inst.n}: {rec['error']}", file=sys.stderr)
            continue
        seen = {"counters": rec["counters"], "digest": rec["digest"]}
        if inst.first is None:
            inst.first = seen
        elif inst.first != seen:
            raise Nondeterminism(
                f"n={inst.n}: {label} pass differs from the first solve of the same input: "
                f"{seen} vs {inst.first}"
            )


def measure(workload, source, instances, tracer, records, full_passes, until, label, ref) -> None:
    """Solve the whole ladder full_passes times, then only its largest
    instance, the one the timings describe, until the deadline."""
    for i in range(full_passes):
        run_pass(workload, source, instances, tracer, records, f"{label}-{i}", ref)
    last = 0.0  # duration of the previous repeat; stop where the next would end nearest the deadline
    while perf_counter() + last / 2 < until:
        t = perf_counter()
        run_pass(workload, source, instances[-1:], tracer, records, f"{label}-top", ref)
        last = perf_counter() - t


def work_slope(points: list[tuple[int, int]]) -> float:
    """Least-squares slope of log2(work) against log2(n)."""
    xs = [math.log2(n) for n, _ in points]
    ys = [math.log2(max(w, 1)) for _, w in points]
    return statistics.linear_regression(xs, ys).slope


def median(xs):
    if not xs:
        raise SystemExit("perfbench: no successful solve of the largest instance")
    return statistics.median(xs)


def mean(xs):
    if not xs:
        raise SystemExit("perfbench: no successful solve of the largest instance")
    return statistics.fmean(xs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    source = corpus.PROGRAMS[workload.program]
    out = Path(args.out)
    instances = [
        Instance(i, workload, args.seed, n, out / "facts") for i, n in enumerate(workload.ladder)
    ]
    top = instances[-1].index

    try:
        solve(workload, source, instances[0], None)  # warm-up, discarded
    except Exception:
        traceback.print_exc()

    plain: list[dict] = []
    traced: list[dict] = []
    tracer = Tracer()
    start = perf_counter()
    plain_until = start + (args.seconds if args.trace == 0 else args.seconds / 2)
    scale = args.trace == 0
    try:
        # no reference computation before the memory reading: the heap it
        # leaves fragmented would add some 5 MB to the peak
        run_pass(workload, source, instances, None, plain, "untraced-first", False)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        if scale:
            hostspeed.reference_s(0)  # warm-up, discarded
            last = plain[-1]  # the first pass's solve of the largest instance
            last["ref_s"] = hostspeed.reference_s(REF_SHARE * last.get("total_s", 0.0))
        measure(workload, source, instances, None, plain, 1 - args.trace, plain_until, "untraced", scale)
        if args.trace:
            with tracer.installed():
                measure(
                    workload, source, instances, tracer, traced, 1, start + args.seconds, "traced", False
                )
    except Nondeterminism as exc:
        print(f"perfbench: nondeterministic run: {exc}", file=sys.stderr)
        return 3
    measured_s = perf_counter() - start

    records = plain + traced
    failed = sum(1 for r in records if r["error"])
    ok_plain = [r for r in plain if not r["error"] and r["instance"] == top]
    first = instances[-1].first
    if first is None:
        raise SystemExit("perfbench: no successful solve of the largest instance")
    ladder = [(i.n, i.first["counters"]["work"]) for i in instances if i.first is not None]
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "measured_s": measured_s,
        "attempted": len(records),
        "failed": failed,
        "samples": len(ok_plain),
        "sample_total_s": [r["total_s"] for r in ok_plain],
        "ladder": [
            {"n": i.n, "instance_seed": i.seed, **(i.first or {})} for i in instances
        ],
    }
    if scale:
        # the mean of the solves matches the mean of the reference runs
        # between them; a median of ten-odd solves jumps with whichever of
        # the host's fast and slow states held most of the run
        wall_total_s = mean([r["total_s"] for r in ok_plain])
        speed = hostspeed.NOMINAL_S / mean([r["ref_s"] for r in ok_plain])
        result["wall_total_s"], result["host_speed"] = wall_total_s, speed
        result["sample_ref_s"] = [r["ref_s"] for r in ok_plain]
        result["metrics"] = {
            "total_s": wall_total_s * speed,
            "setup_s": median([r["read_s"] + r["parse_s"] for r in ok_plain]) * speed,
            "peak_rss_mb": peak_rss_mb,
            "work": first["counters"]["work"],
            "work_slope": work_slope(ladder),
            "verified_rate": (len(records) - failed) / len(records),
        }
    else:
        c = first["counters"]
        solve_s = median([r["solve_s"] for r in ok_plain])
        m = {
            "tsvio.read_facts_s": median([r["read_s"] for r in ok_plain]),
            "lang.parse_s": median([r["parse_s"] for r in ok_plain]),
            "engine.solve_s": solve_s,
            "output.model_lines_s": median([r["lines_s"] for r in ok_plain]),
            **{f"engine.{k}": c[k] for k in ("work", "join_probes", "firings", "derived", "iterations")},
            **{f"storage.{k}": c[k] for k in ("theta_inserts", "theta_deletes", "pq_ops", "conflict_checks")},
            "engine.probe_yield": c["firings"] / c["join_probes"] if c["join_probes"] else 0.0,
            "storage.theta_yield": c["iterations"] / c["theta_inserts"] if c["theta_inserts"] else 0.0,
            "engine.ns_per_work": solve_s * 1e9 / c["work"],
        }
        layers = [
            tracer.layer_times(r["trace_id"])
            for r in traced
            if not r["error"] and r["instance"] == top
        ]
        for key in layers[0] if layers else ():
            if key != "total_s":
                m[key] = median([lt[key] for lt in layers])
        m["trace.overhead"] = median([lt["total_s"] for lt in layers]) / median(
            [r["total_s"] for r in ok_plain]
        )
        result["traced_samples"] = len(layers)
        result["metrics"] = m
        tracer.dump(out / "trace.json")

    compare_baseline(result)
    with open(out / "result.json", "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    return 0


def compare_baseline(result) -> None:
    """At the baseline seed, say whether counters and model digests still
    match the recorded baseline.  This informs; it fails nothing, because an
    optimisation may legitimately change the counters."""
    if not BASELINE.is_file():
        return
    with open(BASELINE, encoding="utf-8") as f:
        base = json.load(f)
    entry = base.get("workloads", {}).get(result["workload"])
    if entry is None or base.get("seed") != result["seed"]:
        return
    for key in ("counters", "digest"):
        same = [r.get(key) for r in result["ladder"]] == [r.get(key) for r in entry["ladder"]]
        result[f"baseline_{key}"] = "same" if same else "different"
        print(f"baseline seed {result['seed']}: {key} {'match' if same else 'DIFFER from'} the baseline")


if __name__ == "__main__":
    sys.exit(main())
