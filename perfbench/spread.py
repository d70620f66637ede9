"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per (workload, seed), one run at a time, and for
each metric prints its values, median and the quartile spread (q3 - q1) /
median that BENCHMARK.json's bounds are checked against.  Raw result lines go
to .perfbench/spread-<workload>-t<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= line["correct"]
            runs.append({"seed": seed, **line})
        out = ROOT / ".perfbench" / f"spread-{workload}-t{args.trace}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(runs, indent=1))
        if len(runs) < 2:
            continue
        print(f"{workload} ({len(runs)} seeds)")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}  {'ok' if spread <= bound / 3 else 'WIDE'}"
            print(f"  {name:28s} median {med:<14.6g} spread {spread:7.4f}{flag}")
            print(f"  {'':28s} " + " ".join(f"{v:.6g}" for v in values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
