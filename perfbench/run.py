"""gdlog benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the gdlog sources are taken from src/ next to this
directory.  The workload runs in a fresh child process (perfbench/child.py)
with GDLOG_TRACE removed from its environment; this process waits for it and
prints the metric table followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 its
per_layer metrics, with the units declared there.  Run files (fact files,
result.json, trace.json) go to .perfbench/ at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "gdlog" / "__init__.py").is_file():
        print(f"perfbench: no gdlog sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "GDLOG_TRACE"}
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ]
    try:
        child = subprocess.run(cmd, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"perfbench: workload run failed with exit code {child.returncode}", file=sys.stderr)
        return 1
    with open(out / "result.json", encoding="utf-8") as f:
        result = json.load(f)
    shutil.rmtree(out / "facts", ignore_errors=True)

    metrics = result["metrics"]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: the run did not measure {', '.join(missing)}", file=sys.stderr)
        return 1
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {result['samples']} timed "
        f"samples of n={result['ladder'][-1]['n']}, {result['attempted']} solves, "
        f"{result['failed']} failed"
    )
    if args.trace == 0:
        print(
            f"  total_s and setup_s are scaled by the host speed factor {result['host_speed']:.4f}; "
            f"unscaled mean total {result['wall_total_s']:.6g} s"
        )
    for m in declared:
        print(f"  {m['name']:32s} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
