"""Every metric of every workload, end-to-end and per layer, in one command.

    python3 perfbench/report.py [--seed N] [--seconds S] [--write-baseline]

Runs perfbench/run.py for each workload of BENCHMARK.json, untraced
(--trace 0) and traced (--trace 1), one run at a time; each run prints its
metric table.  --write-baseline stores the results, with the workload notes
(layers loaded and bypassed, which end-to-end metric each layer metric should
move, known defects), in perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import KNOWN_DEFECTS, LAYER_METRIC_MAP, WORKLOADS  # noqa: E402


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)

    baseline = {
        "seed": args.seed,
        "run_seconds": args.seconds,
        "hardware": f"{cpu_model()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "layer_metric_map": LAYER_METRIC_MAP,
        "workloads": {},
    }
    status = 0
    for entry in bench["workloads"]:
        wl = WORKLOADS[entry["name"]]
        record = {
            "why": entry["why"],
            "ladder_n": list(wl.ladder),
            "loads": list(wl.loads),
            "bypasses": list(wl.bypasses),
        }
        if wl.name in KNOWN_DEFECTS:
            record["known_defect"] = KNOWN_DEFECTS[wl.name]
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", wl.name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            if subprocess.run(cmd).returncode != 0:
                status = 1
                continue
            with open(ROOT / ".perfbench" / f"{wl.name}-s{args.seed}-t{trace}" / "result.json",
                      encoding="utf-8") as f:
                summary = json.load(f)
            if trace:
                record["per_layer"], record["traced_samples"] = summary["metrics"], summary["traced_samples"]
            else:
                record["end_to_end"], record["samples"] = summary["metrics"], summary["samples"]
            record["ladder"] = summary["ladder"]
        baseline["workloads"][wl.name] = record
    if args.write_baseline and status == 0:
        with open(HERE / "baseline.json", "w", encoding="utf-8") as f:
            json.dump(baseline, f, indent=1)
            f.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
