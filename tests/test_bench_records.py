"""Each BENCH_<workload>.json at the repository root holds the before/after
record that README's Benchmarks section describes: a BENCHMARK.json
workload, a parent and a change run, and every end-to-end metric with its
unit, median, quartiles and per-seed values."""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SHA = re.compile(r"[0-9a-f]{40}")


def test_every_workload_has_one_record():
    assert sorted(p.name for p in RECORDS) == sorted(f"BENCH_{w}.json" for w in WORKLOADS)


@pytest.mark.parametrize("path", RECORDS, ids=[p.stem for p in RECORDS])
def test_record_follows_the_readme_schema(path):
    with open(path, encoding="utf-8") as f:
        rec = json.load(f)
    assert rec["workload"] == path.stem.removeprefix("BENCH_")
    assert rec["workload"] in WORKLOADS
    assert isinstance(rec["host"], str) and rec["host"]
    assert isinstance(rec["protocol"], str) and rec["protocol"]
    assert sorted(rec["runs"]) == ["change", "parent"]
    for side, run in rec["runs"].items():
        # a change measured before it was committed names its src/ tree
        assert SHA.fullmatch(run["commit"] or run.get("src_tree", "")), side
        seeds = run["seeds"]
        assert seeds and len(set(seeds)) == len(seeds)
        assert sorted(run["host_speed"]) == sorted(map(str, seeds))
        assert all(v > 0 for v in run["host_speed"].values())
        assert sorted(run["end_to_end"]) == sorted(END_TO_END)
        for name, m in run["end_to_end"].items():
            assert m["unit"] == END_TO_END[name], (side, name)
            values = m["values"]
            assert len(values) == len(seeds), (side, name)
            assert m["median"] == pytest.approx(statistics.median(values)), (side, name)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                assert (m["q1"], m["q3"]) == pytest.approx((q1, q3)), (side, name)
        assert run["trace_seed"] in seeds
        assert run["per_layer"], side
        for name, m in run["per_layer"].items():
            assert m["unit"] == PER_LAYER[name], (side, name)
            assert isinstance(m["value"], (int, float)), (side, name)
