"""The committed perf trajectory, `BENCH_trajectory.json` at the repo root.

Each workload of `BENCHMARK.json` holds one record per measured tree, and
every record reports exactly the benchmark's end-to-end metrics, each as a
median and quartiles (null where its source gave no value).  A record
measured afresh from its own runs (`"source": "fresh-runs"`) leaves nothing
null.  The test reads only the two files, no git history.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def trajectory():
    return json.loads((ROOT / "BENCH_trajectory.json").read_text(encoding="utf-8"))


def _nulls(value, where=""):
    """The path of every null inside value."""
    if value is None:
        return [where]
    if isinstance(value, dict):
        return [p for key, item in value.items() for p in _nulls(item, f"{where}.{key}")]
    if isinstance(value, list):
        return [p for i, item in enumerate(value) for p in _nulls(item, f"{where}[{i}]")]
    return []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_has_records_of_the_end_to_end_metrics(trajectory, workload):
    records = trajectory["workloads"][workload]
    assert records
    for record in records:
        assert set(record["metrics"]) == END_TO_END, record["commit"]
        for stats in record["metrics"].values():
            assert set(stats) == {"median", "q1", "q3"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_fresh_record_has_no_null(trajectory, workload):
    fresh = [record for record in trajectory["workloads"][workload] if record["source"] == "fresh-runs"]
    assert fresh
    for record in fresh:
        assert _nulls(record) == []
        assert len(record["info"]) == record["n"]


def test_the_trajectory_covers_only_the_benchmark_workloads(trajectory):
    assert sorted(trajectory["workloads"]) == sorted(WORKLOADS)
