"""The benchmark's own judgement of one traced pass, per workload.

Each workload runs once through `perfbench/worker.py WORKLOAD SEED trace` in a
fresh interpreter, exactly as `perfbench/run.py` spawns it, at the default
seed 0 and at seed 7, whose seeded rows differ.  The pass must
meet the benchmark's contract: every job ends with its expected exit code and
its pinned payload digest (`run.judge`), and the per-layer counts keep the
zero / non-zero pattern of `perfbench/predictions.json`
(`run.check_predictions`).  The test only reads `perfbench/`.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py as a module; it imports its siblings jobs and speed by name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


# the default seed keeps the bare workload id
CASES = [(workload, seed) for seed in (0, 7) for workload in ("ybe-symbolic", "canonical-forms", "numeric-chain")]


@pytest.mark.parametrize("workload, seed", CASES, ids=[w if s == 0 else f"{w}-seed{s}" for w, s in CASES])
def test_traced_pass_meets_the_benchmark_contract(bench, workload, seed):
    assert workload in bench.WORKLOADS
    proc = subprocess.run(
        [sys.executable, "-E", "-s", str(PERFBENCH / "worker.py"), workload, str(seed), "trace"],
        cwd=PERFBENCH.parent,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    lines = proc.stdout.splitlines()
    assert lines[0].strip() == b"ready"
    result = json.loads(lines[-1])
    digests = json.loads((PERFBENCH / "digests.json").read_text())
    predictions = json.loads((PERFBENCH / "predictions.json").read_text())
    assert bench.judge(result["records"], digests, seed) == []
    assert bench.check_predictions(workload, bench._layer_values(result["trace"]), predictions) == []
