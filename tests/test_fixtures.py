"""Run every committed criterion fixture through the job dispatcher.

These are the reproducibility surface for the acceptance rows: each file is
one batch JobSpec whose sub-jobs (including the expect-fail negative
controls) must come back green, and whose report must match the golden copy
under fixtures/expected/ byte for byte (the CLI's serialization).
"""

import json
from pathlib import Path

import pytest

from baxcheck.cli import EXIT_PASS, run_job

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURES = sorted(FIXTURE_DIR.glob("criterion*.json"))


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_runs_clean(path):
    job = json.loads(path.read_text())
    payload, code = run_job(job)
    failing = [
        sub for sub in payload.get("jobs", [payload])
        if sub.get("exit_code") != EXIT_PASS
    ]
    assert code == EXIT_PASS, f"{path.name}: failing sub-jobs {failing}"
    golden = (FIXTURE_DIR / "expected" / path.name).read_text()
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == golden
