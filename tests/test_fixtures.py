"""Run every committed criterion fixture through the job dispatcher.

These are the reproducibility surface for the acceptance rows: each file is
one batch JobSpec whose sub-jobs (including the expect-fail negative
controls) must come back green, and whose report must match the golden copy
under fixtures/expected/ byte for byte (the CLI's serialization).
"""

import json
from pathlib import Path

import pytest

from baxcheck import baxter, ncalg
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


def _report(path):
    payload, _ = run_job(json.loads(path.read_text()))
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("stem", ["criterion1", "criterion4", "criterion7"])
def test_fixture_reports_match_with_cold_and_with_warm_constants(stem):
    # prop1's summands and the parameter-free spectral functions are built once per process
    path = FIXTURE_DIR / f"{stem}.json"
    golden = (FIXTURE_DIR / "expected" / path.name).read_text()
    ncalg._prop1_summands.cache_clear()
    baxter._constant_fn.cache_clear()
    assert _report(path) == golden  # cold: the run builds the constants
    assert _report(path) == golden  # warm: the run reads them


def test_shared_constants_equal_a_fresh_build_after_every_fixture():
    # no job mutates a constant it shares with later jobs
    cases = [case for case in baxter.SPECTRAL_CASES if case != "i"]
    summands = ncalg._prop1_summands()
    fns = {case: baxter._constant_fn(case) for case in cases}
    for path in FIXTURES:
        _report(path)
    assert ncalg._prop1_summands() is summands
    assert summands == ncalg._prop1_summands.__wrapped__()
    for case in cases:
        assert baxter._constant_fn(case) is fns[case]
        assert fns[case] == baxter._constant_fn.__wrapped__(case)
