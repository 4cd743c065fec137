import json
import subprocess
import sys
from pathlib import Path

import pytest

from baxcheck import cli
from baxcheck.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, JobError, run_job
from baxcheck.verify import MAX_GENERATORS, MAX_PAIRS, MAX_SERIES_ORDER, MAX_TRIALS

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def invoke(tmp_path, job, extra=()):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    proc = subprocess.run(
        [sys.executable, "-m", "baxcheck.cli", "--job", str(path), *extra],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


def test_prop1_job_passes(tmp_path):
    code, out = invoke(tmp_path, {"command": "prop1"})
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["report"]["residuals"] == [["residual", 0]]


def test_prop1_mutation_with_expect_fail(tmp_path):
    code, _ = invoke(tmp_path, {"command": "prop1", "omit_term": "b_r1", "expect": "fail"})
    assert code == EXIT_PASS
    code, _ = invoke(tmp_path, {"command": "prop1", "omit_term": "b_r1"})
    assert code == EXIT_FAIL


def test_verify_ybe_job(tmp_path):
    job = {
        "command": "verify-ybe",
        "rep": {"builtin": "A3_2dim", "parameters": {"c": "1", "mu": None}},
        "fn": {"case": "i", "alpha1": "2", "alpha2": "1", "b": "0", "c": "1"},
        "mode": "symbolic",
    }
    code, _ = invoke(tmp_path, job)
    assert code == EXIT_PASS


def test_malformed_scalar_is_schema_error(tmp_path):
    job = {"command": "scalar-reps", "algebra": "A", "parameters": {"a": "1/0"}}
    code, out = invoke(tmp_path, job)
    assert code == EXIT_USAGE
    assert "1/0" in json.loads(out)["error"]


def test_unknown_field_rejected(tmp_path):
    job = {"command": "prop1", "surprise": 1}
    code, _ = invoke(tmp_path, job)
    assert code == EXIT_USAGE


def test_unknown_command_rejected(tmp_path):
    code, _ = invoke(tmp_path, {"command": "explode"})
    assert code == EXIT_USAGE
    # a non-string command must not reach the override lookup
    code, out = invoke(tmp_path, {"command": ["x"]})
    assert code == EXIT_USAGE
    assert "unknown command" in json.loads(out)["error"]


def test_missing_job_file():
    proc = subprocess.run(
        [sys.executable, "-m", "baxcheck.cli", "--job", "/nonexistent.json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_USAGE


def test_report_written_to_file(tmp_path):
    job_path = tmp_path / "job.json"
    out_path = tmp_path / "report.json"
    job_path.write_text(json.dumps({"command": "prop1"}))
    proc = subprocess.run(
        [sys.executable, "-m", "baxcheck.cli", "--job", str(job_path), "--out", str(out_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_PASS
    assert json.loads(out_path.read_text())["exit_code"] == 0


def test_randomized_reports_are_byte_identical(tmp_path):
    job = {
        "command": "verify-ybe",
        "rep": {"builtin": "B3_2dim"},
        "fn": {"case": "ii"},
        "mode": "random",
        "trials": 4,
        "seed": 7,
    }
    code1, out1 = invoke(tmp_path, job)
    code2, out2 = invoke(tmp_path, job)
    assert code1 == code2 == EXIT_PASS
    assert out1 == out2


def test_seed_override_changes_samples(tmp_path):
    job = {
        "command": "verify-ybe",
        "rep": {"builtin": "B3_2dim"},
        "fn": {"case": "ii"},
        "mode": "random",
        "trials": 2,
        "seed": 7,
    }
    _, base = invoke(tmp_path, job)
    _, other = invoke(tmp_path, job, extra=("--seed", "8"))
    assert base != other


def test_batch_job_aggregates(tmp_path):
    job = {
        "command": "batch",
        "jobs": [
            {"command": "prop1"},
            {"command": "prop1", "omit_term": "r3", "expect": "fail"},
        ],
    }
    code, out = invoke(tmp_path, job)
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert [j["exit_code"] for j in payload["jobs"]] == [0, 0]


# the known-failing pairing: A3_2dim does not solve the case-ii Yang-Baxter equation
A3_II_RANDOM = {
    "command": "verify-ybe",
    "fn": {"case": "ii"},
    "mode": "random",
    "rep": {"builtin": "A3_2dim", "parameters": {"c": "1", "mu": None}},
    "seed": 1,
    "trials": 2,
}


def test_run_job_api_errors(monkeypatch):
    with pytest.raises(JobError):
        run_job({"command": "verify-ybe", "rep": {"builtin": "A3_2dim"}})  # missing fn
    with pytest.raises(JobError):
        run_job({"command": "verify-lemmas", "suite": "A", "rep": {"builtin": "A3_2dim"}})
    with pytest.raises(JobError):
        run_job([1, 2, 3])
    with pytest.raises(JobError):
        # deep usage error surfaces as a schema/usage failure, not internal
        run_job({
            "command": "verify-ybe",
            "rep": {"builtin": "scalar", "values": ["1"], "n": 2},
            "fn": {"case": "ii"},
        })
    # list fields must be lists, never strings or ints iterated or unpacked
    for assignment in ("10", 10):
        with pytest.raises(JobError):
            run_job({"command": "scalar-reps", "algebra": "Braid", "assignment": assignment})
    for values in ("10", 10):
        with pytest.raises(JobError):
            run_job({
                "command": "check-algebra",
                "algebra": "Braid",
                "rep": {"builtin": "scalar", "values": values, "n": 3},
            })
    with pytest.raises(JobError):
        run_job({
            "command": "transfer-commute",
            "rep": {"builtin": "Hecke3_std", "parameters": {"q": "2"}},
            "fn": {"case": "hecke"},
            "lengths": [True],
        })
    # chain lengths are capped before anything is allocated
    for field, value in (("lengths", [9]), ("length", 1000000)):
        with pytest.raises(JobError, match="chain length"):
            run_job({
                "command": "transfer-commute",
                "rep": {"builtin": "Hecke3_std", "parameters": {"q": "2"}},
                "fn": {"case": "hecke"},
                field: value,
            })
    with pytest.raises(JobError, match="expected an integer"):
        run_job({
            "command": "check-algebra",
            "algebra": "Braid",
            "rep": {"builtin": "scalar", "values": ["1"], "n": True},
        })
    # randomized checks with nothing to sample are usage errors, not vacuous passes
    for extra in ({"pairs": 0}, {"pairs": -4, "corrupt": True}):
        with pytest.raises(JobError, match="point pair"):
            run_job({
                "command": "transfer-commute",
                "rep": {"builtin": "Hecke3_std", "parameters": {"q": "2"}},
                "fn": {"case": "hecke"},
                **extra,
            })
    with pytest.raises(JobError, match="trials"):
        run_job(dict(A3_II_RANDOM, trials=0))
    # job sizes are capped before any rep is built or any check starts
    def never(*args, **kwargs):
        raise AssertionError("work started on a job over a size cap")

    for name in ("builtin_rep", "build_R", "series_agreement_order", "relations_for", "check_relations",
                 "classify_scalar", "verify_scalar", "ybe_random", "ybe_symbolic", "transfer_commute"):
        monkeypatch.setattr(cli, name, never)
    hecke = {"builtin": "Hecke3_std", "parameters": {"q": "2"}}
    over_cap = [
        ("series_order", {"command": "baxterise", "rep": hecke, "fn": {"case": "hecke"},
                          "series_order": MAX_SERIES_ORDER + 1}),
        ("series_order", {"command": "baxterise", "rep": hecke, "fn": {"case": "hecke"}, "series_order": 1000000}),
        ("n", {"command": "check-algebra", "algebra": "Braid", "rep": hecke, "n": MAX_GENERATORS + 1}),
        ("n", {"command": "check-algebra", "algebra": "Braid", "rep": hecke, "n": 1000000}),
        ("n", {"command": "check-algebra", "algebra": "Braid", "rep": {"builtin": "scalar", "n": 1000000}}),
        ("n", {"command": "scalar-reps", "algebra": "A", "n": 1000000}),
        ("trials", dict(A3_II_RANDOM, trials=MAX_TRIALS + 1)),
        ("pairs", {"command": "transfer-commute", "rep": hecke, "fn": {"case": "hecke"}, "pairs": MAX_PAIRS + 1}),
    ]
    for field, job in over_cap:
        with pytest.raises(JobError, match=f"^{field}: at most"):
            run_job(job)


def test_zero_trials_override_rejected(tmp_path):
    code, out = invoke(tmp_path, A3_II_RANDOM, extra=("--trials", "0"))
    assert code == EXIT_USAGE
    assert "trials" in json.loads(out)["error"]


def test_transfer_lengths_checked_before_any_run(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "transfer_commute", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(JobError, match="got 9"):
        run_job({
            "command": "transfer-commute",
            "rep": {"builtin": "Hecke3_std", "parameters": {"q": "2"}},
            "fn": {"case": "hecke"},
            "lengths": [5, 9],
        })
    assert calls == []


def test_report_payload_excludes_timing(tmp_path):
    code, out = invoke(tmp_path, {"command": "prop1"})
    record = json.loads(out)["report"]
    assert set(record) == {"name", "status", "residuals", "mode", "notes"}


def test_transfer_job(tmp_path):
    job = {
        "command": "transfer-commute",
        "rep": {"builtin": "Hecke3_std", "parameters": {"q": "2"}},
        "fn": {"case": "hecke"},
        "lengths": [2],
        "pairs": 2,
        "seed": 3,
    }
    code, out = invoke(tmp_path, job)
    assert code == EXIT_PASS
    labels = [label for label, _ in json.loads(out)["report"]["residuals"]]
    assert all(label.startswith("L=2") for label in labels)


def test_fixture_jobs_exist_and_validate():
    names = sorted(p.name for p in FIXTURES.glob("criterion*.json"))
    assert len(names) == 9
    for path in FIXTURES.glob("criterion*.json"):
        job = json.loads(path.read_text())
        assert job["command"] in ("batch",)
