import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baxcheck import cli
from baxcheck.cli import (
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_PASS,
    EXIT_USAGE,
    MAX_BATCH_JOBS,
    MAX_GENERATORS,
    MAX_PAIRS,
    MAX_PARAMETERS,
    MAX_SCALAR_BITS,
    MAX_SERIES_ORDER,
    MAX_TRIALS,
    run_job,
)
from baxcheck.baxter import series_agreement_order, spectral_fn
from baxcheck.exactnum import SingularMatrixError
from baxcheck.ncalg import prop1_certificate
from baxcheck.reps import builtin_rep, classify_scalar, correspondence_check, verify_scalar
from baxcheck.verify import MAX_CHAIN_LENGTH, check_chain_lengths, transfer_commute, ybe_random

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
# the child interpreter imports baxcheck from the repo's src, as the in-process tests do
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}


def run_cli(*args):
    """`python -m baxcheck.cli` with args in a subprocess, output captured as text."""
    return subprocess.run([sys.executable, "-m", "baxcheck.cli", *args], capture_output=True, text=True, env=CLI_ENV)


def invoke(tmp_path, job, extra=()):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    proc = run_cli("--job", str(path), *extra)
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


def test_non_ascii_digits_are_a_schema_error(tmp_path):
    # the job grammar is ASCII "p" or "p/q": fullwidth digits are no scalar
    job = {"command": "scalar-reps", "algebra": "B", "assignment": ["\uff11", "\uff10"]}
    code, out = invoke(tmp_path, job)
    assert code == EXIT_USAGE
    assert "\uff11" in json.loads(out)["error"]


def test_whitespace_around_a_scalar_is_a_schema_error(tmp_path):
    # no whitespace, ASCII or Unicode, belongs to a scalar
    job = {"command": "scalar-reps", "algebra": "B", "assignment": [" 1", "0\u3000"]}
    code, out = invoke(tmp_path, job)
    assert code == EXIT_USAGE
    assert "' 1'" in json.loads(out)["error"]


def test_unknown_field_rejected(tmp_path):
    job = {"command": "prop1", "surprise": 1}
    code, _ = invoke(tmp_path, job)
    assert code == EXIT_USAGE
    # chain lengths come only as the list `lengths`
    job = {
        "command": "transfer-commute",
        "rep": {"builtin": "Hecke3_std", "parameters": {"q": "2"}},
        "fn": {"case": "hecke"},
        "length": 2,
    }
    code, out = invoke(tmp_path, job)
    assert code == EXIT_USAGE
    assert json.loads(out)["error"] == "unknown fields ['length']"


def test_unknown_command_rejected(tmp_path):
    code, _ = invoke(tmp_path, {"command": "explode"})
    assert code == EXIT_USAGE
    # a non-string command must not reach the override lookup
    code, out = invoke(tmp_path, {"command": ["x"]})
    assert code == EXIT_USAGE
    assert "unknown command" in json.loads(out)["error"]


def test_missing_job_file():
    proc = run_cli("--job", "/nonexistent.json")
    assert proc.returncode == EXIT_USAGE


def test_report_written_to_file(tmp_path):
    job_path = tmp_path / "job.json"
    out_path = tmp_path / "report.json"
    job_path.write_text(json.dumps({"command": "prop1"}))
    proc = run_cli("--job", str(job_path), "--out", str(out_path))
    assert proc.returncode == EXIT_PASS
    assert json.loads(out_path.read_text())["exit_code"] == 0


@pytest.mark.parametrize("out", [lambda tmp: tmp / "missing" / "x.json", lambda tmp: tmp], ids=["missing-dir", "directory"])
def test_an_unwritable_out_is_a_usage_error(tmp_path, out):
    proc = run_cli("--job", str(FIXTURES / "criterion1.json"), "--out", str(out(tmp_path)))
    assert (proc.returncode, proc.stderr) == (EXIT_USAGE, "")
    payload = json.loads(proc.stdout)
    assert payload["exit_code"] == EXIT_USAGE and payload["error"].startswith("cannot write report: ")


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


def test_scalar_reps_with_a_symbolic_parameter_is_usage_error(tmp_path):
    # b and c are absent, so they stay symbolic rather than counting as 0
    code, out = invoke(tmp_path, {"command": "scalar-reps", "algebra": "A", "parameters": {"a": "1"}})
    assert code == EXIT_USAGE
    assert json.loads(out)["error"] == "scalar classification needs rational a, b, c"


@pytest.mark.parametrize("nested", [False, True], ids=["job", "rep"])
def test_parameters_over_the_name_cap_is_usage_error(tmp_path, nested):
    parameters = {"q": "2", "a": "1", "b": "1", "c": "1"}
    rep = {"builtin": "Hecke3_std", "parameters": parameters} if nested else {"builtin": "Hecke3_std"}
    job = {"command": "check-algebra", "algebra": "Hecke", "rep": rep}
    code, out = invoke(tmp_path, job if nested else dict(job, parameters=parameters))
    assert code == EXIT_USAGE
    assert json.loads(out)["error"] == f"parameters: at most {MAX_PARAMETERS} names, got 4"


def test_batch_over_the_job_cap_is_rejected_before_any_job_runs(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a sub-job ran in a batch over the job cap")

    monkeypatch.setattr(cli, "prop1_certificate", never)
    for count in (MAX_BATCH_JOBS + 1, 20000):
        with pytest.raises(ValueError, match=f"^jobs: at most {MAX_BATCH_JOBS} items, got {count}$"):
            run_job({"command": "batch", "jobs": [{"command": "prop1"}] * count})


BAXTERISE = {"command": "baxterise", "rep": {"builtin": "B3_2dim"}, "fn": {"case": "ii"}}


def _raising(exc):
    def worker(*args, **kwargs):
        raise exc

    return worker


def test_a_singular_factor_is_an_error_report(monkeypatch):
    monkeypatch.setattr(cli, "build_R", _raising(SingularMatrixError("singular factor")))
    payload, code = run_job(dict(BAXTERISE))
    assert code == EXIT_FAIL == payload["exit_code"]
    assert payload["report"]["status"] == "error"
    assert payload["report"]["notes"] == ["singular factor"]


def test_a_zero_division_in_a_worker_is_an_internal_error(monkeypatch, tmp_path, capsys):
    # a ZeroDivisionError is a defect, not a failed precondition
    monkeypatch.setattr(cli, "build_R", _raising(ZeroDivisionError("division by zero")))
    with pytest.raises(ZeroDivisionError):
        run_job(dict(BAXTERISE))
    path = tmp_path / "job.json"
    path.write_text(json.dumps(BAXTERISE))
    assert cli.main(["--job", str(path)]) == EXIT_INTERNAL
    assert json.loads(capsys.readouterr().out) == {"error": "internal error: division by zero", "exit_code": EXIT_INTERNAL}


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
    with pytest.raises(ValueError):
        run_job({"command": "verify-ybe", "rep": {"builtin": "A3_2dim"}})  # missing fn
    with pytest.raises(ValueError):
        run_job({"command": "verify-lemmas", "suite": "A", "rep": {"builtin": "A3_2dim"}})
    with pytest.raises(ValueError):
        run_job([1, 2, 3])
    # deep usage error surfaces as a schema/usage failure, not internal: every check on sites 1 and 2
    one_site = {"builtin": "scalar", "values": ["1"]}
    for job in (
        {"command": "verify-ybe", "rep": one_site, "fn": {"case": "ii"}},
        {"command": "verify-ybe", "rep": one_site, "fn": {"case": "ii"}, "mode": "random", "trials": 2},
        {"command": "verify-lemmas", "suite": "A", "rep": one_site, "alpha1": "2", "alpha2": "1", "b": "0", "c": "1"},
        {"command": "verify-lemmas", "suite": "B", "rep": one_site},
    ):
        with pytest.raises(ValueError, match="sites 1 and 2"):
            run_job(job)
    # list fields must be lists, never strings or ints iterated or unpacked
    for assignment in ("10", 10):
        with pytest.raises(ValueError):
            run_job({"command": "scalar-reps", "algebra": "Braid", "assignment": assignment})
    for values in ("10", 10):
        with pytest.raises(ValueError):
            run_job({
                "command": "check-algebra",
                "algebra": "Braid",
                "rep": {"builtin": "scalar", "values": values},
            })
    with pytest.raises(ValueError):
        run_job({
            "command": "transfer-commute",
            "rep": {"builtin": "Hecke3_std", "parameters": {"q": "2"}},
            "fn": {"case": "hecke"},
            "lengths": [True],
        })
    # chain lengths are capped before anything is allocated
    for lengths in ([9], [1000000]):
        with pytest.raises(ValueError, match=f"^lengths: at most {MAX_CHAIN_LENGTH}, got {lengths[0]}$"):
            run_job({
                "command": "transfer-commute",
                "rep": {"builtin": "Hecke3_std", "parameters": {"q": "2"}},
                "fn": {"case": "hecke"},
                "lengths": lengths,
            })
    # a 1x1 Rhat has no off-diagonal entry for the negative control to perturb
    with pytest.raises(ValueError, match="corrupt"):
        run_job({
            "command": "transfer-commute",
            "rep": {"builtin": "scalar", "values": ["2", "2"]},
            "fn": {"case": "hecke"},
            "lengths": [2],
            "pairs": 1,
            "corrupt": True,
        })
    with pytest.raises(ValueError, match="^site: expected an integer$"):
        run_job({"command": "baxterise", "rep": {"builtin": "scalar"}, "fn": {"case": "ii"}, "site": True})
    # randomized checks with nothing to sample are usage errors, not vacuous passes
    for extra in ({"pairs": 0}, {"pairs": -4, "corrupt": True}):
        with pytest.raises(ValueError, match="^pairs: at least 1, got"):
            run_job({
                "command": "transfer-commute",
                "rep": {"builtin": "Hecke3_std", "parameters": {"q": "2"}},
                "fn": {"case": "hecke"},
                **extra,
            })
    with pytest.raises(ValueError, match="trials"):
        run_job(dict(A3_II_RANDOM, trials=0))
    with pytest.raises(ValueError, match="lengths: expected a nonempty list"):
        run_job({
            "command": "transfer-commute",
            "rep": {"builtin": "Hecke3_std", "parameters": {"q": "2"}},
            "fn": {"case": "hecke"},
            "lengths": [],
        })
    # a batch has no verdict of its own to invert
    with pytest.raises(ValueError, match="expect"):
        run_job({"command": "batch", "jobs": [{"command": "prop1"}], "expect": "fail"})
    # parameter names the algebra lacks are rejected with or without an assignment
    for algebra, parameters in (("A", {"a": "1", "b": "1", "q": "7"}), ("B", {"a": "5"})):
        with pytest.raises(ValueError, match="unexpected parameters"):
            run_job({"command": "scalar-reps", "algebra": algebra, "parameters": parameters})
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
        # n = len(assignment) + 1 is capped, before any item is parsed
        ("assignment", {"command": "scalar-reps", "algebra": "A", "assignment": ["1"] * MAX_GENERATORS}),
        ("assignment", {"command": "scalar-reps", "algebra": "B", "assignment": [None] * 1000000}),
        # a scalar rep's n = len(values) + 1 is capped the same way
        ("values", {"command": "check-algebra", "algebra": "Braid",
                    "rep": {"builtin": "scalar", "values": ["1"] * MAX_GENERATORS}}),
        ("values", {"command": "check-algebra", "algebra": "Braid",
                    "rep": {"builtin": "scalar", "values": [None] * 1000000}}),
        # a parameters object, the job's or the rep's, is capped by its names before any value is parsed
        ("parameters", {"command": "check-algebra", "algebra": "Hecke", "rep": hecke,
                        "parameters": {f"p{k}": "x" for k in range(1000000)}}),
        ("parameters", {"command": "check-algebra", "algebra": "Hecke",
                        "rep": {"builtin": "Hecke3_std", "parameters": {f"p{k}": "x" for k in range(1000000)}}}),
        ("trials", dict(A3_II_RANDOM, trials=MAX_TRIALS + 1)),
        ("pairs", {"command": "transfer-commute", "rep": hecke, "fn": {"case": "hecke"}, "pairs": MAX_PAIRS + 1}),
    ]
    for field, job in over_cap:
        with pytest.raises(ValueError, match=f"^{field}: at most"):
            run_job(job)
    with pytest.raises(ValueError, match="^assignment: expected a nonempty list$"):
        run_job({"command": "scalar-reps", "algebra": "A", "assignment": []})
    # a scalar rep needs at least one generator, so values is nonempty
    with pytest.raises(ValueError, match="^values: expected a nonempty list$"):
        run_job({"command": "check-algebra", "algebra": "Braid", "rep": {"builtin": "scalar", "values": []}})


@pytest.mark.parametrize(
    "job",
    [
        {"command": "check-algebra", "algebra": "Hecke", "parameters": {"q": "2"}, "rep": {"builtin": "Hecke3_std"}},
        {"command": "scalar-reps", "algebra": "B", "assignment": ["1", "0"]},
    ],
)
def test_strand_count_is_not_a_job_field(tmp_path, job):
    # the rep or the assignment fixes n
    code, out = invoke(tmp_path, dict(job, n=3))
    assert code == EXIT_USAGE
    assert json.loads(out)["error"] == "unknown fields ['n']"


def test_assignment_sets_the_strand_count():
    job = {"command": "scalar-reps", "algebra": "B", "assignment": ["1", "0", "1"]}
    payload, code = run_job(job)
    assert code == EXIT_PASS and payload["report"]["residuals"] == [["assignment", 0]]
    # (1, 0, 2) fails only at the third generator, which n = 3 would not reach
    payload, code = run_job(dict(job, assignment=["1", "0", "2"]))
    assert code == EXIT_FAIL and payload["report"]["residuals"] == [["assignment", 1]]


HECKE_Q2 = {"builtin": "Hecke3_std", "parameters": {"q": "2"}}
SCALAR_23 = {"builtin": "scalar", "values": ["2", "3"]}


@pytest.mark.parametrize(
    "job, field",
    [
        ({"command": "check-algebra", "algebra": "Braid", "rep": HECKE_Q2}, "parameters"),
        ({"command": "scalar-reps", "algebra": "A", "parameters": {"a": "1", "b": "0", "c": "1"}}, "assignment"),
        ({"command": "verify-ybe", "rep": SCALAR_23, "fn": {"case": "ii"}, "mode": "random"}, "trials"),
        ({"command": "verify-ybe", "rep": SCALAR_23, "fn": {"case": "ii"}, "mode": "random"}, "seed"),
        ({"command": "transfer-commute", "rep": HECKE_Q2, "fn": {"case": "hecke"}, "lengths": [2]}, "pairs"),
        ({"command": "transfer-commute", "rep": HECKE_Q2, "fn": {"case": "hecke"}, "pairs": 1}, "lengths"),
        ({"command": "transfer-commute", "rep": HECKE_Q2, "fn": {"case": "hecke"}, "pairs": 1}, "seed"),
    ],
)
def test_null_field_takes_default(job, field):
    assert run_job(dict(job, **{field: None})) == run_job(job)


# a cheap valid job per command; each one reaches a worker that `never` replaces
# (verify-ybe runs in symbolic mode, which ignores trials but still bounds it)
BASE_JOBS = {
    "prop1": {},
    "check-algebra": {"algebra": "Braid", "rep": SCALAR_23},
    "scalar-reps": {"algebra": "B", "assignment": ["1", "0"]},
    "baxterise": {"rep": HECKE_Q2, "fn": {"case": "hecke"}},
    "verify-ybe": {"rep": HECKE_Q2, "fn": {"case": "hecke"}},
    "verify-lemmas": {"suite": "B", "rep": HECKE_Q2},
    "transfer-commute": {"rep": HECKE_Q2, "fn": {"case": "hecke"}},
    "correspondences": {"kind": "hecke_in_A", "rep": HECKE_Q2},
    "batch": {"jobs": [{"command": "prop1"}]},
}
WORKERS = ("prop1_certificate", "builtin_rep", "relations_for", "check_relations", "classify_scalar", "verify_scalar",
           "build_R", "series_agreement_order", "ybe_symbolic", "ybe_random", "lemma_suite_A", "lemma_suite_B",
           "transfer_commute", "correspondence_check")
# Fields whose parser carries no cap of its own, with their out-of-range
# values: seed is any integer by design, and lengths is read by
# check_chain_lengths (each length in 1..MAX_CHAIN_LENGTH, none repeated).
UNCAPPED = {"seed": [], "lengths": [[0], [MAX_CHAIN_LENGTH + 1], [1] * (MAX_CHAIN_LENGTH + 1)]}


def _spec_entries(spec):
    """(field, parser) of every entry of a COMMANDS spec, and of every field that a value of an entry adds."""
    for field, (parse, _, *variants) in spec.items():
        yield field, parse
        for added in variants[0].values() if variants else ():
            yield from _spec_entries(added)


def _bounded_fields():
    """(command, field, out-of-range values) for every UNCAPPED field and every _int, _list and _parameters
    parser of a job field in COMMANDS, the fields a value adds included, and for the parameters object of
    every rep field, named "rep.parameters" (its values are whole rep records).

    The values come from UNCAPPED, from the parser's own floor and cap (plus
    the empty list, which every list field rejects), or MAX_PARAMETERS; they
    are None for a field with no cap or, for an integer, no floor.
    """
    over = {f"p{k}": "1" for k in range(MAX_PARAMETERS + 1)}
    for command, (_, spec) in cli.COMMANDS.items():
        for field, parse in _spec_entries(spec):
            if parse is cli._parameters:
                yield command, field, [over]
                continue
            if parse is cli._rep:
                yield command, "rep.parameters", [dict(HECKE_Q2, parameters=over)]
                continue
            if field in UNCAPPED:  # lengths has a reader of its own, check_chain_lengths
                yield command, field, UNCAPPED[field]
                continue
            if parse.__qualname__ not in ("_int.<locals>.parse", "_list.<locals>.parse"):
                continue
            bounds = dict(zip(parse.__code__.co_freevars, (cell.cell_contents for cell in parse.__closure__)))
            if bounds["cap"] is None:
                yield command, field, None
            elif "floor" in bounds:
                yield command, field, None if bounds["floor"] is None else [bounds["cap"] + 1, bounds["floor"] - 1]
            else:
                yield command, field, [[None] * (bounds["cap"] + 1), []]


BOUNDED_FIELDS = list(_bounded_fields())


_YBE = {"command": "verify-ybe", "rep": {"builtin": "Hecke3_std"}, "fn": {"case": "hecke"}}


@pytest.mark.parametrize("job, message", [
    ({**_YBE, "trials": 0}, "trials: at least 1, got 0"),
    ({**_YBE, "trials": MAX_TRIALS + 1}, f"trials: at most {MAX_TRIALS}, got {MAX_TRIALS + 1}"),
    ({**_YBE, "trials": True}, "trials: expected an integer"),
    ({**_YBE, "seed": 1.5}, "seed: expected an integer"),
    ({**_YBE, "mode": "exact"}, "unknown mode 'exact', expected one of ('symbolic', 'random')"),
    ({**_YBE, "fn": {"case": "iv"}}, "unknown case 'iv', expected one of ('i', 'ii', 'iii', 'hecke')"),
    ({**_YBE, "rep": {"builtin": "D4"}},
     "unknown builtin 'D4', expected one of ('A3_2dim', 'B3_2dim', 'C3_2dim', 'Hecke3_std', 'Hecke3_burau', 'scalar')"),
    ({**_YBE, "expect": "maybe"}, "unknown expect 'maybe', expected one of ('pass', 'fail')"),
    ({"command": "check-algebra", "algebra": "D", "rep": {"builtin": "B3_2dim"}},
     "unknown algebra 'D', expected one of ('Braid', 'Hecke', 'A', 'B', 'C')"),
    ({"command": "transfer-commute", "rep": {"builtin": "Hecke3_std"}, "fn": {"case": "hecke"}, "lengths": [2, "3"]},
     "lengths: expected an integer"),
    ({"command": "bogus"}, "unknown command 'bogus', expected one of " + str(tuple(cli.COMMANDS))),
])
def test_int_and_name_field_messages_are_pinned(job, message):
    with pytest.raises(ValueError) as exc:
        run_job(job)
    assert str(exc.value) == message


_TRANSFER = {"command": "transfer-commute", "rep": {"builtin": "Hecke3_std", "parameters": {"q": "2"}},
             "fn": {"case": "hecke"}}

# field: (the job with a bad value, the library entry that reads the same field, bad values)
PARITY = {
    "corrupt": (lambda bad: dict(_TRANSFER, corrupt=bad),
                lambda bad: transfer_commute(builtin_rep("Hecke3_std", q=2), 1, spectral_fn("hecke"), [2], corrupt=bad),
                [1, "yes"]),
    "lengths": (lambda bad: dict(_TRANSFER, lengths=bad), check_chain_lengths,
                [[], 5, "23", [2, "3"], [True], [0], [MAX_CHAIN_LENGTH + 1]]),
    "pairs": (lambda bad: dict(_TRANSFER, pairs=bad),
              lambda bad: transfer_commute(builtin_rep("Hecke3_std", q=2), 1, spectral_fn("hecke"), [2], count=bad),
              [0, True]),
    "series_order": (lambda bad: {"command": "baxterise", "rep": HECKE_Q2, "fn": {"case": "hecke"}, "series_order": bad},
                     lambda bad: series_agreement_order(builtin_rep("Hecke3_std", q=2), 1, bad), [-1]),
    "assignment": (lambda bad: {"command": "scalar-reps", "algebra": "B", "assignment": bad},
                   lambda bad: verify_scalar(bad, "B"), [[], 5, ["1"] * MAX_GENERATORS]),
    "scalar-reps.algebra": (lambda bad: {"command": "scalar-reps", "algebra": bad}, classify_scalar, ["D", "Braid"]),
    "rep.parameters": (lambda bad: dict(_YBE, rep={"builtin": "Hecke3_std", "parameters": bad}),
                       lambda bad: builtin_rep("Hecke3_std", **bad), [{"zz": "1"}]),
    "fn.alpha1": (lambda bad: dict(_YBE, fn={"case": "i", "alpha1": bad, "alpha2": bad, "b": "0", "c": "1"}),
                  lambda bad: spectral_fn("i", bad, bad, "0", "1"), ["2"]),
    "values": (lambda bad: {"command": "check-algebra", "algebra": "Braid", "rep": {"builtin": "scalar", "values": bad}},
               lambda bad: builtin_rep("scalar", values=bad), [[], 5, "12", ["1"] * MAX_GENERATORS]),
    "seed": (lambda bad: dict(_YBE, mode="random", seed=bad),
             lambda bad: ybe_random(builtin_rep("Hecke3_std"), spectral_fn("hecke"), seed=bad), [1.5, True]),
    "fn.case": (lambda bad: dict(_YBE, fn={"case": bad}), spectral_fn, ["iv", "I"]),
    # spectral_fn alone says which case takes which parameters
    "fn.missing": (lambda bad: dict(_YBE, fn=bad), lambda bad: spectral_fn(**bad),
                   [{"case": "i", "alpha1": "2", "b": "0", "c": "1"}, {"case": "i", "alpha2": None, "b": "0"}]),
    "fn.extra": (lambda bad: dict(_YBE, fn=bad), lambda bad: spectral_fn(**bad),
                 [{"case": "ii", "alpha1": "2"}, {"case": "hecke", "b": "0", "c": None, "alpha2": "1"}]),
    "builtin": (lambda bad: dict(_YBE, rep={"builtin": bad}), builtin_rep, ["D4", "hecke3_std", 5]),
    "kind": (lambda bad: {"command": "correspondences", "kind": bad, "rep": {"builtin": "Hecke3_std"}},
             lambda bad: correspondence_check(bad, builtin_rep("Hecke3_std")), ["bogus", "Hecke_in_A", 3]),
    "omit_term": (lambda bad: {"command": "prop1", "omit_term": bad},
                  lambda bad: prop1_certificate(omit_term=bad), ["bogus", 3]),
}


@pytest.mark.parametrize("field", PARITY)
def test_a_job_and_its_library_entry_refuse_a_bad_value_with_one_message(field):
    job, entry, values = PARITY[field]
    for bad in values:
        with pytest.raises(ValueError) as schema:
            run_job(job(bad))
        with pytest.raises(ValueError) as library:
            entry(bad)
        assert str(library.value) == str(schema.value)


def test_scalar_reps_refuses_an_algebra_without_a_scalar_classification_before_any_work(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("work started")

    for name in WORKERS:
        monkeypatch.setattr(cli, name, never)
    for algebra in ("Braid", "Hecke"):
        with pytest.raises(ValueError) as exc:
            run_job({"command": "scalar-reps", "algebra": algebra, "assignment": ["1", "1"]})
        assert str(exc.value) == f"unknown algebra {algebra!r}, expected one of ('A', 'B', 'C')"


@pytest.mark.parametrize("last, message", [
    ({**_YBE, "trials": 0}, "trials: at least 1, got 0"),
    ({**_YBE, "fn": {"case": "ii", "alpha1": "2"}}, "case ii takes no parameters, got ['alpha1']"),
    ({**_YBE, "surprise": 1}, "unknown fields ['surprise']"),
], ids=["trials-0", "bad-fn", "unknown-field"])
def test_a_batch_is_parsed_whole_before_any_job_runs(monkeypatch, last, message):
    def never(*args, **kwargs):
        raise AssertionError("work started")

    for name in WORKERS:
        monkeypatch.setattr(cli, name, never)
    with pytest.raises(AssertionError, match="work started"):
        run_job({"command": "batch", "jobs": [_YBE, _YBE]})  # valid jobs get as far as a worker
    with pytest.raises(ValueError) as exc:
        run_job({"command": "batch", "jobs": [_YBE, _YBE, last]})
    assert str(exc.value) == message


def test_a_nested_batch_is_refused_before_any_sub_job_is_parsed():
    nested = {"command": "batch", "jobs": [{"command": "prop1"}]}
    for jobs in ([{"command": "prop1"}, nested], [{"command": "prop1", "surprise": 1}, nested]):
        with pytest.raises(ValueError) as exc:
            run_job({"command": "batch", "jobs": jobs})
        assert str(exc.value) == "jobs: batches do not nest"


def test_bounded_fields_find_the_integer_and_list_fields():
    # guards the __qualname__ lookup (renaming _int or _list must not empty the table) and the _parameters fields
    fields = {field for _, field, _ in BOUNDED_FIELDS}
    assert fields >= {"series_order", "trials", "seed", "pairs", "site", "assignment", "lengths", "jobs",
                      "parameters", "rep.parameters"}


@pytest.mark.parametrize("command, field, values", BOUNDED_FIELDS, ids=[f"{c}.{f}" for c, f, _ in BOUNDED_FIELDS])
def test_out_of_range_field_is_rejected_before_any_work(monkeypatch, command, field, values):
    assert values is not None, f"{command}: field {field!r} needs a floor and a cap, or an entry in UNCAPPED"

    def never(*args, **kwargs):
        raise AssertionError("work started")

    for name in WORKERS:
        monkeypatch.setattr(cli, name, never)
    job = dict(BASE_JOBS[command], command=command)
    with pytest.raises(AssertionError, match="work started"):
        run_job(job)  # in range, the job gets as far as a worker
    top, _, inner = field.partition(".")  # rep.parameters replaces the whole rep record
    for value in values:
        with pytest.raises(ValueError, match=None if field in UNCAPPED else f"^{inner or top}: "):
            run_job(dict(job, **{top: value}))


_SCALAR_FIELDS = {
    "parameters": lambda s: {"command": "scalar-reps", "algebra": "A", "parameters": {"a": s, "b": "0", "c": "1"}},
    "values": lambda s: {"command": "check-algebra", "algebra": "Braid",
                         "rep": {"builtin": "scalar", "values": [s, s]}},
    "fn": lambda s: {"command": "baxterise", "rep": SCALAR_23,
                     "fn": {"case": "i", "alpha1": "2", "alpha2": "1", "b": "0", "c": s}},
}


@pytest.mark.parametrize("field", _SCALAR_FIELDS)
def test_scalar_size_cap(field):
    job = _SCALAR_FIELDS[field]
    top = (1 << MAX_SCALAR_BITS) - 1
    for scalar in (str(top), f"-{top}/{top - 1}", f"1/{top}"):
        run_job(job(scalar))  # a verdict either way, never a ValueError
    for scalar in (str(top + 1), f"-{top + 1}", f"1/{top + 1}", f"{top + 1}/3"):
        with pytest.raises(ValueError, match=f"must fit in {MAX_SCALAR_BITS} bits"):
            run_job(job(scalar))
    with pytest.raises(ValueError, match="scalar strings have at most"):
        run_job(job(str(top) + "0" * 100))


def test_oversized_scalar_string_is_rejected_before_parsing(monkeypatch):
    parse, parsed = cli.parse_scalar, []
    monkeypatch.setattr(cli, "parse_scalar", lambda text: parsed.append(text) or parse(text))
    for job in _SCALAR_FIELDS.values():
        with pytest.raises(ValueError, match=r"scalar strings have at most \d+ characters, got 5000"):
            run_job(job("9" * 5000))
    assert max(map(len, parsed), default=0) < 5000


def test_spectral_fn_record_errors():
    case_i = {"case": "i", "alpha1": "2", "alpha2": "1", "b": "0", "c": "1"}
    missing_alpha2 = {k: v for k, v in case_i.items() if k != "alpha2"}
    for fn, message in (
        (missing_alpha2, "case i needs alpha1, alpha2, b and c, missing ['alpha2']"),
        ({"case": "ii", "extra": "1"}, "unknown fields ['extra']"),
        (dict(case_i, extra="1"), "unknown fields ['extra']"),
        ({"case": "iv"}, "unknown case 'iv', expected one of ('i', 'ii', 'iii', 'hecke')"),
    ):
        with pytest.raises(ValueError) as exc:
            run_job({"command": "baxterise", "rep": SCALAR_23, "fn": fn})
        assert str(exc.value) == message


def _write_bytes(tmp_path, data: bytes):
    path = tmp_path / "job.json"
    path.write_bytes(data)
    return path


@pytest.mark.parametrize(
    "data",
    [
        b'\xff\xfe{"command": "prop1"}',
        b"[" * 1000 + b"]" * 1000,
        b'{"command": "prop1", "note": ' + b"9" * 5000 + b"}",
        json.dumps({"command": "batch", "jobs": [{"command": "batch", "jobs": [{"command": "prop1"}]}]}).encode(),
    ],
    ids=["invalid-utf8", "nested-1000", "5000-digit-int", "nested-batch"],
)
def test_unusable_job_file_is_usage_error(tmp_path, data):
    proc = run_cli("--job", str(_write_bytes(tmp_path, data)))
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert json.loads(proc.stdout)["error"]
    assert proc.stderr == ""


# cheap valid jobs, one or more per command, for the schema fuzz below
FUZZ_JOBS = [
    {"command": "prop1", "omit_term": "r3", "expect": "fail", "note": "control"},
    {"command": "check-algebra", "algebra": "Hecke", "parameters": {"q": "2"}, "rep": HECKE_Q2},
    {"command": "check-algebra", "algebra": "A", "parameters": {"a": "1", "b": None, "c": "1"},
     "rep": dict(SCALAR_23, flip=True)},
    {"command": "scalar-reps", "algebra": "A", "parameters": {"a": "1", "b": "0", "c": "1"},
     "assignment": ["1", "-1"]},
    {"command": "baxterise", "rep": SCALAR_23, "fn": {"case": "i", "alpha1": "2", "alpha2": "1", "b": "0", "c": "1"},
     "site": 1, "series_order": 2},
    {"command": "verify-ybe", "rep": SCALAR_23, "fn": {"case": "ii"}, "mode": "random", "trials": 2, "seed": 1},
    {"command": "verify-lemmas", "suite": "A", "rep": SCALAR_23, "alpha1": "2", "alpha2": "1", "b": "0", "c": "1"},
    {"command": "transfer-commute", "rep": HECKE_Q2, "fn": {"case": "hecke"}, "lengths": [1, 2], "pairs": 1,
     "seed": 0, "corrupt": False, "site": 1},
    {"command": "transfer-commute", "rep": HECKE_Q2, "fn": {"case": "hecke"}, "lengths": [2], "pairs": 1},
    {"command": "correspondences", "kind": "hecke_in_A", "rep": HECKE_Q2, "q": "2", "b": None},
    {"command": "batch", "jobs": [{"command": "scalar-reps", "algebra": "B", "assignment": ["1", "0"]}]},
]
FUZZ_VALUES = (None, True, "x", [], {}, 10**6, -1)


def _slots(node, path=()):
    """The path of every field and list item in node, nested records included."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _slots(value, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _mutations():
    """Every single mutation of a FUZZ_JOBS entry: add an unknown field to a
    record, drop a field or list item, or set it to one of FUZZ_VALUES."""
    for index, job in enumerate(FUZZ_JOBS):
        for path in [(), *_slots(job)]:
            if isinstance(_at(job, path), dict):
                yield index, path, ("add",)
            if path:
                yield index, path, ("drop",)
                for value in FUZZ_VALUES:
                    yield index, path, ("set", value)


MUTATIONS = list(_mutations())


@settings(max_examples=2 * len(MUTATIONS), deadline=None)
@given(st.sampled_from(MUTATIONS))
def test_mutated_jobs_end_in_job_error_or_exit_code(mutation):
    index, path, action = mutation
    job = copy.deepcopy(FUZZ_JOBS[index])
    if action[0] == "add":
        _at(job, path)["surprise"] = 1
    elif action[0] == "drop":
        del _at(job, path[:-1])[path[-1]]
    else:
        _at(job, path[:-1])[path[-1]] = copy.deepcopy(action[1])
    try:
        payload, code = run_job(job)
    except ValueError:
        return
    assert code in (0, 1, 2, 3)
    json.dumps(payload)


@pytest.mark.parametrize(
    "kind, field",
    [("hecke_in_A", "b"), ("braid_coset_to_A", "q"), ("B_to_A_shift", "q")],
)
def test_correspondence_field_of_another_kind_is_usage_error(tmp_path, kind, field):
    # q belongs to hecke_in_A alone, b to the other two kinds
    job = {"command": "correspondences", "kind": kind, "rep": {"builtin": "Hecke3_burau"}, field: "0"}
    code, out = invoke(tmp_path, job)
    assert code == EXIT_USAGE
    assert json.loads(out)["error"] == f"{kind}: unexpected parameters ['{field}']"


@pytest.mark.parametrize("kind, builtin, b", [
    # at b = 1 the two coset cubics are bb2 and its flip
    ("braid_coset_to_A", "B3_2dim", "1"),
    ("braid_coset_to_A", "Hecke3_burau", "1"),
    ("B_to_A_shift", "B3_2dim", "2"),
])
def test_correspondence_jobs_on_reps_with_distinct_generators_pass(kind, builtin, b):
    payload, code = run_job({"command": "correspondences", "kind": kind, "rep": {"builtin": builtin}, "b": b})
    assert code == EXIT_PASS == payload["exit_code"]
    assert payload["report"]["status"] == "pass"


def test_a_failed_coset_precondition_is_an_error_report():
    job = {"command": "correspondences", "kind": "braid_coset_to_A", "rep": {"builtin": "B3_2dim"}, "b": "2"}
    payload, code = run_job(job)
    assert code == EXIT_FAIL == payload["exit_code"]
    assert payload["report"]["status"] == "error"
    # at b = 2 neither coset cubic holds on B3_2dim, so the A relations are never checked
    assert payload["report"]["residuals"] == [["precheck braid:braid(1)", 0], ["precheck coset1(1)", 4],
                                              ["precheck coset2(1)", 4]]
    assert payload["report"]["notes"] == ["precondition failed: coset1(1)", "precondition failed: coset2(1)"]


def test_zero_trials_override_rejected(tmp_path):
    code, out = invoke(tmp_path, A3_II_RANDOM, extra=("--trials", "0"))
    assert code == EXIT_USAGE
    assert "trials" in json.loads(out)["error"]


def test_transfer_lengths_checked_before_any_run(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "transfer_commute", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="got 9"):
        run_job({
            "command": "transfer-commute",
            "rep": {"builtin": "Hecke3_std", "parameters": {"q": "2"}},
            "fn": {"case": "hecke"},
            "lengths": [5, 9],
        })
    # a repeated length is rejected, so a list holds at most MAX_CHAIN_LENGTH lengths
    with pytest.raises(ValueError, match="chain length 1 is repeated"):
        run_job({
            "command": "transfer-commute",
            "rep": {"builtin": "Hecke3_std", "parameters": {"q": "2"}},
            "fn": {"case": "hecke"},
            "lengths": [1] * 20000,
            "pairs": 100,
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
