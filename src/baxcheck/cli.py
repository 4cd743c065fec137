"""Command-line front end: JSON job files in, verification reports out.

Every scalar in a job file is a string "p" or "p/q" (null means: keep the
parameter symbolic); unknown fields are rejected.  Reports are serialized
with sorted keys and no timestamps, so the same job and seed produce
byte-identical output.  Exit codes: 0 pass, 1 mathematical fail (including
failed preconditions), 2 usage/schema error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .baxter import SpectralFn, build_R, check_regularity, check_unitarity, series_agreement_order
from .exactnum import PoleError, parse_scalar
from .ncalg import PROP1_TERMS, prop1_certificate, relations_for
from .report import VerifyReport
from .reps import (
    BUILTIN_NAMES,
    CORRESPONDENCE_KINDS,
    builtin_rep,
    check_relations,
    classify_scalar,
    correspondence_check,
    flip_rep,
    verify_scalar,
)
from .verify import (
    MAX_GENERATORS,
    MAX_PAIRS,
    MAX_SERIES_ORDER,
    MAX_TRIALS,
    check_chain_length,
    lemma_suite_A,
    lemma_suite_B,
    transfer_commute,
    ybe_random,
    ybe_symbolic,
)

COMMANDS = (
    "check-algebra",
    "scalar-reps",
    "baxterise",
    "verify-ybe",
    "verify-lemmas",
    "transfer-commute",
    "prop1",
    "correspondences",
    "batch",
)

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3


class JobError(ValueError):
    """Schema or usage problem in a job file."""


def _take(job: dict, field: str, required: bool = False, default=None):
    if field in job:
        return job.pop(field)
    if required:
        raise JobError(f"missing required field {field!r}")
    return default


def _reject_unknown(job: dict) -> None:
    if job:
        raise JobError(f"unknown fields {sorted(job)}")


def _scalar(value, where: str) -> Fraction:
    if not isinstance(value, str):
        raise JobError(f"{where}: scalars must be 'p/q' strings, got {value!r}")
    try:
        return parse_scalar(value)
    except ValueError as exc:
        raise JobError(f"{where}: {exc}") from exc


def _scalar_or_symbolic(value, where: str):
    if value is None:
        return None
    return _scalar(value, where)


def _parse_parameters(record, where: str) -> dict:
    if record is None:
        return {}
    if not isinstance(record, dict):
        raise JobError(f"{where}: expected an object of named scalars")
    return {name: _scalar_or_symbolic(v, f"{where}.{name}") for name, v in record.items()}


def _parse_rep(record, where: str = "rep"):
    if not isinstance(record, dict):
        raise JobError(f"{where}: expected an object")
    record = dict(record)
    name = _take(record, "builtin", required=True)
    if name not in BUILTIN_NAMES:
        raise JobError(f"{where}: unknown builtin {name!r}")
    do_flip = _take(record, "flip", default=False)
    if not isinstance(do_flip, bool):
        raise JobError(f"{where}.flip: expected true or false")
    kwargs = {}
    if name == "scalar":
        values = _take(record, "values")
        if values is not None:
            if not isinstance(values, list):
                raise JobError(f"{where}.values: expected a list of scalars")
            kwargs["values"] = [_scalar_or_symbolic(v, f"{where}.values") for v in values]
        n = _int_field(record, "n", cap=MAX_GENERATORS)
        if n is not None:
            kwargs["n"] = n
    else:
        kwargs = _parse_parameters(_take(record, "parameters"), f"{where}.parameters")
    _reject_unknown(record)
    try:
        rep = builtin_rep(name, **kwargs)
        return flip_rep(rep) if do_flip else rep
    except ValueError as exc:
        raise JobError(f"{where}: {exc}") from exc


def _parse_fn(record, where: str = "fn") -> SpectralFn:
    if not isinstance(record, dict):
        raise JobError(f"{where}: expected an object")
    try:
        return SpectralFn.from_record(record)
    except ValueError as exc:
        raise JobError(f"{where}: {exc}") from exc


def _parse_algebra(value, where: str = "algebra") -> str:
    if value not in ("Braid", "Hecke", "A", "B", "C"):
        raise JobError(f"{where}: unknown algebra {value!r}")
    return value


def _int_field(job: dict, field: str, default=None, required: bool = False, cap: int | None = None):
    value = _take(job, field, required=required, default=default)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise JobError(f"{field}: expected an integer")
    if cap is not None and value > cap:
        raise JobError(f"{field}: at most {cap}, got {value}")
    return value


def run_job(job: dict, overrides: dict | None = None) -> tuple[dict, int]:
    """Execute one job; returns (payload, exit_code).

    overrides may carry seed/trials/mode from the command line; they replace
    the corresponding job fields wherever a command accepts them.
    """
    if not isinstance(job, dict):
        raise JobError("job must be a JSON object")
    job = dict(job)
    _take(job, "note")  # free-form documentation, ignored
    command = _take(job, "command", required=True)
    if command not in COMMANDS:
        raise JobError(f"unknown command {command!r}")
    accepts = {"verify-ybe": ("seed", "trials", "mode"), "transfer-commute": ("seed",)}
    if overrides:
        for field in accepts.get(command, ()):
            if overrides.get(field) is not None:
                job[field] = overrides[field]
    expect = _take(job, "expect", default="pass")
    if expect not in ("pass", "fail"):
        raise JobError(f"expect: must be 'pass' or 'fail', got {expect!r}")

    if command == "batch":
        subjobs = _take(job, "jobs", required=True)
        _reject_unknown(job)
        if not isinstance(subjobs, list) or not subjobs:
            raise JobError("batch: jobs must be a nonempty list")
        payloads = []
        worst = EXIT_PASS
        for sub in subjobs:
            payload, code = run_job(sub, overrides)
            payloads.append(payload)
            worst = max(worst, code)
        return {"command": "batch", "jobs": payloads, "exit_code": worst}, worst

    try:
        report, extra = _dispatch(command, job)
    except ValueError as exc:
        if isinstance(exc, JobError):
            raise
        raise JobError(str(exc)) from exc
    except ArithmeticError as exc:
        # singular factors and unresolvable poles are mathematical outcomes
        report = VerifyReport(command, status="error", notes=[str(exc)])
        extra = {}
    code = EXIT_PASS if report.passed else EXIT_FAIL
    if any(note.startswith("measure-zero") for note in report.notes):
        code = EXIT_INTERNAL
    if expect == "fail":
        code = EXIT_PASS if report.status == "fail" else EXIT_FAIL
    payload = {"command": command, "expect": expect, "report": report.to_record(), "exit_code": code}
    payload.update(extra)
    return payload, code


def _dispatch(command: str, job: dict) -> tuple[VerifyReport, dict]:
    if command == "prop1":
        omit = _take(job, "omit_term")
        _reject_unknown(job)
        if omit is not None and omit not in PROP1_TERMS:
            raise JobError(f"omit_term: expected one of {PROP1_TERMS}")
        residual, ok = prop1_certificate(omit_term=omit)
        report = VerifyReport("prop1 certificate")
        report.add_residual("residual", 0 if ok else residual.num_terms())
        return report, {"residual_terms": residual.num_terms()}

    if command == "check-algebra":
        algebra = _parse_algebra(_take(job, "algebra", required=True))
        n = _int_field(job, "n", default=3, cap=MAX_GENERATORS)
        params = _parse_parameters(_take(job, "parameters"), "parameters")
        rep = _parse_rep(_take(job, "rep", required=True))
        _reject_unknown(job)
        return check_relations(rep, relations_for(algebra, n, params)), {}

    if command == "scalar-reps":
        algebra = _parse_algebra(_take(job, "algebra", required=True))
        params = _parse_parameters(_take(job, "parameters"), "parameters")
        assignment = _take(job, "assignment")
        n = _int_field(job, "n", default=3, cap=MAX_GENERATORS)
        _reject_unknown(job)
        classes = classify_scalar(algebra, params)
        report = VerifyReport("scalar classification")
        if assignment is not None:
            if not isinstance(assignment, list):
                raise JobError("assignment: expected a list of scalars")
            values = [_scalar(v, "assignment") for v in assignment]
            ok = verify_scalar(values, algebra, params, n=n)
            report.add_residual("assignment", 0 if ok else 1)
        return report, {"classes": [c.to_record() for c in classes]}

    if command == "baxterise":
        series_order = _int_field(job, "series_order", cap=MAX_SERIES_ORDER)
        rep = _parse_rep(_take(job, "rep", required=True))
        fn = _parse_fn(_take(job, "fn", required=True))
        site = _int_field(job, "site", default=1)
        _reject_unknown(job)
        R = build_R(rep, site, fn)
        report = VerifyReport("baxterise")
        report.add_residual("regularity", 0 if check_regularity(R) else 1)
        report.add_residual("unitarity", 0 if check_unitarity(rep, site, fn) else 1)
        if series_order is not None:
            val = series_agreement_order(rep, site, series_order)
            ok = val is None or val >= series_order + 1
            report.add_residual(f"series agreement order > {series_order}", 0 if ok else 1)
            if val is None:
                report.notes.append("series agreement: closed form and truncation coincide")
        matrix = [[str(R.value[i, j]) for j in range(R.value.cols)] for i in range(R.value.rows)]
        return report, {"rmatrix": matrix}

    if command == "verify-ybe":
        trials = _int_field(job, "trials", default=20, cap=MAX_TRIALS)
        rep = _parse_rep(_take(job, "rep", required=True))
        fn = _parse_fn(_take(job, "fn", required=True))
        mode = _take(job, "mode", default="symbolic")
        seed = _int_field(job, "seed", default=0)
        _reject_unknown(job)
        if mode == "symbolic":
            return ybe_symbolic(rep, fn), {}
        if mode == "random":
            return ybe_random(rep, fn, trials=trials, seed=seed), {}
        raise JobError(f"mode: expected 'symbolic' or 'random', got {mode!r}")

    if command == "verify-lemmas":
        suite = _take(job, "suite", required=True)
        rep = _parse_rep(_take(job, "rep", required=True))
        if suite == "A":
            args = {k: _scalar(_take(job, k, required=True), k) for k in ("alpha1", "alpha2", "b", "c")}
            _reject_unknown(job)
            return lemma_suite_A(rep, **args), {}
        if suite == "B":
            _reject_unknown(job)
            return lemma_suite_B(rep), {}
        raise JobError(f"suite: expected 'A' or 'B', got {suite!r}")

    if command == "transfer-commute":
        pairs = _int_field(job, "pairs", default=5, cap=MAX_PAIRS)
        rep = _parse_rep(_take(job, "rep", required=True))
        fn = _parse_fn(_take(job, "fn", required=True))
        site = _int_field(job, "site", default=1)
        lengths = _take(job, "lengths")
        if lengths is None:
            lengths = [_int_field(job, "length", default=3)]
        elif not isinstance(lengths, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in lengths
        ):
            raise JobError("lengths: expected a list of integers")
        seed = _int_field(job, "seed", default=0)
        corrupt = _take(job, "corrupt", default=False)
        if not isinstance(corrupt, bool):
            raise JobError("corrupt: expected true or false")
        _reject_unknown(job)
        for L in lengths:  # the whole list is checked before any chain is built
            check_chain_length(L)
        merged = VerifyReport("transfer commutation", mode={"kind": "randomized", "seed": seed, "runs": []})
        for L in lengths:
            try:
                sub = transfer_commute(rep, site, fn, L, count=pairs, seed=seed, corrupt=corrupt)
            except PoleError as exc:
                raise JobError(str(exc)) from exc
            for label, size in sub.residuals:
                merged.add_residual(f"L={L} {label}", size)
            merged.notes.extend(f"L={L}: {note}" for note in sub.notes)
            merged.mode["runs"].append(sub.mode)
            if sub.status == "error":
                merged.status = "error"
        return merged, {}

    if command == "correspondences":
        kind = _take(job, "kind", required=True)
        if kind not in CORRESPONDENCE_KINDS:
            raise JobError(f"kind: expected one of {CORRESPONDENCE_KINDS}")
        rep = _parse_rep(_take(job, "rep", required=True))
        q = _scalar_or_symbolic(_take(job, "q"), "q")
        b = _scalar_or_symbolic(_take(job, "b"), "b")
        _reject_unknown(job)
        return correspondence_check(kind, rep, q=q, b=b), {}

    raise JobError(f"unknown command {command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="baxcheck",
        description="Exact verification jobs for baxterised R-matrices and braid-quotient algebras.",
    )
    parser.add_argument("--job", required=True, help="path to a JSON job file")
    parser.add_argument("--out", help="path for the JSON report (default: stdout)")
    parser.add_argument("--seed", type=int, help="override the job's seed")
    parser.add_argument("--trials", type=int, help="override the job's trial count")
    parser.add_argument("--mode", choices=("symbolic", "random"), help="override the job's mode")
    args = parser.parse_args(argv)

    try:
        with open(args.job, "r", encoding="utf-8") as fh:
            job = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _emit({"error": f"cannot read job: {exc}", "exit_code": EXIT_USAGE}, args.out)
        return EXIT_USAGE

    overrides = {"seed": args.seed, "trials": args.trials, "mode": args.mode}

    try:
        payload, code = run_job(job, overrides)
    except JobError as exc:
        payload, code = {"error": str(exc), "exit_code": EXIT_USAGE}, EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        payload, code = {"error": f"internal error: {exc}", "exit_code": EXIT_INTERNAL}, EXIT_INTERNAL

    _emit(payload, args.out)
    return code


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
