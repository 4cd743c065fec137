"""Command-line front end: JSON job files in, verification reports out.

A job is one JSON object with a `command`.  The `COMMANDS` table below is
the whole job schema: for each command, its handler and an ordered spec
giving every field's parser and its default (or REQUIRED), and for a field
whose value adds fields, those fields per value (verify-lemmas suite A adds
alpha1, alpha2, b and c; a rep's builtin adds `values` or `parameters`).
Rules shared by every field:

* null counts as absent, so the default applies; a required field left null
  is reported missing;
* every scalar is a string "p" or "p/q" whose numerator and denominator
  fit in MAX_SCALAR_BITS bits; inside `parameters` (at most MAX_PARAMETERS
  names) and a scalar rep's `values`, a null item keeps that parameter
  symbolic;
* unknown fields are rejected, and every field is parsed before any
  representation is built or any check starts, in a batch every sub-job's;
* every integer field but `seed` has a floor and a cap (the MAX_ constants
  below); `lengths` is read by verify.check_chain_lengths itself;
* integer, name, flag and list fields are read by the library's own gates,
  as_int, one_of, as_bool and as_list of exactnum.scalar, and the job adds
  no words to a library refusal, so a job and a library call refuse a value
  with the same ValueError message (f's case-i parameters are checked by
  baxter.spectral_fn alone);
* `lengths`, `assignment`, a scalar rep's `values` and a `batch`'s `jobs`
  must be nonempty lists; a batch takes no `expect`, and batches do not
  nest.

--seed, --trials and --mode replace a job's field exactly when its command's
spec has that field.  Reports are serialized with sorted keys and no
timestamps, so the same job and seed produce byte-identical output.  Exit
codes: 0 pass, 1 mathematical fail (including failed preconditions), 2
usage/schema error (any ValueError a job raises, or an --out that cannot be
written), 3 internal error.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .baxter import SPECTRAL_CASES, build_R, check_regularity, check_unitarity, series_agreement_order, spectral_fn
from .exactnum import PoleError, RatFunc, SingularMatrixError, parse_scalar
from .exactnum.scalar import as_bool, as_int, as_list, one_of
from .ncalg import ALGEBRAS, MAX_GENERATORS, PROP1_TERMS, prop1_certificate, relations_for
from .report import VerifyReport
from .reps import (
    BUILTIN_NAMES,
    CORRESPONDENCE_KINDS,
    SCALAR_ALGEBRAS,
    builtin_rep,
    check_relations,
    classify_scalar,
    correspondence_check,
    flip_rep,
    verify_scalar,
)
from .verify import (
    SAMPLING_FAILURE,
    check_chain_lengths,
    lemma_suite_A,
    lemma_suite_B,
    transfer_commute,
    ybe_random,
    ybe_symbolic,
)

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3
REQUIRED = object()  # the spec default of a field that must be given

# Job-size caps, enforced when a job is parsed and before any work starts:
# series truncation order, randomized YBE trials, transfer point pairs, the
# jobs of one batch, the names of a `parameters` object (A's a, b, c is the
# most any algebra or family declares), and the bit length of the numerator
# and of the denominator of every job scalar.  The strand count n of a scalar
# rep or an assignment (so sites run 1..n - 1) is capped at the library's
# ncalg.MAX_GENERATORS, which relations_for and both scalar lists share.
MAX_SERIES_ORDER = 64
MAX_TRIALS = 1000
MAX_PAIRS = 100
MAX_BATCH_JOBS = 64
MAX_PARAMETERS = 3
MAX_SCALAR_BITS = 256


def _fields(record: dict, spec: dict) -> dict:
    """Pop and parse every field of spec from record, in spec order; an entry (parse, default, variants) is
    followed by the fields variants gives for the field's parsed value."""
    args = {}
    for field, (parse, default, *variants) in spec.items():
        value = record.pop(field, None)
        if value is not None:
            args[field] = parse(value, field)
        elif default is REQUIRED:
            raise ValueError(f"missing required field {field!r}")
        else:
            args[field] = default
        if variants:
            args.update(_fields(record, variants[0].get(args[field], {})))
    return args


def _record(value, where: str, spec: dict) -> dict:
    """The fields of spec (see _fields) parsed from the object value, which may hold no other field."""
    record = _object(value, where)
    args = _fields(record, spec)
    if record:
        raise ValueError(f"unknown fields {sorted(record)}")
    return args


# -- field parsers: (value, where) -> parsed value, or ValueError --


# the longest 'p/q' whose parts fit MAX_SCALAR_BITS: a sign, two parts and the slash
_MAX_SCALAR_CHARS = 2 * len(str(1 << MAX_SCALAR_BITS)) + 2


def _scalar(value, where: str) -> Fraction:
    if not isinstance(value, str):
        raise ValueError(f"{where}: scalars must be 'p/q' strings, got {value!r}")
    # checked before parsing, so no int is ever built from an oversized string
    if len(value) > _MAX_SCALAR_CHARS:
        raise ValueError(f"{where}: scalar strings have at most {_MAX_SCALAR_CHARS} characters, got {len(value)}")
    try:
        scalar = parse_scalar(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    if max(scalar.numerator.bit_length(), scalar.denominator.bit_length()) > MAX_SCALAR_BITS:
        raise ValueError(f"{where}: numerator and denominator must fit in {MAX_SCALAR_BITS} bits")
    return scalar


def _symbolic(value, where: str) -> Fraction | None:
    """A scalar, or None (null) for a parameter kept symbolic."""
    return None if value is None else _scalar(value, where)


def _int(cap: int | None = None, floor: int | None = None):
    def parse(value, where: str) -> int:
        return as_int(value, where, floor, cap)

    return parse


def _one_of(options: tuple):
    return lambda value, where: one_of(value, options, where)


def _list(item, cap: int | None = None):
    def parse(value, where: str) -> list:
        return [item(v, where) for v in as_list(value, where, cap)]

    return parse


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected an object")
    return dict(value)


def _parameters(value, where: str) -> dict:
    record = _object(value, where)
    if len(record) > MAX_PARAMETERS:  # checked before any value is parsed
        raise ValueError(f"{where}: at most {MAX_PARAMETERS} names, got {len(record)}")
    return {name: _symbolic(v, f"{where}.{name}") for name, v in record.items()}


# the field a rep's builtin adds: a family's parameters, or scalar's values (n = len(values) + 1)
_BUILTIN_FIELDS = {name: {"parameters": (_parameters, {})} for name in BUILTIN_NAMES}
_BUILTIN_FIELDS["scalar"] = {"values": (_list(_symbolic, cap=MAX_GENERATORS - 1), (None, None))}
_CASE_I = ("alpha1", "alpha2", "b", "c")  # f's case-i parameters, which verify-lemmas suite A also takes


def _rep(value, where: str) -> dict:
    """A builtin-rep record, checked but not yet built (see _build)."""
    return _record(value, where, {"builtin": (_one_of(BUILTIN_NAMES), REQUIRED, _BUILTIN_FIELDS), "flip": (as_bool, False)})


def _fn(value, where: str) -> RatFunc:
    """The job's spectral function f(x, y), built here once; spectral_fn says which case takes which parameters."""
    return spectral_fn(**_record(value, where, {"case": (_one_of(SPECTRAL_CASES), REQUIRED),
                                                **{name: (_scalar, None) for name in _CASE_I}}))


def _build(rep: dict):
    """The rep a parsed rep record names: builtin_rep of a family's parameters, or of scalar's values."""
    built = builtin_rep(rep["builtin"], **rep.get("parameters", {"values": rep.get("values")}))
    return flip_rep(built) if rep["flip"] else built


# -- handlers: parsed fields -> (report, extra payload fields) -------------------


def _prop1(omit_term):
    residual, ok = prop1_certificate(omit_term=omit_term)
    report = VerifyReport("prop1 certificate")
    report.add_residual("residual", 0 if ok else residual.num_terms())
    return report, {"residual_terms": residual.num_terms()}


def _check_algebra(algebra, parameters, rep):
    rep = _build(rep)
    return check_relations(rep, relations_for(algebra, rep.n, parameters)), {}


def _scalar_reps(algebra, parameters, assignment):
    classes = classify_scalar(algebra, parameters)
    report = VerifyReport("scalar classification")
    if assignment is not None:
        ok = verify_scalar(assignment, algebra, parameters)
        report.add_residual("assignment", 0 if ok else 1)
    return report, {"classes": [c.to_record() for c in classes]}


def _baxterise(series_order, rep, fn, site):
    rep = _build(rep)
    R = build_R(rep, site, fn)
    report = VerifyReport("baxterise")
    report.add_residual("regularity", 0 if check_regularity(R) else 1)
    report.add_residual("unitarity", 0 if check_unitarity(R) else 1)
    if series_order is not None:
        val = series_agreement_order(rep, site, series_order)
        ok = val is None or val >= series_order + 1
        report.add_residual(f"series agreement order > {series_order}", 0 if ok else 1)
        if val is None:
            report.notes.append("series agreement: closed form and truncation coincide")
    value = R.value()
    matrix = [[str(e) for e in value.row(i)] for i in range(value.rows)]
    return report, {"rmatrix": matrix}


def _verify_ybe(trials, rep, fn, mode, seed):
    if mode == "symbolic":
        return ybe_symbolic(_build(rep), fn), {}
    return ybe_random(_build(rep), fn, trials=trials, seed=seed), {}


def _verify_lemmas(suite, rep, alpha1=None, alpha2=None, b=None, c=None):
    """Suite A reads a = alpha1*alpha2, b and c; suite B takes none of them."""
    if suite == "B":
        return lemma_suite_B(_build(rep)), {}
    return lemma_suite_A(_build(rep), alpha1 * alpha2, b, c), {}


def _transfer_commute(pairs, rep, fn, site, lengths, seed, corrupt):
    return transfer_commute(_build(rep), site, fn, lengths, count=pairs, seed=seed, corrupt=corrupt), {}


def _correspondences(kind, rep, q, b):
    return correspondence_check(kind, _build(rep), q=q, b=b), {}


_EXPECT = {"expect": (_one_of(("pass", "fail")), "pass")}
_ALGEBRA, _PARAMETERS = (_one_of(ALGEBRAS), REQUIRED), (_parameters, None)
_REP, _FN, _SITE, _SEED = (_rep, REQUIRED), (_fn, REQUIRED), (_int(MAX_GENERATORS - 1, floor=1), 1), (_int(), 0)

# The job schema.  Handlers reach the workers (ybe_symbolic, builtin_rep, ...)
# through this module's globals, so rebinding a global by name reroutes them.
COMMANDS = {
    "prop1": (_prop1, {**_EXPECT, "omit_term": (_one_of(PROP1_TERMS), None)}),
    "check-algebra": (
        _check_algebra, {**_EXPECT, "algebra": _ALGEBRA, "parameters": _PARAMETERS, "rep": _REP}
    ),
    "scalar-reps": (
        _scalar_reps,
        {**_EXPECT, "algebra": (_one_of(SCALAR_ALGEBRAS), REQUIRED), "parameters": _PARAMETERS,
         "assignment": (_list(_scalar, cap=MAX_GENERATORS - 1), None)},
    ),
    "baxterise": (
        _baxterise,
        {**_EXPECT, "series_order": (_int(MAX_SERIES_ORDER, floor=0), None), "rep": _REP, "fn": _FN, "site": _SITE},
    ),
    "verify-ybe": (
        _verify_ybe,
        {**_EXPECT, "trials": (_int(MAX_TRIALS, floor=1), 20), "rep": _REP, "fn": _FN,
         "mode": (_one_of(("symbolic", "random")), "symbolic"), "seed": _SEED},
    ),
    "verify-lemmas": (
        _verify_lemmas,
        {**_EXPECT, "suite": (_one_of(("A", "B")), REQUIRED, {"A": {name: (_scalar, REQUIRED) for name in _CASE_I}}),
         "rep": _REP},
    ),
    "transfer-commute": (
        _transfer_commute,
        {**_EXPECT, "pairs": (_int(MAX_PAIRS, floor=1), 5), "rep": _REP, "fn": _FN, "site": _SITE,
         "lengths": (lambda value, _: check_chain_lengths(value), (3,)), "seed": _SEED,
         "corrupt": (as_bool, False)},
    ),
    "correspondences": (
        _correspondences,
        {**_EXPECT, "kind": (_one_of(CORRESPONDENCE_KINDS), REQUIRED), "rep": _REP, "q": (_symbolic, None),
         "b": (_symbolic, None)},
    ),
    "batch": (None, {"jobs": (_list(_object, cap=MAX_BATCH_JOBS), REQUIRED)}),  # run by run_job itself
}


def run_job(job: dict, overrides: dict | None = None) -> tuple[dict, int]:
    """Parse one job whole, every sub-job of a batch included, then execute it; returns (payload, exit_code).

    overrides may carry seed/trials/mode from the command line; each replaces
    a job's or a sub-job's field exactly when its command's spec has that field.
    """
    command, args = _parse(job, overrides or {})
    if command != "batch":
        return _run(command, args)
    results = [_run(*sub) for sub in args["jobs"]]
    worst = max(code for _, code in results)
    return {"command": "batch", "jobs": [payload for payload, _ in results], "exit_code": worst}, worst


def _parse(job, overrides: dict) -> tuple[str, dict]:
    """(command, parsed fields) of one job; a batch's jobs are parsed into such pairs."""
    job = _object(job, "job")
    job.pop("note", None)  # free-form documentation, ignored
    command = _fields(job, {"command": (_one_of(tuple(COMMANDS)), REQUIRED)})["command"]
    spec = COMMANDS[command][1]
    job.update({field: value for field, value in overrides.items() if field in spec and value is not None})
    args = _record(job, "job", spec)
    if command == "batch":
        if any(sub.get("command") == "batch" for sub in args["jobs"]):
            raise ValueError("jobs: batches do not nest")
        args["jobs"] = [_parse(sub, overrides) for sub in args["jobs"]]
    return command, args


def _run(command: str, args: dict) -> tuple[dict, int]:
    """(payload, exit_code) of one parsed job that is not a batch."""
    expect = args.pop("expect")
    try:
        report, extra = COMMANDS[command][0](**args)
    except (PoleError, SingularMatrixError) as exc:
        # singular factors and unresolvable poles are mathematical outcomes, any other ArithmeticError a defect
        report, extra = VerifyReport(command).error(str(exc)), {}
    code = EXIT_PASS if report.passed else EXIT_FAIL
    if any(note.endswith(SAMPLING_FAILURE) for note in report.notes):  # transfer notes carry an L= prefix
        code = EXIT_INTERNAL
    if expect == "fail":
        code = EXIT_PASS if report.status == "fail" else EXIT_FAIL
    payload = {"command": command, "expect": expect, "report": report.to_record(), "exit_code": code}
    payload.update(extra)
    return payload, code


def main(argv: list[str] | None = None) -> int:
    import argparse  # only the command line needs it, so importing the package skips it

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
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, invalid UTF-8 and over-long integers
        payload, code = {"error": f"cannot read job: {exc}", "exit_code": EXIT_USAGE}, EXIT_USAGE
    else:
        try:
            payload, code = run_job(job, {"seed": args.seed, "trials": args.trials, "mode": args.mode})
        except ValueError as exc:  # a refused field or value, by a gate or a worker
            payload, code = {"error": str(exc), "exit_code": EXIT_USAGE}, EXIT_USAGE
        except Exception as exc:  # a defect, a ZeroDivisionError in a worker included
            payload, code = {"error": f"internal error: {exc}", "exit_code": EXIT_INTERNAL}, EXIT_INTERNAL

    try:
        _emit(payload, args.out)
    except OSError as exc:  # a missing directory, a directory, no permission
        code = EXIT_USAGE
        _emit({"error": f"cannot write report: {exc}", "exit_code": code}, None)
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
