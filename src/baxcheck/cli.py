"""Command-line front end: JSON job files in, verification reports out.

A job is one JSON object with a `command`.  The `COMMANDS` table below is
the whole job schema: for each command, its handler and an ordered spec
giving every field's parser and its default (or REQUIRED).  One exception:
`verify-lemmas` lists alpha1, alpha2, b and c with default None, and its
handler `_verify_lemmas` makes them required for suite A and unknown fields
for suite B.  Rules shared by every field:

* null counts as absent, so the default applies; a required field left null
  is reported missing;
* every scalar is a string "p" or "p/q" whose numerator and denominator
  fit in MAX_SCALAR_BITS bits; inside `parameters` (at most MAX_PARAMETERS
  names) and a scalar rep's `values`, a null item keeps that parameter
  symbolic;
* unknown fields are rejected, and every field is parsed before any
  representation is built or any check starts;
* every integer field but `seed` has a floor and a cap (the MAX_ constants
  below); the `lengths` items are checked by verify.check_chain_lengths
  before any representation is built;
* integer, name, flag and list fields are read by the library's own gates,
  as_int, one_of, as_bool and as_list of exactnum.scalar, so a job and a
  library call refuse a value with the same ValueError message;
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
from .ncalg import ALGEBRAS, PROP1_TERMS, prop1_certificate, relations_for
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
# strand count n of a scalar rep or assignment (so sites run 1..n - 1),
# series truncation order, randomized YBE trials, transfer point pairs, the
# jobs of one batch, the names of a `parameters` object (A's a, b, c is the
# most any algebra or family declares), and the bit length of the numerator
# and of the denominator of every job scalar.
MAX_GENERATORS = 16
MAX_SERIES_ORDER = 64
MAX_TRIALS = 1000
MAX_PAIRS = 100
MAX_BATCH_JOBS = 64
MAX_PARAMETERS = 3
MAX_SCALAR_BITS = 256


def _fields(record: dict, spec: dict) -> dict:
    """Pop and parse every field of spec from record, in spec order."""
    args = {}
    for field, (parse, default) in spec.items():
        value = record.pop(field, None)
        if value is not None:
            args[field] = parse(value, field)
        elif default is REQUIRED:
            raise ValueError(f"missing required field {field!r}")
        else:
            args[field] = default
    return args


def _reject_unknown(record: dict) -> None:
    if record:
        raise ValueError(f"unknown fields {sorted(record)}")


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


def _rep(value, where: str) -> dict:
    """A builtin-rep record, checked but not yet built (see _build)."""
    record = _object(value, where)
    rep = _fields(record, {"builtin": (_one_of(BUILTIN_NAMES), REQUIRED), "flip": (as_bool, False)})
    if rep["builtin"] == "scalar":
        values = _list(_symbolic, cap=MAX_GENERATORS - 1)  # n = len(values) + 1
        rep["kwargs"] = _fields(record, {"values": (values, (None, None))})
    else:
        rep["kwargs"] = _fields(record, {"parameters": (_parameters, {})})["parameters"]
    _reject_unknown(record)
    return rep


def _fn(value, where: str) -> RatFunc:
    """The job's spectral function f(x, y), built here once (see baxter.spectral_fn)."""
    record = _object(value, where)
    case = _fields(record, {"case": (_one_of(SPECTRAL_CASES), REQUIRED)})["case"]
    args = _fields(record, {name: (_scalar, REQUIRED) for name in ("alpha1", "alpha2", "b", "c") if case == "i"})
    _reject_unknown(record)
    try:
        return spectral_fn(case, **args)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _build(rep: dict):
    try:
        built = builtin_rep(rep["builtin"], **rep["kwargs"])
    except ValueError as exc:
        raise ValueError(f"rep: {exc}") from exc
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


def _verify_lemmas(suite, rep, **scalars):
    """Suite A needs alpha1, alpha2, b and c, and reads a = alpha1*alpha2; suite B takes none of them."""
    if suite == "B":
        given = sorted(name for name, value in scalars.items() if value is not None)
        if given:
            raise ValueError(f"unknown fields {given}")
        return lemma_suite_B(_build(rep)), {}
    for name, value in scalars.items():
        if value is None:
            raise ValueError(f"missing required field {name!r}")
    return lemma_suite_A(_build(rep), scalars["alpha1"] * scalars["alpha2"], scalars["b"], scalars["c"]), {}


def _transfer_commute(pairs, rep, fn, site, lengths, seed, corrupt):
    check_chain_lengths(lengths)  # the whole list is checked before any chain is built
    return transfer_commute(_build(rep), site, fn, lengths, count=pairs, seed=seed, corrupt=corrupt), {}


def _correspondences(kind, rep, q, b):
    return correspondence_check(kind, _build(rep), q=q, b=b), {}


def _batch(jobs, overrides):
    if any(sub.get("command") == "batch" for sub in jobs):
        raise ValueError("jobs: batches do not nest")
    payloads = []
    worst = EXIT_PASS
    for sub in jobs:
        payload, code = run_job(sub, overrides)
        payloads.append(payload)
        worst = max(worst, code)
    return {"command": "batch", "jobs": payloads, "exit_code": worst}, worst


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
        {**_EXPECT, "algebra": _ALGEBRA, "parameters": _PARAMETERS,
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
        {**_EXPECT, "suite": (_one_of(("A", "B")), REQUIRED), "rep": _REP,
         **{name: (_scalar, None) for name in ("alpha1", "alpha2", "b", "c")}},
    ),
    "transfer-commute": (
        _transfer_commute,
        {**_EXPECT, "pairs": (_int(MAX_PAIRS, floor=1), 5), "rep": _REP, "fn": _FN, "site": _SITE,
         "lengths": (_list(_int()), (3,)), "seed": _SEED,
         "corrupt": (as_bool, False)},
    ),
    "correspondences": (
        _correspondences,
        {**_EXPECT, "kind": (_one_of(CORRESPONDENCE_KINDS), REQUIRED), "rep": _REP, "q": (_symbolic, None),
         "b": (_symbolic, None)},
    ),
    "batch": (_batch, {"jobs": (_list(_object, cap=MAX_BATCH_JOBS), REQUIRED)}),
}


def run_job(job: dict, overrides: dict | None = None) -> tuple[dict, int]:
    """Execute one job; returns (payload, exit_code).

    overrides may carry seed/trials/mode from the command line; each replaces
    the job's field exactly when the command's spec has that field.
    """
    job = _object(job, "job")
    job.pop("note", None)  # free-form documentation, ignored
    command = _fields(job, {"command": (_one_of(tuple(COMMANDS)), REQUIRED)})["command"]
    handler, spec = COMMANDS[command]
    for field, value in (overrides or {}).items():
        if field in spec and value is not None:
            job[field] = value
    args = _fields(job, spec)
    _reject_unknown(job)
    if command == "batch":
        return handler(args["jobs"], overrides)

    expect = args.pop("expect")
    try:
        report, extra = handler(**args)
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
