"""Seeded job generator for the three benchmark workloads.

Every job is an ordinary job dict in the public CLI schema and carries its
`expect` tag.  Fixture rows are copied here verbatim (so editing `fixtures/`
cannot silently change the benchmark); seed-drawn rows come only from
families whose verdict is known in advance:

* case-i spectral functions with alpha1 - alpha2 = +-1 on A3_2dim whose rep
  `c` equals the function's `c` (the theorem row of criterion 2);
* Hecke representations at a rational q drawn away from 0 and +-1;
* job seeds for randomized checks, derived from the workload seed.

This module imports nothing from baxcheck: the program only ever sees the
generated dicts.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("ybe-symbolic", "canonical-forms", "numeric-chain")

_A3_SYM_MU = {"builtin": "A3_2dim", "parameters": {"c": "1", "mu": None}}
_A3_SYM = {"builtin": "A3_2dim", "parameters": {"c": None, "mu": None}}
_CASE_I_2101 = {"alpha1": "2", "alpha2": "1", "b": "0", "c": "1", "case": "i"}

# criterion 2: the parameter-free symbolic rows and the mismatch control
_YBE_SYMBOLIC_ROWS = [
    ("c2/B3_2dim/ii", {"fn": {"case": "ii"}, "rep": {"builtin": "B3_2dim"}}),
    ("c2/C3_2dim/iii", {"fn": {"case": "iii"}, "rep": {"builtin": "C3_2dim"}}),
    ("c2/Hecke3_std/ratio", {"fn": {"case": "hecke"}, "rep": {"builtin": "Hecke3_std"}}),
    ("c2/B3_2dim/iii", {"fn": {"case": "iii"}, "rep": {"builtin": "B3_2dim"}}),
    ("c2/A3_2dim/ii-control", {"expect": "fail", "fn": {"case": "ii"}, "rep": _A3_SYM_MU}),
]

# criterion 3: the randomized pairings and the mismatch control
_YBE_RANDOM_ROWS = [
    ("c3/A3_2dim/i(2,1,0,1)", {"fn": _CASE_I_2101, "rep": _A3_SYM_MU}),
    ("c3/A3_2dim/i(1,0,0,1)", {"fn": {"alpha1": "1", "alpha2": "0", "b": "0", "c": "1", "case": "i"}, "rep": _A3_SYM_MU}),
    ("c3/B3_2dim/ii", {"fn": {"case": "ii"}, "rep": {"builtin": "B3_2dim"}}),
    ("c3/C3_2dim/iii", {"fn": {"case": "iii"}, "rep": {"builtin": "C3_2dim"}}),
    ("c3/Hecke3_std/ratio", {"fn": {"case": "hecke"}, "rep": {"builtin": "Hecke3_std"}}),
    ("c3/A3_2dim/ii-control", {"expect": "fail", "fn": {"case": "ii"}, "rep": _A3_SYM_MU}),
]

_FNS = {
    "i": _CASE_I_2101,
    "ii": {"case": "ii"},
    "iii": {"case": "iii"},
    "hecke": {"case": "hecke"},
}
_BAXTERISE_REPS = {
    "A3_2dim": _A3_SYM,
    "B3_2dim": {"builtin": "B3_2dim"},
    "C3_2dim": {"builtin": "C3_2dim"},
    "Hecke3_std": {"builtin": "Hecke3_std"},
    "Hecke3_burau": {"builtin": "Hecke3_burau"},
    "scalar": {"builtin": "scalar"},
}
_SERIES_FNS = {"A3_2dim": "ii", "B3_2dim": "ii", "C3_2dim": "ii", "Hecke3_std": "hecke", "Hecke3_burau": "hecke", "scalar": "ii"}


def _canonical_rows() -> list[tuple[str, dict]]:
    """Criteria 1, 4, 5, 6, 7 and 8, flattened to single jobs."""
    rows: list[tuple[str, dict]] = [("c1/prop1", {"command": "prop1"})]
    for term in ("r3", "commutator", "left_r1", "right_r1", "b_r1"):
        rows.append((f"c1/prop1-omit-{term}", {"command": "prop1", "expect": "fail", "omit_term": term}))
    for rep_name, rep in _BAXTERISE_REPS.items():
        for case, fn in _FNS.items():
            rows.append((f"c4/{rep_name}/{case}", {"command": "baxterise", "fn": fn, "rep": rep}))
    rows.append(("c5/A/A3_2dim", {"command": "verify-lemmas", "suite": "A", "rep": _A3_SYM_MU, "alpha1": "2", "alpha2": "1", "b": "0", "c": "1"}))
    rows.append(("c5/B/B3_2dim", {"command": "verify-lemmas", "suite": "B", "rep": {"builtin": "B3_2dim"}}))
    abc = {"a": "1", "b": "0", "c": "1"}
    for label, algebra, params, assignment, expect in (
        ("A-classified", "A", abc, ["1", "-1"], "pass"),
        ("A-unclassified", "A", abc, ["1", "2"], "fail"),
        ("B-classified", "B", None, ["1", "0"], "pass"),
        ("B-unclassified", "B", None, ["2", "0"], "fail"),
        ("C-classified", "C", None, ["0", "1"], "pass"),
        ("A-uniform", "A", abc, ["5/3", "5/3"], "pass"),
    ):
        job = {"command": "scalar-reps", "algebra": algebra, "assignment": assignment, "expect": expect}
        if params is not None:
            job["parameters"] = params
        rows.append((f"c6/{label}", job))
    for rep_name, rep in _BAXTERISE_REPS.items():
        fn = _FNS[_SERIES_FNS[rep_name]]
        rows.append((f"c7/{rep_name}/series8", {"command": "baxterise", "fn": fn, "rep": rep, "series_order": 8}))
    rows += [
        ("c8/hecke_in_A/Hecke3_std", {"command": "correspondences", "kind": "hecke_in_A", "rep": {"builtin": "Hecke3_std"}}),
        ("c8/hecke_in_A/Hecke3_burau", {"command": "correspondences", "kind": "hecke_in_A", "rep": {"builtin": "Hecke3_burau"}}),
        ("c8/flip-B-in-C", {"command": "check-algebra", "algebra": "C", "rep": {"builtin": "B3_2dim", "flip": True}}),
        ("c8/flip-A-in-A", {"command": "check-algebra", "algebra": "A", "parameters": {"a": None, "b": None, "c": None}, "rep": {"builtin": "A3_2dim", "flip": True}}),
    ]
    return rows


def _scalar(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _draw_case_i(rng: random.Random, nonzero_a: bool) -> dict:
    """Case-i parameters: alpha1 - alpha2 = +-1 and small integer b, c."""
    while True:
        alpha2 = rng.randint(-2, 2)
        alpha1 = alpha2 + rng.choice((1, -1))
        if not nonzero_a or alpha1 * alpha2 != 0:
            break
    return {
        "alpha1": str(alpha1),
        "alpha2": str(alpha2),
        "b": str(rng.randint(-2, 2)),
        "c": str(rng.randint(1, 3)),
    }


def _draw_q(rng: random.Random) -> str:
    """A rational q away from 0 and the degenerate values +-1."""
    while True:
        q = Fraction(rng.choice((1, -1)) * rng.randint(2, 9), rng.randint(1, 3))
        if abs(q) != 1:
            return _scalar(q)


def _job_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def generate(workload: str, seed: int) -> list[tuple[str, dict]]:
    """(job id, job dict) pairs for one workload; same seed, same jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    rows: list[tuple[str, dict]] = []
    if workload == "ybe-symbolic":
        for name, body in _YBE_SYMBOLIC_ROWS:
            rows.append((name, {"command": "verify-ybe", "mode": "symbolic", **body}))
        for k in range(4):
            p = _draw_case_i(rng, nonzero_a=False)
            rows.append((
                f"seeded/case-i-{k}",
                {"command": "verify-ybe", "mode": "symbolic", "fn": {"case": "i", **p},
                 "rep": {"builtin": "A3_2dim", "parameters": {"c": p["c"], "mu": None}}},
            ))
    elif workload == "canonical-forms":
        rows = _canonical_rows()
        q = _draw_q(rng)
        for rep_name in ("Hecke3_std", "Hecke3_burau"):
            rows.append((
                f"seeded/baxterise-{rep_name}",
                {"command": "baxterise", "fn": {"case": "hecke"}, "series_order": 8,
                 "rep": {"builtin": rep_name, "parameters": {"q": q}}},
            ))
        p = _draw_case_i(rng, nonzero_a=True)
        rows.append((
            "seeded/lemma-A",
            {"command": "verify-lemmas", "suite": "A", **p,
             "rep": {"builtin": "A3_2dim", "parameters": {"c": p["c"], "mu": None}}},
        ))
    else:  # numeric-chain
        for k in range(3):
            rep = {"builtin": "Hecke3_std", "parameters": {"q": _draw_q(rng)}}
            rows.append((
                f"seeded/transfer-{k}",
                {"command": "transfer-commute", "fn": {"case": "hecke"}, "rep": rep,
                 "lengths": [2, 3, 4, 5], "pairs": 2, "seed": _job_seed(rng)},
            ))
        rows.append((
            "seeded/transfer-corrupt-control",
            {"command": "transfer-commute", "fn": {"case": "hecke"}, "corrupt": True, "expect": "fail",
             "rep": {"builtin": "Hecke3_std", "parameters": {"q": _draw_q(rng)}},
             "lengths": [3], "pairs": 5, "seed": _job_seed(rng)},
        ))
        for name, body in _YBE_RANDOM_ROWS:
            rows.append((name, {"command": "verify-ybe", "mode": "random", "trials": 20,
                                "seed": _job_seed(rng), **body}))
    out = []
    for name, job in rows:
        job = json.loads(json.dumps(job))  # deep copy: rows share nested dicts
        job.setdefault("expect", "pass")
        out.append((name, job))
    return out


def job_digest(job: dict) -> str:
    """Identity of a job: sha256 of its canonical JSON."""
    return hashlib.sha256(json.dumps(job, sort_keys=True).encode()).hexdigest()
