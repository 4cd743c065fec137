"""Self-tests of the benchmark itself (not of baxcheck).

    python3 perfbench/selftest.py

Checks that:
1. the printed metric names and units equal those in BENCHMARK.json;
2. flipping one negative control's `expect` tag makes the gate fail a job;
3. two traced runs with one seed give identical per-layer counts;
4. two seeds give different job lists of the same length (one seed, the same);
5. the tracer replaces every binding of a traced function, aliases included;
6. without the program's sources the benchmark exits non-zero and prints no result.

Takes about half a minute; exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from jobs import WORKLOADS, generate
from run import DEFAULT_SEED, HERE, ROOT, is_count, judge

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def metric_names_and_counts() -> None:
    untraced = result_of(bench("--workload", "canonical-forms", "--seed", "3", "--seconds", "1", "--trace", "0"))
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    got = {name: m["unit"] for name, m in untraced["metrics"].items()}
    check(got == want, "end-to-end metric names and units equal BENCHMARK.json")
    check(untraced["correct"] and untraced["failed"] == 0, "untraced run is correct with no failed job")

    traced = [
        result_of(bench("--workload", "canonical-forms", "--seed", "3", "--seconds", "1", "--trace", "1"))
        for _ in range(2)
    ]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    got = {name: m["unit"] for name, m in traced[0]["metrics"].items()}
    check(got == want, "per-layer metric names and units equal BENCHMARK.json")
    check(all(r["correct"] for r in traced), "traced runs are correct (payloads, predictions)")
    counts = [{n: m["value"] for n, m in r["metrics"].items() if is_count(n)} for r in traced]
    check(counts[0] == counts[1] and any(counts[0].values()), "two traced runs with one seed give identical counts")


def flipped_control_fails() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from baxcheck.cli import run_job
    from worker import run_jobs

    digests = json.loads((HERE / "digests.json").read_text())
    jobs = [(name, job) for name, job in generate("canonical-forms", DEFAULT_SEED) if name.startswith("c1/")]
    records, _ = run_jobs(jobs, run_job)
    check(not judge(records, digests, DEFAULT_SEED), "prop1 jobs and their mutation controls pass the gate")
    name, job = next((n, j) for n, j in jobs if j["expect"] == "fail")
    flipped = [(n, dict(j, expect="pass") if n == name else j) for n, j in jobs]
    records, _ = run_jobs(flipped, run_job)
    # a non-default seed, so the failure must come from the exit code, not a missing pin
    failed = judge(records, digests, DEFAULT_SEED + 1)
    check(len(failed) == 1 and failed[0].startswith(name), f"flipping the expect tag of {name} fails that job")
    pass_ratio = 1 - len(failed) / len(records)
    check(pass_ratio < 1, f"pass_ratio drops below 1 ({pass_ratio:.3f}), i.e. fail_ratio rises above 0")


def seeds_change_jobs() -> None:
    for workload in WORKLOADS:
        a, b = generate(workload, 1), generate(workload, 2)
        check(a != b and len(a) == len(b), f"{workload}: seeds 1 and 2 give different jobs, {len(a)} each")
        check(generate(workload, 1) == a, f"{workload}: one seed gives the same jobs twice")


def tracer_covers_aliases() -> None:
    import baxcheck.cli
    import baxcheck.exactnum.matrix
    import baxcheck.exactnum.ratfunc
    import baxcheck.verify
    import tracer as tracing
    from baxcheck.exactnum import MultiPoly, RatFunc

    replaced = tracing.install(tracing.Tracer())
    wrapped = [
        MultiPoly.__mul__, MultiPoly.__rmul__, MultiPoly.__radd__, RatFunc.__rmul__, RatFunc.__radd__,
        baxcheck.exactnum.poly_gcd, baxcheck.exactnum.ratfunc.poly_gcd, baxcheck.exactnum.matrix.poly_gcd,
        baxcheck.verify.rhat_cleared, baxcheck.cli.ybe_symbolic, baxcheck.cli.transfer_commute,
    ]
    check(all(hasattr(f, "__wrapped__") for f in wrapped), f"tracer wrapped every alias ({replaced} bindings)")


def refuses_without_sources() -> None:
    bare = ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "numeric-chain", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        check(proc.returncode != 0 and not last[0].startswith("{"), "exits non-zero with no result when src/ is missing")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    seeds_change_jobs()
    refuses_without_sources()
    metric_names_and_counts()
    flipped_control_fails()
    tracer_covers_aliases()
    print(f"{len(failures)} failed" if failures else "all benchmark self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
