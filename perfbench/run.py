"""The baxcheck benchmark: exact-verification workloads, end to end and per layer.

    python3 perfbench/run.py --workload ybe-symbolic --seed 0 --seconds 20 --trace 0

Each workload pass runs in a fresh single-threaded interpreter
(`worker.py`) that pushes the seed-generated jobs (`jobs.py`) through the
public entry `baxcheck.cli.run_job`.  Passes repeat until the next one would
overrun `--seconds` (at least one runs).  This process only waits on the
worker, so it does not compete with it for a core.

End-to-end metrics (`--trace 0`):
  verdict_s       time to finish the whole job list, payloads serialized:
                  the sum over jobs of each job's median time across passes
  heaviest_job_s  the slowest job's median time: the longest wait for one verdict
  setup_s         fresh interpreter to first job ready (import baxcheck,
                  generate and parse the jobs): median of nine fresh workers
  peak_rss_mib    peak resident set of a pass's worker, median over passes
  pass_ratio      1 - fail_ratio = 1 - failed jobs / jobs attempted; reported
                  this way round because a metric that is 0 has no spread
Job times are normalised for the shared host's speed phases (`speed.py`);
the plain wall time is printed on an `info` line.

`--trace 1` alternates untraced and traced passes and prints the per-layer
metrics of `tracer.py`.  It checks that traced payloads equal untraced ones,
that the per-layer counts repeat exactly between traced passes, and that
the zero / non-zero pattern of `predictions.json` holds.

A job fails when it raises, when its exit code is not 0 (negative controls
carry `expect: fail`, so a checker that loses its teeth fails too), or when
its payload digest differs from the one pinned in `digests.json`.  Fixture
rows are pinned at every seed; at the default seed every job is pinned.
The last stdout line is the JSON result; the lines before it record the
environment and each metric with its unit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jobs import WORKLOADS
from speed import PROBE_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
SETUP_SAMPLES = 9
RUN_DEADLINE_S = 170  # every worker must have ended by then; the contract allows 180

END_TO_END = {
    "verdict_s": "s",
    "heaviest_job_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "pass_ratio": "ratio",
}

PER_LAYER = [
    "poly.mul.calls", "poly.mul.term_products", "poly.mul.self_s", "poly.mul.max_terms",
    "poly.add.calls", "poly.add.self_s", "poly.divexact.calls", "poly.divexact.self_s",
    "poly.gcd.calls", "poly.gcd.self_s",
    "ratfunc.new.calls", "ratfunc.new.self_s", "ratfunc.add.calls", "ratfunc.add.self_s",
    "ratfunc.mul.calls", "ratfunc.mul.self_s", "ratfunc.div.calls", "ratfunc.div.self_s",
    "matrix.mul.poly.entry_mults", "matrix.mul.poly.self_s", "matrix.mul.poly.total_s",
    "matrix.mul.frac.entry_mults", "matrix.mul.frac.self_s", "matrix.partial_trace.self_s",
    "matrix.mul.ratfunc.entry_mults", "matrix.mul.ratfunc.self_s",
    "matrix.inv.ratfunc.calls", "matrix.inv.ratfunc.self_s",
    "matrix.inv.frac.calls", "matrix.inv.frac.self_s",
    "matrix.adjugate_det.calls", "matrix.adjugate_det.self_s",
    "baxter.rhat_cleared.calls", "baxter.rhat_cleared.total_s",
    "baxter.build_R.total_s", "baxter.check_unitarity.total_s",
    "baxter.H_closed.total_s", "baxter.series_agreement_order.total_s",
    "verify.ybe_symbolic.self_s", "verify.ybe_symbolic.total_s", "verify.ybe_random.total_s",
    "verify.transfer_commute.self_s", "verify.transfer_commute.total_s", "verify.lemma_suite.total_s",
    "reps.builtin_rep.total_s", "reps.check_relations.total_s",
    "ncalg.relations_for.total_s", "ncalg.prop1_certificate.total_s",
    "cli.run_job.self_s",
    "trace.overhead_s",
]

# per-layer metric suffix -> (field of tracer.Stats snapshot, unit)
_FIELDS = {
    "calls": ("calls", "count"),
    "term_products": ("work", "count"),
    "entry_mults": ("work", "count"),
    "max_terms": ("max_terms", "count"),
    "self_s": ("self_s", "s"),
    "total_s": ("total_s", "s"),
    "overhead_s": (None, "s"),
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def layer_unit(metric: str) -> str:
    return _FIELDS[metric.rsplit(".", 1)[1]][1]


def is_count(metric: str) -> bool:
    return layer_unit(metric) == "count"


# -- environment ----------------------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def _commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_digest() -> str:
    """sha256 over the program's sources; identifies the code in a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Read-only record of the machine and inputs; changes no setting."""
    cpu = next(
        (line.split(":", 1)[1].strip() for line in (_read(Path("/proc/cpuinfo")) or "").splitlines()
         if line.startswith("model name")),
        None,
    )
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# -- passes ---------------------------------------------------------------------


def spawn(workload: str, seed: int, mode: str, deadline: float) -> tuple[float, dict]:
    """Start one fresh worker; returns (seconds until it printed `ready`, its result line).

    The worker is killed if it is still running at `deadline` (a perf_counter value).
    """
    cmd = [sys.executable, "-E", "-s", str(HERE / "worker.py"), workload, str(seed), mode]
    t0 = time.perf_counter()
    # unbuffered, so readline() cannot swallow the result line that communicate() reads
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {mode} pass on {workload} overran the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != b"ready" or proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {mode} pass on {workload} exited with code {proc.returncode}")
    return setup_s, json.loads(out.splitlines()[-1])


def sample_setup(workload: str, seed: int, deadline: float) -> float:
    """Median set-up time of fresh workers, each rescaled to nominal host speed.

    The speed is read from probes the worker times right after `ready`.
    Set-up (process start, imports) slows somewhat less than the probe in the
    host's slow state, so there the rescaled value reads about 0.8x the
    fast-state one; unscaled it would read about 1.5x.
    """
    return statistics.median(
        setup_s * PROBE_NOMINAL_S / statistics.median(result["probe_s"])
        for setup_s, result in (spawn(workload, seed, "setup", deadline) for _ in range(SETUP_SAMPLES))
    )


def judge(records: list[dict], digests: dict, seed: int) -> list[str]:
    """One failure line per failed job of a pass."""
    failures = []
    for rec in records:
        pinned = digests.get(rec["job"])
        if rec["error"] is not None:
            why = f"raised {rec['error']}"
        elif rec["exit_code"] != 0:
            why = f"exit code {rec['exit_code']}"
        elif pinned is not None and rec["payload"] != pinned:
            why = "payload differs from the pinned digest"
        elif pinned is None and seed == DEFAULT_SEED:
            why = "no pinned digest at the default seed"
        else:
            continue
        failures.append(f"{rec['id']}: {why}")
    return failures


def _layer_values(trace: dict) -> dict:
    values = {}
    for metric in PER_LAYER:
        span, suffix = metric.rsplit(".", 1)
        if span == "trace":
            continue
        values[metric] = trace.get(span, {}).get(_FIELDS[suffix][0], 0)
    return values


def check_predictions(workload: str, values: dict, predictions: dict) -> list[str]:
    """Every metric of a row that moves this workload is non-zero; `zero` and `ceiling` hold."""
    problems = []
    for row in predictions["rows"]:
        if workload in row["moves"]:
            problems += [f"{m} is 0 on {workload}, predicted non-zero" for m in row["metrics"] if not values[m]]
    for metric in predictions["zero"][workload]:
        if values[metric]:
            problems.append(f"{metric} is {values[metric]} on {workload}, predicted 0")
    for metric, ceiling in predictions["ceiling"].get(workload, {}).items():
        if values[metric] > ceiling:
            problems.append(f"{metric} is {values[metric]} on {workload}, predicted at most {ceiling}")
    return problems


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, int, list[str], list[str]]:
    """(metrics, jobs attempted, failed jobs, failed benchmark checks)."""
    digests = json.loads((HERE / "digests.json").read_text())
    deadline = time.perf_counter() + RUN_DEADLINE_S
    spawn(workload, seed, "setup", deadline)  # warm-up: bytecode caches and the page cache fill here
    start = time.perf_counter()
    untraced, traced, failures, problems = [], [], [], []
    attempted = 0

    def one_pass(mode: str) -> dict:
        nonlocal attempted
        t0 = time.perf_counter()
        result = spawn(workload, seed, mode, deadline)[1]
        result["wall_s"] = time.perf_counter() - t0
        attempted += len(result["records"])
        failures.extend(judge(result["records"], digests, seed))
        return result

    setup_s = None if trace else sample_setup(workload, seed, deadline)
    while True:
        untraced.append(one_pass("run"))
        if trace:
            traced.append(one_pass("trace"))
        per_round = statistics.median(p["wall_s"] for p in untraced)
        if trace:
            per_round += statistics.median(p["wall_s"] for p in traced)
        if time.perf_counter() - start + per_round > seconds:
            break

    if not trace:
        job_s = [statistics.median(times) for times in zip(*([r["seconds"] for r in p["records"]] for p in untraced))]
        raw_s = statistics.median(p["verdict_raw_s"] for p in untraced)
        slow = statistics.median(p["slow_share"] for p in untraced)
        print(f"info passes {len(untraced)} verdict_raw_s {raw_s} (wall time before host-speed normalisation)")
        print(f"info host slow-state share of probes {slow}")
        metrics = {
            "verdict_s": sum(job_s),
            "heaviest_job_s": max(job_s),
            "setup_s": setup_s,
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in untraced),
            "pass_ratio": 1 - len(failures) / attempted,
        }
        return {name: (value, END_TO_END[name]) for name, value in metrics.items()}, attempted, failures, problems

    reference = [r["payload"] for r in untraced[0]["records"]]
    for p in traced:
        if [r["payload"] for r in p["records"]] != reference:
            problems.append("traced payload digests differ from untraced ones")
    samples = [_layer_values(p["trace"]) for p in traced]
    values = {}
    for metric in samples[0]:
        seen = [s[metric] for s in samples]
        if is_count(metric) and len(set(seen)) > 1:
            problems.append(f"{metric} differs between traced passes: {seen}")
        values[metric] = seen[0] if is_count(metric) else statistics.median(seen)
    values["trace.overhead_s"] = (
        statistics.median(p["verdict_s"] for p in traced) - statistics.median(p["verdict_s"] for p in untraced)
    )
    predictions = json.loads((HERE / "predictions.json").read_text())
    problems.extend(check_predictions(workload, values, predictions))
    return {m: (values[m], layer_unit(m)) for m in PER_LAYER}, attempted, failures, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "baxcheck" / "cli.py").is_file():
        print(f"no baxcheck sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args.workload, args.seed, args.seconds, bool(args.trace))), flush=True)
    try:
        metrics, attempted, failures, problems = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for line in failures:
        print(f"FAILED job {line}", file=sys.stderr)
    for line in problems:
        print(f"FAILED check {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(f"jobs attempted {attempted} failed {len(failures)} fail_ratio {len(failures) / attempted}")
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
