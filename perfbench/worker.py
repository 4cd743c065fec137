"""One workload pass in a fresh, single-threaded interpreter.

Usage: python3 -E -s perfbench/worker.py WORKLOAD SEED MODE
MODE is `setup` (stop once the jobs are ready and report host speed), `run` or
`trace`.

The worker imports baxcheck from the checkout's `src/`, generates the jobs,
sends them through a JSON text round trip as the CLI reads a job file, and
prints `ready` -- the parent's set-up clock stops there.  It then runs each
job through `baxcheck.cli.run_job`, serializes the payload exactly as the
CLI does (sorted keys, indent 2), and prints one JSON line of results.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from jobs import generate, job_digest
from speed import FAST_STATE_MAX_S, SpeedProbe, probe_durations

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run_jobs(jobs, run_job) -> tuple[list[dict], dict]:
    """Run (id, job) pairs; returns per-job records and the pass times.

    `seconds` are host-speed normalised (see speed.py), `raw_s` plain wall
    time; `slow_share` is the share of probes that found the host slow.
    """
    records, spans = [], []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        for name, job in jobs:
            record = {"id": name, "job": job_digest(job)}
            t0 = time.perf_counter()
            try:
                payload, code = run_job(job)
                text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
            except Exception as exc:  # a raising job is a failed job, not a crashed pass
                record.update(error=f"{type(exc).__name__}: {exc}", exit_code=None, payload=None)
            else:
                record.update(error=None, exit_code=code, payload=hashlib.sha256(text.encode()).hexdigest())
            spans.append((t0, time.perf_counter()))
            records.append(record)
        end = time.perf_counter()
    for record, (t0, t1) in zip(records, spans):
        record["seconds"] = probe.normalized(t0, t1)
        record["raw_s"] = t1 - t0
    slow = sum(d > FAST_STATE_MAX_S for d in probe.durations) / len(probe.durations)
    times = {"verdict_s": probe.normalized(start, end), "verdict_raw_s": end - start, "slow_share": slow}
    return records, times


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, str(SRC))
    import baxcheck.cli

    if not Path(baxcheck.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported baxcheck from {baxcheck.cli.__file__}, not from {SRC}")
    jobs = json.loads(json.dumps(generate(workload, seed)))
    print("ready", flush=True)
    if mode == "setup":
        # host speed right after set-up tells run.py the host's speed state; the first probes warm up
        print(json.dumps({"probe_s": probe_durations(5)[2:]}), flush=True)
        return 0
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    records, times = run_jobs(jobs, baxcheck.cli.run_job)
    result = {
        "records": records,
        **times,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # per-layer times get the pass's mean host-speed factor, not the per-interval one
        "trace": tracer.snapshot(times["verdict_s"] / times["verdict_raw_s"]) if tracer else None,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
