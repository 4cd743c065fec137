"""Pin the payload digests that the benchmark's correctness gate compares against.

    python3 perfbench/pin_digests.py

Runs every workload once at the default seed and writes `digests.json`:
sha256 of each job's canonical JSON -> sha256 of its serialized payload.
Only jobs that pass (exit code 0, no exception) are pinned.  Reports are
byte-reproducible by design, so this file changes only when a change to
the program is meant to change a report.
"""

from __future__ import annotations

import json
import sys
import time

from jobs import WORKLOADS
from run import DEFAULT_SEED, HERE, RUN_DEADLINE_S, spawn


def main() -> int:
    digests = {}
    for workload in WORKLOADS:
        _, result = spawn(workload, DEFAULT_SEED, "run", time.perf_counter() + RUN_DEADLINE_S)
        for rec in result["records"]:
            if rec["error"] is not None or rec["exit_code"] != 0:
                print(f"not pinned, job fails: {workload} {rec['id']}", file=sys.stderr)
                continue
            digests[rec["job"]] = rec["payload"]
        print(f"{workload}: {len(result['records'])} jobs, {result['verdict_s']:.2f} s")
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} payload digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
