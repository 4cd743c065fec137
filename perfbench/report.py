"""Print every end-to-end and per-layer metric of every workload, by name with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs `run.py` for each workload, untraced and traced, one after another
(about four minutes at the default 20 seconds), and prints one line per
metric followed by each run's correctness.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from jobs import WORKLOADS
from run import DEFAULT_SEED, HERE, ROOT


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", trace],
                cwd=ROOT, capture_output=True, text=True, timeout=200,
            )
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            for name, metric in result["metrics"].items():
                value = metric["value"]
                shown = f"{value:.6g}" if isinstance(value, float) else str(value)
                print(f"{workload:16s} {name:38s} {shown:>16s} {metric['unit']}")
            print(f"{workload:16s} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
