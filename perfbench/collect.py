"""Run the benchmark once per workload and seed, appending every result to one file.

    python3 perfbench/collect.py --out perfbench/results/mine.jsonl
    python3 perfbench/collect.py --seeds confirm --out perfbench/results/confirm.jsonl

Each run is its own process, one after another, so peak memory is per run.
``dev`` seeds were used while the benchmark was written; confirm a claim on
the ``confirm`` seeds, which were not.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = {"dev": list(range(1, 11)), "confirm": list(range(1001, 1011))}


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", choices=sorted(SEEDS), default="dev")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    failures = 0
    for workload in args.workloads.split(","):
        for seed in SEEDS[args.seeds]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace), "--out", args.out]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            elapsed = time.monotonic() - start
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            ok = proc.returncode == 0 and last.startswith("{") and json.loads(last)["correct"]
            failures += not ok
            print(f"{workload} seed {seed}: {'ok' if ok else 'FAILED'} in {elapsed:.1f} s", flush=True)
            if not ok:
                print(proc.stderr[-2000:], file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
