"""Compare two result sets written by ``run.py --out``.

One row per workload and end-to-end metric: each side's median and
quartiles, each side's spread (quartile distance over median), the change of
the median, and a verdict against the metric's bound in BENCHMARK.json:

* ``unresolved`` when either spread exceeds the bound, unless every run of B
  is better (``better``) or worse (``worse``) than every run of A;
* otherwise ``better`` or ``worse`` when the medians differ by more than the
  bound, and ``within bound`` when they do not.

Every metric follows this rule, ``setup_s`` too, except the metrics in
``PER_SEED``: they are deterministic for a given seed, so their spread is
the spread between seeds, not noise.  They are compared seed by seed:
``worse`` if any seed reads worse in B, else ``better`` if any reads better,
else ``identical``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

PER_SEED = {"detect_f1"}


def load(path) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value} of the untraced runs in a result file."""
    values: dict[tuple[str, str], dict[int, float]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        prov = rec["provenance"]
        if prov["trace"]:
            continue
        for name, m in rec["result"]["metrics"].items():
            values.setdefault((prov["workload"], name), {})[prov["seed"]] = m["value"]
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (quartiles(b)[1] - quartiles(a)[1]) / quartiles(a)[1]
    if max(spread(a), spread(b)) > bound:
        if min(sign * x for x in b) > max(sign * x for x in a):
            return "better"
        if max(sign * x for x in b) < min(sign * x for x in a):
            return "worse"
        return "unresolved"
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "within bound"


def per_seed_verdict(a: dict[int, float], b: dict[int, float], better: str) -> str:
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(a) & set(b))
    if not seeds:
        return "no common seed"
    gains = [sign * (b[s] - a[s]) for s in seeds]
    if any(g < 0 for g in gains):
        return "worse"
    if any(g > 0 for g in gains):
        return "better"
    return "identical"


def main(path_a, path_b, benchmark_json) -> int:
    bench = json.loads(Path(benchmark_json).read_text())
    a, b = load(path_a), load(path_b)
    workloads = [w["name"] for w in bench["workloads"]]
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':9s} {'metric':12s} {'A q1':>10s} {'A med':>10s} {'A q3':>10s} "
          f"{'B q1':>10s} {'B med':>10s} {'B q3':>10s} {'A sprd':>7s} {'B sprd':>7s} "
          f"{'delta':>7s} {'bound':>6s} {'n':>5s}  verdict")
    verdicts = []
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, key = metric["name"], (w, metric["name"])
            if key not in a or key not in b:
                print(f"{w:9s} {name:12s} missing in {'A' if key not in a else 'B'}")
                verdicts.append("missing")
                continue
            va, vb = list(a[key].values()), list(b[key].values())
            if name in PER_SEED:
                v = per_seed_verdict(a[key], b[key], metric["better"])
            else:
                v = verdict(va, vb, metric["better"], metric["bound"])
            verdicts.append(v)
            qa, qb = quartiles(va), quartiles(vb)
            print(f"{w:9s} {name:12s} "
                  + " ".join(f"{x:10.4g}" for x in (*qa, *qb))
                  + f" {spread(va):7.3f} {spread(vb):7.3f}"
                  + f" {(qb[1] - qa[1]) / qa[1]:+7.3f} {metric['bound']:6.3f}"
                  + f" {len(va):2d}/{len(vb):<2d}  {v}")
    counts = {v: verdicts.count(v) for v in sorted(set(verdicts))}
    print("summary: " + ", ".join(f"{n} {v}" for v, n in counts.items()))
    return 0
