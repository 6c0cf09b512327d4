"""switchdet benchmark: named workloads through the public CLI, in process.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the provenance.  ``--out FILE`` also appends the result and
its provenance to FILE as one JSON line, and ``--spans FILE`` writes the spans
of a traced run.  Compare two sets of results with

    python3 perfbench/run.py --compare A.jsonl B.jsonl

Each call into ``switchdet.cli.main`` starts when the previous one returns
(one closed-loop client); the only parallelism is ``sweep --jobs <nproc>``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402

REFERENCE_STEPS = 2000
NOTES = [
    "infer and gen default to different video ids, which scores F1 = 0; "
    f"every gen and infer call passes --video-id {wl.VIDEO_ID}",
]
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "round_ref": "ref", "detect_f1": "ratio"}
# Extra per-layer metrics that are not a single span statistic.
DERIVED_LAYER_UNITS = {
    "cli.train.layer_share": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def import_cli():
    """Import switchdet from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import switchdet.cli as cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import switchdet from {src}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: switchdet imported from {cli.__file__}, not {src}")
    return cli


class Reference:
    """A fixed computation, timed in the same process next to every timed call.

    On a shared host the speed of a core flips between two levels about a
    factor of two apart, for periods of a second to minutes.  A call's time
    divided by the reference's time just before and just after it changes far
    less than the call's time: ``round_ref`` is a round's time in reference
    loops.  The loop is small numpy operations in a Python loop, like the
    scorer's one-frame step; it lives here, so no change to the package moves it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._w, self._x = rng.normal(size=(32, 16)), rng.normal(size=16)

    def time(self) -> float:
        h = np.zeros(32)
        start = perf_counter()
        for _ in range(REFERENCE_STEPS):
            h = np.tanh(self._w @ self._x + 0.5 * h)
        return perf_counter() - start


class Session:
    """Runs CLI calls and counts attempted and failed operations."""

    def __init__(self, cli_main, tracer: Tracer | None = None):
        self.main = cli_main
        self.tracer = tracer
        self.attempted = 0
        self.failed: dict[str, list[str]] = {}  # "<phase> <n>/<op label>" -> reasons

    def call(self, phase: str, op: wl.Op, traced: bool = False) -> float:
        self.attempted += 1
        start = perf_counter()
        if traced:
            with self.tracer.span(f"cli.{op.argv[0]}"):
                rc = self.main(op.argv)
        else:
            rc = self.main(op.argv)
        elapsed = perf_counter() - start
        if rc != 0:
            self.fail(phase, op.label, f"exit code {rc}")
        return elapsed

    def fail(self, phase: str, label: str, reason: str) -> None:
        self.failed.setdefault(f"{phase}/{label}", []).append(reason)


class Bench:
    def __init__(self, name: str, seed: int, work: Path, session: Session):
        self.name = name
        self.spec = wl.WORKLOADS[name]
        self.seed = seed
        self.session = session
        self.setup_dir = work / "setup"
        self.round_dir = work / "round"
        self.jobs = nproc()
        self.reference = Reference()
        self._digests: dict[str, dict[str, str]] = {}
        self._repeats = {"setup": 0, "round": 0}

    def _next(self, phase: str) -> str:
        """Name this repeat of a phase, so that each failed call counts once."""
        self._repeats[phase] += 1
        return f"{phase} {self._repeats[phase]}"

    def _same_as_first(self, phase: str, where: str, ops) -> None:
        """Outputs of every repeat must be byte-identical to the first's."""
        digests = {op.label: op.digest() for op in ops}
        first = self._digests.setdefault(phase, digests)
        for label, digest in digests.items():
            if digest != first[label]:
                self.session.fail(where, label, "output differs from the first repeat")

    def setup(self, traced: bool = False) -> float:
        """Make the inputs; returns the time of the CLI calls alone."""
        self.setup_dir.mkdir(parents=True, exist_ok=True)
        ops = wl.setup_ops(self.spec, self.seed, self.setup_dir)
        where = self._next("setup")
        elapsed = sum(self.session.call(where, op, traced) for op in ops)
        self._same_as_first("setup", where, ops)
        d = self.setup_dir
        if "infer" not in self.spec.calls and not (d / "scored.jsonl").exists():
            gts, preds = wl.derive_scored_set(wl.read_jsonl(d / "stream.jsonl"), self.seed)
            wl.write_jsonl(d / "scored_gts.jsonl", gts)
            wl.write_jsonl(d / "scored.jsonl", preds)
        return elapsed

    def run_round(self, traced: bool = False) -> dict[str, float]:
        """One round of the workload's calls; returns each call's time, the
        round's time in seconds and in reference loops, and the F1."""
        self.round_dir.mkdir(parents=True, exist_ok=True)
        ops = wl.round_ops(self.spec, self.seed, self.setup_dir, self.round_dir, self.jobs)
        where = self._next("round")
        t, ref = {}, [self.reference.time()]
        for label, op in ops.items():
            t[label] = self.session.call(where, op, traced)
            ref.append(self.reference.time())
        self._same_as_first("round", where, ops.values())
        try:
            bad = wl.check_round(self.spec, self.round_dir)
            t["detect_f1"] = wl.read_f1(self.round_dir)
        except (OSError, ValueError, KeyError) as exc:
            bad = {"checks": [f"could not read outputs: {exc!r}"]}
            t["detect_f1"] = float("nan")
        for label, reasons in bad.items():
            for reason in reasons:
                self.session.fail(where, label, reason)
        t["round_s"] = sum(t[label] for label in ops)
        for i, label in enumerate(ops):
            t[f"{label}_ref"] = t[label] / ((ref[i] + ref[i + 1]) / 2)
        t["round_ref"] = sum(t[f"{label}_ref"] for label in ops)
        return t

    def input_sizes(self) -> dict:
        s, d = self.spec, self.setup_dir
        preds, gts = (len(wl.read_jsonl(p)) for p in wl.scored_files(s, d, self.round_dir))
        sizes = {"switches": s.switches, "train_frames": s.train_videos * s.train_len,
                 "stream_frames": s.stream_len, "stream_gt": len(wl.read_jsonl(d / "stream.jsonl")),
                 "scored_predictions": preds, "scored_gt": gts, "scored_pairs": preds * gts}
        if "sweep" in s.calls:
            sizes |= {"sweep_cells": wl.SWEEP_CELLS, "sweep_jobs": self.jobs}
        return sizes


def _until(seconds: float, step) -> None:
    """Call ``step`` until the next call would end after ``seconds``; at least once."""
    start = perf_counter()
    while True:
        t0 = perf_counter()
        step()
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return


def run_untraced(bench: Bench, seconds: float) -> dict[str, float]:
    """Set up, then alternate rounds and set-ups, so that set-ups spread over the run."""
    setup_times = [bench.setup()]
    rounds: list[dict[str, float]] = []

    def step():
        rounds.append(bench.run_round())
        setup_times.append(bench.setup())

    _until(seconds, step)
    samples = {key: [r[key] for r in rounds] for key in rounds[0]} | {"setup_s": setup_times}
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # The mean over rounds spread less between runs than the median did.
        "round_ref": statistics.fmean(samples["round_ref"]),
        "detect_f1": statistics.median(samples["detect_f1"]),
        "rounds": len(rounds),
        "samples": samples,
    }


def run_traced(bench: Bench, tracer: Tracer, seconds: float) -> dict[str, float]:
    """Set up once traced, then alternate untraced and traced rounds."""
    tracer.install()
    try:
        bench.setup(traced=True)
    finally:
        tracer.uninstall()
    plain: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []

    def pair():
        plain.append(bench.run_round())
        tracer.run_id = len(traced) + 1
        tracer.install()
        try:
            traced.append(bench.run_round(traced=True))
        finally:
            tracer.uninstall()

    _until(seconds, pair)
    stats = tracer.layer_stats(len(traced))
    metrics = {name: stats.get(span, {}).get(stat, 0.0)
               for name, (span, stat, _) in LAYER_METRICS.items()}
    metrics["cli.train.layer_share"] = tracer.share_under(
        "cli.train", ("scorer", "losses", "trainer"), len(traced))
    med = {key: (statistics.median(r[key] for r in traced), statistics.median(r[key] for r in plain))
           for key in ("round_s", "round_ref")}
    metrics["trace.overhead_s"] = med["round_s"][0] - med["round_s"][1]
    metrics["trace.overhead_share"] = med["round_ref"][0] / med["round_ref"][1] - 1
    metrics["rounds"] = len(traced)
    return metrics


def _blas() -> dict:
    """BLAS library, version and thread setting, as far as they can be found."""
    info = {"env": {k: v for k, v in os.environ.items()
                    if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info |= {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return info
    for path in {line.split()[-1] for line in maps if "openblas" in line.lower()}:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            return info | {"threads": threads(), "config": config().decode()}
    return info


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(bench: Bench, args) -> dict:
    import scipy

    return {
        "workload": bench.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": _git_commit(), "nproc": nproc(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": _blas(), "inputs": bench.input_sizes(), "notes": NOTES,
    }


def run(args) -> int:
    cli = import_cli()
    tracer = Tracer() if args.trace else None
    session = Session(cli.main, tracer)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(args.workload, args.seed, work, session)
        if args.trace:
            values = run_traced(bench, tracer, args.seconds)
            units = {name: unit for name, (_, _, unit) in LAYER_METRICS.items()} | DERIVED_LAYER_UNITS
        else:
            values = run_untraced(bench, args.seconds)
            units = END_TO_END_UNITS
        prov = provenance(bench, args) | {"rounds": values["rounds"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    if args.spans and tracer:
        tracer.dump(args.spans)
    failed = len(session.failed)
    result = {
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    for key, reasons in session.failed.items():
        print(f"FAILED {key}: {'; '.join(reasons)}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"result": result, "provenance": prov, "failures": session.failed,
                                 "samples": values.get("samples", {})}) + "\n")
    print("provenance " + json.dumps(prov))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result and provenance to this JSONL file")
    parser.add_argument("--spans", help="write the spans of a traced run to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result files written with --out")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
