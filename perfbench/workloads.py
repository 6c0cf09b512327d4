"""Workload inputs, the CLI calls of one round, and the checks on their outputs.

Each workload runs only its own calls through ``switchdet.cli.main``:

* ``fit``: the research loop.  Set-up generates two 20k-frame training
  streams and a 20k-frame held-out stream (k=2).  A round runs ``train`` →
  ``infer`` → ``eval-f1`` → a small ``sweep``.  Scorer forward and BPTT,
  ``losses`` and Adam dominate; ``metrics`` does little.
* ``online``: streaming inference.  Set-up generates a dense 20k-frame k=3
  stream (max concurrency 3) and trains the checkpoint on a stream that
  does not depend on the seed.  A round runs ``infer`` → ``eval-f1`` →
  ``encode`` of the ground truth → batch ``decode`` → ``decode --streaming``.
  The scorer runs forward only, one frame at a time, with the 8-state
  per-frame decoder.
* ``evaluate``: scoring.  Set-up generates one long, dense k=3 video and
  derives a few thousand scored predictions from its ground truth.  A round
  runs ``eval-f1``, ``eval-map`` and ``eval-odas``; the scorer is idle.

All inputs come from the workload seed; the program sees only the files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VIDEO_ID = "v"
# Class signatures play the part of a fixed feature extractor: every seed
# shares them, so the seed varies the streams and not the task's geometry.
SIGNATURE_SEED = 7
LEARNING_RATE = "0.01"
NUM_CLASSES = 4
FIXED_MODEL_SEED = 0
# The scored set of ``evaluate`` keeps this many ground-truth intervals and
# this many predictions per interval, so a round does the same work on every seed.
SCORED_GTS = 1100
SCORED_PER_GT = 1.8
ODAS_FPS = "25"

SWEEP_ALPHAS = "0,0.05"
SWEEP_SWITCHES = "1,2"
SWEEP_ARGS = ["--length", "3000", "--eval-length", "1500", "--train-videos", "1",
              "--epochs", "1", "--num-seeds", "1", "--arrival-rate", "0.035",
              "--learning-rate", LEARNING_RATE]
SWEEP_CELLS = len(SWEEP_ALPHAS.split(",")) * len(SWEEP_SWITCHES.split(","))  # one seed


@dataclass(frozen=True)
class Spec:
    switches: int
    arrival: float
    max_concurrent: int
    alpha: float
    train_videos: int      # training streams (0: nothing is trained)
    train_len: int
    stream_len: int        # the stream infer reads, or the video the scored predictions mimic
    setup_train: bool      # train the checkpoint in set-up, not in each round
    calls: tuple[str, ...]  # the op labels of one round, in order


WORKLOADS = {
    "fit": Spec(switches=2, arrival=0.035, max_concurrent=2, alpha=0.025,
                train_videos=2, train_len=20000, stream_len=20000, setup_train=False,
                calls=("train", "infer", "eval-f1", "sweep")),
    "online": Spec(switches=3, arrival=0.05, max_concurrent=3, alpha=0.025,
                   train_videos=1, train_len=20000, stream_len=20000, setup_train=True,
                   calls=("infer", "eval-f1", "encode", "decode", "decode-streaming")),
    "evaluate": Spec(switches=3, arrival=0.05, max_concurrent=3, alpha=0.0,
                     train_videos=0, train_len=0, stream_len=32000, setup_train=False,
                     calls=("eval-f1", "eval-map", "eval-odas")),
}


@dataclass
class Op:
    """One CLI call and the files it writes (its manifest is added)."""

    label: str
    argv: list[str]
    outputs: list[Path]

    def files(self) -> list[Path]:
        return self.outputs + [Path(str(self.outputs[0]) + ".manifest.json")]

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in self.files():
            h.update(path.read_bytes() if path.exists() else b"<missing>")
        return h.hexdigest()


def _gen(spec: Spec, d: Path, name: str, length: int, seed: int) -> Op:
    feats, insts = d / f"{name}.aswf", d / f"{name}.jsonl"
    argv = ["gen", "--length", str(length), "--arrival-rate", str(spec.arrival),
            "--max-concurrent", str(spec.max_concurrent), "--num-classes", str(NUM_CLASSES),
            "--seed", str(seed), "--signature-seed", str(SIGNATURE_SEED),
            "--video-id", VIDEO_ID, "--out-features", str(feats), "--out-instances", str(insts)]
    return Op(f"gen-{name}", argv, [feats, insts])


def _train(spec: Spec, d: Path, out: Path, seed: int) -> Op:
    argv = ["train"]
    for i in range(spec.train_videos):
        argv += ["--video", str(d / f"train{i}.aswf"), str(d / f"train{i}.jsonl")]
    argv += ["--alpha", str(spec.alpha), "--epochs", "1", "--learning-rate", LEARNING_RATE,
             "--num-switches", str(spec.switches), "--seed", str(seed),
             "--out-checkpoint", str(out), "--out-history", str(out.with_suffix(".history.jsonl"))]
    return Op("train", argv, [out, out.with_suffix(".history.jsonl")])


def setup_ops(spec: Spec, seed: int, d: Path) -> list[Op]:
    """CLI calls that make the inputs; ``evaluate``'s predictions are derived after."""
    # A checkpoint trained in set-up is a deployed detector's: it does not
    # change with the stream it watches, so its training data and initial
    # weights come from a fixed seed, and only the stream follows the workload seed.
    train_seed = FIXED_MODEL_SEED if spec.setup_train else seed
    ops = [_gen(spec, d, f"train{i}", spec.train_len, train_seed * 1000 + 1 + i)
           for i in range(spec.train_videos)]
    ops.append(_gen(spec, d, "stream", spec.stream_len, seed * 1000 + 500))
    if spec.setup_train:
        ops.append(_train(spec, d, d / "model.aswp", train_seed))
    return ops


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def derive_scored_set(gts: list[dict], seed: int) -> tuple[list[dict], list[dict]]:
    """The first SCORED_GTS ground-truth intervals, and scored predictions that
    look like a flickering detector's output on them.

    Each interval is split into 1-3 fragments with small gaps, fragment
    boundaries are jittered and 15 % of classes are relabelled; false
    positives fill the set up to SCORED_PER_GT predictions per interval.
    Scores are higher for whole detections than for fragments and false
    positives.
    """
    kept = sorted(gts, key=lambda g: (g["start"], g["end"], g["class_id"]))[:SCORED_GTS]
    length = max(g["end"] for g in kept) + 1
    rng = np.random.default_rng([seed, 17])
    preds = []

    def add(start, end, cls, score):
        start, end = int(np.clip(start, 0, length - 1)), int(np.clip(end, 0, length - 1))
        if end < start:
            start, end = end, start
        preds.append({"video_id": VIDEO_ID, "start": start, "end": end, "class_id": int(cls),
                      "score": round(float(np.clip(score, 0.01, 0.99)), 4), "truncated": False})

    for g in kept:
        start, end, cls = g["start"], g["end"], g["class_id"]
        pieces = int(rng.choice([1, 2, 3], p=[0.6, 0.3, 0.1]))
        if end - start + 1 < 4 * pieces:
            pieces = 1
        bounds = np.linspace(start, end + 1, pieces + 1).round().astype(int)
        if rng.random() < 0.15:
            cls = (cls + int(rng.integers(1, NUM_CLASSES))) % NUM_CLASSES
        for a, b in zip(bounds[:-1], bounds[1:]):
            gap = int(rng.integers(1, 3)) if b <= end else 0
            jitter = rng.normal(0.0, 0.08 * (b - a), size=2).round().astype(int)
            add(a + jitter[0], b - 1 - gap + jitter[1], cls,
                rng.normal(0.75 - 0.15 * (pieces - 1), 0.15))
    for _ in range(round(SCORED_PER_GT * len(kept)) - len(preds)):
        start = int(rng.integers(0, length))
        add(start, start + int(rng.integers(10, 60)), rng.integers(NUM_CLASSES),
            rng.normal(0.35, 0.15))
    preds.sort(key=lambda p: (p["start"], p["end"], p["class_id"], p["score"]))
    return kept, preds


def write_jsonl(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def scored_files(spec: Spec, d: Path, r: Path) -> tuple[Path, Path]:
    """The predictions and ground truth that the round's evaluations score:
    infer's output on the stream where the round infers, else the derived set."""
    if "infer" in spec.calls:
        return r / "detections.jsonl", d / "stream.jsonl"
    return d / "scored.jsonl", d / "scored_gts.jsonl"


def round_ops(spec: Spec, seed: int, d: Path, r: Path, jobs: int) -> dict[str, Op]:
    """The CLI calls of one round, keyed by label, in the workload's order."""
    k = str(spec.switches)
    model = (d if spec.setup_train else r) / "model.aswp"
    preds, gts = (str(p) for p in scored_files(spec, d, r))
    ops = [
        _train(spec, d, model, seed),
        Op("infer", [
            "infer", "--checkpoint", str(model), "--features", str(d / "stream.aswf"),
            "--num-switches", k, "--video-id", VIDEO_ID, "--out", str(r / "detections.jsonl")],
            [r / "detections.jsonl"]),
        Op("eval-f1", [
            "eval-f1", "--preds", preds, "--gts", gts, "--tiou", "0.5",
            "--out", str(r / "f1.json")], [r / "f1.json"]),
        Op("eval-map", [
            "eval-map", "--preds", preds, "--gts", gts, "--out", str(r / "map.json")],
            [r / "map.json"]),
        Op("eval-odas", [
            "eval-odas", "--preds", preds, "--gts", gts, "--fps", ODAS_FPS,
            "--out", str(r / "odas.json")], [r / "odas.json"]),
        Op("sweep", [
            "sweep", "--alphas", SWEEP_ALPHAS, "--switches", SWEEP_SWITCHES, *SWEEP_ARGS,
            "--jobs", str(jobs), "--seed", str(seed), "--out", str(r / "sweep.csv")],
            [r / "sweep.csv"]),
        Op("encode", [
            "encode", "--instances", str(d / "stream.jsonl"), "--length", str(spec.stream_len), "--num-switches", k,
            "--video-id", VIDEO_ID, "--out", str(r / "states.json"),
            "--report", str(r / "encode_report.json")],
            [r / "states.json", r / "encode_report.json"]),
        Op("decode", [
            "decode", "--states", str(r / "states.json"), "--out", str(r / "decoded.jsonl")],
            [r / "decoded.jsonl"]),
        Op("decode-streaming", [
            "decode", "--states", str(r / "states.json"), "--streaming",
            "--out", str(r / "decoded_streaming.jsonl")], [r / "decoded_streaming.jsonl"]),
    ]
    by_label = {op.label: op for op in ops}
    return {label: by_label[label] for label in spec.calls}


def _in_unit(value) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def check_round(spec: Spec, r: Path) -> dict[str, list[str]]:
    """Output checks of one round; maps an op label to what failed."""
    bad: dict[str, list[str]] = {}

    def expect(label, ok, what):
        if not ok:
            bad.setdefault(label, []).append(what)

    if "infer" in spec.calls:
        dets = read_jsonl(r / "detections.jsonl")
        expect("infer", all(d["video_id"] == VIDEO_ID for d in dets),
               "infer wrote another video id")
        expect("infer", all(0 <= d["start"] <= d["end"] < spec.stream_len for d in dets),
               "infer interval leaves the stream")
        open_count = np.zeros(spec.stream_len + 1, dtype=np.int64)
        for d in dets:
            open_count[d["start"]] += 1
            open_count[min(d["end"] + 1, spec.stream_len)] -= 1
        expect("infer", int(np.cumsum(open_count).max(initial=0)) <= spec.switches,
               f"infer has more than {spec.switches} intervals open at once")
    rep = json.loads((r / "f1.json").read_text())
    expect("eval-f1", all(_in_unit(rep[k]) for k in ("f1", "precision", "recall")),
           "eval-f1: score outside [0, 1]")
    expect("eval-f1", rep["tp"] <= min(rep["num_pred"], rep["num_gt"]), "eval-f1: tp > min(P, G)")
    expect("eval-f1", rep["f1"] > 0, "eval-f1: F1 is 0 (video ids disjoint?)")
    if "eval-map" in spec.calls:
        rep = json.loads((r / "map.json").read_text())
        expect("eval-map", _in_unit(rep["average_map"]) and all(map(_in_unit, rep["map"].values())),
               "eval-map: mAP outside [0, 1]")
    if "eval-odas" in spec.calls:
        rep = json.loads((r / "odas.json").read_text())
        expect("eval-odas", _in_unit(rep["p_map"]) and all(map(_in_unit, rep["p_ap"].values())),
               "eval-odas: p-mAP outside [0, 1]")
    if "decode-streaming" in spec.calls:
        expect("decode-streaming",
               (r / "decoded.jsonl").read_bytes() == (r / "decoded_streaming.jsonl").read_bytes(),
               "streaming decode differs from batch decode")
    if "sweep" in spec.calls:
        rows = (r / "sweep.csv").read_text().splitlines()[1:]
        expect("sweep", len(rows) == SWEEP_CELLS and not any("nan" in row for row in rows),
               "sweep rows missing or failed")
    return bad


def read_f1(r: Path) -> float:
    return float(json.loads((r / "f1.json").read_text())["f1"])
