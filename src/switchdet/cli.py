"""Command-line pipelines: generate, encode, decode, train, infer, evaluate, sweep.

Every run writes a manifest JSON next to its primary output recording the
command, resolved configuration, seed and paths; reruns with an identical
manifest produce byte-identical outputs.  Exit codes: 0 success, 1 usage
error, 2 data error.  Log verbosity via the ASW_LOG environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import DomainError, SwitchDetError
from .formats import (
    read_instances,
    read_state_sequence,
    write_instances,
    write_state_sequence,
)
from .metrics import f1_at_tiou, interval_map, point_map
from .scorer import load_checkpoint, save_checkpoint
from .switchboard import (
    SwitchConfig,
    decode_sequence,
    decode_streaming,
    encode_instances,
)
from .synthgen import SynthConfig, generate_stream, read_features, write_features
from .trainer import (
    SweepRow,
    TrainConfig,
    infer_instances,
    rows_to_csv,
    sweep_alpha,
    train,
)

log = logging.getLogger("switchdet")


def _write_manifest(primary_out, command: str, config: dict,
                    inputs: list, outputs: list, seed=None) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "version": __version__,
    }
    path = Path(str(primary_out) + ".manifest.json")
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _write_report(path, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def cmd_gen(args) -> int:
    cfg = SynthConfig(
        length=args.length,
        arrival_rate=args.arrival_rate,
        duration_min=args.duration_min,
        duration_max=args.duration_max,
        max_concurrent=args.max_concurrent,
        num_classes=args.num_classes,
        feature_dim=args.feature_dim,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
        signature_seed=args.signature_seed,
        allow_overflow=args.allow_overflow,
    )
    features, instances = generate_stream(cfg)
    write_features(args.out_features, features)
    write_instances(args.out_instances, {args.video_id: instances})
    _write_manifest(
        args.out_features, "gen", vars(cfg) | {"video_id": args.video_id},
        inputs=[], outputs=[args.out_features, args.out_instances],
        seed=args.seed,
    )
    log.info("generated %d frames, %d instances", cfg.length, len(instances))
    return 0


def _read_one_video(path, video_id=None) -> tuple[str | None, list]:
    """(video id, instances) of the one video an instance file describes.

    An empty file holds no instances.  A file with several videos is
    accepted only when video_id names one of them.
    """
    videos = read_instances(path)
    if not videos:
        return video_id, []
    if video_id is None:
        if len(videos) > 1:
            raise DomainError(f"{path}: holds {len(videos)} videos, expected one")
        [(video_id, instances)] = videos.items()
        return video_id, instances
    if video_id not in videos:
        raise DomainError(f"{path}: no video {video_id!r}")
    return video_id, videos[video_id]


def cmd_encode(args) -> int:
    video_id, instances = _read_one_video(args.instances, args.video_id)
    video_id = video_id or "video"
    config = SwitchConfig(args.num_switches)
    labels, report = encode_instances(instances, args.length, config, args.policy)
    write_state_sequence(args.out, video_id, config, labels)
    report_obj = {
        "num_dropped": len(report.dropped_instances),
        "dropped": [
            {"start": i.start_frame, "end": i.end_frame}
            for i in report.dropped_instances
        ],
        "switch_assignment": {
            str(k): v for k, v in sorted(report.switch_assignment.items())
        },
        "merged_instances": report.merged_instances,
    }
    if args.report:
        _write_report(args.report, report_obj)
    outputs = [args.out] + ([args.report] if args.report else [])
    _write_manifest(
        args.out, "encode",
        {"length": args.length, "num_switches": args.num_switches,
         "policy": args.policy, "video_id": video_id},
        inputs=[args.instances], outputs=outputs,
    )
    return 0


def cmd_decode(args) -> int:
    video_id, config, labels = read_state_sequence(args.states)
    if args.num_switches is not None and args.num_switches != config.num_switches:
        config = SwitchConfig(args.num_switches)
    if args.streaming:
        instances = decode_streaming(labels, config)
    else:
        instances = decode_sequence(labels, config)
    write_instances(args.out, {video_id: instances})
    _write_manifest(
        args.out, "decode",
        {"num_switches": config.num_switches, "streaming": args.streaming},
        inputs=[args.states], outputs=[args.out],
    )
    return 0


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        alpha=args.alpha,
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        bptt_len=args.bptt_len,
        seed=args.seed,
        num_switches=args.num_switches,
        hidden_dim=args.hidden_dim,
    )


def _load_dataset(video_pairs) -> list:
    dataset = []
    for feat_path, inst_path in video_pairs:
        feats = read_features(feat_path)
        _, insts = _read_one_video(inst_path)
        dataset.append((feats, insts))
    return dataset


def cmd_train(args) -> int:
    config = _train_config(args)
    dataset = _load_dataset(args.video)
    params, history = train(dataset, config)
    save_checkpoint(args.out_checkpoint, params)
    if args.out_history:
        with open(args.out_history, "w") as fh:
            for stats in history:
                fh.write(json.dumps(stats.to_json(), sort_keys=True) + "\n")
    outputs = [args.out_checkpoint] + (
        [args.out_history] if args.out_history else []
    )
    _write_manifest(
        args.out_checkpoint, "train", vars(config).copy(),
        inputs=[p for pair in args.video for p in pair],
        outputs=outputs, seed=args.seed,
    )
    return 0


def cmd_infer(args) -> int:
    params = load_checkpoint(args.checkpoint)
    features = read_features(args.features)
    config = SwitchConfig(args.num_switches)
    instances = infer_instances(params, features, config)
    write_instances(args.out, {args.video_id: instances})
    _write_manifest(
        args.out, "infer",
        {"num_switches": args.num_switches, "video_id": args.video_id},
        inputs=[args.checkpoint, args.features], outputs=[args.out],
    )
    return 0


def cmd_eval_f1(args) -> int:
    preds = read_instances(args.preds)
    gts = read_instances(args.gts)
    report = f1_at_tiou(preds, gts, args.tiou)
    _write_report(args.out, report.to_json() | {"tiou": args.tiou})
    _write_manifest(
        args.out, "eval-f1", {"tiou": args.tiou},
        inputs=[args.preds, args.gts], outputs=[args.out],
    )
    return 0


def cmd_eval_map(args) -> int:
    preds = read_instances(args.preds)
    gts = read_instances(args.gts)
    thresholds = _floats(args.tious)
    report = interval_map(preds, gts, thresholds)
    _write_report(args.out, report.to_json())
    _write_manifest(
        args.out, "eval-map", {"tious": thresholds},
        inputs=[args.preds, args.gts], outputs=[args.out],
    )
    return 0


def cmd_eval_odas(args) -> int:
    preds = read_instances(args.preds)
    gts = read_instances(args.gts)
    seconds = _floats(args.offsets_seconds)
    offsets = [max(1, round(s * args.fps)) for s in seconds]
    report = point_map(preds, gts, offsets)
    _write_report(
        args.out,
        report.to_json() | {"fps": args.fps, "offsets_seconds": seconds},
    )
    _write_manifest(
        args.out, "eval-odas",
        {"fps": args.fps, "offsets_seconds": seconds, "offsets_frames": offsets},
        inputs=[args.preds, args.gts], outputs=[args.out],
    )
    return 0


def cmd_sweep(args) -> int:
    base = _train_config(args)
    seeds = tuple(range(args.seed, args.seed + args.num_seeds))
    synth = dict(
        arrival_rate=args.arrival_rate,
        duration_min=args.duration_min,
        duration_max=args.duration_max,
        max_concurrent=args.max_concurrent,
        num_classes=args.num_classes,
        feature_dim=args.feature_dim,
        noise_sigma=args.noise_sigma,
        signature_seed=args.seed * 1000 + 1,  # shared across train and eval
    )
    # Data seeds are a fixed function of the base seed so reruns reproduce.
    train_set = [
        generate_stream(
            SynthConfig(length=args.length, seed=args.seed * 1000 + 101 + i, **synth)
        )
        for i in range(args.train_videos)
    ]
    eval_set = [
        generate_stream(
            SynthConfig(length=args.eval_length, seed=args.seed * 1000 + 501 + i, **synth)
        )
        for i in range(args.eval_videos)
    ]
    rows = sweep_alpha(
        train_set,
        eval_set,
        alphas=_floats(args.alphas),
        switch_counts=_ints(args.switches),
        base=base,
        seeds=seeds,
        tiou_threshold=args.tiou,
        jobs=args.jobs,
    )
    Path(args.out).write_text(rows_to_csv(rows))
    _write_manifest(
        args.out, "sweep",
        {"alphas": _floats(args.alphas), "switches": _ints(args.switches),
         "seeds": list(seeds), "tiou": args.tiou, "length": args.length,
         "eval_length": args.eval_length, **synth},
        inputs=[], outputs=[args.out], seed=args.seed,
    )
    return 0


def _add_synth_flags(p, length_default=20000):
    p.add_argument("--length", type=int, default=length_default)
    p.add_argument("--arrival-rate", type=float, default=0.02)
    p.add_argument("--duration-min", type=int, default=20)
    p.add_argument("--duration-max", type=int, default=60)
    p.add_argument("--max-concurrent", type=int, default=2)
    p.add_argument("--num-classes", type=int, default=4)
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--noise-sigma", type=float, default=0.25)


def _add_train_flags(p):
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--bptt-len", type=int, default=128)
    p.add_argument("--num-switches", type=int, default=2)
    p.add_argument("--hidden-dim", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchdet",
        description="Class-agnostic online detection of overlapping action intervals.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic stream")
    _add_synth_flags(p)
    p.add_argument("--allow-overflow", action="store_true")
    p.add_argument("--signature-seed", type=int, default=None,
                   help="share class signatures across streams")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--video-id", default="synth")
    p.add_argument("--out-features", required=True)
    p.add_argument("--out-instances", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("encode", help="encode instances into state labels")
    p.add_argument("--instances", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--num-switches", type=int, required=True)
    p.add_argument("--policy", choices=["drop-newest", "strict"],
                   default="drop-newest")
    p.add_argument("--video-id", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode state labels into instances")
    p.add_argument("--states", required=True)
    p.add_argument("--num-switches", type=int, default=None)
    p.add_argument("--streaming", action="store_true",
                   help="process frame by frame (output must match batch)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("train", help="train the per-frame state scorer")
    p.add_argument("--video", nargs=2, metavar=("FEATURES", "INSTANCES"),
                   action="append", required=True)
    _add_train_flags(p)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-history", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="run a checkpoint over a feature stream")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--num-switches", type=int, required=True)
    p.add_argument("--video-id", default="video")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval-f1", help="matched F1 at one tIoU threshold")
    p.add_argument("--preds", required=True)
    p.add_argument("--gts", required=True)
    p.add_argument("--tiou", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_f1)

    p = sub.add_parser("eval-map", help="classwise interval mAP")
    p.add_argument("--preds", required=True)
    p.add_argument("--gts", required=True)
    p.add_argument("--tious", default="0.3,0.4,0.5,0.6,0.7")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_map)

    p = sub.add_parser("eval-odas", help="point-level AP of action starts")
    p.add_argument("--preds", required=True)
    p.add_argument("--gts", required=True)
    p.add_argument("--fps", type=float, required=True,
                   help="frames per second, converts second offsets to frames")
    p.add_argument("--offsets-seconds", default="1,2,3")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_odas)

    p = sub.add_parser("sweep", help="alpha / switch-count ablation sweep")
    p.add_argument("--alphas", default="0,0.01,0.025,0.05")
    p.add_argument("--switches", default="1,2")
    _add_train_flags(p)
    _add_synth_flags(p, length_default=8000)
    p.add_argument("--eval-length", type=int, default=4000)
    p.add_argument("--train-videos", type=int, default=2)
    p.add_argument("--eval-videos", type=int, default=1)
    p.add_argument("--num-seeds", type=int, default=3)
    p.add_argument("--tiou", type=float, default=0.5)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parsing never changes it, so calls share it."""
    return build_parser()


def main(argv=None) -> int:
    level = os.environ.get("ASW_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (SwitchDetError, OSError) as exc:
        print(f"switchdet: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
