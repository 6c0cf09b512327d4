"""Command-line pipelines: generate, encode, decode, train, infer, evaluate, sweep.

Each ``cmd_*`` writes its outputs and returns its resolved configuration;
``main`` then writes a manifest JSON next to the first output recording the
command, configuration, seed and the file flags (``type=_In`` or ``_Out``).
Reruns with an identical manifest produce byte-identical outputs.  Exit codes:
0 success, 1 usage error, 2 data error.  Log verbosity via ASW_LOG.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
import typing
from dataclasses import fields, replace
from pathlib import Path

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
    MAX_SWITCHES,
    SwitchConfig,
    decode_sequence,
    decode_streaming,
    encode_instances,
)
from .synthgen import SynthConfig, generate_stream, read_features, write_features
from .trainer import (
    TrainConfig,
    infer_instances,
    rows_to_csv,
    sweep_alpha,
    train,
)

log = logging.getLogger("switchdet")

# The default video id of gen's and infer's outputs and encode's state file.
_VIDEO_ID = "video"
# The TrainConfig fields each sweep cell sets; sweep has no flag for them.
_CELL_FIELDS = ("alpha", "num_switches")


class _In(str):
    """``type=`` of a flag that names an input file."""


class _Out(str):
    """``type=`` of a flag that names an output file."""


def _paths(value, kind) -> list[str]:
    """The paths of type ``kind`` in a flag value or a list of them, in order."""
    if isinstance(value, kind):
        return [str(value)]
    if isinstance(value, list):
        return [p for v in value for p in _paths(v, kind)]
    return []


def _write_manifest(args, config: dict) -> None:
    # Namespace attributes follow the order the flags were added in; an unset
    # optional output is None and is skipped, and --video pairs are flattened.
    values = list(vars(args).values())
    outputs = _paths(values, _Out)
    _write_report(outputs[0] + ".manifest.json", {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "inputs": _paths(values, _In),
        "outputs": outputs,
        "version": __version__,
    })


def _write_report(path, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _checked(kind, ok, rule: str, many: bool = False):
    """``type=`` of a flag: a ``kind`` value for which ``ok`` holds, or a non-empty
    comma-separated list of them if ``many``; anything else, ``nan`` included, is a
    usage error."""
    def number(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    def numbers(text):
        values = [number(v) for v in text.split(",") if v != ""]
        if not values:
            raise argparse.ArgumentTypeError(f"must list at least one value, got {text!r}")
        return values

    return numbers if many else number


_tiou = functools.partial(_checked, float, lambda v: 0 < v <= 1, "in (0, 1]")
_positive = functools.partial(_checked, float, lambda v: 0 < v < math.inf, "finite and > 0")
_count = _checked(int, lambda v: v >= 1, ">= 1")


def _config(cls, args):
    """A ``cls`` dataclass from the flags named like its fields, defaults for the rest."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)
                  if hasattr(args, f.name)})


def cmd_gen(args) -> dict:
    cfg = _config(SynthConfig, args)
    features, instances = generate_stream(cfg)
    write_features(args.out_features, features)
    write_instances(args.out_instances, {args.video_id: instances})
    log.info("generated %d frames, %d instances", cfg.length, len(instances))
    return vars(cfg) | {"video_id": args.video_id}


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


def cmd_encode(args) -> dict:
    video_id, instances = _read_one_video(args.instances, args.video_id)
    video_id = video_id or _VIDEO_ID
    config = SwitchConfig(args.num_switches)
    labels, report = encode_instances(instances, args.length, config, args.policy)
    write_state_sequence(args.out, video_id, config, labels)
    if args.report:
        _write_report(args.report, {
            "num_dropped": len(report.dropped_instances),
            "dropped": [
                {"start": i.start_frame, "end": i.end_frame}
                for i in report.dropped_instances
            ],
            "switch_assignment": {
                str(k): v for k, v in sorted(report.switch_assignment.items())
            },
            "merged_instances": report.merged_instances,
        })
    return {"length": args.length, "num_switches": args.num_switches,
            "policy": args.policy, "video_id": video_id}


def cmd_decode(args) -> dict:
    video_id, config, labels = read_state_sequence(args.states)
    if args.streaming:
        instances = decode_streaming(labels, config)
    else:
        instances = decode_sequence(labels, config)
    write_instances(args.out, {video_id: instances})
    return {"num_switches": config.num_switches, "streaming": args.streaming}


def cmd_train(args) -> dict:
    config = _config(TrainConfig, args)
    dataset = [(read_features(feats), _read_one_video(insts)[1])
               for feats, insts in args.video]
    params, history = train(dataset, config)
    save_checkpoint(args.out_checkpoint, params)
    if args.out_history:
        with open(args.out_history, "w") as fh:
            for stats in history:
                fh.write(json.dumps(stats.to_json(), sort_keys=True) + "\n")
    return vars(config)


def cmd_infer(args) -> dict:
    config = SwitchConfig(args.num_switches)
    params = load_checkpoint(args.checkpoint)
    features = read_features(args.features)
    instances = infer_instances(params, features, config)
    write_instances(args.out, {args.video_id: instances})
    return {"num_switches": args.num_switches, "video_id": args.video_id}


def cmd_eval_f1(args) -> dict:
    preds = read_instances(args.preds)
    gts = read_instances(args.gts)
    report = f1_at_tiou(preds, gts, args.tiou)
    _write_report(args.out, report.to_json() | {"tiou": args.tiou})
    return {"tiou": args.tiou}


def cmd_eval_map(args) -> dict:
    preds = read_instances(args.preds)
    gts = read_instances(args.gts)
    report = interval_map(preds, gts, args.tious)
    _write_report(args.out, report.to_json())
    return {"tious": args.tious}


def cmd_eval_odas(args) -> dict:
    preds = read_instances(args.preds)
    gts = read_instances(args.gts)
    try:
        offsets = [max(1, round(s * args.fps)) for s in args.offsets_seconds]
    except OverflowError:
        raise DomainError(
            f"offsets {args.offsets_seconds} s at {args.fps} fps overflow a frame count"
        ) from None
    report = point_map(preds, gts, offsets)
    config = {"fps": args.fps, "offsets_seconds": args.offsets_seconds}
    _write_report(args.out, report.to_json() | config)
    return config | {"offsets_frames": offsets}


def cmd_sweep(args) -> dict:
    base = _config(TrainConfig, args)
    # Class signatures are shared across the train and eval streams.
    synth = replace(_config(SynthConfig, args), signature_seed=args.seed * 1000 + 1)
    seeds = tuple(range(args.seed, args.seed + args.num_seeds))

    def configs(length, first_seed, count):
        # Data seeds are a fixed function of the base seed so reruns reproduce.
        return [replace(synth, length=length, seed=seed)
                for seed in range(first_seed, first_seed + count)]

    # Every stream's config is built, and so checked, before any is generated.
    train_cfgs = configs(args.length, args.seed * 1000 + 101, args.train_videos)
    eval_cfgs = configs(args.eval_length, args.seed * 1000 + 501, args.eval_videos)
    rows = sweep_alpha(
        [generate_stream(cfg) for cfg in train_cfgs],
        [generate_stream(cfg) for cfg in eval_cfgs],
        alphas=args.alphas,
        switch_counts=args.switches,
        base=base,
        seeds=seeds,
        tiou_threshold=args.tiou,
        jobs=args.jobs,
    )
    Path(args.out).write_text(rows_to_csv(rows))
    trained = {k: v for k, v in vars(base).items() if k not in _CELL_FIELDS}
    return vars(synth) | trained | {
        "alphas": args.alphas, "switches": args.switches, "seeds": list(seeds),
        "tiou": args.tiou, "eval_length": args.eval_length,
        "train_videos": args.train_videos, "eval_videos": args.eval_videos,
    }


# add_argument keywords of a config field's flag, by the field's type.
_FLAG_KINDS = {bool: {"action": "store_true"}, float: {"type": float},
               int: {"type": int}, int | None: {"type": int}}


def _add_config_flags(p, cls, skip=(), **defaults):
    """One ``--field-name`` flag per field of dataclass ``cls`` not in ``skip``,
    defaulting to ``defaults[name]`` if given, else to the field's default."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if f.name not in skip:
            p.add_argument("--" + f.name.replace("_", "-"), **_FLAG_KINDS[hints[f.name]],
                           default=defaults.get(f.name, f.default))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchdet",
        description="Class-agnostic online detection of overlapping action intervals.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        # Flags are spelled in full, so sweep's removed --alpha is not --alphas.
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    def evaluation(name, func, help):
        p = command(name, func, help)
        p.add_argument("--preds", type=_In, required=True)
        p.add_argument("--gts", type=_In, required=True)
        p.add_argument("--out", type=_Out, required=True)
        return p

    p = command("gen", cmd_gen, "generate a synthetic stream")
    _add_config_flags(p, SynthConfig, length=20000)
    p.add_argument("--video-id", default=_VIDEO_ID)
    p.add_argument("--out-features", type=_Out, required=True)
    p.add_argument("--out-instances", type=_Out, required=True)

    p = command("encode", cmd_encode, "encode instances into state labels")
    p.add_argument("--instances", type=_In, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--num-switches", type=int, required=True)
    p.add_argument("--policy", choices=["drop-newest", "strict"],
                   default="drop-newest")
    p.add_argument("--video-id", default=None)
    p.add_argument("--out", type=_Out, required=True)
    p.add_argument("--report", type=_Out, default=None)

    p = command("decode", cmd_decode, "decode state labels into instances")
    p.add_argument("--states", type=_In, required=True)
    p.add_argument("--streaming", action="store_true",
                   help="process frame by frame (output must match batch)")
    p.add_argument("--out", type=_Out, required=True)

    p = command("train", cmd_train, "train the per-frame state scorer")
    p.add_argument("--video", type=_In, nargs=2, metavar=("FEATURES", "INSTANCES"),
                   action="append", required=True)
    _add_config_flags(p, TrainConfig)
    p.add_argument("--out-checkpoint", type=_Out, required=True)
    p.add_argument("--out-history", type=_Out, default=None)

    p = command("infer", cmd_infer, "run a checkpoint over a feature stream")
    p.add_argument("--checkpoint", type=_In, required=True)
    p.add_argument("--features", type=_In, required=True)
    p.add_argument("--num-switches", type=int, required=True)
    p.add_argument("--video-id", default=_VIDEO_ID)
    p.add_argument("--out", type=_Out, required=True)

    p = evaluation("eval-f1", cmd_eval_f1, "matched F1 at one tIoU threshold")
    p.add_argument("--tiou", type=_tiou(), default=0.5)

    p = evaluation("eval-map", cmd_eval_map, "interval mAP")
    p.add_argument("--tious", type=_tiou(many=True), default="0.3,0.4,0.5,0.6,0.7")

    p = evaluation("eval-odas", cmd_eval_odas, "point-level AP of action starts")
    p.add_argument("--fps", type=_positive(), required=True,
                   help="frames per second, converts second offsets to frames")
    p.add_argument("--offsets-seconds", type=_positive(many=True), default="1,2,3")

    p = command("sweep", cmd_sweep, "alpha / switch-count ablation sweep")
    p.add_argument("--alphas", default="0,0.01,0.025,0.05", type=_checked(
        float, lambda v: 0 <= v < math.inf, "finite and >= 0", many=True))
    p.add_argument("--switches", default="1,2", type=_checked(
        int, lambda v: 1 <= v <= MAX_SWITCHES, f"in [1, {MAX_SWITCHES}]", many=True))
    _add_config_flags(p, TrainConfig, skip=_CELL_FIELDS)
    # Sweep's one --seed is TrainConfig's; it also derives the stream seeds.
    _add_config_flags(p, SynthConfig, skip=("seed", "signature_seed", "allow_overflow"),
                      length=8000)
    p.add_argument("--eval-length", type=int, default=4000)
    p.add_argument("--train-videos", type=_count, default=2)
    p.add_argument("--eval-videos", type=_count, default=1)
    p.add_argument("--num-seeds", type=_count, default=3)
    p.add_argument("--tiou", type=_tiou(), default=0.5)
    p.add_argument("--jobs", type=_count, default=1)
    p.add_argument("--out", type=_Out, required=True)
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
        _write_manifest(args, args.func(args))
    except (SwitchDetError, OSError) as exc:
        print(f"switchdet: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
