"""On-disk formats: instance JSON Lines and state-sequence JSON.

Instance records are one JSON object per line:
  {"video_id": str, "start": int, "end": int,
   "class_id": int|null, "score": number|null, "truncated": bool}

State sequences are a single JSON object:
  {"video_id": str, "num_switches": int, "labels": [int, ...]}
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .exceptions import DomainError
from .switchboard import ActionInterval, SwitchConfig


def instance_to_record(video_id: str, inst: ActionInterval) -> dict:
    return {
        "video_id": video_id,
        "start": inst.start_frame,
        "end": inst.end_frame,
        "class_id": inst.class_id,
        "score": inst.score,
        "truncated": inst.truncated,
    }


def instance_from_record(rec: dict) -> tuple[str, ActionInterval]:
    """Parse one record; every field must already have its JSON type.

    Nothing is coerced: a float frame (3.7), a bool frame (true), a string
    flag ("false") or a numeric video id is a DomainError.  ``type(v) is``
    checks keep bools out of the integer and number fields.
    """
    try:
        video_id, start, end = rec["video_id"], rec["start"], rec["end"]
        class_id = rec.get("class_id")
        score = rec.get("score")
        truncated = rec.get("truncated", False)
    except (KeyError, TypeError) as exc:
        raise DomainError(f"bad instance record {rec!r}: {exc}") from exc
    if type(video_id) is not str:
        problem = "video_id must be a string"
    elif type(start) is not int or type(end) is not int:
        problem = "start and end must be integers"
    elif class_id is not None and type(class_id) is not int:
        problem = "class_id must be an integer or null"
    elif score is not None and type(score) is not float and type(score) is not int:
        problem = "score must be a number or null"
    elif type(truncated) is not bool:
        problem = "truncated must be true or false"
    else:
        problem = None
    if problem:
        raise DomainError(f"bad instance record {rec!r}: {problem}")
    return video_id, ActionInterval(
        start_frame=start,
        end_frame=end,
        class_id=class_id,
        score=None if score is None else float(score),
        truncated=truncated,
    )


def write_instances(path, videos: dict[str, list[ActionInterval]]) -> None:
    """Write per-video instance lists as JSON Lines, sorted for reproducibility."""
    with open(path, "w", encoding="utf-8") as fh:
        for video_id in sorted(videos):
            for inst in sorted(videos[video_id], key=lambda a: a.span):
                fh.write(json.dumps(instance_to_record(video_id, inst)) + "\n")


def read_instances(path) -> dict[str, list[ActionInterval]]:
    videos: dict[str, list[ActionInterval]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DomainError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
            video_id, inst = instance_from_record(rec)
            videos.setdefault(video_id, []).append(inst)
    return videos


def write_state_sequence(path, video_id: str, config: SwitchConfig, labels) -> None:
    obj = {
        "video_id": video_id,
        "num_switches": config.num_switches,
        "labels": [int(v) for v in np.asarray(labels)],
    }
    Path(path).write_text(json.dumps(obj) + "\n", encoding="utf-8")


def read_state_sequence(path) -> tuple[str, SwitchConfig, np.ndarray]:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        video_id = obj["video_id"]
        config = SwitchConfig(int(obj["num_switches"]))
        labels = np.asarray(obj["labels"], dtype=np.int64)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"bad state-sequence file {path}: {exc}") from exc
    if labels.size and (labels.min() < 0 or labels.max() >= config.num_states):
        raise DomainError(f"{path}: label out of range for config")
    return video_id, config, labels
