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

# Decodes one value and returns where it ended; json.loads would also skip
# whitespace around it with two regex matches per line.
_raw_decode = json.JSONDecoder().raw_decode


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
    if type(score) is int:
        score = float(score)
    return video_id, ActionInterval(start, end, class_id, score, truncated)


def write_instances(path, videos: dict[str, list[ActionInterval]]) -> None:
    """Write per-video instance lists as JSON Lines, sorted for reproducibility."""
    with open(path, "w", encoding="utf-8") as fh:
        for video_id in sorted(videos):
            for inst in sorted(videos[video_id], key=lambda a: a.span):
                fh.write(json.dumps(instance_to_record(video_id, inst)) + "\n")


def read_instances(path) -> dict[str, list[ActionInterval]]:
    """Per-video instance lists of a JSON Lines file; blank lines are skipped.

    Each line must hold exactly one JSON value, a valid record; any error
    names the file and line.
    """
    videos: dict[str, list[ActionInterval]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec, end = _raw_decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
            except json.JSONDecodeError as exc:
                raise DomainError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
            try:
                video_id, inst = instance_from_record(rec)
            except DomainError as exc:
                raise DomainError(f"{path}:{line_no}: {exc}") from exc
            insts = videos.get(video_id)
            if insts is None:
                insts = videos[video_id] = []
            insts.append(inst)
    return videos


def write_state_sequence(path, video_id: str, config: SwitchConfig, labels) -> None:
    obj = {
        "video_id": video_id,
        "num_switches": config.num_switches,
        "labels": [int(v) for v in np.asarray(labels)],
    }
    Path(path).write_text(json.dumps(obj) + "\n", encoding="utf-8")


def read_state_sequence(path) -> tuple[str, SwitchConfig, np.ndarray]:
    """Parse a state-sequence file; as for instance records, nothing is coerced.

    A numeric video id, a float or bool switch count (2.7, true), or labels
    that are not a flat list of integers (1.9, true, nested lists) are a
    DomainError.
    """
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        video_id, num_switches, labels = obj["video_id"], obj["num_switches"], obj["labels"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"bad state-sequence file {path}: {exc}") from exc
    if type(video_id) is not str:
        problem = "video_id must be a string"
    elif type(num_switches) is not int:
        problem = "num_switches must be an integer"
    elif type(labels) is not list or not set(map(type, labels)) <= {int}:
        problem = "labels must be a flat list of integers"
    else:
        problem = None
    if problem:
        raise DomainError(f"bad state-sequence file {path}: {problem}")
    config = SwitchConfig(num_switches)
    # Checked before the int64 conversion, which a huge label would overflow.
    if labels and (min(labels) < 0 or max(labels) >= config.num_states):
        raise DomainError(f"{path}: label out of range for config")
    return video_id, config, np.asarray(labels, dtype=np.int64)
