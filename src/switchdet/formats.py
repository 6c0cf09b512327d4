"""On-disk formats: instance JSON Lines and state-sequence JSON.

Instance records are one JSON object per line:
  {"video_id": str, "start": int, "end": int,
   "class_id": int|null, "score": number|null, "truncated": bool}

State sequences are a single JSON object:
  {"video_id": str, "num_switches": int, "labels": [int, ...]}
"""

from __future__ import annotations

import json
import math
import operator
from itertools import compress, count
from pathlib import Path
from types import NoneType

import numpy as np

from .exceptions import DomainError
from .switchboard import FRAME_LIMIT, ActionInterval, IntervalColumns, SwitchConfig

# The C scanner behind JSONDecoder.raw_decode: decodes one value and returns
# where it ended.  json.loads would also skip whitespace around it with two
# regex matches per line, and raw_decode adds a Python call per line.
_scan_once = json.JSONDecoder().scan_once


def instance_to_record(video_id: str, inst: ActionInterval) -> dict:
    return {
        "video_id": video_id,
        "start": inst.start_frame,
        "end": inst.end_frame,
        "class_id": inst.class_id,
        "score": inst.score,
        "truncated": inst.truncated,
    }


def write_instances(path, videos: dict[str, list[ActionInterval]]) -> None:
    """Write per-video instance lists as JSON Lines, sorted for reproducibility.

    A record that read_instances would reject (_RULES: a bool, float or
    numpy frame, a bool class id, a string score, a NaN score, ...) is a
    DomainError raised before the file is opened.
    """
    # Only string ids sort together.  The records of any other id break the
    # first rule, so they go first, and the first of them is the one reported.
    ids = [v for v in videos if type(v) is not str] + sorted(
        v for v in videos if type(v) is str)
    records = [instance_to_record(video_id, inst) for video_id in ids
               for inst in sorted(videos[video_id], key=lambda a: a.span)]
    _check_records(records, lambda row: path)
    lines = [json.dumps(rec) + "\n" for rec in records]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def read_instances(path) -> dict[str, IntervalColumns]:
    """Per-video interval columns of a JSON Lines file; blank lines are skipped.

    Each line must hold exactly one JSON value, a valid record; any error
    names the file and line.  Records are decoded one line at a time and then
    checked one column at a time.
    """
    recs, line_nos = [], []

    def where(row):
        return f"{path}:{line_nos[row]}"

    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                try:
                    rec, end = _scan_once(line, 0)
                except StopIteration as stop:  # as raw_decode reports it
                    raise json.JSONDecodeError("Expecting value", line, stop.value) from None
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
            except json.JSONDecodeError as exc:
                # A bad record on an earlier line is reported first.
                _check_records(recs, where)
                raise DomainError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
            recs.append(rec)
            line_nos.append(line_no)
    video_ids, fields = _check_records(recs, where)
    return _split_videos(video_ids, IntervalColumns.from_fields(**fields))


def interval_columns(video_id, intervals) -> IntervalColumns:
    """Columns of one video's ActionIntervals, under read_instances' rules.

    An interval that an instance record could not hold (a float, bool or
    numpy frame, a bool class id, a string or NaN score, ...) is a
    DomainError that names the video.
    """
    records = [instance_to_record(video_id, inst) for inst in intervals]
    _, fields = _check_records(records, lambda row: f"video {video_id}")
    return IntervalColumns.from_fields(**fields)


_REQUIRED = operator.itemgetter("video_id", "start", "end")


def _lookup_error(rec) -> str | None:
    try:
        _REQUIRED(rec)
    except (KeyError, TypeError) as exc:
        return str(exc)
    return None


def _types(*allowed):
    """Column rule: every value has one of the allowed exact types."""
    allowed = set(allowed)
    return lambda *columns: all(set(map(type, c)) <= allowed for c in columns)


def _bad(text):
    return lambda rec: f"bad instance record {rec!r}: {text}"


# filter(None, ...) skips null values, and zeros, which pass both rules.
def fits_int64(values) -> bool:
    """Whether every non-null integer fits int64, as class ids must."""
    return (min(filter(None, values), default=0) >= -(2**63)
            and max(filter(None, values), default=0) < 2**63)


def all_finite(values) -> bool:
    """Whether every non-null number is finite as a float, as scores must be."""
    try:
        return all(map(math.isfinite, filter(None, values)))
    except OverflowError:  # an integer beyond float
        return False


# The rules on instance records, in the order they are checked: (fields, test
# of whole columns, message for the first record that breaks it).  Nothing is
# coerced: ``type(v) is`` tests keep bools out of the integer and number
# fields, so the later rules see only values of their JSON types.  The last
# three hold values that JSON holds but the columns cannot; ends suffice for
# frames, since a start lies in [0, end].
_RULES = (
    (("video_id",), _types(str), _bad("video_id must be a string")),
    (("start", "end"), _types(int), _bad("start and end must be integers")),
    (("class_id",), _types(NoneType, int), _bad("class_id must be an integer or null")),
    (("score",), _types(NoneType, float, int), _bad("score must be a number or null")),
    (("truncated",), _types(bool), _bad("truncated must be true or false")),
    # ActionInterval's own rules, with its messages.
    (("start",), lambda s: min(s, default=0) >= 0,
     lambda rec: f"negative start frame {rec['start']}"),
    (("start", "end"), lambda s, e: not any(map(operator.gt, s, e)),
     lambda rec: f"inverted interval [{rec['start']}, {rec['end']}]"),
    (("end",), lambda ends: max(ends, default=0) < FRAME_LIMIT,
     _bad("start and end must be below 2**62")),
    (("class_id",), fits_int64, _bad("class_id must fit int64")),
    (("score",), all_finite, _bad("score must be finite")),
)


def _first_broken_rule(recs, columns, first, problem):
    """(row, message) of the first of ``recs[:first]`` that breaks a rule,
    else (first, problem).

    ``columns`` maps each field to its values in record order.  Each rule
    holds for whole columns, and runs over the rows before the first failure
    found so far; only when it fails is it run row by row.  The message is
    thus that of the first bad record, with the first rule it breaks.
    """
    for fields, ok, message in _RULES:
        values = [columns[field][:first] for field in fields]
        if not ok(*values):
            first = next(row for row, row_values in enumerate(zip(*values))
                         if not ok(*([v] for v in row_values)))
            problem = message(recs[first])
    return first, problem


def _check_records(recs, where):
    """Video ids and the other field columns of decoded records, in order.

    A float frame (3.7), a bool frame (true), a string flag ("false") or a
    numeric video id is a DomainError; frames must lie in [0, FRAME_LIMIT),
    class ids must fit int64 and scores must be finite (_RULES).  The error
    of the first invalid record starts with ``where(its row)``.
    """
    first, problem = len(recs), None
    try:
        required = list(map(_REQUIRED, recs))
    except (KeyError, TypeError):
        first = next(compress(count(), map(_lookup_error, recs)))
        problem = f"bad instance record {recs[first]!r}: {_lookup_error(recs[first])}"
        required = list(map(_REQUIRED, recs[:first]))
    rows = recs[:first]
    video_ids, starts, ends = zip(*required) if required else ((), (), ())
    columns = {
        "video_id": video_ids, "start": starts, "end": ends,
        "class_id": [r.get("class_id") for r in rows],
        "score": [r.get("score") for r in rows],
        "truncated": [r.get("truncated", False) for r in rows],
    }
    first, problem = _first_broken_rule(recs, columns, first, problem)
    if problem:
        raise DomainError(f"{where(first)}: {problem}")
    return columns.pop("video_id"), columns


def _split_videos(video_ids, columns: IntervalColumns) -> dict[str, IntervalColumns]:
    """The rows of each video, in order of first appearance."""
    codes: dict[str, int] = {}
    video = np.array([codes.setdefault(v, len(codes)) for v in video_ids], dtype=np.intp)
    order = np.argsort(video, kind="stable")
    cuts = np.cumsum(np.bincount(video))[:-1]
    return {
        video_id: columns.select(rows)
        for video_id, rows in zip(codes, np.split(order, cuts))
    }


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
