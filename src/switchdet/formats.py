"""On-disk formats: instance JSON Lines, state-sequence JSON and the binary
container of feature files and checkpoints.

Instance records are one JSON object per line, read as IntervalColumns:
  {"video_id": str, "start": int, "end": int,
   "class_id": int|null, "score": number|null, "truncated": bool}

State sequences are a single JSON object:
  {"video_id": str, "num_switches": int, "labels": [int, ...]}

A binary file is a 4-byte magic, a u32 version 1, the format's header
fields, then exactly the body they imply, all little-endian.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
import struct
from collections.abc import Sequence
from itertools import compress, count, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import NoneType

import numpy as np

from .exceptions import DomainError
from .switchboard import FRAME_LIMIT, ActionInterval, SwitchConfig

# The C scanner behind JSONDecoder.raw_decode: decodes one value and returns
# where it ended.  json.loads would also skip whitespace around it with two
# regex matches per line, and raw_decode adds a Python call per line.
_scan_once = json.JSONDecoder().scan_once


def _nullable(values, dtype, fill) -> tuple[np.ndarray, np.ndarray]:
    """A column of ints or floats that may hold None, and its null mask; a
    null's place holds ``fill``."""
    if None not in values:
        return np.array(values, dtype=dtype), np.zeros(len(values), dtype=bool)
    return (np.array([fill if v is None else v for v in values], dtype=dtype),
            np.array([v is None for v in values], dtype=bool))


class IntervalColumns(Sequence):
    """Read-only columns of one video's intervals; items are ActionIntervals.

    ``spans`` is an (n, 2) int64 array of inclusive [start, end] frames.  A
    classless interval has ``classless`` set and a placeholder class id of 0,
    since a class id may be any int64; a scoreless one has ``scoreless`` set
    and a NaN score.
    """

    __slots__ = ("spans", "class_ids", "classless", "scores", "scoreless", "truncated")

    def __init__(self, spans, class_ids, classless, scores, scoreless, truncated):
        columns = (spans, class_ids, classless, scores, scoreless, truncated)
        for name, column in zip(self.__slots__, columns):
            column.flags.writeable = False
            setattr(self, name, column)

    @classmethod
    def from_fields(cls, start, end, class_id, score, truncated) -> IntervalColumns:
        """Columns of checked record fields, one sequence each; None marks a
        missing class or score."""
        return cls(
            np.stack([np.array(start, dtype=np.int64), np.array(end, dtype=np.int64)], axis=1),
            *_nullable(class_id, np.int64, 0),
            *_nullable(score, np.float64, math.nan),
            np.array(truncated, dtype=bool),
        )

    def select(self, rows) -> IntervalColumns:
        """The intervals at ``rows``, a slice or an index array."""
        return IntervalColumns(*(getattr(self, name)[rows] for name in self.__slots__))

    def __len__(self) -> int:
        return len(self.spans)

    def __getitem__(self, index: int) -> ActionInterval:
        (interval,) = self.select([index])
        return interval

    def __iter__(self):
        # An object array's tolist gives Python ints and floats, and the Nones.
        class_ids = np.where(self.classless, None, self.class_ids).tolist()
        scores = np.where(self.scoreless, None, self.scores).tolist()
        return map(ActionInterval, *self.spans.T.tolist(), class_ids, scores,
                   self.truncated.tolist())


def instance_to_record(video_id: str, inst: ActionInterval) -> dict:
    return {"video_id": video_id, "start": inst.start_frame, "end": inst.end_frame,
            "class_id": inst.class_id, "score": inst.score, "truncated": inst.truncated}


# One instance line, in instance_to_record's key order and with json.dumps'
# separators: the video id as encode_basestring_ascii writes it, the other
# fields as _json_texts does.
_LINE = ('{"video_id": %s, "start": %s, "end": %s, "class_id": %s, "score": %s, '
         '"truncated": %s}\n')
# The repr of each JSON constant, and how JSON writes it.
_JSON_WORDS = {"None": "null", "True": "true", "False": "false"}
_SPAN = operator.attrgetter("start_frame", "end_frame")


def _json_texts(values):
    """How json.dumps writes each of ``values``: None, a bool, an int or a
    finite float, each of its exact type."""
    texts = list(map(repr, values))
    return map(_JSON_WORDS.get, texts, texts)


def write_instances(path, videos: dict[str, list[ActionInterval]]) -> None:
    """Write per-video instance lists as JSON Lines, sorted for reproducibility.

    A record that read_instances would reject (_RULES: a bool, float or
    numpy frame, a bool class id, a string score, a NaN score, ...) is a
    DomainError raised before the file is opened.  Lines are formatted from
    the checked columns: the rules let through only values of exact JSON
    types, so each line is ``json.dumps(record) + "\\n"`` byte for byte.
    """
    # Only string ids sort together.  The records of any other id break the
    # first rule, so they go first, and the first of them is the one reported.
    ids = [v for v in videos if type(v) is not str] + sorted(
        v for v in videos if type(v) is str)
    records = [instance_to_record(video_id, inst) for video_id in ids
               for inst in sorted(videos[video_id], key=_SPAN)]
    video_ids, columns = _check_records(records, lambda row: path)
    quoted = {v: encode_basestring_ascii(v) for v in dict.fromkeys(video_ids)}
    fields = [_json_texts(columns[name])
              for name in ("start", "end", "class_id", "score", "truncated")]
    lines = list(map(_LINE.__mod__, zip(map(quoted.__getitem__, video_ids), *fields)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def read_instances(path) -> dict[str, IntervalColumns]:
    """Per-video interval columns of a JSON Lines file; blank lines are skipped.

    Each line must hold exactly one JSON value, a valid record; any error
    names the file and line.  Records are decoded one line at a time and then
    checked one column at a time.
    """
    # Line numbers are needed only for an error message: a blank line
    # records the row that follows it, so a row's line is found by bisection.
    recs, blank_before = [], []

    def where(row):
        return f"{path}:{row + 1 + bisect.bisect_right(blank_before, row)}"

    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                blank_before.append(len(recs))
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


_REQUIRED_FIELDS = ("video_id", "start", "end")
_OPTIONAL_FIELDS = (("class_id", None), ("score", None), ("truncated", False))
_REQUIRED = operator.itemgetter(*_REQUIRED_FIELDS)


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

    ``columns`` maps each field to its values of ``recs[:first]``.  Each rule
    holds for whole columns, and runs over the rows before the first failure
    found so far; only when it fails is it run row by row.  The message is
    thus that of the first bad record, with the first rule it breaks.
    """
    for fields, ok, message in _RULES:
        values = [columns[field] for field in fields]
        if first < len(values[0]):
            values = [column[:first] for column in values]
        if not ok(*values):
            first = next(row for row, row_values in enumerate(zip(*values))
                         if not ok(*([v] for v in row_values)))
            problem = message(recs[first])
    return first, problem


def _columns(recs):
    """Each field's column of records that hold every required field, in one
    C-level pass per field; an absent optional field takes its default."""
    columns = {field: list(map(operator.itemgetter(field), recs)) for field in _REQUIRED_FIELDS}
    for field, default in _OPTIONAL_FIELDS:
        columns[field] = list(map(dict.get, recs, repeat(field), repeat(default)))
    return columns


def _check_records(recs, where):
    """Video ids and the other field columns of decoded records, in order.

    A float frame (3.7), a bool frame (true), a string flag ("false") or a
    numeric video id is a DomainError; frames must lie in [0, FRAME_LIMIT),
    class ids must fit int64 and scores must be finite (_RULES).  The error
    of the first invalid record starts with ``where(its row)``.
    """
    first, problem = len(recs), None
    try:
        columns = _columns(recs)
    except (KeyError, TypeError):  # a record lacks a required field or is no object
        first = next(compress(count(), map(_lookup_error, recs)))
        problem = f"bad instance record {recs[first]!r}: {_lookup_error(recs[first])}"
        columns = _columns(recs[:first])
    first, problem = _first_broken_rule(recs, columns, first, problem)
    if problem:
        raise DomainError(f"{where(first)}: {problem}")
    return columns.pop("video_id"), columns


def _split_videos(video_ids, columns: IntervalColumns) -> dict[str, IntervalColumns]:
    """The rows of each video, in order of first appearance; the columns of
    a file with one video are returned as they are."""
    codes = dict(zip(dict.fromkeys(video_ids), count()))
    if len(codes) <= 1:
        return dict.fromkeys(codes, columns)
    video = np.fromiter(map(codes.__getitem__, video_ids), dtype=np.intp, count=len(video_ids))
    order = np.argsort(video, kind="stable")
    cuts = np.cumsum(np.bincount(video))[:-1]
    return {
        video_id: columns.select(rows)
        for video_id, rows in zip(codes, np.split(order, cuts))
    }


def write_state_sequence(path, video_id: str, config: SwitchConfig, labels) -> None:
    """Write a state sequence; ``labels`` is a flat sequence or array of ints.

    What read_state_sequence would reject (a numeric video id, a float or bool
    label, a label out of range for ``config``) is a DomainError raised before
    the file is opened.  Nothing is coerced.
    """
    labels = labels.tolist() if isinstance(labels, np.ndarray) else list(labels)
    _check_state_fields(path, video_id, config.num_switches, labels)
    obj = {"video_id": video_id, "num_switches": config.num_switches, "labels": labels}
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
    config = _check_state_fields(path, video_id, num_switches, labels)
    return video_id, config, np.asarray(labels, dtype=np.int64)


def _check_state_fields(path, video_id, num_switches, labels) -> SwitchConfig:
    """The config of a state sequence's fields, if read_state_sequence
    accepts them; else a DomainError that names ``path``."""
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
    return config


BINARY_VERSION = 1


def write_binary(path, magic: bytes, header: str, fields, blocks, dtype) -> None:
    """``magic``, the u32 version, ``fields`` packed by the struct format
    ``header``, then ``blocks`` as ``dtype``, each written before the next is
    asked for; all little-endian.  The header is packed before the file is
    opened, so fields it cannot hold leave no file."""
    head = magic + struct.pack("<I" + header, BINARY_VERSION, *fields)
    with open(path, "wb") as fh:
        fh.write(head)
        for block in blocks:
            fh.write(memoryview(np.ascontiguousarray(block, dtype=dtype)).cast("B"))


def read_binary(path, magic: bytes, kind: str, header: str, count, dtype) -> tuple:
    """(header fields, body as float64) of a write_binary file whose body is
    ``count(*fields)`` values; else a DomainError that calls it a ``kind`` file."""
    data = Path(path).read_bytes()
    start = len(magic) + struct.calcsize("<I" + header)
    if len(data) < start or data[: len(magic)] != magic:
        raise DomainError(f"{path}: not a {kind} file")
    version, *fields = struct.unpack_from("<I" + header, data, len(magic))
    if version != BINARY_VERSION:
        raise DomainError(f"{path}: unsupported {kind} version {version}")
    n = count(*fields)
    missing = n * np.dtype(dtype).itemsize - (len(data) - start)
    if missing:
        problem = "truncated" if missing > 0 else "trailing bytes in"
        raise DomainError(f"{path}: {problem} {kind} file")
    return fields, np.frombuffer(data, dtype=dtype, count=n, offset=start).astype(np.float64)
