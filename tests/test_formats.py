import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchdet.exceptions import DomainError
from switchdet.formats import (
    instance_to_record,
    read_instances,
    read_state_sequence,
    write_instances,
    write_state_sequence,
)
from switchdet.scorer import init_params, load_checkpoint, save_checkpoint
from switchdet.switchboard import FRAME_LIMIT, ActionInterval, SwitchConfig
from switchdet.synthgen import read_features, write_features


def test_instances_round_trip(tmp_path):
    videos = {
        "a": [
            ActionInterval(0, 9, class_id=2, score=0.75),
            ActionInterval(4, 20, truncated=True),
        ],
        "b": [ActionInterval(3, 3)],
    }
    path = tmp_path / "inst.jsonl"
    write_instances(path, videos)
    back = read_instances(path)
    assert set(back) == {"a", "b"}
    assert [i.span for i in back["a"]] == [(0, 9), (4, 20)]
    assert back["a"][0].class_id == 2
    assert back["a"][0].score == 0.75
    assert back["a"][1].truncated
    assert back["b"][0].class_id is None


def test_instances_record_shape(tmp_path):
    path = tmp_path / "inst.jsonl"
    write_instances(path, {"v": [ActionInterval(1, 2)]})
    rec = json.loads(path.read_text().strip())
    assert rec == {
        "video_id": "v",
        "start": 1,
        "end": 2,
        "class_id": None,
        "score": None,
        "truncated": False,
    }


def test_instances_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json}\n")
    with pytest.raises(DomainError):
        read_instances(path)


def test_instances_missing_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"video_id": "v", "start": 3}\n')
    with pytest.raises(DomainError):
        read_instances(path)


def test_state_sequence_round_trip(tmp_path):
    path = tmp_path / "states.json"
    write_state_sequence(path, "vid", SwitchConfig(2), [0, 1, 3, 2, 0])
    video_id, config, labels = read_state_sequence(path)
    assert video_id == "vid"
    assert config.num_switches == 2
    assert labels.tolist() == [0, 1, 3, 2, 0]


def test_state_sequence_rejects_out_of_range(tmp_path):
    path = tmp_path / "states.json"
    path.write_text(json.dumps({"video_id": "v", "num_switches": 1, "labels": [0, 2]}))
    with pytest.raises(DomainError):
        read_state_sequence(path)


def test_state_sequence_rejects_malformed(tmp_path):
    path = tmp_path / "states.json"
    path.write_text("[]")
    with pytest.raises(DomainError):
        read_state_sequence(path)


@pytest.mark.parametrize(
    "fields",
    [
        {"video_id": 5},
        {"video_id": None},
        {"num_switches": 2.7},
        {"num_switches": 2.0},
        {"num_switches": True, "labels": [0, 1, 0]},
        {"num_switches": "2"},
        {"labels": [0, 1.9, 3, 0]},
        {"labels": [0, True, 3, 0]},
        {"labels": [0, "1", 3, 0]},
        {"labels": [[0, 1], [3, 0]]},
        {"labels": 3},
    ],
)
def test_state_sequence_rejects_wrong_json_types(tmp_path, fields):
    path = tmp_path / "states.json"
    obj = {"video_id": "v", "num_switches": 2, "labels": [0, 1, 3, 0]}
    path.write_text(json.dumps(obj | fields))
    with pytest.raises(DomainError):
        read_state_sequence(path)


@pytest.mark.parametrize("video_id, num_switches, labels, problem", [
    ("v", 2, [0.0, 1.9, 3.2], "labels must be a flat list of integers"),
    ("v", 2, np.array([0.0, 1.0]), "labels must be a flat list of integers"),
    ("v", 2, [0, True, 3], "labels must be a flat list of integers"),
    ("v", 2, np.array([True, False]), "labels must be a flat list of integers"),
    ("v", 2, [np.int64(1)], "labels must be a flat list of integers"),
    ("v", 2, np.zeros((2, 2), dtype=np.int64), "labels must be a flat list of integers"),
    ("v", 2, [0, 7, 9], "label out of range for config"),
    ("v", 2, np.array([0, -1]), "label out of range for config"),
    (5, 2, [0, 1], "video_id must be a string"),
    ("v", True, [0, 1], "num_switches must be an integer"),
    ("v", 2.0, [0, 1], "num_switches must be an integer"),
])
def test_state_writer_refuses_what_the_reader_rejects(tmp_path, video_id, num_switches,
                                                      labels, problem):
    path = tmp_path / "states.json"
    with pytest.raises(DomainError, match=problem):
        write_state_sequence(path, video_id, SwitchConfig(num_switches), labels)
    assert not path.exists()


@settings(max_examples=150, deadline=None)
@given(video_id=st.text() | st.sampled_from(['"', "\\", "\n", "é ", "\x00"]),
       num_switches=st.integers(1, 16), data=st.data())
def test_state_sequence_round_trips_any_valid_content(tmp_path_factory, video_id,
                                                      num_switches, data):
    config = SwitchConfig(num_switches)
    labels = data.draw(st.lists(st.integers(0, config.num_states - 1), max_size=40))
    path = tmp_path_factory.mktemp("states") / "states.json"
    write_state_sequence(path, video_id, config, labels)
    back_id, back_config, back_labels = read_state_sequence(path)
    assert (back_id, back_config) == (video_id, config)
    assert back_labels.dtype == np.int64 and back_labels.tolist() == labels


_label_values = st.one_of(
    st.integers(-2, 2**16 + 1), st.integers(), st.booleans(), st.floats(),
    st.none(), st.text(max_size=2), st.lists(st.integers(0, 3), max_size=2),
)
_label_arrays = st.builds(
    lambda values, dtype: np.array(values).astype(dtype),
    st.lists(st.integers(0, 2**16 + 1), max_size=20),
    st.sampled_from([np.int64, np.int32, np.uint8, np.uint64, bool, np.float64]),
)


@settings(max_examples=300, deadline=None)
@given(video_id=st.text(max_size=4) | st.integers() | st.floats() | st.none() | st.booleans(),
       num_switches=st.integers(-1, 17) | st.booleans() | st.floats(0, 17),
       labels=st.lists(_label_values, max_size=12) | _label_arrays)
def test_state_writer_raises_exactly_when_the_reader_rejects(tmp_path_factory, video_id,
                                                             num_switches, labels):
    # The reader's verdict on a file that holds the values as they are.
    values = labels.tolist() if isinstance(labels, np.ndarray) else labels
    d = tmp_path_factory.mktemp("verdict")
    direct, written = d / "direct.json", d / "written.json"
    obj = {"video_id": video_id, "num_switches": num_switches, "labels": values}
    direct.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    try:
        read_state_sequence(direct)
    except DomainError:
        readable = False
    else:
        readable = True
    try:
        write_state_sequence(written, video_id, SwitchConfig(num_switches), labels)
    except DomainError:
        assert not readable
        assert not written.exists()
    else:
        assert readable
        assert written.read_bytes() == direct.read_bytes()


def _read_one(tmp_path, **fields):
    rec = {"video_id": "v", "start": 3, "end": 9, "class_id": 1,
           "score": 0.5, "truncated": False}
    rec.update(fields)
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    return read_instances(path)


@pytest.mark.parametrize(
    "fields",
    [
        {"start": 3.7, "end": 9.9, "class_id": 1.5, "truncated": "false"},
        {"start": 3.0},
        {"end": 9.9},
        {"start": True},
        {"start": False, "end": True},
        {"start": "3"},
        {"class_id": 1.5},
        {"class_id": True},
        {"class_id": "1"},
        {"score": True},
        {"score": "0.5"},
        {"score": [0.5]},
        {"truncated": "false"},
        {"truncated": 0},
        {"truncated": None},
        {"video_id": 5},
        {"video_id": None},
        {"video_id": ["v"]},
    ],
)
def test_instances_reject_wrong_json_types(tmp_path, fields):
    with pytest.raises(DomainError):
        _read_one(tmp_path, **fields)


def test_instances_accept_exact_json_types(tmp_path):
    inst = _read_one(tmp_path, score=1, class_id=None)["v"][0]
    assert (inst.span, inst.class_id, inst.score) == ((3, 9), None, 1.0)
    assert type(inst.score) is float
    inst = _read_one(tmp_path, score=None, truncated=True)["v"][0]
    assert inst.score is None and inst.truncated is True


@pytest.mark.parametrize("line", ["[1, 2]", '"v"', "5", "null"])
def test_instances_reject_non_object_records(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(DomainError):
        read_instances(path)


GOOD_LINE = json.dumps(
    {"video_id": "v", "start": 3, "end": 9, "class_id": 1, "score": 0.5,
     "truncated": False}
)


@pytest.mark.parametrize(
    "bad, line_no",
    [
        (GOOD_LINE + " " + GOOD_LINE, 2),  # two JSON values on one line
        (GOOD_LINE + " xyz", 2),  # a record followed by trailing garbage
        (GOOD_LINE + ",", 2),
        ('{"video_id": "v", "start": 3}', 4),  # a bad record after good ones
        ('{"video_id": "v", "start": 9, "end": 3}', 4),  # inverted interval
        ("{not json}", 4),  # bad JSON after good ones
    ],
)
def test_instances_errors_name_their_line(tmp_path, bad, line_no):
    path = tmp_path / "bad.jsonl"
    good = [GOOD_LINE] * (line_no - 1)
    path.write_text("\n".join(good + [bad, GOOD_LINE]) + "\n")
    with pytest.raises(DomainError) as info:
        read_instances(path)
    assert f"{path}:{line_no}: " in str(info.value)


def test_instances_skip_whitespace_only_lines(tmp_path):
    path = tmp_path / "inst.jsonl"
    path.write_text(f"\n   \n{GOOD_LINE}\n\t \n  {GOOD_LINE}  \n\n")
    back = read_instances(path)
    assert [i.span for i in back["v"]] == [(3, 9), (3, 9)]


def test_instances_round_trip_every_field(tmp_path):
    # ActionInterval equality ignores class_id, score and truncated, so
    # those are compared field by field.
    rng = np.random.default_rng(3)
    videos = {}
    for video_id in ("a", "b", "c"):
        starts = rng.integers(0, 1000, size=40)
        videos[video_id] = [
            ActionInterval(
                int(s),
                int(s + rng.integers(0, 50)),
                class_id=None if rng.uniform() < 0.3 else int(rng.integers(0, 5)),
                score=None if rng.uniform() < 0.3 else float(rng.uniform()),
                truncated=bool(rng.uniform() < 0.5),
            )
            for s in starts
        ]
    path = tmp_path / "inst.jsonl"
    write_instances(path, videos)
    back = read_instances(path)
    assert set(back) == set(videos)
    for video_id, insts in videos.items():
        want = sorted(insts, key=lambda a: a.span)
        assert [_fields(a) for a in back[video_id]] == [_fields(a) for a in want]


def _fields(inst):
    return (inst.start_frame, inst.end_frame, inst.class_id, inst.score,
            inst.truncated)


# Records are checked column by column; the per-record reader that did it
# before is kept here as the reference for what is valid and for every
# message.


def reference_instance_from_record(rec):
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


def reference_read_instances(path):
    videos = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec, end = json.JSONDecoder().raw_decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
            except json.JSONDecodeError as exc:
                raise DomainError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
            try:
                video_id, inst = reference_instance_from_record(rec)
            except DomainError as exc:
                raise DomainError(f"{path}:{line_no}: {exc}") from exc
            videos.setdefault(video_id, []).append(inst)
    return videos


def _typed_fields(inst):
    return _fields(inst) + (type(inst.score),)


_frames = st.one_of(st.integers(0, 60), st.integers(0, FRAME_LIMIT - 1))
valid_records = st.builds(
    lambda video_id, start, length, optional: {
        "video_id": video_id, "start": start,
        "end": min(start + length, FRAME_LIMIT - 1), **optional},
    st.sampled_from(["a", "b", "", "video 7"]),
    _frames,
    st.integers(0, 30),
    st.fixed_dictionaries({}, optional={
        "class_id": st.none() | st.integers(-(2**63), 2**63 - 1),
        "score": st.none()
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.integers(-(10**30), 10**30),
        "truncated": st.booleans(),
    }),
)


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@settings(max_examples=150, deadline=None)
@given(records=st.lists(valid_records, max_size=25), blank=st.lists(st.booleans()))
def test_reader_equals_per_record_reference(tmp_path_factory, records, blank):
    path = tmp_path_factory.mktemp("valid") / "inst.jsonl"
    lines = []
    for rec, gap in zip(records, blank + [False] * len(records)):
        lines += ["  ", json.dumps(rec)] if gap else [json.dumps(rec)]
    _write_lines(path, lines)
    got, want = read_instances(path), reference_read_instances(path)
    assert list(got) == list(want)
    for video_id, insts in want.items():
        assert len(got[video_id]) == len(insts)
        assert [_typed_fields(a) for a in got[video_id]] == [_typed_fields(a) for a in insts]
        assert [_typed_fields(got[video_id][i]) for i in range(len(insts))] == [
            _typed_fields(a) for a in insts]


# Values that break exactly one of the reference's rules, field by field, and
# whole lines that are not one valid record.
_BAD_FIELDS = {
    "video_id": [5, None, ["v"], 1.5, True],
    "start": [3.7, 3.0, True, "3", None, -1, -(10**30), 9**40],
    "end": [9.9, False, "9", [9], 0, -5],
    "class_id": [1.5, True, "1", [1]],
    "score": [True, "0.5", [0.5], {}],
    "truncated": ["false", 0, None, 1.0],
}
_BAD_LINES = ["[1, 2]", '"v"', "5", "null", "{}", '{"video_id": "v", "start": 3}',
              '{"start": 1, "end": 2}', "{not json}", '{"video_id": "v"} x', "{} {}", "[", ","]
bad_lines = st.one_of(
    st.sampled_from(_BAD_LINES),
    st.builds(
        lambda rec, fields: json.dumps(rec | fields),
        valid_records,
        st.dictionaries(st.sampled_from(sorted(_BAD_FIELDS)), st.just(None), min_size=1)
        .flatmap(lambda keys: st.fixed_dictionaries(
            {k: st.sampled_from(_BAD_FIELDS[k]) for k in keys})),
    ),
)


@settings(max_examples=200, deadline=None)
@given(good=st.lists(valid_records, max_size=8), bad=st.lists(bad_lines, min_size=1, max_size=3),
       data=st.data())
def test_reader_raises_the_reference_message(tmp_path_factory, good, bad, data):
    lines = [json.dumps(rec) for rec in good]
    for line in bad:
        lines.insert(data.draw(st.integers(0, len(lines))), line)
    path = tmp_path_factory.mktemp("invalid") / "inst.jsonl"
    _write_lines(path, lines)
    try:
        reference_read_instances(path)
    except DomainError as exc:
        want = str(exc)
    else:  # e.g. an inverted "bad" end that lands after its start
        return
    with pytest.raises(DomainError) as info:
        read_instances(path)
    assert str(info.value) == want


@pytest.mark.parametrize(
    "fields, problem",
    [
        ({"end": 10**23}, "start and end must be below 2**62"),
        ({"start": FRAME_LIMIT, "end": FRAME_LIMIT}, "start and end must be below 2**62"),
        ({"class_id": 2**63}, "class_id must fit int64"),
        ({"class_id": -(2**63) - 1}, "class_id must fit int64"),
        ({"score": float("nan")}, "score must be finite"),
        ({"score": float("inf")}, "score must be finite"),
        ({"score": -float("inf")}, "score must be finite"),
        ({"score": 10**400}, "score must be finite"),
    ],
)
def test_reader_rejects_values_beyond_the_columns(tmp_path, fields, problem):
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [GOOD_LINE, json.dumps(json.loads(GOOD_LINE) | fields), GOOD_LINE])
    with pytest.raises(DomainError) as info:
        read_instances(path)
    message = str(info.value)
    assert message.startswith(f"{path}:2: bad instance record ")
    assert message.endswith(f": {problem}")


def test_reader_accepts_the_extreme_values(tmp_path):
    path = tmp_path / "edge.jsonl"
    rec = json.loads(GOOD_LINE) | {"start": 0, "end": FRAME_LIMIT - 1, "class_id": -(2**63),
                                   "score": 1.7976931348623157e308}
    _write_lines(path, [json.dumps(rec), json.dumps(rec | {"class_id": 2**63 - 1})])
    back = read_instances(path)["v"]
    assert back.spans.tolist() == [[0, FRAME_LIMIT - 1]] * 2
    assert back.class_ids.tolist() == [-(2**63), 2**63 - 1]
    assert [i.class_id for i in back] == [-(2**63), 2**63 - 1]


def test_reader_columns_are_read_only(tmp_path):
    path = tmp_path / "inst.jsonl"
    write_instances(path, {"v": [ActionInterval(3, 9, class_id=1, score=0.5)]})
    back = read_instances(path)["v"]
    with pytest.raises(ValueError):
        back.spans[0, 0] = 4
    assert back[-1].span == (3, 9)


def test_columns_index_as_their_list(tmp_path):
    path = tmp_path / "inst.jsonl"
    write_instances(path, {"v": [ActionInterval(0, 4, class_id=2),
                                 ActionInterval(3, 9, score=0.5, truncated=True)]})
    back = read_instances(path)["v"]
    listed = [_fields(inst) for inst in back]
    assert [_fields(back[i]) for i in range(-2, 2)] == listed + listed
    for index in (2, -3):
        with pytest.raises(IndexError):
            back[index]


@pytest.mark.parametrize("inst, problem", [
    (ActionInterval(0, 9, score=float("nan")), "score must be finite"),
    (ActionInterval(0, 9, score=-float("inf")), "score must be finite"),
    (ActionInterval(0, 9, score=10**400), "score must be finite"),
    (ActionInterval(0, FRAME_LIMIT), "start and end must be below 2**62"),
    (ActionInterval(0, 9, class_id=2**63), "class_id must fit int64"),
    # The reader's type rules: no bool, float or numpy frame, no bool class
    # id, no string score.
    (ActionInterval(True, True), "start and end must be integers"),
    (ActionInterval(1.0, 3), "start and end must be integers"),
    (ActionInterval(np.int64(1), np.int64(3)), "start and end must be integers"),
    (ActionInterval(0, 9, class_id=True), "class_id must be an integer or null"),
    (ActionInterval(0, 9, score="0.5"), "score must be a number or null"),
])
def test_writer_refuses_what_the_reader_rejects(tmp_path, inst, problem):
    path = tmp_path / "inst.jsonl"
    with pytest.raises(DomainError) as info:
        write_instances(path, {"a": [ActionInterval(1, 2)], "b": [ActionInterval(3, 4), inst]})
    assert str(info.value).startswith(f"{path}: bad instance record ")
    assert str(info.value).endswith(f": {problem}")
    assert not path.exists()



@pytest.mark.parametrize("videos", [
    {5: [ActionInterval(0, 1)]},
    {5: [ActionInterval(0, 1)], "v": [ActionInterval(0, 1)]},
    {"v": [ActionInterval(0, 1)], None: [ActionInterval(2, 3)], 5: [ActionInterval(0, 1)]},
], ids=["int", "int-and-str", "str-none-and-int"])
def test_writer_refuses_non_string_video_ids(tmp_path, videos):
    # Ids that do not sort together are refused as one non-string id is,
    # naming the first non-string id's record.
    path = tmp_path / "inst.jsonl"
    bad = next(v for v in videos if type(v) is not str)
    with pytest.raises(DomainError) as info:
        write_instances(path, videos)
    assert str(info.value) == (f"{path}: bad instance record "
                               f"{instance_to_record(bad, videos[bad][0])!r}: "
                               "video_id must be a string")
    assert not path.exists()

writable_intervals = st.builds(
    lambda start, length, class_id, score, truncated: ActionInterval(
        start, start + length, class_id, score, truncated),
    st.one_of(st.integers(0, 60), st.integers(0, 2**63)),
    st.integers(0, 30),
    st.none() | st.integers(-(2**64), 2**64),
    st.none() | st.floats() | st.integers(-(10**400), 10**400),
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(videos=st.dictionaries(st.sampled_from(["a", "b", ""]) | st.text(max_size=4),
                              st.lists(writable_intervals, max_size=6), max_size=3))
def test_reader_reads_back_whatever_the_writer_accepts(tmp_path_factory, videos):
    path = tmp_path_factory.mktemp("written") / "inst.jsonl"
    try:
        write_instances(path, videos)
    except DomainError:
        assert not path.exists()
        return
    back = read_instances(path)
    # The reader holds every score as a float.
    want = {v: [_fields(a)[:3] + (None if a.score is None else float(a.score), a.truncated)
                for a in sorted(insts, key=lambda a: a.span)]
            for v, insts in videos.items() if insts}
    assert {v: [_fields(a) for a in cols] for v, cols in back.items()} == want


# Each binary format by its name in errors: a writer of a valid file, the
# reader, and the size of one body value.
BINARY_FORMATS = {
    "feature": (lambda path: write_features(path, np.ones((3, 2))), read_features, 4),
    "checkpoint": (lambda path: save_checkpoint(path, init_params(5, 4, 8, seed=9)),
                   load_checkpoint, 8),
}


@pytest.mark.parametrize("edit, problem", [
    (lambda raw, size: b"ASWX" + raw[4:], "not a {kind} file"),
    (lambda raw, size: raw[:19], "not a {kind} file"),
    (lambda raw, size: raw[:4] + (2).to_bytes(4, "little") + raw[8:],
     "unsupported {kind} version 2"),
    (lambda raw, size: raw[:-size], "truncated {kind} file"),
    (lambda raw, size: raw + bytes(size), "trailing bytes in {kind} file"),
], ids=["magic", "short-header", "version", "short-body", "long-body"])
@pytest.mark.parametrize("kind", BINARY_FORMATS)
def test_binary_container_refuses_bad_files(tmp_path, kind, edit, problem):
    write, read, size = BINARY_FORMATS[kind]
    path = tmp_path / "file.bin"
    write(path)
    path.write_bytes(edit(path.read_bytes(), size))
    message = f"{path}: {problem.format(kind=kind)}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        read(path)
