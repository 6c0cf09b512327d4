import json

import numpy as np
import pytest

from switchdet.exceptions import DomainError
from switchdet.formats import (
    read_instances,
    read_state_sequence,
    write_instances,
    write_state_sequence,
)
from switchdet.switchboard import ActionInterval, SwitchConfig


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
