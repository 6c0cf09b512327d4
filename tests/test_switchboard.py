import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from switchdet.exceptions import CapacityError, DomainError, ProtocolError
from switchdet.switchboard import (
    ActionInterval,
    StreamDecoder,
    SwitchConfig,
    decode_sequence,
    decode_streaming,
    encode_instances,
)

from conftest import random_clean_instances, spans


class TestSwitchConfig:
    def test_num_states(self):
        assert SwitchConfig(1).num_states == 2
        assert SwitchConfig(4).num_states == 16

    @pytest.mark.parametrize("k", [0, -1, 17])
    def test_rejects_bad_switch_count(self, k):
        with pytest.raises(DomainError):
            SwitchConfig(k)


class TestActionInterval:
    def test_rejects_inverted(self):
        with pytest.raises(DomainError):
            ActionInterval(5, 4)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            ActionInterval(-1, 4)

    def test_single_frame_legal(self):
        assert ActionInterval(3, 3).num_frames == 1


class TestEncode:
    def test_two_overlapping(self):
        labels, report = encode_instances(
            [ActionInterval(1, 4), ActionInterval(3, 7)], 9, SwitchConfig(2)
        )
        assert labels.tolist() == [0, 1, 1, 3, 3, 2, 2, 2, 0]
        assert report.dropped_instances == []
        assert report.switch_assignment == {0: 1, 1: 2}

    def test_empty(self):
        labels, report = encode_instances([], 5, SwitchConfig(2))
        assert labels.tolist() == [0, 0, 0, 0, 0]
        assert report.switch_assignment == {}

    def test_drop_newest_on_overflow(self):
        instances = [
            ActionInterval(0, 9),
            ActionInterval(1, 8),
            ActionInterval(2, 7),
        ]
        labels, report = encode_instances(instances, 10, SwitchConfig(2))
        assert report.dropped_instances == [instances[2]]
        assert spans(decode_sequence(labels, SwitchConfig(2))) == [(0, 9), (1, 8)]

    def test_strict_raises_on_overflow(self):
        instances = [ActionInterval(0, 5), ActionInterval(1, 5)]
        with pytest.raises(CapacityError):
            encode_instances(instances, 6, SwitchConfig(1), policy="strict")

    def test_back_to_back_uses_next_switch(self):
        # Second instance starts right after the first ends; with a second
        # switch available the pair must not share a switch.
        labels, report = encode_instances(
            [ActionInterval(0, 3), ActionInterval(4, 6)], 8, SwitchConfig(2)
        )
        assert report.switch_assignment == {0: 1, 1: 2}
        assert report.merged_instances == []
        assert spans(decode_sequence(labels, SwitchConfig(2))) == [(0, 3), (4, 6)]

    def test_back_to_back_merge_fallback(self):
        labels, report = encode_instances(
            [ActionInterval(0, 3), ActionInterval(4, 6)], 8, SwitchConfig(1)
        )
        assert report.merged_instances == [1]
        # Decode merges the abutting pair; that is the accepted cost.
        assert spans(decode_sequence(labels, SwitchConfig(1))) == [(0, 6)]

    def test_out_of_range_frame(self):
        with pytest.raises(DomainError):
            encode_instances([ActionInterval(0, 9)], 5, SwitchConfig(1))
        with pytest.raises(DomainError, match="negative stream length"):
            encode_instances([], -1, SwitchConfig(1))

    def test_unknown_policy(self):
        with pytest.raises(DomainError):
            encode_instances([], 5, SwitchConfig(1), policy="bogus")

    def test_dropped_plus_assigned_partitions_input(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            instances = [
                ActionInterval(int(s), int(s) + int(d))
                for s, d in zip(rng.integers(0, 40, 8), rng.integers(0, 20, 8))
            ]
            _, report = encode_instances(instances, 64, SwitchConfig(2))
            assert len(report.switch_assignment) + len(report.dropped_instances) == 8


class TestDecode:
    def test_reference_sequence(self):
        out = decode_sequence([0, 1, 1, 3, 3, 2, 2, 2, 0], SwitchConfig(2))
        assert spans(out) == [(1, 4), (3, 7)]
        assert all(not i.truncated for i in out)

    def test_all_zeros(self):
        assert decode_sequence([0, 0, 0], SwitchConfig(2)) == []

    def test_open_run_truncated(self):
        out = decode_sequence([1, 1, 1], SwitchConfig(1))
        assert spans(out) == [(0, 2)]
        assert out[0].truncated

    def test_class_agnostic(self):
        out = decode_sequence([0, 1, 0], SwitchConfig(1))
        assert out[0].class_id is None and out[0].score is None

    def test_invalid_label(self):
        with pytest.raises(DomainError):
            decode_sequence([0, 2], SwitchConfig(1))
        with pytest.raises(DomainError, match="1-d"):
            decode_sequence([[0, 1], [1, 0]], SwitchConfig(1))

    @pytest.mark.parametrize("states", [
        [0.5, 1.7, 1.2], [0, 1.0], [0, float("nan")], [0, 2**70], ["1"],
    ], ids=["fractions", "whole-float", "nan", "beyond-int64", "string"])
    def test_rejects_non_integer_labels(self, states):
        with pytest.raises(DomainError, match="labels must be integers"):
            decode_sequence(states, SwitchConfig(1))

    def test_accepts_empty_integer_and_boolean_labels(self):
        config = SwitchConfig(1)
        assert decode_sequence([], config) == []
        for states in ([0, 1, 1], np.array([0, 1, 1], dtype=np.uint8), [False, True, True]):
            assert spans(decode_sequence(states, config)) == [(1, 2)]

    def test_count_law(self):
        rng = np.random.default_rng(11)
        config = SwitchConfig(3)
        for _ in range(100):
            states = rng.integers(0, config.num_states, size=rng.integers(1, 64))
            expected = 0
            for j in range(config.num_switches):
                bit = np.concatenate(([0], (states >> j) & 1))
                expected += int((np.diff(bit) == 1).sum())
            assert len(decode_sequence(states, config)) == expected

    def test_monotone_capacity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            states = rng.integers(0, 4, size=32)  # only lower 2 bits used
            small = decode_sequence(states, SwitchConfig(2))
            large = decode_sequence(states, SwitchConfig(3))
            assert spans(small) == spans(large)


class TestRoundTrip:
    @pytest.mark.parametrize("num_switches", [1, 2, 3, 4])
    def test_encode_decode_exact(self, num_switches):
        rng = np.random.default_rng(100 + num_switches)
        config = SwitchConfig(num_switches)
        for _ in range(200):
            instances = random_clean_instances(rng, num_switches, length=96)
            labels, report = encode_instances(instances, 96, config)
            assert report.dropped_instances == []
            assert report.merged_instances == []
            assert spans(decode_sequence(labels, config)) == spans(instances)


@st.composite
def instance_sets(draw):
    """(k, length, instances, capped): capped sets keep concurrency <= k."""
    k = draw(st.integers(1, 4))
    length = draw(st.integers(1, 48))
    capped = draw(st.booleans())
    candidates = draw(st.lists(
        st.tuples(st.integers(0, length - 1), st.integers(0, 15)), max_size=12))
    active = np.zeros(length, dtype=np.int64)
    instances = []
    for start, extra in candidates:
        end = min(start + extra, length - 1)
        if not capped or active[start : end + 1].max() < k:
            active[start : end + 1] += 1
            instances.append(ActionInterval(start, end))
    return k, length, instances, capped


@settings(max_examples=300, deadline=None)
@given(case=instance_sets())
def test_encode_decode_round_trip_property(case):
    k, length, instances, capped = case
    config = SwitchConfig(k)
    labels, report = encode_instances(instances, length, config)
    dropped = {i for i, inst in enumerate(instances)
               if any(inst is d for d in report.dropped_instances)}
    assigned = set(report.switch_assignment)
    assert len(dropped) == len(report.dropped_instances)
    assert not dropped & assigned
    assert dropped | assigned == set(range(len(instances)))
    assert set(report.merged_instances) <= assigned
    if capped:
        assert not dropped
    if not dropped and not report.merged_instances:
        assert spans(decode_sequence(labels, config)) == spans(instances)


class TestStreamDecoder:
    def test_close_returns_instance(self):
        dec = StreamDecoder(SwitchConfig(2))
        for frame, state in enumerate([0, 3, 3, 3, 3]):
            assert dec.step(state, frame) == []
        out = dec.step(2, 5)
        assert spans(out) == [(1, 4)]  # switch 1 released

    def test_no_change_no_output(self):
        dec = StreamDecoder(SwitchConfig(1))
        assert dec.step(0, 0) == []
        assert dec.step(0, 1) == []

    def test_full_sequence_matches_batch(self):
        for states, config in [
            ([0, 1, 1, 3, 3, 2, 2, 2, 0], SwitchConfig(2)),
            # numpy bools are the labels 0 and 1 to both decoders.
            (np.array([False, True, True, False, True]), SwitchConfig(1)),
        ]:
            assert decode_streaming(states, config) == decode_sequence(states, config)

    def test_finalize_flags_truncated(self):
        dec = StreamDecoder(SwitchConfig(1))
        dec.step(1, 0)
        dec.step(1, 1)
        out = dec.finalize()
        assert spans(out) == [(0, 1)]
        assert out[0].truncated

    def test_non_consecutive_frame(self):
        dec = StreamDecoder(SwitchConfig(1))
        dec.step(0, 0)
        with pytest.raises(ProtocolError):
            dec.step(0, 2)

    def test_step_after_finalize(self):
        dec = StreamDecoder(SwitchConfig(1))
        dec.finalize()
        with pytest.raises(ProtocolError):
            dec.step(0, 0)
        with pytest.raises(ProtocolError, match="finalize"):
            dec.finalize()

    @pytest.mark.parametrize("state, match", [
        (1.9, "not an integer"), (1.0, "not an integer"),
        (float("nan"), "not an integer"), (2**70, "out of range"),
    ], ids=["fraction", "whole-float", "nan", "beyond-int64"])
    def test_rejects_non_integer_state(self, state, match):
        with pytest.raises(DomainError, match=match):
            StreamDecoder(SwitchConfig(1)).step(state, 0)
        with pytest.raises(DomainError, match=match):
            decode_streaming([0, state], SwitchConfig(1))

    @pytest.mark.parametrize("frame", [0.0, 0.5, False, np.False_, np.float64(0), "0", None],
                             ids=repr)
    def test_rejects_non_integer_frame(self, frame):
        with pytest.raises(DomainError, match="not an integer"):
            StreamDecoder(SwitchConfig(1)).step(1, frame)

    def test_numpy_frames_give_int_frames(self):
        dec = StreamDecoder(SwitchConfig(1))
        out = [a for frame, state in enumerate([1, 1, 0, 1, 1])
               for a in dec.step(state, np.int64(frame))] + dec.finalize()
        assert [(a.span, a.truncated) for a in out] == [((0, 1), False), ((3, 4), True)]
        assert {type(f) for a in out for f in a.span} == {int}

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, list], ids=["int64", "uint8", "list"])
    def test_integer_arrays_decode_as_their_list(self, dtype):
        labels = [0, 1, 3, 3, 2, 0, 0, 2, 3, 1]
        states = labels if dtype is list else np.array(labels, dtype=dtype)
        streamed = decode_streaming(states, SwitchConfig(2))
        assert streamed == decode_sequence(labels, SwitchConfig(2))
        assert [(a.span, a.truncated) for a in streamed] == [
            ((1, 3), False), ((2, 4), False), ((7, 8), False), ((8, 9), True)]
        assert {type(f) for a in streamed for f in a.span} == {int}

    @pytest.mark.parametrize("states, message", [
        (np.array([0.0, 1.0, 3.0]), "state np.float64(0.0) is not an integer"),
        (np.array([[0, 1], [1, 0]]), "state array([0, 1]) is not an integer"),
        (np.array([0, 5]), "state 5 out of range for 2 switches"),
        (np.array([0, 2**64 - 1], dtype=np.uint64),
         "state 18446744073709551615 out of range for 2 switches"),
    ], ids=["float", "2-d", "int64-out-of-range", "uint64-out-of-range"])
    def test_refused_arrays_keep_their_messages(self, states, message):
        with pytest.raises(DomainError) as info:
            decode_streaming(states, SwitchConfig(2))
        assert str(info.value) == message

    @settings(max_examples=200, deadline=None)
    @given(
        num_switches=st.integers(1, 4),
        data=st.data(),
    )
    def test_streaming_equals_batch(self, num_switches, data):
        config = SwitchConfig(num_switches)
        states = data.draw(
            st.lists(st.integers(0, config.num_states - 1), min_size=0, max_size=64)
        )
        streamed = decode_streaming(states, config)
        batch = decode_sequence(states, config)
        assert spans(streamed) == spans(batch)
        assert [i.truncated for i in streamed] == [i.truncated for i in batch]


# (value, the label it is, or None when step must refuse it) for two switches.
DECODER_STATES = [(0, 0), (1, 1), (2, 2), (3, 3), (np.int64(3), 3), (True, 1), (np.True_, 1),
                  (4, None), (-1, None), (1.0, None), (0.5, None)]
# Frame kinds: (value for the next frame n, whether it is an integer).
DECODER_FRAMES = {
    "int": (lambda n: n, True), "numpy": (lambda n: np.int64(n), True),
    "skip": (lambda n: n + 1, True), "repeat": (lambda n: n - 1, True),
    "float": (float, False), "bool": (lambda n: n == 1, False),
}


class DecoderProtocol(RuleBasedStateMachine):
    """StreamDecoder driven in any order: every protocol error is raised, a
    refused call changes nothing, and the emitted intervals are those of
    decode_sequence over the accepted states."""

    def __init__(self):
        super().__init__()
        self.config = SwitchConfig(2)
        self.dec = StreamDecoder(self.config)
        self.accepted: list[int] = []
        self.emitted: list[ActionInterval] = []
        self.finalized = False

    def refused(self, error, call):
        before = copy.deepcopy(vars(self.dec))
        with pytest.raises(error):
            call()
        assert vars(self.dec) == before

    @rule(state=st.sampled_from(DECODER_STATES), kind=st.sampled_from(sorted(DECODER_FRAMES)))
    def step(self, state, kind):
        (value, label), (make_frame, integer) = state, DECODER_FRAMES[kind]
        n = len(self.accepted)
        frame = make_frame(n)
        if self.finalized:
            self.refused(ProtocolError, lambda: self.dec.step(value, frame))
        elif not integer:
            self.refused(DomainError, lambda: self.dec.step(value, frame))
        elif frame != n:
            self.refused(ProtocolError, lambda: self.dec.step(value, frame))
        elif label is None:
            self.refused(DomainError, lambda: self.dec.step(value, frame))
        else:
            self.emitted += self.dec.step(value, frame)
            self.accepted.append(label)

    @precondition(lambda self: self.finalized)
    @rule()
    def finalize_again(self):
        self.refused(ProtocolError, self.dec.finalize)

    @precondition(lambda self: not self.finalized)
    @rule()
    def finalize(self):
        self.emitted += self.dec.finalize()
        self.finalized = True
        expected = decode_sequence(np.array(self.accepted, dtype=np.int64), self.config)
        got = sorted(self.emitted)
        assert [(a.span, a.truncated) for a in got] == [(a.span, a.truncated) for a in expected]
        assert {type(f) for a in got for f in a.span} <= {int}

    def teardown(self):
        if not self.finalized:
            self.finalize()


TestDecoderProtocol = DecoderProtocol.TestCase
TestDecoderProtocol.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)
