"""Switch-state algebra: encoding interval sets to per-frame state labels and back.

A machine with k switches tracks up to k concurrent class-agnostic action
instances.  Switch j (1-based) has id 2^(j-1); the state label of a frame is
the sum of the ids of the switches active at that frame, i.e. a bitmask.
State changes mark instance boundaries, so a label sequence can be decoded
into intervals online with one frame of latency on the closing edge.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .exceptions import CapacityError, DomainError, ProtocolError

MAX_SWITCHES = 16

# Encode policies for instance sets that exceed switch capacity.
POLICY_DROP_NEWEST = "drop-newest"
POLICY_STRICT = "strict"


@dataclass(frozen=True)
class SwitchConfig:
    """Number of switches; the state space is all 2^k activation bitmasks."""

    num_switches: int

    def __post_init__(self) -> None:
        if not (1 <= self.num_switches <= MAX_SWITCHES):
            raise DomainError(
                f"num_switches must be in [1, {MAX_SWITCHES}], got {self.num_switches}"
            )

    @property
    def num_states(self) -> int:
        return 1 << self.num_switches


@dataclass(frozen=True, order=True)
class ActionInterval:
    """One action instance over inclusive frame indices [start_frame, end_frame].

    Single-frame instances (start == end) are legal.  ``truncated`` marks
    instances still open when the stream ended.
    """

    start_frame: int
    end_frame: int
    class_id: int | None = field(default=None, compare=False)
    score: float | None = field(default=None, compare=False)
    truncated: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.start_frame < 0:
            raise DomainError(f"negative start frame {self.start_frame}")
        if self.end_frame < self.start_frame:
            raise DomainError(
                f"inverted interval [{self.start_frame}, {self.end_frame}]"
            )

    @property
    def span(self) -> tuple[int, int]:
        return (self.start_frame, self.end_frame)

    @property
    def num_frames(self) -> int:
        return self.end_frame - self.start_frame + 1


# Frame indices of columnar intervals stay below this bound, so a span's
# length and the sum of two lengths fit int64.
FRAME_LIMIT = 2**62


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
            np.array([0 if c is None else c for c in class_id], dtype=np.int64),
            np.array([c is None for c in class_id], dtype=bool),
            np.array([math.nan if s is None else s for s in score], dtype=np.float64),
            np.array([s is None for s in score], dtype=bool),
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
        class_ids = [
            None if classless else c
            for c, classless in zip(self.class_ids.tolist(), self.classless.tolist())
        ]
        scores = [
            None if scoreless else s
            for s, scoreless in zip(self.scores.tolist(), self.scoreless.tolist())
        ]
        return map(ActionInterval, self.spans[:, 0].tolist(), self.spans[:, 1].tolist(),
                   class_ids, scores, self.truncated.tolist())


@dataclass
class EncodeReport:
    """Bookkeeping from encode_instances.

    switch_assignment maps original input index -> 1-based switch index.
    merged_instances lists input indices where a back-to-back assignment had
    to reuse a still-adjacent switch (decode will merge the abutting pair).
    dropped + assigned partitions the input list.
    """

    dropped_instances: list[ActionInterval] = field(default_factory=list)
    switch_assignment: dict[int, int] = field(default_factory=dict)
    merged_instances: list[int] = field(default_factory=list)


def check_state(value: int, config: SwitchConfig) -> int:
    """``value`` as an int, if it is a state of ``config``; a float is refused.

    A bool, Python's or numpy's, is the state 0 or 1, as it is a label to
    decode_sequence.
    """
    try:
        value = operator.index(value)
    except TypeError:
        if not isinstance(value, np.bool_):
            raise DomainError(f"state {value!r} is not an integer") from None
        value = int(value)
    if not (0 <= value < config.num_states):
        raise DomainError(
            f"state {value} out of range for {config.num_switches} switches"
        )
    return value


def encode_instances(
    instances: list[ActionInterval],
    length: int,
    config: SwitchConfig,
    policy: str = POLICY_DROP_NEWEST,
) -> tuple[np.ndarray, EncodeReport]:
    """Assign instances to switches and render the per-frame label sequence.

    Instances are processed in (start, end) order; each takes the lowest free
    switch.  If the lowest free switch was still active at the previous frame
    (back-to-back instances), the next free switch is preferred so decode does
    not merge the pair; when every free switch is adjacent the merge is
    accepted and recorded.  Instances that find no free switch are dropped
    (default) or raise CapacityError under the strict policy.
    """
    if policy not in (POLICY_DROP_NEWEST, POLICY_STRICT):
        raise DomainError(f"unknown conflict policy {policy!r}")
    if length < 0:
        raise DomainError(f"negative stream length {length}")
    for inst in instances:
        if inst.end_frame >= length:
            raise DomainError(
                f"interval [{inst.start_frame}, {inst.end_frame}] exceeds "
                f"stream length {length}"
            )

    labels = np.zeros(length, dtype=np.int64)
    report = EncodeReport()
    k = config.num_switches
    occupied_until = [-2] * k  # inclusive end frame of each switch's last run

    order = sorted(range(len(instances)), key=lambda i: instances[i].span)
    for idx in order:
        inst = instances[idx]
        f = inst.start_frame
        free = [j for j in range(k) if occupied_until[j] < f]
        if not free:
            if policy == POLICY_STRICT:
                raise CapacityError(
                    f"instance [{inst.start_frame}, {inst.end_frame}] exceeds "
                    f"capacity of {k} switches"
                )
            report.dropped_instances.append(inst)
            continue
        clean = [j for j in free if occupied_until[j] < f - 1]
        if clean:
            j = clean[0]
        else:
            j = free[0]
            report.merged_instances.append(idx)
        occupied_until[j] = inst.end_frame
        labels[f : inst.end_frame + 1] |= 1 << j
        report.switch_assignment[idx] = j + 1
    return labels, report


def decode_sequence(states, config: SwitchConfig) -> list[ActionInterval]:
    """Extract one interval per maximal active run of each switch.

    Class-agnostic: decoded instances carry no class or score.  A run still
    open at the final frame is emitted with truncated=True.
    """
    arr = np.asarray(states)
    if arr.ndim != 1:
        raise DomainError(f"expected 1-d label sequence, got shape {arr.shape}")
    t = arr.shape[0]
    # Checked before the int64 conversion, which would truncate a float label
    # and overflow a huge one.
    if t and arr.dtype.kind not in "biu":
        raise DomainError(f"labels must be integers, got dtype {arr.dtype}")
    if t and (arr.min() < 0 or arr.max() >= config.num_states):
        raise DomainError(
            f"label out of range for {config.num_switches} switches"
        )
    arr = arr.astype(np.int64, copy=False)
    out: list[ActionInterval] = []
    for j in range(config.num_switches):
        bit = np.concatenate(([0], (arr >> j) & 1, [0]))
        edges = np.flatnonzero(np.diff(bit))
        for s, e in zip(edges[::2], edges[1::2]):
            out.append(
                ActionInterval(int(s), int(e) - 1, truncated=(int(e) == t))
            )
    out.sort(key=lambda a: a.span)
    return out


def _frame_index(frame) -> int:
    """``frame`` as an int, if it is an integer other than a bool."""
    if not isinstance(frame, bool):
        try:
            return operator.index(frame)
        except TypeError:
            pass
    raise DomainError(f"frame {frame!r} is not an integer")


class StreamDecoder:
    """Online per-frame decoder for a single stream.

    Feed consecutive frame states through step(); each call returns the
    instances that just closed.  finalize() flushes instances still open at
    stream end as truncated.  Single-owner: one stream, one decoder.
    """

    def __init__(self, config: SwitchConfig):
        self.config = config
        self._prev = 0
        self._open: list[int | None] = [None] * config.num_switches
        self._next_frame = 0
        self._finalized = False

    def step(self, state: int, frame: int) -> list[ActionInterval]:
        """The instances that closed before ``frame``, whose state is ``state``.

        A frame that is not an integer (a float, a bool) is a DomainError,
        as a float state is; a numpy integer frame is taken as an int.
        """
        if self._finalized:
            raise ProtocolError("step() after finalize()")
        if type(frame) is not int:
            frame = _frame_index(frame)
        if frame != self._next_frame:
            raise ProtocolError(
                f"expected frame {self._next_frame}, got {frame}"
            )
        state = check_state(state, self.config)
        self._next_frame = frame + 1
        if state == self._prev:  # no switch flipped: nothing opens or closes
            return []
        completed = []
        for j in range(self.config.num_switches):
            was = self._prev >> j & 1
            now = state >> j & 1
            if was and not now:
                completed.append(ActionInterval(self._open[j], frame - 1))
                self._open[j] = None
            elif now and not was:
                self._open[j] = frame
        self._prev = state
        return completed

    def finalize(self) -> list[ActionInterval]:
        if self._finalized:
            raise ProtocolError("finalize() called twice")
        self._finalized = True
        last = self._next_frame - 1
        out = [
            ActionInterval(start, last, truncated=True)
            for start in self._open
            if start is not None
        ]
        self._open = [None] * self.config.num_switches
        return out


def decode_streaming(states, config: SwitchConfig) -> list[ActionInterval]:
    """Run a full sequence through StreamDecoder; equals decode_sequence."""
    dec = StreamDecoder(config)
    out: list[ActionInterval] = []
    for frame, state in enumerate(states):
        out.extend(dec.step(state, frame))
    out.extend(dec.finalize())
    out.sort(key=lambda a: a.span)
    return out
