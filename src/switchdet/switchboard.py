"""Switch-state algebra: encoding interval sets to per-frame state labels and back.

A machine with k switches tracks up to k concurrent class-agnostic action
instances.  Switch j (1-based) has id 2^(j-1); the state label of a frame is
the sum of the ids of the switches active at that frame, i.e. a bitmask.
State changes mark instance boundaries, so a label sequence can be decoded
into intervals online with one frame of latency on the closing edge.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .exceptions import CapacityError, DomainError, ProtocolError

MAX_SWITCHES = 16

# Encode policies for instance sets that exceed switch capacity.
POLICY_DROP_NEWEST = "drop-newest"
POLICY_STRICT = "strict"


def _integer(value, problem: str, bools: bool = False) -> int:
    """``value`` as an int, if it is an integer, Python's or numpy's; else a
    DomainError of ``problem.format(value)``.  A float is refused, and so is
    a bool, Python's or numpy's, unless ``bools``."""
    if isinstance(value, (bool, np.bool_)):
        if bools:
            return int(value)
    else:
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(problem.format(value))


def integer_field(owner, name: str):
    """Field ``name`` of ``owner``, if it is an integer under _integer's rule."""
    value = getattr(owner, name)
    _integer(value, name + " must be an integer, got {!r}")
    return value


@dataclass(frozen=True)
class SwitchConfig:
    """Number of switches; the state space is all 2^k activation bitmasks."""

    num_switches: int

    def __post_init__(self) -> None:
        if not (1 <= integer_field(self, "num_switches") <= MAX_SWITCHES):
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
        as a float state is; a numpy integer is taken as an int.  A bool
        state, Python's or numpy's, is the state 0 or 1, as it is a label to
        decode_sequence.
        """
        if self._finalized:
            raise ProtocolError("step() after finalize()")
        if type(frame) is not int:
            frame = _integer(frame, "frame {!r} is not an integer")
        if frame != self._next_frame:
            raise ProtocolError(
                f"expected frame {self._next_frame}, got {frame}"
            )
        if type(state) is not int:
            state = _integer(state, "state {!r} is not an integer", bools=True)
        if not (0 <= state < self.config.num_states):
            raise DomainError(
                f"state {state} out of range for {self.config.num_switches} switches"
            )
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
