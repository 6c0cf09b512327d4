"""Seeded synthetic streams with overlapping ground-truth action instances.

Each class owns a fixed random unit signature vector; the feature of a frame
is the sum of the signatures of the instances active there plus Gaussian
noise.  The state is therefore linearly recoverable at low noise, which
guarantees the toy scorer can learn the task; difficulty is dialed in with
arrival_rate (overlap density) and noise_sigma.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .formats import read_binary, write_binary
from .switchboard import ActionInterval, integer_field

FEATURE_MAGIC = b"ASWF"
_FEATURE_HEADER = "QI"  # T frames, D columns; the body is T x D f32 values


@dataclass(frozen=True)
class SynthConfig:
    length: int
    arrival_rate: float = 0.02  # expected instance starts per frame (Poisson)
    duration_min: int = 20
    duration_max: int = 60
    max_concurrent: int = 2
    num_classes: int = 4
    feature_dim: int = 16
    noise_sigma: float = 0.25
    seed: int = 0
    # Streams meant to share feature semantics (train/eval splits) must use
    # the same signature_seed; defaults to seed.
    signature_seed: int | None = None
    # Permit concurrency above max_concurrent (exercises drop-newest encoding).
    allow_overflow: bool = False

    def __post_init__(self) -> None:
        for name, low in (("length", 1), ("max_concurrent", 1), ("num_classes", 1),
                          ("feature_dim", 1), ("seed", 0)):
            if integer_field(self, name) < low:
                raise DomainError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.signature_seed is not None and integer_field(self, "signature_seed") < 0:
            raise DomainError(f"signature_seed must be >= 0, got {self.signature_seed}")
        for name in ("arrival_rate", "noise_sigma"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise DomainError(f"{name} must be finite and >= 0, got {value}")
        durations = integer_field(self, "duration_min"), integer_field(self, "duration_max")
        if not 1 <= durations[0] <= durations[1]:
            raise DomainError(f"bad duration range [{durations[0]}, {durations[1]}]")


# Features are made, and written, in blocks of whole rows of about this many
# float64 values (4,096 rows at the default 16 columns), so that writing a
# stream takes the memory of one block whatever its length.
BLOCK_VALUES = 1 << 16


def _sample_instances(config: SynthConfig, rng) -> list[ActionInterval]:
    """Instance starts follow a per-frame Poisson process; a start is
    rejected when it would push concurrency past max_concurrent (unless
    allow_overflow).  Durations are uniform integers, clipped at stream end."""
    instances: list[ActionInterval] = []
    ends: list[int] = []  # of the kept instances, pruned to the active ones at each start
    for t in range(config.length):
        for _ in range(int(rng.poisson(config.arrival_rate))):
            duration = int(
                rng.integers(config.duration_min, config.duration_max + 1)
            )
            cls = int(rng.integers(config.num_classes))
            # Concurrency peaks at some instance start, so checking at the
            # start frame is sufficient to bound it everywhere.
            ends = [end for end in ends if end >= t]
            if len(ends) >= config.max_concurrent and not config.allow_overflow:
                continue
            end = min(t + duration - 1, config.length - 1)
            ends.append(end)
            instances.append(ActionInterval(t, end, class_id=cls))
    return instances


def _feature_blocks(config: SynthConfig, rng, instances) -> Iterator[np.ndarray]:
    """The stream's features, one block of whole rows at a time.

    Each block adds the signatures of the instances that overlap it, in
    instance order, to zeros, then draws its own noise.  Generator.normal
    fills element by element and keeps nothing between calls, so every value
    has the bits it would have in one (T x D) sum and one draw.
    """
    # One random unit vector per class.
    sig_seed = (
        config.seed if config.signature_seed is None else config.signature_seed
    )
    sigs = np.random.default_rng(sig_seed).normal(
        size=(config.num_classes, config.feature_dim)
    )
    sigs /= np.linalg.norm(sigs, axis=1, keepdims=True)
    rows = max(1, BLOCK_VALUES // config.feature_dim)
    active: list[ActionInterval] = []
    started = 0  # instances[:started] start before this block ends
    for lo in range(0, config.length, rows):
        hi = min(lo + rows, config.length)
        first = started
        while started < len(instances) and instances[started].start_frame < hi:
            started += 1
        active = [inst for inst in active + instances[first:started]
                  if inst.end_frame >= lo]
        block = np.zeros((hi - lo, config.feature_dim))
        for inst in active:
            block[max(inst.start_frame - lo, 0) : inst.end_frame + 1 - lo] += sigs[inst.class_id]
        if config.noise_sigma > 0:
            block += rng.normal(scale=config.noise_sigma, size=block.shape)
        yield block


def _synthesize(config: SynthConfig) -> tuple[list[ActionInterval], Iterator[np.ndarray]]:
    """(instances, feature blocks) of one stream."""
    rng = np.random.default_rng(config.seed)
    instances = _sample_instances(config, rng)
    return instances, _feature_blocks(config, rng, instances)


def generate_stream(
    config: SynthConfig,
) -> tuple[np.ndarray, list[ActionInterval]]:
    """Sample one stream: (T x D features, class-labeled instances).
    Deterministic per seed."""
    instances, blocks = _synthesize(config)
    return np.concatenate(list(blocks)), instances


def write_stream(config: SynthConfig, path) -> list[ActionInterval]:
    """Sample one stream, write its features to ``path`` block by block as
    they are made, and return its instances; the file equals
    ``write_features(path, generate_stream(config)[0])`` byte for byte."""
    instances, blocks = _synthesize(config)
    write_binary(path, FEATURE_MAGIC, _FEATURE_HEADER, (config.length, config.feature_dim),
                 blocks, "<f4")
    return instances


def write_features(path, features) -> None:
    """Binary features: magic, version u32, T u64, D u32, row-major f32 LE."""
    arr = np.asarray(features)
    if arr.dtype.kind not in "biuf":
        # Strings and objects convert, or fail, before the file is opened.
        arr = arr.astype("<f4")
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise DomainError(f"features must be 2-d with >= 1 column, got shape {arr.shape}")
    rows = max(1, BLOCK_VALUES // arr.shape[1])
    write_binary(path, FEATURE_MAGIC, _FEATURE_HEADER, arr.shape,
                 (arr[lo : lo + rows] for lo in range(0, len(arr), rows)), "<f4")


def read_features(path) -> np.ndarray:
    (t, d), features = read_binary(path, FEATURE_MAGIC, "feature", _FEATURE_HEADER,
                                   lambda t, d: t * d, "<f4")
    if d == 0:
        raise DomainError(f"{path}: feature file with 0 columns")
    if not np.all(np.isfinite(features)):
        raise DomainError(f"{path}: non-finite feature values")
    return features.reshape(t, d)
