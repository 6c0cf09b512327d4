"""Seeded synthetic streams with overlapping ground-truth action instances.

Each class owns a fixed random unit signature vector; the feature of a frame
is the sum of the signatures of the instances active there plus Gaussian
noise.  The state is therefore linearly recoverable at low noise, which
guarantees the toy scorer can learn the task; difficulty is dialed in with
arrival_rate (overlap density) and noise_sigma.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import DomainError
from .switchboard import ActionInterval

FEATURE_MAGIC = b"ASWF"
FEATURE_VERSION = 1


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
            if getattr(self, name) < low:
                raise DomainError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.signature_seed is not None and self.signature_seed < 0:
            raise DomainError(f"signature_seed must be >= 0, got {self.signature_seed}")
        for name in ("arrival_rate", "noise_sigma"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise DomainError(f"{name} must be finite and >= 0, got {value}")
        if not (1 <= self.duration_min <= self.duration_max):
            raise DomainError(
                f"bad duration range [{self.duration_min}, {self.duration_max}]"
            )


def class_signatures(num_classes: int, feature_dim: int, rng) -> np.ndarray:
    """Random unit vectors, one per class."""
    sigs = rng.normal(size=(num_classes, feature_dim))
    return sigs / np.linalg.norm(sigs, axis=1, keepdims=True)


def generate_stream(
    config: SynthConfig,
) -> tuple[np.ndarray, list[ActionInterval]]:
    """Sample one stream: (T x D features, class-labeled instances).

    Instance starts follow a per-frame Poisson process; a start is rejected
    when it would push concurrency past max_concurrent (unless
    allow_overflow).  Durations are uniform integers, clipped at stream end.
    Deterministic per seed.
    """
    rng = np.random.default_rng(config.seed)
    sig_seed = (
        config.seed if config.signature_seed is None else config.signature_seed
    )
    sigs = class_signatures(
        config.num_classes, config.feature_dim, np.random.default_rng(sig_seed)
    )

    instances: list[ActionInterval] = []
    for t in range(config.length):
        for _ in range(int(rng.poisson(config.arrival_rate))):
            duration = int(
                rng.integers(config.duration_min, config.duration_max + 1)
            )
            cls = int(rng.integers(config.num_classes))
            # Concurrency peaks at some instance start, so checking at the
            # start frame is sufficient to bound it everywhere.
            active = sum(1 for inst in instances if inst.end_frame >= t)
            if active >= config.max_concurrent and not config.allow_overflow:
                continue
            end = min(t + duration - 1, config.length - 1)
            instances.append(ActionInterval(t, end, class_id=cls))

    features = np.zeros((config.length, config.feature_dim))
    for inst in instances:
        features[inst.start_frame : inst.end_frame + 1] += sigs[inst.class_id]
    if config.noise_sigma > 0:
        features += rng.normal(
            scale=config.noise_sigma, size=features.shape
        )
    return features, instances


def concurrency_profile(instances, length: int) -> np.ndarray:
    """Number of active instances at each frame."""
    conc = np.zeros(length, dtype=np.int64)
    for inst in instances:
        conc[inst.start_frame : inst.end_frame + 1] += 1
    return conc


def write_features(path, features) -> None:
    """Binary features: magic, version u32, T u64, D u32, row-major f32 LE."""
    arr = np.ascontiguousarray(features, dtype="<f4")
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise DomainError(f"features must be 2-d with >= 1 column, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IQI", FEATURE_VERSION, arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def read_features(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 20 or data[:4] != FEATURE_MAGIC:
        raise DomainError(f"{path}: not a feature file")
    version, t, d = struct.unpack("<IQI", data[4:20])
    if version != FEATURE_VERSION:
        raise DomainError(f"{path}: unsupported feature version {version}")
    if d == 0:
        raise DomainError(f"{path}: feature file with 0 columns")
    body = data[20:]
    if len(body) != 4 * t * d:
        problem = "truncated" if len(body) < 4 * t * d else "trailing bytes in"
        raise DomainError(f"{path}: {problem} feature file")
    features = np.frombuffer(body, dtype="<f4").astype(np.float64).reshape(t, d)
    if not np.all(np.isfinite(features)):
        raise DomainError(f"{path}: non-finite feature values")
    return features
