"""Minimal trainable per-frame state classifier.

One light gated recurrent cell (update gate only, no reset gate) followed by
a linear head over states, with exact manual backpropagation through time.
Small enough to train on a desk CPU; the hidden state is a convex mix of its
previous value and a tanh candidate, so it stays in [-1, 1] elementwise.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import DomainError

CHECKPOINT_MAGIC = b"ASWP"
CHECKPOINT_VERSION = 1

# Field order also fixes the checkpoint layout.
_PARAM_FIELDS = ("w_z", "u_z", "b_z", "w_h", "u_h", "b_h", "w_o", "b_o")


@dataclass
class ScorerParams:
    w_z: np.ndarray  # (H, D) update-gate input weights
    u_z: np.ndarray  # (H, H) update-gate recurrent weights
    b_z: np.ndarray  # (H,)
    w_h: np.ndarray  # (H, D) candidate input weights
    u_h: np.ndarray  # (H, H) candidate recurrent weights
    b_h: np.ndarray  # (H,)
    w_o: np.ndarray  # (S, H) output head
    b_o: np.ndarray  # (S,)

    def __post_init__(self) -> None:
        h, d = self.w_z.shape
        s = self.w_o.shape[0]
        expected = {
            "w_z": (h, d), "u_z": (h, h), "b_z": (h,),
            "w_h": (h, d), "u_h": (h, h), "b_h": (h,),
            "w_o": (s, h), "b_o": (s,),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise DomainError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"non-finite values in {name}")

    @property
    def feature_dim(self) -> int:
        return self.w_z.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w_z.shape[0]

    @property
    def num_states(self) -> int:
        return self.w_o.shape[0]

    def arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in _PARAM_FIELDS]

    def copy(self) -> "ScorerParams":
        return ScorerParams(*(a.copy() for a in self.arrays()))

    def zeros_like(self) -> "ScorerParams":
        return ScorerParams(*(np.zeros_like(a) for a in self.arrays()))

    @classmethod
    def _unchecked(cls, **arrays: np.ndarray) -> "ScorerParams":
        """Wrap all eight arrays, by name, without __post_init__'s checks.

        For gradients: their shapes follow from checked parameters, and a
        non-finite gradient is returned, not raised.
        """
        obj = cls.__new__(cls)
        obj.__dict__.update(arrays)
        return obj


@dataclass
class ForwardCache:
    """Intermediates retained by forward_sequence for the backward pass."""

    params: ScorerParams
    xs: np.ndarray       # (T, D)
    h_prev: np.ndarray   # (T, H) hidden state entering each step
    z: np.ndarray        # (T, H) update gate
    h_cand: np.ndarray   # (T, H) tanh candidate
    h: np.ndarray        # (T, H) hidden state after each step


def init_params(
    feature_dim: int, hidden_dim: int, num_states: int, seed: int
) -> ScorerParams:
    """Glorot-uniform weights, zero biases; deterministic per seed."""
    if feature_dim < 1 or hidden_dim < 1 or num_states < 1:
        raise DomainError("feature_dim, hidden_dim and num_states must be >= 1")
    rng = np.random.default_rng(seed)

    def glorot(rows, cols):
        a = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-a, a, size=(rows, cols))

    d, h, s = feature_dim, hidden_dim, num_states
    return ScorerParams(
        w_z=glorot(h, d), u_z=glorot(h, h), b_z=np.zeros(h),
        w_h=glorot(h, d), u_h=glorot(h, h), b_h=np.zeros(h),
        w_o=glorot(s, h), b_o=np.zeros(s),
    )


def _read_only(value: float) -> np.ndarray:
    arr = np.array(value)
    arr.flags.writeable = False
    return arr


# Operands of the per-step ufuncs: a 0-d array is cheaper to pass than a
# Python float, which numpy converts on every call.
_ZERO, _ONE, _MINUS_ONE = _read_only(0.0), _read_only(1.0), _read_only(-1.0)


def forward_step(
    params: ScorerParams, x, h_prev
) -> tuple[np.ndarray, np.ndarray]:
    """One streaming step: returns (logits row, new hidden state)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.feature_dim,):
        raise DomainError(f"feature shape {x.shape} != ({params.feature_dim},)")
    logits, cache = forward_sequence(params, x[None], h_prev)
    return logits[0], cache.h[0]


def forward_sequence(
    params: ScorerParams, xs, h0=None
) -> tuple[np.ndarray, ForwardCache]:
    """Run the cell over a whole sequence; h0 defaults to zeros.

    The only implementation of the cell: forward_step is its one-row call,
    and passing the last hidden state as the next h0 continues a stream.
    Each step writes in place into buffers allocated once per call.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != params.feature_dim:
        raise DomainError(
            f"features must be (T, {params.feature_dim}), got {xs.shape}"
        )
    t = xs.shape[0]
    if t == 0:
        raise DomainError("empty input sequence")
    if not np.all(np.isfinite(xs)):
        raise DomainError("non-finite values in features")
    hd = params.hidden_dim
    h0 = np.zeros(hd) if h0 is None else np.asarray(h0, dtype=np.float64)
    if h0.shape != (hd,):
        raise DomainError(f"h0 shape {h0.shape} != ({hd},)")

    # Input projections for every step at once; the loop only does the
    # recurrent matvecs and elementwise gates.
    az_x = xs @ params.w_z.T
    az_x += params.b_z
    ah_x = xs @ params.w_h.T
    ah_x += params.b_h
    h_prev = np.empty((t, hd))
    z_all = np.empty((t, hd))
    cand_all = np.empty((t, hd))
    h_all = np.empty((t, hd))
    # Numerator and denominator exps of the sigmoid, one exp call for both.
    exps = np.empty((2, hd))
    num, neg_abs = exps
    den, keep = np.empty((2, hd))
    u_z, u_h = params.u_z, params.u_h
    h = h0
    for z, cand, h_next, a_z, a_h in zip(z_all, cand_all, h_all, az_x, ah_x):
        np.dot(u_z, h, out=z)
        np.add(a_z, z, out=z)
        # z = sigmoid(z) as exp(min(z, 0)) / (1 + exp(-|z|)): that is
        # 1 / (1 + exp(-z)) where z >= 0 and exp(z) / (1 + exp(z))
        # elsewhere, with no mask and no exp that can overflow.
        np.minimum(z, _ZERO, out=num)
        np.copysign(z, _MINUS_ONE, out=neg_abs)
        np.exp(exps, out=exps)
        np.add(neg_abs, _ONE, out=den)
        np.divide(num, den, out=z)
        np.dot(u_h, h, out=cand)
        np.add(a_h, cand, out=cand)
        np.tanh(cand, out=cand)
        # h_next = (1 - z) * h + z * cand
        np.subtract(_ONE, z, out=keep)
        np.multiply(keep, h, out=keep)
        np.multiply(z, cand, out=h_next)
        np.add(keep, h_next, out=h_next)
        h = h_next
    h_prev[0] = h0
    h_prev[1:] = h_all[:-1]
    logits = h_all @ params.w_o.T
    logits += params.b_o
    cache = ForwardCache(
        params=params, xs=xs, h_prev=h_prev, z=z_all, h_cand=cand_all, h=h_all
    )
    return logits, cache


def backward_sequence(cache: ForwardCache, dlogits) -> ScorerParams:
    """Exact BPTT: parameter gradients for a cotangent on the logits.

    The factors that do not depend on the carried gradient are computed for
    the whole window first; each step writes in place into buffers
    allocated once per call, keeping the operand order of every product.
    """
    p = cache.params
    dlogits = np.asarray(dlogits, dtype=np.float64)
    t = cache.xs.shape[0]
    if dlogits.shape != (t, p.num_states):
        raise DomainError(
            f"dlogits shape {dlogits.shape} != ({t}, {p.num_states})"
        )
    dh_out = dlogits @ p.w_o  # (T, H)

    z_all = cache.z
    diff = cache.h_cand - cache.h_prev
    one_minus_z = _ONE - z_all
    dtanh = cache.h_cand * cache.h_cand
    np.subtract(_ONE, dtanh, out=dtanh)
    daz = np.empty_like(z_all)
    dah = np.empty_like(z_all)
    dh, carry, back = np.zeros((3, p.hidden_dim))
    u_z_t, u_h_t = p.u_z.T, p.u_h.T
    rows = (daz, dah, z_all, one_minus_z, diff, dtanh, dh_out)
    for da_z, da_h, z, omz, dif, dtan, dh_o in zip(*(r[::-1] for r in rows)):
        np.add(dh_o, carry, out=dh)
        # da_z = dh * (cand - h_prev) * z * (1 - z)
        np.multiply(dh, dif, out=da_z)
        np.multiply(da_z, z, out=da_z)
        np.multiply(da_z, omz, out=da_z)
        # da_h = dh * z * (1 - cand^2)
        np.multiply(dh, z, out=da_h)
        np.multiply(da_h, dtan, out=da_h)
        # carry = dh * (1 - z) + u_z^T da_z + u_h^T da_h; one matvec over
        # the stacked [u_z; u_h] would round differently.
        np.multiply(dh, omz, out=carry)
        np.dot(u_z_t, da_z, out=back)
        np.add(carry, back, out=carry)
        np.dot(u_h_t, da_h, out=back)
        np.add(carry, back, out=carry)

    return ScorerParams._unchecked(
        w_z=daz.T @ cache.xs,
        u_z=daz.T @ cache.h_prev,
        b_z=daz.sum(axis=0),
        w_h=dah.T @ cache.xs,
        u_h=dah.T @ cache.h_prev,
        b_h=dah.sum(axis=0),
        w_o=dlogits.T @ cache.h,
        b_o=dlogits.sum(axis=0),
    )


def save_checkpoint(path, params: ScorerParams) -> None:
    """Binary checkpoint: magic, version, dims, then matrices row-major f64 LE."""
    header = CHECKPOINT_MAGIC + struct.pack(
        "<IIII",
        CHECKPOINT_VERSION,
        params.feature_dim,
        params.hidden_dim,
        params.num_states,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in params.arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> ScorerParams:
    data = Path(path).read_bytes()
    if len(data) < 20 or data[:4] != CHECKPOINT_MAGIC:
        raise DomainError(f"{path}: not a scorer checkpoint")
    version, d, h, s = struct.unpack("<IIII", data[4:20])
    if version != CHECKPOINT_VERSION:
        raise DomainError(f"{path}: unsupported checkpoint version {version}")
    shapes = [(h, d), (h, h), (h,), (h, d), (h, h), (h,), (s, h), (s,)]
    offset = 20
    arrays = []
    for shape in shapes:
        n = int(np.prod(shape))
        chunk = data[offset : offset + 8 * n]
        if len(chunk) != 8 * n:
            raise DomainError(f"{path}: truncated checkpoint")
        arrays.append(np.frombuffer(chunk, dtype="<f8").astype(np.float64).reshape(shape))
        offset += 8 * n
    if offset != len(data):
        raise DomainError(f"{path}: trailing bytes in checkpoint")
    return ScorerParams(*arrays)
