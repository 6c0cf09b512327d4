import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchdet import scorer, trainer
from switchdet.exceptions import DomainError
from switchdet.losses import sequence_loss_and_grad
from switchdet.scorer import (
    BLOCK,
    ForwardCache,
    ScorerParams,
    backward_sequence,
    forward_sequence,
    forward_step,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from switchdet.switchboard import ActionInterval


def zero_params(d=3, h=2, s=4):
    p = init_params(d, h, s, seed=0)
    for arr in p.arrays():
        arr[:] = 0.0
    return p


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_params(4, 3, 2, seed=42)
        b = init_params(4, 3, 2, seed=42)
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)

    def test_biases_zero(self):
        p = init_params(4, 3, 2, seed=1)
        assert not p.b_z.any() and not p.b_h.any() and not p.b_o.any()

    def test_seeds_differ(self):
        assert not np.array_equal(
            init_params(4, 3, 2, seed=1).w_z, init_params(4, 3, 2, seed=2).w_z
        )

    def test_weight_range(self):
        p = init_params(8, 16, 4, seed=3)
        bound = np.sqrt(6.0 / (16 + 8))
        assert np.abs(p.w_z).max() <= bound

    def test_rejects_zero_dims(self):
        with pytest.raises(DomainError):
            init_params(0, 3, 2, seed=0)


def reference_init_params(feature_dim, hidden_dim, num_states, seed):
    """The eight arrays init_params built before they were views of one vector."""
    rng = np.random.default_rng(seed)

    def glorot(rows, cols):
        a = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-a, a, size=(rows, cols))

    d, h, s = feature_dim, hidden_dim, num_states
    return [glorot(h, d), glorot(h, h), np.zeros(h),
            glorot(h, d), glorot(h, h), np.zeros(h),
            glorot(s, h), np.zeros(s)]


class TestLayout:
    @pytest.mark.parametrize("seed", [0, 1, 17])
    @pytest.mark.parametrize("d, h, s", [(16, 32, 4), (1, 1, 2), (3, 5, 8), (9, 2, 16)])
    def test_init_matches_reference(self, d, h, s, seed):
        p = init_params(d, h, s, seed=seed)
        ref = reference_init_params(d, h, s, seed)
        for name, arr, expected in zip(PARAM_FIELDS, p.arrays(), ref):
            assert_same_bits(arr, expected, name)

    def test_arrays_are_views_of_flat_in_field_order(self):
        p = init_params(5, 4, 8, seed=9)
        for q in (p, p.zeros_like()):
            assert q.flat.dtype == np.float64 and q.flat.flags.c_contiguous
            for arr in q.arrays():
                assert np.shares_memory(arr, q.flat)
        assert_same_bits(p.flat, np.concatenate([a.ravel() for a in p.arrays()]), "flat")

    def test_rejects_wrong_length(self):
        p = init_params(5, 4, 8, seed=9)
        with pytest.raises(DomainError, match="expected"):
            ScorerParams(p.flat[:-1], 5, 4, 8)

    def test_rejects_zero_dim(self):
        # D = 16, H = 0, S = 4 has exactly 4 parameters, the head bias.
        with pytest.raises(DomainError, match="must be >= 1"):
            ScorerParams(np.zeros(4), 16, 0, 4)


class TestForward:
    def test_zero_weights_emit_bias(self):
        p = zero_params()
        p.b_o[:] = [1.0, -2.0, 0.5, 0.0]
        xs = np.random.default_rng(0).normal(size=(5, 3))
        logits, cache = forward_sequence(p, xs)
        assert np.allclose(logits, np.tile(p.b_o, (5, 1)))
        assert not cache.h.any()

    def test_saturated_gate_scalar_trace(self):
        # H=1: gate forced ~1, so h ~ tanh(w_h x) and logits ~ w_o h + b_o.
        p = init_params(1, 1, 2, seed=0)
        p.w_z[:] = 0.0
        p.u_z[:] = 0.0
        p.b_z[:] = 50.0
        p.u_h[:] = 0.0
        p.b_h[:] = 0.0
        p.w_h[:] = 0.7
        p.w_o[:, 0] = [1.5, -0.5]
        p.b_o[:] = [0.1, 0.2]
        x = np.array([[2.0]])
        logits, _ = forward_sequence(p, x)
        h = np.tanh(0.7 * 2.0)
        assert np.allclose(logits[0], [1.5 * h + 0.1, -0.5 * h + 0.2], atol=1e-9)

    def test_streaming_matches_batch(self):
        rng = np.random.default_rng(4)
        p = init_params(6, 5, 4, seed=7)
        xs = rng.normal(size=(32, 6))
        batch_logits, _ = forward_sequence(p, xs)
        h = np.zeros(5)
        for t in range(32):
            row, h = forward_step(p, xs[t], h)
            assert np.abs(row - batch_logits[t]).max() < 1e-12

    def test_hidden_state_bounded(self):
        rng = np.random.default_rng(5)
        p = init_params(3, 4, 2, seed=1)
        xs = rng.normal(size=(64, 3)) * 1e3  # huge inputs
        _, cache = forward_sequence(p, xs)
        assert np.abs(cache.h).max() <= 1.0

    def test_dim_mismatch(self):
        p = init_params(3, 4, 2, seed=1)
        with pytest.raises(DomainError):
            forward_sequence(p, np.zeros((5, 2)))
        with pytest.raises(DomainError, match="features must be"):
            forward_step(p, np.zeros(2), np.zeros(4))
        with pytest.raises(DomainError, match="h0 shape"):
            forward_sequence(p, np.zeros((5, 3)), np.zeros(3))

    def test_empty_sequence(self):
        p = init_params(3, 4, 2, seed=1)
        with pytest.raises(DomainError):
            forward_sequence(p, np.zeros((0, 3)))

    def test_rejects_non_finite_features(self):
        p = init_params(3, 4, 2, seed=1)
        xs = np.zeros((5, 3))
        xs[2, 1] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            forward_sequence(p, xs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_h0_and_cotangent(self, bad):
        p = init_params(3, 4, 2, seed=1)
        h0 = np.zeros(4)
        h0[1] = bad
        with pytest.raises(DomainError, match="non-finite values in h0"):
            forward_sequence(p, np.zeros((5, 3)), h0)
        with pytest.raises(DomainError, match="non-finite values in h0"):
            forward_step(p, np.zeros(3), h0)
        _, cache = forward_sequence(p, np.zeros((5, 3)))
        dlogits = np.zeros((5, 2))
        dlogits[3, 0] = bad
        with pytest.raises(DomainError, match="non-finite values in dlogits"):
            backward_sequence(cache, dlogits)


class TestBackward:
    def test_zero_cotangent(self):
        p = init_params(3, 4, 2, seed=1)
        _, cache = forward_sequence(p, np.random.default_rng(0).normal(size=(6, 3)))
        grads = backward_sequence(cache, np.zeros((6, 2)))
        assert all(not g.any() for g in grads.arrays())

    def test_head_bias_is_column_sum(self):
        p = init_params(3, 4, 5, seed=1)
        _, cache = forward_sequence(p, np.random.default_rng(1).normal(size=(1, 3)))
        dlogits = np.random.default_rng(2).normal(size=(1, 5))
        grads = backward_sequence(cache, dlogits)
        assert np.allclose(grads.b_o, dlogits.sum(axis=0))

    def test_shape_mismatch(self):
        p = init_params(3, 4, 2, seed=1)
        _, cache = forward_sequence(p, np.zeros((6, 3)))
        with pytest.raises(DomainError):
            backward_sequence(cache, np.zeros((5, 2)))

    def test_full_chain_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        checked = 0
        trial = 0
        while checked < 10:
            trial += 1
            t, d, h, s = 8, 4, 3, 4
            params = init_params(d, h, s, seed=100 + trial)
            xs = rng.normal(size=(t, d))
            y = rng.integers(0, s, size=t)
            logits, cache = forward_sequence(params, xs)
            top2 = np.sort(logits, axis=1)[:, -2:]
            if (top2[:, 1] - top2[:, 0]).min() < 1e-3:
                continue
            res = sequence_loss_and_grad(logits, y, 0.025)
            grads = backward_sequence(cache, res.grad)
            eps = 1e-5
            for name in ("w_z", "u_z", "b_z", "w_h", "u_h", "b_h", "w_o", "b_o"):
                arr = getattr(params, name)
                g = getattr(grads, name)
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + eps
                    lp = sequence_loss_and_grad(
                        forward_sequence(params, xs)[0], y, 0.025
                    ).total
                    arr[idx] = orig - eps
                    lm = sequence_loss_and_grad(
                        forward_sequence(params, xs)[0], y, 0.025
                    ).total
                    arr[idx] = orig
                    fd = (lp - lm) / (2 * eps)
                    rel = abs(fd - g[idx]) / max(1e-6, abs(fd) + abs(g[idx]))
                    assert rel < 1e-5, (name, idx, fd, g[idx])
            checked += 1


# Reference loops: the per-frame forward and BPTT bodies the scorer had before
# its loops wrote into buffers allocated once per call.  They build fresh
# arrays every step; the scorer must equal them bit for bit.


def reference_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def reference_forward_sequence(params, xs, h0=None):
    xs = np.asarray(xs, dtype=np.float64)
    t, hd = xs.shape[0], params.hidden_dim
    h = np.zeros(hd) if h0 is None else np.asarray(h0, dtype=np.float64).copy()
    az_x = xs @ params.w_z.T + params.b_z
    ah_x = xs @ params.w_h.T + params.b_h
    h_prev = np.empty((t, hd))
    z_all = np.empty((t, hd))
    cand_all = np.empty((t, hd))
    h_all = np.empty((t, hd))
    for i in range(t):
        h_prev[i] = h
        z = reference_sigmoid(az_x[i] + params.u_z @ h)
        cand = np.tanh(ah_x[i] + params.u_h @ h)
        h = (1.0 - z) * h + z * cand
        z_all[i] = z
        cand_all[i] = cand
        h_all[i] = h
    logits = h_all @ params.w_o.T + params.b_o
    cache = ForwardCache(
        params=params, xs=xs, h_prev=h_prev, z=z_all, h_cand=cand_all, h=h_all
    )
    return logits, cache


def reference_backward_sequence(cache, dlogits):
    p = cache.params
    dlogits = np.asarray(dlogits, dtype=np.float64)
    t = cache.xs.shape[0]
    grads = p.zeros_like()
    grads.w_o[:] = dlogits.T @ cache.h
    grads.b_o[:] = dlogits.sum(axis=0)
    dh_out = dlogits @ p.w_o
    daz = np.empty_like(cache.z)
    dah = np.empty_like(cache.z)
    carry = np.zeros(p.hidden_dim)
    for i in range(t - 1, -1, -1):
        dh = dh_out[i] + carry
        z = cache.z[i]
        cand = cache.h_cand[i]
        dz = dh * (cand - cache.h_prev[i])
        da_z = dz * z * (1.0 - z)
        da_h = dh * z * (1.0 - cand * cand)
        daz[i] = da_z
        dah[i] = da_h
        carry = dh * (1.0 - z) + p.u_z.T @ da_z + p.u_h.T @ da_h
    grads.w_z[:] = daz.T @ cache.xs
    grads.u_z[:] = daz.T @ cache.h_prev
    grads.b_z[:] = daz.sum(axis=0)
    grads.w_h[:] = dah.T @ cache.xs
    grads.u_h[:] = dah.T @ cache.h_prev
    grads.b_h[:] = dah.sum(axis=0)
    return grads


CACHE_FIELDS = ("xs", "h_prev", "z", "h_cand", "h")
PARAM_FIELDS = ("w_z", "u_z", "b_z", "w_h", "u_h", "b_h", "w_o", "b_o")


def assert_same_bits(a, b, what):
    assert a.shape == b.shape, what
    assert np.array_equal(a, b), what
    # array_equal treats -0.0 == 0.0; the raw bytes do not.
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), what


def assert_matches_reference(params, xs, h0, seed):
    logits, cache = forward_sequence(params, xs, h0)
    ref_logits, ref_cache = reference_forward_sequence(params, xs, h0)
    assert_same_bits(logits, ref_logits, "logits")
    for name in CACHE_FIELDS:
        assert_same_bits(getattr(cache, name), getattr(ref_cache, name), name)
    dlogits = np.random.default_rng(seed).normal(size=logits.shape)
    grads = backward_sequence(cache, dlogits)
    ref_grads = reference_backward_sequence(ref_cache, dlogits)
    for name in PARAM_FIELDS:
        assert_same_bits(getattr(grads, name), getattr(ref_grads, name), "d" + name)


def assert_each_model_matches_reference(models, xs, h0, rng):
    """The models' stack against the reference loops run on each model
    alone, with a cotangent drawn from ``rng``."""
    logits, cache = forward_sequence(stacked(models), xs, h0)
    dlogits = rng.normal(size=logits.shape)
    grads = backward_sequence(cache, dlogits)
    assert logits.shape[0] == len(models)
    for i, q in enumerate(models):
        ref_logits, ref_cache = reference_forward_sequence(
            q, xs, None if h0 is None else h0[i]
        )
        assert_same_bits(logits[i], ref_logits, f"model {i} logits")
        assert_same_bits(cache.xs, ref_cache.xs, "xs")
        for name in CACHE_FIELDS[1:]:
            assert_same_bits(getattr(cache, name)[i], getattr(ref_cache, name),
                             f"model {i} {name}")
        ref_grads = reference_backward_sequence(ref_cache, dlogits[i])
        for name in PARAM_FIELDS:
            assert_same_bits(getattr(grads, name)[i], getattr(ref_grads, name),
                             f"model {i} d{name}")


# Window lengths around the forward's blocks: one block, a block and one row
# (which the last block takes), a block and a two-row block, and an infer
# window and a block and one row.
LENGTHS = [1, 2, 33, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1,
           trainer.INFER_WINDOW + BLOCK + 1]


class TestMatchesReferenceLoops:
    @pytest.mark.parametrize("with_h0", [False, True])
    @pytest.mark.parametrize("t", LENGTHS)
    def test_lengths_and_initial_state(self, t, with_h0):
        rng = np.random.default_rng(10 + t)
        p = init_params(5, 7, 4, seed=t)
        h0 = rng.uniform(-1, 1, size=7) if with_h0 else None
        assert_matches_reference(p, rng.normal(size=(t, 5)), h0, seed=t)

    @pytest.mark.parametrize("with_h0", [False, True])
    @pytest.mark.parametrize("t", LENGTHS)
    def test_stack_lengths_and_initial_state(self, t, with_h0):
        # A stack of two at the default D = 16 and H = 32, as a sweep trains.
        rng = np.random.default_rng(20 + t)
        models = perturbed_models(rng, 2, 16, 32, 4)
        h0 = rng.uniform(-1, 1, size=(2, 32)) if with_h0 else None
        assert_each_model_matches_reference(
            models, rng.normal(size=(t, 16)), h0, np.random.default_rng(t)
        )

    @pytest.mark.parametrize("s", [2, 4, 8])
    @pytest.mark.parametrize("d, h", [(16, 32), (9, 4), (1, 3), (3, 1)])
    def test_state_counts_with_d_not_h(self, s, d, h):
        rng = np.random.default_rng(100 * s + d)
        p = init_params(d, h, s, seed=s + d)
        for arr in p.arrays():
            arr += rng.normal(scale=0.3, size=arr.shape)
        h0 = rng.uniform(-1, 1, size=h)
        assert_matches_reference(p, rng.normal(size=(40, d)), h0, seed=s)

    def test_saturated_gates(self):
        # Pre-activations of about +-40: the sigmoid sits at 0 or 1 and the
        # candidate at +-1, and no exp may overflow.
        rng = np.random.default_rng(3)
        p = init_params(4, 6, 4, seed=3)
        for arr in (p.w_z, p.u_z, p.w_h, p.u_h):
            arr *= 1e-3
        p.b_z[:] = [40.0, -40.0, 39.5, -39.5, 40.0, -40.0]
        p.b_h[:] = [-40.0, 40.0, -40.0, 40.0, 0.5, -0.5]
        xs = rng.normal(size=(25, 4))
        _, cache = forward_sequence(p, xs)
        assert (cache.z[:, 0] > 1 - 1e-15).all() and (cache.z[:, 1] < 1e-15).all()
        assert_matches_reference(p, xs, None, seed=3)
        big = rng.normal(size=(25, 4)) * 1e3
        assert_matches_reference(init_params(4, 6, 4, seed=4), big, None, seed=4)

    def test_exact_zero_pre_activations(self):
        # Zero gate weights: every pre-activation is exactly 0, the branch
        # point of the sigmoid; signed-zero biases and inputs must not flip
        # a bit anywhere.
        rng = np.random.default_rng(5)
        p = init_params(3, 4, 4, seed=5)
        for arr in (p.w_z, p.u_z, p.w_h, p.u_h):
            arr[:] = 0.0
        p.w_z[0] = -0.0
        p.b_z[:] = [0.0, -0.0, 0.0, -0.0]
        p.b_h[:] = [-0.0, 0.0, 0.25, -0.25]
        xs = rng.normal(size=(12, 3))
        xs[3] = -0.0
        xs[4] = 0.0
        _, cache = forward_sequence(p, xs, np.array([-0.0, 0.0, 0.5, -0.5]))
        assert (cache.z == 0.5).all()
        assert_matches_reference(p, xs, np.array([-0.0, 0.0, 0.5, -0.5]), seed=5)
        assert_matches_reference(p, xs, None, seed=6)

    def test_zero_cotangent_rows(self):
        rng = np.random.default_rng(7)
        p = init_params(4, 5, 4, seed=7)
        xs = rng.normal(size=(20, 4))
        logits, cache = forward_sequence(p, xs)
        _, ref_cache = reference_forward_sequence(p, xs)
        dlogits = rng.normal(size=logits.shape)
        dlogits[5:12] = 0.0
        dlogits[15:] = -0.0
        grads = backward_sequence(cache, dlogits)
        ref = reference_backward_sequence(ref_cache, dlogits)
        for name in PARAM_FIELDS:
            assert_same_bits(getattr(grads, name), getattr(ref, name), name)

    def test_training_matches_reference_loops(self, monkeypatch):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(300, 6))
        insts = [ActionInterval(20, 90), ActionInterval(60, 150), ActionInterval(200, 280)]
        config = trainer.TrainConfig(
            epochs=2, bptt_len=64, hidden_dim=8, alpha=0.025, learning_rate=1e-2
        )
        params, history = trainer.train([(feats, insts)], config)
        monkeypatch.setattr(trainer, "forward_sequence", reference_forward_sequence)
        monkeypatch.setattr(trainer, "backward_sequence", reference_backward_sequence)
        ref_params, ref_history = trainer.train([(feats, insts)], config)
        for name in PARAM_FIELDS:
            assert_same_bits(getattr(params, name), getattr(ref_params, name), name)
        assert [e.to_json() for e in history] == [e.to_json() for e in ref_history]


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        p = init_params(5, 4, 8, seed=9)
        path = tmp_path / "model.aswp"
        save_checkpoint(path, p)
        q = load_checkpoint(path)
        for a, b in zip(p.arrays(), q.arrays()):
            assert np.array_equal(a, b)

    def test_header_layout(self, tmp_path):
        p = init_params(5, 4, 8, seed=9)
        path = tmp_path / "model.aswp"
        save_checkpoint(path, p)
        raw = path.read_bytes()
        assert raw[:4] == b"ASWP"
        assert np.frombuffer(raw[4:20], dtype="<u4").tolist() == [1, 5, 4, 8]

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.aswp"
        path.write_bytes(b"nope")
        with pytest.raises(DomainError):
            load_checkpoint(path)

    @pytest.mark.parametrize("header, match", [
        ((2, 5, 4, 8), "unsupported checkpoint version 2"),
        ((1, 16, 0, 4), "must be >= 1"),
    ], ids=["version", "zero-hidden-dim"])
    def test_rejects_header(self, tmp_path, header, match):
        # Four zero floats: the whole body of the zero-hidden-dim header (b_o).
        path = tmp_path / "bad.aswp"
        path.write_bytes(b"ASWP" + struct.pack("<IIII", *header) + bytes(32))
        with pytest.raises(DomainError, match=match):
            load_checkpoint(path)

    def test_rejects_truncated(self, tmp_path):
        p = init_params(5, 4, 8, seed=9)
        path = tmp_path / "model.aswp"
        save_checkpoint(path, p)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DomainError, match="truncated checkpoint file"):
            load_checkpoint(path)

    def test_body_is_flat(self, tmp_path):
        p = init_params(5, 4, 8, seed=9)
        path = tmp_path / "model.aswp"
        save_checkpoint(path, p)
        assert path.read_bytes()[20:] == p.flat.astype("<f8").tobytes()

    def test_loaded_arrays_are_views_of_flat(self, tmp_path):
        path = tmp_path / "model.aswp"
        save_checkpoint(path, init_params(5, 4, 8, seed=9))
        q = load_checkpoint(path)
        assert q.flat.flags.writeable
        for arr in q.arrays():
            assert np.shares_memory(arr, q.flat)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.aswp"
        save_checkpoint(path, init_params(5, 4, 8, seed=9))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(DomainError, match="trailing bytes"):
            load_checkpoint(path)

    def test_rejects_non_finite_weights_by_name(self, tmp_path):
        p = init_params(5, 4, 8, seed=9)
        p.w_o[2, 1] = np.nan
        path = tmp_path / "model.aswp"
        save_checkpoint(path, p)
        with pytest.raises(DomainError, match="non-finite values in w_o"):
            load_checkpoint(path)


def stacked(models):
    """The models as one stack: an (M, n) parameter array."""
    first = models[0]
    flat = np.stack([q.flat for q in models])
    return ScorerParams(flat, first.feature_dim, first.hidden_dim, first.num_states)


def perturbed_models(rng, m, d, h, s):
    models = [init_params(d, h, s, seed=i) for i in range(m)]
    for q in models:
        q.flat += rng.normal(scale=0.3, size=q.flat.shape)
    return models


@pytest.mark.parametrize("m", [1, 3])
def test_stacked_gates_equal_per_gate_matvecs(m):
    # forward_sequence serves its three gate blocks with one product: for
    # one model when 4 divides H, one matvec of [u_z; -u_z; u_h], which
    # relies on the BLAS gemv rounding each row as it does in u_z or u_h
    # alone, and on negation commuting with the sum; otherwise one batched
    # np.matmul of the (3,) + lead + (H, H) blocks, which relies on each
    # block being multiplied as np.dot multiplies it.  The default H = 32
    # must keep the first, and H = 31, where one model takes the second,
    # the second.
    rule = ("forward_sequence's gate-product rule (one matvec of the stacked "
            "[u_z; -u_z; u_h] for one model when 4 | H, one batched matmul of "
            "the blocks otherwise) does not hold for this BLAS")
    for h in (32, 31):
        rng = np.random.default_rng(h)
        u_z, u_h = rng.normal(size=(2, m, h, h))
        hs = rng.uniform(-1, 1, size=(m, h))
        blocks = np.stack((u_z, -u_z, u_h))
        batched = np.matmul(blocks, hs[..., None])[..., 0]
        for i in range(m):
            per_block = np.concatenate(
                (np.dot(u_z[i], hs[i]), -np.dot(u_z[i], hs[i]), np.dot(u_h[i], hs[i]))
            )
            one_model = np.matmul(blocks[:, i], hs[i, :, None])[..., 0]
            for product, what in ((batched[:, i], "a stack's"), (one_model, "one model's")):
                assert product.tobytes() == per_block.tobytes(), (
                    f"{what} batched np.matmul of [u_z, -u_z, u_h] rounds "
                    f"differently from the per-block np.dot matvecs at H = {h}: {rule}"
                )
            if h % 4 == 0:
                fused = np.dot(np.concatenate((u_z[i], -u_z[i], u_h[i])), hs[i])
                assert fused.tobytes() == per_block.tobytes(), (
                    f"np.dot of [u_z; -u_z; u_h] rounds differently from the "
                    f"per-block matvecs at H = {h}: {rule}"
                )


class TestStack:
    def test_arrays_are_views_with_a_model_axis(self):
        models = [init_params(5, 4, 8, seed=i) for i in range(3)]
        stack = stacked(models)
        for q in (stack, stack.zeros_like()):
            assert q.flat.shape == (3, models[0].flat.size) and q.flat.flags.c_contiguous
            for arr, one in zip(q.arrays(), models[0].arrays()):
                assert arr.shape == (3,) + one.shape
                assert np.shares_memory(arr, q.flat)
        for i, q in enumerate(models):
            one = stack.model(i)
            assert np.shares_memory(one.flat, stack.flat)
            for name in PARAM_FIELDS:
                assert_same_bits(getattr(one, name), getattr(q, name), name)
                assert_same_bits(getattr(stack, name)[i], getattr(q, name), name)

    @pytest.mark.parametrize("shape", [(), (0, 156), (2, 3, 156), (2, 155)],
                             ids=["scalar", "no-model", "three-d", "wrong-length"])
    def test_rejects_bad_stack_shape(self, shape):
        # D = 5, H = 4, S = 8 has 156 parameters.
        with pytest.raises(DomainError, match="expected"):
            ScorerParams(np.zeros(shape), 5, 4, 8)

    def test_checkpoint_holds_one_model(self, tmp_path):
        stack = stacked([init_params(5, 4, 8, seed=i) for i in range(2)])
        path = tmp_path / "model.aswp"
        with pytest.raises(DomainError, match="one model, got a stack of 2"):
            save_checkpoint(path, stack)
        assert not path.exists()
        save_checkpoint(path, stack.model(1))
        assert load_checkpoint(path).flat.tobytes() == stack.flat[1].tobytes()

    def test_rejects_wrong_stacked_h0_and_cotangent(self):
        stack = stacked([init_params(3, 4, 2, seed=i) for i in range(2)])
        with pytest.raises(DomainError, match="h0 shape"):
            forward_sequence(stack, np.zeros((5, 3)), np.zeros(4))
        logits, cache = forward_sequence(stack, np.zeros((5, 3)))
        assert logits.shape == (2, 5, 2)
        with pytest.raises(DomainError, match="dlogits shape"):
            backward_sequence(cache, np.zeros((5, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_stacked_h0_and_cotangent(self, bad):
        stack = stacked([init_params(3, 4, 2, seed=i) for i in range(2)])
        h0 = np.zeros((2, 4))
        h0[1, 2] = bad
        with pytest.raises(DomainError, match="non-finite values in h0"):
            forward_sequence(stack, np.zeros((5, 3)), h0)
        _, cache = forward_sequence(stack, np.zeros((5, 3)))
        dlogits = np.zeros((2, 5, 2))
        dlogits[0, 4, 1] = bad
        with pytest.raises(DomainError, match="non-finite values in dlogits"):
            backward_sequence(cache, dlogits)

    @pytest.mark.parametrize("with_h0", [False, True])
    @pytest.mark.parametrize("s", [2, 4, 8])
    @pytest.mark.parametrize("h", [1, 3, 31, 32])
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_each_model_matches_reference_loops(self, m, h, s, with_h0):
        # A stack's gates take the batched product of the three blocks at
        # every H; H = 31, not a multiple of 4, is where one model's do too.
        rng = np.random.default_rng(1000 * m + 10 * h + s)
        d, t = 5, 37
        models = perturbed_models(rng, m, d, h, s)
        xs = rng.normal(size=(t, d))
        h0 = rng.uniform(-1, 1, size=(m, h)) if with_h0 else None
        assert_each_model_matches_reference(models, xs, h0, rng)

    def test_streaming_step_of_a_stack(self):
        rng = np.random.default_rng(9)
        stack = stacked(perturbed_models(rng, 3, 4, 8, 4))
        xs = rng.normal(size=(6, 4))
        batch_logits, _ = forward_sequence(stack, xs)
        h = np.zeros((3, 8))
        for t in range(6):
            row, h = forward_step(stack, xs[t], h)
            assert row.shape == (3, 4)
            assert np.abs(row - batch_logits[:, t]).max() < 1e-12

    def test_stacked_gradients_match_finite_differences(self):
        # Criterion 4 on a stacked call: each model's loss, with its own
        # alpha, against central differences in every one of its parameters;
        # a model's parameters move no other model's loss.
        rng = np.random.default_rng(14)
        t, d, h, s = 6, 3, 4, 4
        alphas = np.array([0.0, 0.025, 0.1])
        while True:
            stack = stacked(perturbed_models(rng, len(alphas), d, h, s))
            xs = rng.normal(size=(t, d))
            y = rng.integers(0, s, size=t)
            logits, cache = forward_sequence(stack, xs)
            top2 = np.sort(logits, axis=-1)[..., -2:]
            if (top2[..., 1] - top2[..., 0]).min() > 1e-3:
                break
        res = sequence_loss_and_grad(logits, y, alphas)
        assert res.num_cc_positions.min() > 0
        grads = backward_sequence(cache, res.grad)
        eps = 1e-5

        def totals():
            return sequence_loss_and_grad(forward_sequence(stack, xs)[0], y, alphas).total

        it = np.nditer(stack.flat, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = stack.flat[idx]
            stack.flat[idx] = orig + eps
            lp = totals()
            stack.flat[idx] = orig - eps
            lm = totals()
            stack.flat[idx] = orig
            others = np.arange(len(alphas)) != idx[0]
            assert (lp[others] == res.total[others]).all()
            fd = (lp[idx[0]] - lm[idx[0]]) / (2 * eps)
            g = grads.flat[idx]
            assert abs(fd - g) / max(1e-6, abs(fd) + abs(g)) < 1e-5, (idx, fd, g)


class TestWorkspace:
    """Each thread reuses one forward workspace per stack shape and one
    backward workspace per window shape; nothing a call returns may be a view
    of either."""

    @pytest.mark.parametrize("m", [None, 2], ids=["one-model", "stack"])
    def test_one_forward_workspace_per_thread_and_stack_shape(self, m):
        rng = np.random.default_rng(50)
        models = perturbed_models(rng, m or 1, 5, 8, 4)
        params = models[0] if m is None else stacked(models)

        def held(found):
            """The forward workspace this thread holds after each window."""
            for t in (1, 37, BLOCK, BLOCK + 1, trainer.INFER_WINDOW, 1153):
                forward_sequence(params, rng.normal(size=(t, 5)))
                found.append(scorer._WORKSPACES._forward_workspace[1])

        here, there = [], []
        held(here)
        thread = threading.Thread(target=held, args=(there,))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and len(there) == len(here)
        for found in (here, there):
            assert all(ws is found[0] for ws in found)
            assert len(found[0].steps) == BLOCK + 1
        assert there[0] is not here[0]

    @pytest.mark.parametrize("t", [1, 37])
    @pytest.mark.parametrize("m", [None, 2], ids=["one-model", "stack"])
    def test_later_calls_leave_earlier_results_unchanged(self, m, t):
        rng = np.random.default_rng(40 + t)
        d, h, s = 5, 8, 4

        def call(t):
            """Logits, gradients and cache fields of a call on fresh
            parameters and inputs."""
            models = perturbed_models(rng, m or 1, d, h, s)
            params = models[0] if m is None else stacked(models)
            h0 = rng.uniform(-1, 1, size=params.flat.shape[:-1] + (h,))
            logits, cache = forward_sequence(params, rng.normal(size=(t, d)), h0)
            grads = backward_sequence(cache, rng.normal(size=logits.shape))
            return [logits, grads.flat] + [getattr(cache, n) for n in CACHE_FIELDS]

        first = call(t)
        want = [a.tobytes() for a in first]
        for shape in (t, t + 3, t):  # the same shape, another one, the same again
            call(shape)
            assert [a.tobytes() for a in first] == want


@st.composite
def scorer_cases(draw):
    """(models, params, xs, h0, seed): one model, or a stack of 1-4 models
    as params, with the hidden size drawn both as a multiple of 4, where the
    forward serves its three gate blocks with one matvec, and at large."""
    d = draw(st.integers(1, 8))
    h = draw(st.one_of(st.sampled_from(range(4, 41, 4)), st.integers(1, 40)))
    s = draw(st.sampled_from([2, 4, 8]))
    t = draw(st.integers(1, 150))
    m = draw(st.sampled_from([None, 1, 2, 3, 4]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    models = perturbed_models(rng, m or 1, d, h, s)
    params = models[0] if m is None else stacked(models)
    h0 = rng.uniform(-1, 1, size=params.flat.shape[:-1] + (h,)) if draw(st.booleans()) else None
    return models, params, rng.normal(size=(t, d)), h0, seed


@settings(max_examples=300, deadline=None)
@given(case=scorer_cases())
def test_matches_reference_loops_at_random_shapes(case):
    models, params, xs, h0, seed = case
    logits, cache = forward_sequence(params, xs, h0)
    dlogits = np.random.default_rng(seed).normal(size=logits.shape)
    grads = backward_sequence(cache, dlogits)
    stack = params.flat.ndim == 2
    for i, q in enumerate(models):
        def model_i(a):
            return a[i] if stack else a

        ref_logits, ref_cache = reference_forward_sequence(
            q, xs, None if h0 is None else model_i(h0)
        )
        assert_same_bits(model_i(logits), ref_logits, f"model {i} logits")
        for name in CACHE_FIELDS[1:]:
            assert_same_bits(model_i(getattr(cache, name)), getattr(ref_cache, name),
                             f"model {i} {name}")
        ref_grads = reference_backward_sequence(ref_cache, model_i(dlogits))
        for name in PARAM_FIELDS:
            assert_same_bits(model_i(getattr(grads, name)), getattr(ref_grads, name),
                             f"model {i} d{name}")
