import numpy as np
import pytest

from switchdet import trainer
from switchdet.exceptions import DomainError
from switchdet.losses import sequence_loss_and_grad
from switchdet.scorer import (
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


class TestMatchesReferenceLoops:
    @pytest.mark.parametrize("with_h0", [False, True])
    @pytest.mark.parametrize("t", [1, 2, 33])
    def test_lengths_and_initial_state(self, t, with_h0):
        rng = np.random.default_rng(10 + t)
        p = init_params(5, 7, 4, seed=t)
        h0 = rng.uniform(-1, 1, size=7) if with_h0 else None
        assert_matches_reference(p, rng.normal(size=(t, 5)), h0, seed=t)

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

    def test_rejects_truncated(self, tmp_path):
        p = init_params(5, 4, 8, seed=9)
        path = tmp_path / "model.aswp"
        save_checkpoint(path, p)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DomainError):
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
