import numpy as np
import pytest

from switchdet.exceptions import DomainError
from switchdet.scorer import forward_step, init_params
from switchdet.switchboard import (
    ActionInterval,
    StreamDecoder,
    SwitchConfig,
    decode_sequence,
)
from switchdet.synthgen import SynthConfig, generate_stream
from switchdet.trainer import (
    INFER_WINDOW,
    Adam,
    TrainConfig,
    infer_instances,
    run_cell,
    sweep_alpha,
    train,
)


def constant_state_video(length=256, feature_dim=4):
    """Feature stream where state is trivially separable: on-blocks of class 0."""
    rng = np.random.default_rng(0)
    instances = [ActionInterval(32, 95, class_id=0), ActionInterval(160, 223, class_id=0)]
    features = rng.normal(scale=0.05, size=(length, feature_dim))
    for inst in instances:
        features[inst.start_frame : inst.end_frame + 1] += 1.0
    return features, instances


class TestAdam:
    def test_single_step_matches_reference_formulas(self):
        params = init_params(2, 2, 2, seed=0)
        grads = params.zeros_like()
        for g in grads.arrays():
            g[:] = np.random.default_rng(1).normal(size=g.shape)
        before = [a.copy() for a in params.arrays()]
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        opt = Adam(params, lr, b1, b2, eps)
        opt.step(params, grads)
        for prev, now, g in zip(before, params.arrays(), grads.arrays()):
            m_hat = (1 - b1) * g / (1 - b1)
            v_hat = (1 - b2) * g * g / (1 - b2)
            expected = prev - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.abs(now - expected).max() < 1e-12


class ReferenceAdam:
    """The per-array Adam loop that ran before the parameters were one vector."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(a) for a in params.arrays()]
        self.v = [np.zeros_like(a) for a in params.arrays()]

    def step(self, params, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for arr, g, m, v in zip(params.arrays(), grads.arrays(), self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            arr -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


@pytest.mark.parametrize("betas", [{}, {"beta1": 0.5, "beta2": 0.9, "eps": 1e-6}],
                         ids=["default", "custom"])
def test_adam_matches_reference_loop(betas):
    rng = np.random.default_rng(2)
    params, ref = init_params(5, 7, 4, seed=1), init_params(5, 7, 4, seed=1)
    opt, ref_opt = Adam(params, 3e-3, **betas), ReferenceAdam(ref, 3e-3, **betas)
    for _ in range(6):
        grads = params.zeros_like()
        grads.flat[:] = rng.normal(size=grads.flat.shape)
        grads.flat[::11] = 0.0
        opt.step(params, grads)
        ref_opt.step(ref, grads)
    assert params.flat.tobytes() == ref.flat.tobytes()


class TestTrain:
    def test_learns_separable_task(self):
        video = constant_state_video()
        config = TrainConfig(
            alpha=0.0, epochs=200, num_switches=1, hidden_dim=8,
            learning_rate=3e-3, bptt_len=64, seed=0,
        )
        params, history = train([video], config)
        assert history[-1].mean_ce < 0.05

    def test_first_epoch_history_stable_across_epoch_counts(self):
        video = constant_state_video()
        cfg1 = TrainConfig(epochs=1, seed=3, hidden_dim=8)
        cfg2 = TrainConfig(epochs=2, seed=3, hidden_dim=8)
        _, h1 = train([video], cfg1)
        _, h2 = train([video], cfg2)
        assert h1[0] == h2[0]

    def test_training_is_bitwise_deterministic(self):
        video = constant_state_video()
        config = TrainConfig(epochs=2, seed=11, hidden_dim=8)
        pa, _ = train([video], config)
        pb, _ = train([video], config)
        for a, b in zip(pa.arrays(), pb.arrays()):
            assert np.array_equal(a, b)

    def test_empty_dataset(self):
        with pytest.raises(DomainError):
            train([], TrainConfig())

    def test_config_validation(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="alpha"):
                TrainConfig(alpha=bad)
        for bad in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="learning_rate"):
                TrainConfig(learning_rate=bad)
        with pytest.raises(DomainError):
            TrainConfig(epochs=0)
        with pytest.raises(DomainError):
            TrainConfig(bptt_len=1)


class TestInfer:
    def test_head_biased_to_idle_yields_nothing(self):
        params = init_params(4, 3, 4, seed=0)
        params.b_o[:] = [100.0, 0.0, 0.0, 0.0]
        features = np.random.default_rng(2).normal(size=(64, 4))
        assert infer_instances(params, features, SwitchConfig(2)) == []

    def test_matches_batch_decode_of_argmax(self):
        rng = np.random.default_rng(3)
        params = init_params(4, 6, 4, seed=5)
        features = rng.normal(size=(128, 4)) * 3
        from switchdet.scorer import forward_sequence

        logits, _ = forward_sequence(params, features)
        expected = decode_sequence(logits.argmax(axis=1), SwitchConfig(2))
        got = infer_instances(params, features, SwitchConfig(2))
        assert [i.span for i in got] == [i.span for i in expected]
        assert [i.truncated for i in got] == [i.truncated for i in expected]

    def test_state_count_mismatch(self):
        params = init_params(4, 3, 4, seed=0)
        with pytest.raises(DomainError):
            infer_instances(params, np.zeros((8, 4)), SwitchConfig(3))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_windows_equal_frame_by_frame_streaming(self, k):
        # The live-stream composition, one frame at a time, is the reference.
        config = SwitchConfig(k)
        rng = np.random.default_rng(10 + k)
        params = init_params(4, 6, config.num_states, seed=k)
        features = rng.normal(size=(INFER_WINDOW * 5 // 2, 4)) * 3
        decoder = StreamDecoder(config)
        h = np.zeros(params.hidden_dim)
        expected = []
        for t in range(features.shape[0]):
            logits, h = forward_step(params, features[t], h)
            expected.extend(decoder.step(int(np.argmax(logits)), t))
        expected.extend(decoder.finalize())
        expected.sort(key=lambda a: a.span)
        got = infer_instances(params, features, config)
        assert len(expected) > 10
        assert [(i.span, i.truncated) for i in got] == [
            (i.span, i.truncated) for i in expected
        ]

    def test_empty_stream_yields_nothing(self):
        params = init_params(4, 3, 4, seed=0)
        assert infer_instances(params, np.zeros((0, 4)), SwitchConfig(2)) == []


def tiny_split(seed=0):
    synth = dict(
        length=1500, arrival_rate=0.03, noise_sigma=0.2, signature_seed=99
    )
    train_set = [generate_stream(SynthConfig(seed=seed + 1, **synth))]
    eval_set = [generate_stream(SynthConfig(seed=seed + 2, **synth))]
    return train_set, eval_set


class TestSweep:
    def test_single_cell(self):
        train_set, eval_set = tiny_split()
        base = TrainConfig(epochs=1, hidden_dim=8)
        rows = sweep_alpha(
            train_set, eval_set, alphas=[0.0], switch_counts=[2],
            base=base, seeds=(0,),
        )
        assert len(rows) == 1
        assert rows[0].num_switches == 2 and rows[0].alpha == 0.0
        assert rows[0].error is None

    def test_rows_sorted_and_complete(self):
        train_set, eval_set = tiny_split()
        base = TrainConfig(epochs=1, hidden_dim=8)
        rows = sweep_alpha(
            train_set, eval_set, alphas=[0.05, 0.0], switch_counts=[2, 1],
            base=base, seeds=(0,),
        )
        assert [(r.num_switches, r.alpha) for r in rows] == [
            (1, 0.0), (1, 0.05), (2, 0.0), (2, 0.05),
        ]

    def test_deterministic(self):
        train_set, eval_set = tiny_split()
        base = TrainConfig(epochs=1, hidden_dim=8)
        kwargs = dict(
            alphas=[0.0], switch_counts=[1], base=base, seeds=(0, 1, 2)
        )
        a = sweep_alpha(train_set, eval_set, **kwargs)
        b = sweep_alpha(train_set, eval_set, **kwargs)
        assert a == b

    def test_parallel_rows_equal_serial(self):
        train_set, eval_set = tiny_split()
        kwargs = dict(
            alphas=[0.0, 0.05], switch_counts=[1],
            base=TrainConfig(epochs=1, hidden_dim=8), seeds=(0, 1),
        )
        serial = sweep_alpha(train_set, eval_set, jobs=1, **kwargs)
        parallel = sweep_alpha(train_set, eval_set, jobs=2, **kwargs)
        assert parallel == serial

    def test_empty_grid(self):
        train_set, eval_set = tiny_split()
        with pytest.raises(DomainError):
            sweep_alpha(train_set, eval_set, [], [1], TrainConfig())

    def test_run_cell_reports_counts(self):
        train_set, eval_set = tiny_split()
        row = run_cell(train_set, eval_set, TrainConfig(epochs=1, hidden_dim=8))
        assert row.num_gt == len(eval_set[0][1])

    def test_run_cell_returns_failure_as_row(self):
        train_set, eval_set = tiny_split()
        feats, insts = eval_set[0]
        wide = np.hstack([feats, np.zeros((feats.shape[0], 1))])
        row = run_cell(train_set, [(wide, insts)], TrainConfig(epochs=1, hidden_dim=8))
        assert "features must be" in row.error
        assert np.isnan([row.f1, row.precision, row.recall]).all()
        assert (row.num_proposals, row.num_gt) == (0, 0)

    def test_failed_cells_are_logged(self, caplog):
        train_set, eval_set = tiny_split()
        feats, insts = eval_set[0]
        wide = np.hstack([feats, np.zeros((feats.shape[0], 1))])
        base = TrainConfig(epochs=1, hidden_dim=8)
        with caplog.at_level("WARNING", logger="switchdet"):
            rows = sweep_alpha(
                train_set, [(wide, insts)], alphas=[0.0], switch_counts=[1],
                base=base, seeds=(0, 1),
            )
        assert rows[0].error is not None
        messages = [
            r.getMessage() for r in caplog.records
            if r.name == "switchdet" and r.levelname == "WARNING"
        ]
        assert len(messages) == 2
        for seed, message in zip((0, 1), messages):
            assert f"k=1 alpha=0 seed={seed}" in message
            assert rows[0].error in message
