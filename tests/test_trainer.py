import concurrent.futures
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from switchdet import trainer
from switchdet.exceptions import DomainError
from switchdet.scorer import ScorerParams, forward_step, init_params
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


# Every integer field of the three configs, and the fields it is built with.
INTEGER_FIELDS = [(SwitchConfig, {"num_switches": 2}, "num_switches")] + [
    (SynthConfig, {"length": 100}, name)
    for name in ("length", "duration_min", "duration_max", "max_concurrent",
                 "num_classes", "feature_dim", "seed", "signature_seed")
] + [
    (TrainConfig, {}, name)
    for name in ("epochs", "bptt_len", "seed", "num_switches", "hidden_dim")
]


@pytest.mark.parametrize("config, base, name", INTEGER_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, _, n in INTEGER_FIELDS])
def test_integer_config_fields_refuse_bools_and_non_integers(config, base, name):
    for bad in (True, np.True_, 2.5, 2.0, "2", None):
        if bad is None and name == "signature_seed":
            continue
        with pytest.raises(DomainError, match=f"{name} must be an integer, got {bad!r}"):
            config(**base | {name: bad})
    # A numpy integer passes, as the default (or 7 for None) it replaces.
    good = getattr(config(**base), name)
    good = np.int64(7 if good is None else good)
    assert getattr(config(**base | {name: good}), name) is good


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


def test_stacked_adam_matches_reference_per_model():
    rng = np.random.default_rng(3)
    stack = ScorerParams(np.stack([init_params(5, 7, 4, seed=i).flat for i in range(3)]), 5, 7, 4)
    refs = [init_params(5, 7, 4, seed=i) for i in range(3)]
    opt, ref_opts = Adam(stack, 3e-3), [ReferenceAdam(r, 3e-3) for r in refs]
    for _ in range(6):
        grads = stack.zeros_like()
        grads.flat[:] = rng.normal(size=grads.flat.shape)
        grads.flat[:, ::11] = 0.0
        opt.step(stack, grads)
        for i, (ref, ref_opt) in enumerate(zip(refs, ref_opts)):
            ref_opt.step(ref, grads.model(i))
    for i, ref in enumerate(refs):
        assert stack.model(i).flat.tobytes() == ref.flat.tobytes()


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

    def test_threads_training_at_once_match_serial_runs(self):
        # The scorer's workspaces are per thread: two threads that train on
        # the same window shape at the same time must not share buffers.
        video = constant_state_video(length=512)
        configs = [TrainConfig(epochs=2, bptt_len=64, hidden_dim=8, seed=s) for s in (1, 2)]

        def run(config):
            params, history = train([video], config)
            return params.flat.tobytes(), [e.to_json() for e in history]

        serial = [run(config) for config in configs]
        threaded = [None, None]
        start = threading.Barrier(2)

        def work(i):
            start.wait()
            threaded[i] = run(configs[i])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over inside the per-frame loops
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    @pytest.mark.parametrize("hidden_dim", [8, 5], ids=["one-matvec", "matvec-per-gate"])
    def test_stack_equals_each_model_alone(self, hidden_dim):
        rng = np.random.default_rng(8)
        videos = [(rng.normal(size=(300, 6)), [ActionInterval(20, 90), ActionInterval(60, 150)]),
                  (rng.normal(size=(130, 6)), [ActionInterval(5, 70)])]
        base = TrainConfig(epochs=2, bptt_len=64, hidden_dim=hidden_dim, learning_rate=1e-2)
        configs = [replace(base, alpha=a, seed=s) for a, s in ((0.0, 0), (0.025, 0), (0.1, 4))]
        stack, histories = trainer._train_stack(videos, configs)
        assert stack.flat.shape[0] == 3
        for i, config in enumerate(configs):
            params, history = train(videos, config)
            assert stack.model(i).flat.tobytes() == params.flat.tobytes()
            assert [e.to_json() for e in histories[i]] == [e.to_json() for e in history]

    def test_empty_dataset(self):
        with pytest.raises(DomainError):
            train([], TrainConfig())
        with pytest.raises(DomainError, match="no frame"):
            train([(np.zeros((0, 4)), [])], TrainConfig())

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
        with pytest.raises(DomainError, match="seed must be >= 0"):
            TrainConfig(seed=-1)
        with pytest.raises(DomainError, match="hidden_dim must be >= 1"):
            TrainConfig(hidden_dim=0)


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
            alphas=[0.0, 0.05], switch_counts=[1, 2],
            base=TrainConfig(epochs=1, hidden_dim=8), seeds=(0, 1),
        )
        serial = sweep_alpha(train_set, eval_set, jobs=1, **kwargs)
        parallel = sweep_alpha(train_set, eval_set, jobs=2, **kwargs)
        assert parallel == serial

    @pytest.mark.parametrize("alphas, switch_counts, pools", [
        ([0.0], [1], []),
        ([0.0, 0.05], [1], []),
        ([0.0], [1, 2], [2]),
    ], ids=["one-cell", "two-cells", "two-switch-counts"])
    def test_pool_never_outnumbers_cells(self, monkeypatch, alphas, switch_counts, pools):
        # One worker per switch count at most, and none for a single one.
        built = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                built.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        train_set, eval_set = tiny_split()
        rows = sweep_alpha(
            train_set, eval_set, alphas=alphas, switch_counts=switch_counts,
            base=TrainConfig(epochs=1, hidden_dim=8), seeds=(0,), jobs=3,
        )
        assert built == pools
        assert [r.error for r in rows] == [None] * len(alphas) * len(switch_counts)

    def test_one_pool_task_per_stack(self, monkeypatch):
        # The benchmark's sweep: two switch counts, two alphas, one seed.
        tasks = []

        class RecordingPool(ProcessPoolExecutor):
            def map(self, fn, stacks):
                stacks = list(stacks)
                tasks.append([[(c.num_switches, c.alpha) for c in s] for s in stacks])
                return super().map(fn, stacks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        train_set, eval_set = tiny_split()
        kwargs = dict(alphas=[0.0, 0.05], switch_counts=[2, 1],
                      base=TrainConfig(epochs=1, hidden_dim=8), seeds=(0,))
        parallel = sweep_alpha(train_set, eval_set, jobs=2, **kwargs)
        assert tasks == [[[(1, 0.0), (1, 0.05)], [(2, 0.0), (2, 0.05)]]]
        assert parallel == sweep_alpha(train_set, eval_set, jobs=1, **kwargs)

    def test_failing_cell_in_a_stack(self, monkeypatch, caplog):
        # Seed 1's model starts with a NaN head weight, so its training
        # fails; the other cells of its stack must not.
        real_init = trainer.init_params

        def init_params_nan_for_seed_1(d, h, s, seed):
            params = real_init(d, h, s, seed)
            if seed == 1:
                params.w_o[0, 0] = np.nan
            return params

        monkeypatch.setattr(trainer, "init_params", init_params_nan_for_seed_1)
        train_set, eval_set = tiny_split()
        base = TrainConfig(epochs=1, hidden_dim=8)
        kwargs = dict(alphas=[0.0, 0.05], switch_counts=[1], base=base, seeds=(0, 1, 2))

        def warnings():
            found = [r.getMessage() for r in caplog.records
                     if r.name == "switchdet" and r.levelname == "WARNING"]
            caplog.clear()
            return found

        with caplog.at_level("WARNING", logger="switchdet"):
            stacked = sweep_alpha(train_set, eval_set, **kwargs)
            stacked_warnings = warnings()
        configs = [replace(base, num_switches=1, alpha=alpha, seed=seed)
                   for alpha in (0.0, 0.05) for seed in (0, 1, 2)]
        cells = [trainer._run_stack(train_set, eval_set, [c], 0.5)[0] for c in configs]
        per_cell_warnings = [
            f"sweep cell k=1 alpha={c.alpha:g} seed={c.seed} failed: {c.error}"
            for c in cells if c.error is not None]
        per_cell = []
        for i in (0, 3):  # one row per alpha: the median over its seeds that ran
            ok = [c for c in cells[i : i + 3] if c.error is None]
            per_cell.append(replace(
                ok[0], f1=float(np.median([c.f1 for c in ok])),
                precision=float(np.median([c.precision for c in ok])),
                recall=float(np.median([c.recall for c in ok])),
                num_proposals=int(np.median([c.num_proposals for c in ok]))))
        assert stacked == per_cell
        assert stacked_warnings == per_cell_warnings
        assert [m.split(" failed")[0] for m in stacked_warnings] == [
            "sweep cell k=1 alpha=0 seed=1", "sweep cell k=1 alpha=0.05 seed=1"]
        (alone,) = trainer._run_stack(
            train_set, eval_set, [replace(base, num_switches=1, seed=1)], 0.5)
        assert alone.error == "non-finite values in w_o"
        assert all(alone.error in m for m in stacked_warnings)
        assert [r.error for r in stacked] == [None, None]

    def test_empty_grid(self):
        train_set, eval_set = tiny_split()
        with pytest.raises(DomainError):
            sweep_alpha(train_set, eval_set, [], [1], TrainConfig())

    @pytest.mark.parametrize("alphas, switch_counts, seeds, match", [
        ([0.0, 0.01, 0.0], [1], (0,), "repeated alphas in the sweep grid: 0.0"),
        ([0.0], [2, 1, 2, 1], (0,), "repeated switch counts in the sweep grid: 1, 2"),
        ([0.0], [1], (3, 3), "repeated seeds in the sweep grid: 3"),
    ], ids=["alphas", "switch-counts", "seeds"])
    def test_repeated_grid_values(self, monkeypatch, alphas, switch_counts, seeds, match):
        def no_training(*args):
            raise AssertionError("a cell trained")

        monkeypatch.setattr(trainer, "_run_stack", no_training)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_training)
        train_set, eval_set = tiny_split()
        with pytest.raises(DomainError, match=match):
            sweep_alpha(train_set, eval_set, alphas, switch_counts, TrainConfig(),
                        seeds=seeds, jobs=2)

    def test_run_cell_reports_counts(self):
        train_set, eval_set = tiny_split()
        (row,) = trainer._run_stack(
            train_set, eval_set, [TrainConfig(epochs=1, hidden_dim=8)], 0.5)
        assert row.num_gt == len(eval_set[0][1])

    def test_run_cell_returns_failure_as_row(self):
        train_set, eval_set = tiny_split()
        feats, insts = eval_set[0]
        wide = np.hstack([feats, np.zeros((feats.shape[0], 1))])
        (row,) = trainer._run_stack(
            train_set, [(wide, insts)], [TrainConfig(epochs=1, hidden_dim=8)], 0.5)
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
