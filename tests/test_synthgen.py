import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchdet import cli, synthgen
from switchdet.exceptions import DomainError
from switchdet.formats import read_instances
from switchdet.switchboard import ActionInterval
from switchdet.synthgen import (
    SynthConfig,
    generate_stream,
    read_features,
    write_features,
)

from oracles import concurrency_profile


def reference_generate_stream(config):
    """The stream the blocked generator must reproduce bit for bit: each
    start rescans every earlier instance, and the features are one (T x D)
    sum of signatures plus one noise draw."""
    rng = np.random.default_rng(config.seed)
    sig_seed = (
        config.seed if config.signature_seed is None else config.signature_seed
    )
    sigs = np.random.default_rng(sig_seed).normal(
        size=(config.num_classes, config.feature_dim)
    )
    sigs /= np.linalg.norm(sigs, axis=1, keepdims=True)

    instances = []
    for t in range(config.length):
        for _ in range(int(rng.poisson(config.arrival_rate))):
            duration = int(
                rng.integers(config.duration_min, config.duration_max + 1)
            )
            cls = int(rng.integers(config.num_classes))
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


def feature_file_bytes(features):
    """A feature file's bytes: the header, then the rows as f32 LE."""
    return (b"ASWF" + struct.pack("<IQI", 1, *features.shape)
            + features.astype("<f4").tobytes())


def gen_argv(cfg, out):
    argv = ["gen", "--out-features", str(out / "x.aswf"),
            "--out-instances", str(out / "x.jsonl"), "--video-id", "v"]
    for name, value in vars(cfg).items():
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv += [flag, str(value)]
    return argv


class TestConfig:
    def test_rejects_bad_durations(self):
        with pytest.raises(DomainError):
            SynthConfig(length=100, duration_min=10, duration_max=5)

    def test_rejects_negative_rate(self):
        with pytest.raises(DomainError):
            SynthConfig(length=100, arrival_rate=-0.1)

    def test_rejects_zero_length(self):
        with pytest.raises(DomainError):
            SynthConfig(length=0)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("signature_seed", -3), ("max_concurrent", 0),
        ("num_classes", 0), ("feature_dim", 0), ("noise_sigma", -0.1),
        ("noise_sigma", float("nan")), ("noise_sigma", float("inf")),
        ("arrival_rate", float("nan")), ("arrival_rate", float("inf")),
    ], ids=["seed", "signature_seed", "max_concurrent", "num_classes", "feature_dim",
            "noise_sigma-negative", "noise_sigma-nan", "noise_sigma-inf",
            "arrival_rate-nan", "arrival_rate-inf"])
    def test_rejects_bad_value(self, field, value):
        with pytest.raises(DomainError, match=field):
            SynthConfig(length=100, **{field: value})


class TestGenerate:
    def test_zero_rate_gives_pure_noise(self):
        cfg = SynthConfig(length=50, arrival_rate=0.0, noise_sigma=1.0, seed=3)
        features, instances = generate_stream(cfg)
        assert instances == []
        assert features.shape == (50, cfg.feature_dim)
        assert features.any()

    def test_noiseless_single_instance_is_signature(self):
        cfg = SynthConfig(
            length=400, arrival_rate=0.01, noise_sigma=0.0, seed=5
        )
        features, instances = generate_stream(cfg)
        assert instances, "expected at least one instance at this rate"
        conc = concurrency_profile(instances, cfg.length)
        solo = [
            i
            for i in instances
            if (conc[i.start_frame : i.end_frame + 1] == 1).all()
        ]
        assert solo, "expected at least one non-overlapped instance"
        inst = solo[0]
        row = features[inst.start_frame]
        assert np.isclose(np.linalg.norm(row), 1.0)

    def test_deterministic_per_seed(self):
        cfg = SynthConfig(length=500, arrival_rate=0.05, seed=9)
        fa, ia = generate_stream(cfg)
        fb, ib = generate_stream(cfg)
        assert np.array_equal(fa, fb)
        assert ia == ib

    def test_concurrency_capped(self):
        for seed in range(5):
            cfg = SynthConfig(
                length=2000, arrival_rate=0.2, max_concurrent=3, seed=seed
            )
            _, instances = generate_stream(cfg)
            assert concurrency_profile(instances, cfg.length).max() <= 3

    def test_overflow_flag_lifts_cap(self):
        cfg = SynthConfig(
            length=2000,
            arrival_rate=0.3,
            max_concurrent=1,
            seed=1,
            allow_overflow=True,
        )
        _, instances = generate_stream(cfg)
        assert concurrency_profile(instances, cfg.length).max() > 1

    def test_instances_inside_stream(self):
        cfg = SynthConfig(length=300, arrival_rate=0.1, seed=2)
        _, instances = generate_stream(cfg)
        for inst in instances:
            assert 0 <= inst.start_frame <= inst.end_frame < 300
            assert inst.class_id is not None

    def test_mean_concurrency_increases_with_rate(self):
        rates = (0.005, 0.02, 0.05)
        means = []
        for rate in rates:
            vals = []
            for seed in range(10):
                cfg = SynthConfig(
                    length=2000, arrival_rate=rate, seed=seed
                )
                _, instances = generate_stream(cfg)
                vals.append(concurrency_profile(instances, 2000).mean())
            means.append(np.mean(vals))
        assert means[0] < means[1] < means[2]

    def test_shared_signature_seed_aligns_streams(self):
        # Without noise, a frame where one instance is active holds exactly
        # its class's signature, whatever the stream's own seed.
        def solo_rows(seed, signature_seed):
            cfg = SynthConfig(length=2000, arrival_rate=0.02, noise_sigma=0.0,
                              seed=seed, signature_seed=signature_seed)
            features, instances = generate_stream(cfg)
            alone = concurrency_profile(instances, cfg.length) == 1
            rows = {}
            for inst in instances:
                frames = np.flatnonzero(alone[inst.start_frame : inst.end_frame + 1])
                rows.setdefault(inst.class_id, []).extend(
                    features[inst.start_frame + frames])
            return {c: np.unique(r, axis=0) for c, r in rows.items() if r}

        a, b, other = solo_rows(1, 7), solo_rows(2, 7), solo_rows(2, 8)
        assert sorted(a) == sorted(b) == sorted(other) == [0, 1, 2, 3]
        for c in a:
            assert a[c].shape == (1, 16)
            assert np.array_equal(a[c], b[c])
            assert not np.array_equal(a[c], other[c])


class TestFeatureFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(37, 8)).astype(np.float32)
        path = tmp_path / "x.aswf"
        write_features(path, features)
        back = read_features(path)
        assert back.shape == (37, 8)
        assert np.allclose(back, features, atol=0)

    def test_header(self, tmp_path):
        path = tmp_path / "x.aswf"
        write_features(path, np.zeros((3, 2)))
        raw = path.read_bytes()
        assert raw[:4] == b"ASWF"
        assert len(raw) == 20 + 4 * 3 * 2

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.aswf"
        path.write_bytes(b"not a feature file")
        with pytest.raises(DomainError):
            read_features(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda raw: raw[:4] + (2).to_bytes(4, "little") + raw[8:],
         "unsupported feature version 2"),
        (lambda raw: raw[:-4], "truncated feature file"),
        (lambda raw: raw + bytes(4), "trailing bytes in feature file"),
    ], ids=["version", "short-body", "trailing-bytes"])
    def test_rejects_bad_file(self, tmp_path, edit, match):
        path = tmp_path / "x.aswf"
        write_features(path, np.ones((3, 2)))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DomainError, match=match):
            read_features(path)

    def test_write_rejects_non_matrix(self, tmp_path):
        for features in (np.zeros(5), np.zeros((3, 0))):
            with pytest.raises(DomainError, match="2-d"):
                write_features(tmp_path / "x.aswf", features)
        assert not (tmp_path / "x.aswf").exists()

    def test_write_fails_to_convert_before_opening(self, tmp_path):
        with pytest.raises(ValueError, match="could not convert"):
            write_features(tmp_path / "x.aswf", np.array([["0.5", "a"]]))
        assert not (tmp_path / "x.aswf").exists()

    def test_rejects_non_finite_values(self, tmp_path):
        features = np.zeros((6, 4))
        features[3] = np.nan
        path = tmp_path / "nan.aswf"
        write_features(path, features)
        with pytest.raises(DomainError, match="non-finite"):
            read_features(path)


@st.composite
def blocked_streams(draw):
    """(block values, config) of a stream 1 to about 3 blocks long."""
    feature_dim = draw(st.integers(1, 5))
    block_values = draw(st.integers(1, 24))
    rows = max(1, block_values // feature_dim)
    duration_min = draw(st.integers(1, 6))
    return block_values, SynthConfig(
        length=draw(st.integers(1, 3 * rows + 1)),
        arrival_rate=draw(st.sampled_from([0.0, 0.05, 0.3, 1.5])),
        duration_min=duration_min,
        duration_max=draw(st.integers(duration_min, duration_min + 8)),
        max_concurrent=draw(st.integers(1, 3)),
        num_classes=draw(st.integers(1, 4)),
        feature_dim=feature_dim,
        noise_sigma=draw(st.sampled_from([0.0, 0.25, 1.7])),
        seed=draw(st.integers(0, 2**16)),
        allow_overflow=draw(st.booleans()),
    )


class TestBlocks:
    """Features made block by block equal the reference's bytes."""

    @settings(max_examples=120, deadline=None)
    @given(stream=blocked_streams())
    def test_blocked_stream_equals_reference(self, stream):
        block_values, cfg = stream
        with mock.patch.object(synthgen, "BLOCK_VALUES", block_values):
            features, instances = generate_stream(cfg)
        want_features, want_instances = reference_generate_stream(cfg)
        assert features.dtype == want_features.dtype
        assert features.tobytes() == want_features.tobytes()
        assert instances == want_instances

    @pytest.mark.parametrize("block_values, cfg", [
        (16 * 7, SynthConfig(length=50, arrival_rate=0.1, seed=4)),
        (5, SynthConfig(length=40, arrival_rate=0.3, feature_dim=3, max_concurrent=1,
                        allow_overflow=True, signature_seed=2, seed=1)),
        (synthgen.BLOCK_VALUES, SynthConfig(length=9000, arrival_rate=0.035, seed=3)),
    ], ids=["16-dims", "overflow", "default-block"])
    def test_gen_writes_reference_features(self, tmp_path, monkeypatch, block_values, cfg):
        monkeypatch.setattr(synthgen, "BLOCK_VALUES", block_values)
        assert cli.main(gen_argv(cfg, tmp_path)) == 0
        features, instances = reference_generate_stream(cfg)
        assert (tmp_path / "x.aswf").read_bytes() == feature_file_bytes(features)
        assert list(read_instances(tmp_path / "x.jsonl")["v"]) == instances

    def test_write_features_writes_in_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(synthgen, "BLOCK_VALUES", 10)
        features = np.random.default_rng(0).normal(size=(23, 4))
        write_features(tmp_path / "x.aswf", features)
        assert (tmp_path / "x.aswf").read_bytes() == feature_file_bytes(features)

    def test_gen_memory_does_not_grow_with_length(self, tmp_path):
        # Two blocks and sixteen: the features add one block of memory, not T rows.
        rows = synthgen.BLOCK_VALUES // 16

        def peak(length):
            tracemalloc.reset_peak()
            assert cli.main(gen_argv(SynthConfig(length=length), tmp_path)) == 0
            return tracemalloc.get_traced_memory()[1]

        cli.main(gen_argv(SynthConfig(length=10), tmp_path))
        tracemalloc.start()
        try:
            short, long = peak(2 * rows), peak(16 * rows)
        finally:
            tracemalloc.stop()
        assert long - short < 2**20
