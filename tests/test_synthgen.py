import numpy as np
import pytest

from switchdet.exceptions import DomainError
from switchdet.synthgen import (
    SynthConfig,
    concurrency_profile,
    generate_stream,
    read_features,
    write_features,
)


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
        a = SynthConfig(length=200, arrival_rate=0.0, noise_sigma=0.0,
                        seed=1, signature_seed=7)
        b = SynthConfig(length=200, arrival_rate=0.0, noise_sigma=0.0,
                        seed=2, signature_seed=7)
        # different event streams, same class feature semantics
        from switchdet.synthgen import class_signatures
        sig_a = class_signatures(4, 16, np.random.default_rng(7))
        sig_b = class_signatures(4, 16, np.random.default_rng(7))
        assert np.array_equal(sig_a, sig_b)
        generate_stream(a), generate_stream(b)


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

    def test_rejects_non_finite_values(self, tmp_path):
        features = np.zeros((6, 4))
        features[3] = np.nan
        path = tmp_path / "nan.aswf"
        write_features(path, features)
        with pytest.raises(DomainError, match="non-finite"):
            read_features(path)
