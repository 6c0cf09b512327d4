import argparse
import json
import struct
from dataclasses import fields

import numpy as np
import pytest

from switchdet import cli
from switchdet.cli import main
from switchdet.formats import write_instances, write_state_sequence
from switchdet.scorer import init_params, save_checkpoint
from switchdet.switchboard import ActionInterval, SwitchConfig
from switchdet.synthgen import SynthConfig, write_features
from switchdet.trainer import TrainConfig


def run(*argv):
    return main([str(a) for a in argv])


def read_lines(path):
    return path.read_text().splitlines()


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 1

    def test_unknown_flag(self):
        assert run("decode", "--bogus") == 1

    def test_missing_input_file(self, tmp_path):
        assert (
            run(
                "decode",
                "--states", tmp_path / "absent.json",
                "--out", tmp_path / "out.jsonl",
            )
            == 2
        )

    def test_help_exits_zero(self):
        assert run("--help") == 0


class TestDecode:
    @pytest.fixture
    def states_file(self, tmp_path):
        path = tmp_path / "s.json"
        write_state_sequence(
            path, "demo", SwitchConfig(2), [0, 1, 1, 3, 3, 2, 2, 2, 0]
        )
        return path

    def test_decode_reference(self, states_file, tmp_path):
        out = tmp_path / "out.jsonl"
        assert run("decode", "--states", states_file, "--out", out) == 0
        recs = [json.loads(l) for l in read_lines(out)]
        assert [(r["start"], r["end"]) for r in recs] == [(1, 4), (3, 7)]

    def test_streaming_matches_batch_bytes(self, states_file, tmp_path):
        batch = tmp_path / "batch.jsonl"
        stream = tmp_path / "stream.jsonl"
        assert run("decode", "--states", states_file, "--out", batch) == 0
        assert (
            run("decode", "--states", states_file, "--streaming", "--out", stream)
            == 0
        )
        assert batch.read_bytes() == stream.read_bytes()

    def test_manifest_written(self, states_file, tmp_path):
        out = tmp_path / "out.jsonl"
        run("decode", "--states", states_file, "--out", out)
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        assert manifest["command"] == "decode"
        assert str(states_file) in manifest["inputs"]


class TestEncode:
    def test_round_trip_via_files(self, tmp_path):
        inst = tmp_path / "gt.jsonl"
        write_instances(
            inst, {"v": [ActionInterval(1, 4), ActionInterval(3, 7)]}
        )
        states = tmp_path / "s.json"
        report = tmp_path / "report.json"
        assert (
            run(
                "encode",
                "--instances", inst,
                "--length", 9,
                "--num-switches", 2,
                "--out", states,
                "--report", report,
            )
            == 0
        )
        obj = json.loads(states.read_text())
        assert obj["labels"] == [0, 1, 1, 3, 3, 2, 2, 2, 0]
        rep = json.loads(report.read_text())
        assert rep["num_dropped"] == 0

        out = tmp_path / "decoded.jsonl"
        assert run("decode", "--states", states, "--out", out) == 0
        recs = [json.loads(l) for l in read_lines(out)]
        assert [(r["start"], r["end"]) for r in recs] == [(1, 4), (3, 7)]


class TestGenTrainInferEval:
    def test_full_pipeline(self, tmp_path):
        feats = tmp_path / "x.aswf"
        gts = tmp_path / "gt.jsonl"
        assert (
            run(
                "gen",
                "--length", 800,
                "--arrival-rate", 0.03,
                "--noise-sigma", 0.1,
                "--seed", 5,
                "--out-features", feats,
                "--out-instances", gts,
            )
            == 0
        )
        ckpt = tmp_path / "model.aswp"
        history = tmp_path / "history.jsonl"
        assert (
            run(
                "train",
                "--video", feats, gts,
                "--epochs", 2,
                "--hidden-dim", 8,
                "--num-switches", 2,
                "--out-checkpoint", ckpt,
                "--out-history", history,
            )
            == 0
        )
        assert len(read_lines(history)) == 2
        preds = tmp_path / "preds.jsonl"
        assert (
            run(
                "infer",
                "--checkpoint", ckpt,
                "--features", feats,
                "--num-switches", 2,
                "--out", preds,
            )
            == 0
        )
        report = tmp_path / "f1.json"
        assert (
            run(
                "eval-f1",
                "--preds", gts,
                "--gts", gts,
                "--tiou", 0.5,
                "--out", report,
            )
            == 0
        )
        assert json.loads(report.read_text())["f1"] == 1.0

    def test_default_video_ids_compose(self, tmp_path):
        """gen and infer name their video alike, so eval-f1 can compare them."""
        feats, gts, ckpt, preds, report = (
            tmp_path / n for n in ("x.aswf", "gt.jsonl", "m.aswp", "p.jsonl", "f1.json"))
        assert run("gen", "--length", 300, "--feature-dim", 4, "--out-features", feats,
                   "--out-instances", gts) == 0
        assert run("train", "--video", feats, gts, "--epochs", 1, "--hidden-dim", 4,
                   "--out-checkpoint", ckpt) == 0
        assert run("infer", "--checkpoint", ckpt, "--features", feats,
                   "--num-switches", 2, "--out", preds) == 0
        assert run("eval-f1", "--preds", preds, "--gts", gts, "--out", report) == 0

    def test_eval_map_and_odas(self, tmp_path):
        gts = tmp_path / "gt.jsonl"
        preds = tmp_path / "p.jsonl"
        write_instances(gts, {"v": [ActionInterval(10, 40, class_id=1)]})
        write_instances(
            preds, {"v": [ActionInterval(10, 40, class_id=1, score=0.9)]}
        )
        out = tmp_path / "map.json"
        assert (
            run("eval-map", "--preds", preds, "--gts", gts, "--out", out) == 0
        )
        assert json.loads(out.read_text())["average_map"] == 1.0

        odas = tmp_path / "odas.json"
        assert (
            run(
                "eval-odas",
                "--preds", preds,
                "--gts", gts,
                "--fps", 2.0,
                "--out", odas,
            )
            == 0
        )
        obj = json.loads(odas.read_text())
        assert obj["p_map"] == 1.0
        # second offsets {1,2,3} at 2 fps become frame offsets {2,4,6}
        assert set(obj["p_ap"]) == {"2", "4", "6"}


class TestSweepCli:
    def test_sweep_reruns_identical(self, tmp_path):
        args = [
            "sweep",
            "--alphas", "0,0.05",
            "--switches", "1",
            "--length", 600,
            "--eval-length", 400,
            "--epochs", 1,
            "--hidden-dim", 8,
            "--num-seeds", 2,
            "--seed", 7,
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        header = read_lines(a)[0]
        assert header == (
            "num_switches,alpha,f1,precision,recall,num_proposals,num_gt,seed"
        )
        assert len(read_lines(a)) == 3


def make_checkpoint(path):
    """An untrained k=2 checkpoint over 16-dim features."""
    save_checkpoint(path, init_params(16, 8, 4, seed=0))


class TestInferInput:
    def test_empty_stream_writes_nothing(self, tmp_path):
        feats = tmp_path / "empty.aswf"
        write_features(feats, np.zeros((0, 16)))
        ckpt = tmp_path / "m.aswp"
        make_checkpoint(ckpt)
        out = tmp_path / "preds.jsonl"
        assert (
            run("infer", "--checkpoint", ckpt, "--features", feats,
                "--num-switches", 2, "--out", out)
            == 0
        )
        assert out.read_text() == ""

    def test_non_finite_features_exit_2(self, tmp_path):
        features = np.random.default_rng(0).normal(size=(200, 16))
        features[57] = np.nan
        feats = tmp_path / "nan.aswf"
        write_features(feats, features)
        ckpt = tmp_path / "m.aswp"
        make_checkpoint(ckpt)
        out = tmp_path / "preds.jsonl"
        assert (
            run("infer", "--checkpoint", ckpt, "--features", feats,
                "--num-switches", 2, "--out", out)
            == 2
        )
        assert not out.exists()

    def test_zero_column_features_exit_2(self, tmp_path):
        # T = 2^40 frames of D = 0 columns: a 20-byte file that claims 8 TiB of work.
        feats = tmp_path / "x.aswf"
        feats.write_bytes(b"ASWF" + struct.pack("<IQI", 1, 1 << 40, 0))
        ckpt = tmp_path / "m.aswp"
        make_checkpoint(ckpt)
        gts = tmp_path / "gt.jsonl"
        gts.write_text("")
        preds, out = tmp_path / "p.jsonl", tmp_path / "m2.aswp"
        assert run("infer", "--checkpoint", ckpt, "--features", feats,
                   "--num-switches", 2, "--out", preds) == 2
        assert run("train", "--video", feats, gts, "--out-checkpoint", out) == 2
        assert not preds.exists() and not out.exists()

    def test_zero_dim_checkpoint_exit_2(self, tmp_path):
        # D = 16, H = 0, S = 4: a header whose only parameters are the head bias.
        ckpt = tmp_path / "m.aswp"
        ckpt.write_bytes(b"ASWP" + struct.pack("<IIII", 1, 16, 0, 4) + bytes(32))
        feats = tmp_path / "x.aswf"
        write_features(feats, np.zeros((20, 16)))
        out = tmp_path / "preds.jsonl"
        assert run("infer", "--checkpoint", ckpt, "--features", feats,
                   "--num-switches", 2, "--out", out) == 2
        assert not out.exists()
        assert not (tmp_path / "preds.jsonl.manifest.json").exists()


class TestInferSwitchCount:
    """infer takes k from the checkpoint's S = 2^k states; --num-switches
    is an optional check of it."""

    @pytest.fixture
    def inputs(self, tmp_path):
        feats, ckpt = tmp_path / "x.aswf", tmp_path / "m.aswp"
        write_features(feats, np.random.default_rng(0).normal(size=(300, 16)))
        save_checkpoint(ckpt, init_params(16, 8, 8, seed=0))  # S = 8, k = 3
        return ckpt, feats

    def test_flag_is_optional_and_changes_nothing(self, inputs, tmp_path):
        ckpt, feats = inputs
        for name, flag in (("given", ["--num-switches", 3]), ("default", [])):
            assert run("infer", "--checkpoint", ckpt, "--features", feats, *flag,
                       "--out", tmp_path / f"{name}.jsonl") == 0
        given, default = (tmp_path / f"{n}.jsonl" for n in ("given", "default"))
        assert default.read_bytes() == given.read_bytes()
        manifests = [json.loads(p.with_name(p.name + ".manifest.json").read_text())
                     for p in (given, default)]
        assert [m["config"] for m in manifests] == [
            {"num_switches": 3, "video_id": "video"}] * 2

    def test_mismatched_flag_exits_2(self, inputs, tmp_path, capsys):
        ckpt, feats = inputs
        out = tmp_path / "p.jsonl"
        assert run("infer", "--checkpoint", ckpt, "--features", feats,
                   "--num-switches", 2, "--out", out) == 2
        assert "whose 8 states give k = 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("states", [1, 6, 1 << 17])
    @pytest.mark.parametrize("flag", [[], ["--num-switches", 2]], ids=["default", "flag"])
    def test_state_count_not_a_switch_power_exits_2(self, tmp_path, capsys, states, flag):
        feats, ckpt, out = tmp_path / "x.aswf", tmp_path / "m.aswp", tmp_path / "p.jsonl"
        write_features(feats, np.zeros((5, 2)))
        save_checkpoint(ckpt, init_params(2, 1, states, seed=0))
        assert run("infer", "--checkpoint", ckpt, "--features", feats, *flag,
                   "--out", out) == 2
        assert f"{states} states is not 2^k" in capsys.readouterr().err
        assert not out.exists()


class TestConfigDataErrors:
    """Settings a config rejects exit 2 before any stream is generated or read,
    and a training set without frames exits 2; none writes an output."""

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"), ("--signature-seed", "-3"), ("--noise-sigma", "nan"),
        ("--noise-sigma", "inf"), ("--arrival-rate", "nan"), ("--arrival-rate", "inf"),
    ], ids=["seed", "signature-seed", "noise-sigma-nan", "noise-sigma-inf",
            "arrival-rate-nan", "arrival-rate-inf"])
    def test_gen(self, tmp_path, monkeypatch, flag, value):
        generated, generate = [], cli.generate_stream
        monkeypatch.setattr(cli, "generate_stream",
                            lambda cfg: generated.append(cfg) or generate(cfg))
        assert run("gen", "--length", 50, flag, value, "--out-features",
                   tmp_path / "x.aswf", "--out-instances", tmp_path / "x.jsonl") == 2
        assert generated == []
        assert list(tmp_path.iterdir()) == []

    def test_train_negative_seed(self, tmp_path, monkeypatch):
        read = []
        monkeypatch.setattr(cli, "read_features", read.append)
        ckpt = tmp_path / "m.aswp"
        assert run("train", "--video", tmp_path / "x.aswf", tmp_path / "gt.jsonl",
                   "--seed", -2, "--out-checkpoint", ckpt) == 2
        assert read == []
        assert not ckpt.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--video", "x.aswf", "gt.jsonl", "--num-switches", 0,
         "--out-checkpoint", "m.aswp"],
        ["infer", "--checkpoint", "m.aswp", "--features", "x.aswf",
         "--num-switches", 17, "--out", "p.jsonl"],
    ], ids=["train", "infer"])
    def test_switch_count_before_reading(self, tmp_path, monkeypatch, argv):
        read = []
        monkeypatch.setattr(cli, "read_features", read.append)
        monkeypatch.chdir(tmp_path)
        make_checkpoint(tmp_path / "m.aswp")
        assert run(*argv) == 2
        assert read == []
        assert [p.name for p in tmp_path.iterdir()] == ["m.aswp"]

    def test_train_without_frames(self, tmp_path, capsys):
        feats, gts = tmp_path / "x.aswf", tmp_path / "gt.jsonl"
        write_features(feats, np.zeros((0, 4)))
        gts.write_text("")
        ckpt, history = tmp_path / "m.aswp", tmp_path / "h.jsonl"
        assert run("train", "--video", feats, gts, "--epochs", 1, "--hidden-dim", 4,
                   "--out-checkpoint", ckpt, "--out-history", history) == 2
        assert "no frame" in capsys.readouterr().err
        assert not ckpt.exists() and not history.exists()


class TestOneVideoPerInstanceFile:
    @pytest.fixture
    def two_videos(self, tmp_path):
        path = tmp_path / "two.jsonl"
        write_instances(
            path, {"a": [ActionInterval(1, 4)], "b": [ActionInterval(3, 7)]}
        )
        return path

    def encode(self, instances, tmp_path, *extra):
        out = tmp_path / "s.json"
        code = run("encode", "--instances", instances, "--length", 9,
                   "--num-switches", 2, "--out", out, *extra)
        return code, out

    def test_encode_rejects_several_videos(self, two_videos, tmp_path):
        code, _ = self.encode(two_videos, tmp_path)
        assert code == 2

    def test_encode_takes_the_named_video(self, two_videos, tmp_path):
        code, out = self.encode(two_videos, tmp_path, "--video-id", "b")
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["video_id"] == "b"
        assert obj["labels"] == [0, 0, 0, 1, 1, 1, 1, 1, 0]

    def test_encode_rejects_a_video_not_in_the_file(self, two_videos, tmp_path):
        code, _ = self.encode(two_videos, tmp_path, "--video-id", "c")
        assert code == 2

    def test_encode_of_empty_file_is_all_idle(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, out = self.encode(empty, tmp_path)
        assert code == 0
        assert json.loads(out.read_text())["labels"] == [0] * 9

    def test_train_rejects_several_videos(self, two_videos, tmp_path):
        feats = tmp_path / "x.aswf"
        write_features(feats, np.zeros((9, 4)))
        ckpt = tmp_path / "m.aswp"
        assert (
            run("train", "--video", feats, two_videos, "--epochs", 1,
                "--hidden-dim", 4, "--out-checkpoint", ckpt)
            == 2
        )
        assert not ckpt.exists()


def test_eval_odas_rejects_mixed_ground_truth(tmp_path):
    gts = tmp_path / "gt.jsonl"
    preds = tmp_path / "p.jsonl"
    write_instances(
        gts, {"v": [ActionInterval(10, 40, class_id=1), ActionInterval(50, 60)]}
    )
    write_instances(preds, {"v": [ActionInterval(10, 40, class_id=1, score=0.9)]})
    out = tmp_path / "odas.json"
    assert (
        run("eval-odas", "--preds", preds, "--gts", gts, "--fps", 2.0,
            "--out", out)
        == 2
    )


@pytest.mark.parametrize("command", ["eval-f1", "eval-map", "eval-odas"])
def test_eval_rejects_disjoint_video_ids(tmp_path, command):
    gts = tmp_path / "gt.jsonl"
    preds = tmp_path / "p.jsonl"
    write_instances(gts, {"synth": [ActionInterval(10, 40, class_id=1)]})
    write_instances(
        preds, {"video": [ActionInterval(10, 40, class_id=1, score=0.9)]}
    )
    out = tmp_path / "report.json"
    extra = ["--fps", 2.0] if command == "eval-odas" else []
    assert run(command, "--preds", preds, "--gts", gts, *extra, "--out", out) == 2
    assert not out.exists()


def test_eval_of_empty_prediction_file(tmp_path):
    gts = tmp_path / "gt.jsonl"
    preds = tmp_path / "p.jsonl"
    write_instances(gts, {"synth": [ActionInterval(10, 40, class_id=1)]})
    preds.write_text("")
    out = tmp_path / "f1.json"
    assert run("eval-f1", "--preds", preds, "--gts", gts, "--out", out) == 0
    assert json.loads(out.read_text())["f1"] == 0.0


@pytest.mark.parametrize("command", ["eval-f1", "eval-map", "eval-odas"])
def test_eval_rejects_non_string_video_id(tmp_path, command):
    gts = tmp_path / "gt.jsonl"
    preds = tmp_path / "p.jsonl"
    write_instances(gts, {"v": [ActionInterval(10, 40, class_id=1)]})
    records = [
        {"video_id": vid, "start": 10, "end": 40, "class_id": 1,
         "score": 0.9, "truncated": False}
        for vid in (5, "v")
    ]
    preds.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "report.json"
    extra = ["--fps", 2.0] if command == "eval-odas" else []
    assert run(command, "--preds", preds, "--gts", gts, *extra, "--out", out) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval-f1", "eval-map", "eval-odas"])
@pytest.mark.parametrize("side", ["--preds", "--gts"])
@pytest.mark.parametrize("fields", [
    {"end": 10**23},  # beyond int64
    {"score": float("nan")},  # written as the NaN token
    {"score": float("inf")},  # written as the Infinity token
], ids=["huge-frame", "nan-score", "infinity-score"])
def test_eval_rejects_values_beyond_the_columns(tmp_path, capsys, command, side, fields):
    paths = {"--preds": tmp_path / "p.jsonl", "--gts": tmp_path / "gt.jsonl"}
    good = {"video_id": "v", "start": 1, "end": 5, "class_id": 1, "score": 0.9,
            "truncated": False}
    for path in paths.values():
        path.write_text(json.dumps(good) + "\n")
    bad = paths[side]
    bad.write_text(json.dumps(good) + "\n" + json.dumps(good | fields) + "\n")
    out = tmp_path / "report.json"
    extra = ["--fps", 2.0] if command == "eval-odas" else []
    assert run(command, "--preds", paths["--preds"], "--gts", paths["--gts"], *extra,
               "--out", out) == 2
    assert f"{bad}:2: " in capsys.readouterr().err
    assert not out.exists()


class TestParserReuse:
    """main builds its parser once per process; no call may leak into the next.

    Each call of a sequence on the shared parser must write what the same
    call writes on a fresh parser, so no default or ``append`` list carries
    over from an earlier call.
    """

    @staticmethod
    def outputs(argv, files):
        assert run(*argv) == 0
        return [f.read_bytes() for f in files]

    def check_sequence(self, calls):
        """calls: (argv, files written) in order; files include manifests."""
        want = []
        for argv, files in calls:
            cli._parser.cache_clear()
            want.append(self.outputs(argv, files))
        cli._parser.cache_clear()
        parser = cli._parser()
        for (argv, files), expected in zip(calls, want):
            assert self.outputs(argv, files) == expected
        assert cli._parser() is parser

    @pytest.fixture
    def scored(self, tmp_path):
        gts, preds = tmp_path / "gt.jsonl", tmp_path / "p.jsonl"
        write_instances(gts, {"v": [ActionInterval(10, 40, class_id=1),
                                    ActionInterval(30, 70, class_id=2)]})
        write_instances(preds, {"v": [ActionInterval(12, 40, class_id=1, score=0.9),
                                      ActionInterval(45, 70, class_id=2, score=0.8)]})
        return preds, gts

    def test_eval_map_tious_then_default(self, scored, tmp_path):
        preds, gts = scored
        out = tmp_path / "map.json"
        files = [out, tmp_path / "map.json.manifest.json"]
        base = ["eval-map", "--preds", preds, "--gts", gts, "--out", out]
        self.check_sequence(
            [(base + ["--tious", "0.5,0.9"], files), (base, files)]
        )

    def test_eval_odas_default_offsets(self, scored, tmp_path):
        preds, gts = scored
        out = tmp_path / "odas.json"
        files = [out, tmp_path / "odas.json.manifest.json"]
        base = ["eval-odas", "--preds", preds, "--gts", gts, "--fps", 2.0, "--out", out]
        self.check_sequence(
            [(base, files), (base + ["--offsets-seconds", "5"], files), (base, files)]
        )

    def test_encode_report_then_none(self, tmp_path):
        inst, states, report = (tmp_path / n for n in ("i.jsonl", "s.json", "r.json"))
        write_instances(inst, {"v": [ActionInterval(1, 4), ActionInterval(3, 7)]})
        manifest = tmp_path / "s.json.manifest.json"
        base = ["encode", "--instances", inst, "--length", 9, "--num-switches", 2,
                "--out", states]
        self.check_sequence(
            [(base + ["--report", report], [states, report, manifest]),
             (base, [states, manifest])]
        )

    def test_train_two_videos_then_one(self, tmp_path):
        pairs = []
        for seed in (1, 2):
            feats, insts = tmp_path / f"x{seed}.aswf", tmp_path / f"x{seed}.jsonl"
            assert run("gen", "--length", 200, "--seed", seed, "--feature-dim", 4,
                       "--out-features", feats, "--out-instances", insts) == 0
            pairs.append(["--video", feats, insts])
        ckpt = tmp_path / "model.aswp"
        files = [ckpt, tmp_path / "model.aswp.manifest.json"]
        base = ["train", "--epochs", 1, "--hidden-dim", 4, "--bptt-len", 32,
                "--out-checkpoint", ckpt]
        self.check_sequence(
            [(base + pairs[0] + pairs[1], files), (base + pairs[1], files)]
        )


@pytest.fixture
def one_scored(tmp_path):
    """(predictions, ground truth): one scored, classed interval that matches."""
    gts, preds = tmp_path / "gt.jsonl", tmp_path / "p.jsonl"
    write_instances(gts, {"v": [ActionInterval(10, 40, class_id=1)]})
    write_instances(preds, {"v": [ActionInterval(10, 40, class_id=1, score=0.9)]})
    return preds, gts


class TestManifests:
    """Every subcommand's manifest: command, seed, file flags and config.

    Inputs and outputs list exactly the file flags given, in flag order,
    with the primary output first; the manifest sits next to that output.
    """

    @staticmethod
    def check(primary, command, seed, inputs, outputs, config):
        manifest = json.loads(
            primary.with_name(primary.name + ".manifest.json").read_text()
        )
        assert manifest == {
            "command": command,
            "seed": seed,
            "inputs": [str(p) for p in inputs],
            "outputs": [str(p) for p in outputs],
            "config": config,
            "version": cli.__version__,
        }

    @pytest.fixture
    def stream(self, tmp_path):
        feats, gts = tmp_path / "x.aswf", tmp_path / "gt.jsonl"
        assert run("gen", "--length", 300, "--arrival-rate", 0.03, "--seed", 5,
                   "--feature-dim", 4, "--out-features", feats,
                   "--out-instances", gts) == 0
        return feats, gts

    def test_gen(self, stream):
        feats, gts = stream
        self.check(feats, "gen", 5, [], [feats, gts], {
            "length": 300, "arrival_rate": 0.03, "duration_min": 20,
            "duration_max": 60, "max_concurrent": 2, "num_classes": 4,
            "feature_dim": 4, "noise_sigma": 0.25, "seed": 5,
            "signature_seed": None, "allow_overflow": False, "video_id": "video",
        })

    @pytest.mark.parametrize("with_report", [True, False])
    def test_encode(self, tmp_path, with_report):
        inst, states, report = (tmp_path / n for n in ("i.jsonl", "s.json", "r.json"))
        write_instances(inst, {"v": [ActionInterval(1, 4)]})
        flag = ["--report", report] if with_report else []
        assert run("encode", "--instances", inst, "--length", 9,
                   "--num-switches", 2, "--out", states, *flag) == 0
        outputs = [states, report] if with_report else [states]
        self.check(states, "encode", None, [inst], outputs, {
            "length": 9, "num_switches": 2, "policy": "drop-newest", "video_id": "v",
        })
        assert report.exists() == with_report

    def test_decode(self, tmp_path):
        states, batch, stream = (tmp_path / n for n in ("s.json", "b.jsonl", "t.jsonl"))
        write_state_sequence(states, "v", SwitchConfig(2), [0, 1, 3, 0])
        assert run("decode", "--states", states, "--out", batch) == 0
        self.check(batch, "decode", None, [states], [batch],
                   {"num_switches": 2, "streaming": False})
        # The switch count is the state file's; decode has no flag for it.
        assert run("decode", "--states", states, "--streaming", "--out", stream) == 0
        self.check(stream, "decode", None, [states], [stream],
                   {"num_switches": 2, "streaming": True})

    @pytest.mark.parametrize("with_history", [True, False])
    def test_train_and_infer(self, stream, tmp_path, with_history):
        feats, gts = stream
        feats2, gts2 = tmp_path / "x2.aswf", tmp_path / "gt2.jsonl"
        feats2.write_bytes(feats.read_bytes())
        gts2.write_bytes(gts.read_bytes())
        ckpt, history, preds = (tmp_path / n for n in ("m.aswp", "h.jsonl", "p.jsonl"))
        flag = ["--out-history", history] if with_history else []
        assert run("train", "--video", feats, gts, "--video", feats2, gts2,
                   "--epochs", 1, "--hidden-dim", 4, "--bptt-len", 32,
                   "--seed", 3, "--out-checkpoint", ckpt, *flag) == 0
        outputs = [ckpt, history] if with_history else [ckpt]
        self.check(ckpt, "train", 3, [feats, gts, feats2, gts2], outputs, {
            "alpha": 0.0, "learning_rate": 1e-3, "epochs": 1, "bptt_len": 32,
            "seed": 3, "num_switches": 2, "hidden_dim": 4,
        })
        assert history.exists() == with_history
        assert run("infer", "--checkpoint", ckpt, "--features", feats,
                   "--num-switches", 2, "--out", preds) == 0
        self.check(preds, "infer", None, [ckpt, feats], [preds],
                   {"num_switches": 2, "video_id": "video"})

    def test_eval(self, one_scored, tmp_path):
        preds, gts = one_scored
        f1, mean_ap, odas = (tmp_path / n for n in ("f1.json", "map.json", "odas.json"))
        assert run("eval-f1", "--preds", preds, "--gts", gts, "--out", f1) == 0
        self.check(f1, "eval-f1", None, [preds, gts], [f1], {"tiou": 0.5})
        assert run("eval-map", "--preds", preds, "--gts", gts, "--out", mean_ap) == 0
        self.check(mean_ap, "eval-map", None, [preds, gts], [mean_ap],
                   {"tious": [0.3, 0.4, 0.5, 0.6, 0.7]})
        assert run("eval-odas", "--preds", preds, "--gts", gts, "--fps", 2.0,
                   "--offsets-seconds", "1,2.5", "--out", odas) == 0
        self.check(odas, "eval-odas", None, [preds, gts], [odas], {
            "fps": 2.0, "offsets_seconds": [1.0, 2.5], "offsets_frames": [2, 5],
        })

    def test_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--alphas", "0", "--switches", "1", "--length", 300,
                   "--eval-length", 200, "--epochs", 1, "--hidden-dim", 4,
                   "--num-seeds", 1, "--seed", 7, "--out", out) == 0
        # The synthetic-stream and training configs the sweep ran, without the
        # alpha and num_switches every cell replaces, plus the grid.
        self.check(out, "sweep", 7, [], [out], {
            "length": 300, "arrival_rate": 0.02, "duration_min": 20,
            "duration_max": 60, "max_concurrent": 2, "num_classes": 4,
            "feature_dim": 16, "noise_sigma": 0.25, "seed": 7,
            "signature_seed": 7001, "allow_overflow": False,
            "learning_rate": 1e-3, "epochs": 1, "bptt_len": 128, "hidden_dim": 4,
            "alphas": [0.0], "switches": [1], "seeds": [7], "tiou": 0.5,
            "eval_length": 200, "train_videos": 2, "eval_videos": 1,
        })

    SWEEP = ["sweep", "--alphas", "0", "--switches", "1", "--length", 300,
             "--eval-length", 200, "--epochs", 1, "--hidden-dim", 4,
             "--num-seeds", 1, "--train-videos", 1]

    @pytest.mark.parametrize("flag, value", [
        ("--epochs", 2), ("--learning-rate", 0.002), ("--hidden-dim", 5),
        ("--bptt-len", 64), ("--train-videos", 2), ("--eval-videos", 2),
    ])
    def test_sweep_records_its_settings(self, tmp_path, flag, value):
        """A setting that changes the sweep's output changes its manifest."""
        configs = []
        for name, extra in (("a.csv", []), ("b.csv", [flag, value])):
            out = tmp_path / name
            assert run(*self.SWEEP, *extra, "--out", out) == 0
            manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            configs.append(manifest["config"])
        assert configs[0] != configs[1]

    # jobs changes no output; num_seeds is recorded as the list of seeds.
    UNRECORDED = {"jobs", "num_seeds"}

    def test_every_setting_is_recorded(self, stream, tmp_path):
        """Each non-file flag of each subcommand is a key of its manifest config."""
        feats, gts = stream
        states, ckpt, scored = (tmp_path / n for n in ("s.json", "m.aswp", "sp.jsonl"))
        write_instances(scored, {"v": [ActionInterval(10, 40, class_id=1, score=0.9)]})
        evaluation = ["--preds", scored, "--gts", scored]
        runs = [  # (subcommand, primary output, the remaining flags)
            ("encode", states, ["--instances", gts, "--length", 300,
                                "--num-switches", 2]),
            ("decode", tmp_path / "d.jsonl", ["--states", states]),
            ("train", ckpt, ["--video", feats, gts, "--epochs", 1,
                             "--hidden-dim", 4]),
            ("infer", tmp_path / "p.jsonl", ["--checkpoint", ckpt, "--features",
                                             feats, "--num-switches", 2]),
            ("eval-f1", tmp_path / "f1.json", evaluation),
            ("eval-map", tmp_path / "map.json", evaluation),
            ("eval-odas", tmp_path / "odas.json", evaluation + ["--fps", 2.0]),
            ("sweep", tmp_path / "sweep.csv", self.SWEEP[1:]),
        ]
        primary = {"gen": feats}
        for command, out, flags in runs:
            out_flag = "--out-checkpoint" if command == "train" else "--out"
            assert run(command, *flags, out_flag, out) == 0
            primary[command] = out
        parser = cli.build_parser()
        [subcommands] = [a.choices for a in parser._actions
                         if isinstance(a, argparse._SubParsersAction)]
        assert set(subcommands) == set(primary)
        for command, sub in subcommands.items():
            manifest = primary[command].with_name(primary[command].name + ".manifest.json")
            recorded = set(json.loads(manifest.read_text())["config"])
            settings = {a.dest for a in sub._actions
                        if not isinstance(a, argparse._HelpAction)
                        and a.type not in (cli._In, cli._Out)}
            assert settings - self.UNRECORDED <= recorded, command


class TestConfigFlagDefaults:
    """gen, train and sweep take their config flags from the config fields: a
    flag's default is its field's default, and only the listed fields have none."""

    @pytest.mark.parametrize("argv, configs, flagless", [
        (["gen", "--out-features", "x", "--out-instances", "y"], [SynthConfig], set()),
        (["train", "--video", "x", "y", "--out-checkpoint", "z"], [TrainConfig], set()),
        (["sweep", "--out", "x"], [SynthConfig, TrainConfig],
         {"alpha", "num_switches", "signature_seed", "allow_overflow"}),
    ], ids=["gen", "train", "sweep"])
    def test_flag_defaults_are_field_defaults(self, argv, configs, flagless):
        parsed = vars(cli.build_parser().parse_args(argv))
        names = {f.name for cls in configs for f in fields(cls)}
        assert names - set(parsed) == flagless
        for f in (f for cls in configs for f in fields(cls)):
            # length has no field default; gen and sweep each set their own.
            if f.name in parsed and f.name != "length":
                assert parsed[f.name] == f.default, f.name


class TestUsageErrors:
    """Bad flag values are usage errors (exit 1) that write nothing."""

    @pytest.mark.parametrize("argv", [
        ["eval-map", "--tious", "0.5,abc"],
        ["eval-odas", "--fps", 2.0, "--offsets-seconds", "x"],
        ["sweep", "--alphas", "0,zz"],
        ["sweep", "--switches", "1.5"],
        ["eval-map", "--tious", ","],
        ["eval-odas", "--fps", 2.0, "--offsets-seconds", ","],
        ["sweep", "--switches", ","],
    ], ids=["tious", "offsets-seconds", "alphas", "switches", "tious-empty",
            "offsets-seconds-empty", "switches-empty"])
    def test_bad_list_element(self, one_scored, tmp_path, argv):
        preds, gts = one_scored
        out = tmp_path / "out.json"
        inputs = [] if argv[0] == "sweep" else ["--preds", preds, "--gts", gts]
        assert run(*argv, *inputs, "--out", out) == 1
        assert not out.exists()
        assert not (tmp_path / "out.json.manifest.json").exists()

    @pytest.mark.parametrize("fps", ["nan", "inf", "0", "-2"])
    def test_eval_odas_fps_finite_and_positive(self, one_scored, tmp_path, fps):
        preds, gts = one_scored
        out = tmp_path / "odas.json"
        assert run("eval-odas", "--preds", preds, "--gts", gts, "--fps", fps,
                   "--out", out) == 1
        assert not out.exists()

    @pytest.mark.parametrize("offsets", ["nan", "inf", "0", "-1", "1,nan"])
    def test_eval_odas_offsets_finite_and_positive(self, one_scored, tmp_path, offsets):
        preds, gts = one_scored
        out = tmp_path / "odas.json"
        assert run("eval-odas", "--preds", preds, "--gts", gts, "--fps", 2.0,
                   "--offsets-seconds", offsets, "--out", out) == 1
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "0", "1.5", "-0.5"])
    @pytest.mark.parametrize("command, flag", [
        ("eval-f1", "--tiou"), ("eval-map", "--tious"), ("sweep", "--tiou"),
    ])
    def test_tiou_in_unit_interval(self, one_scored, tmp_path, command, flag, value):
        preds, gts = one_scored
        out = tmp_path / "out.json"
        inputs = [] if command == "sweep" else ["--preds", preds, "--gts", gts]
        if command == "eval-map":
            value = "0.5," + value
        assert run(command, *inputs, flag, value, "--out", out) == 1
        assert not out.exists()
        assert not (tmp_path / "out.json.manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--alpha", 0.3],
        ["sweep", "--num-switches", 5],
        ["decode", "--num-switches", 2],
    ], ids=["sweep-alpha", "sweep-num-switches", "decode-num-switches"])
    def test_removed_flags(self, tmp_path, argv):
        """Flags that could not change any output no longer exist."""
        states = tmp_path / "s.json"
        write_state_sequence(states, "v", SwitchConfig(2), [0, 1, 3, 0])
        inputs = ["--states", states] if argv[0] == "decode" else []
        out = tmp_path / "out.csv"
        assert run(*argv, *inputs, "--out", out) == 1
        assert not out.exists()
        assert not (tmp_path / "out.csv.manifest.json").exists()

    @pytest.mark.parametrize("flags, code", [
        (["--alphas", "0,nan"], 1), (["--alphas", "0,-0.5"], 1),
        (["--alphas", "inf"], 1), (["--switches", "0,1"], 1),
        (["--switches", "17"], 1), (["--learning-rate", "nan"], 2),
        (["--epochs", "0"], 2), (["--alphas", ","], 1), (["--num-seeds", "0"], 1),
        (["--train-videos", "0"], 1), (["--eval-videos", "0"], 1),
        (["--jobs", "0"], 1), (["--eval-length", "0"], 2),
        (["--seed", "-1"], 2), (["--hidden-dim", "0"], 2),
        (["--noise-sigma", "nan"], 2), (["--arrival-rate", "inf"], 2),
        (["--alphas", "0,0"], 2), (["--switches", "1,1", "--jobs", "2"], 2),
    ], ids=["alphas-nan", "alphas-negative", "alphas-inf", "switches-0",
            "switches-17", "learning-rate-nan", "epochs-0", "alphas-empty",
            "num-seeds-0", "train-videos-0", "eval-videos-0", "jobs-0", "eval-length-0",
            "seed--1", "hidden-dim-0", "noise-sigma-nan", "arrival-rate-inf",
            "alphas-repeated", "switches-repeated"])
    def test_sweep_fails_before_generating(self, tmp_path, monkeypatch, flags, code):
        generated, generate = [], cli.generate_stream
        monkeypatch.setattr(cli, "generate_stream",
                            lambda cfg: generated.append(cfg) or generate(cfg))
        out = tmp_path / "sweep.csv"
        assert run("sweep", *flags, "--out", out) == code
        assert generated == []
        assert not out.exists()

    def test_eval_odas_frame_count_overflow_exits_2(self, one_scored, tmp_path, capsys):
        preds, gts = one_scored
        out = tmp_path / "odas.json"
        assert run("eval-odas", "--preds", preds, "--gts", gts, "--fps", 2.0,
                   "--offsets-seconds", "1e308", "--out", out) == 2
        assert "overflow" in capsys.readouterr().err
        assert not out.exists()


def test_eval_odas_tiny_offset_is_one_frame(one_scored, tmp_path):
    preds, gts = one_scored
    out = tmp_path / "odas.json"
    assert run("eval-odas", "--preds", preds, "--gts", gts, "--fps", 2.0,
               "--offsets-seconds", "0.01", "--out", out) == 0
    assert json.loads(out.read_text())["p_ap"] == {"1": 1.0}


def test_eval_odas_rejects_offsets_that_round_to_one_frame_count(one_scored, tmp_path, capsys):
    preds, gts = one_scored
    out = tmp_path / "odas.json"
    assert run("eval-odas", "--preds", preds, "--gts", gts, "--fps", 1.0,
               "--offsets-seconds", "1,1.4,3", "--out", out) == 2
    assert "got [1] more than once" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "odas.json.manifest.json").exists()


def test_eval_map_rejects_repeated_tious(one_scored, tmp_path, capsys):
    preds, gts = one_scored
    out = tmp_path / "map.json"
    assert run("eval-map", "--preds", preds, "--gts", gts,
               "--tious", "0.5,0.5,0.9", "--out", out) == 2
    assert "got [0.5] more than once" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "map.json.manifest.json").exists()


def test_eval_map_pools_classless_ground_truth(tmp_path):
    gts, preds = tmp_path / "gt.jsonl", tmp_path / "p.jsonl"
    write_instances(gts, {"v": [ActionInterval(10, 40), ActionInterval(50, 60)]})
    write_instances(preds, {"v": [ActionInterval(10, 40, class_id=1, score=0.9)]})
    out = tmp_path / "map.json"
    assert run("eval-map", "--preds", preds, "--gts", gts, "--tious", "0.5",
               "--out", out) == 0
    assert json.loads(out.read_text())["per_class_ap"] == {"0.5": {"null": 0.5}}


class TestStateFileTypes:
    """decode reads exact JSON types: no coercion, no crash on nested labels."""

    COERCED = {"video_id": 5, "num_switches": 2, "labels": [0, 1.9, True, 3, 0]}
    NESTED = {"video_id": "v", "num_switches": 2, "labels": [[0, 1], [3, 0]]}

    @pytest.mark.parametrize("obj, streaming", [
        (COERCED, []), (COERCED, ["--streaming"]), (NESTED, ["--streaming"]),
    ], ids=["coerced-batch", "coerced-streaming", "nested-streaming"])
    def test_decode_exits_2(self, tmp_path, obj, streaming):
        states, out = tmp_path / "s.json", tmp_path / "out.jsonl"
        states.write_text(json.dumps(obj))
        assert run("decode", "--states", states, *streaming, "--out", out) == 2
        assert not out.exists()
