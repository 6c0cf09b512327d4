import json

import numpy as np
import pytest

from switchdet import cli
from switchdet.cli import main
from switchdet.formats import write_instances, write_state_sequence
from switchdet.scorer import init_params, save_checkpoint
from switchdet.switchboard import ActionInterval, SwitchConfig
from switchdet.synthgen import write_features


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
