"""The traced benchmark wraps switchdet functions by name, so a rename or a
new return type would break it only when it runs; these checks read
``perfbench/spans.py`` and fail first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from switchdet.formats import read_instances, write_instances
from switchdet.switchboard import ActionInterval

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def counter(spans, module, attr):
    return {(m, a): c for m, a, c in spans.TARGETS}[(module, attr)]


def test_every_target_resolves(spans):
    for module_name, attr, _ in spans.TARGETS:
        home = importlib.import_module(f"switchdet.{module_name}")
        if "." in attr:  # a method, which the tracer looks up on its own class
            cls_name, method = attr.split(".")
            assert method in vars(getattr(home, cls_name)), f"{module_name}.{attr}"
        else:
            assert callable(getattr(home, attr, None)), f"{module_name}.{attr}"


def test_read_instances_counter_counts_records(spans, tmp_path):
    path = tmp_path / "inst.jsonl"
    write_instances(path, {
        "a": [ActionInterval(0, 9), ActionInterval(4, 20)],
        "b": [ActionInterval(3, 3)],
    })
    count = counter(spans, "formats", "read_instances")
    assert count({"path": path}, read_instances(path)) == {"records": 3}


def test_f1_pairs_counter_counts_pairs(spans, tmp_path):
    preds, gts = tmp_path / "p.jsonl", tmp_path / "g.jsonl"
    write_instances(preds, {"a": [ActionInterval(0, 9)] * 3, "b": [ActionInterval(1, 2)]})
    write_instances(gts, {"a": [ActionInterval(0, 9)] * 2, "c": [ActionInterval(1, 2)]})
    count = counter(spans, "metrics", "f1_at_tiou")
    args = {"preds": read_instances(preds), "gts": read_instances(gts)}
    assert count(args, None) == {"pairs": 6}
