"""In-memory spans around calls into switchdet's public functions.

The package imports names directly (``from .scorer import forward_sequence``
in ``trainer``, ``f1_at_tiou`` in ``cli`` and ``trainer``), so a wrapper set
only on the defining module would miss most calls.  ``Tracer.install`` puts
one wrapper per function into every ``switchdet`` module that holds a
reference to it, and ``uninstall`` restores the originals.  Calls made in
sweep pool workers run the wrappers in another process and are lost: pool
workers are not traced.

Spans are kept in compact arrays (name id, start, end, parent, run id) plus
the counts some wrappers derive from arguments or results, and are reduced to
per-layer metrics only when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return bind


def _pairs(a):
    preds, gts = a["preds"], a["gts"]
    return sum(len(preds.get(v, ())) * len(gts.get(v, ())) for v in set(preds) | set(gts))


def _sweep_cells(a):
    return len(a["alphas"]) * len(a["switch_counts"]) * len(a["seeds"])


# (module, attribute, counter).  A counter maps (bound arguments, result) to
# the counts recorded on the span.  The hot per-frame functions have none.
TARGETS = [
    ("synthgen", "generate_stream", lambda a, r: {"frames": r[0].shape[0]}),
    ("synthgen", "read_features", lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    ("formats", "read_instances", lambda a, r: {"records": sum(map(len, r.values()))}),
    ("formats", "write_instances", None),
    ("switchboard", "encode_instances", lambda a, r: {
        "dropped": len(r[1].dropped_instances), "merged": len(r[1].merged_instances)}),
    ("switchboard", "decode_sequence", None),
    ("switchboard", "decode_streaming", None),
    ("switchboard", "StreamDecoder.step", None),
    ("losses", "sequence_loss_and_grad", lambda a, r: {"cc_positions": r.num_cc_positions}),
    ("scorer", "forward_step", None),
    ("scorer", "forward_sequence", lambda a, r: {"frames": len(a["xs"])}),
    ("scorer", "backward_sequence", lambda a, r: {"frames": a["cache"].xs.shape[0]}),
    ("scorer", "load_checkpoint", None),
    ("scorer", "save_checkpoint", None),
    ("trainer", "train", lambda a, r: {"windows": sum(h.num_windows for h in r[1])}),
    ("trainer", "infer_instances", lambda a, r: {"proposals": len(r)}),
    ("trainer", "sweep_alpha", lambda a, r: {"cells": _sweep_cells(a)}),
    ("metrics", "f1_at_tiou", lambda a, r: {"pairs": _pairs(a)}),
    ("metrics", "hungarian_assign", lambda a, r: {"cells": int(np.asarray(a["cost"]).size)}),
    ("metrics", "interval_map", None),
    ("metrics", "point_map", None),
]

CLI_COMMANDS = ["gen", "encode", "decode", "train", "infer", "eval-f1", "eval-map",
                "eval-odas", "sweep"]

# Per-layer metric name -> (span name, statistic, unit).  Values are per
# round: spans of the traced set-up count once, spans of traced rounds are
# averaged over those rounds, so counts repeat exactly for a given seed.
LAYER_METRICS = {}
for _span, _stats in [
    ("scorer.forward_sequence", ["calls", "frames", "s"]),
    ("scorer.backward_sequence", ["calls", "frames", "s"]),
    ("scorer.forward_step", ["calls", "s", "p50_us", "p99_us"]),
    ("losses.sequence_loss_and_grad", ["calls", "s"]),
    ("trainer.train", ["s", "self_s", "windows"]),
    ("trainer.infer_instances", ["s", "self_s", "proposals"]),
    ("trainer.sweep_alpha", ["s", "cells"]),
    ("switchboard.StreamDecoder.step", ["calls", "s", "p99_us"]),
    ("switchboard.encode_instances", ["s", "dropped", "merged"]),
    ("switchboard.decode_sequence", ["s"]),
    ("switchboard.decode_streaming", ["s"]),
    ("metrics.f1_at_tiou", ["s", "pairs"]),
    ("metrics.hungarian_assign", ["s", "cells"]),
    ("metrics.interval_map", ["s"]),
    ("metrics.point_map", ["s"]),
    ("synthgen.generate_stream", ["s", "frames"]),
    ("synthgen.read_features", ["s", "bytes"]),
    ("formats.read_instances", ["s", "records"]),
    ("formats.write_instances", ["s"]),
    ("scorer.load_checkpoint", ["s"]),
    ("scorer.save_checkpoint", ["s"]),
] + [(f"cli.{c}", ["s", "self_s"]) for c in CLI_COMMANDS]:
    for _stat in _stats:
        _unit = {"calls": "count", "s": "s", "self_s": "s", "p50_us": "us",
                 "p99_us": "us", "frames": "frames", "bytes": "bytes"}.get(_stat, "count")
        LAYER_METRICS[f"{_span}.{_stat}"] = (_span, _stat, _unit)
LAYER_METRICS["losses.cc_positions"] = ("losses.sequence_loss_and_grad", "cc_positions", "count")


class Tracer:
    """Records spans while installed; reduces them to per-layer metrics."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self.counts: dict[int, dict] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, counter):
        bind = _bound(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter:
                self.counts[idx] = counter(bind(args, kwargs), result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a switchdet module refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "switchdet" or n.startswith("switchdet."))]
        for module_name, attr, counter in TARGETS:
            home = sys.modules[f"switchdet.{module_name}"]
            if "." in attr:  # a method: patch it once, on its class
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(f"{module_name}.{attr}", orig, counter))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(f"{module_name}.{attr}", orig, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, key, orig, wrapper)

    def _patch(self, owner, key, orig, wrapper) -> None:
        self._patches.append((owner, key, orig))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for i in range(len(self.name)):
                fh.write(json.dumps({
                    "name": self._names[self.name[i]], "start": self.start[i],
                    "end": self.end[i], "parent": self.parent[i], "run": self.run[i],
                    "counts": self.counts.get(i, {}),
                }) + "\n")

    def _durations(self):
        """Duration and self time of every span, as arrays."""
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur, dur - child

    def _weights(self, rounds: int) -> np.ndarray:
        """Per-span weight: run 0 (set-up) counts once, runs 1..n average."""
        runs = np.frombuffer(self.run, dtype=np.int32)
        return np.where(runs == 0, 1.0, 1.0 / rounds)

    def layer_stats(self, rounds: int) -> dict[str, dict]:
        """Aggregate spans by name: the set-up (run 0) plus the mean of ``rounds`` traced rounds.

        Self time is a span's duration minus the durations of its children;
        calls into the package are sequential, so children never overlap.
        """
        dur, self_time = self._durations()
        names = np.frombuffer(self.name, dtype=np.int32)
        in_setup = np.frombuffer(self.run, dtype=np.int32) == 0

        def per_round(values, sel):
            return float(values[sel & in_setup].sum() + values[sel & ~in_setup].sum() / rounds)

        stats: dict[str, dict] = {}
        for nid, name in enumerate(self._names):
            sel = names == nid
            d = dur[sel]
            entry = {
                "calls": per_round(np.ones_like(dur), sel),
                "s": per_round(dur, sel),
                "self_s": per_round(self_time, sel),
                "p50_us": float(np.percentile(d, 50) * 1e6),
                "p99_us": float(np.percentile(d, 99) * 1e6),
            }
            keys = {k for idx in np.flatnonzero(sel).tolist() for k in self.counts.get(idx, {})}
            for key in keys:
                counts = np.zeros_like(dur)
                for idx in np.flatnonzero(sel).tolist():
                    counts[idx] = self.counts.get(idx, {}).get(key, 0)
                entry[key] = per_round(counts, sel)
            stats[name] = entry
        return stats

    def share_under(self, root: str, modules: tuple[str, ...], rounds: int) -> float:
        """Share of the ``root`` spans' time that is self time of ``modules``."""
        dur, self_time = self._durations()
        weight = self._weights(rounds)
        root_id = self._name_ids.get(root)
        in_modules = [n.split(".")[0] in modules for n in self._names]
        under = array("q")  # index of the enclosing root span, or -1
        root_total = covered = 0.0
        for i, (nid, p) in enumerate(zip(self.name, self.parent)):
            if nid == root_id:
                under.append(i)
                root_total += dur[i] * weight[i]
                continue
            under.append(under[p] if p >= 0 else -1)
            if under[i] >= 0 and in_modules[nid]:
                covered += self_time[i] * weight[i]
        return covered / root_total if root_total else 0.0
