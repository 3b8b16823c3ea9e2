"""In-memory span tracer that wraps proxydet's public functions from outside.

Installing the tracer replaces each target function, in every loaded
``proxydet`` module that holds it, with a wrapper that records one span:
name, start, end, parent span and an optional work count taken from the
call's arguments or result. Uninstalling restores the originals, so an
untraced round runs the program's own code objects. Spans stay in memory
until :meth:`Tracer.write` saves them at the end of the run.

Nothing under ``src/`` is touched: the wrappers live in this process only.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


def _rows(args, kwargs, result):
    return len(args[0])


def _n_images(args, kwargs, result):
    return args[0].n_images


def _write_dataset(args, kwargs, result):
    return (os.path.getsize(args[0]), len(args[2]))


def _read_dataset(args, kwargs, result):
    return (os.path.getsize(args[0]), len(result[1]))


def _fusion(args, kwargs, result):
    return (len(args[0]), len(args[0]) - len(result))


def _train_steps(args, kwargs, result):
    return result.steps_run


@dataclass(frozen=True)
class Target:
    span: str  # span and metric prefix, named by module
    module: str  # module that defines the function
    attr: str  # attribute path inside the module ("AdamW.step" for a method)
    count: Callable | None = None


TARGETS = (
    Target("synth.generate_dataset", "proxydet.synth", "generate_dataset", _n_images),
    Target("formats.write_dataset", "proxydet.formats", "write_dataset", _write_dataset),
    Target("formats.read_dataset", "proxydet.formats", "read_dataset", _read_dataset),
    Target("formats.write_predictions", "proxydet.formats", "write_predictions"),
    Target("formats.read_predictions", "proxydet.formats", "read_predictions"),
    Target("formats.save_checkpoint", "proxydet.formats", "save_checkpoint"),
    Target("formats.load_checkpoint", "proxydet.formats", "load_checkpoint"),
    Target("head.train", "proxydet.head", "train", _train_steps),
    Target("head.batch_loss_and_grads", "proxydet.head", "batch_loss_and_grads"),
    Target("head.AdamW.step", "proxydet.head", "AdamW.step"),
    Target("head.predict_regions", "proxydet.head", "predict_regions"),
    Target("geometry.giou_batch", "proxydet.geometry", "giou_batch", _rows),
    Target("geometry.giou_gradient_batch", "proxydet.geometry", "giou_gradient_batch", _rows),
    Target("geometry.center_to_corner_batch", "proxydet.geometry", "center_to_corner_batch", _rows),
    Target("losses.asl", "proxydet.losses", "asl"),
    Target("losses.asl_grad", "proxydet.losses", "asl_grad"),
    Target("inference.detect_pathologies", "proxydet.inference", "detect_pathologies"),
    Target("inference.apply_class_mapping", "proxydet.inference", "apply_class_mapping"),
    Target("fusion.weighted_box_fusion", "proxydet.fusion", "weighted_box_fusion", _fusion),
    Target("evaluation.evaluate", "proxydet.evaluation", "evaluate"),
    Target("cli.train", "proxydet.cli", "cmd_train"),
    Target("cli.infer", "proxydet.cli", "cmd_infer"),
    Target("cli.eval", "proxydet.cli", "cmd_eval"),
)


class Tracer:
    """Records spans while installed; holds them until :meth:`write`."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: list = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn):
        names, starts, ends, parents, counts = (
            self.names, self.starts, self.ends, self.parents, self.counts
        )
        stack = self._stack
        count = target.count
        span = target.span

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(span)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            counts.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if count is not None:
                counts[idx] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "proxydet" or name.startswith("proxydet."))
        ]
        for target in self.targets:
            owner = sys.modules[target.module]
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(target, original)
            holders = [owner] if path else [
                m for m in modules
                if any(v is original for v in vars(m).values())
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # analysis

    def spans(self, lo: int = 0, hi: int | None = None) -> dict[str, dict[str, np.ndarray | list]]:
        """Per span name, over spans ``lo:hi``: durations, self times (span minus children), counts."""
        dur = np.asarray(self.ends, dtype=np.float64) - np.asarray(self.starts, dtype=np.float64)
        child = np.zeros_like(dur)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        by_name: dict[str, list[int]] = {}
        for i in range(lo, len(self.names) if hi is None else hi):
            by_name.setdefault(self.names[i], []).append(i)
        out = {}
        for name, idx in by_name.items():
            ix = np.asarray(idx)
            out[name] = {
                "dur": dur[ix],
                "self": own[ix],
                "counts": [self.counts[i] for i in idx],
            }
        return out

    def write(self, path: str, t0: float) -> None:
        """One JSON line per span: [name, start_s, end_s, parent, count], times from t0."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        [name, self.starts[i] - t0, self.ends[i] - t0, self.parents[i], self.counts[i]]
                    )
                    + "\n"
                )


def tail_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0, 75.0):
        if n * (100.0 - p) / 100.0 >= 10.0:
            return p
    return None


def _tail(values: np.ndarray) -> float:
    p = tail_percentile(len(values))
    # under forty samples there is no tail to speak of: report the median
    return float(np.percentile(values, 50.0 if p is None else p))


def layer_metrics(spans: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans, named by module.

    Layers not called in ``spans`` are left out rather than reported as 0.
    """
    out: dict[str, tuple[float, str]] = {}

    def get(name):
        s = spans.get(name)
        return s if s is not None and len(s["dur"]) else None

    def put(key, value, unit):
        out[key] = (float(value), unit)

    if s := get("synth.generate_dataset"):
        put("synth.generate_dataset.images_per_s", sum(s["counts"]) / s["dur"].sum(), "images/s")
    if s := get("formats.write_dataset"):
        nbytes = sum(c[0] for c in s["counts"])
        images = sum(c[1] for c in s["counts"])
        put("formats.write_dataset.mb_per_s", nbytes / 1e6 / s["dur"].sum(), "MB/s")
        put("formats.dataset_bytes_per_image", nbytes / max(images, 1), "bytes")
    if s := get("formats.read_dataset"):
        nbytes = sum(c[0] for c in s["counts"])
        put("formats.read_dataset.mb_per_s", nbytes / 1e6 / s["dur"].sum(), "MB/s")
    for name in (
        "formats.write_predictions",
        "formats.read_predictions",
        "formats.save_checkpoint",
        "formats.load_checkpoint",
        "evaluation.evaluate",
    ):
        if s := get(name):
            put(f"{name}.ms", np.median(s["dur"]) * 1e3, "ms")
    if s := get("head.batch_loss_and_grads"):
        put("head.batch_loss_and_grads.self_ms_p50", np.median(s["self"]) * 1e3, "ms")
        put("head.batch_loss_and_grads.self_ms_tail", _tail(s["self"]) * 1e3, "ms")
    if s := get("head.AdamW.step"):
        put("head.AdamW.step.ms_p50", np.median(s["dur"]) * 1e3, "ms")
    if s := get("head.train"):
        put("head.train.steps_per_s", sum(s["counts"]) / s["dur"].sum(), "steps/s")
        put("head.train.self_ms_per_step", s["self"].sum() * 1e3 / max(sum(s["counts"]), 1), "ms")
    for name in (
        "geometry.giou_batch",
        "geometry.giou_gradient_batch",
        "geometry.center_to_corner_batch",
    ):
        if s := get(name):
            put(f"{name}.us_per_row", s["dur"].sum() * 1e6 / max(sum(s["counts"]), 1), "us")
    for name in ("losses.asl", "losses.asl_grad"):
        if s := get(name):
            put(f"{name}.ms_p50", np.median(s["dur"]) * 1e3, "ms")
    if s := get("head.predict_regions"):
        put("head.predict_regions.ms_per_image", s["dur"].mean() * 1e3, "ms")
    if s := get("inference.detect_pathologies"):
        put("inference.detect_pathologies.ms_p50", np.median(s["dur"]) * 1e3, "ms")
        put("inference.detect_pathologies.ms_tail", _tail(s["dur"]) * 1e3, "ms")
        if f := get("fusion.weighted_box_fusion"):
            candidates = sum(c[0] for c in f["counts"])
            put("inference.candidates_per_image", candidates / len(s["dur"]), "candidates/image")
    if s := get("inference.apply_class_mapping"):
        put("inference.apply_class_mapping.us_per_region", s["dur"].mean() * 1e6, "us")
    if s := get("fusion.weighted_box_fusion"):
        candidates = sum(c[0] for c in s["counts"])
        merged = sum(c[1] for c in s["counts"])
        put("fusion.weighted_box_fusion.us_per_candidate", s["dur"].sum() * 1e6 / max(candidates, 1), "us")
        put("fusion.merged_per_candidate", merged / max(candidates, 1), "ratio")
    for name in ("cli.train", "cli.infer", "cli.eval"):
        if s := get(name):
            put(f"{name}.self_s", np.median(s["self"]), "s")
    return out
