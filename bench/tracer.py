"""Spans around calls into ponodet's public functions, recorded from outside.

A ``Tracer`` replaces a module attribute -- the name the *calling* module
looks up, e.g. ``ponodet.train.pred_iou_values`` rather than
``ponodet.assignment.pred_iou_values`` -- with a thin wrapper that appends
one ``Span`` per call, and puts every original back on exit.  Nothing in
``src/`` is edited.

Two target sets exist.  ``PROBES`` holds the few stage boundaries the
end-to-end metrics need (one span per training iteration, per training
run and per evaluation call).  ``LAYERS`` adds the per-module spans of a
traced run; ``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int = -1          # index into Tracer.spans, -1 for a root span
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------
# notes: read counts off a call's arguments and result
# ---------------------------------------------------------------------

def _note_batch(span, args, result):
    span.info["scenes"] = len(args[1])


def _note_dataset_detections(span, args, result):
    span.info["scenes"] = len(args[2])
    span.info["dets"] = sum(len(d) for d in result)


def _note_forward(span, args, result):
    from ponodet import autodiff as ad
    taped = isinstance(result.logits, ad.Tensor)
    span.name = "model.forward_taped" if taped else "model.forward_numpy"


def _note_conv2d(span, args, result):
    from ponodet import autodiff as ad
    taped = isinstance(result, ad.Tensor)
    span.name = "autodiff.conv2d_taped" if taped else "autodiff.conv2d_untaped"


def _note_backward(span, args, result):
    span.info["records"] = len(args[0].tape.records)


def _note_nms(span, args, result):
    span.info["before"] = len(args[0])
    span.info["after"] = len(result)


# (module, attribute, span name, note); an attribute may be "Class.method".
PROBES = (
    ("ponodet.benchmarks", "run_training", "train.run_training", None),
    ("ponodet.cli", "run_training", "train.run_training", None),
    ("ponodet.train", "train_iteration", "train.iteration", _note_batch),
    ("ponodet.benchmarks", "dataset_detections", "evaluation.dataset_detections",
     _note_dataset_detections),
    ("ponodet.evaluation", "dataset_detections", "evaluation.dataset_detections",
     _note_dataset_detections),
    ("ponodet.benchmarks", "map_eval", "evaluation.map_eval", None),
    ("ponodet.evaluation", "map_eval", "evaluation.map_eval", None),
)

LAYERS = PROBES + (
    ("ponodet.benchmarks", "generate", "data.generate", None),
    ("ponodet.data", "generate", "data.generate", None),
    ("ponodet.data", "save_dataset", "data.disk", None),
    ("ponodet.data", "load_dataset", "data.disk", None),
    ("ponodet.data", "load_annotations", "data.disk", None),
    ("ponodet.benchmarks", "kmeans_anchors", "anchors.kmeans", None),
    ("ponodet.cli", "kmeans_anchors", "anchors.kmeans", None),
    ("ponodet.train", "scene_cache", "assignment.scene_cache", None),
    # assign_ao runs only when scene_cache misses, so its calls count misses
    ("ponodet.train", "assign_ao", "assignment.assign_ao", None),
    ("ponodet.train", "pred_iou_values", "assignment.pred_iou", None),
    ("ponodet.model", "ToyNet.forward", "model.forward", _note_forward),
    ("ponodet.autodiff", "backward", "autodiff.backward", _note_backward),
    ("ponodet.autodiff", "conv2d", "autodiff.conv2d", _note_conv2d),
    ("ponodet.loss", "bce_logits", "loss.bce_logits", None),
    ("ponodet.loss", "focal_logits", "loss.focal_logits", None),
    ("ponodet.loss", "loc_loss_map", "loss.loc_loss_map", None),
    ("ponodet.loss", "weighted_totals", "loss.weighted_totals", None),
    ("ponodet.train", "sgd_step", "train.sgd_step", None),
    ("ponodet.train", "save_run", "train.save_run", None),
    ("ponodet.cli", "save_run", "train.save_run", None),
    ("ponodet.evaluation", "extract_detections", "evaluation.extract", None),
    ("ponodet.evaluation", "nms", "geometry.nms", _note_nms),
)


def resolve(module: str, attr: str) -> tuple[object, str]:
    """The object holding a target and the attribute name on it."""
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Patch the given targets on entry, restore them on exit."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[Span] = []
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module, attr, name, note in self.targets:
            owner, leaf = resolve(module, attr)
            original = getattr(owner, leaf, None)
            if original is None:
                self.skipped.append(f"{module}.{attr}")
                continue
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, note))
        if self.skipped:
            print("tracer: targets not found: " + ", ".join(self.skipped),
                  file=sys.stderr)
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)
        return False

    def _wrap(self, fn, name, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                note(span, args, result)
            return result

        return wrapper

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


# ---------------------------------------------------------------------
# per-layer metrics of a traced run
# ---------------------------------------------------------------------

def _children_seconds(spans: list[Span]) -> list[float]:
    out = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            out[s.parent] += s.seconds
    return out


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures as name -> (value, unit)."""
    spans = tracer.spans
    kids = _children_seconds(spans)

    def total(name):
        return sum((s.seconds for s in spans if s.name == name), 0.0)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def self_total(name):
        return sum((s.seconds - kids[i] for i, s in enumerate(spans) if s.name == name), 0.0)

    def layer_total(prefix):
        # outermost spans of the layer only, so nested calls count once
        return sum((s.seconds for s in spans if s.name.startswith(prefix)
                    and not (s.parent >= 0 and spans[s.parent].name.startswith(prefix))), 0.0)

    iters = max(count("train.iteration"), 1)
    eval_scenes = max(sum(s.info["scenes"] for s in tracer.named(
        "evaluation.dataset_detections")), 1)
    lookups = count("assignment.scene_cache")
    misses = count("assignment.assign_ao")
    backward = tracer.named("autodiff.backward")
    nms = tracer.named("geometry.nms")
    before = sum(s.info["before"] for s in nms)
    after = sum(s.info["after"] for s in nms)
    per_iter = 1e3 / iters
    per_scene = 1e3 / eval_scenes
    return {
        "data.generate_s": (total("data.generate"), "s"),
        "data.disk_s": (layer_total("data.disk"), "s"),
        "anchors.kmeans_s": (total("anchors.kmeans"), "s"),
        "anchors.kmeans_calls": (count("anchors.kmeans"), "count"),
        "assignment.scene_cache_ms": (total("assignment.scene_cache") * per_iter, "ms/iter"),
        "assignment.scene_cache_misses": (misses, "count"),
        "assignment.scene_cache_hit_ratio": (
            (lookups - misses) / lookups if lookups else 0.0, "ratio"),
        "assignment.pred_iou_ms": (total("assignment.pred_iou") * per_iter, "ms/iter"),
        "model.forward_taped_ms": (total("model.forward_taped") * per_iter, "ms/iter"),
        "model.forward_numpy_ms": (total("model.forward_numpy") * per_scene, "ms/scene"),
        "autodiff.backward_ms": (total("autodiff.backward") * per_iter, "ms/iter"),
        "autodiff.tape_records": (
            sum(s.info["records"] for s in backward) / max(len(backward), 1),
            "records/iter"),
        "autodiff.conv2d_calls_taped": (count("autodiff.conv2d_taped"), "count"),
        "autodiff.conv2d_calls_untaped": (count("autodiff.conv2d_untaped"), "count"),
        "autodiff.conv2d_ms_taped": (total("autodiff.conv2d_taped") * per_iter, "ms/iter"),
        "autodiff.conv2d_ms_untaped": (
            total("autodiff.conv2d_untaped") * per_scene, "ms/scene"),
        "loss.ms_per_iter": (layer_total("loss.") * per_iter, "ms/iter"),
        "train.sgd_step_ms": (total("train.sgd_step") * per_iter, "ms/iter"),
        "train.iteration_self_ms": (self_total("train.iteration") * per_iter, "ms/iter"),
        "train.save_run_ms": (total("train.save_run") * 1e3, "ms"),
        "evaluation.extract_ms": (self_total("evaluation.extract") * per_scene, "ms/scene"),
        "geometry.nms_ms": (total("geometry.nms") * per_scene, "ms/scene"),
        "evaluation.dets_before_nms": (before, "count"),
        "evaluation.dets_after_nms": (after, "count"),
        "evaluation.nms_keep_ratio": (after / before if before else 0.0, "ratio"),
        "evaluation.map_eval_ms": (
            total("evaluation.map_eval") * 1e3 / max(count("evaluation.map_eval"), 1),
            "ms/cell"),
    }
