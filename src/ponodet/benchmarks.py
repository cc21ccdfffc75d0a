"""Pinned desk-scale benchmarks for the directional ablation checks.

Three synthetic regimes:

* easy        -- balanced, uncrowded, separable; a trained detector
                 should saturate.
* imbalanced  -- one class rarer and smaller than the other; exercises
                 the learned class/size balancing.
* crowded     -- frequent same-class overlapping pairs with a small,
                 capacity-limited net; exercises the label-assignment
                 rules.  Evaluation uses a high NMS threshold and a low
                 score floor because true neighbors overlap strongly.

The constants below were calibrated once on the seeds baked in here and
are treated as frozen: tests compare against them, they are not tuned per
run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .anchors import kmeans_anchors, sizes_per_class
from .data import GenSpec, generate
from .evaluation import dataset_detections, map_eval
from .model import ToyNet, ToyNetConfig
from .train import RunState, TrainConfig, run_training

# mAP-point floor (x100 scale) by which unit weighting must trail learned
# weighting on the imbalanced benchmark; pinned from the first passing run
# (observed gap there: ~50 points).
TABLE3B_UNIT_GAP_FLOOR = 20.0

IMAGE_SIZE = 48


@dataclass(frozen=True)
class Benchmark:
    name: str
    gen: GenSpec
    n_anchors: int
    train_cfg: TrainConfig
    net: ToyNetConfig
    n_train: int = 200
    n_test: int = 100
    score_min: float = 0.05
    nms_iou: float = 0.5


def easy_benchmark() -> Benchmark:
    gen = GenSpec(n_classes=2, class_freq=(0.5, 0.5),
                  size_ranges=((10.0, 26.0), (10.0, 26.0)),
                  objects_per_scene=(1, 3), crowding=0.0, seed=101,
                  image_size=IMAGE_SIZE)
    return Benchmark(
        name="easy", gen=gen, n_anchors=3,
        train_cfg=TrainConfig(max_iter=5000, batch_size=1, seed=11),
        net=ToyNetConfig(input_size=IMAGE_SIZE, base_channels=8,
                         levels=2, head_convs=2))


def imbalanced_benchmark() -> Benchmark:
    gen = GenSpec(n_classes=2, class_freq=(0.85, 0.15),
                  size_ranges=((14.0, 30.0), (8.0, 18.0)),
                  objects_per_scene=(1, 4), crowding=0.0, seed=202,
                  image_size=IMAGE_SIZE)
    return Benchmark(
        name="imbalanced", gen=gen, n_anchors=5,
        train_cfg=TrainConfig(max_iter=5000, batch_size=1, seed=22),
        net=ToyNetConfig(input_size=IMAGE_SIZE, base_channels=8,
                         levels=2, head_convs=2))


def crowded_benchmark() -> Benchmark:
    gen = GenSpec(n_classes=2, class_freq=(0.5, 0.5),
                  size_ranges=((10.0, 24.0), (10.0, 24.0)),
                  objects_per_scene=(2, 4), crowding=0.8, seed=303,
                  image_size=IMAGE_SIZE)
    return Benchmark(
        name="crowded", gen=gen, n_anchors=2,
        train_cfg=TrainConfig(max_iter=6000, batch_size=2, seed=33),
        net=ToyNetConfig(input_size=IMAGE_SIZE, base_channels=4,
                         levels=2, head_convs=1),
        n_train=400, score_min=0.01, nms_iou=0.7)


def benchmark_data(bench: Benchmark):
    """Train/test scene lists; the test split uses a shifted seed."""
    train = generate(bench.gen, bench.n_train)
    test = generate(replace(bench.gen, seed=bench.gen.seed + 5000), bench.n_test)
    return train, test


def run_cell(bench: Benchmark, mode: str = "learned", label_rule: str = "AMS",
             cls_loss: str = "CE", max_iter: int | None = None,
             log_path=None) -> dict:
    """Train one ablation cell on the benchmark, score it on the test split."""
    train, test = benchmark_data(bench)
    anchor_set = kmeans_anchors(
        sizes_per_class([s.gt for s in train], bench.gen.n_classes),
        n_a=bench.n_anchors, seed=bench.train_cfg.seed)
    cfg = replace(bench.train_cfg, mode=mode, label_rule=label_rule,
                  cls_loss=cls_loss)
    if max_iter is not None:
        cfg = replace(cfg, max_iter=max_iter)
    model = ToyNet(bench.net, bench.gen.n_classes, bench.n_anchors,
                   seed=cfg.seed)
    state = RunState.fresh(model, anchor_set, bench.gen.image_size)
    reports = run_training(state, train, cfg, log_path=log_path)
    dets = dataset_detections(model, state.grid, test, bench.score_min,
                              bench.nms_iou)
    per_class, mean = map_eval(dets, [s.gt for s in test])
    return {
        "state": state,
        "anchor_set": anchor_set,
        "per_class_ap": per_class,
        "map": mean,
        "reports": reports,
    }


def anchor_areas(anchor_set) -> np.ndarray:
    return anchor_set.shapes[..., 0] * anchor_set.shapes[..., 1]
