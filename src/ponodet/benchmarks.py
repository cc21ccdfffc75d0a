"""Pinned desk-scale benchmarks for the directional ablation checks.

Two synthetic regimes:

* imbalanced  -- one class rarer and smaller than the other; exercises
                 the learned class/size balancing.
* crowded     -- frequent same-class overlapping pairs with a small,
                 capacity-limited net; exercises the label-assignment
                 rules.  Evaluation uses a high NMS threshold and a low
                 score floor because true neighbors overlap strongly.

A third regime, `easy` (balanced, uncrowded, separable), backs only the
end-to-end sanity criterion and is defined in `tests/test_acceptance.py`.

The constants below were calibrated once on the seeds baked in here and
are treated as frozen: tests compare against them, they are not tuned per
run.

The cells of a benchmark differ only in the label rule, the loss mode and
the classification loss, so every `run_cell` on one `Benchmark` object
shares the setup its first call builds (`Benchmark.setup`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .anchors import kmeans_anchors, sizes_per_class
from .data import GenSpec, Scene, generate
from .evaluation import dataset_detections, map_eval
from .model import ToyNetConfig
from .train import RunState, SceneBank, TrainConfig, run_training

IMAGE_SIZE = 48


@dataclass(frozen=True)
class Benchmark:
    gen: GenSpec
    n_anchors: int
    train_cfg: TrainConfig
    net: ToyNetConfig
    n_train: int = 200
    n_test: int = 100
    score_min: float = 0.05
    nms_iou: float = 0.5

    @cached_property
    def setup(self) -> Setup:
        """The cells' shared setup, built on first use and kept as long as
        this object: train and test scenes (the test split uses a shifted
        seed), the anchors clustered on the training boxes, and a bank of
        the training scenes on their grid.  A `replace`d benchmark is a new
        object with a setup of its own."""
        train = generate(self.gen, self.n_train)
        test = generate(replace(self.gen, seed=self.gen.seed + 5000), self.n_test)
        shapes = kmeans_anchors(sizes_per_class([s.gt for s in train], self.gen.n_classes),
                                n_a=self.n_anchors, seed=self.train_cfg.seed)
        return Setup(test, SceneBank(train, shapes))


@dataclass(frozen=True)
class Setup:
    """What every cell of one benchmark trains and scores on."""

    test: list[Scene]
    bank: SceneBank


def imbalanced_benchmark() -> Benchmark:
    gen = GenSpec(n_classes=2, class_freq=(0.85, 0.15),
                  size_ranges=((14.0, 30.0), (8.0, 18.0)),
                  objects_per_scene=(1, 4), crowding=0.0, seed=202,
                  image_size=IMAGE_SIZE)
    return Benchmark(gen=gen, n_anchors=5,
                     train_cfg=TrainConfig(max_iter=5000, batch_size=1, seed=22),
                     net=ToyNetConfig(input_size=IMAGE_SIZE, base_channels=8,
                                      levels=2, head_convs=2))


def crowded_benchmark() -> Benchmark:
    gen = GenSpec(n_classes=2, class_freq=(0.5, 0.5),
                  size_ranges=((10.0, 24.0), (10.0, 24.0)),
                  objects_per_scene=(2, 4), crowding=0.8, seed=303,
                  image_size=IMAGE_SIZE)
    return Benchmark(gen=gen, n_anchors=2,
                     train_cfg=TrainConfig(max_iter=6000, batch_size=2, seed=33),
                     net=ToyNetConfig(input_size=IMAGE_SIZE, base_channels=4,
                                      levels=2, head_convs=1),
                     n_train=400, score_min=0.01, nms_iou=0.7)


def run_cell(bench: Benchmark, mode: str = "learned", label_rule: str = "AMS",
             cls_loss: str = "CE", max_iter: int | None = None) -> dict:
    """Train one ablation cell on the benchmark's setup, score it on the
    test split: the trained `state`, its `map` and the iterations'
    `reports`."""
    setup = bench.setup
    cfg = replace(bench.train_cfg, mode=mode, label_rule=label_rule,
                  cls_loss=cls_loss)
    if max_iter is not None:
        cfg = replace(cfg, max_iter=max_iter)
    state = RunState.fresh(bench.net, setup.bank.shapes, cfg.seed)
    reports = run_training(state, setup.bank, cfg)
    dets = dataset_detections(state.model, setup.bank.grid, setup.test,
                              bench.score_min, bench.nms_iou)
    _, mean, _, _ = map_eval(dets, [s.gt for s in setup.test])
    return {"state": state, "map": mean, "reports": reports}
