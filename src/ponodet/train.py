"""SGD-with-momentum training loop over the dense assignment pipeline.

Every iteration runs: predict -> decode -> predicted-overlap map ->
labels (per the configured rule) -> weighted losses -> backward -> SGD
step under a polynomial learning-rate decay.  Labels and the predicted
overlaps inside label computation are plain data; the localization loss
is the only gradient path into the offsets.

A scene's `Assignment` against the grid never changes, so it is computed
once per `run_training` call and cached on the run state; the gate and
labels read off it depend on the config and are recomputed each
iteration.  Batch losses are the per-scene sums divided by the summed
positive counts (equivalently: maps averaged before weighting).  The
batch RNG is derived from (seed, iteration), which makes checkpoint
resume bit-exact without serializing generator state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import loss as loss_mod
from .anchors import AnchorGrid, AnchorSet, build_grid
from .assignment import (Assignment, ams_labels, assign_ao, pono_labels,
                         pred_iou_values, threshold_labels)
from .data import Scene, hflip
from .loss import BalanceWeights, LossReport, LOC_GATE
from .model import (FEAT_STRIDE, TabularPredictor, ToyNet, ToyNetConfig,
                    leaf_params, load_arrays, save_arrays)

LABEL_RULES = ("AMS", "PONO", "AO")
CLS_LOSSES = ("CE", "FL")


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 0.005
    momentum: float = 0.9
    poly_power: float = 0.9
    max_iter: int = 1000
    batch_size: int = 1
    mode: str = "learned"
    label_rule: str = "AMS"
    cls_loss: str = "CE"
    seed: int = 0
    ao_threshold: float = 0.5
    flip: bool = True
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.lr0 < 0:
            raise ValueError("lr0 must be positive")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.mode not in loss_mod.MODES:
            raise ValueError(f"mode must be one of {loss_mod.MODES}")
        if self.label_rule not in LABEL_RULES:
            raise ValueError(f"label_rule must be one of {LABEL_RULES}")
        if self.cls_loss not in CLS_LOSSES:
            raise ValueError(f"cls_loss must be one of {CLS_LOSSES}")


@dataclass
class RunState:
    """Everything that evolves during a run; checkpoints restore it bit-exactly."""

    model: object
    bw: BalanceWeights
    grid: AnchorGrid
    iteration: int = 0
    velocity: dict = field(default_factory=dict)
    # id(scene) -> (scene.gt, Assignment); holding the gt makes a reused id
    # of a collected scene a miss, and no image is ever held
    _scene_cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def fresh(cls, model, anchor_set: AnchorSet, image_size: int) -> RunState:
        """Iteration 0: the anchors tiled over the stride-8 map of a square
        image, and unit balance weights."""
        f = image_size // FEAT_STRIDE
        return cls(model=model, grid=build_grid(anchor_set, f, f, FEAT_STRIDE),
                   bw=BalanceWeights.initial(anchor_set.n_classes,
                                             anchor_set.n_anchors))


def lr_at(iteration: int, cfg: TrainConfig) -> float:
    """Polynomial decay from lr0 down to 0 at max_iter."""
    return cfg.lr0 * (1.0 - iteration / cfg.max_iter) ** cfg.poly_power


def sgd_step(params: dict, velocity: dict, grads: dict,
             lr: float, momentum: float) -> None:
    """v <- momentum * v + g;  p <- p - lr * v.  Absent grads still decay
    the buffer, matching a zero gradient."""
    for name, p in params.items():
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(p)
            velocity[name] = v
        g = grads.get(name)
        v *= momentum
        if g is not None:
            v += g
        p -= lr * v


def scene_cache(state: RunState, scene: Scene) -> Assignment:
    """The scene's assignment against the state's grid, computed on first use."""
    cached = state._scene_cache.get(id(scene))
    if cached is None or cached[0] is not scene.gt:
        cached = (scene.gt, assign_ao(state.grid, scene.gt))
        state._scene_cache[id(scene)] = cached
    return cached[1]


def _gate_and_labels(a: Assignment, o_hat: np.ndarray, cfg: TrainConfig):
    """Loc-loss gate (float 0/1) and classification labels of one scene."""
    if cfg.label_rule == "AO":
        return (a.ao > cfg.ao_threshold).astype(np.float64), \
            threshold_labels(a.ao, cfg.ao_threshold)
    gate = (a.pono > LOC_GATE).astype(np.float64)
    if cfg.label_rule == "AMS":
        return gate, ams_labels(a.pono, o_hat)
    return gate, pono_labels(a.pono)


def train_iteration(state: RunState, batch: list[Scene],
                    cfg: TrainConfig) -> LossReport:
    """One optimizer step over a batch of scenes."""
    tape = ad.Tape()
    params = leaf_params(state.model.params, tape)
    learned = cfg.mode == "learned"
    if learned:
        s_leaves = {
            "bw.s_cls": ad.leaf(np.asarray(state.bw.s_cls), tape),
            "bw.s_loc": ad.leaf(np.asarray(state.bw.s_loc), tape),
            "bw.s_cls_grid": ad.leaf(state.bw.s_cls_grid, tape),
            "bw.s_loc_grid": ad.leaf(state.bw.s_loc_grid, tape),
        }

    nc, na = state.grid.n_classes, state.grid.n_anchors
    loc_sums = cls_sums = None
    n_pos = 0
    per_grid_pos = np.zeros((nc, na), dtype=np.int64)
    for scene in batch:
        assignment = scene_cache(state, scene)
        out = state.model.forward(params, scene.image)
        o_hat = pred_iou_values(state.grid, out.offsets, assignment)
        gate, labels = _gate_and_labels(assignment, np.asarray(ad.values_of(o_hat)), cfg)
        loc_map = loss_mod.loc_loss_map(gate, o_hat)
        if cfg.cls_loss == "CE":
            cls_map = loss_mod.bce_logits(labels.astype(np.float64), out.logits)
        else:
            cls_map = loss_mod.focal_logits(labels.astype(np.float64), out.logits)
        ls = loc_map.sum(axis=(0, 1))
        cs = cls_map.sum(axis=(0, 1))
        loc_sums = ls if loc_sums is None else loc_sums + ls
        cls_sums = cs if cls_sums is None else cls_sums + cs
        n_pos += int(gate.sum())
        per_grid_pos += labels.sum(axis=(0, 1), dtype=np.int64)

    n_pos_eff = max(1, n_pos)
    n_total = len(batch) * state.grid.boxes.size // 4
    loc, cls, reg = loss_mod.weighted_totals(
        loc_sums, cls_sums, n_pos_eff, n_total, cfg.mode,
        **({"s_cls": s_leaves["bw.s_cls"], "s_loc": s_leaves["bw.s_loc"],
            "s_cls_grid": s_leaves["bw.s_cls_grid"],
            "s_loc_grid": s_leaves["bw.s_loc_grid"]} if learned else {}))
    total = loc + cls + reg

    ad.backward(total)
    grads = {name: t.grad for name, t in params.items() if t.grad is not None}
    all_params = dict(state.model.params)
    if learned:
        # freeze rule: a grid with zero positive labels keeps both of its
        # s entries untouched this iteration
        frozen = per_grid_pos == 0
        for key in ("bw.s_cls_grid", "bw.s_loc_grid"):
            g = s_leaves[key].grad
            if g is not None:
                g = np.where(frozen, 0.0, g)
            grads[key] = g
        grads["bw.s_cls"] = s_leaves["bw.s_cls"].grad
        grads["bw.s_loc"] = s_leaves["bw.s_loc"].grad
        all_params.update(_bw_param_views(state.bw))

    sgd_step(all_params, state.velocity, grads,
             lr_at(state.iteration, cfg), cfg.momentum)
    if learned:
        state.bw.s_cls = float(all_params["bw.s_cls"])
        state.bw.s_loc = float(all_params["bw.s_loc"])
    state.iteration += 1

    loc_f, cls_f, reg_f = float(ad.values_of(loc)), float(ad.values_of(cls)), \
        float(ad.values_of(reg))
    return LossReport(total=loc_f + cls_f + reg_f, loc=loc_f, cls=cls_f,
                      reg=reg_f, n_pos=n_pos, per_grid_pos=per_grid_pos)


def _bw_param_views(bw: BalanceWeights) -> dict[str, np.ndarray]:
    """Balance parameters as 0-d/2-d arrays the optimizer can update in place."""
    return {
        "bw.s_cls": np.asarray(bw.s_cls, dtype=np.float64).reshape(()),
        "bw.s_loc": np.asarray(bw.s_loc, dtype=np.float64).reshape(()),
        "bw.s_cls_grid": bw.s_cls_grid,
        "bw.s_loc_grid": bw.s_loc_grid,
    }


def run_training(state: RunState, scenes: list[Scene], cfg: TrainConfig,
                 log_path=None, checkpoint_dir=None) -> list[LossReport]:
    """Drive train_iteration from state.iteration up to cfg.max_iter.

    The tabular predictor trains on scenes[0] alone (its parameters are
    one fixed scene's outputs); the convnet samples batches and optional
    horizontal flips from the per-iteration RNG.  A run from iteration 0
    starts `log_path` afresh; a resumed run appends to it.  The scene cache
    lives for this call only, as the scenes it describes do.
    """
    tabular = isinstance(state.model, TabularPredictor)
    flipped: dict[int, Scene] = {}
    reports = []
    log = open(log_path, "w" if state.iteration == 0 else "a") if log_path else None
    try:
        if log and state.iteration == 0:
            log.write(LossReport.CSV_HEADER + "\n")
        while state.iteration < cfg.max_iter:
            it = state.iteration
            if tabular:
                batch = [scenes[0]]
            else:
                rng = np.random.default_rng([cfg.seed, 7, it])
                idx = rng.integers(0, len(scenes), size=cfg.batch_size)
                batch = []
                for i in idx:
                    i = int(i)
                    if cfg.flip and rng.random() < 0.5:
                        if i not in flipped:
                            flipped[i] = hflip(scenes[i])
                        batch.append(flipped[i])
                    else:
                        batch.append(scenes[i])
            lr = lr_at(it, cfg)
            report = train_iteration(state, batch, cfg)
            reports.append(report)
            if log:
                log.write(report.csv_row(it, lr) + "\n")
            if checkpoint_dir and cfg.checkpoint_every \
                    and state.iteration % cfg.checkpoint_every == 0:
                save_run(os.path.join(checkpoint_dir,
                                      f"ckpt_{state.iteration:06d}.bin"), state)
    finally:
        state._scene_cache.clear()
        if log:
            log.close()
    return reports


# ---------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------

def save_run(path, state: RunState) -> None:
    arrays: dict[str, np.ndarray] = {}
    for k, v in state.model.meta().items():
        arrays[f"meta.{k}"] = np.asarray(v)
    arrays["meta.iteration"] = np.asarray(float(state.iteration))
    arrays["meta.feat_stride"] = np.asarray(float(state.grid.feat_stride))
    arrays["anchors.shapes"] = np.asarray(
        np.stack([state.grid.boxes[0, 0, :, :, 2], state.grid.boxes[0, 0, :, :, 3]], axis=-1))
    for name, arr in state.model.params.items():
        arrays[f"model.{name}"] = arr
    for name, arr in _bw_param_views(state.bw).items():
        arrays[name] = arr
    for name, arr in state.velocity.items():
        arrays[f"mom.{name}"] = arr
    save_arrays(path, arrays)


def load_run(path) -> RunState:
    arrays = load_arrays(path)
    kind = int(arrays["meta.model_kind"])
    nc = int(arrays["meta.n_classes"])
    na = int(arrays["meta.n_anchors"])
    if int(arrays["meta.feat_stride"]) != FEAT_STRIDE:
        raise ValueError(f"{path}: feature stride is not {FEAT_STRIDE}")
    if kind == 0:
        model = TabularPredictor(int(arrays["meta.h_f"]), int(arrays["meta.w_f"]), nc, na)
        if model.h_f != model.w_f:
            raise ValueError(f"{path}: tabular map {model.h_f}x{model.w_f} is not square")
        image_size = model.h_f * FEAT_STRIDE
    else:
        cfg = ToyNetConfig(input_size=int(arrays["meta.input_size"]),
                           base_channels=int(arrays["meta.base_channels"]),
                           levels=int(arrays["meta.levels"]),
                           head_convs=int(arrays["meta.head_convs"]))
        model = ToyNet(cfg, nc, na, seed=0)
        image_size = cfg.input_size
    for name in model.params:
        model.params[name] = arrays[f"model.{name}"].copy()
    state = RunState.fresh(model, AnchorSet(arrays["anchors.shapes"]), image_size)
    state.bw = BalanceWeights(
        s_cls=float(arrays["bw.s_cls"]), s_loc=float(arrays["bw.s_loc"]),
        s_cls_grid=arrays["bw.s_cls_grid"].copy(),
        s_loc_grid=arrays["bw.s_loc_grid"].copy())
    state.iteration = int(arrays["meta.iteration"])
    state.velocity = {name[len("mom."):]: arr.copy()
                      for name, arr in arrays.items() if name.startswith("mom.")}
    return state


def _parse_bool(text: str) -> bool:
    return text.lower() in ("1", "true", "yes")


def train_config_from_kv(kv: dict[str, str]) -> TrainConfig:
    """Build a TrainConfig from parsed key=value pairs; absent keys keep the
    dataclass defaults, unknown keys are left for the caller."""
    values = {}
    for f in fields(TrainConfig):
        if f.name in kv:
            kind = type(f.default)
            values[f.name] = (_parse_bool if kind is bool else kind)(kv[f.name])
    return TrainConfig(**values)
