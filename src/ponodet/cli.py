"""Command-line surface: data generation, anchor discovery, training,
evaluation, map dumps, weight tables, and the ablation matrix.

Every command is reproducible from its config file and seed alone; all
numeric outputs are also emitted as comma-separated values so downstream
checks parse reports, not logs.  Exit codes: 0 ok, 1 bad usage, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import data as data_mod
from . import evaluation as eval_mod
from .anchors import (MAX_N_A, anchor_grid, check_no_empty_class, kmeans_anchors,
                      load_anchor_set, save_anchor_set, sizes_per_class)
from .assignment import ams_labels, pred_iou_values
from .loss import initial_balance
from .model import ToyNetConfig, net_floats
from .train import RunState, SceneBank, TrainConfig, load_run, run_training, save_run

ABLATE_KEYS = ("dataset", "eval_dataset", "cells", "n_a", "anchors")
MAX_RUN_BYTES = 1 << 32  # the most memory a `train` or `ablate` config may ask a run for
_MAP = r"(pono|labels|prediou)_c\d+_a\d+\.pgm"  # the maps `assign-dump` writes


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on bad flags instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _checked(kind, holds, what: str):
    """An argparse type: a `kind` value for which `holds` is true.  Any other
    text fails parsing, so the error names the flag and nothing runs."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not holds(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


# NaN fails every comparison, so these also reject it
SCORE_MIN = _checked(float, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")
IOU_NMS = _checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
COUNT = _checked(int, lambda v: v >= 1, "a whole number >= 1")
# COUNT's own error passes through, so only the upper bound reads differently
N_A = _checked(COUNT, lambda v: v <= MAX_N_A, f"at most {MAX_N_A}")
SEED = _checked(int, lambda v: v >= 0, "a whole number >= 0")


def _read_config(path, extra_keys=()) -> dict[str, str]:
    """A `train` (or, with ABLATE_KEYS, `ablate`) key=value file of
    TrainConfig and ToyNetConfig fields, `model` and `extra_keys`."""
    kv = data_mod.read_config(path, TrainConfig, ToyNetConfig, extra=("model", *extra_keys))
    if kv.get("model", "toynet") != "toynet":
        raise RuntimeError(f"{path}: model = {kv['model']}, but the only model is toynet")
    return kv


def _net_config(path, kv: dict, image_size: int) -> ToyNetConfig:
    """The network settings read from the config file `path`; `input_size`
    defaults to the dataset's image size.  `_check_image_size` compares them."""
    return data_mod.config_from_kv(ToyNetConfig, {"input_size": str(image_size), **kv}, path)


def _load_scenes(dataset_dir) -> list:
    """A non-empty dataset."""
    scenes = data_mod.load_dataset(dataset_dir)
    if not scenes:
        raise RuntimeError(f"{dataset_dir}: dataset has no scenes")
    return scenes


def _bank(dataset_dir, scenes: list, shapes: np.ndarray) -> SceneBank:
    """The dataset's `SceneBank`; a refused scene is an error naming `dataset_dir`."""
    try:
        return SceneBank(scenes, shapes)
    except ValueError as e:
        raise RuntimeError(f"{dataset_dir}: {e}") from None


def _check_classes(dataset_dir, scenes: list, n_classes: int,
                   covered_by: str = "anchors") -> None:
    """Every class id of an eval dataset is below `n_classes`, the class
    count of the anchors or checkpoint named by `covered_by`."""
    for idx, scene in enumerate(scenes):
        if scene.gt.class_ids.max(initial=-1) >= n_classes:
            raise RuntimeError(
                f"{dataset_dir}: scene {idx} has class id {scene.gt.class_ids.max()}, "
                f"but the {covered_by} cover classes 0..{n_classes - 1}")


def _check_annotated(dataset_dir, gts: list) -> None:
    """The dataset in `dataset_dir`, of ground truth `gts`, has an object."""
    if not any(len(gt) for gt in gts):
        raise RuntimeError(f"{dataset_dir}: no annotated objects")


def _cluster_anchors(dataset_dir, gts: list, n_a: int, seed: int) -> np.ndarray:
    """Per-class k-means anchors from the ground truth of the dataset in
    `dataset_dir`; every class id up to the largest must have a box."""
    _check_annotated(dataset_dir, gts)
    # a set, not np.unique, whose first call imports numpy.ma
    ids = np.array(sorted({c for gt in gts for c in gt.class_ids.tolist()}), dtype=np.int64)
    try:  # on the distinct ids, before an array per class is built
        check_no_empty_class(ids, int(ids[-1]) + 1)
        return kmeans_anchors(sizes_per_class(gts, len(ids)), n_a=n_a, seed=seed)
    except ValueError as e:
        raise RuntimeError(f"{dataset_dir}: {e}") from None


def _check_image_size(dataset_dir, scenes: list, want: int, owner) -> None:
    """The dataset's images are `want` px square, the input size of the
    network that `owner` (a checkpoint or a config file) is for."""
    size = scenes[0].image.shape[0]
    if size != want:
        raise RuntimeError(f"{dataset_dir}: images are {size}px square, "
                           f"but {owner} is for {want}px images")


def _check_run_size(config, cfg: TrainConfig, net: ToyNetConfig, shapes: np.ndarray) -> None:
    """A run of the settings in the config file `config` on anchor `shapes`
    asks for at most MAX_RUN_BYTES, counted on the network's layer walk
    before any kernel is drawn: at least the state's three float64 vectors
    of the trained arrays (the kernels and biases, then the balance
    weights) and one batch's conv patch matrices and outputs."""
    params, acts = net_floats(net, *shapes.shape[:2])
    params += sum(np.size(s) for s in initial_balance(*shapes.shape[:2]).values())
    need = 8 * (3 * params + cfg.batch_size * acts)
    if need > MAX_RUN_BYTES:
        keys = ", ".join(f"{key} = {getattr(net, key)}" for key in
                         ("input_size", "base_channels", "levels", "head_convs"))
        raise RuntimeError(f"{config}: {keys} and batch_size = {cfg.batch_size} ask a run "
                           f"for at least {need / 2 ** 30:.3g} GiB, above the "
                           f"{MAX_RUN_BYTES / 2 ** 30:g} GiB bound")


def cmd_gen_data(args) -> int:
    kv = data_mod.read_config(args.config, data_mod.GenSpec)
    spec = data_mod.config_from_kv(data_mod.GenSpec, kv, args.config)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    scenes = data_mod.generate(spec, args.count)
    data_mod.save_dataset(args.out, scenes)
    data_mod.save_gen_spec(os.path.join(args.out, "genspec.txt"), spec)
    print(f"wrote {len(scenes)} scenes to {args.out}")
    return 0


def cmd_anchors(args) -> int:
    gts = data_mod.load_annotations(os.path.join(args.dataset, "annotations.txt"))
    shapes = _cluster_anchors(args.dataset, gts, args.n_a, args.seed)
    save_anchor_set(args.out, shapes)
    print(f"wrote {len(shapes)}x{args.n_a} anchor shapes to {args.out}")
    return 0


def _train_once(cfg: TrainConfig, net: ToyNetConfig, bank: SceneBank,
                out_dir: str) -> RunState:
    """Train a fresh network on the bank's scenes and shapes and write its
    run to `out_dir`, first removing an earlier run's `final.bin`,
    `report.csv` and `report.txt` there: only a finished run leaves a
    `final.bin` and only a scored one a report."""
    os.makedirs(out_dir, exist_ok=True)
    data_mod.clear(out_dir, r"final\.bin|report\.(csv|txt)")
    state = RunState.fresh(net, bank.shapes, cfg.seed)
    run_training(state, bank, cfg, run_dir=out_dir)
    save_run(os.path.join(out_dir, "final.bin"), state)
    return state


def cmd_train(args) -> int:
    kv = _read_config(args.config)
    cfg = data_mod.config_from_kv(TrainConfig, kv, args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    shapes = load_anchor_set(args.anchors)
    scenes = _load_scenes(args.dataset)
    net = _net_config(args.config, kv, scenes[0].image.shape[0])
    _check_image_size(args.dataset, scenes, net.input_size, args.config)
    _check_run_size(args.config, cfg, net, shapes)
    _train_once(cfg, net, _bank(args.dataset, scenes, shapes), args.out)
    print(f"training finished; checkpoint at {os.path.join(args.out, 'final.bin')}")
    return 0


def _score(state: RunState, scenes: list, out_dir, score_min: float,
           nms_iou: float) -> tuple[dict[int, float], float]:
    """Score the run's network on `scenes`, whose image size the caller has
    checked, on its anchors tiled at that size, and write `report.csv` and
    `report.txt` to `out_dir`: each scored class's AP, annotated objects
    and detections, and the mAP.  Returns the per-class AP and the mAP."""
    grid = anchor_grid(state.shapes, state.model.cfg.input_size)
    dets = eval_mod.dataset_detections(state.model, grid, scenes, score_min, nms_iou)
    per_class, mean, n_gt, n_det = eval_mod.map_eval(dets, [s.gt for s in scenes])
    os.makedirs(out_dir, exist_ok=True)
    rows = [(c, per_class[c], n_gt[c], n_det[c]) for c in sorted(per_class)]
    data_mod.write_csv(os.path.join(out_dir, "report.csv"), "class,ap,n_gt,n_det",
                       rows + [("mean", mean, None, None)])
    with data_mod.atomic_open(os.path.join(out_dir, "report.txt")) as f:
        for c in sorted(per_class):
            f.write(f"class {c}: AP {per_class[c]:.4f} "
                    f"({n_gt[c]} objects, {n_det[c]} detections)\n")
        f.write(f"mAP {mean:.4f}\n")
    return per_class, mean


def cmd_eval(args) -> int:
    state = load_run(args.checkpoint)
    scenes = _load_scenes(args.dataset)
    _check_annotated(args.dataset, [s.gt for s in scenes])
    _check_classes(args.dataset, scenes, len(state.shapes), "checkpoint's anchors")
    _check_image_size(args.dataset, scenes, state.model.cfg.input_size, args.checkpoint)
    per_class, mean = _score(state, scenes, args.out, args.score_min, args.iou_nms)
    for c in sorted(per_class):
        print(f"class {c}: AP {per_class[c]:.4f}")
    print(f"mAP {mean:.4f}")
    return 0


def cmd_assign_dump(args) -> int:
    shapes = load_anchor_set(args.anchors)
    scenes = _load_scenes(args.dataset)
    bank = _bank(args.dataset, scenes, shapes)
    if not 0 <= args.scene < len(scenes):
        raise RuntimeError(f"{args.dataset}: no scene {args.scene} "
                           f"({len(scenes)} scenes)")
    state = load_run(args.checkpoint) if args.checkpoint else None
    if state is not None:
        if not np.array_equal(state.shapes, shapes):
            raise RuntimeError(f"{args.checkpoint}: the checkpoint's anchors are not "
                               f"those of {args.anchors}")
        _check_image_size(args.dataset, scenes, state.model.cfg.input_size, args.checkpoint)
    grid, (images, assignment) = bank.grid, bank.batch([(args.scene, False)])
    pono, gt_index = assignment.pono[0], assignment.gt_index[0]
    o_hat = np.zeros_like(pono)
    if state is not None:
        out = state.model.forward(state.model.params, images)
        o_hat = pred_iou_values(grid, out.offsets, assignment)[0]
    labels = ams_labels(pono, o_hat)
    os.makedirs(args.out, exist_ok=True)
    data_mod.clear(args.out, _MAP)  # an earlier dump's, of another grid or with pred_iou
    for c, a in np.ndindex(grid.shape[2:4]):
        data_mod.write_pnm(os.path.join(args.out, f"pono_c{c}_a{a}.pgm"),
                           pono[:, :, c, a])
        data_mod.write_pnm(os.path.join(args.out, f"labels_c{c}_a{a}.pgm"),
                           labels[:, :, c, a].astype(np.float64))
        if state is not None:
            data_mod.write_pnm(os.path.join(args.out, f"prediou_c{c}_a{a}.pgm"),
                               o_hat[:, :, c, a])
    data_mod.write_csv(os.path.join(args.out, "maps.csv"),
                       "i,j,class,anchor,gt_index,pono,pred_iou,label",
                       ((*cell, gt_index[cell], pono[cell], o_hat[cell],
                         labels[cell]) for cell in np.ndindex(labels.shape)))
    print(f"wrote assignment maps for scene {args.scene} to {args.out}")
    return 0


def cmd_plot_weights(args) -> int:
    state = load_run(args.checkpoint)
    shapes = state.shapes
    lam_cls = np.exp(-state.bw["bw.s_cls_grid"])
    lam_loc = np.exp(-state.bw["bw.s_loc_grid"])
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "weights.csv")
    rows = [(c, a, w, h, w * h, lam_cls[c, a], lam_loc[c, a]) for (c, a), (w, h)
            in zip(np.ndindex(shapes.shape[:2]), shapes.reshape(-1, 2).tolist())]
    # math.exp: np.exp may round the last bit differently
    s_cls, s_loc = float(state.bw["bw.s_cls"]), float(state.bw["bw.s_loc"])
    rows.append(("global", None, None, None, None, math.exp(-s_cls), math.exp(-s_loc)))
    data_mod.write_csv(path, "class,anchor,w,h,area,lambda_cls,lambda_loc", rows)
    print(f"wrote weight table to {path}")
    return 0


def _ablation_cell(config, base: TrainConfig, text: str) -> tuple[str, TrainConfig]:
    """The name and TrainConfig of one `label:mode:loss` cell over the base
    config, checked before anything runs; a bad cell is an error naming the
    config file and the cell."""
    parts = text.split(":")
    if len(parts) != 3:
        raise RuntimeError(f"{config}: bad ablation cell {text!r}; "
                           "expected label:mode:loss")
    try:
        cfg = replace(base, label_rule=parts[0], mode=parts[1], cls_loss=parts[2])
    except ValueError as e:
        raise RuntimeError(f"{config}: bad ablation cell {text!r}: {e}") from None
    return "_".join(parts).lower(), cfg


def cmd_ablate(args) -> int:
    kv = _read_config(args.config, ABLATE_KEYS)
    base = data_mod.config_from_kv(TrainConfig, kv, args.config)
    texts = [text.strip() for text in kv.get("cells", "").split(",") if text.strip()]
    for key, given in (("dataset", kv.get("dataset")), ("cells", texts)):
        if not given:
            raise RuntimeError(f"{args.config}: config key {key!r} is missing or empty")
    # an empty `anchors`, like an empty `eval_dataset`, is absent
    if kv.get("anchors") and "n_a" in kv:
        raise RuntimeError(f"{args.config}: config keys 'n_a' and 'anchors' exclude each other")
    dataset_dir = kv["dataset"]
    eval_dir = kv.get("eval_dataset") or dataset_dir
    try:
        n_a = N_A(kv.get("n_a", "3"))
    except argparse.ArgumentTypeError as e:
        raise RuntimeError(f"{args.config}: n_a {e}") from None
    cells = [_ablation_cell(args.config, base, text) for text in texts]
    seen = set()
    for text, (name, _) in zip(texts, cells):
        if name in seen:
            raise RuntimeError(f"{args.config}: ablation cell {text!r} appears more than once")
        seen.add(name)
    # everything the network settings need is read and checked before
    # anchors are clustered or anything is written
    scenes = _load_scenes(dataset_dir)
    eval_scenes = scenes if eval_dir == dataset_dir else _load_scenes(eval_dir)
    _check_annotated(eval_dir, [s.gt for s in eval_scenes])
    net = _net_config(args.config, kv, scenes[0].image.shape[0])
    for directory, checked in ((dataset_dir, scenes), (eval_dir, eval_scenes)):
        _check_image_size(directory, checked, net.input_size, args.config)

    if kv.get("anchors"):
        shapes = load_anchor_set(kv["anchors"])
    else:
        shapes = _cluster_anchors(dataset_dir, [s.gt for s in scenes], n_a, base.seed)
    # one bank for every cell: the cells draw the same batches, so each
    # scene is mirrored and assigned once per ablation
    bank = _bank(dataset_dir, scenes, shapes)
    if eval_scenes is not scenes:
        _check_classes(eval_dir, eval_scenes, len(shapes))
    _check_run_size(args.config, base, net, shapes)
    os.makedirs(args.out, exist_ok=True)
    summary = os.path.join(args.out, "summary.csv")
    clustered = os.path.join(args.out, "anchors.txt")
    # an earlier run's summary, and its anchors unless they are the ones given
    kept = kv.get("anchors") and os.path.exists(clustered) and os.path.samefile(
        clustered, kv["anchors"])
    data_mod.clear(args.out, r"summary\.csv" if kept else r"summary\.csv|anchors\.txt")
    if not kv.get("anchors"):
        save_anchor_set(clustered, shapes)

    rows = []
    for name, cfg in cells:
        cell_dir = os.path.join(args.out, name)
        # no name holds the cell's state, so it is freed before the next is built
        per_class, mean = _score(_train_once(cfg, net, bank, cell_dir), eval_scenes,
                                 cell_dir, args.score_min, args.iou_nms)
        rows.append((name, cfg.label_rule, cfg.mode, cfg.cls_loss, mean, per_class))
        print(f"{name}: mAP {mean:.4f}")

    classes = sorted({c for *_, pc in rows for c in pc})
    # with no scored class, the ap columns are one empty field
    data_mod.write_csv(summary, "cell,label_rule,mode,cls_loss,map,"
                       + ",".join(f"ap_{c}" for c in classes),
                       [(*row, *([pc.get(c, 0.0) for c in classes] or [None]))
                        for *row, pc in rows])
    print(f"summary at {summary}")
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="ponodet",
                description="dense detector training on synthetic scenes")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--config", required=True, help="generator key=value file")
    g.add_argument("--out", required=True)
    g.add_argument("--count", "-n", type=COUNT, required=True)
    g.add_argument("--seed", type=SEED, default=None)
    g.set_defaults(fn=cmd_gen_data)

    a = sub.add_parser("anchors", help="cluster per-class anchor shapes")
    a.add_argument("--dataset", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--n-a", type=N_A, default=3)
    a.add_argument("--seed", type=SEED, default=0)
    a.set_defaults(fn=cmd_anchors)

    t = sub.add_parser("train", help="train a predictor")
    t.add_argument("--config", required=True, help="training key=value file")
    t.add_argument("--dataset", required=True)
    t.add_argument("--anchors", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=SEED, default=None)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="score a checkpoint on a dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--dataset", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--score-min", type=SCORE_MIN, default=0.05)
    e.add_argument("--iou-nms", type=IOU_NMS, default=0.5)
    e.set_defaults(fn=cmd_eval)

    d = sub.add_parser("assign-dump", help="dump assignment maps for one scene")
    d.add_argument("--dataset", required=True)
    d.add_argument("--scene", type=SEED, default=0)
    d.add_argument("--anchors", required=True)
    d.add_argument("--checkpoint", default=None)
    d.add_argument("--out", required=True)
    d.set_defaults(fn=cmd_assign_dump)

    w = sub.add_parser("plot-weights", help="dump the learned weight table")
    w.add_argument("--checkpoint", required=True)
    w.add_argument("--out", required=True)
    w.set_defaults(fn=cmd_plot_weights)

    b = sub.add_parser("ablate", help="train+eval one cell per matrix entry")
    b.add_argument("--config", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--score-min", type=SCORE_MIN, default=0.05)
    b.add_argument("--iou-nms", type=IOU_NMS, default=0.5)
    b.set_defaults(fn=cmd_ablate)
    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except Exception as e:  # runtime failures exit 2 with a message
        sys.stderr.write(f"error: {e}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
