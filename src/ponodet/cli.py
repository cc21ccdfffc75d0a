"""Command-line surface: data generation, anchor discovery, training,
evaluation, map dumps, weight tables, and the ablation matrix.

Every command is reproducible from its config file and seed alone; all
numeric outputs are also emitted as comma-separated values so downstream
checks parse reports, not logs.  Exit codes: 0 ok, 1 bad usage, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import data as data_mod
from . import evaluation as eval_mod
from .anchors import (AnchorSet, kmeans_anchors, load_anchor_set,
                      save_anchor_set, sizes_per_class)
from .assignment import ams_labels, assign_ao, pred_iou_values
from .model import FEAT_STRIDE, TabularPredictor, ToyNet, ToyNetConfig
from .train import (RunState, load_run, run_training, save_run,
                    train_config_from_kv)


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on bad flags instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _load_scenes(dataset_dir, anchor_set: AnchorSet) -> list:
    """A non-empty dataset whose class ids all have anchors."""
    scenes = data_mod.load_dataset(dataset_dir)
    if not scenes:
        raise RuntimeError(f"{dataset_dir}: dataset has no scenes")
    for idx, scene in enumerate(scenes):
        for cid in scene.gt.class_ids:
            if cid >= anchor_set.n_classes:
                raise RuntimeError(
                    f"{dataset_dir}: scene {idx} has class id {cid}, but the "
                    f"anchors cover classes 0..{anchor_set.n_classes - 1}")
    return scenes


def _cluster_anchors(dataset_dir, n_a: int, seed: int) -> AnchorSet:
    """Per-class k-means anchors from a dataset's annotations."""
    gts = data_mod.load_annotations(os.path.join(dataset_dir, "annotations.txt"))
    n_classes = max((c for gt in gts for c in gt.class_ids), default=-1) + 1
    if n_classes == 0:
        raise RuntimeError(f"{dataset_dir}: no annotated objects")
    return kmeans_anchors(sizes_per_class(gts, n_classes), n_a=n_a, seed=seed)


def _build_model(kv: dict, n_classes: int, n_anchors: int, seed: int,
                 image_size: int):
    kind = kv.get("model", "toynet")
    if kind == "tabular":
        f = image_size // FEAT_STRIDE
        return TabularPredictor(f, f, n_classes, n_anchors)
    cfg = ToyNetConfig(
        input_size=int(kv.get("input_size", image_size)),
        base_channels=int(kv.get("base_channels", "8")),
        levels=int(kv.get("levels", "2")),
        head_convs=int(kv.get("head_convs", "2")))
    return ToyNet(cfg, n_classes, n_anchors, seed=seed)


def cmd_gen_data(args) -> int:
    spec = data_mod.gen_spec_from_file(args.config)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    scenes = data_mod.generate(spec, args.count)
    data_mod.save_dataset(args.out, scenes)
    data_mod.save_gen_spec(os.path.join(args.out, "genspec.txt"), spec)
    print(f"wrote {len(scenes)} scenes to {args.out}")
    return 0


def cmd_anchors(args) -> int:
    anchor_set = _cluster_anchors(args.dataset, args.n_a, args.seed)
    save_anchor_set(args.out, anchor_set)
    print(f"wrote {anchor_set.n_classes}x{args.n_a} anchor shapes to {args.out}")
    return 0


def _train_once(kv: dict, dataset_dir: str, anchors_path: str, out_dir: str,
                seed_override=None) -> RunState:
    anchor_set = load_anchor_set(anchors_path)
    scenes = _load_scenes(dataset_dir, anchor_set)
    cfg = train_config_from_kv(kv)
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    image_size = scenes[0].image.shape[0]
    model = _build_model(kv, anchor_set.n_classes, anchor_set.n_anchors,
                         cfg.seed, image_size)
    state = RunState.fresh(model, anchor_set, image_size)
    os.makedirs(out_dir, exist_ok=True)
    run_training(state, scenes, cfg,
                 log_path=os.path.join(out_dir, "log.csv"),
                 checkpoint_dir=out_dir)
    save_run(os.path.join(out_dir, "final.bin"), state)
    return state


def cmd_train(args) -> int:
    kv = data_mod.read_kv(args.config)
    _train_once(kv, args.dataset, args.anchors, args.out, args.seed)
    print(f"training finished; checkpoint at {os.path.join(args.out, 'final.bin')}")
    return 0


def _evaluate(state: RunState, dataset_dir: str, score_min: float,
              nms_iou: float, iou_match: float = 0.5):
    scenes = data_mod.load_dataset(dataset_dir)
    dets = eval_mod.dataset_detections(state.model, state.grid, scenes,
                                       score_min, nms_iou)
    gts = [s.gt for s in scenes]
    per_class, mean = eval_mod.map_eval(dets, gts, iou_match)
    n_gt = {c: sum(gt.class_ids.count(c) for gt in gts) for c in per_class}
    n_det = {c: sum(1 for ds in dets for d in ds if d.class_id == c)
             for c in per_class}
    return per_class, mean, n_gt, n_det


def _write_eval_report(out_dir, per_class, mean, n_gt, n_det) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.csv"), "w") as f:
        f.write("class,ap,n_gt,n_det\n")
        for c in sorted(per_class):
            f.write(f"{c},{per_class[c]!r},{n_gt[c]},{n_det[c]}\n")
        f.write(f"mean,{mean!r},,\n")
    with open(os.path.join(out_dir, "report.txt"), "w") as f:
        for c in sorted(per_class):
            f.write(f"class {c}: AP {per_class[c]:.4f} "
                    f"({n_gt[c]} objects, {n_det[c]} detections)\n")
        f.write(f"mAP {mean:.4f}\n")


def cmd_eval(args) -> int:
    state = load_run(args.checkpoint)
    per_class, mean, n_gt, n_det = _evaluate(
        state, args.dataset, args.score_min, args.iou_nms)
    _write_eval_report(args.out, per_class, mean, n_gt, n_det)
    for c in sorted(per_class):
        print(f"class {c}: AP {per_class[c]:.4f}")
    print(f"mAP {mean:.4f}")
    return 0


def cmd_assign_dump(args) -> int:
    anchor_set = load_anchor_set(args.anchors)
    scenes = _load_scenes(args.dataset, anchor_set)
    if not 0 <= args.scene < len(scenes):
        raise RuntimeError(f"{args.dataset}: no scene {args.scene} "
                           f"({len(scenes)} scenes)")
    scene = scenes[args.scene]
    model = load_run(args.checkpoint).model if args.checkpoint else None
    grid = RunState.fresh(model, anchor_set, scene.image.shape[0]).grid
    assignment = assign_ao(grid, scene.gt)
    o_hat = np.zeros_like(assignment.pono)
    if model is not None:
        out = model.forward(model.params, scene.image)
        o_hat = pred_iou_values(grid, out.offsets, assignment)
    labels = ams_labels(assignment.pono, o_hat)
    os.makedirs(args.out, exist_ok=True)
    nc, na = grid.n_classes, grid.n_anchors
    for c in range(nc):
        for a in range(na):
            data_mod.write_pgm(os.path.join(args.out, f"pono_c{c}_a{a}.pgm"),
                               assignment.pono[:, :, c, a])
            data_mod.write_pgm(os.path.join(args.out, f"labels_c{c}_a{a}.pgm"),
                               labels[:, :, c, a].astype(np.float64))
            if model is not None:
                data_mod.write_pgm(os.path.join(args.out, f"prediou_c{c}_a{a}.pgm"),
                                   o_hat[:, :, c, a])
    with open(os.path.join(args.out, "maps.csv"), "w") as f:
        f.write("i,j,class,anchor,gt_index,pono,pred_iou,label\n")
        for i in range(grid.h_f):
            for j in range(grid.w_f):
                for c in range(nc):
                    for a in range(na):
                        f.write(f"{i},{j},{c},{a},"
                                f"{int(assignment.gt_index[i, j, c, a])},"
                                f"{float(assignment.pono[i, j, c, a])!r},"
                                f"{float(o_hat[i, j, c, a])!r},"
                                f"{int(labels[i, j, c, a])}\n")
    print(f"wrote assignment maps for scene {args.scene} to {args.out}")
    return 0


def cmd_plot_weights(args) -> int:
    state = load_run(args.checkpoint)
    shapes = np.stack([state.grid.boxes[0, 0, :, :, 2],
                       state.grid.boxes[0, 0, :, :, 3]], axis=-1)
    lam_cls = state.bw.lambda_cls_grid()
    lam_loc = state.bw.lambda_loc_grid()
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "weights.csv")
    with open(path, "w") as f:
        f.write("class,anchor,w,h,area,lambda_cls,lambda_loc\n")
        for c in range(shapes.shape[0]):
            for a in range(shapes.shape[1]):
                w, h = float(shapes[c, a, 0]), float(shapes[c, a, 1])
                f.write(f"{c},{a},{w!r},{h!r},{w * h!r},"
                        f"{float(lam_cls[c, a])!r},{float(lam_loc[c, a])!r}\n")
        f.write(f"global,,,,,{state.bw.lambda_cls()!r},{state.bw.lambda_loc()!r}\n")
    print(f"wrote weight table to {path}")
    return 0


def cmd_ablate(args) -> int:
    kv = data_mod.read_kv(args.config)
    dataset_dir = kv["dataset"]
    eval_dir = kv.get("eval_dataset", dataset_dir)
    cells = [tuple(cell.strip().split(":"))
             for cell in kv["cells"].split(",") if cell.strip()]
    os.makedirs(args.out, exist_ok=True)

    anchors_path = kv.get("anchors")
    if not anchors_path:
        anchor_set = _cluster_anchors(dataset_dir, int(kv.get("n_a", "3")),
                                      int(kv.get("seed", "0")))
        anchors_path = os.path.join(args.out, "anchors.txt")
        save_anchor_set(anchors_path, anchor_set)

    rows = []
    for cell in cells:
        if len(cell) != 3:
            raise RuntimeError(f"bad ablation cell {cell!r}; expected label:mode:loss")
        label_rule, mode, cls_loss = cell
        name = f"{label_rule}_{mode}_{cls_loss}".lower()
        cell_kv = dict(kv)
        cell_kv.update(label_rule=label_rule, mode=mode, cls_loss=cls_loss)
        cell_dir = os.path.join(args.out, name)
        state = _train_once(cell_kv, dataset_dir, anchors_path, cell_dir)
        per_class, mean, n_gt, n_det = _evaluate(
            state, eval_dir, args.score_min, args.iou_nms)
        _write_eval_report(cell_dir, per_class, mean, n_gt, n_det)
        rows.append((name, label_rule, mode, cls_loss, mean, per_class))
        print(f"{name}: mAP {mean:.4f}")

    classes = sorted({c for *_, pc in rows for c in pc})
    with open(os.path.join(args.out, "summary.csv"), "w") as f:
        f.write("cell,label_rule,mode,cls_loss,map,"
                + ",".join(f"ap_{c}" for c in classes) + "\n")
        for name, label_rule, mode, cls_loss, mean, pc in rows:
            aps = ",".join(repr(pc.get(c, 0.0)) for c in classes)
            f.write(f"{name},{label_rule},{mode},{cls_loss},{mean!r},{aps}\n")
    print(f"summary at {os.path.join(args.out, 'summary.csv')}")
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="ponodet",
                description="dense detector training on synthetic scenes")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--config", required=True, help="generator key=value file")
    g.add_argument("--out", required=True)
    g.add_argument("--count", "-n", type=int, required=True)
    g.add_argument("--seed", type=int, default=None)
    g.set_defaults(fn=cmd_gen_data)

    a = sub.add_parser("anchors", help="cluster per-class anchor shapes")
    a.add_argument("--dataset", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--n-a", type=int, default=3)
    a.add_argument("--seed", type=int, default=0)
    a.set_defaults(fn=cmd_anchors)

    t = sub.add_parser("train", help="train a predictor")
    t.add_argument("--config", required=True, help="training key=value file")
    t.add_argument("--dataset", required=True)
    t.add_argument("--anchors", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=None)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="score a checkpoint on a dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--dataset", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--score-min", type=float, default=0.05)
    e.add_argument("--iou-nms", type=float, default=0.5)
    e.set_defaults(fn=cmd_eval)

    d = sub.add_parser("assign-dump", help="dump assignment maps for one scene")
    d.add_argument("--dataset", required=True)
    d.add_argument("--scene", type=int, default=0)
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
    b.add_argument("--score-min", type=float, default=0.05)
    b.add_argument("--iou-nms", type=float, default=0.5)
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
