"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  The three training benchmarks dominate the runtime
(roughly ten minutes total); everything else is seconds.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math

import numpy as np
import pytest
from scipy.stats import spearmanr

from ponodet import autodiff as ad
from ponodet import benchmarks as B
from ponodet.anchors import AnchorSet, build_grid, kmeans_anchors, wh_iou
from ponodet.assignment import GroundTruth, assign_ao, pred_iou_values
from ponodet.data import GenSpec, Scene, generate
from ponodet.evaluation import average_precision
from ponodet.geometry import Box, Detection, iou
from ponodet.loss import (BalanceWeights, bce_logits, focal_logits,
                          loc_loss_map, weighted_totals)
from ponodet.model import TabularPredictor
from ponodet.train import RunState, TrainConfig, run_training, sgd_step

from test_evaluation import brute_force_ap
from test_geometry import iou_oracle
from test_anchors import grid_search_single_shape


def report(criterion: int, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion:02d} {status} {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# ----------------------------------------------------------------------
# shared training runs (session-scoped: reused across criteria)
# ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def imbalanced_runs():
    bench = B.imbalanced_benchmark()
    return {mode: B.run_cell(bench, mode=mode)
            for mode in ("learned", "retina_norm", "unit")}


@pytest.fixture(scope="session")
def crowded_runs():
    bench = B.crowded_benchmark()
    return {rule: B.run_cell(bench, label_rule=rule)
            for rule in ("AMS", "PONO", "AO")}


@pytest.fixture(scope="session")
def easy_run():
    return B.run_cell(B.easy_benchmark())


# ----------------------------------------------------------------------
# 1. normalized-overlap coverage guarantee
# ----------------------------------------------------------------------

def test_c01_pono_coverage():
    spec_rng = np.random.default_rng(1001)
    checked_objects = 0
    for scene_idx in range(1000):
        n_classes = int(spec_rng.integers(1, 4))
        freq = spec_rng.dirichlet(np.ones(n_classes))
        freq = tuple(float(x) for x in (freq / freq.sum()))
        # renormalize exactly
        freq = freq[:-1] + (1.0 - sum(freq[:-1]),)
        spec = GenSpec(n_classes=n_classes, class_freq=freq,
                       size_ranges=tuple((6.0, 40.0) for _ in range(n_classes)),
                       objects_per_scene=(1, 4),
                       crowding=float(spec_rng.uniform(0, 1)),
                       seed=int(spec_rng.integers(2 ** 31)), image_size=64)
        scene = generate(spec, 1)[0]
        shapes = spec_rng.uniform(6.0, 48.0, size=(n_classes, int(spec_rng.integers(1, 5)), 2))
        grid = build_grid(AnchorSet(shapes), 8, 8, 8)
        am = assign_ao(grid, scene.gt)
        for k in range(len(scene.gt)):
            cluster = am.pono[am.gt_index == k]
            if cluster.size == 0 or cluster.max() != 1.0:
                report(1, False, f"object {k} of scene {scene_idx} lacks a unit-overlap anchor")
            checked_objects += 1
    report(1, True, f"{checked_objects} objects over 1000 random scenes/configs "
                    "all have an anchor with normalized overlap exactly 1.0")


# ----------------------------------------------------------------------
# 2. gradient suite against central finite differences
# ----------------------------------------------------------------------

def _random_instance(rng):
    """Small random grid/object setup away from min/max kinks."""
    na = int(rng.integers(1, 3))
    shapes = rng.uniform(6, 20, size=(1, na, 2))
    grid = build_grid(AnchorSet(shapes), 2, 2, 8)
    boxes = [Box(float(rng.uniform(4, 12)), float(rng.uniform(4, 12)),
                 float(rng.uniform(5, 14)), float(rng.uniform(5, 14)))]
    gt = GroundTruth(boxes=boxes, class_ids=[0])
    am = assign_ao(grid, gt)
    return grid, am, (am.pono > 0.5).astype(float)


def _offsets_kink_free(grid, offs, am, gate, margin=5e-3):
    """True when every gated cell's decoded box sits clear of the IoU
    min/max kinks (coincident edges, vanishing intersection) so central
    differences see a smooth function."""
    from ponodet.geometry import decode_cxywh
    b = grid.boxes
    cx, cy, w, h = decode_cxywh(b[..., 0], b[..., 1], b[..., 2], b[..., 3],
                                offs[..., 0], offs[..., 1],
                                offs[..., 2], offs[..., 3])
    gcx, gcy, gw, gh = am.gt_box
    on = gate > 0
    for lo_a, lo_b in (((cx - w / 2)[on], (gcx - gw / 2)[on]),
                       ((cx + w / 2)[on], (gcx + gw / 2)[on]),
                       ((cy - h / 2)[on], (gcy - gh / 2)[on]),
                       ((cy + h / 2)[on], (gcy + gh / 2)[on])):
        if np.any(np.abs(lo_a - lo_b) < margin):
            return False
    ix = np.minimum(cx + w / 2, gcx + gw / 2) - np.maximum(cx - w / 2, gcx - gw / 2)
    iy = np.minimum(cy + h / 2, gcy + gh / 2) - np.maximum(cy - h / 2, gcy - gh / 2)
    return not (np.any(np.abs(ix[on]) < margin) or np.any(np.abs(iy[on]) < margin))


def test_c02_gradient_suite():
    rng = np.random.default_rng(2002)
    worst = {"offsets": 0.0, "logits_ce": 0.0, "logits_fl": 0.0, "weights": 0.0}
    n = 0
    while n < 100:
        grid, am, gate = _random_instance(rng)
        if gate.sum() == 0:
            continue
        offs = rng.uniform(-0.4, 0.4, grid.boxes.shape)
        if not _offsets_kink_free(grid, offs, am, gate):
            continue

        def f_off(t):
            return loc_loss_map(gate, pred_iou_values(grid, t, am)).sum()

        worst["offsets"] = max(worst["offsets"], ad.grad_check(f_off, [offs]))

        labels = (rng.uniform(0, 1, gate.shape) > 0.5).astype(float)
        z = rng.normal(0, 2.5, gate.shape)
        worst["logits_ce"] = max(worst["logits_ce"], ad.grad_check(
            lambda t: bce_logits(labels, t).sum(), [z]))
        worst["logits_fl"] = max(worst["logits_fl"], ad.grad_check(
            lambda t: focal_logits(labels, t).sum(), [z]))

        nc, na = gate.shape[2], gate.shape[3]
        loc_sums = rng.uniform(0.05, 3, (nc, na))
        cls_sums = rng.uniform(0.05, 3, (nc, na))

        def f_s(sc, sl, scg, slg):
            lo, cl, rg = weighted_totals(loc_sums, cls_sums, 5, 64, "learned",
                                         sc, sl, scg, slg)
            return lo + cl + rg

        worst["weights"] = max(worst["weights"], ad.grad_check(
            f_s, [rng.normal(), rng.normal(),
                  rng.normal(size=(nc, na)), rng.normal(size=(nc, na))]))
        n += 1

    ok = all(v < 1e-3 for v in worst.values())
    report(2, ok, f"{n} instances, max rel errors: " +
           ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


# ----------------------------------------------------------------------
# 3. self-balancing fixed point
# ----------------------------------------------------------------------

def test_c03_self_balancing_fixed_point():
    results = []
    for L in (0.5, 2.0, 10.0):
        params = {"s": np.asarray(1.0).reshape(())}
        vel = {}
        for _ in range(4000):
            g = 1.0 - math.exp(-float(params["s"])) * L
            sgd_step(params, vel, {"s": np.asarray(g)}, lr=0.01, momentum=0.9)
        err = abs(float(params["s"]) - math.log(L))
        results.append((L, err))
    ok = all(err < 1e-3 for _, err in results)
    report(3, ok, "s* vs ln(L): " + ", ".join(f"L={L}: err={e:.1e}" for L, e in results))


# ----------------------------------------------------------------------
# 4. freeze rule leaves absent-class weights bit-equal to initialization
# ----------------------------------------------------------------------

def test_c04_freeze_rule():
    spec = GenSpec(n_classes=2, class_freq=(1.0, 0.0),
                   size_ranges=((8.0, 16.0), (8.0, 16.0)),
                   objects_per_scene=(1, 2), crowding=0.0, seed=404,
                   image_size=32)
    scenes = generate(spec, 10)
    assert all(1 not in s.gt.class_ids for s in scenes)
    aset = AnchorSet(np.full((2, 2, 2), 10.0))
    grid = build_grid(aset, 4, 4, 8)
    model = TabularPredictor(4, 4, 2, 2)
    state = RunState(model=model, grid=grid, bw=BalanceWeights.initial(2, 2))
    cfg = TrainConfig(lr0=0.05, max_iter=120, mode="learned", flip=False)
    run_training(state, scenes, cfg)
    frozen = (np.all(state.bw.s_cls_grid[1] == 1.0)
              and np.all(state.bw.s_loc_grid[1] == 1.0))
    trained = np.any(state.bw.s_cls_grid[0] != 1.0)
    report(4, frozen and trained,
           f"absent-class s rows bit-equal to init: {frozen}; "
           f"present-class weights moved: {trained}")


# ----------------------------------------------------------------------
# 5. weighting-mode ordering on the imbalanced benchmark
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_c05_weighting_mode_ordering(imbalanced_runs):
    m = {k: v["map"] * 100 for k, v in imbalanced_runs.items()}
    ordered = m["learned"] > m["retina_norm"] > m["unit"]
    gap = m["learned"] - m["unit"]
    ok = ordered and gap >= B.TABLE3B_UNIT_GAP_FLOOR
    report(5, ok, f"mAP points: learned={m['learned']:.1f} > "
                  f"retina_norm={m['retina_norm']:.1f} > unit={m['unit']:.1f}; "
                  f"learned-unit gap {gap:.1f} >= {B.TABLE3B_UNIT_GAP_FLOOR}")


# ----------------------------------------------------------------------
# 6. label-rule ordering on the crowded benchmark
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_c06_label_rule_ordering(crowded_runs):
    m = {k: v["map"] * 100 for k, v in crowded_runs.items()}
    ok = m["AMS"] >= m["PONO"] >= m["AO"]
    report(6, ok, f"mAP points: AMS={m['AMS']:.1f} >= PONO={m['PONO']:.1f} "
                  f">= AO={m['AO']:.1f}")


# ----------------------------------------------------------------------
# 7. learned-weight trends: size within class, rarity across classes
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_c07_weight_trends(imbalanced_runs):
    run = imbalanced_runs["learned"]
    bw = run["state"].bw
    areas = B.anchor_areas(run["anchor_set"])
    lam_loc = bw.lambda_loc_grid()
    lam_cls = bw.lambda_cls_grid()
    size_corrs = [spearmanr(areas[c], lam_loc[c]).statistic
                  for c in range(areas.shape[0])]
    size_ok = all(c < 0 for c in size_corrs)
    rare_ok = lam_cls[1].mean() > lam_cls[0].mean()
    report(7, size_ok and rare_ok,
           f"spearman(area, lambda_loc) per class = "
           f"{[round(c, 3) for c in size_corrs]} (all < 0: {size_ok}); "
           f"mean lambda_cls rare={lam_cls[1].mean():.4g} > "
           f"common={lam_cls[0].mean():.4g}: {rare_ok}")


# ----------------------------------------------------------------------
# 8. end-to-end sanity on the easy benchmark
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_c08_end_to_end_sanity(easy_run):
    ok = easy_run["map"] >= 0.90
    report(8, ok, f"easy-set mAP@0.5 = {easy_run['map']:.4f} >= 0.90 "
                  f"within {B.easy_benchmark().train_cfg.max_iter} iterations")


# ----------------------------------------------------------------------
# 9. oracle equivalence: AP, IoU, single-cluster anchor shapes
# ----------------------------------------------------------------------

def test_c09_oracle_equivalence():
    rng = np.random.default_rng(909)
    worst_ap = 0.0
    for _ in range(100):
        gts, dets = [], []
        for _ in range(int(rng.integers(1, 4))):
            n_obj = int(rng.integers(0, 4))
            boxes = [Box(*rng.uniform(10, 50, 2), *rng.uniform(5, 15, 2))
                     for _ in range(n_obj)]
            gts.append(GroundTruth(boxes, [0] * n_obj))
            ds = [Detection(Box(b.cx + rng.normal(0, 2), b.cy + rng.normal(0, 2),
                                b.w * rng.uniform(0.7, 1.3), b.h), 0,
                            float(rng.uniform(0.05, 1.0)))
                  for b in boxes if rng.random() < 0.85]
            ds += [Detection(Box(*rng.uniform(10, 50, 2), *rng.uniform(5, 15, 2)),
                             0, float(rng.uniform(0.05, 1.0)))
                   for _ in range(int(rng.integers(0, 3)))]
            dets.append(ds)
        worst_ap = max(worst_ap, abs(average_precision(dets, gts, 0)
                                     - brute_force_ap(dets, gts, 0)))

    worst_iou = 0.0
    for _ in range(500):
        a = Box(*rng.uniform(-20, 20, 2), *rng.uniform(0.5, 30, 2))
        b = Box(*rng.uniform(-20, 20, 2), *rng.uniform(0.5, 30, 2))
        worst_iou = max(worst_iou, abs(iou(a, b) - iou_oracle(a, b)))

    worst_kmeans = 0.0
    for trial in range(4):
        samples = rng.uniform(6, 40, size=(5, 2))
        aset = kmeans_anchors([samples], n_a=1, seed=trial)
        got = float(np.sum(1.0 - wh_iou(aset.shapes[0, 0], samples)))
        _, grid_cost = grid_search_single_shape(samples)
        worst_kmeans = max(worst_kmeans, got - grid_cost)

    ok = worst_ap < 1e-9 and worst_iou < 1e-12 and worst_kmeans <= 1e-6
    report(9, ok, f"AP-vs-bruteforce max err {worst_ap:.1e} (<1e-9); "
                  f"IoU-vs-oracle max err {worst_iou:.1e} (<1e-12); "
                  f"1-cluster cost minus grid-search best {worst_kmeans:.1e}")


# ----------------------------------------------------------------------
# 10. two identical ablation runs emit byte-identical artifacts
# ----------------------------------------------------------------------

def test_c10_ablate_determinism(tmp_path):
    from ponodet.cli import run as cli_run

    genspec = ("n_classes = 2\nclass_freq = 0.5,0.5\nsize_ranges = 8:14,8:14\n"
               "objects_per_scene = 1,2\ncrowding = 0.5\nseed = 12\nimage_size = 32\n")
    ablate = ("model = toynet\ninput_size = 32\nbase_channels = 2\nlevels = 2\n"
              "head_convs = 1\nlr0 = 0.01\nmax_iter = 25\nbatch_size = 1\n"
              "seed = 3\nn_a = 2\n"
              f"dataset = {tmp_path / 'ds'}\n"
              "cells = AMS:learned:CE,AO:retina_norm:FL\n")
    (tmp_path / "genspec.txt").write_text(genspec)
    (tmp_path / "ablate.txt").write_text(ablate)
    assert cli_run(["gen-data", "--config", str(tmp_path / "genspec.txt"),
                    "--out", str(tmp_path / "ds"), "-n", "10"]) == 0

    for out in ("a", "b"):
        assert cli_run(["ablate", "--config", str(tmp_path / "ablate.txt"),
                        "--out", str(tmp_path / out)]) == 0

    compared = []
    for rel in ("summary.csv", "anchors.txt",
                "ams_learned_ce/log.csv", "ams_learned_ce/report.csv",
                "ams_learned_ce/final.bin",
                "ao_retina_norm_fl/log.csv", "ao_retina_norm_fl/report.csv",
                "ao_retina_norm_fl/final.bin"):
        same = (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        compared.append((rel, same))
    ok = all(s for _, s in compared)
    report(10, ok, f"{len(compared)} artifacts byte-compared, all identical: {ok}")
