"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  The seven pinned training runs dominate the runtime; they
train side by side in worker processes, one per usable core (about 50 s
on a 2-core VM), and everything else is seconds.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import hashlib
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.stats import spearmanr

from ponodet import benchmarks as B
from ponodet.anchors import kmeans_anchors, wh_iou
from ponodet.assignment import GroundTruth, assign_ao, pred_iou_values
from ponodet.data import GenSpec, Scene, generate
from ponodet.geometry import Detections, pairwise_iou
from ponodet.loss import (bce_logits, focal_logits, initial_balance,
                          loc_loss_map, weighted_totals)
from ponodet.model import ToyNetConfig
from ponodet.train import (RunState, SceneBank, TrainConfig, lr_at, sgd_step,
                           train_iteration)

from test_autodiff import grad_check, reduce_sum, take
from test_evaluation import average_precision, brute_force_ap
from test_geometry import decode_cxywh, iou_oracle
from test_anchors import build_grid, grid_search_single_shape
from test_assignment import stack_records
from test_cli import read_manifest
from test_model import TabularPredictor

# mAP-point floor (x100 scale) by which unit weighting must trail learned
# weighting on the imbalanced benchmark; pinned from the first passing run
# (observed gap there: ~50 points).
TABLE3B_UNIT_GAP_FLOOR = 20.0


def report(criterion: int, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion:02d} {status} {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# ----------------------------------------------------------------------
# shared training runs (session-scoped: reused across criteria)
# ----------------------------------------------------------------------

def easy_benchmark() -> B.Benchmark:
    """Balanced, uncrowded, separable: a trained detector should saturate."""
    gen = GenSpec(n_classes=2, class_freq=(0.5, 0.5),
                  size_ranges=((10.0, 26.0), (10.0, 26.0)),
                  objects_per_scene=(1, 3), crowding=0.0, seed=101,
                  image_size=B.IMAGE_SIZE)
    return B.Benchmark(
        gen=gen, n_anchors=3,
        train_cfg=TrainConfig(max_iter=5000, batch_size=1, seed=11),
        net=ToyNetConfig(input_size=B.IMAGE_SIZE, base_channels=8,
                         levels=2, head_convs=2))


# the pinned runs as (benchmark, run_cell keyword, value), longest first
PINNED_RUNS = ([("imbalanced", "mode", mode) for mode in ("learned", "retina_norm", "unit")]
               + [("easy", None, None)]
               + [("crowded", "label_rule", rule) for rule in ("AMS", "PONO", "AO")])
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.cache
def _benchmark(name: str) -> B.Benchmark:
    """One object per benchmark and process: the cells a worker trains of
    one benchmark share its setup, as they do in one process."""
    return {"imbalanced": B.imbalanced_benchmark, "crowded": B.crowded_benchmark,
            "easy": easy_benchmark}[name]()


def _pinned_run(name: str, key, value) -> dict:
    return B.run_cell(_benchmark(name), **({key: value} if key else {}))


@pytest.fixture(scope="session")
def pinned_runs():
    """Every pinned run's `run_cell` result, keyed by its PINNED_RUNS entry.
    The runs train at first use in one pool of spawned workers, one per
    usable core.  A cell's bytes depend only on its benchmark and config,
    and BLAS is set to one thread before a worker loads numpy, so a worker
    gives the result the cell gives in process.  The parent's environment
    is restored afterwards."""
    saved = {var: os.environ.get(var) for var in BLAS_THREADS}
    os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))
    try:
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
        workers = min(len(PINNED_RUNS), cores)
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) \
                as pool:
            futures = {run: pool.submit(_pinned_run, *run) for run in PINNED_RUNS}
            return {run: future.result() for run, future in futures.items()}
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _runs_of(pinned_runs, benchmark: str) -> dict:
    return {value: run for (name, _, value), run in pinned_runs.items() if name == benchmark}


@pytest.fixture(scope="session")
def imbalanced_runs(pinned_runs):
    return _runs_of(pinned_runs, "imbalanced")


@pytest.fixture(scope="session")
def crowded_runs(pinned_runs):
    return _runs_of(pinned_runs, "crowded")


@pytest.fixture(scope="session")
def easy_run(pinned_runs):
    return pinned_runs[("easy", None, None)]


def pinned_line(run: tuple, result: dict) -> str:
    """A pinned run's manifest line: its name, the sha256 of its trained
    `flat_params` and of its `log.csv` rows, and its mAP's repr."""
    name, key, value = run
    cfg = _benchmark(name).train_cfg
    rows = "".join(f"{r.csv_row(i, lr_at(i, cfg))}\n" for i, r in enumerate(result["reports"]))
    return " ".join([name + (f":{key}={value}" if key else ""),
                     hashlib.sha256(result["state"].flat_params.tobytes()).hexdigest(),
                     hashlib.sha256(rows.encode()).hexdigest(), repr(result["map"])])


@pytest.mark.slow
def test_pinned_runs_match_the_manifest(pinned_runs):
    """Every pinned run trains the bytes and scores the mAP recorded in
    tests/pinned_runs.txt.  The criteria below judge what the runs learn;
    this test pins that they are the runs judged last time.  A change that
    alters them on purpose rewrites the manifest from this test's message."""
    got = [pinned_line(run, result) for run, result in pinned_runs.items()]
    assert read_manifest("pinned_runs.txt") == got, "the pinned runs gave:\n" + "\n".join(got)


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
        grid = build_grid(shapes, 8, 8, 8)
        am = stack_records([assign_ao(grid, scene.gt)])
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
    grid = build_grid(shapes, 2, 2, 8)
    boxes = [(float(rng.uniform(4, 12)), float(rng.uniform(4, 12)),
              float(rng.uniform(5, 14)), float(rng.uniform(5, 14)))]
    gt = GroundTruth(boxes=boxes, class_ids=[0])
    am = stack_records([assign_ao(grid, gt)])
    return grid, am, (am.pono[0] > 0.5).astype(float)


def _offsets_kink_free(grid, offs, am, gate, margin=5e-3):
    """True when every gated cell's decoded box sits clear of the IoU
    min/max kinks (coincident edges, vanishing intersection) so central
    differences see a smooth function."""
    cx, cy, w, h = decode_cxywh(*np.moveaxis(grid, -1, 0), *np.moveaxis(offs, -1, 0))
    gcx, gcy, gw, gh = np.moveaxis(am.gt_box[0], -1, 0)
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
        grid, stacked, gate = _random_instance(rng)
        if gate.sum() == 0:
            continue
        offs = rng.uniform(-0.4, 0.4, grid.shape)
        if not _offsets_kink_free(grid, offs, stacked, gate):
            continue

        def f_off(t):
            return reduce_sum(loc_loss_map(
                gate, take(pred_iou_values(grid, take(t, None), stacked), 0)))

        worst["offsets"] = max(worst["offsets"], grad_check(f_off, [offs]))

        labels = (rng.uniform(0, 1, gate.shape) > 0.5).astype(float)
        z = rng.normal(0, 2.5, gate.shape)
        worst["logits_ce"] = max(worst["logits_ce"], grad_check(
            lambda t: reduce_sum(bce_logits(labels, t)), [z]))
        worst["logits_fl"] = max(worst["logits_fl"], grad_check(
            lambda t: reduce_sum(focal_logits(labels, t)), [z]))

        nc, na = gate.shape[2], gate.shape[3]
        loc_sums = rng.uniform(0.05, 3, (nc, na))
        cls_sums = rng.uniform(0.05, 3, (nc, na))

        def f_s(*s):
            bw = dict(zip(initial_balance(nc, na), s))
            return weighted_totals(loc_sums, cls_sums, 5, 64, "learned", bw)[0]

        worst["weights"] = max(worst["weights"], grad_check(
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
        s, vel = np.array([1.0]), np.zeros(1)
        for _ in range(4000):
            g = 1.0 - math.exp(-float(s[0])) * L
            sgd_step(s, vel, np.array([g]), lr=0.01)
        err = abs(float(s[0]) - math.log(L))
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
    aset = np.full((2, 2, 2), 10.0)
    model = TabularPredictor(4, 4, 2, 2)
    state = RunState(model=model, shapes=aset, bw=initial_balance(2, 2))
    cfg = TrainConfig(lr0=0.05, max_iter=120, mode="learned")
    # the tabular predictor's outputs are one fixed scene's, never mirrored
    bank = SceneBank(scenes[:1], state.shapes)
    for _ in range(cfg.max_iter):
        train_iteration(state, [(0, False)], cfg, bank)
    frozen = (np.all(state.bw["bw.s_cls_grid"][1] == 1.0)
              and np.all(state.bw["bw.s_loc_grid"][1] == 1.0))
    trained = np.any(state.bw["bw.s_cls_grid"][0] != 1.0)
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
    ok = ordered and gap >= TABLE3B_UNIT_GAP_FLOOR
    report(5, ok, f"mAP points: learned={m['learned']:.1f} > "
                  f"retina_norm={m['retina_norm']:.1f} > unit={m['unit']:.1f}; "
                  f"learned-unit gap {gap:.1f} >= {TABLE3B_UNIT_GAP_FLOOR}")


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
    shapes = run["state"].shapes
    areas = shapes[..., 0] * shapes[..., 1]
    lam_loc = np.exp(-bw["bw.s_loc_grid"])
    lam_cls = np.exp(-bw["bw.s_cls_grid"])
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
                  f"within {easy_benchmark().train_cfg.max_iter} iterations")


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
            boxes = [(*rng.uniform(10, 50, 2), *rng.uniform(5, 15, 2))
                     for _ in range(n_obj)]
            gts.append(GroundTruth(boxes, [0] * n_obj))
            ds = [((cx + rng.normal(0, 2), cy + rng.normal(0, 2),
                    w * rng.uniform(0.7, 1.3), h), float(rng.uniform(0.05, 1.0)))
                  for cx, cy, w, h in boxes if rng.random() < 0.85]
            ds += [((*rng.uniform(10, 50, 2), *rng.uniform(5, 15, 2)),
                    float(rng.uniform(0.05, 1.0)))
                   for _ in range(int(rng.integers(0, 3)))]
            dets.append(Detections([b for b, _ in ds], [0] * len(ds),
                                   [score for _, score in ds]))
        worst_ap = max(worst_ap, abs(average_precision(dets, gts, 0)
                                     - brute_force_ap(dets, gts, 0)))

    a, b = np.zeros((500, 4)), np.zeros((500, 4))
    for k in range(500):
        a[k] = [*rng.uniform(-20, 20, 2), *rng.uniform(0.5, 30, 2)]
        b[k] = [*rng.uniform(-20, 20, 2), *rng.uniform(0.5, 30, 2)]
    ious = pairwise_iou(a, b)
    iou_mismatches = sum(ious[i, j] != iou_oracle(a[i], b[j])
                         for i, j in np.ndindex(ious.shape))

    worst_kmeans = 0.0
    for trial in range(4):
        samples = rng.uniform(6, 40, size=(5, 2))
        aset = kmeans_anchors([samples], n_a=1, seed=trial)
        got = float(np.sum(1.0 - wh_iou(aset[0, 0], samples)))
        _, grid_cost = grid_search_single_shape(samples)
        worst_kmeans = max(worst_kmeans, got - grid_cost)

    ok = worst_ap < 1e-9 and iou_mismatches == 0 and worst_kmeans <= 1e-6
    report(9, ok, f"AP-vs-bruteforce max err {worst_ap:.1e} (<1e-9); "
                  f"IoU matrix entries differing from the oracle {iou_mismatches} "
                  f"of {ious.size} (0 allowed); "
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
