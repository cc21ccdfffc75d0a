import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ponodet.anchors import AnchorSet, build_grid
from ponodet.assignment import GroundTruth
from ponodet.evaluation import average_precision, extract_detections, map_eval
from ponodet.geometry import Box, Detection, iou


def brute_force_ap(dets_per_scene, gts, class_id, iou_match=0.5):
    """Threshold-sweep oracle: rebuild the match set from scratch at every
    distinct score threshold, then integrate the precision envelope over
    the achieved recalls."""
    flat = []
    for s, dets in enumerate(dets_per_scene):
        for d in dets:
            if d.class_id == class_id:
                flat.append((s, d))
    n_gt = sum(sum(1 for c in gt.class_ids if c == class_id) for gt in gts)
    if n_gt == 0 or not flat:
        return 0.0

    def point_at(threshold):
        kept = [(s, d) for s, d in flat if d.score >= threshold]
        kept.sort(key=lambda t: -t[1].score)
        matched = [set() for _ in gts]
        tp = 0
        for s, d in kept:
            best, best_k = 0.0, -1
            for k, (box, c) in enumerate(zip(gts[s].boxes, gts[s].class_ids)):
                if c != class_id or k in matched[s]:
                    continue
                v = iou(d.box, box)
                if v > best:
                    best, best_k = v, k
            if best_k >= 0 and best >= iou_match:
                matched[s].add(best_k)
                tp += 1
        if not kept:
            return 0.0, 1.0
        return tp / n_gt, tp / len(kept)

    points = sorted(point_at(t) for t in {d.score for _, d in flat})
    recalls = sorted({r for r, _ in points})
    ap, prev = 0.0, 0.0
    for r in recalls:
        if r == 0.0:
            continue
        env = max(p for rr, p in points if rr >= r)
        ap += (r - prev) * env
        prev = r
    return ap


def det(cx, cy, w, h, cls, score):
    return Detection(Box(cx, cy, w, h), cls, score)


class TestAveragePrecision:
    def test_perfect_detections(self):
        gts = [GroundTruth([Box(10, 10, 8, 8), Box(30, 30, 6, 6)], [0, 0])]
        dets = [[det(10, 10, 8, 8, 0, 0.9), det(30, 30, 6, 6, 0, 0.8)]]
        assert average_precision(dets, gts, 0) == 1.0

    def test_no_detections(self):
        gts = [GroundTruth([Box(10, 10, 8, 8)], [0])]
        assert average_precision([[]], gts, 0) == 0.0

    def test_hand_rolled_pr_example(self):
        # 2 objects; TP(0.9), FP(0.8), TP(0.7) => AP = 0.5*1 + 0.5*(2/3)
        gts = [GroundTruth([Box(10, 10, 8, 8), Box(40, 40, 8, 8)], [0, 0])]
        dets = [[det(10, 10, 8, 8, 0, 0.9),
                 det(25, 25, 4, 4, 0, 0.8),
                 det(40, 40, 8, 8, 0, 0.7)]]
        assert average_precision(dets, gts, 0) == pytest.approx(5 / 6, abs=1e-12)

    def test_trailing_fp_never_raises_ap(self):
        gts = [GroundTruth([Box(10, 10, 8, 8)], [0])]
        dets = [[det(10, 10, 8, 8, 0, 0.9)]]
        base = average_precision(dets, gts, 0)
        dets2 = [dets[0] + [det(40, 40, 4, 4, 0, 0.1)]]
        assert average_precision(dets2, gts, 0) <= base

    def test_monotone_score_rescale_invariance(self):
        rng = np.random.default_rng(0)
        gts = [GroundTruth([Box(10, 10, 8, 8), Box(30, 30, 8, 8)], [0, 0])]
        dets = [[det(10 + rng.normal(), 10, 8, 8, 0, s)
                 for s in (0.9, 0.6, 0.4, 0.2)]]
        a = average_precision(dets, gts, 0)
        resc = [[Detection(d.box, d.class_id, d.score ** 3) for d in dets[0]]]
        assert average_precision(resc, gts, 0) == pytest.approx(a, abs=1e-12)

    def test_greedy_match_each_gt_once(self):
        gts = [GroundTruth([Box(10, 10, 8, 8)], [0])]
        dets = [[det(10, 10, 8, 8, 0, 0.9), det(10, 10, 8, 8, 0, 0.8)]]
        # second duplicate is a false positive: AP = area under p=1 up to
        # r=1 is cut by the duplicate only after recall saturates
        assert average_precision(dets, gts, 0) == 1.0

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n_scenes = rng.integers(1, 4)
            gts, dets = [], []
            for _ in range(n_scenes):
                n_obj = rng.integers(0, 4)
                boxes = [Box(*rng.uniform(10, 50, 2), *rng.uniform(5, 15, 2))
                         for _ in range(n_obj)]
                gts.append(GroundTruth(boxes, [0] * n_obj))
                ds = []
                for b in boxes:
                    if rng.random() < 0.8:
                        ds.append(det(b.cx + rng.normal(0, 2), b.cy + rng.normal(0, 2),
                                      b.w * rng.uniform(0.8, 1.2), b.h, 0,
                                      float(rng.uniform(0.1, 1.0))))
                for _ in range(rng.integers(0, 3)):
                    ds.append(det(*rng.uniform(10, 50, 2), *rng.uniform(5, 15, 2),
                                  0, float(rng.uniform(0.1, 1.0))))
                dets.append(ds)
            got = average_precision(dets, gts, 0)
            want = brute_force_ap(dets, gts, 0)
            assert got == pytest.approx(want, abs=1e-9)


class TestMapEval:
    def test_all_perfect(self):
        gts = [GroundTruth([Box(10, 10, 8, 8), Box(30, 30, 8, 8)], [0, 1])]
        dets = [[det(10, 10, 8, 8, 0, 0.9), det(30, 30, 8, 8, 1, 0.8)]]
        per_class, mean = map_eval(dets, gts)
        assert per_class == {0: 1.0, 1: 1.0}
        assert mean == 1.0

    def test_half(self):
        gts = [GroundTruth([Box(10, 10, 8, 8), Box(30, 30, 8, 8)], [0, 1])]
        dets = [[det(10, 10, 8, 8, 0, 0.9)]]
        per_class, mean = map_eval(dets, gts)
        assert per_class == {0: 1.0, 1: 0.0}
        assert mean == 0.5

    def test_only_present_classes_counted(self):
        gts = [GroundTruth([Box(10, 10, 8, 8)], [1])]
        dets = [[det(10, 10, 8, 8, 1, 0.9), det(20, 20, 8, 8, 0, 0.8)]]
        per_class, mean = map_eval(dets, gts)
        assert set(per_class) == {1}


class TestExtractDetections:
    def grid(self):
        return build_grid(AnchorSet(np.full((1, 1, 2), 8.0)), 2, 2, 8)

    def test_all_low_logits_empty(self):
        grid = self.grid()
        assert extract_detections(np.full((2, 2, 1, 1), -10.0),
                                  np.zeros((2, 2, 1, 1, 4)), grid, score_min=0.05) == []

    def test_single_hot_cell_is_anchor_box(self):
        grid = self.grid()
        logits = np.full((2, 2, 1, 1), -10.0)
        logits[1, 0, 0, 0] = 10.0
        dets = extract_detections(logits, np.zeros((2, 2, 1, 1, 4)), grid, score_min=0.05)
        assert len(dets) == 1
        assert dets[0].box == Box(*grid.boxes[1, 0, 0, 0])
        assert dets[0].score > 0.9999

    def test_duplicates_collapse_under_nms(self):
        grid = self.grid()
        logits = np.full((2, 2, 1, 1), 4.0)  # every cell fires
        offsets = np.zeros((2, 2, 1, 1, 4))
        # all four cells decode onto the same spot
        for i in range(2):
            for j in range(2):
                target = Box(8.0, 8.0, 8.0, 8.0)
                anchor = Box(*grid.boxes[i, j, 0, 0])
                offsets[i, j, 0, 0, 0] = (target.cx - anchor.cx) / anchor.w
                offsets[i, j, 0, 0, 1] = (target.cy - anchor.cy) / anchor.h
        logits[0, 0, 0, 0] = 5.0
        dets = extract_detections(logits, offsets, grid, score_min=0.05, nms_iou=0.5)
        assert len(dets) == 1
        assert dets[0].score == pytest.approx(1 / (1 + np.exp(-5.0)))
