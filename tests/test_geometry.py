import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ponodet.geometry import (EXP_CLAMP, Detections, GroundTruth, decode, nms,
                              overlap, pairwise_iou)


# The component form of the box decode and the box IoU, one array per
# coordinate: the oracle `decode` and `overlap` match bit for bit.

def decode_cxywh(acx, acy, aw, ah, dx, dy, dw, dh):
    """Apply offset arrays to anchor component arrays; returns cx, cy, w, h."""
    cx = acx + dx * aw
    cy = acy + dy * ah
    w = aw * np.exp(np.clip(dw, -EXP_CLAMP, EXP_CLAMP))
    h = ah * np.exp(np.clip(dh, -EXP_CLAMP, EXP_CLAMP))
    return cx, cy, w, h


def iou_cxywh(acx, acy, aw, ah, bcx, bcy, bw, bh):
    """Elementwise IoU between two box component stacks; disjoint pairs
    give 0."""
    ix = np.minimum(acx + aw * 0.5, bcx + bw * 0.5) - np.maximum(acx - aw * 0.5, bcx - bw * 0.5)
    iy = np.minimum(acy + ah * 0.5, bcy + bh * 0.5) - np.maximum(acy - ah * 0.5, bcy - bh * 0.5)
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    union = aw * ah + bw * bh - inter
    return inter / union


def decode_rows(anchors, offsets) -> np.ndarray:
    """`decode` as (cx, cy, w, h) rows [..., 4]."""
    center, side, _ = decode(np.asarray(anchors, float), np.asarray(offsets, float))
    return np.concatenate([center, side], axis=-1)


def iou_oracle(a, b) -> float:
    """Independent corner-arithmetic IoU of two (cx, cy, w, h) boxes, used
    to cross-check the library."""
    acx, acy, aw, ah = (float(v) for v in a)
    bcx, bcy, bw, bh = (float(v) for v in b)
    ax1, ay1, ax2, ay2 = acx - aw / 2, acy - ah / 2, acx + aw / 2, acy + ah / 2
    bx1, by1, bx2, by2 = bcx - bw / 2, bcy - bh / 2, bcx + bw / 2, bcy + bh / 2
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    if inter == 0.0:
        return 0.0
    return inter / (aw * ah + bw * bh - inter)


def nms_oracle(boxes, class_ids, scores, iou_threshold) -> list[int]:
    """The former per-pair greedy NMS: input indices of the kept detections,
    in visiting order (descending score, then class id, then index)."""
    order = sorted(range(len(scores)),
                   key=lambda i: (-scores[i], class_ids[i], i))
    kept: list[int] = []
    for i in order:
        if not any(class_ids[k] == class_ids[i]
                   and iou_oracle(boxes[k], boxes[i]) > iou_threshold
                   for k in kept):
            kept.append(i)
    return kept


def iou(a, b) -> float:
    """The library IoU of two single boxes."""
    return float(pairwise_iou(np.asarray([a], float), np.asarray([b], float))[0, 0])


def dets_of(*rows) -> Detections:
    """Detections from (cx, cy, w, h, class_id, score) rows."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 6)
    return Detections(rows[:, :4], rows[:, 4], rows[:, 5])


def rows_of(dets: Detections) -> list[tuple]:
    return [(*b, c, s) for b, c, s in zip(dets.boxes.tolist(), dets.class_ids.tolist(),
                                          dets.scores.tolist())]


# boxes on a 1/32 grid: IoU == 1.0 then really means identical boxes
grid_boxes = st.builds(
    lambda cx, cy, w, h: (cx / 32, cy / 32, w / 32, h / 32),
    st.integers(-3200, 3200), st.integers(-3200, 3200),
    st.integers(1, 3200), st.integers(1, 3200))


class TestBox:
    def test_rejects_nonpositive_sides(self):
        for sides in ((0.0, 5.0), (5.0, -1.0)):
            with pytest.raises(ValueError, match="positive"):
                GroundTruth([(0, 0, *sides)], [0])
            with pytest.raises(ValueError, match="positive"):
                Detections([(0, 0, *sides)], [0], [0.5])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match=r"\[n, 4\]"):
            GroundTruth([(1.0, 2.0, 3.0)], [0])
        with pytest.raises(ValueError, match="1 boxes but 2 class_ids"):
            GroundTruth([(1.0, 2.0, 3.0, 4.0)], [0, 1])
        with pytest.raises(ValueError, match="1 boxes but 2 scores"):
            Detections([(1.0, 2.0, 3.0, 4.0)], [0], [0.5, 0.4])

    def test_converts_rows_and_empty_input(self):
        gt = GroundTruth([(3, 4, 2, 6)], [1])
        assert gt.boxes.dtype == np.float64 and gt.boxes.shape == (1, 4)
        assert gt.class_ids.dtype == np.int64 and gt.class_ids.tolist() == [1]
        empty = GroundTruth([], [])
        assert empty.boxes.shape == (0, 4) and len(empty) == 0


class TestIoU:
    def test_identity(self):
        b = (3.5, -2.0, 7.0, 1.25)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 2, 2), (10, 10, 2, 2)) == 0.0

    def test_third_overlap(self):
        # intersection 1*2 = 2, union 4 + 4 - 2 = 6
        assert iou((1, 1, 2, 2), (2, 1, 2, 2)) == pytest.approx(1 / 3, abs=1e-15)

    @given(grid_boxes, grid_boxes)
    def test_matches_oracle_symmetric_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou_oracle(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(grid_boxes, grid_boxes)
    def test_one_iff_identical(self, a, b):
        if iou(a, b) == 1.0:
            assert a == b
        if a == b:
            assert iou(a, b) == 1.0

    @given(st.lists(grid_boxes, max_size=6), st.lists(grid_boxes, max_size=6))
    def test_pairwise_matrix_matches_oracle(self, a, b):
        got = pairwise_iou(np.asarray(a, float).reshape(-1, 4),
                           np.asarray(b, float).reshape(-1, 4))
        assert got.shape == (len(a), len(b))
        for i, j in np.ndindex(got.shape):
            assert got[i, j] == iou_oracle(a[i], b[j])


class TestDecode:
    def test_zero_offsets_identity(self):
        assert decode_rows((7.0, 11.0, 3.0, 5.0), (0, 0, 0, 0)).tolist() == [7.0, 11.0, 3.0, 5.0]

    def test_closed_form(self):
        cx, cy, w, h = decode_rows((10, 10, 4, 4), (0.5, 0.0, math.log(2.0), 0.0))
        assert cx == pytest.approx(12.0)
        assert cy == pytest.approx(10.0)
        assert w == pytest.approx(8.0)
        assert h == pytest.approx(4.0)

    def test_scale_clamp(self):
        _, _, w, _ = decode_rows((10, 10, 4, 4), (0, 0, 100.0, 0))
        assert w == pytest.approx(4000.0)
        _, _, w, _ = decode_rows((10, 10, 4, 4), (0, 0, -100.0, 0))
        assert w == pytest.approx(4.0 / 1000.0)

    def test_growth_is_the_side_ratio(self):
        anchors = np.array([[10.0, 10.0, 4.0, 6.0]] * 3)
        offsets = np.array([[0, 0, 0.5, -0.5], [0, 0, EXP_CLAMP, -EXP_CLAMP],
                            [0, 0, 50.0, -np.inf]])
        _, side, grow = decode(anchors, offsets)
        np.testing.assert_array_equal(grow, np.exp(np.clip(offsets[:, 2:], -EXP_CLAMP,
                                                           EXP_CLAMP)))
        np.testing.assert_array_equal(side, anchors[:, 2:] * grow)
        np.testing.assert_array_equal(grow[1], grow[2])

    @given(grid_boxes, grid_boxes)
    def test_roundtrip_through_encode(self, anchor, target):
        # encode: the offsets that decode `anchor` onto `target`
        dx = (target[0] - anchor[0]) / anchor[2]
        dy = (target[1] - anchor[1]) / anchor[3]
        dw = math.log(target[2] / anchor[2])
        dh = math.log(target[3] / anchor[3])
        if max(abs(dw), abs(dh)) > EXP_CLAMP:
            return
        cx, cy, w, h = decode_rows(anchor, (dx, dy, dw, dh))
        assert cx == pytest.approx(target[0], rel=1e-9, abs=1e-9)
        assert cy == pytest.approx(target[1], rel=1e-9, abs=1e-9)
        assert w == pytest.approx(target[2], rel=1e-12)
        assert h == pytest.approx(target[3], rel=1e-12)


# box pairs at the IoU's kinks: touching edges (x, y, a corner), disjoint,
# nested, identical, and a partial overlap
SPECIAL_PAIRS = [
    ((4.0, 4.0, 4.0, 4.0), (8.0, 4.0, 4.0, 4.0)),
    ((4.0, 4.0, 4.0, 4.0), (4.0, 10.0, 4.0, 8.0)),
    ((4.0, 4.0, 4.0, 4.0), (8.0, 8.0, 4.0, 4.0)),
    ((0.0, 0.0, 2.0, 2.0), (10.0, 10.0, 2.0, 2.0)),
    ((0.0, 0.0, 2.0, 2.0), (0.0, 10.0, 2.0, 2.0)),
    ((5.0, 5.0, 10.0, 10.0), (4.0, 6.0, 2.0, 3.0)),
    ((5.0, 5.0, 10.0, 10.0), (5.0, 5.0, 10.0, 10.0)),
    ((3.5, -2.0, 7.0, 1.25), (3.5, -2.0, 7.0, 1.25)),
    ((1.0, 1.0, 2.0, 2.0), (2.0, 1.0, 2.0, 2.0)),
]
# offsets with dw / dh inside, exactly at and beyond +-EXP_CLAMP
CLAMP_OFFSETS = [(0.0, 0.0, 0.0, 0.0), (0.25, -0.5, 0.3, -0.7),
                 (0.0, 0.0, EXP_CLAMP, -EXP_CLAMP), (0.0, 0.0, -EXP_CLAMP, EXP_CLAMP),
                 (1.5, 2.0, 2 * EXP_CLAMP, -2 * EXP_CLAMP), (0.0, 0.0, np.inf, -np.inf)]


def special_boxes() -> tuple[np.ndarray, np.ndarray]:
    """The special pairs both ways round, as two [n, 4] arrays."""
    a = np.array([p[0] for p in SPECIAL_PAIRS] + [p[1] for p in SPECIAL_PAIRS])
    b = np.array([p[1] for p in SPECIAL_PAIRS] + [p[0] for p in SPECIAL_PAIRS])
    return a, b


class TestOneFormula:
    """`decode` and `overlap` give the component oracle's bits, on pair
    axes and on every broadcast the callers use."""

    def test_special_pairs_match_oracle(self):
        a, b = special_boxes()
        got, (hi, lo, b_hi, b_lo, extent, clipped, inter, union) = \
            overlap(a[:, :2], a[:, 2:], b)
        np.testing.assert_array_equal(got, iou_cxywh(*a.T, *b.T))
        assert got.tolist()[:9] == [0.0, 0.0, 0.0, 0.0, 0.0, 0.06, 1.0, 1.0, 1 / 3]
        np.testing.assert_array_equal(hi, a[:, :2] + a[:, 2:] * 0.5)
        np.testing.assert_array_equal(b_lo, b[:, :2] - b[:, 2:] * 0.5)
        np.testing.assert_array_equal(clipped, np.maximum(extent, 0.0))
        np.testing.assert_array_equal(got, inter / union)
        assert np.all(extent[:3].min(axis=1) == 0.0) and np.all(extent[3:5].min(axis=1) < 0.0)

    @given(st.lists(st.tuples(grid_boxes, grid_boxes), max_size=8))
    def test_pairs_match_oracle(self, pairs):
        a = np.asarray([p[0] for p in pairs], float).reshape(-1, 4)
        b = np.asarray([p[1] for p in pairs], float).reshape(-1, 4)
        np.testing.assert_array_equal(overlap(a[:, :2], a[:, 2:], b)[0],
                                      iou_cxywh(*a.T, *b.T))

    def test_pairwise_matches_oracle(self):
        a, b = special_boxes()
        rng = np.random.default_rng(5)
        c = np.concatenate([b, rng.uniform(1, 12, (20, 4))])
        for x, y in ((a, c), (c, a), (a[:0], c), (a, c[:0]), (c, c)):
            got = pairwise_iou(x, y)
            assert got.shape == (len(x), len(y))
            np.testing.assert_array_equal(got, iou_cxywh(*x.T[:, :, None], *y.T[:, None, :]))

    def test_decode_matches_oracle(self):
        a, _ = special_boxes()
        anchors = np.repeat(a, len(CLAMP_OFFSETS), axis=0)
        offsets = np.tile(np.asarray(CLAMP_OFFSETS), (len(a), 1))
        want = np.stack(decode_cxywh(*anchors.T, *offsets.T), axis=1)
        np.testing.assert_array_equal(decode_rows(anchors, offsets), want)
        # an empty selection decodes to no boxes
        assert decode_rows(anchors[:0], offsets[:0]).shape == (0, 4)

    def test_decode_then_overlap_matches_oracle(self):
        a, b = special_boxes()
        anchors = np.repeat(a, len(CLAMP_OFFSETS), axis=0)
        boxes = np.repeat(b, len(CLAMP_OFFSETS), axis=0)
        offsets = np.tile(np.asarray(CLAMP_OFFSETS), (len(a), 1))
        center, side, _ = decode(anchors, offsets)
        want = iou_cxywh(*decode_cxywh(*anchors.T, *offsets.T), *boxes.T)
        np.testing.assert_array_equal(overlap(center, side, boxes)[0], want)


# detections on a coarse grid with few score levels, so equal scores and
# heavily overlapping same-class boxes are common
tied_dets = st.lists(st.tuples(
    st.integers(0, 6), st.integers(0, 6), st.integers(1, 5), st.integers(1, 5),
    st.integers(0, 2), st.sampled_from([0.25, 0.5, 0.75, 1.0])), max_size=16)


class TestNms:
    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            nms(dets_of(), 0.0)

    def test_single_detection(self):
        assert rows_of(nms(dets_of((5, 5, 4, 4, 0, 0.7)), 0.5)) == [(5, 5, 4, 4, 0, 0.7)]

    def test_identical_boxes_suppressed(self):
        out = nms(dets_of((5, 5, 4, 4, 0, 0.8), (5, 5, 4, 4, 0, 0.9)), 0.5)
        assert rows_of(out) == [(5, 5, 4, 4, 0, 0.9)]

    def test_third_overlap_both_kept(self):
        a, b = (1, 1, 2, 2, 0, 0.9), (2, 1, 2, 2, 0, 0.8)
        assert rows_of(nms(dets_of(a, b), 0.5)) == [a, b]

    def test_per_class_keeps_other_classes(self):
        a, b = (5, 5, 4, 4, 0, 0.9), (5, 5, 4, 4, 1, 0.8)
        assert rows_of(nms(dets_of(a, b), 0.5)) == [a, b]

    def test_equal_score_tiebreak(self):
        out = nms(dets_of((0, 0, 2, 2, 1, 0.5), (20, 0, 2, 2, 0, 0.5)), 0.5)
        assert out.class_ids.tolist() == [0, 1]

    @given(tied_dets, st.integers(1, 10))
    def test_same_ordered_keep_list_as_oracle(self, raw, thr10):
        dets = dets_of(*raw)
        want = nms_oracle(dets.boxes.tolist(), dets.class_ids.tolist(),
                          dets.scores.tolist(), thr10 / 10)
        assert rows_of(nms(dets, thr10 / 10)) == rows_of(dets.take(np.array(want, int)))

    @given(st.lists(st.tuples(grid_boxes, st.integers(0, 2),
                              st.integers(0, 100)), max_size=12),
           st.integers(1, 9))
    def test_output_subset_sorted_no_overlap(self, raw, thr10):
        thr = thr10 / 10
        dets = dets_of(*[(*b, c, s / 100) for b, c, s in raw])
        out = rows_of(nms(dets, thr))
        assert all(d in rows_of(dets) for d in out)
        assert all(out[i][5] >= out[i + 1][5] for i in range(len(out) - 1))
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                if out[i][4] == out[j][4]:
                    assert iou_oracle(out[i][:4], out[j][:4]) <= thr
