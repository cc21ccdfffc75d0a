import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ponodet.geometry import EXP_CLAMP, Box, Detection, decode_cxywh, iou, nms


def iou_oracle(a: Box, b: Box) -> float:
    """Independent corner-arithmetic IoU used to cross-check the library."""
    ax1, ay1, ax2, ay2 = a.cx - a.w / 2, a.cy - a.h / 2, a.cx + a.w / 2, a.cy + a.h / 2
    bx1, by1, bx2, by2 = b.cx - b.w / 2, b.cy - b.h / 2, b.cx + b.w / 2, b.cy + b.h / 2
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    if inter == 0.0:
        return 0.0
    return inter / (a.w * a.h + b.w * b.h - inter)


# boxes on a 1/32 grid: IoU == 1.0 then really means identical boxes
grid_boxes = st.builds(
    lambda cx, cy, w, h: Box(cx / 32, cy / 32, w / 32, h / 32),
    st.integers(-3200, 3200), st.integers(-3200, 3200),
    st.integers(1, 3200), st.integers(1, 3200))


class TestBox:
    def test_rejects_nonpositive_sides(self):
        with pytest.raises(ValueError):
            Box(0, 0, 0.0, 5.0)
        with pytest.raises(ValueError):
            Box(0, 0, 5.0, -1.0)

    def test_corners_ordered(self):
        x1, y1, x2, y2 = Box(3, 4, 2, 6).corners()
        assert x1 < x2 and y1 < y2
        assert (x1, y1, x2, y2) == (2, 1, 4, 7)


class TestIoU:
    def test_identity(self):
        b = Box(3.5, -2.0, 7.0, 1.25)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 2, 2), Box(10, 10, 2, 2)) == 0.0

    def test_third_overlap(self):
        # intersection 1*2 = 2, union 4 + 4 - 2 = 6
        assert iou(Box(1, 1, 2, 2), Box(2, 1, 2, 2)) == pytest.approx(1 / 3, abs=1e-15)

    @given(grid_boxes, grid_boxes)
    def test_matches_oracle_symmetric_bounded(self, a, b):
        v = iou(a, b)
        assert abs(v - iou_oracle(a, b)) <= 1e-12
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(grid_boxes, grid_boxes)
    def test_one_iff_identical(self, a, b):
        if iou(a, b) == 1.0:
            assert a == b
        if a == b:
            assert iou(a, b) == 1.0


class TestDecode:
    def test_zero_offsets_identity(self):
        assert decode_cxywh(7.0, 11.0, 3.0, 5.0, 0, 0, 0, 0) == (7.0, 11.0, 3.0, 5.0)

    def test_closed_form(self):
        cx, cy, w, h = decode_cxywh(10, 10, 4, 4, 0.5, 0.0, math.log(2.0), 0.0)
        assert cx == pytest.approx(12.0)
        assert cy == pytest.approx(10.0)
        assert w == pytest.approx(8.0)
        assert h == pytest.approx(4.0)

    def test_scale_clamp(self):
        _, _, w, _ = decode_cxywh(10, 10, 4, 4, 0, 0, 100.0, 0)
        assert w == pytest.approx(4000.0)
        _, _, w, _ = decode_cxywh(10, 10, 4, 4, 0, 0, -100.0, 0)
        assert w == pytest.approx(4.0 / 1000.0)

    @given(grid_boxes, grid_boxes)
    def test_roundtrip_through_encode(self, anchor, target):
        # encode: the offsets that decode `anchor` onto `target`
        dx = (target.cx - anchor.cx) / anchor.w
        dy = (target.cy - anchor.cy) / anchor.h
        dw = math.log(target.w / anchor.w)
        dh = math.log(target.h / anchor.h)
        if max(abs(dw), abs(dh)) > EXP_CLAMP:
            return
        cx, cy, w, h = decode_cxywh(anchor.cx, anchor.cy, anchor.w, anchor.h,
                                    dx, dy, dw, dh)
        assert cx == pytest.approx(target.cx, rel=1e-9, abs=1e-9)
        assert cy == pytest.approx(target.cy, rel=1e-9, abs=1e-9)
        assert w == pytest.approx(target.w, rel=1e-12)
        assert h == pytest.approx(target.h, rel=1e-12)


class TestNms:
    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            nms([], 0.0)

    def test_single_detection(self):
        d = Detection(Box(5, 5, 4, 4), 0, 0.7)
        assert nms([d], 0.5) == [d]

    def test_identical_boxes_suppressed(self):
        hi = Detection(Box(5, 5, 4, 4), 0, 0.9)
        lo = Detection(Box(5, 5, 4, 4), 0, 0.8)
        assert nms([lo, hi], 0.5) == [hi]

    def test_third_overlap_both_kept(self):
        a = Detection(Box(1, 1, 2, 2), 0, 0.9)
        b = Detection(Box(2, 1, 2, 2), 0, 0.8)
        assert nms([a, b], 0.5) == [a, b]

    def test_per_class_keeps_other_classes(self):
        a = Detection(Box(5, 5, 4, 4), 0, 0.9)
        b = Detection(Box(5, 5, 4, 4), 1, 0.8)
        assert nms([a, b], 0.5, per_class=True) == [a, b]
        assert nms([a, b], 0.5, per_class=False) == [a]

    def test_equal_score_tiebreak(self):
        a = Detection(Box(0, 0, 2, 2), 1, 0.5)
        b = Detection(Box(20, 0, 2, 2), 0, 0.5)
        out = nms([a, b], 0.5)
        assert [d.class_id for d in out] == [0, 1]

    @given(st.lists(st.tuples(grid_boxes, st.integers(0, 2),
                              st.integers(0, 100)), max_size=12),
           st.integers(1, 9))
    def test_output_subset_sorted_no_overlap(self, raw, thr10):
        thr = thr10 / 10
        dets = [Detection(b, c, s / 100) for b, c, s in raw]
        out = nms(dets, thr)
        assert all(d in dets for d in out)
        assert all(out[i].score >= out[i + 1].score for i in range(len(out) - 1))
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                if out[i].class_id == out[j].class_id:
                    assert iou(out[i].box, out[j].box) <= thr
