import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ponodet.data import (GenSpec, Scene, gen_spec_from_file, generate,
                          hflip, load_annotations, load_dataset, read_kv,
                          read_ppm, save_dataset, save_gen_spec, write_ppm)
from ponodet.assignment import GroundTruth
from ponodet.geometry import Box, iou


def basic_spec(**overrides):
    kw = dict(n_classes=2, class_freq=(0.7, 0.3),
              size_ranges=((8.0, 20.0), (6.0, 14.0)),
              objects_per_scene=(1, 3), crowding=0.0, seed=5, image_size=64)
    kw.update(overrides)
    return GenSpec(**kw)


class TestGenSpec:
    def test_freq_must_sum_to_one(self):
        with pytest.raises(ValueError):
            basic_spec(class_freq=(0.5, 0.4))

    def test_size_floor(self):
        with pytest.raises(ValueError):
            basic_spec(size_ranges=((2.0, 20.0), (6.0, 14.0)))

    def test_from_kv_roundtrip(self, tmp_path):
        spec = basic_spec(crowding=0.25)
        path = tmp_path / "genspec.txt"
        save_gen_spec(path, spec)
        assert gen_spec_from_file(path) == spec

    def test_kv_parser_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n_classes 2\n")
        with pytest.raises(ValueError, match=":1"):
            read_kv(path)


class TestGenerate:
    def test_deterministic(self):
        a = generate(basic_spec(), 6)
        b = generate(basic_spec(), 6)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.image, sb.image)
            assert sa.gt.boxes == sb.gt.boxes
            assert sa.gt.class_ids == sb.gt.class_ids

    def test_prefix_stability(self):
        # per-scene seeding: the first k scenes do not depend on n
        a = generate(basic_spec(), 3)
        b = generate(basic_spec(), 8)
        for sa, sb in zip(a, b[:3]):
            np.testing.assert_array_equal(sa.image, sb.image)

    def test_empty_scenes(self):
        scenes = generate(basic_spec(objects_per_scene=(0, 0)), 4)
        assert all(len(s.gt) == 0 for s in scenes)

    def test_boxes_inside_image_and_min_size(self):
        for scene in generate(basic_spec(crowding=0.5), 30):
            for b in scene.gt.boxes:
                x1, y1, x2, y2 = b.corners()
                assert 0 <= x1 < x2 <= 64 and 0 <= y1 < y2 <= 64
                assert b.w >= 4 and b.h >= 4

    def test_class_frequency_within_3_sigma(self):
        spec = basic_spec(class_freq=(0.9, 0.1), objects_per_scene=(4, 4),
                          seed=123)
        scenes = generate(spec, 700)
        counts = np.zeros(2)
        for s in scenes:
            for c in s.gt.class_ids:
                counts[c] += 1
        n = counts.sum()
        p = 0.9
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(counts[0] - n * p) <= 3 * sigma

    def test_size_range_conformance(self):
        for scene in generate(basic_spec(), 40):
            for b, c in zip(scene.gt.boxes, scene.gt.class_ids):
                lo, hi = basic_spec().size_ranges[c]
                assert lo <= b.w <= hi and lo <= b.h <= hi

    def test_full_crowding_creates_pairs(self):
        spec = basic_spec(crowding=1.0, objects_per_scene=(1, 2), seed=9)
        for scene in generate(spec, 40):
            found = False
            for i in range(len(scene.gt)):
                for j in range(i + 1, len(scene.gt)):
                    if scene.gt.class_ids[i] != scene.gt.class_ids[j]:
                        continue
                    v = iou(scene.gt.boxes[i], scene.gt.boxes[j])
                    if 0.3 <= v <= 0.7:
                        found = True
            assert found

    def test_render_marks_objects(self):
        scenes = generate(basic_spec(seed=77), 5)
        for scene in scenes:
            for b in scene.gt.boxes:
                patch = scene.image[int(b.cy) - 1:int(b.cy) + 1,
                                    int(b.cx) - 1:int(b.cx) + 1]
                assert abs(patch.mean() - 0.12) > 0.05  # not background


class TestHflip:
    def test_double_flip_bit_equal(self):
        for scene in generate(basic_spec(crowding=0.4, seed=31), 10):
            twice = hflip(hflip(scene))
            np.testing.assert_array_equal(twice.image, scene.image)
            assert twice.gt.boxes == scene.gt.boxes
            assert twice.gt.class_ids == scene.gt.class_ids

    def test_center_box_unchanged(self):
        img = np.zeros((64, 64, 3))
        scene = Scene(img, GroundTruth([Box(32.0, 10.0, 8.0, 8.0)], [0]))
        assert hflip(scene).gt.boxes[0].cx == 32.0

    def test_mirror_formula(self):
        img = np.zeros((64, 64, 3))
        scene = Scene(img, GroundTruth([Box(10.0, 20.0, 8.0, 8.0)], [1]))
        out = hflip(scene)
        assert out.gt.boxes[0].cx == 54.0
        assert out.gt.boxes[0].cy == 20.0
        assert out.gt.class_ids == [1]

    def test_image_columns_mirrored(self):
        scene = generate(basic_spec(seed=2), 1)[0]
        np.testing.assert_array_equal(hflip(scene).image, scene.image[:, ::-1, :])


class TestDatasetIO:
    def test_roundtrip_annotations_exact(self, tmp_path):
        scenes = generate(basic_spec(crowding=0.3, seed=13), 6)
        save_dataset(tmp_path / "ds", scenes)
        loaded = load_dataset(tmp_path / "ds")
        assert len(loaded) == len(scenes)
        for a, b in zip(scenes, loaded):
            assert a.gt.boxes == b.gt.boxes
            assert a.gt.class_ids == b.gt.class_ids

    def test_images_8bit_quantized(self, tmp_path):
        scenes = generate(basic_spec(seed=3), 2)
        save_dataset(tmp_path / "ds", scenes)
        loaded = load_dataset(tmp_path / "ds")
        q = np.clip(np.rint(scenes[0].image * 255), 0, 255) / 255.0
        np.testing.assert_allclose(loaded[0].image, q, atol=1e-12)

    def test_ppm_roundtrip_idempotent(self, tmp_path):
        img = np.clip(np.rint(np.random.default_rng(0).uniform(0, 1, (8, 10, 3)) * 255),
                      0, 255) / 255.0
        write_ppm(tmp_path / "x.ppm", img)
        np.testing.assert_array_equal(read_ppm(tmp_path / "x.ppm"), img)

    def test_empty_annotations(self, tmp_path):
        path = tmp_path / "annotations.txt"
        path.write_text("")
        assert load_annotations(path) == []

    def test_scene_with_no_objects(self, tmp_path):
        path = tmp_path / "annotations.txt"
        path.write_text("scene 0\nscene 1\n0 10.0 10.0 8.0 8.0\n")
        gts = load_annotations(path)
        assert len(gts) == 2
        assert len(gts[0]) == 0 and len(gts[1]) == 1

    def test_short_record_names_line(self, tmp_path):
        path = tmp_path / "annotations.txt"
        path.write_text("scene 0\n0 10.0 10.0 8.0\n")
        with pytest.raises(ValueError, match=":2"):
            load_annotations(path)

    def test_bad_float_names_line(self, tmp_path):
        path = tmp_path / "annotations.txt"
        path.write_text("scene 0\n0 10.0 10.0 8.0 8.0\nscene 1\n1 a b c d\n")
        with pytest.raises(ValueError, match=":4"):
            load_annotations(path)

    @pytest.mark.parametrize("record", ["0 nan 5 5 5", "0 5 5 inf 5",
                                        "0 5 -inf 5 5", "0 5 5 5 1e400"])
    def test_non_finite_box_names_line(self, tmp_path, record):
        path = tmp_path / "annotations.txt"
        path.write_text(f"scene 0\n0 10.0 10.0 8.0 8.0\n{record}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: ")):
            load_annotations(path)


def loads_or_names_the_line(load, path):
    """`load(path)`, or None when it raised a ValueError starting with
    `path:line: `; any other failure propagates."""
    try:
        return load(path)
    except ValueError as e:
        assert re.match(re.escape(str(path)) + r":\d+: ", str(e)), str(e)
        return None


NUMBERS = ["0", "1", "-1", "5", "0.5", "-2", "1e400", "nan", "inf", "-inf", "1e-320", "x"]
TOKEN_SOUP = st.lists(st.lists(st.sampled_from(
    NUMBERS + ["scene", "0x10", "=", "#", "key", "a = b"]), max_size=6).map(" ".join),
    max_size=8).map("\n".join)
GOOD_RECORD = st.lists(st.sampled_from(["1", "5", "12.25"]), min_size=5,
                       max_size=5).map(" ".join)
# one scene of well-formed records around one record of arbitrary numbers
RECORD_SOUP = st.tuples(
    st.lists(GOOD_RECORD, max_size=3),
    st.lists(st.sampled_from(NUMBERS), min_size=5, max_size=5).map(" ".join),
    st.lists(GOOD_RECORD, max_size=3)).map(
        lambda t: "\n".join(["scene 0", *t[0], t[1], *t[2]]))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.text(), TOKEN_SOUP))
def test_read_kv_loads_or_names_the_line(tmp_path, text):
    path = tmp_path / "config.txt"
    path.write_text(text, encoding="utf-8")
    kv = loads_or_names_the_line(read_kv, path)
    if kv is not None:
        assert all(isinstance(k, str) and isinstance(v, str) for k, v in kv.items())
        assert not any("#" in k or "#" in v for k, v in kv.items())


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.text(), TOKEN_SOUP, RECORD_SOUP))
def test_load_annotations_loads_or_names_the_line(tmp_path, text):
    path = tmp_path / "annotations.txt"
    path.write_text(text, encoding="utf-8")
    gts = loads_or_names_the_line(load_annotations, path)
    for gt in gts or []:
        assert all(c >= 0 for c in gt.class_ids)
        for b in gt.boxes:
            assert all(math.isfinite(v) for v in (b.cx, b.cy, b.w, b.h))
            assert b.w > 0 and b.h > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_generation_valid_for_any_seed(seed):
    scenes = generate(basic_spec(seed=seed, crowding=0.5), 2)
    for scene in scenes:
        assert scene.image.shape == (64, 64, 3)
        assert scene.image.min() >= 0.0 and scene.image.max() <= 1.0
