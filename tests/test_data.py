import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ponodet import data as data_mod
from ponodet.data import (GenSpec, Scene, clear, config_from_kv, csv_line, generate,
                          hflip, levels, load_annotations, load_dataset, pixels,
                          read_config, read_kv, read_ppm, save_dataset, save_gen_spec,
                          write_csv, write_pnm)
from ponodet.geometry import GroundTruth

from test_geometry import iou_oracle


def basic_spec(**overrides):
    kw = dict(n_classes=2, class_freq=(0.7, 0.3),
              size_ranges=((8.0, 20.0), (6.0, 14.0)),
              objects_per_scene=(1, 3), crowding=0.0, seed=5, image_size=64)
    kw.update(overrides)
    return GenSpec(**kw)


def read_spec(path) -> GenSpec:
    """A genspec.txt file read as `gen-data` reads it."""
    return config_from_kv(GenSpec, read_config(path, GenSpec), path)


class TestGenSpec:
    def test_freq_must_sum_to_one(self):
        with pytest.raises(ValueError):
            basic_spec(class_freq=(0.5, 0.4))

    def test_size_floor(self):
        with pytest.raises(ValueError):
            basic_spec(size_ranges=((2.0, 20.0), (6.0, 14.0)))

    @pytest.mark.parametrize("size", [32, 48])
    def test_object_count_bounded_by_disjoint_4px_squares(self, size):
        # placement is quadratic in the count: 500 objects took 7.4 s a scene
        most = (size // 4) ** 2
        basic_spec(image_size=size, objects_per_scene=(0, most))
        with pytest.raises(ValueError, match=re.escape(
                f"objects_per_scene: {most + 1} objects, but a {size}px image "
                f"holds {most} disjoint 4px squares")):
            basic_spec(image_size=size, objects_per_scene=(1, most + 1))

    def test_image_size_bounded(self):
        # generating a 1e8 px scene once failed asking numpy for 213 PiB
        basic_spec(image_size=data_mod.MAX_IMAGE_SIZE)
        with pytest.raises(ValueError, match=re.escape(
                f"image_size must be at most {data_mod.MAX_IMAGE_SIZE}, got 100000000")):
            basic_spec(image_size=100_000_000)

    def test_from_kv_roundtrip(self, tmp_path):
        spec = basic_spec(crowding=0.25)
        path = tmp_path / "genspec.txt"
        save_gen_spec(path, spec)
        assert read_spec(path) == spec

    def test_kv_parser_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n_classes 2\n")
        with pytest.raises(ValueError, match=":1"):
            read_kv(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "twice.txt"
        path.write_text("max_iter = 20\n# max_iter = 9\nseed = 1\n\n max_iter=3 # again\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:5: key 'max_iter' is given twice, first on line 1")):
            read_kv(path)

    def test_genspec_text(self, tmp_path):
        path = tmp_path / "genspec.txt"
        save_gen_spec(path, basic_spec(crowding=0.25))
        assert path.read_text() == (
            "n_classes = 2\nclass_freq = 0.7,0.3\nsize_ranges = 8.0:20.0,6.0:14.0\n"
            "objects_per_scene = 1,3\ncrowding = 0.25\nseed = 5\nimage_size = 64\n")

    def spec_file(self, tmp_path, old, new):
        path = tmp_path / "genspec.txt"
        save_gen_spec(path, basic_spec())
        path.write_text(path.read_text().replace(old, new))
        return path

    @pytest.mark.parametrize("old,new,key", [
        ("n_classes = 2", "n_classes = two", "n_classes"),
        ("objects_per_scene = 1,3", "objects_per_scene = 1", "objects_per_scene"),
        ("size_ranges = 8.0:20.0", "size_ranges = 8.0", "size_ranges"),
    ])
    def test_value_that_does_not_parse_names_file_and_key(self, tmp_path, old, new, key):
        path = self.spec_file(tmp_path, old, new)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {key}: ")):
            read_spec(path)

    @pytest.mark.parametrize("old,new,key", [
        ("crowding = 0.0", "crowding = 1.5", "crowding"),
        ("size_ranges = 8.0:20.0", "size_ranges = 2.0:20.0", "size_ranges"),
        ("class_freq = 0.7,0.3", "class_freq = 0.5,0.3", "class_freq"),
        ("n_classes = 2", "n_classes = 3", "class_freq"),
        ("objects_per_scene = 1,3", "objects_per_scene = 3,1", "objects_per_scene"),
        ("seed = 5", "seed = -3", "seed"),
    ])
    def test_rule_failure_names_file_and_key(self, tmp_path, old, new, key):
        path = self.spec_file(tmp_path, old, new)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")) as e:
            read_spec(path)
        assert key in str(e.value)

    @pytest.mark.parametrize("key", ["n_classes", "class_freq", "size_ranges",
                                     "objects_per_scene"])
    def test_missing_key_names_file_and_key(self, tmp_path, key):
        path = tmp_path / "genspec.txt"
        save_gen_spec(path, basic_spec())
        path.write_text("".join(line for line in path.read_text().splitlines(True)
                                if not line.startswith(key + " ")))
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing key '{key}'")):
            read_spec(path)

    def test_optional_keys_take_their_defaults(self, tmp_path):
        path = tmp_path / "genspec.txt"
        path.write_text("n_classes = 1\nclass_freq = 1\nsize_ranges = 8:14\n"
                        "objects_per_scene = 1,2\n")
        spec = read_spec(path)
        assert (spec.crowding, spec.seed, spec.image_size) == (0.0, 0, 64)

    def test_unknown_key_names_file_and_key(self, tmp_path):
        path = self.spec_file(tmp_path, "crowding = 0.0", "crowdng = 0.8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: unknown config key 'crowdng'")):
            read_spec(path)


class TestGenerate:
    def test_deterministic(self):
        a = generate(basic_spec(), 6)
        b = generate(basic_spec(), 6)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.image, sb.image)
            np.testing.assert_array_equal(sa.gt.boxes, sb.gt.boxes)
            np.testing.assert_array_equal(sa.gt.class_ids, sb.gt.class_ids)

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
            for cx, cy, w, h in scene.gt.boxes:
                assert 0 <= cx - w / 2 < cx + w / 2 <= 64
                assert 0 <= cy - h / 2 < cy + h / 2 <= 64
                assert w >= 4 and h >= 4

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
            for (_, _, w, h), c in zip(scene.gt.boxes, scene.gt.class_ids):
                lo, hi = basic_spec().size_ranges[c]
                assert lo <= w <= hi and lo <= h <= hi

    def test_full_crowding_creates_pairs(self):
        spec = basic_spec(crowding=1.0, objects_per_scene=(1, 2), seed=9)
        for scene in generate(spec, 40):
            found = False
            for i in range(len(scene.gt)):
                for j in range(i + 1, len(scene.gt)):
                    if scene.gt.class_ids[i] != scene.gt.class_ids[j]:
                        continue
                    v = iou_oracle(scene.gt.boxes[i], scene.gt.boxes[j])
                    if 0.3 <= v <= 0.7:
                        found = True
            assert found

    def test_render_marks_objects(self):
        scenes = generate(basic_spec(seed=77), 5)
        for scene in scenes:
            for cx, cy, _, _ in scene.gt.boxes:
                patch = pixels(scene.image[int(cy) - 1:int(cy) + 1,
                                           int(cx) - 1:int(cx) + 1])
                assert abs(patch.mean() - 0.12) > 0.05  # not background


@pytest.mark.parametrize("image", [np.zeros((8, 8, 3)), np.zeros((8, 8, 3), np.float32),
                                   np.zeros((8, 8), np.uint8), np.zeros((8, 8, 4), np.uint8)],
                         ids=["float64", "float32", "gray", "rgba"])
def test_scene_refuses_an_image_that_is_not_uint8_rgb(image):
    with pytest.raises(ValueError, match=re.escape(
            f"a scene image is uint8 [h, w, 3], got {image.dtype} {list(image.shape)}")):
        Scene(image, GroundTruth([], []))


class TestHflip:
    def test_double_flip_bit_equal(self):
        for scene in generate(basic_spec(crowding=0.4, seed=31), 10):
            twice = hflip(hflip(scene))
            np.testing.assert_array_equal(twice.image, scene.image)
            np.testing.assert_array_equal(twice.gt.boxes, scene.gt.boxes)
            np.testing.assert_array_equal(twice.gt.class_ids, scene.gt.class_ids)

    def test_center_box_unchanged(self):
        img = np.zeros((64, 64, 3), np.uint8)
        scene = Scene(img, GroundTruth([(32.0, 10.0, 8.0, 8.0)], [0]))
        assert hflip(scene).gt.boxes[0, 0] == 32.0

    def test_mirror_formula(self):
        img = np.zeros((64, 64, 3), np.uint8)
        scene = Scene(img, GroundTruth([(10.0, 20.0, 8.0, 8.0)], [1]))
        out = hflip(scene)
        assert out.gt.boxes[0, 0] == 54.0
        assert out.gt.boxes[0, 1] == 20.0
        assert out.gt.class_ids.tolist() == [1]

    def test_image_columns_mirrored(self):
        scene = generate(basic_spec(seed=2), 1)[0]
        np.testing.assert_array_equal(hflip(scene).image, scene.image[:, ::-1, :])
        assert np.shares_memory(hflip(scene).image, scene.image)


class TestDatasetIO:
    def test_roundtrip_annotations_exact(self, tmp_path):
        scenes = generate(basic_spec(crowding=0.3, seed=13), 6)
        save_dataset(tmp_path / "ds", scenes)
        loaded = load_dataset(tmp_path / "ds")
        assert len(loaded) == len(scenes)
        for a, b in zip(scenes, loaded):
            np.testing.assert_array_equal(a.gt.boxes, b.gt.boxes)
            np.testing.assert_array_equal(a.gt.class_ids, b.gt.class_ids)

    def test_images_8bit_quantized(self, tmp_path):
        scenes = generate(basic_spec(seed=3), 2)
        save_dataset(tmp_path / "ds", scenes)
        loaded = load_dataset(tmp_path / "ds")
        np.testing.assert_array_equal(loaded[0].image, scenes[0].image)

    @pytest.mark.parametrize("spec", [basic_spec(seed=8),
                                      basic_spec(crowding=1.0, objects_per_scene=(2, 3), seed=9)],
                             ids=["plain", "crowded"])
    def test_generated_levels_survive_save_and_load(self, tmp_path, spec):
        scenes = generate(spec, 4)
        save_dataset(tmp_path / "ds", scenes)
        for made, loaded in zip(scenes, load_dataset(tmp_path / "ds"), strict=True):
            assert made.image.dtype == loaded.image.dtype == np.uint8
            np.testing.assert_array_equal(loaded.image, made.image)

    def test_read_ppm_returns_the_levels(self, tmp_path):
        ramp = np.arange(256, dtype=np.uint8).reshape(8, 32)
        image = np.stack([ramp, ramp[::-1], ramp.T.reshape(8, 32)], axis=-1)
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6\n32 8\n255\n" + image.tobytes())
        got = read_ppm(path)
        assert got.dtype == np.uint8 and got.nbytes == 8 * 32 * 3
        np.testing.assert_array_equal(got, image)

    def test_pixels_of_every_level_is_the_level_over_255(self):
        every = np.arange(256, dtype=np.uint8)
        got = pixels(every)
        want = np.array([np.float64(v) / 255.0 for v in range(256)])
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        back = levels(got)
        assert back.dtype == np.uint8
        np.testing.assert_array_equal(back, every)

    def test_loaded_images_hold_one_byte_per_value(self, tmp_path):
        save_dataset(tmp_path / "ds", generate(basic_spec(seed=4), 3))
        for scene in load_dataset(tmp_path / "ds"):
            assert scene.image.dtype == np.uint8
            assert scene.image.nbytes == 64 * 64 * 3

    def test_resaving_a_loaded_dataset_keeps_every_byte(self, tmp_path):
        save_dataset(tmp_path / "a", generate(basic_spec(crowding=0.3, seed=6), 4))
        save_dataset(tmp_path / "b", load_dataset(tmp_path / "a"))
        for name in sorted(os.listdir(tmp_path / "a")):
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()

    def test_every_truncation_names_the_file(self, tmp_path):
        path = tmp_path / "x.ppm"
        write_pnm(path, np.zeros((2, 3, 3)))
        blob = path.read_bytes()
        header = len(b"P6\n3 2\n255\n")
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match=re.escape(f"{path}: ")) as e:
                read_ppm(path)
            if cut >= header:
                assert f"has {cut - header} bytes, the 3x2 header needs 18" in str(e.value)
        path.write_bytes(blob)
        assert read_ppm(path).shape == (2, 3, 3)

    def test_annotations_and_genspec_written_atomically(self, tmp_path, monkeypatch):
        written = []
        atomic_open = data_mod.atomic_open

        def recording_open(path, mode="w"):
            written.append(os.path.basename(path))
            return atomic_open(path, mode)

        monkeypatch.setattr(data_mod, "atomic_open", recording_open)
        save_dataset(tmp_path / "ds", generate(basic_spec(), 2))
        save_gen_spec(tmp_path / "ds" / "genspec.txt", basic_spec())
        assert written == ["scene_00000.ppm", "scene_00001.ppm", "annotations.txt",
                           "genspec.txt"]
        assert not [n for n in sorted(p.name for p in (tmp_path / "ds").iterdir())
                    if n.endswith(".tmp")]

    def test_csv_written_atomically(self, tmp_path, monkeypatch):
        path = tmp_path / "x.csv"
        write_csv(path, "a,b", [(1, 0.5)])
        written = []
        atomic_open = data_mod.atomic_open

        def recording_open(path, mode="w"):
            written.append(os.path.basename(path))
            return atomic_open(path, mode)

        def failing_rows():
            yield 2, 0.25
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(data_mod, "atomic_open", recording_open)
        with pytest.raises(OSError, match="No space left"):
            write_csv(path, "a,b", failing_rows())
        assert written == ["x.csv"]
        assert path.read_text() == "a,b\n1,0.5\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]
        write_csv(path, "a,b", [(2, 0.25), (3, None)])
        assert path.read_text() == "a,b\n2,0.25\n3,\n"

    def test_failed_pixel_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        class HalfPixels:
            """A binary file whose second write, the pixel block, stores
            half its bytes and then fails."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    self.f.write(data[:len(data) // 2])
                    raise OSError(28, "No space left on device")
                return self.f.write(data)

        for name, pixels in (("x.ppm", np.zeros((4, 5, 3))), ("x.pgm", np.zeros((4, 5)))):
            path = tmp_path / name
            write_pnm(path, pixels)
            old = path.read_bytes()
            monkeypatch.setattr(data_mod, "open", lambda file, mode="r": HalfPixels(open(file, mode)),
                                raising=False)
            with pytest.raises(OSError, match="No space left"):
                write_pnm(path, np.ones_like(pixels))
            monkeypatch.undo()
            assert path.read_bytes() == old
            assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(name)) == [name]

    def test_ppm_roundtrip_idempotent(self, tmp_path):
        img = np.clip(np.rint(np.random.default_rng(0).uniform(0, 1, (8, 10, 3)) * 255),
                      0, 255) / 255.0
        write_pnm(tmp_path / "x.ppm", img)
        np.testing.assert_array_equal(pixels(read_ppm(tmp_path / "x.ppm")), img)

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

    @pytest.mark.parametrize("text,line,want,got", [
        ("scene 0\nscene 2\n", 2, "scene 1", "scene 2"),
        ("scene 0\n0 10.0 10.0 8.0 8.0\nscene 0\n", 3, "scene 1", "scene 0"),
        ("scene x\n0 10.0 10.0 8.0 8.0\n", 1, "scene 0", "scene x")],
        ids=["gap", "repeat", "not_a_number"])
    def test_scene_header_must_count_from_zero(self, tmp_path, text, line, want, got):
        # the k-th header numbers its scene k, so annotations pair with the
        # images `scene_<k>.ppm` they were written for
        path = tmp_path / "annotations.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:{line}: expected {want!r}, got {got!r}")):
            load_annotations(path)

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

    @pytest.mark.parametrize("record,message", [
        ("-1 5 5 5 5", "negative class id -1"),
        (f"{2**63} 5 5 5 5", f"class id {2**63} does not fit int64"),
        (f"{10**30} 5 5 5 5", f"class id {10**30} does not fit int64")])
    def test_bad_class_id_names_line(self, tmp_path, record, message):
        path = tmp_path / "annotations.txt"
        path.write_text(f"scene 0\n{2**63 - 1} 10.0 10.0 8.0 8.0\n{record}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: {message}")):
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


NUMBERS = ["0", "1", "-1", "5", "0.5", "-2", "1e400", "nan", "inf", "-inf", "1e-320", "x",
           str(2**63)]
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
        assert np.all(np.isfinite(gt.boxes))
        assert np.all(gt.boxes[:, 2:] > 0)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary(), st.sampled_from([read_kv, load_annotations]))
def test_raw_bytes_load_or_name_the_line(tmp_path, blob, load):
    path = tmp_path / "input.txt"
    path.write_bytes(blob)
    loads_or_names_the_line(load, path)


@pytest.mark.parametrize("load,blob", [
    (read_kv, "# \u00e9t\u00e9\nkey = 1\n".encode() + b"\xff = 2\n"),
    (load_annotations, b"scene 0\n0 5 5 4 4\n0 5 5 4 4 \xff\n"),
])
def test_non_utf8_byte_names_the_line(tmp_path, load, blob):
    path = tmp_path / "input.txt"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: byte 0xff is not UTF-8")):
        load(path)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_generation_valid_for_any_seed(seed):
    scenes = generate(basic_spec(seed=seed, crowding=0.5), 2)
    for scene in scenes:
        assert scene.image.shape == (64, 64, 3)
        assert scene.image.dtype == np.uint8


class TestCsvLine:
    def test_numpy_and_python_floats_read_alike(self):
        assert csv_line([0.1]) == csv_line([np.float64(0.1)]) == "0.1"
        assert csv_line([np.float32(0.5), 1e-300]) == "0.5,1e-300"

    def test_none_is_an_empty_field(self):
        assert csv_line(["mean", 0.25, None, None]) == "mean,0.25,,"

    def test_integers_are_digits(self):
        assert csv_line([np.int64(-3), np.uint8(255), 7]) == "-3,255,7"


def test_clear_removes_only_whole_name_matches(tmp_path):
    names = ["final.bin", "report.csv", "report.txt", "report.csv.bak", "xfinal.bin",
             "log.csv"]
    for name in names:
        (tmp_path / name).write_text("")
    clear(tmp_path, r"final\.bin|report\.(csv|txt)")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv", "report.csv.bak",
                                                          "xfinal.bin"]
