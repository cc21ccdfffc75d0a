"""Synthetic scene generation, flip augmentation, and the dataset format.

Scenes are filled rectangles (one color per class) over a gray background
with additive noise, so ground truth is exact and detection on them can
saturate.  Class frequencies, per-class size ranges and a crowding
probability (same-class overlapping pairs) control the imbalance regimes.

Box coordinates are snapped to a 1/256-pixel grid.  That keeps every
coordinate an exact dyadic rational, so horizontal flips and annotation
round-trips are bit-exact.

On disk a dataset is a directory of binary portable pixmaps plus one
`annotations.txt` with a `scene N` header per scene followed by
`class_id cx cy w h` lines.  Images are 8-bit quantized; annotations are
full precision.
"""

from __future__ import annotations

import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .assignment import GroundTruth
from .geometry import Box, iou

# distinct fill colors, cycled per class id
PALETTE = [
    (0.85, 0.25, 0.25), (0.25, 0.45, 0.85), (0.25, 0.75, 0.35),
    (0.85, 0.75, 0.25), (0.65, 0.30, 0.80), (0.90, 0.55, 0.20),
    (0.30, 0.75, 0.75), (0.80, 0.35, 0.55),
]

NOISE_SIGMA = 0.03
BACKGROUND = 0.12
_SNAP = 256.0  # sub-pixel grid for box coordinates


@dataclass(frozen=True)
class Scene:
    """One image with its annotation."""

    image: np.ndarray
    gt: GroundTruth


@dataclass(frozen=True)
class GenSpec:
    """Generator settings; `class_freq` must sum to 1, sizes are >= 4 px."""

    n_classes: int
    class_freq: tuple
    size_ranges: tuple
    objects_per_scene: tuple
    crowding: float
    seed: int
    image_size: int = 64

    def __post_init__(self):
        if len(self.class_freq) != self.n_classes or len(self.size_ranges) != self.n_classes:
            raise ValueError("class_freq and size_ranges must have one entry per class")
        if abs(sum(self.class_freq) - 1.0) > 1e-9:
            raise ValueError(f"class_freq must sum to 1, got {sum(self.class_freq)}")
        for lo, hi in self.size_ranges:
            if not (4.0 <= lo <= hi <= self.image_size):
                raise ValueError(f"bad size range ({lo}, {hi}) for image size {self.image_size}")
        lo, hi = self.objects_per_scene
        if not (0 <= lo <= hi):
            raise ValueError(f"bad objects_per_scene {self.objects_per_scene}")
        if not (0.0 <= self.crowding <= 1.0):
            raise ValueError(f"crowding must be in [0, 1], got {self.crowding}")


def _snap(x: float) -> float:
    return round(x * _SNAP) / _SNAP


# Base objects are resampled while they would cover (or be covered by) an
# already placed box beyond this fraction; rectangles render opaquely, so
# unbounded accidental overlap would create unlearnable ground truth.
# Intentional same-class overlap comes from `crowding` instead.
_MAX_COVER = 0.3
_PLACE_TRIES = 24


def _cover_fraction(a: Box, b: Box) -> float:
    """Largest fraction of either box's area taken by the intersection."""
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    return iw * ih / min(a.area(), b.area())


def _sample_box(rng: np.random.Generator, lo: float, hi: float,
                size: int, placed: list[Box]) -> Box:
    best, best_cover = None, np.inf
    for _ in range(_PLACE_TRIES):
        w = _snap(rng.uniform(lo, hi))
        h = _snap(rng.uniform(lo, hi))
        cx = _snap(rng.uniform(w / 2, size - w / 2))
        cy = _snap(rng.uniform(h / 2, size - h / 2))
        cand = Box(cx, cy, w, h)
        cover = max((_cover_fraction(cand, p) for p in placed), default=0.0)
        if cover <= _MAX_COVER:
            return cand
        if cover < best_cover:
            best, best_cover = cand, cover
    return best  # crowded scene; accept the least-covering candidate


def _spawn_neighbor(rng: np.random.Generator, base: Box, size: int) -> Box:
    """Same-class companion overlapping `base` with IoU in (0.3, 0.7)."""
    for _ in range(32):
        t = rng.uniform(0.34, 0.66)
        horizontal = rng.random() < 0.5
        sign = 1.0 if rng.random() < 0.5 else -1.0
        if horizontal:
            delta = _snap(base.w * (1.0 - t) / (1.0 + t)) * sign
            cand = Box(base.cx + delta, base.cy, base.w, base.h)
        else:
            delta = _snap(base.h * (1.0 - t) / (1.0 + t)) * sign
            cand = Box(base.cx, base.cy + delta, base.w, base.h)
        x1, y1, x2, y2 = cand.corners()
        if x1 >= 0 and y1 >= 0 and x2 <= size and y2 <= size \
                and 0.3 < iou(base, cand) < 0.7:
            return cand
    raise RuntimeError("could not place an overlapping neighbor; "
                       "object sizes too large for the image")


def _render(rng: np.random.Generator, gt: GroundTruth, size: int) -> np.ndarray:
    img = np.full((size, size, 3), BACKGROUND)
    for box, cid in zip(gt.boxes, gt.class_ids):
        x1, y1, x2, y2 = box.corners()
        xs, ys = int(round(x1)), int(round(y1))
        xe, ye = int(round(x2)), int(round(y2))
        img[max(ys, 0):min(ye, size), max(xs, 0):min(xe, size)] = \
            PALETTE[cid % len(PALETTE)]
    img += rng.normal(0.0, NOISE_SIGMA, img.shape)
    return np.clip(img, 0.0, 1.0)


def generate(spec: GenSpec, n: int) -> list[Scene]:
    """Generate `n` scenes; bit-for-bit reproducible per (seed, index)."""
    freq = np.asarray(spec.class_freq, dtype=np.float64)
    scenes = []
    for idx in range(n):
        rng = np.random.default_rng([spec.seed, idx])
        count = int(rng.integers(spec.objects_per_scene[0],
                                 spec.objects_per_scene[1] + 1))
        boxes: list[Box] = []
        class_ids: list[int] = []
        for _ in range(count):
            cid = int(rng.choice(spec.n_classes, p=freq))
            lo, hi = spec.size_ranges[cid]
            box = _sample_box(rng, lo, hi, spec.image_size, boxes)
            boxes.append(box)
            class_ids.append(cid)
            if rng.random() < spec.crowding:
                boxes.append(_spawn_neighbor(rng, box, spec.image_size))
                class_ids.append(cid)
        gt = GroundTruth(boxes=boxes, class_ids=class_ids)
        scenes.append(Scene(image=_render(rng, gt, spec.image_size), gt=gt))
    return scenes


def hflip(scene: Scene) -> Scene:
    """Mirror the image columns and box centers; an exact involution."""
    width = scene.image.shape[1]
    boxes = [Box(width - b.cx, b.cy, b.w, b.h) for b in scene.gt.boxes]
    return Scene(image=np.ascontiguousarray(scene.image[:, ::-1, :]),
                 gt=GroundTruth(boxes=boxes, class_ids=list(scene.gt.class_ids)))


# ---------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------

@contextmanager
def atomic_open(path, mode: str = "w"):
    """Write through a temp file beside `path` that replaces it only when
    the block completes: a failed write leaves the old file and no temp."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_ppm(path, image: np.ndarray) -> None:
    h, w = image.shape[:2]
    data = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(data.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    m = re.match(rb"P6\s+(\d+)\s+(\d+)\s+255\s", blob)
    if not m:
        raise ValueError(f"{path}: not a binary 8-bit PPM")
    w, h = int(m.group(1)), int(m.group(2))
    pixels = np.frombuffer(blob[m.end():], dtype=np.uint8, count=w * h * 3)
    return pixels.reshape(h, w, 3).astype(np.float64) / 255.0


def write_pgm(path, gray: np.ndarray) -> None:
    """8-bit graymap for map visualizations; input in [0, 1]."""
    h, w = gray.shape
    data = np.clip(np.rint(gray * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(data.tobytes())


def _image_name(idx: int) -> str:
    return f"scene_{idx:05d}.ppm"


def save_dataset(directory, scenes: list[Scene]) -> None:
    os.makedirs(directory, exist_ok=True)
    lines = []
    for idx, scene in enumerate(scenes):
        write_ppm(os.path.join(directory, _image_name(idx)), scene.image)
        lines.append(f"scene {idx}")
        for box, cid in zip(scene.gt.boxes, scene.gt.class_ids):
            lines.append(f"{cid} {box.cx!r} {box.cy!r} {box.w!r} {box.h!r}")
    with open(os.path.join(directory, "annotations.txt"), "w") as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))


def load_annotations(path) -> list[GroundTruth]:
    """Parse an annotations file; raises with the line number on bad records."""
    records: list[GroundTruth] = []
    boxes: list[Box] | None = None
    class_ids: list[int] = []

    def flush():
        if boxes is not None:
            records.append(GroundTruth(boxes=list(boxes), class_ids=list(class_ids)))

    with open(path) as f:
        for ln, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("scene "):
                flush()
                boxes, class_ids = [], []
                continue
            if boxes is None:
                raise ValueError(f"{path}:{ln}: object record before any 'scene' header")
            parts = line.split()
            if len(parts) != 5:
                raise ValueError(f"{path}:{ln}: expected 'class_id cx cy w h', got {line!r}")
            try:
                cid = int(parts[0])
                cx, cy, w, h = (float(p) for p in parts[1:])
            except ValueError as e:
                raise ValueError(f"{path}:{ln}: {e}") from None
            if cid < 0:
                raise ValueError(f"{path}:{ln}: negative class id {cid}")
            if not all(map(math.isfinite, (cx, cy, w, h))):
                raise ValueError(f"{path}:{ln}: non-finite box in {line!r}")
            try:
                boxes.append(Box(cx, cy, w, h))
            except ValueError as e:
                raise ValueError(f"{path}:{ln}: {e}") from None
            class_ids.append(cid)
    flush()
    return records


def load_dataset(directory) -> list[Scene]:
    gts = load_annotations(os.path.join(directory, "annotations.txt"))
    scenes = []
    for idx, gt in enumerate(gts):
        image = read_ppm(os.path.join(directory, _image_name(idx)))
        scenes.append(Scene(image=image, gt=gt))
    return scenes


# ---------------------------------------------------------------------
# key=value config files
# ---------------------------------------------------------------------

def read_kv(path) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path) as f:
        for ln, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected 'key = value', got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def gen_spec_from_file(path) -> GenSpec:
    kv = read_kv(path)
    try:
        n_classes = int(kv["n_classes"])
        class_freq = tuple(float(x) for x in kv["class_freq"].split(","))
        size_ranges = tuple(
            tuple(float(x) for x in pair.split(":"))
            for pair in kv["size_ranges"].split(","))
        objects = tuple(int(x) for x in kv["objects_per_scene"].split(","))
        spec = GenSpec(
            n_classes=n_classes, class_freq=class_freq, size_ranges=size_ranges,
            objects_per_scene=objects, crowding=float(kv.get("crowding", "0")),
            seed=int(kv.get("seed", "0")),
            image_size=int(kv.get("image_size", "64")))
    except KeyError as e:
        raise ValueError(f"{path}: missing key {e.args[0]!r}") from None
    return spec


def save_gen_spec(path, spec: GenSpec) -> None:
    with open(path, "w") as f:
        f.write(f"n_classes = {spec.n_classes}\n")
        f.write("class_freq = " + ",".join(repr(x) for x in spec.class_freq) + "\n")
        f.write("size_ranges = " + ",".join(f"{lo!r}:{hi!r}" for lo, hi in spec.size_ranges) + "\n")
        f.write(f"objects_per_scene = {spec.objects_per_scene[0]},{spec.objects_per_scene[1]}\n")
        f.write(f"crowding = {spec.crowding!r}\n")
        f.write(f"seed = {spec.seed}\n")
        f.write(f"image_size = {spec.image_size}\n")
