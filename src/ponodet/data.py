"""Synthetic scene generation, flip augmentation, and the dataset format.

Scenes are filled rectangles (one color per class) over a gray background
with additive noise, so ground truth is exact and detection on them can
saturate.  Class frequencies, per-class size ranges and a crowding
probability (same-class overlapping pairs) control the imbalance regimes.

Box coordinates are snapped to a 1/256-pixel grid.  That keeps every
coordinate an exact dyadic rational, so horizontal flips and annotation
round-trips are bit-exact.

On disk a dataset is a directory of binary portable pixmaps plus one
`annotations.txt` in which the k-th scene (from 0) is a `scene k` header
followed by `class_id cx cy w h` lines.  Images are 8-bit quantized;
annotations are full precision.

Every scene holds its image as 8-bit levels: `generate` quantizes each
render once through `levels`, and a load keeps its file's levels, so the
two are bit-equal.  `pixels` is the one map from levels to float64 in
[0, 1]; every forward and every image write reads a scene through it.
"""

from __future__ import annotations

import math
import os
import re
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .geometry import GroundTruth

# distinct fill colors, cycled per class id
PALETTE = [
    (0.85, 0.25, 0.25), (0.25, 0.45, 0.85), (0.25, 0.75, 0.35),
    (0.85, 0.75, 0.25), (0.65, 0.30, 0.80), (0.90, 0.55, 0.20),
    (0.30, 0.75, 0.75), (0.80, 0.35, 0.55),
]

NOISE_SIGMA = 0.03
BACKGROUND = 0.12
_SNAP = 256.0  # sub-pixel grid for box coordinates
# largest generated image side: a 1024px scene keeps 3 MB of levels; its
# float64 canvas and noise draw, 25 MB each, live only while it renders
MAX_IMAGE_SIZE = 1024


@dataclass(frozen=True)
class Scene:
    """One image [h, w, 3] of uint8 levels, read through `pixels`, with its annotation."""

    image: np.ndarray
    gt: GroundTruth

    def __post_init__(self):
        if self.image.dtype != np.uint8 or self.image.ndim != 3 or self.image.shape[2] != 3:
            raise ValueError(f"a scene image is uint8 [h, w, 3], got {self.image.dtype} "
                             f"{list(self.image.shape)}")


def _range_of(parse, sep: str):
    """A parser of `lo{sep}hi` text into the pair (parse(lo), parse(hi))."""
    def pair(text: str) -> tuple:
        lo, hi = (parse(x) for x in text.split(sep))
        return lo, hi
    return pair


@dataclass(frozen=True)
class GenSpec:
    """Generator settings: `class_freq` entries finite, >= 0 and summing to
    1, sizes >= 4 px.  Each field is a genspec.txt key, and a field's `parse`
    metadata reads its value there; its `format` metadata, else `repr`, writes it."""

    n_classes: int = field(metadata={"parse": int})
    class_freq: tuple = field(metadata={
        "parse": lambda text: tuple(float(x) for x in text.split(",")),
        "format": lambda values: ",".join(map(repr, values))})
    size_ranges: tuple = field(metadata={
        "parse": lambda text: tuple(map(_range_of(float, ":"), text.split(","))),
        "format": lambda pairs: ",".join(f"{lo!r}:{hi!r}" for lo, hi in pairs)})
    objects_per_scene: tuple = field(metadata={
        "parse": _range_of(int, ","), "format": lambda pair: ",".join(map(repr, pair))})
    crowding: float = 0.0
    seed: int = 0
    image_size: int = 64

    def __post_init__(self):
        if len(self.class_freq) != self.n_classes or len(self.size_ranges) != self.n_classes:
            raise ValueError("class_freq and size_ranges must have one entry per class")
        if not all(0.0 <= f < math.inf for f in self.class_freq):  # NaN fails too
            raise ValueError(f"class_freq entries must be finite and >= 0, "
                             f"got {self.class_freq}")
        if abs(sum(self.class_freq) - 1.0) > 1e-9:
            raise ValueError(f"class_freq must sum to 1, got {sum(self.class_freq)}")
        if self.image_size > MAX_IMAGE_SIZE:
            raise ValueError(f"image_size must be at most {MAX_IMAGE_SIZE}, got {self.image_size}")
        for lo, hi in self.size_ranges:
            if not (4.0 <= lo <= hi <= self.image_size):
                raise ValueError(f"size_ranges: bad range ({lo}, {hi}) for image size {self.image_size}")
        lo, hi = self.objects_per_scene
        if not (0 <= lo <= hi):
            raise ValueError(f"objects_per_scene: bad range {self.objects_per_scene}")
        most = (self.image_size // 4) ** 2  # placement is quadratic in the count
        if hi > most:
            raise ValueError(f"objects_per_scene: {hi} objects, but a {self.image_size}px "
                             f"image holds {most} disjoint 4px squares")
        if not (0.0 <= self.crowding <= 1.0):
            raise ValueError(f"crowding must be in [0, 1], got {self.crowding}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _snap(x: float) -> float:
    return round(x * _SNAP) / _SNAP


# Base objects are resampled while they would cover (or be covered by) an
# already placed box beyond this fraction; rectangles render opaquely, so
# unbounded accidental overlap would create unlearnable ground truth.
# Intentional same-class overlap comes from `crowding` instead.
_MAX_COVER = 0.3
_PLACE_TRIES = 24


def _intersection(a: tuple, b: tuple) -> float:
    """Intersection area of two (cx, cy, w, h) boxes, on Python floats: the
    array form of `geometry.overlap` places the same boxes, but made
    `generate` over 50% slower on one candidate against a few boxes."""
    iw = min(a[0] + a[2] / 2, b[0] + b[2] / 2) - max(a[0] - a[2] / 2, b[0] - b[2] / 2)
    ih = min(a[1] + a[3] / 2, b[1] + b[3] / 2) - max(a[1] - a[3] / 2, b[1] - b[3] / 2)
    return iw * ih if iw > 0 and ih > 0 else 0.0


def _sample_box(rng: np.random.Generator, lo: float, hi: float,
                size: int, placed: list[tuple]) -> tuple:
    """A (cx, cy, w, h) box that covers, and is covered by, no placed box
    beyond `_MAX_COVER` of its area, or the least-covering candidate."""
    best, best_cover = None, np.inf
    for _ in range(_PLACE_TRIES):
        w = _snap(rng.uniform(lo, hi))
        h = _snap(rng.uniform(lo, hi))
        cx = _snap(rng.uniform(w / 2, size - w / 2))
        cy = _snap(rng.uniform(h / 2, size - h / 2))
        cand = (cx, cy, w, h)
        cover = max((_intersection(cand, p) / min(w * h, p[2] * p[3]) for p in placed),
                    default=0.0)
        if cover <= _MAX_COVER:
            return cand
        if cover < best_cover:
            best, best_cover = cand, cover
    return best  # crowded scene; accept the least-covering candidate


def _spawn_neighbor(rng: np.random.Generator, base: tuple, size: int) -> tuple:
    """Same-class companion overlapping `base` with IoU in (0.3, 0.7)."""
    cx, cy, w, h = base
    for _ in range(32):
        t = rng.uniform(0.34, 0.66)
        horizontal = rng.random() < 0.5
        sign = 1.0 if rng.random() < 0.5 else -1.0
        if horizontal:
            cand = (cx + _snap(w * (1.0 - t) / (1.0 + t)) * sign, cy, w, h)
        else:
            cand = (cx, cy + _snap(h * (1.0 - t) / (1.0 + t)) * sign, w, h)
        inside = (cand[0] - w / 2 >= 0 and cand[1] - h / 2 >= 0
                  and cand[0] + w / 2 <= size and cand[1] + h / 2 <= size)
        inter = _intersection(base, cand)
        if inside and 0.3 < inter / (w * h + w * h - inter) < 0.7:
            return cand
    raise RuntimeError("could not place an overlapping neighbor; "
                       "object sizes too large for the image")


def _render(rng: np.random.Generator, gt: GroundTruth, size: int) -> np.ndarray:
    img = np.full((size, size, 3), BACKGROUND)
    for (cx, cy, w, h), cid in zip(gt.boxes.tolist(), gt.class_ids.tolist()):
        xs, ys = int(round(cx - w / 2)), int(round(cy - h / 2))
        xe, ye = int(round(cx + w / 2)), int(round(cy + h / 2))
        img[max(ys, 0):min(ye, size), max(xs, 0):min(xe, size)] = \
            PALETTE[cid % len(PALETTE)]
    img += rng.normal(0.0, NOISE_SIGMA, img.shape)
    return img


def generate(spec: GenSpec, n: int) -> list[Scene]:
    """Generate `n` scenes; bit-for-bit reproducible per (seed, index)."""
    freq = np.asarray(spec.class_freq, dtype=np.float64)
    scenes = []
    for idx in range(n):
        rng = np.random.default_rng([spec.seed, idx])
        count = int(rng.integers(spec.objects_per_scene[0],
                                 spec.objects_per_scene[1] + 1))
        boxes: list[tuple] = []
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
        scenes.append(Scene(image=levels(_render(rng, gt, spec.image_size)), gt=gt))
    return scenes


def hflip(scene: Scene) -> Scene:
    """Mirror the image columns and box centers; an exact involution.  The
    mirrored image is a view of the scene's image, not a copy."""
    boxes = scene.gt.boxes.copy()
    boxes[:, 0] = scene.image.shape[1] - boxes[:, 0]
    return Scene(image=scene.image[:, ::-1, :],
                 gt=GroundTruth(boxes=boxes, class_ids=scene.gt.class_ids))


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


def csv_line(values) -> str:
    """One CSV line, without its newline: a Python or numpy float as
    `repr(float(v))`, every bit of it, `None` as an empty field, and
    anything else as `str(v)`."""
    return ",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                    else "" if v is None else str(v) for v in values)


def write_csv(path, header: str, rows) -> None:
    """Write `path` atomically: `header`, then one `csv_line` per row."""
    with atomic_open(path) as f:
        f.write(header + "\n")
        f.writelines(csv_line(row) + "\n" for row in rows)


def clear(directory, pattern) -> None:
    """Remove each file in `directory` whose whole name matches `pattern`."""
    for name in os.listdir(directory):
        if re.fullmatch(pattern, name):
            os.remove(os.path.join(directory, name))


def levels(values: np.ndarray) -> np.ndarray:
    """The uint8 levels of float `values`, clipped to [0, 1]: the one quantizer."""
    return np.clip(np.rint(values * 255.0), 0, 255).astype(np.uint8)


def pixels(images: np.ndarray) -> np.ndarray:
    """The float64 values in [0, 1] of a scene image or stack of uint8 levels."""
    return images / 255.0


def write_pnm(path, values: np.ndarray) -> None:
    """An 8-bit binary netpbm file of float `values` in [0, 1], written
    atomically: a pixmap (P6) for an [h, w, 3] image, a graymap (P5) for an
    [h, w] map."""
    h, w = values.shape[:2]
    with atomic_open(path, "wb") as f:
        f.write(f"{'P6' if values.ndim == 3 else 'P5'}\n{w} {h}\n255\n".encode())
        f.write(levels(values).tobytes())


def read_ppm(path) -> np.ndarray:
    """The uint8 levels [h, w, 3] of a binary 8-bit PPM, in an array of
    their own: exactly h * w * 3 bytes."""
    with open(path, "rb") as f:
        blob = f.read()
    m = re.match(rb"P6\s+(\d+)\s+(\d+)\s+255\s", blob)
    if not m:
        raise ValueError(f"{path}: not a binary 8-bit PPM")
    w, h = int(m.group(1)), int(m.group(2))
    found, need = len(blob) - m.end(), w * h * 3
    if found < need:
        raise ValueError(f"{path}: pixel block has {found} bytes, the {w}x{h} header needs {need}")
    levels = np.frombuffer(blob[m.end():], dtype=np.uint8, count=need)
    return levels.reshape(h, w, 3).copy()


def _image_name(idx: int) -> str:
    return f"scene_{idx:05d}.ppm"


def save_dataset(directory, scenes: list[Scene]) -> None:
    """Write `scenes` to `directory` as `scene_NNNNN.ppm` images and one
    `annotations.txt`, first removing the images of an earlier dataset
    there, so a smaller dataset leaves none of a larger one's behind."""
    os.makedirs(directory, exist_ok=True)
    clear(directory, r"scene_\d{5,}\.ppm")
    lines = []
    for idx, scene in enumerate(scenes):
        write_pnm(os.path.join(directory, _image_name(idx)), pixels(scene.image))
        lines.append(f"scene {idx}")
        for (cx, cy, w, h), cid in zip(scene.gt.boxes.tolist(), scene.gt.class_ids.tolist()):
            lines.append(f"{cid} {cx!r} {cy!r} {w!r} {h!r}")
    with atomic_open(os.path.join(directory, "annotations.txt")) as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))


def load_annotations(path) -> list[GroundTruth]:
    """Parse an annotations file; raises with the line number on a bad header or record."""
    scenes: list[tuple[list, list]] = []  # (boxes, class ids) per scene
    for ln, raw in text_lines(path):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("scene "):
            if line != f"scene {len(scenes)}":
                raise ValueError(f"{path}:{ln}: expected 'scene {len(scenes)}', got {line!r}")
            scenes.append(([], []))
            continue
        if not scenes:
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
        if cid >= 2 ** 63:
            raise ValueError(f"{path}:{ln}: class id {cid} does not fit int64")
        if not all(map(math.isfinite, (cx, cy, w, h))):
            raise ValueError(f"{path}:{ln}: non-finite box in {line!r}")
        if not (w > 0 and h > 0):
            raise ValueError(f"{path}:{ln}: box sides must be positive, got w={w}, h={h}")
        scenes[-1][0].append((cx, cy, w, h))
        scenes[-1][1].append(cid)
    return [GroundTruth(boxes, class_ids) for boxes, class_ids in scenes]


def load_dataset(directory) -> list[Scene]:
    """The scenes of a `save_dataset` directory.  Every image must be square
    and of scene 0's size, or a ValueError names the scene and the shapes."""
    gts = load_annotations(os.path.join(directory, "annotations.txt"))
    scenes = []
    for idx, gt in enumerate(gts):
        image = read_ppm(os.path.join(directory, _image_name(idx)))
        h, w = image.shape[:2]
        if h != w:
            raise ValueError(f"{directory}: scene {idx} image is {h}x{w}, not square")
        if scenes and image.shape != scenes[0].image.shape:
            raise ValueError(f"{directory}: scene {idx} image is {h}x{w}, but scene 0 "
                             f"is {scenes[0].image.shape[0]}x{scenes[0].image.shape[1]}")
        scenes.append(Scene(image=image, gt=gt))
    return scenes


# ---------------------------------------------------------------------
# key=value config files
# ---------------------------------------------------------------------

# A byte that is not UTF-8 decodes to one of these lone surrogates under
# the "surrogateescape" error handler; no UTF-8 text contains them.
_UNDECODED = re.compile("[\udc80-\udcff]")


def text_lines(path):
    """(line number, line) pairs of a UTF-8 text file.  A byte that is not
    UTF-8 raises a ValueError naming the file and line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for ln, line in enumerate(f, start=1):
            bad = _UNDECODED.search(line)
            if bad:
                raise ValueError(f"{path}:{ln}: byte 0x{ord(bad.group()) & 0xff:02x} is not UTF-8")
            yield ln, line


def read_kv(path) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment; a key is given once."""
    out, first = {}, {}  # key -> value, key -> line number
    for ln, raw in text_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first:
            raise ValueError(f"{path}:{ln}: key {key!r} is given twice, "
                             f"first on line {first[key]}")
        first[key], out[key] = ln, value
    return out


def config_from_kv(cls, kv: dict[str, str], path):
    """Build the dataclass `cls` (TrainConfig, ToyNetConfig or GenSpec) from
    the key=value pairs read from the file `path`.  A field's value parses
    by its `parse` metadata, else by its default's type (`int`, `float` or
    `str`); an absent key keeps the default, and a field without one must
    be given.  Keys that are not `cls` fields are `read_config`'s to
    check.  A missing key, a value that does not parse, or one that breaks
    a rule of `cls`, raises a ValueError naming the file and the key."""
    values = {}
    for f in fields(cls):
        if f.name not in kv:
            if f.default is MISSING:
                raise ValueError(f"{path}: missing key {f.name!r}")
            continue
        parse = f.metadata.get("parse", type(f.default))
        try:
            values[f.name] = parse(kv[f.name])
        except ValueError as e:
            raise ValueError(f"{path}: {f.name}: {e}") from None
    try:
        return cls(**values)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def read_config(path, *schemas, extra=()) -> dict[str, str]:
    """The key=value pairs of the config file `path`, whose keys must be
    fields of the dataclasses `schemas` or names in `extra`: an unknown key
    raises a ValueError naming the file and the key, rather than being a
    setting silently left at its default."""
    kv = read_kv(path)
    known = {f.name for schema in schemas for f in fields(schema)} | set(extra)
    for key in kv:
        if key not in known:
            raise ValueError(f"{path}: unknown config key {key!r}")
    return kv


def save_gen_spec(path, spec: GenSpec) -> None:
    with atomic_open(path) as f:
        for fd in fields(GenSpec):
            f.write(f"{fd.name} = {fd.metadata.get('format', repr)(getattr(spec, fd.name))}\n")
