"""ToyNet: a small encoder-decoder convnet with skip connections that
predicts per-anchor score logits and offsets.

Every pyramid level is processed by a small conv stack, resized to the
stride-8 map, concatenated, and read by a classification head and an
offset regression head.  One walk over the layers describes the network:
at construction it takes each layer's kernel as it reaches the layer, and
the forward pass applies them to an image stack [N, H, W, 3], each conv,
bias and leaky ReLU as one ``conv2d`` call and one tape record.
Parameters are plain float64 arrays in a name->array dict; a training run
wraps each as a leaf once, on the tape it owns.  Passing the raw arrays
runs the same forward in pure numpy for inference.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from .data import atomic_open

FEAT_STRIDE = 8

# initial classification-head bias; keeps early scores ~0.12 instead of 0.5
CLS_BIAS_INIT = -2.0

LEAK = 0.1


@dataclass
class PredictorOutput:
    """logits [N, h, w, nc, na] and offsets [N, h, w, nc, na, 4]."""

    logits: object
    offsets: object


@dataclass(frozen=True)
class ToyNetConfig:
    """Sizing of the toy network; output stride is fixed at 8."""

    input_size: int = 64
    base_channels: int = 8
    levels: int = 2
    head_convs: int = 2

    def __post_init__(self):
        if self.base_channels < 1:
            raise ValueError("base_channels must be >= 1")
        if self.levels < 2:
            raise ValueError("levels must be >= 2")
        if self.head_convs < 0:
            raise ValueError("head_convs must be >= 0")
        # refuse levels whose power of 2 exceeds input_size before building it
        if self.levels - 1 > max(self.input_size, 1).bit_length():
            raise ValueError(f"levels = {self.levels} is too many for a "
                             f"{self.input_size}px input")
        need = FEAT_STRIDE * 2 ** (self.levels - 1)
        if self.input_size < 1 or self.input_size % need:
            raise ValueError(f"input_size must be a positive multiple of {need} "
                             f"for {self.levels} levels")

    @property
    def feat_size(self) -> int:
        return self.input_size // FEAT_STRIDE


def drawn_kernels(seed: int):
    """A fresh `ToyNet`'s kernels: uniform in +-sqrt(3 / fan_in), drawn layer
    by layer from `seed`, and constant biases."""
    rng = np.random.default_rng([seed, 1])

    def draw(name, shape, bias):
        limit = np.sqrt(3.0 / math.prod(shape[:3]))
        return rng.uniform(-limit, limit, shape), np.full(shape[3], bias, dtype=np.float64)
    return draw


class ToyNet:
    """Encoder-decoder detector with multi-scale concatenation at stride 8."""

    def __init__(self, cfg: ToyNetConfig, n_classes: int, n_anchors: int, kernels):
        """Layer `name` takes `kernels(name, (k, k, cin, cout), bias)` -> (w, b),
        called in walk order on stand-ins of no scene, which hold no pixels."""
        self.cfg = cfg
        self.n_classes, self.n_anchors = n_classes, n_anchors
        self.params: dict[str, np.ndarray] = {}

        def make(name, x, cout, stride=1, k=3, act=True, bias=0.0):
            # take the layer's arrays and stand in for its output, without a conv
            n, h, w, cin = x.shape
            pair = kernels(name, (k, k, cin, cout), bias)
            self.params[f"{name}.w"], self.params[f"{name}.b"] = pair
            return np.empty((n, (h - 1) // stride + 1, (w - 1) // stride + 1, cout))

        self._walk(make, np.empty((0, cfg.input_size, cfg.input_size, 3)))

    def _walk(self, conv, images):
        """The (cls, reg) head outputs on `images`, one `conv(name, x, cout,
        stride, k, act, bias)` call per layer in kernel-draw order.  A k x k
        conv pads by k // 2: at stride s, a side h becomes (h - 1) // s + 1."""
        cfg, c = self.cfg, self.cfg.base_channels
        # encoder: three stride-2 convs to /8, then one per extra level
        x = conv("stem0", images, c, stride=2)
        x = conv("stem1", x, 2 * c, stride=2)
        x = conv("stem2", x, 4 * c, stride=2)
        enc = [x]
        for k in range(1, cfg.levels):
            enc.append(conv(f"enc{k}", enc[-1], 4 * c << k, stride=2))

        # decoder with skip concatenation, half the encoder's channels
        top = cfg.levels - 1
        dec = [None] * cfg.levels
        dec[top] = conv(f"dec{top}", enc[top], 2 * c << top)
        for k in range(top - 1, -1, -1):
            dec[k] = conv(f"dec{k}", ad.concat([ad.upsample2(dec[k + 1]), enc[k]]),
                          2 * c << k)

        pyramids = []
        for k in range(cfg.levels):
            h = dec[k]
            for i in range(cfg.head_convs):
                h = conv(f"pyr{k}_{i}", h, 2 * c << k)
            for _ in range(k):
                h = ad.upsample2(h)
            pyramids.append(h)
        trunk = ad.concat(pyramids)

        heads = []
        nca = self.n_classes * self.n_anchors
        for prefix, cout, bias in (("cls", nca, CLS_BIAS_INIT), ("reg", nca * 4, 0.0)):
            h = trunk
            for i in range(cfg.head_convs):
                h = conv(f"{prefix}{i}", h, max(2 * c, 8))
            heads.append(conv(f"{prefix}_out", h, cout, k=1, act=False, bias=bias))
        return heads

    def forward(self, params, images) -> PredictorOutput:
        """Predictions for a float64 image stack [N, input_size, input_size, 3]."""
        cfg = self.cfg
        # not ad.values_of, which would cast an 8-bit stack to 0..255 floats
        values = images.values if isinstance(images, ad.Tensor) else np.asarray(images)
        if values.dtype != np.float64:
            raise ValueError(f"expected a float64 image stack, got {values.dtype}; "
                             "data.pixels maps stored images to float64")
        shape = values.shape
        if len(shape) != 4 or shape[1:3] != (cfg.input_size, cfg.input_size):
            raise ValueError(f"expected an [N, {cfg.input_size}, {cfg.input_size}, C] "
                             f"image stack, got shape {shape}")

        def conv(name, x, cout, stride=1, k=3, act=True, bias=0.0):
            return ad.conv2d(x, params[f"{name}.w"], params[f"{name}.b"],
                             stride=stride, leak=LEAK if act else None)

        cls, reg = self._walk(conv, images)
        n, s = shape[0], cfg.feat_size
        logits = ad.reshape(cls, (n, s, s, self.n_classes, self.n_anchors))
        offsets = ad.reshape(reg, (n, s, s, self.n_classes, self.n_anchors, 4))
        return PredictorOutput(logits=logits, offsets=offsets)

    def meta(self) -> dict:
        return {"model_kind": 1.0, **{k: float(v) for k, v in asdict(self.cfg).items()},
                "n_classes": float(self.n_classes), "n_anchors": float(self.n_anchors)}


def net_floats(cfg: ToyNetConfig, n_classes: int, n_anchors: int) -> tuple[int, int]:
    """(the kernel and bias floats, one image's conv patch-matrix and output
    floats) of the ToyNet `_walk` builds, as Python ints, counted on that
    walk over zero-byte kernels and stand-ins of no scene.  A large config
    is counted from walks of small ones: from `head_convs` 1 up both counts
    are linear in it (each head layer past a stack's first repeats the one
    before it), and from `base_channels` 4 up at most quadratic in it (each
    channel count is 3, 8, the head output's or a multiple of it)."""
    for key, low, degree in (("head_convs", 1, 1), ("base_channels", 4, 2)):
        n = getattr(cfg, key) - low
        if n > degree:  # Newton's forward differences of walks at low .. low + degree
            ys = np.array([net_floats(replace(cfg, **{key: low + i}), n_classes, n_anchors)
                           for i in range(degree + 1)], dtype=object)
            return tuple(sum(math.comb(n, i) * np.diff(ys, i, axis=0)[0]
                             for i in range(degree + 1)))
    acts = 0

    def conv(name, x, cout, stride=1, k=3, act=True, bias=0.0):
        nonlocal acts
        side = (x.shape[1] - 1) // stride + 1
        acts += side * side * (k * k * x.shape[3] + cout)
        return np.empty((0, side, side, cout))

    net = ToyNet(cfg, n_classes, n_anchors, lambda name, shape, bias: (
        np.broadcast_to(0.0, shape), np.broadcast_to(bias, shape[3:])))
    net._walk(conv, np.empty((0, cfg.input_size, cfg.input_size, 3)))
    return sum(p.size for p in net.params.values()), acts


# ---------------------------------------------------------------------
# flat binary checkpoint format
#
#   magic   8 bytes  b"PONODET1"
#   count   uint32 LE
#   per entry: name_len uint16 LE, name utf-8, ndim uint8,
#              dims int64 LE each
#   data    float64 LE arrays back to back, entry order
# ---------------------------------------------------------------------

MAGIC = b"PONODET1"


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    names = list(arrays.keys())
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(names)))
        for name in names:
            arr = np.asarray(arrays[name], dtype=np.float64)
            enc = name.encode()
            f.write(struct.pack("<H", len(enc)))
            f.write(enc)
            f.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<q", d))
        for name in names:
            arr = np.ascontiguousarray(np.asarray(arrays[name], dtype=np.float64))
            f.write(arr.astype("<f8").tobytes())


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read a `save_arrays` file; a foreign, truncated or overlong file, or
    one that repeats an entry name, raises ValueError naming the path and
    the fault."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    pos = 8

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise ValueError(f"{path}: checkpoint truncated at {len(blob)} bytes")
        pos += n
        return blob[pos - n:pos]

    (count,) = struct.unpack("<I", take(4))
    entries = {}  # name -> shape
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode()
        except UnicodeDecodeError:
            raise ValueError(f"{path}: entry name is not UTF-8") from None
        if name in entries:
            raise ValueError(f"{path}: entry {name!r} is given twice")
        (ndim,) = struct.unpack("<B", take(1))
        entries[name] = struct.unpack(f"<{ndim}q", take(8 * ndim))
    out = {}
    for name, shape in entries.items():
        if min(shape, default=0) < 0:
            raise ValueError(f"{path}: entry {name!r} has shape {shape}")
        data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        out[name] = data.astype(np.float64).reshape(shape)
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} bytes after the last entry")
    return out
