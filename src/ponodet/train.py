"""SGD-with-momentum training loop over the dense assignment pipeline.

Every iteration runs: predict -> decode -> predicted-overlap map ->
labels (per the configured rule) -> weighted losses -> backward -> SGD
step under a polynomial learning-rate decay.  Labels and the predicted
overlaps inside label computation are plain data; the localization loss
is the only gradient path into the offsets.

A run's trained arrays are fixed when its `RunState` is built, so the
state builds their taped leaves then, once, on a tape it owns; every
iteration records on those leaves and clears the tape's records when its
pass ends, by backward or by a raise.  Every mode steps every trained array
and its momentum buffer; outside `learned` mode the loss gives the `bw.*`
weights no gradient, so from zero momentum they keep their bits.

A run holds anchor shapes, not a grid: its scenes live in a `SceneBank`,
which checks their class ids against the shapes and is the one reader of a
training variant `(index, mirrored)`; every cell of an ablation shares
one.  A batch is one array problem: `SceneBank.batch` returns its images,
mapped from 8-bit levels to float64 once by `data.pixels`, and its
assignment on a leading scene axis, and they go through one taped forward,
one predicted-overlap map and one pair of loss maps [N, h, w, nc, na],
which `loss.weighted_totals` sums per grid and weights in one record.  The
gate and labels depend on the config.  Batch losses are the sums over the
batch's scenes divided by the summed positive counts (equivalently: maps
averaged before weighting).  The batch RNG is derived from (seed,
iteration), which makes checkpoint resume bit-exact without serializing
generator state, and makes every run with the same seed draw the same
batches.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import loss as loss_mod
from .anchors import anchor_grid
from .assignment import AO_THRESHOLD, Assignment, ams_labels, assign_ao, pred_iou_values
from .data import Scene, atomic_open, clear, hflip, pixels
from .loss import LossReport, LOC_GATE, initial_balance
from .model import FEAT_STRIDE, ToyNet, ToyNetConfig, drawn_kernels, load_arrays, save_arrays

LABEL_RULES = ("AMS", "PONO", "AO")
CLS_LOSSES = ("CE", "FL")
MOMENTUM = 0.9    # the SGD step's momentum
POLY_POWER = 0.9  # the learning-rate decay's exponent
_CHECKPOINT = r"ckpt_\d{6,}\.bin"  # the names `run_training` writes


@dataclass(frozen=True)
class TrainConfig:
    """A run's settings, each a `train` and `ablate` config key.  MOMENTUM,
    POLY_POWER and AO_THRESHOLD are constants, and every run mirrors each
    scene it draws with probability 0.5."""

    lr0: float = 0.005
    max_iter: int = 1000
    batch_size: int = 1
    mode: str = "learned"
    label_rule: str = "AMS"
    cls_loss: str = "CE"
    seed: int = 0
    checkpoint_every: int = 0

    def __post_init__(self):
        if not 0 <= self.lr0 < math.inf:
            raise ValueError("lr0 must be finite and >= 0")
        for key in ("max_iter", "batch_size"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        for key in ("checkpoint_every", "seed"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0")
        if self.mode not in loss_mod.MODES:
            raise ValueError(f"mode must be one of {loss_mod.MODES}")
        if self.label_rule not in LABEL_RULES:
            raise ValueError(f"label_rule must be one of {LABEL_RULES}")
        if self.cls_loss not in CLS_LOSSES:
            raise ValueError(f"cls_loss must be one of {CLS_LOSSES}")


@dataclass
class RunState:
    """Everything that evolves during a run; checkpoints restore it bit-exactly.
    It holds the anchor `shapes` and no grid; the scenes, the grid and the
    assignments live in a `SceneBank` the caller owns.

    The trained arrays live in one contiguous float64 vector, `flat_params`,
    in optimizer order (the model's parameters, then the `bw.*` weights),
    and their momentum buffers in a second, `flat_momentum`; construction
    copies the given `model.params`, `bw` and `momentum` arrays into them
    and rebinds those dicts to views.  `momentum` then names one buffer per
    trained array, zero where none was given, and every mode steps them
    all.  `flat_grad` is the one gradient vector every iteration zeroes;
    it holds the gradient only until `sgd_step`, which overwrites it with
    the step, so a gradient norm must be read before the step.  `leaves`
    holds one leaf per trained array, built once on the state's `tape`: its
    value is the array's view into `flat_params` and its gradient the view
    into `flat_grad`.
    """

    model: ToyNet
    bw: dict               # the `loss.initial_balance` arrays
    shapes: np.ndarray     # the anchor shapes [n_classes, n_anchors, 2]
    iteration: int = 0
    momentum: dict = field(default_factory=dict)

    def __post_init__(self):
        trained = {**self.model.params, **self.bw}
        self._layout = [(name, np.shape(a)) for name, a in trained.items()]
        self.flat_params = np.concatenate([np.ravel(a) for a in trained.values()],
                                          dtype=np.float64)
        params = self._views(self.flat_params)
        self.model.params.update((name, params[name]) for name in self.model.params)
        self.bw.update((name, params[name]) for name in self.bw)
        self.flat_momentum = np.zeros_like(self.flat_params)
        given, self.momentum = self.momentum, self._views(self.flat_momentum)
        for name, v in given.items():
            self.momentum[name][...] = v
        self.flat_grad = np.zeros_like(self.flat_params)
        self.tape = ad.Tape()
        grads = self._views(self.flat_grad)
        self.leaves = {name: ad.leaf(a, self.tape, grads[name]) for name, a in params.items()}

    def _views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Each trained array's view into a flat vector, in optimizer order."""
        views, start = {}, 0
        for name, shape in self._layout:
            stop = start + math.prod(shape)
            views[name] = vector[start:stop].reshape(shape)
            start = stop
        return views

    @classmethod
    def fresh(cls, net: ToyNetConfig, shapes: np.ndarray, seed: int) -> RunState:
        """Iteration 0 on anchor `shapes` of a ToyNet sized by `net`, drawn from
        `seed`, with an output per class and anchor; unit balance weights."""
        nc, na = shapes.shape[:2]
        return cls(model=ToyNet(net, nc, na, drawn_kernels(seed)), shapes=shapes,
                   bw=initial_balance(nc, na))


class SceneBank:
    """Training scenes on their anchor grid, drawn by key `(index, mirrored)`.

    The bank tiles the anchor `shapes` into its `grid` at its scenes' image
    size, which every scene must share, and refuses a class id the shapes do
    not cover.  Variant `(index, mirrored)` is row `2 * index + mirrored` of
    each per-field array: `gt_index` [2N, h, w, nc, na] in the least signed
    type that holds -1 - the bank's largest object count, `ao` float64, and
    the per-object tables `cluster_max` and `boxes`, one dummy row and then a
    row per object for each variant, not padded; `first` is the table row of
    each variant's object 0.  A variant's assignment never changes:
    `scene_cache` fills its row on first use and the bank keeps it, so runs
    that share a bank (the cells of one ablation) flip and assign each variant
    once.  Below 128 objects a row is 9 bytes per anchor cell."""

    def __init__(self, scenes: list[Scene], shapes: np.ndarray):
        if not scenes:
            raise ValueError("a scene bank needs at least one scene")
        for i, scene in enumerate(scenes):
            if scene.image.shape != scenes[0].image.shape:
                raise ValueError(f"scene {i} has image shape {scene.image.shape}, "
                                 f"scene 0 {scenes[0].image.shape}")
            if scene.gt.class_ids.max(initial=-1) >= len(shapes):
                raise ValueError(f"scene {i} has class id {scene.gt.class_ids.max()}, "
                                 f"but the anchors cover classes 0..{len(shapes) - 1}")
        self.scenes, self.shapes = scenes, shapes
        self.grid = anchor_grid(shapes, scenes[0].image.shape[0])
        counts = np.repeat([len(scene.gt) for scene in scenes], 2)
        rows, ends = (len(counts), *self.grid.shape[:4]), np.cumsum(counts + 1)
        self.gt_index = np.zeros(rows, np.min_scalar_type(-1 - counts.max()))
        self.ao, self.filled = np.zeros(rows), np.zeros(len(counts), bool)
        self.first = ends - counts
        self.cluster_max, self.boxes = np.ones(ends[-1]), np.ones((ends[-1], 4))

    def batch(self, keys: list[tuple[int, bool]]) -> tuple[np.ndarray, Assignment]:
        """The variants `keys` (index, mirrored) on a leading scene axis, in list
        order: their `pixels` images and `Assignment`.  Each cell takes its
        object's table row, an unassigned cell its variant's dummy row."""
        rows = [scene_cache(self, key) for key in keys]
        images = pixels(np.stack([self.scenes[i].image[:, ::-1] if mirrored
                                  else self.scenes[i].image for i, mirrored in keys]))
        gt_index = self.gt_index[rows].astype(np.int64)
        ao = self.ao[rows]
        at = gt_index + self.first[rows].reshape(-1, 1, 1, 1, 1)
        return images, Assignment(gt_index, ao, ao / self.cluster_max.take(at),
                                  self.boxes.take(at, axis=0))


def lr_at(iteration: int, cfg: TrainConfig) -> float:
    """Polynomial decay from lr0 down to 0 at max_iter, by the power POLY_POWER."""
    return cfg.lr0 * (1.0 - iteration / cfg.max_iter) ** POLY_POWER


def sgd_step(params: np.ndarray, velocity: np.ndarray, grads: np.ndarray,
             lr: float) -> None:
    """v <- MOMENTUM * v + g;  p <- p - lr * v, in place on equal-length
    flat vectors.  `grads` is used up: it is left holding lr * v."""
    velocity *= MOMENTUM
    velocity += grads
    params -= np.multiply(velocity, lr, out=grads)


def scene_cache(bank: SceneBank, key: tuple[int, bool]) -> int:
    """The bank's row of variant `key` = (index, mirrored), filled with its
    assignment against the bank's grid on first use."""
    index, mirrored = key
    row = 2 * index + mirrored
    if not bank.filled[row]:
        scene = bank.scenes[index]
        a = assign_ao(bank.grid, (hflip(scene) if mirrored else scene).gt)
        tables = slice(bank.first[row] - 1, bank.first[row] + len(a.boxes) - 1)
        bank.gt_index[row], bank.ao[row], bank.filled[row] = a.gt_index, a.ao, True
        bank.cluster_max[tables], bank.boxes[tables] = a.cluster_max, a.boxes
    return row


def _gate_and_labels(a: Assignment, o_hat: np.ndarray, cfg: TrainConfig):
    """Loc-loss gate (float 0/1) and classification labels, shaped like the
    (stacked) assignment's maps: the raw overlap above AO_THRESHOLD under
    AO, else the normalized one above LOC_GATE.  Under the PONO and AO
    rules the labels are the gate; AMS also needs the predicted overlap."""
    mask = a.ao > AO_THRESHOLD if cfg.label_rule == "AO" else a.pono > LOC_GATE
    labels = ams_labels(a.pono, o_hat) if cfg.label_rule == "AMS" else mask.astype(np.uint8)
    return mask.astype(np.float64), labels


def train_iteration(state: RunState, keys: list[tuple[int, bool]], cfg: TrainConfig,
                    bank: SceneBank) -> LossReport:
    """One optimizer step over the batch of `bank` variants drawn as `keys`
    (index, mirrored), as one taped pass over the stacked batch.  The bank
    must be on the state's anchor shapes."""
    state.flat_grad.fill(0.0)
    images, assignment = bank.batch(keys)
    # every taped tensor points at the tape and the tape's records point
    # back at them; clearing the records, also after a raise, frees the
    # iteration's tensors without waiting for the cyclic collector and
    # leaves the next iteration an empty tape
    try:
        out = state.model.forward(state.leaves, images)
        o_hat = pred_iou_values(bank.grid, out.offsets, assignment)
        gate, labels = _gate_and_labels(assignment, np.asarray(ad.values_of(o_hat)), cfg)
        loc_map = loss_mod.loc_loss_map(gate, o_hat)
        if cfg.cls_loss == "CE":
            cls_map = loss_mod.bce_logits(labels.astype(np.float64), out.logits)
        else:
            cls_map = loss_mod.focal_logits(labels.astype(np.float64), out.logits)
        n_pos = int(gate.sum())
        per_grid_pos = labels.sum(axis=(0, 1, 2), dtype=np.int64)
        n_total = len(keys) * bank.grid.size // 4
        # only learned mode reads (and gives a gradient to) the `bw.*` leaves
        total, loc, cls, reg = loss_mod.weighted_totals(
            loc_map, cls_map, max(1, n_pos), n_total, cfg.mode, state.leaves)
        ad.backward(total)
    finally:
        state.tape.records.clear()
    # freeze rule: a grid with zero positive labels keeps both of its s
    # entries and their momentum through this iteration's step; outside
    # learned mode the loss gives no `bw.*` leaf a gradient
    frozen = per_grid_pos == 0
    held = [(a, a[frozen]) for key in ("bw.s_cls_grid", "bw.s_loc_grid")
            for a in (state.bw[key], state.momentum[key])]
    sgd_step(state.flat_params, state.flat_momentum, state.flat_grad,
             lr_at(state.iteration, cfg))
    for a, values in held:
        a[frozen] = values
    state.iteration += 1

    return LossReport(total=loc + cls + reg, loc=loc, cls=cls, reg=reg,
                      n_pos=n_pos, per_grid_pos=per_grid_pos)


def run_training(state: RunState, bank: SceneBank, cfg: TrainConfig,
                 run_dir=None) -> list[LossReport]:
    """Drive train_iteration from state.iteration up to cfg.max_iter.

    Each iteration draws its batch from the per-iteration RNG as keys (index,
    mirrored) of the bank's scenes, each mirrored with probability 0.5.  The
    bank's variants outlive the call; a bank on anchor shapes or an image size
    other than the state's raises ValueError before any file is touched.  With
    a `run_dir`, the run makes that directory and owns the names of the files
    it writes there: `log.csv`, a header and one row per iteration, and with
    `cfg.checkpoint_every` a `ckpt_NNNNNN.bin` at every multiple of it.  A run
    from iteration 0 clears (`data.clear`) the directory's checkpoints of an
    earlier run and starts `log.csv` afresh.  A resumed run removes no
    checkpoint; it rewrites `log.csv` (atomically) to the header and the
    complete rows below its iteration, then appends, so a resume writes the
    log a straight run would; a complete row that does not start with an
    iteration raises ValueError naming its line first.  The log is flushed
    before each checkpoint.  A non-finite loss raises FloatingPointError
    naming the iteration, before that iteration is logged or checkpointed.
    The conv2d work arrays the run's passes reuse live on the state's tape
    until the call returns.
    """
    if not np.array_equal(bank.shapes, state.shapes):
        raise ValueError("the scene bank is on other anchor shapes than the run")
    if bank.scenes[0].image.shape[0] != state.model.cfg.input_size:
        raise ValueError(f"the scene bank's images are {bank.scenes[0].image.shape[0]}px, "
                         f"but the run's network is for {state.model.cfg.input_size}px images")
    reports = []
    log = None
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
        path = os.path.join(run_dir, "log.csv")
        rows = []
        if state.iteration == 0:
            clear(run_dir, _CHECKPOINT)
        elif os.path.exists(path):
            with open(path) as f:
                for number, row in enumerate(f.readlines()[1:], 2):
                    head = row.split(",", 1)[0]
                    if row.endswith("\n") and not head.isdecimal():
                        raise ValueError(f"{path}:{number}: {head!r} is no iteration number")
                    if row.endswith("\n") and int(head) < state.iteration:
                        rows.append(row)
        with atomic_open(path) as f:
            f.write(LossReport.CSV_HEADER + "\n")
            f.writelines(rows)
        log = open(path, "a")
    try:
        while state.iteration < cfg.max_iter:
            it = state.iteration
            rng = np.random.default_rng([cfg.seed, 7, it])
            idx = rng.integers(0, len(bank.scenes), size=cfg.batch_size)
            keys = [(int(i), rng.random() < 0.5) for i in idx]
            lr = lr_at(it, cfg)
            report = train_iteration(state, keys, cfg, bank)
            if not np.isfinite(report.total):
                raise FloatingPointError(
                    f"non-finite loss {report.total!r} at iteration {it}")
            reports.append(report)
            if log:
                log.write(report.csv_row(it, lr) + "\n")
                if cfg.checkpoint_every and state.iteration % cfg.checkpoint_every == 0:
                    # the log on disk reaches every checkpoint
                    log.flush()
                    save_run(os.path.join(run_dir, f"ckpt_{state.iteration:06d}.bin"),
                             state)
    finally:
        state.tape.work.clear()
        if log:
            log.close()
    return reports


# ---------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------

def save_run(path, state: RunState) -> None:
    arrays: dict[str, np.ndarray] = {}
    for k, v in state.model.meta().items():
        arrays[f"meta.{k}"] = np.asarray(v)
    arrays["meta.iteration"] = np.asarray(float(state.iteration))
    arrays["meta.feat_stride"] = np.asarray(float(FEAT_STRIDE))
    arrays["anchors.shapes"] = state.shapes
    for name, arr in state.model.params.items():
        arrays[f"model.{name}"] = arr
    arrays.update(state.bw)
    for name, arr in state.momentum.items():
        arrays[f"mom.{name}"] = arr
    save_arrays(path, arrays)


def load_run(path) -> RunState:
    """Restore a `save_run` checkpoint of a ToyNet run; loading tiles no grid.
    One whose `meta.model_kind` is not 1.0, that lacks an entry the run needs,
    holds an entry the run does not know or of another shape than its `meta.*`
    entries imply, a `meta.*` entry that is not one finite whole number, a size
    below 1 or an anchor side that is not finite and positive, raises ValueError
    naming the path and the entry.  Every trained array's `mom.*` buffer is
    required too, since a resume would restart a missing one at zero."""
    arrays = load_arrays(path)

    def entry(key: str) -> np.ndarray:
        if key not in arrays:
            raise ValueError(f"{path}: checkpoint has no {key!r} entry")
        return arrays[key]

    def meta(key: str, least: int = 0) -> int:
        """A `meta.*` entry: one whole number of at least `least`."""
        value = entry(key)
        if value.shape != ():
            raise ValueError(f"{path}: entry {key!r} has shape {value.shape}, "
                             "but a meta entry holds one number")
        value = float(value)
        if not value.is_integer():
            raise ValueError(f"{path}: entry {key!r} is {value!r}, but must be "
                             "a whole number")
        if value < least:
            raise ValueError(f"{path}: entry {key!r} is {value!r}, but must be "
                             f"at least {least}")
        return int(value)

    kind = meta("meta.model_kind")
    if kind != 1:
        raise ValueError(f"{path}: entry 'meta.model_kind' is {float(kind)!r}, but a "
                         "ToyNet checkpoint has 1.0")
    nc, na = meta("meta.n_classes", 1), meta("meta.n_anchors", 1)
    if meta("meta.feat_stride") != FEAT_STRIDE:
        raise ValueError(f"{path}: feature stride is not {FEAT_STRIDE}")
    sizes = dict(input_size=meta("meta.input_size", 1),
                 base_channels=meta("meta.base_channels", 1),
                 levels=meta("meta.levels"),
                 head_convs=meta("meta.head_convs"))
    try:
        cfg = ToyNetConfig(**sizes)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None

    def checked(key: str, want: tuple) -> np.ndarray:
        arr = entry(key)
        if arr.shape != want:
            raise ValueError(f"{path}: entry {key!r} has shape {arr.shape}, "
                             f"but the meta entries imply {want}")
        return arr

    # an entry of the file bounds each array before it is built: the anchor
    # shapes bound nc * na, and the walk checks each kernel as it reaches it
    sides = checked("anchors.shapes", (nc, na, 2))
    if not np.all(np.isfinite(sides) & (sides > 0)):
        raise ValueError(f"{path}: entry 'anchors.shapes' holds a side that is "
                         "not finite and positive")
    model = ToyNet(cfg, nc, na, lambda name, shape, bias: (
        checked(f"model.{name}.w", shape), checked(f"model.{name}.b", shape[3:])))
    # every other entry must have the shape the meta entries imply; a
    # momentum buffer is keyed by the name the optimizer updates
    params = {name: p.shape for name, p in model.params.items()}
    bw = {name: v.shape for name, v in initial_balance(nc, na).items()}
    shapes = {"anchors.shapes": (nc, na, 2), **bw,
              **{f"model.{name}": s for name, s in params.items()},
              **{f"mom.{name}": s for name, s in {**params, **bw}.items()}}
    for key in [key for key in arrays if not key.startswith("meta.")]:
        if key not in shapes:
            raise ValueError(f"{path}: checkpoint has an unknown entry {key!r}")
        checked(key, shapes[key])
    # construction copies every array into the state's flat vectors
    return RunState(model=model, shapes=sides,
                    bw={name: entry(name) for name in bw},
                    iteration=meta("meta.iteration"),
                    momentum={name: entry(f"mom.{name}") for name in [*params, *bw]})
