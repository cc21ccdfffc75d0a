"""Localization / classification losses and the learned balance weights.

The localization term penalizes the squared shortfall of the predicted-box
overlap on well-covered cells; classification is per-cell binary cross
entropy (focal variant available for the ablation).  The maps' per-grid
sums are weighted by trainable multipliers, one pair globally and one pair
per (class, anchor) grid, parameterized as lambda = exp(-s) so they stay
positive.  A regularizer of the s values keeps the multipliers from
collapsing to zero; sums, weights and regularizer make one tape record,
the total.  A grid that saw no positive label in an iteration keeps its
s entries and their momentum through that iteration's step (the training
loop holds them), so easy all-negative grids cannot inflate their own
weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import csv_line

MODES = ("learned", "unit", "retina_norm")

# Gate for the localization loss and for counting positive anchors: a cell
# participates once its normalized overlap exceeds this.
LOC_GATE = 0.5

# the focal loss's class weight and focusing exponent, as Lin et al. set them
FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0


def initial_balance(n_classes: int, n_anchors: int) -> dict[str, np.ndarray]:
    """The trainable balance parameters s, lambda = exp(-s) for every entry,
    each entry starting at s = 1: the global `bw.s_cls` and `bw.s_loc`
    (0-d), then the per-grid `bw.s_cls_grid` and `bw.s_loc_grid`
    [n_classes, n_anchors].  The keys are the checkpoint's entry names, and
    every mode steps the arrays in place with the model parameters, in this
    order; only `learned` mode gives them a gradient."""
    grid = (n_classes, n_anchors)
    return {"bw.s_cls": np.ones(()), "bw.s_loc": np.ones(()),
            "bw.s_cls_grid": np.ones(grid), "bw.s_loc_grid": np.ones(grid)}


@dataclass
class LossReport:
    """One iteration's losses: the weighted total and its three terms, the
    positive count and the positive labels per (class, anchor) grid.  A
    run keeps its reports as the rows of a `LossLog`, which makes one of
    these only when an item is read."""

    total: float
    loc: float
    cls: float
    reg: float
    n_pos: int
    per_grid_pos: np.ndarray

    CSV_HEADER = "iteration,total,loc,cls,reg,n_pos,lr"

    def csv_row(self, iteration: int, lr: float) -> str:
        return csv_line((iteration, self.total, self.loc, self.cls, self.reg, self.n_pos, lr))


def _column(name: str) -> property:
    return property(lambda self: self._rows[name][:self._len],
                    doc=f"`{name}` of every row, a view into the log")


class LossLog:
    """A run's `LossReport`s as run-long arrays, one row per iteration:
    float64 `total`, `loc`, `cls` and `reg`, int64 `n_pos` and
    `per_grid_pos` [iterations, n_classes, n_anchors].  It reads as a list
    of reports: `len`, iteration, and int or negative indexing give a
    `LossReport` built from its row, and a slice gives a `LossLog` of the
    rows.  `append` grows the rows geometrically from none, and a pickle
    holds the used rows only."""

    __slots__ = ("_rows", "_len")

    total, loc, cls, reg, n_pos, per_grid_pos = map(_column, (
        "total", "loc", "cls", "reg", "n_pos", "per_grid_pos"))

    def __init__(self, grid: tuple[int, int]):
        self._rows = np.empty(0, [("total", np.float64), ("loc", np.float64),
                                  ("cls", np.float64), ("reg", np.float64),
                                  ("n_pos", np.int64), ("per_grid_pos", np.int64, grid)])
        self._len = 0

    def append(self, report: LossReport) -> None:
        if self._len == len(self._rows):
            grown = np.empty(max(16, 2 * self._len), self._rows.dtype)
            grown[:self._len] = self._rows
            self._rows = grown
        self._rows[self._len] = (report.total, report.loc, report.cls, report.reg,
                                 report.n_pos, report.per_grid_pos)
        self._len += 1

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        rows = self._rows[:self._len]
        if isinstance(index, slice):
            log = LossLog.__new__(LossLog)
            log.__setstate__(rows[index].copy())
            return log
        row = rows[index]
        return LossReport(float(row["total"]), float(row["loc"]), float(row["cls"]),
                          float(row["reg"]), int(row["n_pos"]), row["per_grid_pos"].copy())

    def __iter__(self):
        return map(self.__getitem__, range(self._len))

    def __getstate__(self) -> np.ndarray:
        return self._rows[:self._len]

    def __setstate__(self, rows: np.ndarray) -> None:
        self._rows, self._len = rows, len(rows)


# ---------------------------------------------------------------------
# elementwise losses: each takes a taped input and appends one tape
# record whose vjp is written out
# ---------------------------------------------------------------------

def loc_loss_map(gate, o_hat):
    """Gated squared-shortfall map of the taped overlaps `o_hat`.

    `gate` is the 0/1 array of cells whose normalized overlap beats the
    threshold; it carries no gradient.
    """
    shortfall = 1.0 - ad.values_of(o_hat)
    out = gate * shortfall ** 2.0
    return ad.record(out, [(o_hat, lambda g: -(g * gate * 2.0 * shortfall))])


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) without overflow: exp only ever sees -|z|."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _bce(p, z):
    """`bce_logits` on arrays."""
    mag = np.maximum(z, -z)
    return np.maximum(z, 0.0) - z * p + np.log1p(np.exp(-mag))


def _bce_slope(p, z):
    """d bce / dz = sigmoid(z) - p, in a form that does not cancel:
    (1 - p) - s for z >= 0 and s - p below, with s = sigmoid(-|z|)."""
    e = np.exp(-np.abs(z))
    s = e / (1.0 + e)
    return np.where(z >= 0, (1.0 - p) - s, s - p)


def bce_logits(p, z):
    """Binary cross entropy from the taped logits `z`, in the
    saturation-safe form max(z, 0) - z*p + log(1 + exp(-|z|)).  The vjp is
    sigmoid(z) - p."""
    zv = ad.values_of(z)
    return ad.record(_bce(p, zv), [(z, lambda g: g * _bce_slope(p, zv))])


def focal_logits(p, z):
    """Focal loss from the taped logits `z` for hard labels p in {0, 1}:
    alpha_t (1 - p_t)^gamma times the cross entropy, with alpha =
    FOCAL_ALPHA and gamma = FOCAL_GAMMA (Lin et al., ICCV 2017)."""
    zv = ad.values_of(z)
    sign = 2.0 * p - 1.0
    one_minus_pt = sigmoid(-sign * zv)
    alpha_t = FOCAL_ALPHA * p + (1.0 - FOCAL_ALPHA) * (1.0 - p)
    weight = alpha_t * one_minus_pt ** FOCAL_GAMMA
    ce = _bce(p, zv)

    def vjp(g):
        # the modulating factor through sigmoid(-sign * z), then the
        # cross entropy; for hard labels the two terms share a sign
        d_weight = alpha_t * FOCAL_GAMMA * one_minus_pt ** (FOCAL_GAMMA - 1.0) \
            * (one_minus_pt * (1.0 - one_minus_pt)) * -sign
        return g * (d_weight * ce + weight * _bce_slope(p, zv))

    return ad.record(weight * ce, [(z, vjp)])


# ---------------------------------------------------------------------
# weighted totals
# ---------------------------------------------------------------------

def weighted_totals(loc_map, cls_map, n_pos: float, n_total: float,
                    mode: str, bw):
    """The balanced loss of the loss maps [..., n_classes, n_anchors]:
    each map is summed per grid over its leading axes into `sums`, and its
    term is lam * sum(lam_grid * sums) / norm, normalized by `n_pos` for
    localization and by `n_total` for classification.  Returns (total,
    loc, cls, reg): the total is one tape record, so a map or an s value
    must be taped, and the three terms are floats.  `bw` maps the
    `initial_balance` keys to the s values and is read in `learned` mode
    only.

    learned      -- lam = exp(-s) and lam_grid = exp(-s_grid) for each
                    term, plus the regularizer
                    s_cls + s_loc + mean(s_cls_grid + s_loc_grid).
    unit         -- all multipliers 1, no regularizer.
    retina_norm  -- multipliers 1 except the classification lam pinned
                    at n_total / n_pos, no regularizer.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    learned = mode == "learned"

    def term(loss_map, norm, lam, key):
        """The term's value, its map's pull and, in learned mode, the pulls
        to the s values under `key` and `key`_grid."""
        values = ad.values_of(loss_map)
        sums = values.sum(axis=tuple(range(values.ndim - 2)))
        lam_grid, s_pulls = np.ones(sums.shape), []
        if learned:
            s, s_grid = bw[key], bw[key + "_grid"]
            lam, lam_grid = np.exp(-ad.values_of(s)), np.exp(-ad.values_of(s_grid))
            s_pulls = [(s, lambda g: -(g * inner * lam)),
                       (s_grid, lambda g: -(g * lam / norm * sums * lam_grid))]
        inner = (lam_grid * sums).sum() / norm
        map_pull = (loss_map, lambda g: np.broadcast_to(g * lam / norm * lam_grid,
                                                        values.shape))
        return lam * inner, map_pull, s_pulls

    loc, loc_pull, loc_s = term(loc_map, n_pos, 1.0, "bw.s_loc")
    cls, cls_pull, cls_s = term(cls_map, n_total,
                                n_total / n_pos if mode == "retina_norm" else 1.0, "bw.s_cls")
    reg, reg_pulls = 0.0, []
    if learned:
        s_cls, s_loc, cls_grid, loc_grid = (bw[key] for key in (
            "bw.s_cls", "bw.s_loc", "bw.s_cls_grid", "bw.s_loc_grid"))
        grid = ad.values_of(cls_grid) + ad.values_of(loc_grid)
        reg = ad.values_of(s_cls) + ad.values_of(s_loc) + grid.mean()

        def d_grid(g):
            return np.full(grid.shape, g / grid.size)

        reg_pulls = [(s_cls, lambda g: g), (s_loc, lambda g: g), (cls_grid, d_grid),
                     (loc_grid, d_grid)]
    # each s leaf takes its regularizer pull first, then its term's
    total = ad.record((loc + cls) + reg, [loc_pull, cls_pull, *reg_pulls, *cls_s, *loc_s])
    return total, float(loc), float(cls), float(reg)
