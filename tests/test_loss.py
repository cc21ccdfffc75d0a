import math

import numpy as np
import pytest

from ponodet import autodiff as ad
from ponodet import train as train_mod
from ponodet.assignment import (UNASSIGNED, Assignment, GroundTruth, assign_ao,
                                pred_iou_values)
from ponodet.data import Scene
from ponodet.geometry import EXP_CLAMP
from ponodet.loss import (LOC_GATE, MODES, bce_logits, focal_logits, initial_balance,
                          loc_loss_map, weighted_totals)
from ponodet.train import (CLS_LOSSES, LABEL_RULES, RunState, SceneBank, TrainConfig,
                           train_iteration)

from test_anchors import build_grid
from test_assignment import stack_records
from test_autodiff import (add, clip, div, exp, grad_check, log1p, maximum, mean,
                           minimum, mul, neg, power, reduce_sum, sigmoid, sub, take,
                           zero_leaf)
from test_geometry import decode_cxywh
from test_model import TabularPredictor


# ---------------------------------------------------------------------
# scalar reference forms of the loss maps
# ---------------------------------------------------------------------

def loc_loss_elem(o: float, o_hat: float) -> float:
    """Squared overlap shortfall (1 - o_hat)^2, active only where o > 0.5."""
    return (1.0 - o_hat) ** 2 if o > LOC_GATE else 0.0


def cls_loss_elem(p: int, p_hat: float) -> float:
    """Binary cross entropy for a probability in (0, 1)."""
    return -p * math.log(p_hat) - (1 - p) * math.log1p(-p_hat)


def focal_loss_elem(p: int, p_hat: float, alpha: float = 0.25,
                    gamma: float = 2.0) -> float:
    """Focal modulation of the cross entropy (ablation only)."""
    p_t = p_hat if p == 1 else 1.0 - p_hat
    alpha_t = alpha if p == 1 else 1.0 - alpha
    return alpha_t * (1.0 - p_t) ** gamma * (-math.log(p_t))


def on_leaf(fn, *args):
    """The forward values of a loss map `fn` with its last argument (the
    overlaps or the logits) a leaf on a fresh tape."""
    *rest, x = args
    return fn(*rest, zero_leaf(np.asarray(x, np.float64), ad.Tape())).values


def totals_on_leaves(loc_map, cls_map, n_pos, n_total, mode, bw=None):
    """`weighted_totals` with the two maps (or sums) leaves on a fresh
    tape: the total's value as a float, then the three terms."""
    tape = ad.Tape()
    total, *terms = weighted_totals(zero_leaf(loc_map, tape), zero_leaf(cls_map, tape),
                                    n_pos, n_total, mode, bw)
    return (float(total.values), *terms)


class TestLocLossElem:
    def test_perfect_fit(self):
        assert loc_loss_elem(1.0, 1.0) == 0.0

    def test_gate_inactive(self):
        assert loc_loss_elem(0.4, 0.0) == 0.0
        assert loc_loss_elem(0.5, 0.0) == 0.0  # strict threshold

    def test_quadratic(self):
        assert loc_loss_elem(1.0, 0.5) == pytest.approx(0.25)

    def test_gradient_on_active_branch(self):
        def f(oh):
            return reduce_sum(loc_loss_map(np.array(1.0), oh))
        assert grad_check(f, [np.array([0.3, 0.8])]) < 1e-7


class TestClsLossElem:
    def test_half(self):
        assert cls_loss_elem(1, 0.5) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_confident_negative(self):
        assert cls_loss_elem(0, 1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_quarter(self):
        assert cls_loss_elem(1, 0.25) == pytest.approx(math.log(4.0), rel=1e-12)

    def test_logit_form_matches_probability_form(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.normal(0, 3)
            p = rng.integers(0, 2)
            p_hat = 1.0 / (1.0 + math.exp(-z))
            assert float(on_leaf(bce_logits, float(p), z)) == \
                pytest.approx(cls_loss_elem(p, p_hat), rel=1e-9)

    def test_logit_form_saturation_safe(self):
        v = on_leaf(bce_logits, np.array([1.0, 0.0]), np.array([-500.0, 500.0]))
        assert np.all(np.isfinite(v))
        assert v[0] == pytest.approx(500.0)


class TestFocalLossElem:
    def test_vanishes_for_confident_positive(self):
        assert focal_loss_elem(1, 1 - 1e-9) == pytest.approx(0.0, abs=1e-12)

    def test_direct_value(self):
        # 0.25 * (0.5)^2 * ln 2
        assert focal_loss_elem(1, 0.5) == pytest.approx(0.25 * 0.25 * math.log(2.0))

    def test_gamma_zero_reduces_to_scaled_ce(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p_hat = rng.uniform(0.05, 0.95)
            p = int(rng.integers(0, 2))
            assert focal_loss_elem(p, p_hat, alpha=0.5, gamma=0.0) == \
                pytest.approx(0.5 * cls_loss_elem(p, p_hat), rel=1e-12)

    def test_logit_form_matches(self):
        rng = np.random.default_rng(2)
        z = rng.normal(0, 2, size=8)
        p = rng.integers(0, 2, size=8).astype(float)
        got = on_leaf(focal_logits, p, z)
        want = [focal_loss_elem(int(pi), 1 / (1 + math.exp(-zi)))
                for pi, zi in zip(p, z)]
        np.testing.assert_allclose(got, want, rtol=1e-9)


class TestBalancedTotals:
    """`weighted_totals` on per-grid loss sums [n_classes, n_anchors], and
    on the loss maps [N, h, w, n_classes, n_anchors] `train_iteration`
    passes."""

    def test_unit_zero_maps(self):
        z = np.zeros((1, 1))
        assert totals_on_leaves(z, z, 1, 4, "unit") == (0.0, 0.0, 0.0, 0.0)

    def test_learned_identity_weights(self):
        rng = np.random.default_rng(3)
        loc_sums, cls_sums = rng.uniform(0, 4, (2, 3)), rng.uniform(0, 8, (2, 3))
        bw = {name: np.zeros(np.shape(v)) for name, v in initial_balance(2, 3).items()}
        total, loc, cls, reg = totals_on_leaves(loc_sums, cls_sums, 5, 96, "learned", bw)
        assert loc == pytest.approx(loc_sums.sum() / 5, rel=1e-12)
        assert cls == pytest.approx(cls_sums.sum() / 96, rel=1e-12)
        assert reg == 0.0
        assert total == (loc + cls) + reg

    def test_maps_are_summed_per_grid(self):
        # a map with leading axes gives the terms of its per-grid sums
        rng = np.random.default_rng(4)
        loc_map, cls_map = rng.uniform(0, 1, (2, 3, 3, 2, 3)), rng.uniform(0, 1, (2, 3, 3, 2, 3))
        bw = {name: rng.normal(0.0, 0.5, np.shape(v))
              for name, v in initial_balance(2, 3).items()}
        for mode in MODES:
            assert totals_on_leaves(loc_map, cls_map, 5, 96, mode, bw) == totals_on_leaves(
                loc_map.sum(axis=(0, 1, 2)), cls_map.sum(axis=(0, 1, 2)), 5, 96, mode, bw)

    def test_retina_vs_unit_cls_ratio(self):
        # all-negative map at p_hat = 0.5: unit-mode classification loss is
        # exactly ln 2 and trails the positive-normalized form by n_pos/N
        h = w = 4
        cls_sums = np.full((h, w, 2, 2), math.log(2.0)).sum(axis=(0, 1))
        n, n_pos = h * w * 2 * 2, 2
        _, _, unit, _ = totals_on_leaves(cls_sums, cls_sums, n_pos, n, "unit")
        _, _, retina, _ = totals_on_leaves(cls_sums, cls_sums, n_pos, n, "retina_norm")
        assert unit == pytest.approx(math.log(2.0), rel=1e-12)
        assert unit / retina == pytest.approx(n_pos / n, rel=1e-12)

    def test_npos_floor(self):
        # no object, so no gated cell: the loc normalizer is floored at 1
        scene = Scene(np.zeros((16, 16, 3), np.uint8), GroundTruth([], []))
        state = RunState(model=TabularPredictor(2, 2, 1, 1),
                         shapes=np.full((1, 1, 2), 8.0),
                         bw=initial_balance(1, 1))
        rep = train_iteration(state, [(0, False)], TrainConfig(max_iter=2, mode="unit"),
                              SceneBank([scene], state.shapes))
        assert rep.loc == 0.0 and np.isfinite(rep.total)
        assert rep.n_pos == 0

    def test_unknown_mode(self):
        z = np.zeros((1, 1))
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            weighted_totals(z, z, 1, 4, "bogus", None)


class TestBalanceWeights:
    def test_lambda_positive_for_any_finite_s(self):
        # positivity is structural: every exp(-s) multiplier stays positive
        # for any finite s, so positive loss sums give positive terms
        sums = np.ones((2, 2))
        for value in (-40.0, 40.0):
            bw = {name: np.full(np.shape(v), value)
                  for name, v in initial_balance(2, 2).items()}
            _, loc, cls, _ = totals_on_leaves(sums, sums, 1, 4, "learned", bw)
            assert loc > 0 and cls > 0

    def test_initial_keys_shapes_and_order(self):
        # the keys are the checkpoint entry names, in optimizer order
        bw = initial_balance(2, 3)
        assert list(bw) == ["bw.s_cls", "bw.s_loc", "bw.s_cls_grid", "bw.s_loc_grid"]
        assert [v.shape for v in bw.values()] == [(), (), (2, 3), (2, 3)]
        assert all(v.dtype == np.float64 and np.all(v == 1.0) for v in bw.values())


class TestSelfBalancingFixedPoint:
    @pytest.mark.parametrize("L", [0.5, 2.0, 10.0])
    def test_gradient_descent_converges_to_log_loss(self, L):
        # single learned weight with constant aggregated loss L: the
        # stationary point of e^{-s} L + s sits at s* = ln L
        s, v = 1.0, 0.0
        for _ in range(4000):
            g = 1.0 - math.exp(-s) * L
            v = 0.9 * v + g
            s -= 0.01 * v
        assert s == pytest.approx(math.log(L), abs=1e-3)


# ---------------------------------------------------------------------
# the elementwise head the fused records replaced, composed from the
# elementwise ops: the oracle for the written-out vjps
# ---------------------------------------------------------------------

def elementwise_decode(acx, acy, aw, ah, dx, dy, dw, dh):
    """The `decode_cxywh` oracle, one op per step."""
    cx = add(acx, mul(dx, aw))
    cy = add(acy, mul(dy, ah))
    w = mul(aw, exp(clip(dw, -EXP_CLAMP, EXP_CLAMP)))
    h = mul(ah, exp(clip(dh, -EXP_CLAMP, EXP_CLAMP)))
    return cx, cy, w, h


def elementwise_iou(acx, acy, aw, ah, bcx, bcy, bw, bh):
    """The `iou_cxywh` oracle, one op per step: differentiable through the
    min/max subgradients."""
    ix = sub(minimum(add(acx, mul(aw, 0.5)), add(bcx, mul(bw, 0.5))),
             maximum(sub(acx, mul(aw, 0.5)), sub(bcx, mul(bw, 0.5))))
    iy = sub(minimum(add(acy, mul(ah, 0.5)), add(bcy, mul(bh, 0.5))),
             maximum(sub(acy, mul(ah, 0.5)), sub(bcy, mul(bh, 0.5))))
    inter = mul(maximum(ix, 0.0), maximum(iy, 0.0))
    union = sub(add(mul(aw, ah), mul(bw, bh)), inter)
    return div(inter, union)


def elementwise_pred_iou(grid, offsets, assignment):
    cx, cy, w, h = elementwise_decode(
        *np.moveaxis(grid, -1, 0), *(take(offsets, (..., k)) for k in range(4)))
    g = assignment.gt_box
    return mul(elementwise_iou(cx, cy, w, h, g[..., 0], g[..., 1], g[..., 2], g[..., 3]),
               assignment.gt_index != UNASSIGNED)


def elementwise_loc_loss_map(gate, o_hat):
    return mul(gate, power(sub(1.0, o_hat), 2.0))


def elementwise_bce(p, z):
    mag = maximum(z, neg(z))
    return add(sub(maximum(z, 0.0), mul(z, p)), log1p(exp(neg(mag))))


def elementwise_focal(p, z, alpha=0.25, gamma=2.0):
    sign = 2.0 * p - 1.0
    one_minus_pt = sigmoid(mul(-sign, z))
    alpha_t = alpha * p + (1.0 - alpha) * (1.0 - p)
    return mul(mul(alpha_t, power(one_minus_pt, gamma)), elementwise_bce(p, z))


def elementwise_totals(loc_map, cls_map, n_pos, n_total, mode, bw=None):
    lead = tuple(range(np.ndim(ad.values_of(loc_map)) - 2))
    loc_sums, cls_sums = reduce_sum(loc_map, lead), reduce_sum(cls_map, lead)
    if mode == "learned":
        loc = mul(exp(neg(bw["bw.s_loc"])),
                  div(reduce_sum(mul(exp(neg(bw["bw.s_loc_grid"])), loc_sums)), n_pos))
        cls = mul(exp(neg(bw["bw.s_cls"])),
                  div(reduce_sum(mul(exp(neg(bw["bw.s_cls_grid"])), cls_sums)), n_total))
        reg = add(add(bw["bw.s_cls"], bw["bw.s_loc"]),
                  mean(add(bw["bw.s_cls_grid"], bw["bw.s_loc_grid"])))
    elif mode == "unit":
        loc, cls = div(reduce_sum(loc_sums), n_pos), div(reduce_sum(cls_sums), n_total)
        reg = 0.0
    else:
        loc = div(reduce_sum(loc_sums), n_pos)
        cls = mul(n_total / n_pos, div(reduce_sum(cls_sums), n_total))
        reg = 0.0
    return (add(add(loc, cls), reg),
            *(float(ad.values_of(t)) for t in (loc, cls, reg)))


# ---------------------------------------------------------------------
# the glue the single record of `weighted_totals` replaced: per-grid sum
# records, one record per weighted term and one for the regularizer, and
# two adds; the oracle the single record matches bit for bit
# ---------------------------------------------------------------------

def _term(sums, norm: float, s=None, s_grid=None, scale: float = 1.0):
    """One loss term, lam * (sum(lam_grid * sums) / norm), with
    lam = exp(-s) and lam_grid = exp(-s_grid) when `s` is given, else
    lam = `scale` and lam_grid = 1; one record if any input is a Tensor."""
    sums_v = ad.values_of(sums)
    lam = scale if s is None else np.exp(-ad.values_of(s))
    lam_grid = None if s is None else np.exp(-ad.values_of(s_grid))
    inner = (sums_v if lam_grid is None else lam_grid * sums_v).sum() / norm
    out = lam * inner
    if not any(isinstance(x, ad.Tensor) for x in (sums, s, s_grid)):
        return out

    def d_sums(g):
        d = g * lam / norm
        return np.full(sums_v.shape, d) if lam_grid is None else d * lam_grid

    pulls = [(sums, d_sums)]
    if s is not None:
        pulls += [(s, lambda g: -(g * inner * lam)),
                  (s_grid, lambda g: -(g * lam / norm * sums_v * lam_grid))]
    return ad.record(out, pulls)


def _regularizer(bw):
    """s_cls + s_loc + mean(s_cls_grid + s_loc_grid), one record if the
    weights are Tensors."""
    s_cls, s_loc, cls_grid, loc_grid = (bw[key] for key in (
        "bw.s_cls", "bw.s_loc", "bw.s_cls_grid", "bw.s_loc_grid"))
    grid = ad.values_of(cls_grid) + ad.values_of(loc_grid)
    out = ad.values_of(s_cls) + ad.values_of(s_loc) + grid.mean()
    if not isinstance(s_cls, ad.Tensor):
        return out

    def d_grid(g):
        return np.full(grid.shape, g / grid.size)

    return ad.record(out, [(s_cls, lambda g: g), (s_loc, lambda g: g),
                           (cls_grid, d_grid), (loc_grid, d_grid)])


def separate_records_totals(loc_map, cls_map, n_pos, n_total, mode, bw=None):
    lead = tuple(range(np.ndim(ad.values_of(loc_map)) - 2))
    loc_sums, cls_sums = reduce_sum(loc_map, lead), reduce_sum(cls_map, lead)
    if mode == "learned":
        loc = _term(loc_sums, n_pos, bw["bw.s_loc"], bw["bw.s_loc_grid"])
        cls = _term(cls_sums, n_total, bw["bw.s_cls"], bw["bw.s_cls_grid"])
        reg = _regularizer(bw)
    elif mode == "unit":
        loc, cls, reg = _term(loc_sums, n_pos), _term(cls_sums, n_total), 0.0
    else:
        loc = _term(loc_sums, n_pos)
        cls = _term(cls_sums, n_total, scale=n_total / n_pos)
        reg = 0.0
    return (add(add(loc, cls), reg),
            *(float(ad.values_of(t)) for t in (loc, cls, reg)))


FUSED = (pred_iou_values, loc_loss_map, bce_logits, focal_logits, weighted_totals)
ELEMENTWISE = (elementwise_pred_iou, elementwise_loc_loss_map, elementwise_bce,
               elementwise_focal, elementwise_totals)
SEPARATE_RECORDS = FUSED[:-1] + (separate_records_totals,)


def head(fns, grid, assignment, cfg, logits, offsets, s_values):
    """One iteration's head as `train_iteration` runs it, on leaves for the
    logits, the offsets and the balance weights: the total, the loss terms,
    every leaf's gradient and the positive count."""
    pred_iou, loc_map_fn, bce, focal, totals = fns
    tape = ad.Tape()
    z, off = zero_leaf(logits.copy(), tape), zero_leaf(offsets.copy(), tape)
    bw = {name: zero_leaf(v.copy(), tape) for name, v in s_values.items()}
    o_hat = pred_iou(grid, off, assignment)
    gate, labels = train_mod._gate_and_labels(assignment, ad.values_of(o_hat), cfg)
    loc_map = loc_map_fn(gate, o_hat)
    cls_map = (bce if cfg.cls_loss == "CE" else focal)(labels.astype(np.float64), z)
    total, *terms = totals(loc_map, cls_map, max(1, int(gate.sum())), gate.size,
                           cfg.mode, bw)
    ad.backward(total)
    grads = {"logits": z.grad, "offsets": off.grad,
             **{name: t.grad for name, t in bw.items()}}
    return total.values, tuple(terms), grads, int(gate.sum())


def assert_same_grads(grads, want, err_msg=""):
    """Equal gradient dicts, bit for bit; a leaf without a gradient in one
    has none in the other."""
    assert grads.keys() == want.keys()
    for name, g in want.items():
        assert (grads[name] is None) == (g is None), name
        if g is not None:
            np.testing.assert_array_equal(grads[name], g, err_msg=err_msg + name)


def assert_totals_match_separate_records(loc_map, cls_map, n_pos, n_total, mode,
                                         s_values):
    """`weighted_totals` on leaves for the two maps (or sums) and the
    balance weights gives the separate records' total, terms and every
    leaf gradient, bit for bit.  The backward pass starts from 0.3 times
    the total, and on weights that hold a gradient already, so that the
    order of each product and of each leaf's sum shows in the bits."""
    results = []
    for totals in (weighted_totals, separate_records_totals):
        tape = ad.Tape()
        leaves = {"loc": zero_leaf(loc_map.copy(), tape),
                  "cls": zero_leaf(cls_map.copy(), tape)}
        bw = {name: zero_leaf(v.copy(), tape) for name, v in s_values.items()}
        for t in bw.values():
            t.grad = np.full(t.shape, 0.1)
        total, *terms = totals(leaves["loc"], leaves["cls"], n_pos, n_total, mode, bw)
        ad.backward(mul(total, 0.3))
        results.append((total.values, terms,
                        {name: t.grad for name, t in {**leaves, **bw}.items()}))
    (total, terms, grads), (want_total, want_terms, want) = results
    np.testing.assert_array_equal(total, want_total)
    assert terms == want_terms
    assert_same_grads(grads, want, f"{loc_map.shape} ")


def assert_head_matches_oracle(grid, assignment, cfg, logits, offsets, s_values):
    """The fused head gives the elementwise head's loss terms bit for bit,
    and its gradients to 1e-12 of each array's largest entry.  Its single
    `weighted_totals` record gives the separate records' total, terms and
    gradients bit for bit, on the maps [N, h, w, nc, na] of the head and
    on their per-grid sums [nc, na]."""
    args = (grid, assignment, cfg, logits, offsets, s_values)
    total, terms, grads, n_pos = head(FUSED, *args)
    _, want_terms, want, _ = head(ELEMENTWISE, *args)
    assert terms == want_terms
    assert grads.keys() == want.keys()
    for name, g in want.items():
        if g is None:  # balance weights outside learned mode
            assert grads[name] is None and cfg.mode != "learned"
            continue
        np.testing.assert_allclose(grads[name], g, rtol=1e-12,
                                   atol=1e-12 * np.abs(g).max(), err_msg=name)

    want_total, want_terms, want, _ = head(SEPARATE_RECORDS, *args)
    np.testing.assert_array_equal(total, want_total)
    assert terms == want_terms
    assert_same_grads(grads, want)
    o_hat = pred_iou_values(grid, offsets, assignment)
    gate, labels = train_mod._gate_and_labels(assignment, o_hat, cfg)
    # the elementwise oracle's maps on arrays are the fused head's, bit for bit
    cls_fn = elementwise_bce if cfg.cls_loss == "CE" else elementwise_focal
    maps = elementwise_loc_loss_map(gate, o_hat), cls_fn(labels.astype(np.float64), logits)
    for loc, cls in (maps, [m.sum(axis=(0, 1, 2)) for m in maps]):
        assert_totals_match_separate_records(loc, cls, max(1, n_pos), gate.size,
                                             cfg.mode, s_values)
    return n_pos


def random_head_instance(rng):
    """Two stacked scenes on a 4x4 grid of 2 classes x 2 anchors, with
    offsets near zero, so that decoded boxes overlap their objects."""
    shapes = rng.uniform(6.0, 20.0, (2, 2, 2))
    grid = build_grid(shapes, 4, 4, 8)
    records = []
    for _ in range(2):
        k = int(rng.integers(1, 4))
        gt = GroundTruth([(*rng.uniform(4, 28, 2), *rng.uniform(5, 16, 2))
                          for _ in range(k)], rng.integers(0, 2, k))
        records.append(assign_ao(grid, gt))
    assignment = stack_records(records)
    offsets = rng.uniform(-0.3, 0.3, assignment.gt_box.shape)
    logits = rng.normal(0.0, 3.0, assignment.gt_index.shape)
    s_values = {name: rng.normal(0.0, 0.5, np.shape(v))
                for name, v in initial_balance(2, 2).items()}
    return grid, assignment, logits, offsets, s_values


CELLS = [(rule, loss, mode) for rule in LABEL_RULES for loss in CLS_LOSSES
         for mode in MODES]


class TestFusedHead:
    def test_array_path_matches_elementwise_head(self):
        # `pred_iou_values` takes the same forward on arrays, untaped, and
        # the loss maps' taped forward values are the oracle's, bit for bit
        rng = np.random.default_rng(13)
        for _ in range(4):
            grid, assignment, logits, offsets, _ = random_head_instance(rng)
            o_hat = pred_iou_values(grid, offsets, assignment)
            assert type(o_hat) is np.ndarray
            np.testing.assert_array_equal(
                o_hat, elementwise_pred_iou(grid, offsets, assignment))
            gate = (assignment.pono > LOC_GATE).astype(np.float64)
            np.testing.assert_array_equal(on_leaf(loc_loss_map, gate, o_hat),
                                          elementwise_loc_loss_map(gate, o_hat))
            p = (o_hat > 0.5).astype(np.float64)
            np.testing.assert_array_equal(on_leaf(bce_logits, p, logits),
                                          elementwise_bce(p, logits))
            np.testing.assert_array_equal(on_leaf(focal_logits, p, logits),
                                          elementwise_focal(p, logits))

    @pytest.mark.parametrize("fn,args", [
        (loc_loss_map, (np.ones(3), np.full(3, 0.5))),
        (bce_logits, (np.array([0.0, 1.0, 1.0]), np.zeros(3))),
        (focal_logits, (np.array([0.0, 1.0, 1.0]), np.zeros(3))),
        (weighted_totals, (np.ones((2, 2)), np.ones((2, 2)), 1, 4, "learned",
                           initial_balance(2, 2)))],
        ids=["loc_loss_map", "bce_logits", "focal_logits", "weighted_totals"])
    def test_untaped_input_rejected(self, fn, args):
        # the head has one path: every function appends its tape record
        with pytest.raises(ValueError, match="no operand is a Tensor"):
            fn(*args)

    @pytest.mark.parametrize("rule,cls_loss,mode", CELLS)
    def test_matches_elementwise_head(self, rule, cls_loss, mode):
        rng = np.random.default_rng(sum(map(ord, rule + cls_loss + mode)))
        cfg = TrainConfig(label_rule=rule, cls_loss=cls_loss, mode=mode)
        positives = 0
        for _ in range(4):
            grid, assignment, logits, offsets, s_values = random_head_instance(rng)
            positives += assert_head_matches_oracle(grid, assignment, cfg, logits,
                                                    offsets, s_values)
        assert positives > 0

    @pytest.mark.parametrize("rule,cls_loss,mode", CELLS)
    def test_matches_at_kinks(self, rule, cls_loss, mode):
        # one cell of four 8x8 anchors spanning [0, 8] x [0, 8], each
        # assigned its own object: coincident right edges (x) and both
        # y edges, coincident left edges, boxes that only touch (ix = 0),
        # and dw / dh exactly at the clamp; two logits are exactly 0
        grid = build_grid(np.full((1, 4, 2), 8.0), 1, 1, 8)
        gt_box = np.array([[5.0, 4.0, 6.0, 8.0], [3.0, 3.0, 6.0, 6.0],
                           [12.0, 4.0, 8.0, 8.0], [4.0, 4.0, 8.0, 8.0]])
        shape = (1, 1, 1, 1, 4)
        assignment = Assignment(np.zeros(shape, np.int64), np.ones(shape),
                                np.ones(shape), gt_box.reshape(shape + (4,)))
        offsets = np.zeros(shape + (4,))
        offsets[..., 3, 2:] = [EXP_CLAMP, -EXP_CLAMP]
        logits = np.array([0.0, 0.0, -1.5, 2.0]).reshape(shape)
        s_values = {name: np.full(np.shape(v), 0.25)
                    for name, v in initial_balance(1, 4).items()}
        # the kinks are where the test puts them
        cx, cy, w, h = decode_cxywh(*np.moveaxis(grid[None], -1, 0),
                                    *np.moveaxis(offsets, -1, 0))
        right, left = (cx + w * 0.5).ravel(), (cx - w * 0.5).ravel()
        gt_right, gt_left = gt_box[:, 0] + gt_box[:, 2] * 0.5, gt_box[:, 0] - gt_box[:, 2] * 0.5
        assert right[0] == gt_right[0] and left[1] == gt_left[1] and right[2] == gt_left[2]
        assert np.all(np.abs(offsets[..., 3, 2:]) == EXP_CLAMP)
        cfg = TrainConfig(label_rule=rule, cls_loss=cls_loss, mode=mode)
        assert_head_matches_oracle(grid, assignment, cfg, logits, offsets, s_values)
        _, _, grads, _ = head(FUSED, grid, assignment, cfg, logits, offsets, s_values)
        # the gradient passes at the touching box (ix = 0) and at the clamp
        assert np.all(grads["offsets"][..., 2, 0::2] != 0.0)
        assert np.all(grads["offsets"][..., 3, 2:] != 0.0)
