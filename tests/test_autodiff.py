import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from ponodet import autodiff as ad
from ponodet.autodiff import Tape, backward, leaf, values_of
from ponodet.loss import sigmoid as sigmoid_values

# ---------------------------------------------------------------------
# the elementwise op set and the reductions: no training run records these
# (the loss head is fused records with written-out vjps, down to the
# total), so they live here, taped through `ad.record`, as the vocabulary
# of the gradient oracles.  Each op runs on plain arrays untaped, as the
# same numpy expression, and records one op when an input is a Tensor; a
# broadcast operand's gradient is summed back to its shape.
# ---------------------------------------------------------------------


def unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    squash = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if squash:
        g = g.sum(axis=squash, keepdims=True)
    return g.reshape(shape)


def _binary(forward, pull_a, pull_b):
    """An elementwise op of two operands; `pull_a(g, av, bv)` and
    `pull_b(g, av, bv)` are the vjps before unbroadcasting."""
    def op(a, b):
        av, bv = values_of(a), values_of(b)
        out = forward(av, bv)
        if not ad._tracked(a, b):
            return out
        return ad.record(out, [
            (a, lambda g: unbroadcast(pull_a(g, av, bv), av.shape)),
            (b, lambda g: unbroadcast(pull_b(g, av, bv), bv.shape))])
    return op


def _unary(forward, pull):
    """An elementwise op of one operand; `pull(g, xv, out)` is the vjp."""
    def op(x):
        xv = values_of(x)
        out = forward(xv)
        if not ad._tracked(x):
            return out
        return ad.record(out, [(x, lambda g: pull(g, xv, out))])
    return op


add = _binary(np.add, lambda g, a, b: g, lambda g, a, b: g)
sub = _binary(np.subtract, lambda g, a, b: g, lambda g, a, b: -g)
mul = _binary(np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)
div = _binary(np.divide, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b))
# at ties minimum and maximum pass the gradient to the first argument
minimum = _binary(np.minimum, lambda g, a, b: np.where(a <= b, g, 0.0),
                  lambda g, a, b: np.where(a <= b, 0.0, g))
maximum = _binary(np.maximum, lambda g, a, b: np.where(a >= b, g, 0.0),
                  lambda g, a, b: np.where(a >= b, 0.0, g))

neg = _unary(np.negative, lambda g, x, y: -g)
exp = _unary(np.exp, lambda g, x, y: g * y)
log1p = _unary(np.log1p, lambda g, x, y: g / (1.0 + x))
sigmoid = _unary(sigmoid_values, lambda g, x, y: g * y * (1.0 - y))


def power(x, p):
    """x ** p for a constant exponent p."""
    p = float(p)
    return _unary(lambda xv: xv ** p, lambda g, xv, y: g * p * xv ** (p - 1.0))(x)


def clip(x, lo, hi):
    """Clamp to [lo, hi]; the gradient passes on the closed interval."""
    return _unary(lambda xv: np.clip(xv, lo, hi),
                  lambda g, xv, y: np.where((xv >= lo) & (xv <= hi), g, 0.0))(x)


def take(x, key):
    """Basic (slice/int/ellipsis/None) indexing."""
    def pull(g, xv, y):
        z = np.zeros_like(xv)
        z[key] = g
        return z

    return _unary(lambda xv: xv[key], pull)(x)


def reduce_sum(x, axis=None):
    """Sum over `axis` (an int, a tuple or every axis), as ndarray.sum."""
    xv = values_of(x)
    out = xv.sum(axis=axis)
    if not ad._tracked(x):
        return out
    axes = range(xv.ndim) if axis is None else (axis,) if isinstance(axis, int) else axis
    axes = tuple(a % xv.ndim for a in axes)
    return ad.record(out, [(x, lambda g: np.broadcast_to(np.expand_dims(g, axes),
                                                          xv.shape))])


def mean(x, axis=None):
    """Mean over `axis` (an int, a tuple or every axis): the sum divided by
    the count, as ndarray.mean computes it."""
    if not ad._tracked(x):
        return values_of(x).mean(axis=axis)
    total = reduce_sum(x, axis)
    return div(total, x.values.size // total.values.size)


def zero_leaf(values, tape: Tape) -> ad.Tensor:
    """A leaf with a new zero gradient buffer of its own."""
    values = np.asarray(values, dtype=np.float64)
    return leaf(values, tape, np.zeros_like(values))


def grad_check(f, inputs, step: float = 1e-4) -> float:
    """Compare analytic gradients of scalar `f(*leaves)` against central
    finite differences.

    Returns max over coordinates of |analytic - numeric| / max(1, |analytic|).
    The caller is responsible for keeping the evaluation point away from
    min/max/clip kinks.
    """
    arrays = [np.asarray(x, dtype=np.float64) for x in inputs]
    tape = Tape()
    leaves = [zero_leaf(a.copy(), tape) for a in arrays]
    out = f(*leaves)
    backward(out)
    analytic = [lf.grad for lf in leaves]

    def value_at(k: int, i: int, delta: float) -> float:
        shifted = [a.copy() for a in arrays]
        shifted[k].flat[i] += delta
        t = Tape()
        r = f(*[zero_leaf(a, t) for a in shifted])
        return float(values_of(r))

    worst = 0.0
    for k, a in enumerate(arrays):
        for i in range(a.size):
            numeric = (value_at(k, i, step) - value_at(k, i, -step)) / (2.0 * step)
            ana = analytic[k].flat[i]
            worst = max(worst, abs(ana - numeric) / max(1.0, abs(ana)))
    return worst


def make_leaves(tape, *arrays):
    return [zero_leaf(np.asarray(a, float), tape) for a in arrays]


class TestForward:
    def test_sigmoid_zero(self):
        assert sigmoid_values(np.array(0.0)) == 0.5

    def test_sigmoid_saturation_finite(self):
        v = sigmoid_values(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(v))
        assert v[0] == 0.0 and v[1] == 1.0

    def test_conv_identity_kernel(self):
        x = np.arange(18.0).reshape(2, 3, 3, 1)
        w = np.zeros((3, 3, 1, 1))
        w[1, 1, 0, 0] = 1.0
        out = ad.conv2d(x, w, np.zeros(1), stride=1, leak=None)
        np.testing.assert_array_equal(out, x)

    def test_conv_stride2_shape(self):
        out = ad.conv2d(np.ones((2, 8, 8, 2)), np.ones((3, 3, 2, 5)), np.zeros(5),
                        stride=2, leak=None)
        assert out.shape == (2, 4, 4, 5)

    def test_conv_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.conv2d(np.ones((1, 4, 4, 3)), np.ones((3, 3, 2, 5)), np.zeros(5),
                      stride=1, leak=None)
        with pytest.raises(ValueError, match="conv2d shape mismatch"):
            ad.conv2d(np.ones((4, 4, 2)), np.ones((3, 3, 2, 5)), np.zeros(5),
                      stride=1, leak=None)
        with pytest.raises(ValueError, match="conv2d shape mismatch"):  # not square
            ad.conv2d(np.ones((1, 4, 4, 2)), np.ones((3, 1, 2, 5)), np.zeros(5),
                      stride=1, leak=None)

    def test_upsample_nearest(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])[None, :, :, None]
        out = ad.upsample2(np.concatenate([x, -x]))
        expect = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], float)
        np.testing.assert_array_equal(out[0, :, :, 0], expect)
        np.testing.assert_array_equal(out[1, :, :, 0], -expect)
        with pytest.raises(ValueError, match=r"\[N, H, W, C\]"):
            ad.upsample2(x[0])

    def test_numpy_fast_path_matches_tracked(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 6, 6, 3))
        w = rng.normal(size=(3, 3, 3, 4))
        b = rng.normal(size=4)
        plain = ad.conv2d(x, w, b, stride=2, leak=None)
        tape = ad.Tape()
        tracked = ad.conv2d(zero_leaf(x, tape), w, b, stride=2, leak=None)
        np.testing.assert_array_equal(plain, tracked.values)


class TestBackward:
    def test_leaf_root(self):
        tape = ad.Tape()
        x = zero_leaf(np.array(3.0), tape)
        ad.backward(x)
        assert x.grad == 1.0

    def test_product_rule(self):
        tape = ad.Tape()
        x, y = make_leaves(tape, 2.0, 3.0)
        ad.backward(mul(x, y))
        assert x.grad == 3.0 and y.grad == 2.0

    def test_accumulation_on_repeated_calls(self):
        tape = ad.Tape()
        x, y = make_leaves(tape, 2.0, 3.0)
        z = mul(x, y)
        ad.backward(z)
        ad.backward(z)
        assert x.grad == 6.0

    def test_nonscalar_root_rejected(self):
        tape = ad.Tape()
        (x,) = make_leaves(tape, [1.0, 2.0])
        with pytest.raises(ValueError):
            ad.backward(add(x, 1.0))

    def test_sum_linearity(self):
        tape = ad.Tape()
        (x,) = make_leaves(tape, [1.0, 2.0, 3.0])
        ad.backward(reduce_sum(mul(2.0, x)))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_broadcasting_unbroadcast(self):
        tape = ad.Tape()
        x = zero_leaf(np.ones((3, 4)), tape)
        y = zero_leaf(np.ones(4), tape)
        ad.backward(reduce_sum(mul(x, y)))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))
        np.testing.assert_array_equal(y.grad, 3 * np.ones(4))

    def test_min_max_ties_route_to_first(self):
        tape = ad.Tape()
        x, y = make_leaves(tape, [1.0, 5.0], [1.0, 2.0])
        ad.backward(reduce_sum(maximum(x, y)))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])
        np.testing.assert_array_equal(y.grad, [0.0, 0.0])
        tape = ad.Tape()
        x, y = make_leaves(tape, [1.0, 5.0], [1.0, 2.0])
        ad.backward(reduce_sum(minimum(x, y)))
        np.testing.assert_array_equal(x.grad, [1.0, 0.0])
        np.testing.assert_array_equal(y.grad, [0.0, 1.0])

    def test_leaf_binds_given_gradient_buffer(self):
        tape, buf = ad.Tape(), np.full(3, 2.0)
        x = ad.leaf(np.array([1.0, 2.0, 3.0]), tape, buf)
        assert x.grad is buf
        ad.backward(reduce_sum(mul(x, x)))
        assert x.grad is buf
        np.testing.assert_array_equal(buf, [4.0, 6.0, 8.0])
        with pytest.raises(ValueError, match=r"gradient buffer \(2,\) does not match"):
            ad.leaf(np.zeros(3), tape, np.zeros(2))

    def test_mixed_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        x = zero_leaf(np.array(1.0), t1)
        y = zero_leaf(np.array(1.0), t2)
        with pytest.raises(ValueError, match="different tapes"):
            add(x, y)
        with pytest.raises(ValueError, match="no operand is a Tensor"):
            ad.record(np.ones(()), [(np.ones(()), lambda g: g)])

    def test_determinism(self):
        def run():
            tape = ad.Tape()
            rng = np.random.default_rng(9)
            x = zero_leaf(rng.normal(size=(2, 4, 4, 2)), tape)
            w = zero_leaf(rng.normal(size=(3, 3, 2, 3)), tape)
            out = reduce_sum(ad.conv2d(x, w, np.zeros(3), stride=1, leak=0.1))
            ad.backward(out)
            return out.values.copy(), x.grad.copy(), w.grad.copy()

        a, b = run(), run()
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u, v)


class TestGradCheck:
    def test_linear_exact(self):
        err = grad_check(lambda x: reduce_sum(mul(3.0, x)), [np.array([1.0, -2.0, 0.5])])
        assert err < 1e-8

    def test_composite_ops(self):
        rng = np.random.default_rng(1)

        def f(x, y):
            z = add(mul(exp(x), sigmoid(y)), log1p(exp(neg(x))))
            return mean(mul(z, z))

        err = grad_check(f, [rng.normal(size=5), rng.normal(size=5)])
        assert err < 1e-6

    def test_conv_and_upsample(self):
        rng = np.random.default_rng(3)

        def f(x, w, b):
            y = ad.conv2d(x, w, b, stride=2, leak=None)
            return reduce_sum(power(ad.upsample2(y), 2.0))

        err = grad_check(
            f, [rng.normal(size=(2, 6, 6, 2)), rng.normal(size=(3, 3, 2, 3)),
                rng.normal(size=3)])
        assert err < 1e-6

    def test_concat_take_reshape(self):
        rng = np.random.default_rng(4)

        def f(x, y):
            z = ad.concat([x, y])
            return add(reduce_sum(mul(take(z, (..., 0)), take(z, (..., 3)))),
                       mean(ad.reshape(z, (-1,))))

        err = grad_check(f, [rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 3, 2))])
        assert err < 1e-7

    def test_reductions(self):
        rng = np.random.default_rng(5)

        def f(x):
            return add(mean(reduce_sum(x, (0, 1))), reduce_sum(mean(x, axis=0)))

        err = grad_check(f, [rng.normal(size=(3, 4, 2))])
        assert err < 1e-7

    def test_clip_away_from_kinks(self):
        err = grad_check(lambda x: reduce_sum(power(clip(x, -1.0, 1.0), 2.0)),
                            [np.array([-2.0, -0.5, 0.3, 1.7])])
        assert err < 1e-8

    def test_kink_point_disagrees_by_convention(self):
        # at a max tie the analytic subgradient goes to the first argument
        # (slope 1) while the central difference averages the two sides
        # (slope 0.5); such points are excluded from gradient checks
        err = grad_check(lambda x: reduce_sum(maximum(x, 0.0)), [np.array(0.0)])
        assert err == pytest.approx(0.5, abs=1e-6)


# ---------------------------------------------------------------------
# conv2d against the direct per-tap form it replaced, applied per image
# ---------------------------------------------------------------------

def ref_conv2d(xv, wv, bv, stride, pad):
    """Forward of one [H, W, Cin] image as one tensordot over a
    sliding-window view."""
    kh, kw = wv.shape[:2]
    xp = np.pad(xv, ((pad, pad), (pad, pad), (0, 0))) if pad else xv
    win = sliding_window_view(xp, (kh, kw), axis=(0, 1))[::stride, ::stride]
    out = np.tensordot(win, wv, axes=([3, 4, 2], [0, 1, 2]))
    return out + bv


def ref_conv2d_vjps(xv, wv, g, stride, pad):
    """Input and kernel gradients of one image, one tensordot per kernel tap."""
    kh, kw = wv.shape[:2]
    ho, wo = g.shape[:2]
    gxp = np.zeros((xv.shape[0] + 2 * pad, xv.shape[1] + 2 * pad, xv.shape[2]))
    xp = np.pad(xv, ((pad, pad), (pad, pad), (0, 0))) if pad else xv
    gw = np.zeros_like(wv)
    for di in range(kh):
        for dj in range(kw):
            taps = (slice(di, di + stride * ho, stride), slice(dj, dj + stride * wo, stride))
            gxp[taps] += np.tensordot(g, wv[di, dj], axes=([2], [1]))
            gw[di, dj] = np.tensordot(xp[taps], g, axes=([0, 1], [0, 1]))
    return gxp[pad:pad + xv.shape[0], pad:pad + xv.shape[1]], gw


def col2im_input_grad(xv, wv, g, stride):
    """The input gradient of a stack, as conv2d computed it before its
    one-GEMM form: one GEMM back into patch space, then kh*kw strided adds
    into the padded input (col2im)."""
    n, ho, wo, _ = g.shape
    kh, kw, cin, cout = wv.shape
    h, w = xv.shape[1:3]
    pad = (kh - 1) // 2
    dcols = (g.reshape(n * ho * wo, cout) @ wv.reshape(-1, cout).T) \
        .reshape(n, ho, wo, kh, kw, cin)
    gxp = np.zeros((n, h + 2 * pad, w + 2 * pad, cin))
    for di in range(kh):
        for dj in range(kw):
            gxp[:, di:di + stride * ho:stride, dj:dj + stride * wo:stride] += \
                dcols[:, :, :, di, dj]
    return gxp[:, pad:pad + h, pad:pad + w]


def leaky_relu(z, leak):
    """Leaky ReLU composed from taped ops; at z = 0 `maximum` routes the
    gradient to its first argument, i.e. slope 1."""
    return maximum(z, mul(leak, z))


# (input stack shape, kernel shape, stride, pad); conv2d pads (kh - 1) // 2,
# so `pad` is the oracle's copy of that rule
CONV_CASES = [
    ((2, 6, 6, 2), (3, 3, 2, 3), 1, 1),
    ((2, 8, 8, 2), (3, 3, 2, 4), 2, 1),
    ((2, 5, 5, 3), (1, 1, 3, 4), 1, 0),
    ((2, 7, 7, 2), (3, 3, 2, 3), 2, 1),
]


@pytest.mark.parametrize("xs,ws,stride,pad", CONV_CASES)
class TestConvOracle:
    def inputs(self, xs, ws):
        rng = np.random.default_rng(sum(xs) + sum(ws))
        return (rng.normal(size=xs), rng.normal(size=ws), rng.normal(size=ws[3]))

    def test_forward_bit_identical(self, xs, ws, stride, pad):
        x, w, b = self.inputs(xs, ws)
        out = ad.conv2d(x, w, b, stride=stride, leak=None)
        for k in range(xs[0]):
            np.testing.assert_array_equal(out[k], ref_conv2d(x[k], w, b, stride, pad))

    def test_vjps_match(self, xs, ws, stride, pad):
        x, w, b = self.inputs(xs, ws)
        tape = ad.Tape()
        xl, wl, bl = make_leaves(tape, x, w, b)
        out = ad.conv2d(xl, wl, bl, stride=stride, leak=None)
        g = np.random.default_rng(7).normal(size=out.shape)
        ad.backward(reduce_sum(mul(out, g)))
        per_image = [ref_conv2d_vjps(x[k], w, g[k], stride, pad) for k in range(xs[0])]
        np.testing.assert_allclose(xl.grad, np.stack([gx for gx, _ in per_image]),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(wl.grad, sum(gw for _, gw in per_image),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(bl.grad, g.sum(axis=(0, 1, 2)), rtol=1e-12)

    def test_input_grad_matches_col2im(self, xs, ws, stride, pad):
        x, w, b = self.inputs(xs, ws)
        tape = ad.Tape()
        xl = zero_leaf(x, tape)
        out = ad.conv2d(xl, w, b, stride=stride, leak=0.1)
        g = np.random.default_rng(8).normal(size=out.shape)
        ad.backward(reduce_sum(mul(out, g)))
        z = ad.conv2d(x, w, b, stride=stride, leak=None)
        want = col2im_input_grad(x, w, np.where(z >= 0, g, 0.1 * g), stride)
        np.testing.assert_allclose(xl.grad, want, rtol=1e-12, atol=1e-12)

    def test_grad_check(self, xs, ws, stride, pad):
        def f(x, w, b):
            return reduce_sum(power(ad.conv2d(x, w, b, stride=stride, leak=None), 2.0))

        assert grad_check(f, list(self.inputs(xs, ws))) < 1e-6

    def test_leak_matches_composed_activation(self, xs, ws, stride, pad):
        x, w, b = self.inputs(xs, ws)
        fused = ad.conv2d(x, w, b, stride=stride, leak=0.1)
        z = np.stack([ref_conv2d(x[k], w, b, stride, pad) for k in range(xs[0])])
        np.testing.assert_array_equal(fused, np.where(z >= 0, z, 0.1 * z))
        grads = []
        for fuse in (True, False):
            tape = ad.Tape()
            leaves = make_leaves(tape, x, w, b)
            if fuse:
                out = ad.conv2d(*leaves, stride=stride, leak=0.1)
            else:
                out = leaky_relu(ad.conv2d(*leaves, stride=stride, leak=None), 0.1)
            ad.backward(reduce_sum(power(out, 2.0)))
            grads.append([lf.grad for lf in leaves])
        for a, c in zip(*grads):
            np.testing.assert_array_equal(a, c)

    def test_repeated_passes_on_one_tape_match_fresh_tapes(self, xs, ws, stride, pad):
        # nothing carries over from pass to pass: every pass on one tape
        # must give the bits of the same pass on a fresh tape
        def one_pass(tape, k):
            rng = np.random.default_rng([k, *xs, *ws])
            leaves = make_leaves(tape, rng.normal(size=xs), rng.normal(size=ws),
                                 rng.normal(size=ws[3]))
            out = ad.conv2d(*leaves, stride=stride, leak=0.1)
            ad.backward(reduce_sum(mul(out, rng.normal(size=out.shape))))
            tape.records.clear()
            return [out.values] + [lf.grad for lf in leaves]

        shared = ad.Tape()
        for k in range(3):
            for a, c in zip(one_pass(shared, k), one_pass(ad.Tape(), k)):
                np.testing.assert_array_equal(a, c)


class TestConvLeak:
    LEAK = 0.1

    def test_one_record_per_fused_conv(self):
        rng = np.random.default_rng(1)
        tape = ad.Tape()
        x, w, b = make_leaves(tape, rng.normal(size=(2, 4, 4, 2)),
                              rng.normal(size=(3, 3, 2, 3)), rng.normal(size=3))
        ad.conv2d(x, w, b, stride=1, leak=self.LEAK)
        assert len(tape.records) == 1

    def test_grad_check_away_from_zero(self):
        rng = np.random.default_rng(12)
        x, w, b = rng.normal(size=(2, 5, 5, 2)), rng.normal(size=(3, 3, 2, 3)), \
            rng.normal(size=3)
        # the finite-difference steps never cross the kink at z = 0
        assert np.abs(ad.conv2d(x, w, b, stride=1, leak=None)).min() > 1e-2

        def f(x, w, b):
            return reduce_sum(power(ad.conv2d(x, w, b, stride=1, leak=self.LEAK), 2.0))

        assert grad_check(f, [x, w, b]) < 1e-6

    def test_pre_activation_exactly_zero_takes_slope_one(self):
        # z = x * w + b = 0 exactly: the analytic slope is 1 (as for z > 0),
        # while the central difference averages the two sides to
        # (1 + leak) / 2, so grad_check sees exactly the convention gap
        def f(x, w, b):
            return reduce_sum(ad.conv2d(x, w, b, stride=1, leak=self.LEAK))

        x, w, b = np.zeros((1, 1, 1, 1)), np.ones((1, 1, 1, 1)), np.zeros(1)
        assert grad_check(f, [x, w, b]) == pytest.approx((1 - self.LEAK) / 2, abs=1e-9)
        tape = ad.Tape()
        xl, wl, bl = make_leaves(tape, x, w, b)
        ad.backward(f(xl, wl, bl))
        assert xl.grad.item() == 1.0 and bl.grad.item() == 1.0

    def test_zero_pre_activations_in_a_stack(self):
        # the second image and the top half of the first are zero, so with
        # a zero bias their outputs sit exactly at z = 0; the fused vjps
        # must match the composed activation there bit for bit
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 6, 6, 2))
        x[0, :3] = 0.0
        x[1] = 0.0
        w, b = rng.normal(size=(3, 3, 2, 3)), np.zeros(3)
        z = ad.conv2d(x, w, b, stride=1, leak=None)
        assert np.count_nonzero(z == 0.0) >= z[1].size
        g = rng.normal(size=z.shape)
        grads = []
        for fuse in (True, False):
            tape = ad.Tape()
            leaves = make_leaves(tape, x, w, b)
            out = ad.conv2d(*leaves, stride=1, leak=self.LEAK) if fuse \
                else leaky_relu(ad.conv2d(*leaves, stride=1, leak=None), self.LEAK)
            ad.backward(reduce_sum(mul(out, g)))
            grads.append([lf.grad for lf in leaves])
        for a, c in zip(*grads):
            np.testing.assert_array_equal(a, c)
        assert np.any(grads[0][0][1] != 0.0)  # gradient passes at z = 0


def spread_input_grad(xv, wv, g, stride):
    """The input gradient as conv2d computed it at every kernel size before
    its 1 x 1 form: the patch matrix of `g` spread `stride` apart from
    offset k - 1 - pad in a zero map, against the kernel flipped in space
    with cin and cout swapped."""
    (n, h, w, cin), (k, _, _, cout) = xv.shape, wv.shape
    ho, wo = g.shape[1:3]
    off = k - 1 - (k - 1) // 2
    spread = np.zeros((n, h + k - 1, w + k - 1, cout))
    spread[:, off:off + stride * ho:stride, off:off + stride * wo:stride] = g
    windows = sliding_window_view(spread, (k, k), axis=(1, 2))  # [n, h, w, cout, k, k]
    patches = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3)) \
        .reshape(n * h * w, k * k * cout)
    flipped = wv[::-1, ::-1].transpose(0, 1, 3, 2).reshape(k * k * cout, cin)
    return (patches @ flipped).reshape(xv.shape)


# (batch, side, kernel, cin, cout, stride) for the bit-for-bit oracles of
# the fused activation and the input vjp
BIT_CASES = [(n, side, k, 3, 4, stride) for n in (1, 3) for k in (1, 3)
             for stride in (1, 2) for side in (5, 6)]


@pytest.mark.parametrize("n,side,k,cin,cout,stride", BIT_CASES)
class TestConvBits:
    """The leaky ReLU as z times its slope and the 1 x 1 input vjp as one
    GEMM give the bits of max(z, leak * z) and of the spread form."""

    LEAK = 0.1

    def inputs(self, n, side, k, cin, cout):
        rng = np.random.default_rng([n, side, k, cin, cout])
        x = rng.normal(size=(n, side, side, cin))
        x[0, : side // 2] = 0.0  # with a zero bias entry: exact zeros in z
        b = rng.normal(size=cout)
        b[0] = 0.0
        return x, rng.normal(size=(k, k, cin, cout)), b

    def test_activation_is_max_of_z_and_leak_z(self, n, side, k, cin, cout, stride):
        x, w, b = self.inputs(n, side, k, cin, cout)
        z = ad.conv2d(x, w, b, stride=stride, leak=None)
        assert np.count_nonzero(z == 0.0) and np.count_nonzero(z < 0.0)
        fused = ad.conv2d(x, w, b, stride=stride, leak=self.LEAK)
        assert fused.tobytes() == np.maximum(z, self.LEAK * z).tobytes()
        tape = ad.Tape()
        out = ad.conv2d(*make_leaves(tape, x, w, b), stride=stride, leak=self.LEAK)
        assert out.values.tobytes() == fused.tobytes()
        (_, pre, _), = tape.records
        g = np.random.default_rng(3).normal(size=z.shape)
        assert pre(g).tobytes() == (g * np.where(z >= 0, 1.0, self.LEAK)).tobytes()

    def test_input_vjp_is_the_spread_form(self, n, side, k, cin, cout, stride):
        x, w, b = self.inputs(n, side, k, cin, cout)
        tape = ad.Tape()
        xl, wl = make_leaves(tape, x, w)
        out = ad.conv2d(xl, wl, b, stride=stride, leak=None)
        g = np.random.default_rng(4).normal(size=out.shape)
        g[:, 0] = 0.0
        (_, _, pulls), = tape.records
        got = pulls[0][1](g)
        want = spread_input_grad(x, w, g, stride)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestConvWork:
    """Taped convs on one tape, of one or of different geometries, each
    match the per-image oracle: their padded inputs, spread output
    gradients and patch matrices are their own."""

    # pairs whose padded inputs or spread maps have one shape but hold
    # other entries: k=3 on 10x10 and k=5 on 8x8 both pad to 12x12;
    # strides 1 and 2 on one input spread their gradients apart differently
    PAIRS = [
        (((2, 10, 10, 2), (3, 3, 2, 3), 1), ((2, 8, 8, 2), (5, 5, 2, 3), 1)),
        (((2, 8, 8, 2), (3, 3, 2, 3), 1), ((2, 8, 8, 2), (3, 3, 2, 3), 2)),
    ]

    @pytest.mark.parametrize("first,second", PAIRS)
    def test_same_buffer_shape_other_entries_match_oracle(self, first, second):
        tape = ad.Tape()
        for k in range(2):
            rng = np.random.default_rng([k, 5])
            convs = []
            for xs, ws, stride in (first, second):
                x, w, b = rng.normal(size=xs), rng.normal(size=ws), rng.normal(size=ws[3])
                xl, wl = make_leaves(tape, x, w)
                out = ad.conv2d(xl, wl, b, stride=stride, leak=None)
                convs.append((x, w, b, stride, xl, wl, out, rng.normal(size=out.shape)))
            ad.backward(add(*[reduce_sum(mul(c[6], c[7])) for c in convs]))
            tape.records.clear()
            for x, w, b, stride, xl, wl, out, g in convs:
                pad = (w.shape[0] - 1) // 2
                np.testing.assert_array_equal(
                    out.values, np.stack([ref_conv2d(xk, w, b, stride, pad) for xk in x]))
                per_image = [ref_conv2d_vjps(x[i], w, g[i], stride, pad)
                             for i in range(len(x))]
                np.testing.assert_allclose(xl.grad, np.stack([gx for gx, _ in per_image]),
                                           rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(wl.grad, sum(gw for _, gw in per_image),
                                           rtol=1e-12, atol=1e-12)

    def test_convs_of_one_geometry_in_one_pass(self):
        # the first's kernel vjp pads and lowers its input again after the
        # second's vjps ran
        def f(x, w1, w2, b):
            h = ad.conv2d(x, w1, b, stride=1, leak=None)
            return reduce_sum(power(ad.conv2d(h, w2, b, stride=1, leak=None), 2.0))

        rng = np.random.default_rng(22)
        assert grad_check(f, [rng.normal(size=(2, 5, 5, 3)), rng.normal(size=(3, 3, 3, 3)),
                              rng.normal(size=(3, 3, 3, 3)), rng.normal(size=3)]) < 1e-6
