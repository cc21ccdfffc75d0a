"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps an ndarray; every operation appends one record to the
``Tape`` its inputs live on, so the record list is a topological order by
construction and ``backward`` replays it in reverse exactly once per node.
The op set is what one training iteration records: the network's
``conv2d`` (bias and leaky ReLU in the same record), ``upsample2``,
``concat`` (on channels) and ``reshape`` on channels-last image stacks
[N, H, W, C], so one record serves a whole batch; and the loss head,
whose functions compute their forward on arrays and append one record
with a written-out vjp through ``record``, down to the scalar total.  A
Tensor has no arithmetic of its own.  The network ops return plain
arrays, untracked, when no input is a Tensor.  ``backward`` adds into a
leaf's gradient buffer in place, so a training run builds each leaf once,
with its view of the run's gradient vector as that buffer.

A tape holds its records and nothing else.  ``conv2d``'s padded inputs,
spread gradients and patch matrices are made by the call or vjp that
reads them and freed when it returns: no record holds a patch matrix.
One thread per tape.
"""

from __future__ import annotations

import numpy as np


class Tape:
    """Ordered record of operations for one forward pass."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        # (output, pre, pulls): `pre` maps the output's adjoint once before
        # every (input, vjp) pull reads it, or is None
        self.records: list[tuple[Tensor, object, tuple]] = []


class Tensor:
    """Dense float64 value tracked on a tape for backward: a leaf, which
    holds a `grad` buffer, or the output of an op on one (`grad` None)."""

    __slots__ = ("values", "tape", "grad", "__weakref__")

    # Keep numpy from coercing Tensor operands in `ndarray <op> Tensor`;
    # with this set, numpy raises TypeError instead of building an object
    # array of Tensors.
    __array_ufunc__ = None

    def __init__(self, values, tape: Tape, grad: np.ndarray | None = None) -> None:
        self.values = np.asarray(values, dtype=np.float64)
        self.tape = tape
        self.grad = grad

    @property
    def shape(self) -> tuple:
        return self.values.shape


def leaf(values, tape: Tape, grad: np.ndarray) -> Tensor:
    """Create a differentiable leaf bound to `tape`; its gradient is `grad`,
    a buffer of the values' shape bound as given."""
    if tape is None:
        raise ValueError("a leaf tensor needs a tape")
    values = np.asarray(values, dtype=np.float64)
    if grad.shape != values.shape:
        raise ValueError(f"gradient buffer {grad.shape} does not match leaf {values.shape}")
    return Tensor(values, tape, grad)


def values_of(x) -> np.ndarray:
    return x.values if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def record(out_values: np.ndarray, pulls, pre=None) -> Tensor:
    """Build the output tensor for an op and append its record to the tape
    of its tracked inputs; `pulls` is (input, vjp) pairs, inputs that are
    not Tensors are skipped, and `pre`, if given, maps the output's adjoint
    once before the pulls.  Ops outside this module (the loss head) record
    their written-out vjps through it; at least one input must be a Tensor."""
    live = tuple((p, fn) for p, fn in pulls if isinstance(p, Tensor))
    if not live:
        raise ValueError("no operand is a Tensor: record needs a taped input")
    tapes = {id(p.tape): p.tape for p, _ in live}
    if len(tapes) != 1:
        raise ValueError("operands recorded on different tapes")
    tape = next(iter(tapes.values()))
    out = Tensor(out_values, tape)
    tape.records.append((out, pre, live))
    return out


def _tracked(*xs) -> bool:
    return any(isinstance(x, Tensor) for x in xs)


def backward(root: Tensor) -> None:
    """Add d(root)/d(leaf) into `.grad` of every leaf the root depends on.

    Repeated calls keep accumulating; zero leaf grads by hand to reset.
    """
    if not isinstance(root, Tensor):
        raise ValueError("backward root must be a Tensor")
    if root.values.shape != ():
        raise ValueError(f"backward root must be scalar, got shape {root.values.shape}")
    seed = np.ones((), dtype=np.float64)
    if root.grad is not None:
        root.grad += seed
        return
    adjoint: dict[int, np.ndarray] = {id(root): seed}
    for out, pre, pulls in reversed(root.tape.records):
        g = adjoint.pop(id(out), None)
        if g is None:
            continue
        if pre is not None:
            g = pre(g)
        for parent, vjp in pulls:
            contrib = vjp(g)
            if parent.grad is not None:
                parent.grad += contrib
            else:
                prev = adjoint.get(id(parent))
                adjoint[id(parent)] = contrib if prev is None else prev + contrib


# ---------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------

def reshape(x, shape: tuple):
    xv = values_of(x)
    out = xv.reshape(shape)
    if not _tracked(x):
        return out
    return record(out, [(x, lambda g: g.reshape(xv.shape))])


def concat(parts):
    """Join stacks on their last (channel) axis."""
    vs = [values_of(p) for p in parts]
    out = np.concatenate(vs, axis=-1)
    if not _tracked(*parts):
        return out
    pulls = []
    start = 0
    for p, v in zip(parts, vs):
        stop = start + v.shape[-1]

        def vjp(g, start=start, stop=stop):
            return g[..., start:stop]

        pulls.append((p, vjp))
        start = stop
    return record(out, pulls)


# ---------------------------------------------------------------------
# linear algebra / spatial ops
# ---------------------------------------------------------------------

def _im2col(xp: np.ndarray, k: int, stride: int):
    """The [n*ho*wo, k*k*cin] patch matrix of an already padded image
    stack, and (ho, wo).  Each row reads one k x k window in (row, column,
    cin) order, the order the flattened kernel is laid out in; the rows run
    over the images, then the output rows and columns.  A 1 x 1 stride-1
    kernel reads the stack itself, reshaped."""
    n, hp, wp, cin = xp.shape
    if k == stride == 1:
        return xp.reshape(n * hp * wp, cin), hp, wp
    xp = np.ascontiguousarray(xp)
    ho, wo = (hp - k) // stride + 1, (wp - k) // stride + 1
    sn, s0, s1, s2 = xp.strides
    # the window view over xp's buffer; as_strided builds the same view at
    # several times the cost, which shows on maps this small
    win = np.ndarray((n, ho, wo, k, k, cin), np.float64, xp, 0,
                     (sn, s0 * stride, s1 * stride, s0, s1, s2))
    return win.reshape(n * ho * wo, k * k * cin), ho, wo


def conv2d(x, w, b, stride: int, leak: float | None):
    """2-D convolution of a channels-last image stack [N, H, W, Cin] with
    a square kernel [k, k, Cin, Cout] plus bias [Cout], zero padding
    (k - 1) // 2 on every side, stride 1 or 2.  With a `leak` that is not
    None (0 < leak < 1), the biased output z goes through the leaky ReLU
    max(z, leak * z) in the same op and record (slope 1 at z = 0), as z
    times its slope, 1 or `leak`.

    Lowered to one GEMM of the patch matrix (im2col) of all N images
    against the kernel flattened to [k*k*cin, cout]; the kernel vjp is one
    GEMM that also sums over the images, and the input vjp one GEMM too:
    the patch matrix of the output gradient, spread `stride` apart in a
    zero map, against the kernel flipped in space with cin and cout
    swapped; for a 1 x 1 stride-1 kernel, the output gradient itself
    against the kernel transposed.  The slope multiplies the output
    gradient once per backward pass, before the input, kernel and bias
    pulls read it.  The padded input, the spread map and every patch
    matrix are fresh arrays that live for one call: the record holds no
    patch matrix, so the kernel vjp pads and lowers the input it holds
    again, the same values into the same GEMM.
    """
    xv, wv = values_of(x), values_of(w)
    if xv.ndim != 4 or wv.ndim != 4 or xv.shape[3] != wv.shape[2] \
            or wv.shape[0] != wv.shape[1]:
        raise ValueError(f"conv2d shape mismatch: input {xv.shape}, kernel {wv.shape}")
    pad = (wv.shape[0] - 1) // 2

    def patches():
        """_im2col of the input, padded in a zero array."""
        xp = xv
        if pad:
            n, h, wd, cin = xv.shape
            xp = np.zeros((n, h + 2 * pad, wd + 2 * pad, cin))
            xp[:, pad:pad + h, pad:pad + wd] = xv
        return _im2col(xp, wv.shape[0], stride)

    cols, ho, wo = patches()
    out = (cols @ wv.reshape(cols.shape[1], -1)).reshape(len(xv), ho, wo, -1)
    out += values_of(b)
    if leak is not None:
        slope = np.where(out >= 0, 1.0, leak)
        out *= slope
    if not _tracked(x, w, b):
        return out

    # the vjps read their sizes off the arrays they hold: every closed-over
    # name is one more object per record for the cyclic collector to count
    def vjp_x(g):
        n, h, wd, cin = xv.shape
        k, cout = wv.shape[0], wv.shape[3]
        ho, wo = g.shape[1:3]
        if k == stride == 1:
            return (g.reshape(-1, cout) @ wv.reshape(cin, cout).T).reshape(xv.shape)
        # input pixel i takes g[o] * w[i + pad - stride * o]: a stride-1
        # correlation of the flipped kernel with g spread `stride` apart
        # from offset k - 1 - pad in a zero map
        off = k - 1 - pad
        spread = np.zeros((n, h + k - 1, wd + k - 1, cout))
        spread[:, off:off + stride * ho:stride, off:off + stride * wo:stride] = g
        flipped = wv[::-1, ::-1].transpose(0, 1, 3, 2).reshape(k * k * cout, cin)
        return (_im2col(spread, k, 1)[0] @ flipped).reshape(xv.shape)

    def vjp_w(g):
        cols = patches()[0]
        return (cols.T @ g.reshape(len(cols), -1)).reshape(wv.shape)

    pulls = [(x, vjp_x), (w, vjp_w), (b, lambda g: g.sum(axis=(0, 1, 2)))]
    return record(out, pulls, None if leak is None else slope.__mul__)


def upsample2(x):
    """Nearest-neighbor 2x upsampling of a channels-last stack [N, H, W, C]."""
    xv = values_of(x)
    if xv.ndim != 4:
        raise ValueError(f"upsample2 expects [N, H, W, C], got shape {xv.shape}")
    out = xv.repeat(2, axis=1).repeat(2, axis=2)
    if not _tracked(x):
        return out
    n, h, w, c = xv.shape

    def vjp(g):
        return g.reshape(n, h, 2, w, 2, c).sum(axis=(2, 4))

    return record(out, [(x, vjp)])
