"""Deterministic float64 execution of model graphs.

Runs a graph forward (optionally only up to a partition boundary) and
computes analytic gradients of a boundary activation with respect to the
graph input via reverse-mode accumulation. Convolution is lowered to im2col
channel-major: the columns are a (C*k*k, OH*OW) matrix, one row per input
channel and kernel offset, and the output is ``W @ cols`` with W viewed as
(O, C*k*k), which is already the (O, OH, OW) layout. That product fixes the
accumulation order, and depthwise convolution sums its k*k offsets in
row-major order, so identical seeds and inputs reproduce bitwise identical
outputs, and running a split model's two halves back to back is bitwise
identical to running the unsplit chain. "Bitwise" holds for one numpy, one
OpenBLAS and one OpenBLAS kernel (``OPENBLAS_CORETYPE``): another kernel
sums its products in another order.

The forward pass streams its memory. Columns are built and multiplied in
blocks of whole output rows of at most ``graph._COLS_BLOCK_BYTES`` (8 MB;
one row when a row alone is larger), each product written into its slice of the
preallocated output. The budget sits below glibc's 32 MB ceiling on its
dynamic mmap threshold, so blocks are recycled from the heap instead of
being page-faulted fresh on every call; a layer whose columns fit is a
single block. Every pass drops each activation after the last layer that
reads it, except the activations the backward reads, which
``input_gradient`` and an ``_Arena`` keep.

Activations, and the gradients of the backward pass, are held the way
layers reference them: one slot per layer, then the graph input, so a
reference r (-1 for the input) reads slot r. The backward pass reads
nothing but those activations: max pooling and Swish read their input
(Swish recomputes its sigmoid), ReLU and Sigmoid their output, and the
channel gate both operands.

The backward pass of conv, depthwise conv and average pooling is one
``_bind_col2im``: each kernel offset's window gradients are placed on a
zeroed padded plane of their own in a single strided assignment, and the
k*k planes are summed offset by offset in row-major order from +0.0. The
planes are built in blocks of whole channels of at most
``_PLANES_BLOCK_BYTES`` (1 MB; one channel when a channel alone is larger).

Subgradient conventions at kinks: ReLU propagates zero at exactly zero;
max pooling routes the gradient to the window argmax, ties broken toward
the lowest flat index. The forward keeps no argmax: it is a running
``np.maximum`` over the offsets, and the backward recomputes the argmax
from the kept input and sums each pixel's terms in window order with
``np.bincount``.

Weights are materialized lazily from each layer's seed (He-style fan-in
scaling, zero biases) in the layout ``graph.weight_shapes`` gives, and cached
by ``graph.weight_key`` (kind, seed, init and those shapes), so the two
halves of a split share the original layers' weights.

Every pass walks the graph's ``schedule``, computed once per ``ModelGraph``
and kept on it: per layer, the slots it reads, the slots that die after it,
its weight key, and its geometry (kernel, stride, padding, input and output
shapes, and a conv's rows per column block). The schedule holds no weights
and nothing activation-sized, so compiling costs O(layers) in scalars, and
clearing ``_WEIGHTS`` takes effect on a graph already compiled.

Each kind's kernel is split in two (``_KERNELS``). Its bind step runs once
over fixed arrays: given the layer's output array (or, in the backward, the
arrays its gradient terms go to), it fetches the weights and builds every
view the arithmetic needs: weight reshapes, the strided window and column
views, max pooling's routing base, the ``_bind_col2im`` placement views. It
returns the call step: a list of ops, (numpy function, arguments) tuples
that only do arithmetic, writing with ``out=`` into those arrays.

Two binders bind every pass: ``_bind_prefix`` the forward of layers
[0, b), ``_bind_gradient`` their backward. Each hands a layer's ops to its
caller's ``apply`` before the next layer binds: ``forward``,
``forward_until`` and ``input_gradient`` pass ``_call``, which runs them
at once on fresh arrays and drops them, so those passes hold nothing past
their return; an ``_Arena`` passes ``list.extend`` and keeps them. Which
slots die where comes from the schedule's ``Step.dead`` alone. It holds
for any prefix that ends at a partition point, because ``make_graph``
lets no reference but the one to slot b - 1 cross a partition point.

An ``_Arena`` binds a whole prefix, forward and backward, and keeps the
ops. It owns the input, the boundary activation, the input gradient and
each activation its backward reads; the attack in ``privacy`` binds two
per inversion (the accepted point and the candidate) and drops them when
the inversion returns. Both take their other arrays from one ``_Scratch``
of that inversion: scratch, the memory that lives only inside one call
(padded inputs, column blocks, ``gcols``, the col2im planes, elementwise
temporaries), is one buffer as large as the largest kernel's requests, and
every kernel of both arenas views it; activations no backward reads, and
gradients, are arrays handed back and reused once their last reader has
run. So scratch is never kept per layer, and no buffer is module-level: the
``_Scratch`` of the public passes hands out fresh arrays.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .graph import (ADD, AVGPOOL, BNORM, CMUL, CONV, DWCONV, ELEMENT_SIZE, FC,
                    FLATTEN, GAP, MAXPOOL, RELU, SIGMOID, SWISH, weight_key,
                    weight_shapes)
from .tensors import require_tensor


class EngineError(ValueError):
    """Raised for invalid inputs to the execution engine."""


# bytes of _bind_col2im's per-offset planes per channel block (see the
# module docstring)
_PLANES_BLOCK_BYTES = 1 << 20


_WEIGHTS = {}


def _materialize(layer):
    p = layer.params
    shapes = weight_shapes(layer)
    rng = np.random.default_rng(p.get("seed", 0))
    if layer.kind == BNORM:
        return {"gamma": rng.uniform(0.9, 1.1, shapes["gamma"]),
                "beta": rng.standard_normal(shapes["beta"]) * 0.05}
    o, *fan = shapes["w"]
    if p.get("init") == "identity":
        w = np.zeros(shapes["w"])
        for ch in range(o):
            w[ch, ch, fan[1] // 2, fan[2] // 2] = 1.0
    else:
        w = rng.standard_normal(shapes["w"]) * np.sqrt(2.0 / math.prod(fan))
    return {"w": w, "b": np.zeros(shapes["b"])}


def _weights(key, layer):
    """The weights cached under ``key``, the layer's ``weight_key``,
    materialized on first use."""
    got = _WEIGHTS.get(key)
    if got is None:
        got = _materialize(layer)
        for arr in got.values():
            arr.setflags(write=False)
        _WEIGHTS[key] = got
    return got


def layer_weights(layer):
    """Materialized weights for a parameterized layer (cached; treat as
    read-only). Returns None for parameterless kinds."""
    key = weight_key(layer)
    return None if key is None else _weights(key, layer)


def clear_weight_cache():
    _WEIGHTS.clear()


def param_count(layer):
    """Number of scalar parameters the layer carries (0 for stateless kinds)."""
    return sum(math.prod(shape) for shape in weight_shapes(layer).values())


def model_param_bytes(model, lo, hi):
    return sum(param_count(layer) for layer in model.layers[lo:hi]) * ELEMENT_SIZE


# ---------------------------------------------------------------------------
# binding

class _Scratch:
    """Memory a kernel uses only inside one call, and the transient arrays
    of a bound prefix.

    Built without ``need``, every request is a fresh array, ``give`` keeps
    nothing, and ``need`` records the bytes of the largest kernel's requests.
    Built from such a record, the requests of one kernel (those after one
    ``start``) are consecutive views of one buffer, and an array given back
    is handed out again by a later ``take`` of its shape."""

    def __init__(self, need=None):
        self.need = 0 if need is None else need
        self._buffer = None if need is None else np.empty(need, np.uint8)
        self._end = 0
        self._free = {}  # shape -> arrays no bound layer reads any more

    def start(self):
        self._end = 0

    def __call__(self, shape, dtype=np.float64):
        begin = self._end
        if self._buffer is None:
            arr = np.empty(shape, dtype)
            self._end += -(-arr.nbytes // 64) * 64
            self.need = max(self.need, self._end)
            return arr
        n = math.prod(shape) * np.dtype(dtype).itemsize
        self._end += -(-n // 64) * 64  # each view starts on a cache line
        return self._buffer[begin:begin + n].view(dtype).reshape(shape)

    def take(self, shape):
        free = self._free.get(shape)
        return free.pop() if free else np.empty(shape)

    def give(self, arr):
        if self._buffer is not None:
            self._free.setdefault(arr.shape, []).append(arr)


def _call(ops):
    """Apply each op, a (function, arguments...) tuple, in order."""
    for f, *args in ops:
        f(*args)


def _bind_windows(x, k, stride, pad, fill, scratch):
    """Read-only (C, OH, OW, k, k) view of the k x k windows of ``x`` padded
    by ``pad`` on each spatial side with ``fill``, taken at ``stride``, and
    the ops that refresh the padded copy from ``x`` (none at ``pad == 0``,
    where the view is of ``x`` itself)."""
    c, h, w = x.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    xp, ops = x, []
    if pad:
        hp, wp = h + 2 * pad, w + 2 * pad
        xp = scratch((c, hp, wp))
        sc, sh, sw = xp.strides
        # the border: the first and last ``pad`` rows, then the first and
        # last ``pad`` columns of every row
        rows = np.ndarray((c, 2, pad, wp), xp.dtype, xp, 0,
                          (sc, (hp - pad) * sh, sh, sw))
        cols = np.ndarray((c, hp, 2, pad), xp.dtype, xp, 0,
                          (sc, sh, (wp - pad) * sw, sw))
        ops = [(rows.fill, fill), (cols.fill, fill),
               (np.copyto, xp[:, pad:pad + h, pad:pad + w], x)]
    sc, sh, sw = xp.strides
    win = np.ndarray((c, oh, ow, k, k), xp.dtype, xp, 0,
                     (sc, sh * stride, sw * stride, sh, sw))
    win.flags.writeable = False
    return win, ops


def _windows(x, k, stride, pad, fill=0.0):
    """``_bind_windows`` over fresh memory, refreshed once."""
    win, ops = _bind_windows(np.ascontiguousarray(x), k, stride, pad, fill,
                             _Scratch())
    _call(ops)
    return win


def _bind_col2im(gwin, dst, s, pad, scratch):
    """The ops writing the adjoint of ``_bind_windows`` into ``dst``: window
    gradients (C, OH, OW, k, k) scatter-added onto the padded input, offset
    by offset in row-major order, and cropped. Only the cropped region of
    the planes is summed; a sum from +0.0 is never -0.0, so the planes'
    extra +0.0 terms change no bit."""
    c, oh, ow, k, _ = gwin.shape
    h, w = dst.shape[1], dst.shape[2]
    hp, wp = h + 2 * pad, w + 2 * pad
    cb = max(1, _PLANES_BLOCK_BYTES // (k * k * hp * wp * 8))
    planes = scratch((k, k, min(cb, c), hp, wp))
    p0, p1, p2, p3, p4 = planes.strides
    ops = [(planes.fill, 0.0)]
    for c0 in range(0, c, cb):
        n = min(cb, c - c0)
        # window value (ch, y, x, i, j) lands on plane (i, j) at
        # (ch, y*s + i, x*s + j); every block writes the same positions
        place = np.ndarray((n, oh, ow, k, k), planes.dtype, planes, 0,
                           (p2, s * p3, s * p4, p0 + p3, p1 + p4))
        # the k*k planes, cropped, as one axis: offset i*k + j is plane (i, j)
        summed = np.ndarray((k * k, n, h, w), planes.dtype, planes,
                            pad * (p3 + p4), (p1, p2, p3, p4))
        ops += [(np.copyto, place, gwin[c0:c0 + n]),
                (partial(np.add.reduce, summed, axis=0, initial=0.0,
                         out=dst[c0:c0 + n]),)]
    return ops


# A kind's forward binder takes (step, activations, output array, weights
# or None, scratch) and returns (output, ops): the output is the array
# given, or for Flatten a view of its source. Its backward binder takes
# (step, output gradient, activations, weights, destinations, scratch), one
# destination array per slot in ``step.refs``, and returns (terms, ops):
# after the ops, terms[i] holds the gradient term for refs[i], either in
# destinations[i] or, for a pass-through kind, as a view of the output
# gradient.

def _conv(st, acts, out, w, scratch):
    o, oh, ow = st.out_shape
    win, ops = _bind_windows(acts[st.source], st.kernel, st.stride,
                             st.padding, 0.0, scratch)
    wmat = w["w"].reshape(o, -1)
    out2 = out.reshape(o, oh * ow)
    buf = None
    for r in range(0, oh, st.rows):
        # (C*k*k, rows*OW) columns: each copied run is a whole output row,
        # and a one-block 1x1 stride-1 unpadded view is already contiguous
        src = win[:, r:r + st.rows].transpose(0, 3, 4, 1, 2)
        n = src.shape[3] * ow
        if src.flags.c_contiguous:
            cols = src.reshape(-1, n)
        else:
            if buf is None:  # the first block is the largest
                buf = scratch((wmat.shape[1] * n,))
            cols = buf[:wmat.shape[1] * n].reshape(-1, n)
            ops.append((np.copyto, cols.reshape(src.shape), src))
        ops.append((np.matmul, wmat, cols, out2[:, r * ow:r * ow + n]))
    ops.append((np.add, out2, w["b"][:, None], out2))
    return out, ops


def _conv_grad(st, g, acts, w, dsts, scratch):
    k = st.kernel
    o, oh, ow = st.out_shape
    wt = w["w"].reshape(o, -1).T
    gcols = scratch((wt.shape[0], oh * ow))  # (C*k*k, OH*OW)
    gwin = gcols.reshape(st.in_shape[0], k, k, oh, ow).transpose(0, 3, 4, 1, 2)
    return dsts, ([(np.matmul, wt, g.reshape(o, oh * ow), gcols)]
                  + _bind_col2im(gwin, dsts[0], st.stride, st.padding, scratch))


def _dwconv(st, acts, out, w, scratch):
    k = st.kernel
    win, ops = _bind_windows(acts[st.source], k, st.stride, st.padding, 0.0,
                             scratch)
    prod = scratch(st.out_shape)
    ops.append((out.fill, 0.0))
    # one (C, OH, OW) slab per kernel offset, in _bind_col2im's order
    for i in range(k):
        for j in range(k):
            ops += [(np.multiply, win[:, :, :, i, j],
                     w["w"][:, i, j, None, None], prod),
                    (np.add, out, prod, out)]
    ops.append((np.add, out, w["b"][:, None, None], out))
    return out, ops


def _dwconv_grad(st, g, acts, w, dsts, scratch):
    k = st.kernel
    # (k, k, C, OH, OW) products, viewed as (C, OH, OW, k, k)
    prods = scratch((k, k) + st.out_shape)
    wk = w["w"].transpose(1, 2, 0)[:, :, :, None, None]
    return dsts, ([(np.multiply, wk, g, prods)]
                  + _bind_col2im(prods.transpose(2, 3, 4, 0, 1), dsts[0],
                                 st.stride, st.padding, scratch))


def _maxpool(st, acts, out, w, scratch):
    k = st.kernel
    win, ops = _bind_windows(acts[st.source], k, st.stride, st.padding,
                             -np.inf, scratch)
    ops.append((np.copyto, out, win[:, :, :, 0, 0]))
    # on a tie np.maximum returns its second operand: the earlier offset
    ops += [(partial(np.maximum, win[:, :, :, i, j], out, out=out),)
            for i in range(k) for j in range(k) if i or j]
    return out, ops


def _maxpool_grad(st, g, acts, w, dsts, scratch):
    """Route each window's gradient to its first argmax, recomputed from the
    input; ``bincount`` sums the terms of a pixel in window order from zero."""
    k, s, pad = st.kernel, st.stride, st.padding
    c, oh, ow = st.out_shape
    _, h, wd = st.in_shape
    hp, wp = h + 2 * pad, wd + 2 * pad
    win, ops = _bind_windows(acts[st.source], k, s, pad, -np.inf, scratch)
    flat = scratch((c, oh, ow, k * k))
    idx = scratch(st.out_shape, np.intp)
    route = scratch(st.out_shape, np.intp)
    # routing base: the flat padded index of each window's corner, and each
    # offset's distance from it
    corner = np.arange(c * hp * wp).reshape(c, hp, wp)[:, :s * oh:s, :s * ow:s]
    corner = corner.copy()
    offset = (np.arange(k)[:, None] * wp + np.arange(k)).ravel()
    gflat, rflat, dst = g.reshape(-1), route.reshape(-1), dsts[0]

    def scatter():
        xpg = np.bincount(rflat, weights=gflat, minlength=c * hp * wp)
        np.copyto(dst, xpg.reshape(c, hp, wp)[:, pad:pad + h, pad:pad + wd])

    return dsts, ops + [(np.copyto, flat.reshape(win.shape), win),
                        (flat.argmax, -1, idx),
                        (offset.take, idx, None, route, "clip"),
                        (np.add, route, corner, route),
                        (scatter,)]


def _avgpool(st, acts, out, w, scratch):
    win, ops = _bind_windows(acts[st.source], st.kernel, st.stride,
                             st.padding, 0.0, scratch)
    return out, ops + [(partial(np.mean, win, axis=(-2, -1), out=out),)]


def _avgpool_grad(st, g, acts, w, dsts, scratch):
    k = st.kernel
    gk = scratch(st.out_shape)
    gwin = np.broadcast_to(gk[..., None, None], gk.shape + (k, k))
    return dsts, ([(np.divide, g, k * k, gk)]
                  + _bind_col2im(gwin, dsts[0], st.stride, st.padding, scratch))


def _bind_sigmoid(x, s, scratch):
    """The ops writing the logistic sigmoid of ``x`` into ``s``: 1/(1+z)
    where x >= 0 and z/(1+z) elsewhere, with z = exp(-|x|). The numerator
    is exp(min(x, 0)), which is 1.0 where x >= 0 and z elsewhere, so no
    masked op is needed."""
    z, e = scratch(x.shape), scratch(x.shape)
    return [(np.abs, x, z), (np.negative, z, z), (np.exp, z, z),
            (np.add, z, 1.0, z), (partial(np.minimum, x, 0.0, out=e),),
            (np.exp, e, e), (np.divide, e, z, s)]


def _swish(st, acts, out, w, scratch):
    x = acts[st.source]
    s = scratch(x.shape)
    return out, _bind_sigmoid(x, s, scratch) + [(np.multiply, x, s, out)]


def _swish_grad(st, g, acts, w, dsts, scratch):
    x = acts[st.source]
    s, a, b = scratch(x.shape), scratch(x.shape), scratch(x.shape)
    # g * (s + x * s * (1 - s))
    return dsts, _bind_sigmoid(x, s, scratch) + [
        (np.multiply, x, s, a), (np.subtract, 1.0, s, b), (np.multiply, a, b, a),
        (np.add, s, a, a), (np.multiply, g, a, dsts[0])]


def _sigmoid(st, acts, out, w, scratch):
    return out, _bind_sigmoid(acts[st.source], out, scratch)


def _sigmoid_grad(st, g, acts, w, dsts, scratch):
    s = acts[st.index]
    a, b = scratch(s.shape), scratch(s.shape)
    # g * s * (1 - s)
    return dsts, [(np.multiply, g, s, a), (np.subtract, 1.0, s, b),
                  (np.multiply, a, b, dsts[0])]


def _relu_grad(st, g, acts, w, dsts, scratch):
    # max(x, 0) > 0 exactly where x > 0, so the output gives the same mask
    y = acts[st.index]
    live = scratch(y.shape, bool)
    return dsts, [(np.greater, y, 0.0, live), (np.multiply, g, live, dsts[0])]


def _gap_grad(st, g, acts, w, dsts, scratch):
    _, h, wd = st.in_shape
    mean = scratch(g.shape)
    return dsts, [(np.divide, g, h * wd, mean), (np.copyto, dsts[0], mean)]


def _cmul_grad(st, g, acts, w, dsts, scratch):
    u = acts[st.refs[1]]
    gate = acts[st.source].reshape(-1)[:, None, None]
    prod = scratch(u.shape)
    return dsts, [(np.multiply, g, u, prod),
                  (partial(np.sum, prod, axis=(1, 2), out=dsts[0].reshape(-1)),),
                  (np.multiply, g, gate, dsts[1])]


def _keeps_nothing(st):
    return ()


def _keeps_source(st):
    return (st.source,)


def _keeps_output(st):
    return (st.index,)


# kind -> (forward binder, backward binder, the slots a bound prefix keeps
# past its forward: those whose values the backward reads, and for Flatten
# its output and the source that output views; a graph's activations are
# contiguous, so that view stays the output)
_KERNELS = {
    CONV: (_conv, _conv_grad, _keeps_nothing),
    DWCONV: (_dwconv, _dwconv_grad, _keeps_nothing),
    FC: (lambda st, acts, out, w, scratch: (out, [
            (np.matmul, w["w"], acts[st.source].reshape(-1), out),
            (np.add, out, w["b"], out)]),
         lambda st, g, acts, w, dsts, scratch: (dsts, [
             (np.matmul, w["w"].T, g, dsts[0].reshape(-1))]),
         _keeps_nothing),
    RELU: (lambda st, acts, out, w, scratch: (out, [
               (partial(np.maximum, acts[st.source], 0.0, out=out),)]),
           _relu_grad, _keeps_output),
    SWISH: (_swish, _swish_grad, _keeps_source),
    SIGMOID: (_sigmoid, _sigmoid_grad, _keeps_output),
    BNORM: (lambda st, acts, out, w, scratch: (out, [
                (np.multiply, acts[st.source], w["gamma"][:, None, None], out),
                (np.add, out, w["beta"][:, None, None], out)]),
            lambda st, g, acts, w, dsts, scratch: (dsts, [
                (np.multiply, g, w["gamma"][:, None, None], dsts[0])]),
            _keeps_nothing),
    MAXPOOL: (_maxpool, _maxpool_grad, _keeps_source),
    AVGPOOL: (_avgpool, _avgpool_grad, _keeps_nothing),
    GAP: (lambda st, acts, out, w, scratch: (out, [
              (partial(np.mean, acts[st.source], axis=(1, 2), keepdims=True,
                        out=out),)]),
          _gap_grad, _keeps_nothing),
    ADD: (lambda st, acts, out, w, scratch: (out, [
              (np.add, acts[st.source], acts[st.refs[1]], out)]),
          lambda st, g, acts, w, dsts, scratch: ((g, g), []),
          _keeps_nothing),
    CMUL: (lambda st, acts, out, w, scratch: (out, [
               (np.multiply, acts[st.refs[1]],
                acts[st.source].reshape(-1)[:, None, None], out)]),
           _cmul_grad, lambda st: st.refs),
    FLATTEN: (lambda st, acts, out, w, scratch: (acts[st.source].reshape(-1), []),
              lambda st, g, acts, w, dsts, scratch: (
                  (g.reshape(acts[st.source].shape),), []),
              lambda st: (st.source, st.index)),
}


def _bind(st, acts, keep, scratch):
    """Bind layer ``st``'s forward over ``acts`` and return the ops that fill
    its output: slot ``st.index``, a fresh array if the slot is in ``keep``
    and one from ``scratch.take`` otherwise."""
    scratch.start()
    out = (np.empty(st.out_shape) if st.index in keep
           else scratch.take(st.out_shape))
    w = None if st.weight_key is None else _weights(st.weight_key, st.layer)
    acts[st.index], ops = _KERNELS[st.kind][0](st, acts, out, w, scratch)
    return ops


def _bind_prefix(model, upto, acts, keep, scratch, apply):
    """Bind layers [0, upto) over ``acts``, the activations in slot layout,
    and hand each layer's ops to ``apply`` before the next layer binds.

    After each layer, the slots in its ``Step.dead`` outside ``keep`` are
    given back to ``scratch`` and set to None. At the graph's end or at a
    partition point, which only a reference to slot upto - 1 crosses, that
    slot never dies and every other slot dies inside the prefix."""
    for st in model.schedule[:upto]:
        apply(_bind(st, acts, keep, scratch))
        for r in st.dead:
            if r not in keep:
                scratch.give(acts[r])
                acts[r] = None


def _kept(steps):
    """The slots whose values the backward of ``steps`` reads (``_KERNELS``)."""
    return {r for st in steps for r in _KERNELS[st.kind][2](st)}


def _bind_backward(model, st, acts, grads, scratch):
    """Bind layer ``st``'s backward over ``acts`` and ``grads`` and return
    its ops. It reads grads[st.index], which it then gives back to
    ``scratch``. A slot's first term is written into an array from
    ``scratch.take`` (the input's own array is always fresh), a later one
    into scratch and added."""
    scratch.start()
    g = grads[st.index]
    w = None if st.weight_key is None else _weights(st.weight_key, st.layer)
    dsts, later = [], []
    for r in st.refs:
        shape = model.input_shape if r < 0 else model.layers[r].output_shape
        later.append(grads[r] is not None)
        if later[-1]:
            dsts.append(scratch(shape))
        else:
            grads[r] = np.empty(shape) if r < 0 else scratch.take(shape)
            dsts.append(grads[r])
    terms, ops = _KERNELS[st.kind][1](st, g, acts, w, dsts, scratch)
    for r, dst, term, add in zip(st.refs, dsts, terms, later):
        if add:
            ops.append((np.add, grads[r], term, grads[r]))
        elif term is not dst:
            # a pass-through view of g: copied, so no gradient aliases g
            ops.append((np.copyto, dst, term))
    scratch.give(g)
    grads[st.index] = None
    return ops


def _bind_gradient(model, upto, acts, cot, scratch, apply):
    """Bind the backward of layers [0, upto) over ``acts``, from cotangent
    ``cot`` on slot upto - 1, and hand each layer's ops to ``apply`` before
    the next layer binds. Returns the input's gradient array, which holds
    the gradient once every op has been applied."""
    grads = [None] * (upto + 1)  # slot layout: the input's gradient is last
    grads[upto - 1] = cot
    for st in reversed(model.schedule[:upto]):
        if grads[st.index] is not None:  # else only read beyond the boundary
            apply(_bind_backward(model, st, acts, grads, scratch))
    # never None: every source lies below its layer, so every chain ends here
    return grads[-1]


class _Arena:
    """One enclave prefix bound, forward and backward, over arrays of its
    own. Write an input into ``x``, then ``run`` it; the boundary activation
    is ``feat``. ``gradient`` differentiates the last run; the gradient it
    returns is the arena's own array, rewritten only by its next
    ``gradient``.

    The arena keeps the input, the boundary activation and each activation
    its backward reads. Every other activation, and every gradient but the
    input's, is taken from ``scratch`` and given back after its last reader,
    so arenas bound over one sized ``_Scratch`` share those arrays; their
    values do not outlive one ``run`` or ``gradient``."""

    def __init__(self, model, boundary_label, scratch):
        b = model.boundary_of(boundary_label)
        self._where = f"model {model.name!r}"
        self._label = boundary_label
        self.x = np.empty(model.input_shape)
        self.acts = [None] * b + [self.x]
        fwd, bwd = [], []
        keep = {-1, b - 1, *_kept(model.schedule[:b])}
        _bind_prefix(model, b, self.acts, keep, scratch, fwd.extend)
        self.feat = self.acts[b - 1]
        self._cot = scratch.take(self.feat.shape)
        self._grad = _bind_gradient(model, b, self.acts, self._cot, scratch,
                                    bwd.extend)
        self._fwd = [(op[0], op[1:]) for op in fwd]
        self._bwd = [(op[0], op[1:]) for op in bwd]

    def run(self):
        require_tensor(self.x, name="model input")
        for f, args in self._fwd:
            f(*args)
        if not np.isfinite(self.feat).all():
            raise EngineError(f"{self._where}: non-finite activation at "
                              f"{self._label!r}")

    def gradient(self, cotangent):
        np.copyto(self._cot, require_tensor(cotangent, shape=self.feat.shape,
                                            name="cotangent"))
        for f, args in self._bwd:
            f(*args)
        if not np.isfinite(self._grad).all():
            raise EngineError(f"{self._where}: non-finite gradient")
        return self._grad


def _arenas(model, boundary_label):
    """Two arenas for the prefix up to ``boundary_label`` over one sized
    ``_Scratch``, sized by binding a third over a fresh one."""
    probe = _Scratch()
    _Arena(model, boundary_label, probe)
    scratch = _Scratch(probe.need)
    return (_Arena(model, boundary_label, scratch),
            _Arena(model, boundary_label, scratch))


# ---------------------------------------------------------------------------
# passes

def _run(model, x, upto, keep, what):
    """Run layers [0, upto) on fresh arrays, each layer's ops applied as
    soon as they are bound; returns the activations in slot layout, None in
    each slot outside ``keep`` that has died (``_bind_prefix``)."""
    acts = [None] * upto + [require_tensor(x, shape=model.input_shape,
                                           name="model input")]
    _bind_prefix(model, upto, acts, keep, _Scratch(), _call)
    if not np.isfinite(acts[upto - 1]).all():
        raise EngineError(f"model {model.name!r}: non-finite {what}")
    return acts


def forward(model, x):
    """Run the whole graph; returns the final activation."""
    n = len(model.layers)
    return _run(model, x, n, (), "output")[n - 1]


def forward_until(model, x, boundary_label):
    """Run the enclave-side prefix only; returns the exposed feature map."""
    b = model.boundary_of(boundary_label)
    return _run(model, x, b, (), f"activation at {boundary_label!r}")[b - 1]


def input_gradient(model, boundary_label, x, cotangent):
    """Gradient of <boundary activation, cotangent> with respect to the input.

    Reverse-mode over the executed prefix; parameters are treated as
    constants.
    """
    b = model.boundary_of(boundary_label)
    acts = _run(model, x, b, _kept(model.schedule[:b]),
                f"activation at {boundary_label!r}")
    cot = require_tensor(cotangent, shape=acts[b - 1].shape, name="cotangent")
    gx = _bind_gradient(model, b, acts, cot, _Scratch(), _call)
    if not np.isfinite(gx).all():
        raise EngineError(f"model {model.name!r}: non-finite gradient")
    return gx
