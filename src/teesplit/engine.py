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
identical to running the unsplit chain.

The forward pass streams its memory. Columns are built and multiplied in
blocks of whole output rows of at most ``graph._COLS_BLOCK_BYTES`` (8 MB;
one row when a row alone is larger), each product written into its slice of the
preallocated output. The budget sits below glibc's 32 MB ceiling on its
dynamic mmap threshold, so blocks are recycled from the heap instead of
being page-faulted fresh on every call; a layer whose columns fit is a
single block. ``forward`` also drops each activation after the last layer
that reads it. ``forward_until``, ``input_gradient`` and the attack keep
every activation for the backward pass.

Activations, and the gradients of the backward pass, are held the way
layers reference them: one slot per layer, then the graph input, so a
reference r (-1 for the input) reads slot r. The backward pass reads
nothing but those activations; Swish and Sigmoid recompute their sigmoid.

The backward pass of conv, depthwise conv and average pooling is one
``_col2im``: each kernel offset's window gradients are placed on a zeroed
padded plane of their own in a single strided assignment, and the k*k
planes are summed offset by offset in row-major order from +0.0. The planes
are built in blocks of whole channels of at most ``_PLANES_BLOCK_BYTES``
(1 MB; one channel when a channel alone is larger).

Subgradient conventions at kinks: ReLU propagates zero at exactly zero;
max pooling routes the gradient to the window argmax, ties broken toward
the lowest flat index. The forward keeps no argmax: it is a running
``np.maximum`` over the offsets, and the backward recomputes the argmax
from the kept input and sums each pixel's terms in window order with
``np.bincount``.

The inversion attack in ``privacy`` reuses prefix activations: each step's
input gradient comes from the accepted candidate's kept activations.

Weights are materialized lazily from each layer's seed (He-style fan-in
scaling, zero biases) in the layout ``graph.weight_shapes`` gives, and cached
by ``graph.weight_key`` (kind, seed, init and those shapes), so the two
halves of a split share the original layers' weights.

Every pass walks the graph's ``schedule``, computed once per ``ModelGraph``
and kept on it: per layer, the slots it reads, the slots that die after it,
its weight key, and its geometry (kernel, stride, padding, input and output
shapes, and a conv's rows per column block). Each layer's kind picks its
forward and backward from ``_KERNELS``, so a pass re-derives nothing about
the graph. The schedule deliberately holds no weights: they are looked up
in ``_WEIGHTS`` by key once per layer and pass, so clearing that cache (or
drawing other weights into it) takes effect on a graph already compiled,
and the cache alone decides how many weights are kept. Nor does it hold
anything activation-sized, such as max pooling's index maps: a graph that
only runs forward, or is only split, would carry them for nothing, so
compiling costs O(layers) in scalars.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import (ADD, AVGPOOL, BNORM, CMUL, CONV, DWCONV, ELEMENT_SIZE, FC,
                    FLATTEN, GAP, MAXPOOL, RELU, SIGMOID, SWISH, weight_key,
                    weight_shapes)
from .tensors import require_tensor


class EngineError(ValueError):
    """Raised for invalid inputs to the execution engine."""


# bytes of _col2im's per-offset planes per channel block (see the module
# docstring)
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
# forward

def _windows(x, k, stride, pad, fill=0.0):
    """Read-only (C, OH, OW, k, k) view of the k x k windows of ``x`` padded
    by ``pad`` on each spatial side with ``fill``, taken at ``stride``."""
    c, h, w = x.shape
    xp = np.ascontiguousarray(x)  # same strides as a padded copy
    if pad:
        shape = (c, h + 2 * pad, w + 2 * pad)
        # np.zeros is one C call where np.full is a Python function
        xp = (np.full(shape, fill, dtype=x.dtype) if fill
              else np.zeros(shape, dtype=x.dtype))
        xp[:, pad:pad + h, pad:pad + w] = x
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    sc, sh, sw = xp.strides
    win = np.ndarray((c, oh, ow, k, k), xp.dtype, xp, 0,
                     (sc, sh * stride, sw * stride, sh, sw))
    win.flags.writeable = False
    return win


def _col2im(gwin, x_shape, s, pad):
    """Adjoint of ``_windows``: scatter-add window gradients (C, OH, OW, k, k)
    onto the padded input, offset by offset in row-major order; crop. A sum
    from +0.0 is never -0.0, so the planes' extra +0.0 terms change no bit."""
    c, oh, ow, k, _ = gwin.shape
    h, w = x_shape[1], x_shape[2]
    hp, wp = h + 2 * pad, w + 2 * pad
    xpg = np.empty((c, hp, wp))
    cb = max(1, _PLANES_BLOCK_BYTES // (k * k * hp * wp * 8))
    planes = np.zeros((k, k, min(cb, c), hp, wp))
    p0, p1, p2, p3, p4 = planes.strides
    for c0 in range(0, c, cb):
        n = min(cb, c - c0)
        # window value (ch, y, x, i, j) lands on plane (i, j) at
        # (ch, y*s + i, x*s + j); every block writes the same positions
        np.ndarray((n, oh, ow, k, k), planes.dtype, planes, 0,
                   (p2, s * p3, s * p4, p0 + p3, p1 + p4))[...] = gwin[c0:c0 + n]
        np.add.reduce(planes[:, :, :n].reshape(k * k, n, hp, wp), axis=0,
                      initial=0.0, out=xpg[c0:c0 + n])
    return xpg[:, pad:pad + h, pad:pad + w] if pad else xpg


def _conv_fwd(st, x, w, acts):
    win = _windows(x, st.kernel, st.stride, st.padding)
    o, oh, ow = st.out_shape
    wmat = w["w"].reshape(o, -1)
    out = np.empty((o, oh * ow))
    rows = st.rows
    for r in range(0, oh, rows):
        # (C*k*k, rows*OW) columns: each copied run is a whole output row,
        # and a one-block 1x1 stride-1 unpadded view is already contiguous
        cols = np.ascontiguousarray(win[:, r:r + rows].transpose(0, 3, 4, 1, 2))
        cols = cols.reshape(wmat.shape[1], -1)
        np.matmul(wmat, cols, out=out[:, r * ow:r * ow + cols.shape[1]])
    out += w["b"][:, None]
    return out.reshape(o, oh, ow)


def _conv_bwd(st, g, x, w, acts):
    k = st.kernel
    o, oh, ow = st.out_shape
    gcols = w["w"].reshape(o, -1).T @ g.reshape(o, oh * ow)  # (C*k*k, OH*OW)
    gwin = gcols.reshape(st.in_shape[0], k, k, oh, ow).transpose(0, 3, 4, 1, 2)
    return (_col2im(gwin, st.in_shape, st.stride, st.padding),)


def _dwconv_fwd(st, x, w, acts):
    k = st.kernel
    win = _windows(x, k, st.stride, st.padding)
    # one (C, OH, OW) slab per kernel offset, in _col2im's row-major order
    out = np.zeros(st.out_shape)
    for i in range(k):
        for j in range(k):
            out += win[:, :, :, i, j] * w["w"][:, i, j, None, None]
    out += w["b"][:, None, None]
    return out


def _dwconv_bwd(st, g, x, w, acts):
    # (k, k, C, OH, OW) products, viewed as (C, OH, OW, k, k)
    gwin = (w["w"].transpose(1, 2, 0)[:, :, :, None, None] * g).transpose(2, 3, 4, 0, 1)
    return (_col2im(gwin, st.in_shape, st.stride, st.padding),)


def _maxpool_fwd(st, x, w, acts):
    k = st.kernel
    win = _windows(x, k, st.stride, st.padding, fill=-np.inf)
    out = win[:, :, :, 0, 0].copy()
    # on a tie np.maximum returns its second operand: the earlier offset
    for i in range(k):
        for j in range(k):
            if i or j:
                np.maximum(win[:, :, :, i, j], out, out=out)
    return out


def _maxpool_bwd(st, g, x, w, acts):
    """Route each window's gradient to its first argmax, recomputed from the
    input; ``bincount`` sums the terms of a pixel in window order from zero."""
    k, s, pad = st.kernel, st.stride, st.padding
    win = _windows(x, k, s, pad, fill=-np.inf)
    c, oh, ow = st.out_shape
    _, h, wd = st.in_shape
    hp, wp = h + 2 * pad, wd + 2 * pad
    idx = win.reshape(c, oh, ow, k * k).argmax(axis=-1)
    # flat padded index: window corner plus the argmax's offset in the window
    corner = np.arange(c * hp * wp).reshape(c, hp, wp)[:, :s * oh:s, :s * ow:s]
    offset = (np.arange(k)[:, None] * wp + np.arange(k)).ravel()
    xpg = np.bincount((corner + offset[idx]).ravel(), weights=g.ravel(),
                      minlength=c * hp * wp).reshape(c, hp, wp)
    return (xpg[:, pad:pad + h, pad:pad + wd] if pad else xpg,)


def _avgpool_fwd(st, x, w, acts):
    win = _windows(x, st.kernel, st.stride, st.padding)
    return np.ascontiguousarray(win.mean(axis=(-2, -1)))


def _avgpool_bwd(st, g, x, w, acts):
    k = st.kernel
    gwin = np.broadcast_to((g / (k * k))[..., None, None], g.shape + (k, k))
    return (_col2im(gwin, st.in_shape, st.stride, st.padding),)


def _sigmoid(x):
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _swish_bwd(st, g, x, w, acts):
    s = _sigmoid(x)
    return (g * (s + x * s * (1.0 - s)),)


def _sigmoid_bwd(st, g, x, w, acts):
    s = _sigmoid(x)
    return (g * s * (1.0 - s),)


def _gap_bwd(st, g, x, w, acts):
    _, h, wd = st.in_shape
    return (np.ascontiguousarray(np.broadcast_to(g / (h * wd), st.in_shape)),)


def _cmul_bwd(st, g, x, w, acts):
    u = acts[st.refs[1]]
    gate = x.reshape(-1)
    return (g * u).sum(axis=(1, 2)).reshape(x.shape), g * gate[:, None, None]


# kind -> (forward, backward). A forward takes (step, source activation,
# weights or None, activations) and returns the layer's output; a backward
# takes (step, output gradient, source activation, weights, activations)
# and returns one gradient per slot in ``step.refs``, in that order.
_KERNELS = {
    CONV: (_conv_fwd, _conv_bwd),
    DWCONV: (_dwconv_fwd, _dwconv_bwd),
    FC: (lambda st, x, w, acts: w["w"] @ x.reshape(-1) + w["b"],
         lambda st, g, x, w, acts: ((w["w"].T @ g).reshape(x.shape),)),
    RELU: (lambda st, x, w, acts: np.maximum(x, 0.0),
           lambda st, g, x, w, acts: (g * (x > 0.0),)),
    SWISH: (lambda st, x, w, acts: x * _sigmoid(x), _swish_bwd),
    SIGMOID: (lambda st, x, w, acts: _sigmoid(x), _sigmoid_bwd),
    BNORM: (lambda st, x, w, acts: (x * w["gamma"][:, None, None]
                                    + w["beta"][:, None, None]),
            lambda st, g, x, w, acts: (g * w["gamma"][:, None, None],)),
    MAXPOOL: (_maxpool_fwd, _maxpool_bwd),
    AVGPOOL: (_avgpool_fwd, _avgpool_bwd),
    GAP: (lambda st, x, w, acts: x.mean(axis=(1, 2), keepdims=True), _gap_bwd),
    ADD: (lambda st, x, w, acts: x + acts[st.refs[1]],
          lambda st, g, x, w, acts: (g, g)),
    CMUL: (lambda st, x, w, acts: acts[st.refs[1]] * x.reshape(-1)[:, None, None],
           _cmul_bwd),
    FLATTEN: (lambda st, x, w, acts: x.reshape(-1),
              lambda st, g, x, w, acts: (g.reshape(x.shape),)),
}
# kinds whose backward may return (a view of) its output gradient
_PASS_THROUGH = (ADD, FLATTEN)


def _run(model, x, upto, release=False):
    """Execute layers [0, upto); returns the activations in slot layout.

    With ``release`` (only ``forward`` sets it) each slot, the input's
    included, is dropped after its last reader in the whole graph; slot
    upto - 1 stays, and a prefix keeps the slots that later layers read."""
    acts = [None] * upto + [x]
    for st in model.schedule[:upto]:
        w = None if st.weight_key is None else _weights(st.weight_key, st.layer)
        acts[st.index] = out = _KERNELS[st.kind][0](st, acts[st.source], w, acts)
        if release:
            for r in st.dead:
                acts[r] = None
    if release:
        acts[upto - 1] = out
    return acts


def forward(model, x):
    """Run the whole graph; returns the final activation."""
    x = require_tensor(x, shape=model.input_shape, name="model input")
    n = len(model.layers)
    out = _run(model, x, n, release=True)[n - 1]
    if not np.isfinite(out).all():
        raise EngineError(f"model {model.name!r}: non-finite output")
    return out


def _prefix(model, x, boundary_label):
    """Run the enclave-side prefix; returns (boundary index, activations),
    the state ``_prefix_gradient`` differentiates."""
    x = require_tensor(x, shape=model.input_shape, name="model input")
    b = model.boundary_of(boundary_label)
    acts = _run(model, x, b)
    if not np.isfinite(acts[b - 1]).all():
        raise EngineError(f"model {model.name!r}: non-finite activation at "
                          f"{boundary_label!r}")
    return b, acts


def _prefix_gradient(model, state, cotangent):
    """``input_gradient`` for a ``_prefix`` state, without re-running it."""
    b, acts = state
    cot = require_tensor(cotangent, shape=acts[b - 1].shape, name="cotangent")
    return _backward(model, acts, b, cot)


def forward_until(model, x, boundary_label):
    """Run the enclave-side prefix only; returns the exposed feature map."""
    b, acts = _prefix(model, x, boundary_label)
    return acts[b - 1]


def input_gradient(model, boundary_label, x, cotangent):
    """Gradient of <boundary activation, cotangent> with respect to the input.

    Reverse-mode over the executed prefix; parameters are treated as
    constants.
    """
    return _prefix_gradient(model, _prefix(model, x, boundary_label), cotangent)


def _backward(model, acts, upto, cot):
    grads = [None] * (upto + 1)  # slot layout: the input's gradient is last
    grads[upto - 1] = cot
    for st in reversed(model.schedule[:upto]):
        g = grads[st.index]
        if g is None:
            continue  # activation only consumed beyond the boundary
        w = None if st.weight_key is None else _weights(st.weight_key, st.layer)
        terms = _KERNELS[st.kind][1](st, g, acts[st.source], w, acts)
        for r, ge in zip(st.refs, terms):
            if grads[r] is not None:
                grads[r] = grads[r] + ge
            elif st.kind in _PASS_THROUGH:
                grads[r] = ge.copy()  # so no gradient aliases ``cot``
            else:
                grads[r] = ge  # every other backward returns fresh memory
    # never None: every source lies below its layer, so every chain ends here
    gx = grads[-1]
    if not np.isfinite(gx).all():
        raise EngineError(f"model {model.name!r}: non-finite gradient")
    return gx
