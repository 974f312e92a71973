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
blocks of whole output rows of at most ``_COLS_BLOCK_BYTES`` (8 MB; one row
when a row alone is larger), each product written into its slice of the
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
by kind, seed, init and those shapes, so the two halves of a split share the
original layers' weights.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import (ADD, AVGPOOL, BNORM, CMUL, CONV, DWCONV, ELEMENT_SIZE, FC,
                    FLATTEN, GAP, MAXPOOL, RELU, SIGMOID, SWISH, _refs,
                    source_of, weight_shapes)
from .tensors import require_tensor


class EngineError(ValueError):
    """Raised for invalid inputs to the execution engine."""


# bytes of im2col columns per forward block (see the module docstring)
_COLS_BLOCK_BYTES = 8 << 20
# bytes of _col2im's per-offset planes per channel block (see above)
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


def layer_weights(layer):
    """Materialized weights for a parameterized layer (cached; treat as
    read-only). Returns None for parameterless kinds."""
    shapes = weight_shapes(layer)
    if not shapes:
        return None
    p = layer.params
    # the shapes fix every parameter the weights depend on besides these
    key = (layer.kind, p.get("seed", 0), p.get("init", "he"), *shapes.values())
    got = _WEIGHTS.get(key)
    if got is None:
        got = _materialize(layer)
        for arr in got.values():
            arr.setflags(write=False)
        _WEIGHTS[key] = got
    return got


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
        xp = np.full((c, h + 2 * pad, w + 2 * pad), fill, dtype=x.dtype)
        xp[:, pad:pad + h, pad:pad + w] = x
    oh, ow = ((n - k) // stride + 1 for n in xp.shape[1:])
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


def _conv_fwd(layer, x):
    p = layer.params
    w = layer_weights(layer)
    o = p["out_channels"]
    win = _windows(x, p["kernel"], p["stride"], p["padding"])
    c, oh, ow, k, _ = win.shape
    wmat = w["w"].reshape(o, -1)
    out = np.empty((o, oh * ow))
    rows = max(1, _COLS_BLOCK_BYTES // (c * k * k * ow * 8))
    for r in range(0, oh, rows):
        # (C*k*k, rows*OW) columns: each copied run is a whole output row,
        # and a one-block 1x1 stride-1 unpadded view is already contiguous
        cols = np.ascontiguousarray(win[:, r:r + rows].transpose(0, 3, 4, 1, 2))
        cols = cols.reshape(c * k * k, -1)
        np.matmul(wmat, cols, out=out[:, r * ow:r * ow + cols.shape[1]])
    out += w["b"][:, None]
    return out.reshape(o, oh, ow)


def _conv_bwd(layer, g, x):
    p = layer.params
    w = layer_weights(layer)["w"]
    k = p["kernel"]
    o, oh, ow = g.shape
    gcols = w.reshape(o, -1).T @ g.reshape(o, oh * ow)  # (C*k*k, OH*OW)
    gwin = gcols.reshape(p["in_channels"], k, k, oh, ow).transpose(0, 3, 4, 1, 2)
    return _col2im(gwin, x.shape, p["stride"], p["padding"])


def _dwconv_fwd(layer, x):
    p = layer.params
    w = layer_weights(layer)
    k = p["kernel"]
    win = _windows(x, k, p["stride"], p["padding"])
    # one (C, OH, OW) slab per kernel offset, in _col2im's row-major order
    out = np.zeros(win.shape[:3])
    for i in range(k):
        for j in range(k):
            out += win[:, :, :, i, j] * w["w"][:, i, j, None, None]
    out += w["b"][:, None, None]
    return out


def _dwconv_bwd(layer, g, x):
    p = layer.params
    w = layer_weights(layer)["w"]
    # (k, k, C, OH, OW) products, viewed as (C, OH, OW, k, k)
    gwin = (w.transpose(1, 2, 0)[:, :, :, None, None] * g).transpose(2, 3, 4, 0, 1)
    return _col2im(gwin, x.shape, p["stride"], p["padding"])


def _maxpool_fwd(layer, x):
    p = layer.params
    k = p["kernel"]
    win = _windows(x, k, p["stride"], p.get("padding", 0), fill=-np.inf)
    out = win[:, :, :, 0, 0].copy()
    # on a tie np.maximum returns its second operand: the earlier offset
    for i in range(k):
        for j in range(k):
            if i or j:
                np.maximum(win[:, :, :, i, j], out, out=out)
    return out


def _maxpool_bwd(layer, g, x):
    """Route each window's gradient to its first argmax, recomputed from the
    input; ``bincount`` sums the terms of a pixel in window order from zero."""
    p = layer.params
    k, s, pad = p["kernel"], p["stride"], p.get("padding", 0)
    win = _windows(x, k, s, pad, fill=-np.inf)
    c, oh, ow = win.shape[:3]
    hp, wp = x.shape[1] + 2 * pad, x.shape[2] + 2 * pad
    idx = np.argmax(win.reshape(c, oh, ow, k * k), axis=-1)
    # flat padded index: window corner plus the argmax's offset in the window
    corner = np.arange(c * hp * wp).reshape(c, hp, wp)[:, :s * oh:s, :s * ow:s]
    offset = (np.arange(k)[:, None] * wp + np.arange(k)).ravel()
    xpg = np.bincount((corner + offset[idx]).ravel(), weights=g.ravel(),
                      minlength=c * hp * wp).reshape(c, hp, wp)
    return xpg[:, pad:pad + x.shape[1], pad:pad + x.shape[2]] if pad else xpg


def _sigmoid(x):
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _forward_layer(layer, x, acts):
    """Output of one layer from its source ``x`` and, by reference, ``acts``."""
    kind = layer.kind
    p = layer.params
    if kind == CONV:
        return _conv_fwd(layer, x)
    if kind == DWCONV:
        return _dwconv_fwd(layer, x)
    if kind == FC:
        w = layer_weights(layer)
        return w["w"] @ x.reshape(-1) + w["b"]
    if kind == RELU:
        return np.maximum(x, 0.0)
    if kind == SWISH:
        return x * _sigmoid(x)
    if kind == SIGMOID:
        return _sigmoid(x)
    if kind == BNORM:
        w = layer_weights(layer)
        return x * w["gamma"][:, None, None] + w["beta"][:, None, None]
    if kind == MAXPOOL:
        return _maxpool_fwd(layer, x)
    if kind == AVGPOOL:
        win = _windows(x, p["kernel"], p["stride"], p.get("padding", 0))
        return np.ascontiguousarray(win.mean(axis=(-2, -1)))
    if kind == GAP:
        return x.mean(axis=(1, 2), keepdims=True)
    if kind == ADD:
        return x + acts[p["skip_source"]]
    if kind == CMUL:
        return acts[p["map_source"]] * x.reshape(-1)[:, None, None]
    if kind == FLATTEN:
        return x.reshape(-1)
    raise EngineError(f"layer {layer.name!r}: unknown kind {kind!r}")


def _backward_layer(layer, g, x, acts):
    """Returns (grad wrt input, [(ref_index, grad) for extra operands])."""
    kind = layer.kind
    p = layer.params
    if kind == CONV:
        return _conv_bwd(layer, g, x), []
    if kind == DWCONV:
        return _dwconv_bwd(layer, g, x), []
    if kind == FC:
        w = layer_weights(layer)["w"]
        return (w.T @ g).reshape(x.shape), []
    if kind == RELU:
        return g * (x > 0.0), []
    if kind == SWISH:
        s = _sigmoid(x)
        return g * (s + x * s * (1.0 - s)), []
    if kind == SIGMOID:
        s = _sigmoid(x)
        return g * s * (1.0 - s), []
    if kind == BNORM:
        return g * layer_weights(layer)["gamma"][:, None, None], []
    if kind == MAXPOOL:
        return _maxpool_bwd(layer, g, x), []
    if kind == AVGPOOL:
        k = p["kernel"]
        gwin = np.broadcast_to((g / (k * k))[..., None, None], g.shape + (k, k))
        return _col2im(gwin, x.shape, p["stride"], p.get("padding", 0)), []
    if kind == GAP:
        h, w = x.shape[1], x.shape[2]
        return np.ascontiguousarray(np.broadcast_to(g / (h * w), x.shape)), []
    if kind == ADD:
        return g, [(p["skip_source"], g)]
    if kind == CMUL:
        u = acts[p["map_source"]]
        gate = x.reshape(-1)
        g_gate = (g * u).sum(axis=(1, 2)).reshape(x.shape)
        return g_gate, [(p["map_source"], g * gate[:, None, None])]
    if kind == FLATTEN:
        return g.reshape(x.shape), []
    raise EngineError(f"layer {layer.name!r}: unknown kind {kind!r}")


def _run(model, x, upto, release=False):
    """Execute layers [0, upto); returns the activations in slot layout.

    With ``release`` (only ``forward`` sets it) each slot, the input's
    included, is dropped after its last reader; only slot upto - 1 stays."""
    acts = [None] * upto + [x]
    if release:
        # last[r]: the last layer to read slot r; a slot no layer reads dies
        # where it is made, and the result is never dropped
        last = list(range(upto + 1))
        for i, layer in enumerate(model.layers[:upto]):
            for _, r in _refs(layer, i):
                last[r] = i
        last[upto - 1] = upto
        dead = [[] for _ in range(upto + 1)]
        for r, i in enumerate(last):
            dead[i].append(r)
    for i in range(upto):
        layer = model.layers[i]
        acts[i] = _forward_layer(layer, acts[source_of(layer, i)], acts)
        if release:
            for r in dead[i]:
                acts[r] = None
    return acts


def forward(model, x):
    """Run the whole graph; returns the final activation."""
    x = require_tensor(x, shape=model.input_shape, name="model input")
    n = len(model.layers)
    out = _run(model, x, n, release=True)[n - 1]
    if not np.all(np.isfinite(out)):
        raise EngineError(f"model {model.name!r}: non-finite output")
    return out


def _prefix(model, x, boundary_label):
    """Run the enclave-side prefix; returns (boundary index, activations),
    the state ``_prefix_gradient`` differentiates."""
    x = require_tensor(x, shape=model.input_shape, name="model input")
    b = model.boundary_of(boundary_label)
    acts = _run(model, x, b)
    if not np.all(np.isfinite(acts[b - 1])):
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
    for i in range(upto - 1, -1, -1):
        g = grads[i]
        if g is None:
            continue  # activation only consumed beyond the boundary
        layer = model.layers[i]
        src = source_of(layer, i)
        g_in, extras = _backward_layer(layer, g, acts[src], acts)
        for r, ge in ((src, g_in), *extras):
            # the first term is copied, so no gradient aliases ``cot``
            grads[r] = ge.copy() if grads[r] is None else grads[r] + ge
    # never None: every source lies below its layer, so every chain ends here
    gx = grads[-1]
    if not np.all(np.isfinite(gx)):
        raise EngineError(f"model {model.name!r}: non-finite gradient")
    return gx
