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

Subgradient conventions at kinks: ReLU propagates zero at exactly zero;
max pooling routes the gradient to the window argmax, ties broken toward
the lowest flat index.

The inversion attack in ``privacy`` reuses prefix activations: each step's
input gradient comes from the accepted candidate's kept activations.

Weights are materialized lazily from each layer's seed (He-style fan-in
scaling, zero biases) and cached by structural identity, so the two halves
of a split share the original layers' weights.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .graph import (ADD, AVGPOOL, BNORM, CMUL, CONV, DWCONV, FC, FLATTEN, GAP,
                    MAXPOOL, RELU, SIGMOID, SWISH)
from .tensors import require_tensor


class EngineError(ValueError):
    """Raised for invalid inputs to the execution engine."""


_WEIGHTS = {}


def _weight_key(layer):
    p = layer.params
    if layer.kind == CONV:
        return (CONV, p.get("seed", 0), p.get("init", "he"), p["in_channels"],
                p["out_channels"], p["kernel"])
    if layer.kind == DWCONV:
        return (DWCONV, p.get("seed", 0), p["channels"], p["kernel"])
    if layer.kind == FC:
        return (FC, p.get("seed", 0), p["in_features"], p["units"])
    if layer.kind == BNORM:
        return (BNORM, p.get("seed", 0), p["channels"])
    return None


def _materialize(layer):
    p = layer.params
    rng = np.random.default_rng(p.get("seed", 0))
    if layer.kind == CONV:
        o, c, k = p["out_channels"], p["in_channels"], p["kernel"]
        if p.get("init") == "identity":
            w = np.zeros((o, c, k, k))
            for ch in range(o):
                w[ch, ch, k // 2, k // 2] = 1.0
        else:
            fan_in = c * k * k
            w = rng.standard_normal((o, c, k, k)) * np.sqrt(2.0 / fan_in)
        return {"w": w, "b": np.zeros(o)}
    if layer.kind == DWCONV:
        c, k = p["channels"], p["kernel"]
        w = rng.standard_normal((c, k, k)) * np.sqrt(2.0 / (k * k))
        return {"w": w, "b": np.zeros(c)}
    if layer.kind == FC:
        n, m = p["in_features"], p["units"]
        w = rng.standard_normal((m, n)) * np.sqrt(2.0 / n)
        return {"w": w, "b": np.zeros(m)}
    if layer.kind == BNORM:
        c = p["channels"]
        return {"gamma": rng.uniform(0.9, 1.1, c),
                "beta": rng.standard_normal(c) * 0.05}
    return None


def layer_weights(layer):
    """Materialized weights for a parameterized layer (cached; treat as
    read-only). Returns None for parameterless kinds."""
    key = _weight_key(layer)
    if key is None:
        return None
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
    p = layer.params
    if layer.kind == CONV:
        return p["out_channels"] * (p["in_channels"] * p["kernel"] ** 2 + 1)
    if layer.kind == DWCONV:
        return p["channels"] * (p["kernel"] ** 2 + 1)
    if layer.kind == FC:
        return p["units"] * (p["in_features"] + 1)
    if layer.kind == BNORM:
        return 2 * p["channels"]
    return 0


def model_param_bytes(model, lo, hi, element_size=4):
    return sum(param_count(layer) for layer in model.layers[lo:hi]) * element_size


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
    return as_strided(xp, (c, oh, ow, k, k),
                      (sc, sh * stride, sw * stride, sh, sw), writeable=False)


def _col2im(gwin, x_shape, s, pad):
    """Adjoint of ``_windows``: scatter-add window gradients (C, OH, OW, k, k)
    onto the padded input, offset by offset in row-major order; crop."""
    c, oh, ow, k, _ = gwin.shape
    h, w = x_shape[1], x_shape[2]
    xpg = np.zeros((c, h + 2 * pad, w + 2 * pad))
    for i in range(k):
        for j in range(k):
            xpg[:, i:i + s * oh:s, j:j + s * ow:s] += gwin[:, :, :, i, j]
    return xpg[:, pad:pad + h, pad:pad + w] if pad else xpg


def _conv_fwd(layer, x):
    p = layer.params
    w = layer_weights(layer)
    win = _windows(x, p["kernel"], p["stride"], p["padding"])
    c, oh, ow, k, _ = win.shape
    # (C*k*k, OH*OW) columns: each copied run is a whole output row, and a
    # 1x1 stride-1 unpadded view is already contiguous, so nothing is copied
    cols = np.ascontiguousarray(win.transpose(0, 3, 4, 1, 2)).reshape(
        c * k * k, oh * ow)
    out = w["w"].reshape(p["out_channels"], -1) @ cols
    out += w["b"][:, None]
    return out.reshape(p["out_channels"], oh, ow)


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
    return out, None


def _dwconv_bwd(layer, g, x):
    p = layer.params
    w = layer_weights(layer)["w"]
    # (k, k, C, OH, OW) products, viewed as (C, OH, OW, k, k)
    gwin = (w.transpose(1, 2, 0)[:, :, :, None, None] * g).transpose(2, 3, 4, 0, 1)
    return _col2im(gwin, x.shape, p["stride"], p["padding"])


def _sigmoid(x):
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _forward_layer(layer, x, act_of):
    """Returns (output, aux) where aux holds whatever backward needs."""
    kind = layer.kind
    p = layer.params
    if kind == CONV:
        return _conv_fwd(layer, x), None
    if kind == DWCONV:
        return _dwconv_fwd(layer, x)
    if kind == FC:
        w = layer_weights(layer)
        return w["w"] @ x.reshape(-1) + w["b"], None
    if kind == RELU:
        return np.maximum(x, 0.0), None
    if kind == SWISH:
        s = _sigmoid(x)
        return x * s, s
    if kind == SIGMOID:
        s = _sigmoid(x)
        return s, s
    if kind == BNORM:
        w = layer_weights(layer)
        expand = (slice(None),) + (None,) * (x.ndim - 1)
        return x * w["gamma"][expand] + w["beta"][expand], None
    if kind == MAXPOOL:
        k, s, pad = p["kernel"], p["stride"], p.get("padding", 0)
        win = _windows(x, k, s, pad, fill=-np.inf)
        flat = win.reshape(win.shape[:3] + (k * k,))
        idx = np.argmax(flat, axis=-1)
        out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
        return np.ascontiguousarray(out), idx
    if kind == AVGPOOL:
        k, s, pad = p["kernel"], p["stride"], p.get("padding", 0)
        win = _windows(x, k, s, pad)
        return np.ascontiguousarray(win.mean(axis=(-2, -1))), None
    if kind == GAP:
        return x.mean(axis=(1, 2), keepdims=True), None
    if kind == ADD:
        return x + act_of(p["skip_source"]), None
    if kind == CMUL:
        u = act_of(p["map_source"])
        return u * x.reshape(-1)[:, None, None], None
    if kind == FLATTEN:
        return x.reshape(-1), None
    raise EngineError(f"layer {layer.name!r}: unknown kind {kind!r}")


def _backward_layer(layer, g, x, aux, act_of):
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
        s = aux
        return g * (s + x * s * (1.0 - s)), []
    if kind == SIGMOID:
        s = aux
        return g * s * (1.0 - s), []
    if kind == BNORM:
        gamma = layer_weights(layer)["gamma"]
        expand = (slice(None),) + (None,) * (x.ndim - 1)
        return g * gamma[expand], []
    if kind == MAXPOOL:
        k, s, pad = p["kernel"], p["stride"], p.get("padding", 0)
        c, oh, ow = g.shape
        idx = aux
        xpg = np.zeros((c, x.shape[1] + 2 * pad, x.shape[2] + 2 * pad))
        ci, oi, oj = np.indices((c, oh, ow))
        rows = oi * s + idx // k
        cols = oj * s + idx % k
        np.add.at(xpg, (ci, rows, cols), g)
        out = xpg[:, pad:pad + x.shape[1], pad:pad + x.shape[2]] if pad else xpg
        return out, []
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
        u = act_of(p["map_source"])
        gate = x.reshape(-1)
        g_gate = (g * u).sum(axis=(1, 2)).reshape(x.shape)
        return g_gate, [(p["map_source"], g * gate[:, None, None])]
    if kind == FLATTEN:
        return g.reshape(x.shape), []
    raise EngineError(f"layer {layer.name!r}: unknown kind {kind!r}")


def _run(model, x, upto):
    """Execute layers [0, upto), returning per-layer activations and aux."""
    acts = []
    auxs = []

    def act_of(idx):
        return x if idx == -1 else acts[idx]

    for i in range(upto):
        layer = model.layers[i]
        src = i - 1 if layer.source is None else layer.source
        out, aux = _forward_layer(layer, act_of(src), act_of)
        acts.append(out)
        auxs.append(aux)
    return acts, auxs


def forward(model, x):
    """Run the whole graph; returns the final activation."""
    x = require_tensor(x, shape=model.input_shape, name="model input")
    acts, _ = _run(model, x, len(model.layers))
    out = acts[-1]
    if not np.all(np.isfinite(out)):
        raise EngineError(f"model {model.name!r}: non-finite output")
    return out


def _prefix(model, x, boundary_label):
    """Run the enclave-side prefix; returns (checked input, boundary index,
    activations, aux), the state ``_prefix_gradient`` differentiates."""
    x = require_tensor(x, shape=model.input_shape, name="model input")
    b = model.boundary_of(boundary_label)
    acts, auxs = _run(model, x, b)
    if not np.all(np.isfinite(acts[b - 1])):
        raise EngineError(f"model {model.name!r}: non-finite activation at "
                          f"{boundary_label!r}")
    return x, b, acts, auxs


def _prefix_gradient(model, state, cotangent):
    """``input_gradient`` for a ``_prefix`` state, without re-running it."""
    x, b, acts, auxs = state
    cot = require_tensor(cotangent, shape=acts[b - 1].shape, name="cotangent")
    return _backward(model, x, acts, auxs, b, cot)


def forward_until(model, x, boundary_label):
    """Run the enclave-side prefix only; returns the exposed feature map."""
    _, b, acts, _ = _prefix(model, x, boundary_label)
    return acts[b - 1]


def input_gradient(model, boundary_label, x, cotangent):
    """Gradient of <boundary activation, cotangent> with respect to the input.

    Reverse-mode over the executed prefix; parameters are treated as
    constants.
    """
    return _prefix_gradient(model, _prefix(model, x, boundary_label), cotangent)


def _backward(model, x, acts, auxs, upto, cot):
    def act_of(idx):
        return x if idx == -1 else acts[idx]

    grads = [None] * upto
    grads[upto - 1] = cot
    gx = None

    def accumulate(idx, g):
        nonlocal gx
        if idx == -1:
            gx = g.copy() if gx is None else gx + g
        elif grads[idx] is None:
            grads[idx] = g.copy()
        else:
            grads[idx] = grads[idx] + g

    for i in range(upto - 1, -1, -1):
        g = grads[i]
        if g is None:
            continue  # activation only consumed beyond the boundary
        layer = model.layers[i]
        src = i - 1 if layer.source is None else layer.source
        g_in, extras = _backward_layer(layer, g, act_of(src), auxs[i], act_of)
        accumulate(src, g_in)
        for idx, ge in extras:
            accumulate(idx, ge)
    if gx is None:
        gx = np.zeros_like(x)
    if not np.all(np.isfinite(gx)):
        raise EngineError(f"model {model.name!r}: non-finite gradient")
    return gx
