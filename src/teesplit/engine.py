"""Deterministic float64 execution of model graphs.

Runs a graph forward (optionally only up to a partition boundary) and
computes analytic gradients of a boundary activation with respect to the
graph input via reverse-mode accumulation. Convolution is lowered to im2col
channel-major: the columns are a (C*k*k, OH*OW) matrix, one row per input
channel and kernel offset, and the output is ``W @ cols`` with W viewed as
(O, C*k*k), which is already the (O, OH, OW) layout. That product fixes the
accumulation order, and every k*k offset sum adds its offsets in row-major
order (below), so identical seeds and inputs reproduce bitwise identical
outputs, and running a split model's two halves back to back is bitwise
identical to running the unsplit chain. "Bitwise" holds for one numpy, one
OpenBLAS and one OpenBLAS kernel (``OPENBLAS_CORETYPE``): another kernel
sums its products in another order.

Every pass runs a batch: the input, each activation and each gradient
carries a leading axis of N images, and every kernel computes each image
as it would alone, so an image's bits depend neither on N nor on the
other images. A conv is one ``W @ cols`` product per image, never one
with the batch folded into its columns, which would sum in another order;
a fully connected layer is one (O, I) @ (I, 1) product per image; every
reduction runs over one image's own axes. ``forward``, ``forward_until``
and ``input_gradient`` run their one input as a batch of one; an
``_Arena`` binds the maps the attack inverts together, at one boundary or
at several.

The forward pass streams its memory. Columns are built and multiplied in
blocks of at most ``graph._COLS_BLOCK_BYTES`` (8 MB): as many whole images
as fit, at least one, or, when one image's columns do not fit, whole
output rows of one image (one row when a row alone is larger), each
product written into its slice of the preallocated output. The backward's
column gradients (``gcols``) are blocked by the same whole-image rule, so
at 224 pixels, where one image fills a block, column memory does not grow
with N; the activations, the depthwise backward's products, the max-pool
backward's routes and the elementwise temporaries do. The budget sits below
glibc's 32 MB ceiling on its dynamic mmap threshold, so blocks are
recycled from the heap instead of being page-faulted fresh on every call;
a layer whose columns fit is a single block. Every pass drops each
activation after the last layer that reads it, except the activations the
backward reads, which ``input_gradient`` and an ``_Arena`` keep.

Activations, and the gradients of the backward pass, are held the way
layers reference them: one slot per layer, then the graph input, so a
reference r (-1 for the input) reads slot r. The backward pass reads
nothing but those activations: max pooling and Swish read their input
(Swish recomputes its sigmoid), ReLU and Sigmoid their output, and the
channel gate both operands.

Depthwise convolution, ``_bind_col2im`` and max pooling, the three k*k
kernels, take a batch's images' channels as one (N*C) channel axis, and
cut it into blocks of whole channels by one rule (``_channel_block``): as
many channels as fit in ``_PLANES_BLOCK_BYTES`` (1 MB), at least one, so
a block may hold channels of several images. Each channel is computed
alone, so a block's extent changes no bit.

Every k*k offset sum follows one rule (``_offset_sum``): the k*k offset
planes of a block lie contiguously as (k*k, M), and one ``np.add.reduce``
over the first axis adds them plane after plane in row-major offset order
from +0.0, with long inner loops however small the map. Depthwise
convolution copies a block's windows into its planes, multiplies them in
place by the weights, repeated once per image as (k*k, N*C), and sums
them into the output, three ops per block, then adds the bias. The
backward of conv, depthwise conv and average pooling is one
``_bind_col2im``: each offset's window gradients are placed on a zeroed
padded plane of their own in a single strided assignment, a block's whole
padded planes are summed into a padded accumulator from the kernel
scratch, and one copy crops it into the gradient; a sum from +0.0 is
never -0.0, so the border's +0.0 terms change no bit. Its planes are
zeroed once, when made, and shared only between layers whose placements
write the same positions, so no op refills them.

Subgradient conventions at kinks: ReLU propagates zero at exactly zero;
max pooling routes the gradient to the window's first maximum in row-major
order, the element ``argmax`` picks. Max pooling is separable, per block:
a running ``np.maximum`` over the k column offsets fills (Hr, OW) column
maxima from the kernel scratch, Hr = s*(OH - 1) + k padded rows, and one
over their k row offsets fills the output, 2(k - 1) ops per block for
k >= 2 and two copies for k = 1. On a tie ``np.maximum``
returns its second operand, the earlier offset, so each row yields its
first maximal column and the row pass the first row holding the maximum:
the row-major first maximum, signed zeros included. The forward keeps no
argmax. The backward repeats both passes from the kept input with a strict
``np.greater``, which keeps the earlier offset too: each column winner is
held as its flat padded index, and the row winner selects it. A later
offset's index is larger than any earlier one's, so a winner's index is
the running maximum of index times win, with no masked op. One
``np.bincount`` over every image's channels sums each pixel's terms in
window order from +0.0, and one copy crops it.

Weights are materialized lazily from each layer's seed (He-style fan-in
scaling, zero biases) in the shapes ``graph.weight_shapes`` gives, a
depthwise kernel (C, k, k) stored offset-major, and cached
by ``graph.weight_key`` (kind, seed and those shapes), so the two
halves of a split share the original layers' weights.

Every pass walks the graph's ``schedule``, computed once per ``ModelGraph``
and kept on it: per layer, the slots it reads, the slots that die after it,
its weight key, its geometry (kernel, stride, padding, input and output
shapes, and a conv's rows per column block) and how its output is stored.
The schedule holds no weights and nothing activation-sized, so compiling
costs O(layers) in scalars, and clearing ``_WEIGHTS`` takes effect on a
graph already compiled.

A padded window always reads an array whose border was filled once, when
the array was made (``_bordered``). By the schedule's storage rule
(``graph.Step``, its only owner), a slot whose readers are all windowed
layers padding it alike (p > 0, the same fill: 0.0, or -inf for max
pooling), made by a kind that writes through ``out=``, is the interior
view of an (N, C, H + 2p, W + 2p) array, and its readers window that array
with no op of their own, so the forward's peak holds no padded copy beside
the activation. The graph input and a pass's boundary slots (its last,
b - 1, and in an arena over several boundaries each one's) are stored
unbordered, so every public pass returns a contiguous array, a split's
halves need nothing new and each boundary's rows of its slot are
contiguous; a padded read of any unbordered slot copies it into the
interior of a bordered scratch array, one op per call. Gradients are never
bordered.

Each kind's kernel is split in two (``_KERNELS``). Its bind step runs once
over fixed arrays: given the layer's output array (or, in the backward, the
arrays its gradient terms go to), it fetches the weights and builds every
view the arithmetic needs: weight reshapes, the strided window and column
views, max pooling's offset views and padded indices, the ``_bind_col2im``
placement views. It
returns the call step: a list of ops, (numpy function, arguments) tuples
that only do arithmetic, writing with ``out=`` into those arrays.

Two binders bind every pass: ``_bind_prefix`` the forward of layers
[0, b), ``_bind_gradient`` their backward, each layer over the leading
rows of its sources, those of every boundary at or beyond it (the public
passes run one row throughout). Each hands a layer's ops to its
caller's ``apply`` before the next layer binds: ``forward``,
``forward_until`` and ``input_gradient`` pass ``_call``, which runs them
at once on fresh arrays and drops them, so those passes hold nothing past
their return; an ``_Arena`` passes ``list.extend`` and keeps them. Which
slots die where comes from the schedule's ``Step.dead`` alone. It holds
for any prefix that ends at a partition point, because ``make_graph``
lets no reference but the one to slot b - 1 cross a partition point.

An ``_Arena`` binds a whole prefix, forward and backward, and keeps the
ops; or several nested prefixes in one ragged batch. Its rows are laid out
by boundary, deepest first, and layer l runs only the leading rows, those
of the boundaries beyond l, so each layer is bound once and each row runs
only its own prefix: toy4's four boundaries at two rows each bind 22
forward and 38 backward ops, where four arenas bind 54 and 95. The
arena owns the input, each boundary activation, the input gradient and
each activation its backward reads, each a fresh array. A boundary slot's
gradient is one array: the backward of the layers beyond the boundary
writes its leading rows, and the boundary's cotangent, which the caller
writes before each gradient, fills its trailing rows. Its checks are its
own: each is one exact test over one of those arrays, raising the error
the public passes raise, over the whole batch or, for an activation or a
cotangent, over one boundary's rows. The attack in ``privacy`` binds one
per arena of maps it inverts together (``_arena``), runs every candidate
in it, keeps the accepted inputs outside it and drops it when the
inversion returns. The arena takes its other
arrays from one ``_Scratch``, sized by a probe binding over fresh arrays.
Kernel scratch, the memory that lives only inside one call (column blocks,
``gcols``, the depthwise planes, the col2im accumulators, elementwise
temporaries), is one buffer as large as the largest kernel's requests,
and every kernel of the arena views it. Every other
array, an activation no backward reads, a gradient or a padded copy, comes
from one pool keyed by (shape, border) and is handed back once its last
reader has run, so a bordered array is reused with its border as it was
filled. The col2im planes are pooled too, keyed by (shape, stride and
output extent). Scratch is never kept per layer, and no buffer is
module-level: the ``_Scratch`` of the public passes hands out fresh arrays.
"""

from __future__ import annotations

import itertools
import math
from functools import partial

import numpy as np

from .graph import (ADD, AVGPOOL, BNORM, CMUL, CONV, DWCONV, ELEMENT_SIZE, FC,
                    FLATTEN, GAP, MAXPOOL, RELU, SIGMOID, SWISH, weight_key,
                    weight_shapes)
from .tensors import TeesplitError, TensorError, require_tensor


class EngineError(TeesplitError, ValueError):
    """Raised for invalid inputs to the execution engine."""


# bytes of a k*k kernel's per-channel work per channel block (see the
# module docstring)
_PLANES_BLOCK_BYTES = 1 << 20


def _channel_block(channels, elements):
    """How many of ``channels`` channels, each ``elements`` float64s of
    work, fit in ``_PLANES_BLOCK_BYTES``: at least one, at most all."""
    return min(channels, max(1, _PLANES_BLOCK_BYTES // (elements * 8)))


_WEIGHTS = {}


def _materialize(layer):
    shapes = weight_shapes(layer)
    rng = np.random.default_rng(layer.params.get("seed", 0))
    if layer.kind == BNORM:
        return {"gamma": rng.uniform(0.9, 1.1, shapes["gamma"]),
                "beta": rng.standard_normal(shapes["beta"]) * 0.05}
    o, *fan = shapes["w"]
    if layer.kind == DWCONV:
        # indexed (C, k, k) but stored offset-major, (k, k, C) in memory,
        # the (k*k, C) layout the depthwise kernels read
        w = np.multiply(rng.standard_normal(shapes["w"]),
                        np.sqrt(2.0 / math.prod(fan)),
                        out=np.empty(fan + [o]).transpose(2, 0, 1))
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
    is handed out again by a later ``take`` of its shape and border. The
    one pool is keyed by how an array is stored, (shape, border), and a
    miss makes ``_bordered(shape, border)``, so a border is filled once,
    when its array is made, and no op ever writes it again. Likewise a
    ``zeroed`` array is zeroed once, when it is made. ``give`` does
    not check for views: the one view a kind makes of another slot,
    Flatten's output, is kept by every arena, so it is never given back."""

    def __init__(self, need=None):
        self.need = 0 if need is None else need
        self._buffer = None if need is None else np.empty(need, np.uint8)
        self._end = 0
        # (shape, border) -> arrays no bound layer reads any more, and
        # (shape, key) -> the one array ``zeroed`` hands out for that key
        self._free = {}

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

    def take(self, shape, border=()):
        free = self._free.get((shape, border))
        return free.pop() if free else _bordered(shape, border)

    def zeroed(self, shape, key):
        """An array of ``shape`` pooled under (shape, ``key``) and given
        back at once, shared by every kernel that asks with that key; a
        pool miss makes it zeroed."""
        free = self._free.get((shape, key))
        if free:
            return free[-1]
        arr = np.zeros(shape)
        self.give(arr, key)
        return arr

    def give(self, arr, border=()):
        if self._buffer is not None:
            self._free.setdefault((arr.shape, border), []).append(arr)


def _call(ops):
    """Apply each op, a (function, arguments...) tuple, in order."""
    for f, *args in ops:
        f(*args)


def _bordered(shape, border):
    """A fresh array of ``shape`` (..., H, W), or, for ``border`` (pad,
    fill), the interior view of a fresh (..., H + 2 pad, W + 2 pad) array
    whose border is set to ``fill``."""
    if not border:
        return np.empty(shape)
    (*lead, h, w), (pad, fill) = shape, border
    xp = np.empty((*lead, h + 2 * pad, w + 2 * pad))
    xp[..., :pad, :] = xp[..., -pad:, :] = fill
    xp[..., :pad] = xp[..., -pad:] = fill
    return xp[..., pad:-pad, pad:-pad]


def _bind_padded(x, pad, fill, scratch, bordered):
    """``x`` (..., H, W) padded by ``pad`` on each spatial side with
    ``fill``, and the ops that refresh the padded array from ``x``. There
    are none at ``pad == 0``, where the padded array is ``x`` itself, nor
    when ``bordered``: ``x`` is then an interior
    ``_bordered(x.shape, (pad, fill))``, and the padded array is the array
    it is the interior of. Otherwise the one op copies ``x`` into such an
    interior from ``scratch.take``, given back at once because only this
    layer's ops read it."""
    if not pad:
        return x, []
    ops = []
    if not bordered:
        inner = scratch.take(x.shape, (pad, fill))
        scratch.give(inner, (pad, fill))
        ops = [(np.copyto, inner, x)]
        x = inner
    return x.base, ops


def _bind_windows(x, k, stride, pad, fill, scratch, bordered=False):
    """Read-only (..., OH, OW, k, k) view of the k x k windows of ``x``
    (..., H, W) padded by ``pad`` on each spatial side with ``fill``, taken
    at ``stride``, and the ops of ``_bind_padded``."""
    *lead, h, w = x.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    xp, ops = _bind_padded(x, pad, fill, scratch, bordered)
    *lead_strides, sh, sw = xp.strides
    win = np.ndarray((*lead, oh, ow, k, k), xp.dtype, xp, 0,
                     (*lead_strides, sh * stride, sw * stride, sh, sw))
    win.flags.writeable = False
    return win, ops


def _source_windows(st, acts, scratch):
    """``_bind_windows`` over the source of windowed layer ``st``."""
    return _bind_windows(acts[st.source], st.kernel, st.stride, st.padding,
                         st.fill, scratch, st.bordered)


def _offset_sum(planes, out):
    """The ops summing ``planes`` (k*k, ...) over their first axis, the
    kernel offsets, into ``out`` in row-major offset order from +0.0: one
    ``np.add.reduce``, which adds plane after plane, every element of
    ``out`` at once. A reduction left with a single output element sums
    its one axis pairwise (eight partial sums from eight terms on), so a
    sum into one element adds plane by plane instead."""
    if out.size > 1:
        return [(partial(np.add.reduce, planes, axis=0, initial=0.0,
                         out=out),)]
    return [(out.fill, 0.0)] + [(np.add, out, plane, out) for plane in planes]


def _bind_col2im(gwin, dst, s, pad, scratch):
    """The ops writing the adjoint of ``_bind_windows`` into ``dst``: window
    gradients (..., OH, OW, k, k) scatter-added onto the padded input,
    offset by offset in row-major order, and cropped. The leading axes, a
    batch's images and their channels, are taken as one channel axis, which
    ``gwin`` and ``dst`` must each be able to view as one, in
    ``_channel_block`` blocks. Each block's whole padded planes are summed
    (``_offset_sum``), into ``dst`` itself at ``pad == 0``, else into a
    padded accumulator that one copy crops into ``dst``; a sum from +0.0 is
    never -0.0, so the planes' extra +0.0 terms change no bit.

    The planes come zeroed from ``scratch.zeroed``, keyed by the stride and
    output extent, which fix the positions the place-copies write: every
    layer sharing them writes the same positions on every call, and no
    layer writes any other, so those stay +0.0 and no op refills them."""
    *_, oh, ow, k, _ = gwin.shape
    gwin = np.reshape(gwin, (-1, oh, ow, k, k), copy=False)
    dst = np.reshape(dst, (-1,) + dst.shape[-2:], copy=False)
    c, h, w = dst.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    cb = _channel_block(c, k * k * hp * wp)
    planes = scratch.zeroed((k * k, cb, hp, wp), (s, oh, ow))
    p0, p1, p2, p3 = planes.strides
    acc = scratch((cb, hp, wp)) if pad else None
    ops = []
    for c0 in range(0, c, cb):
        n = min(cb, c - c0)
        # window value (ch, y, x, i, j) lands on plane i*k + j at
        # (ch, y*s + i, x*s + j); every block writes the same positions
        place = np.ndarray((n, oh, ow, k, k), planes.dtype, planes, 0,
                           (p1, s * p2, s * p3, k * p0 + p2, p0 + p3))
        ops.append((np.copyto, place, gwin[c0:c0 + n]))
        if pad:
            ops += _offset_sum(planes[:, :n], acc[:n]) + [
                (np.copyto, dst[c0:c0 + n], acc[:n, pad:pad + h, pad:pad + w])]
        else:
            ops += _offset_sum(planes[:, :n], dst[c0:c0 + n])
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
    win, ops = _source_windows(st, acts, scratch)
    wmat = w["w"].reshape(o, -1)
    n, kk = len(out), wmat.shape[1]
    out2 = out.reshape(n, o, oh * ow)
    # blocks of as many whole images as fit (st.rows // OH), else of
    # st.rows output rows of one image
    per, rows = max(1, st.rows // oh), min(st.rows, oh)
    buf = None
    for i in range(0, n, per):
        for r in range(0, oh, rows):
            # (images, C*k*k, rows*OW) columns: each copied run is a whole
            # output row, and a 1x1 stride-1 unpadded view of whole images
            # is already contiguous
            src = win[i:i + per, :, r:r + rows].transpose(0, 1, 4, 5, 2, 3)
            m, cnt = len(src), src.shape[4] * ow
            if src.flags.c_contiguous:
                cols = src.reshape(m, kk, cnt)
            else:
                if buf is None:  # the first block is the largest
                    buf = scratch((m * kk * cnt,))
                cols = buf[:m * kk * cnt].reshape(m, kk, cnt)
                ops.append((np.copyto, cols.reshape(src.shape), src))
            # one product per image: a batch is never folded into the
            # columns, which would change the products' bits
            ops.append((np.matmul, wmat, cols,
                        out2[i:i + m, :, r * ow:r * ow + cnt]))
    ops.append((np.add, out2, w["b"][:, None], out2))
    return out, ops


def _conv_grad(st, g, acts, w, dsts, scratch):
    k = st.kernel
    o, oh, ow = st.out_shape
    wt = w["w"].reshape(o, -1).T
    n, per = len(g), max(1, st.rows // oh)  # the forward's whole images
    # (images, C*k*k, OH*OW) column gradients
    gcols = scratch((min(per, n), wt.shape[0], oh * ow))
    g2 = g.reshape(n, o, oh * ow)
    ops = []
    for i in range(0, n, per):
        m = min(per, n - i)
        gwin = gcols[:m].reshape(m, st.in_shape[0], k, k, oh, ow)
        ops += [(np.matmul, wt, g2[i:i + m], gcols[:m])] + _bind_col2im(
            gwin.transpose(0, 1, 4, 5, 2, 3), dsts[0][i:i + m], st.stride,
            st.padding, scratch)
    return dsts, ops


def _dwconv(st, acts, out, w, scratch):
    """Per ``_channel_block`` of a batch's channels, every image's channels
    taken as one axis: the windows copied into the k*k offset planes, the
    planes multiplied in place by the (k*k, N*C) weights, the (k*k, C)
    weights repeated once per image, and one ``_offset_sum`` into the
    output; then the bias. The planes are channel-major, (k*k, channels,
    OH, OW), unless an output row is shorter than a 64-byte cache line
    (OW < 8): the copy would then run row by row over a few elements, so
    they are channel-last, (k*k, OH, OW, channels), summed into a
    channel-last scratch (OH, OW, N*C) that the bias add reads back into
    the output; both are viewed channel-major."""
    k = st.kernel
    kk = k * k
    c, oh, ow = st.out_shape
    win, ops = _source_windows(st, acts, scratch)
    nc, hw, last = len(out) * c, oh * ow, ow < 8
    win = np.reshape(win, (nc, oh, ow, k, k), copy=False)
    wk = np.tile(w["w"].transpose(1, 2, 0).reshape((kk, c), copy=False),
                 (1, len(out)))
    cb = _channel_block(nc, kk * hw)
    planes = scratch((kk, cb * hw))
    sums = (scratch((oh, ow, nc)).transpose(2, 0, 1) if last
            else np.reshape(out, (nc, oh, ow), copy=False))
    for c0 in range(0, nc, cb):
        m = min(cb, nc - c0)
        p = planes[:, :m * hw]
        p = (p.reshape((kk, oh, ow, m), copy=False).transpose(0, 3, 1, 2)
             if last else p.reshape((kk, m, oh, ow), copy=False))
        # window (channel, y, x, i, j) lands on plane i*k + j
        place = p.transpose(1, 2, 3, 0).reshape((m, oh, ow, k, k), copy=False)
        ops += [(np.copyto, place, win[c0:c0 + m]),
                (np.multiply, p, wk[:, c0:c0 + m, None, None], p)
                ] + _offset_sum(p, sums[c0:c0 + m])
    ops.append((np.add, np.reshape(sums, out.shape, copy=False),
                w["b"][:, None, None], out))
    return out, ops


def _dwconv_grad(st, g, acts, w, dsts, scratch):
    k = st.kernel
    # (k, k, N, C, OH, OW) products, viewed as (N, C, OH, OW, k, k)
    prods = scratch((k, k) + g.shape)
    wk = w["w"].transpose(1, 2, 0)[:, :, None, :, None, None]
    return dsts, ([(np.multiply, wk, g, prods)]
                  + _bind_col2im(prods.transpose(2, 3, 4, 5, 0, 1), dsts[0],
                                 st.stride, st.padding, scratch))


def _pool_blocks(st, acts, scratch):
    """Max pooling's source, padded, with every image's channels taken as
    one axis, (N*C, Hp, Wp), in ``_channel_block`` blocks: the ops that pad
    it, the shape (channels, Hr, OW) of a block's column maxima, and, per
    block, its first channel and its k column views (channels, Hr, OW),
    column offset j of every window over the Hr = s*(OH - 1) + k padded
    rows the windows read."""
    k, s = st.kernel, st.stride
    _, oh, ow = st.out_shape
    xp, ops = _bind_padded(acts[st.source], st.padding, st.fill, scratch,
                           st.bordered)
    xp = np.reshape(xp, (-1,) + xp.shape[-2:], copy=False)
    hr = s * (oh - 1) + k
    cb = _channel_block(len(xp), hr * ow)
    return ops, (cb, hr, ow), [
        (c0, [xp[c0:c0 + cb, :hr, j:j + s * (ow - 1) + 1:s] for j in range(k)])
        for c0 in range(0, len(xp), cb)]


def _pool_rows(a, st):
    """The k row-offset views (channels, OH, OW) of (channels, Hr, OW)."""
    n = st.stride * (st.out_shape[1] - 1) + 1
    return [a[:, i:i + n:st.stride] for i in range(st.kernel)]


def _running_max(planes, out):
    """The ops writing the maximum of ``planes`` into ``out``: a running
    ``np.maximum``, which on a tie returns its second operand, the earlier
    plane, so each element holds the first maximal plane's value."""
    if len(planes) == 1:
        return [(np.copyto, out, planes[0])]
    return [(partial(np.maximum, planes[1], planes[0], out=out),)] + [
        (partial(np.maximum, p, out, out=out),) for p in planes[2:]]


def _maxpool(st, acts, out, w, scratch):
    """Per ``_channel_block`` of a batch's channels, two running maxima:
    over the column offsets into the (Hr, OW) column maxima in scratch,
    then over their row offsets into the output (at k = 1, two copies)."""
    ops, shape, blocks = _pool_blocks(st, acts, scratch)
    dst = np.reshape(out, (-1,) + out.shape[-2:], copy=False)
    cm = scratch(shape)
    for c0, cols in blocks:
        c = cm[:len(cols[0])]
        ops += _running_max(cols, c) + _running_max(_pool_rows(c, st),
                                                    dst[c0:c0 + len(c)])
    return out, ops


def _maxpool_grad(st, g, acts, w, dsts, scratch):
    """Route each window's gradient to its first maximum in row-major order,
    found by the forward's two passes: each padded row's first maximal
    column, held as its flat padded index, then the first row holding the
    window's maximum selects it. A plane wins where it is strictly greater
    than every earlier plane, so a tie keeps the earlier one, and a later
    plane's index is larger than any earlier plane's, so the winner's
    index is the running maximum of index times win. ``bincount`` sums the
    terms of a pixel in window order from zero, over every image's channels
    at once."""
    k, s, pad = st.kernel, st.stride, st.padding
    _, oh, ow = st.out_shape
    _, h, wd = st.in_shape
    hp, wp = h + 2 * pad, wd + 2 * pad
    padded = g.shape[:2] + (hp, wp)  # every image's padded input
    ops, (cb, hr, _), blocks = _pool_blocks(st, acts, scratch)
    route = scratch((math.prod(g.shape[:2]), oh, ow), np.intp)
    # the flat padded index of column offset 0 of each row of every window,
    # for a block's channels counted from its first
    base = ((np.arange(cb)[:, None, None] * hp + np.arange(hr)[:, None]) * wp
            + np.arange(0, s * ow, s))
    if k > 1:
        cm, ci = scratch((cb, hr, ow)), scratch((cb, hr, ow), np.intp)
        won = scratch((cb, oh, ow), np.intp)
        gt, rm = ((scratch((cb, hr, ow), np.intp), scratch((cb, oh, ow)))
                  if k > 2 else (None, None))
    for c0, cols in blocks:
        n = len(cols[0])
        r = route[c0:c0 + n]
        c, q = cols[0], base[:n]
        if k > 1:
            # column pass: each padded row's first maximal column offset,
            # then its flat index
            c, q = cm[:n], ci[:n]
            ops += [(np.greater, cols[1], cols[0], q),
                    (partial(np.maximum, cols[1], cols[0], out=c),)]
            for j in range(2, k):
                t = gt[:n]
                ops += [(np.greater, cols[j], c, t),
                        (partial(np.maximum, cols[j], c, out=c),),
                        (np.multiply, t, j, t),
                        (partial(np.maximum, q, t, out=q),)]
            ops.append((np.add, q, base[:n], q))
        # row pass: the first row holding the maximum picks its index
        rc, rq = _pool_rows(c, st), _pool_rows(q, st)
        if k == 1:
            ops.append((np.copyto, r, rq[0]))
        for i in range(1, k):
            u, prev = won[:n], rc[0] if i == 1 else rm[:n]
            ops.append((np.greater, rc[i], prev, u))
            if i < k - 1:
                ops.append((partial(np.maximum, rc[i], prev, out=rm[:n]),))
            ops += [(np.multiply, rq[i], u, u),
                    (partial(np.maximum, rq[0] if i == 1 else r, u, out=r),)]
        if c0:
            ops.append((np.add, r, c0 * hp * wp, r))
    gflat, rflat, dst = g.reshape(-1), route.reshape(-1), dsts[0]

    def scatter():
        xpg = np.bincount(rflat, weights=gflat, minlength=math.prod(padded))
        np.copyto(dst, xpg.reshape(padded)[..., pad:pad + h, pad:pad + wd])

    return dsts, ops + [(scatter,)]


def _avgpool(st, acts, out, w, scratch):
    win, ops = _source_windows(st, acts, scratch)
    return out, ops + [(partial(np.mean, win, axis=(-2, -1), out=out),)]


def _avgpool_grad(st, g, acts, w, dsts, scratch):
    k = st.kernel
    gk = scratch(g.shape)
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
    return dsts, [(np.divide, g, h * wd, dsts[0])]


def _gate(st, acts):
    """The channel gate's per-channel factors, as (N, C, 1, 1)."""
    return acts[st.source].reshape(len(acts[st.source]), -1, 1, 1)


def _cmul_grad(st, g, acts, w, dsts, scratch):
    u = acts[st.refs[1]]
    prod = scratch(u.shape)
    return dsts, [(np.multiply, g, u, prod),
                  (partial(np.sum, prod, axis=(-2, -1),
                           out=dsts[0].reshape(len(g), -1)),),
                  (np.multiply, g, _gate(st, acts), dsts[1])]


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
    # one (O, I) @ (I, 1) product per image, never (N, I) @ (I, O)
    FC: (lambda st, acts, out, w, scratch: (out, [
            (np.matmul, w["w"], acts[st.source].reshape(len(out), -1, 1),
             out.reshape(len(out), -1, 1)),
            (np.add, out, w["b"], out)]),
         lambda st, g, acts, w, dsts, scratch: (dsts, [
             (np.matmul, w["w"].T, g.reshape(len(g), -1, 1),
              dsts[0].reshape(len(g), -1, 1))]),
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
              (partial(np.mean, acts[st.source], axis=(-2, -1),
                       keepdims=True, out=out),)]),
          _gap_grad, _keeps_nothing),
    ADD: (lambda st, acts, out, w, scratch: (out, [
              (np.add, acts[st.source], acts[st.refs[1]], out)]),
          lambda st, g, acts, w, dsts, scratch: ((g, g), []),
          _keeps_nothing),
    CMUL: (lambda st, acts, out, w, scratch: (out, [
               (np.multiply, acts[st.refs[1]], _gate(st, acts), out)]),
           _cmul_grad, lambda st: st.refs),
    FLATTEN: (lambda st, acts, out, w, scratch: (
                  acts[st.source].reshape(len(out), -1), []),
              lambda st, g, acts, w, dsts, scratch: (
                  (g.reshape(acts[st.source].shape),), []),
              lambda st: (st.source, st.index)),
}


def _reading(st, acts, slots, m, ends):
    """``st`` and ``acts`` as layer ``st``, running m rows, reads ``slots``
    of them: the arrays of ``slots`` by slot, each cut to its leading m rows
    (only a boundary slot, one of ``ends``, has more rows than its readers),
    and the source read as unbordered when it is one of ``ends``, which are
    stored unbordered."""
    return ((st._replace(bordered=False) if st.bordered and st.source in ends
             else st),
            {r: acts[r] if len(acts[r]) == m else acts[r][:m] for r in slots})


def _bind(st, acts, keep, scratch, m, end, ends):
    """Bind layer ``st``'s forward over the leading ``m`` rows of the slots
    it reads and return the ops that fill its output: slot ``st.index``, of
    m rows, stored with the schedule's ``st.border`` unless it is ``end``,
    the boundary slot of its prefix, which is stored unbordered; a fresh
    array if the slot is in ``keep``, one from ``scratch.take`` if not.
    ``ends`` holds the pass's boundary slots."""
    scratch.start()
    border = () if st.index == end else st.border
    shape = (m,) + st.out_shape
    out = (_bordered(shape, border) if st.index in keep
           else scratch.take(shape, border))
    w = None if st.weight_key is None else _weights(st.weight_key, st.layer)
    src, reads = _reading(st, acts, st.refs, m, ends)
    acts[st.index], ops = _KERNELS[st.kind][0](src, reads, out, w, scratch)
    return ops


def _bind_prefix(model, ends, acts, keep, scratch, apply):
    """Bind layers [0, b) over ``acts``, the activations in slot layout,
    b - 1 the deepest of ``ends``, and hand each layer's ops to ``apply``
    before the next layer binds. ``ends`` maps each boundary slot of the
    pass to the rows of the layers up to it: a pass over nested prefixes
    lays their rows out deepest prefix first, so a layer runs the leading
    rows, those of every prefix that holds it.

    After each layer, the slots in its ``Step.dead`` outside ``keep`` are
    given back to ``scratch`` under their schedule's border and set to None.
    (The input, slot -1, reads the last layer's border, (): no layer reads
    that layer's output.) At the graph's end or at a partition point, which
    only a reference to the boundary slot crosses, a boundary slot's only
    readers run fewer rows, and every other slot dies inside its prefix."""
    lo = 0
    for end in sorted(ends):
        for st in model.schedule[lo:end + 1]:
            apply(_bind(st, acts, keep, scratch, ends[end], end, ends.keys()))
            for r in st.dead:
                if r not in keep:
                    scratch.give(acts[r], model.schedule[r].border)
                    acts[r] = None
        lo = end + 1


def _kept(steps):
    """The slots whose values the backward of ``steps`` reads (``_KERNELS``)."""
    return {r for st in steps for r in _KERNELS[st.kind][2](st)}


def _bind_backward(model, st, acts, grads, ends, scratch):
    """Bind layer ``st``'s backward over ``acts`` and ``grads``, over the m
    rows of grads[st.index], and return its ops; it then gives that
    gradient back to ``scratch``. A slot's first term is written into the
    leading m rows of its gradient: the array ``ends`` holds for the slot,
    else one from ``scratch.take`` (the input's own array is always fresh).
    A later term goes into scratch and is added."""
    scratch.start()
    g = grads[st.index]
    m = len(g)
    w = None if st.weight_key is None else _weights(st.weight_key, st.layer)
    dsts, sums = [], []
    for r in st.refs:
        shape = (m,) + (model.input_shape if r < 0
                        else model.layers[r].output_shape)
        first = grads[r] is None
        if first:
            grads[r] = (ends[r] if r in ends else np.empty(shape) if r < 0
                        else scratch.take(shape))
        lead = grads[r] if len(grads[r]) == m else grads[r][:m]
        sums.append(None if first else lead)
        dsts.append(lead if first else scratch(shape))
    src, reads = _reading(st, acts, _KERNELS[st.kind][2](st), m, ends.keys())
    terms, ops = _KERNELS[st.kind][1](src, g, reads, w, dsts, scratch)
    for dst, term, lead in zip(dsts, terms, sums):
        if lead is not None:
            ops.append((np.add, lead, term, lead))
        elif term is not dst:
            # a pass-through view of g: copied, so no gradient aliases g
            ops.append((np.copyto, dst, term))
    scratch.give(g)
    grads[st.index] = None
    return ops


def _bind_gradient(model, acts, ends, scratch, apply):
    """Bind the backward of layers [0, b) over ``acts``, b - 1 the deepest
    slot of ``ends``, and hand each layer's ops to ``apply`` before the
    next layer binds; each layer runs the rows of its output gradient.
    ``ends`` maps each boundary slot of the pass to its gradient array:
    the deepest one's holds the cotangent, and in a pass over nested
    prefixes the backward of the layers beyond another boundary writes its
    array's leading rows, and its own cotangent fills the trailing ones.
    Returns the input's gradient array, which holds the gradient once
    every op has been applied."""
    upto = max(ends) + 1
    grads = [None] * (upto + 1)  # slot layout: the input's gradient is last
    grads[upto - 1] = ends[upto - 1]
    for st in reversed(model.schedule[:upto]):
        if grads[st.index] is not None:  # else only read beyond the boundary
            apply(_bind_backward(model, st, acts, grads, ends, scratch))
    # never None: every source lies below its layer, so every chain ends here
    return grads[-1]


class _Arena:
    """Enclave prefixes bound, forward and backward, over arrays of their
    own. ``ends`` is ((boundary label, n), ...), deepest first: the rows of
    the batch are laid out by boundary, n each, in that order, and layer l
    runs only the leading rows, those of the boundaries beyond l, so each
    row runs its own prefix and nothing more. One boundary is one prefix
    over a batch of n. Write the inputs into ``x``, then ``run`` them;
    boundary i's activation, its own rows of its slot, is ``feats[i]``. To
    differentiate the last run, write each boundary's cotangent into
    ``cots[i]`` and call ``gradient``: a run, or a gradient, may overwrite
    ``cots``, so write them after the run. The gradient returned is the
    arena's own array, rewritten only by its next ``gradient``, so a
    ``run`` leaves it as it was. ``feat`` and ``cot`` are the first
    boundary's.

    The arena keeps the input, each boundary activation and each activation
    its backward reads. Every other activation, and every gradient but the
    input's, is taken from ``scratch`` and given back after its last reader,
    so layers whose live ranges do not overlap share one array; those
    values do not outlive one ``run`` or ``gradient``.

    ``run`` and ``gradient`` check the input and each boundary's cotangent
    before their ops and each boundary's activation and the gradient after
    them, raising the errors ``forward_until`` and ``input_gradient`` raise.
    Each check is one exact test over an array the arena owns: its dot with
    zeros is NaN exactly when an element is not finite, since inf * 0 and
    NaN * 0 are NaN."""

    def __init__(self, model, ends, scratch):
        self._where = f"model {model.name!r}"
        bs = [model.boundary_of(label) for label, _ in ends]
        # boundary slot -> the rows of the layers up to it
        rows = dict(zip((b - 1 for b in bs),
                        itertools.accumulate(n for _, n in ends)))
        self.x = np.empty((rows[bs[-1] - 1],) + model.input_shape)
        self.acts = [None] * bs[0] + [self.x]
        fwd, bwd = [], []
        keep = {-1, *rows, *_kept(model.schedule[:bs[0]])}
        _bind_prefix(model, rows, self.acts, keep, scratch, fwd.extend)
        # each boundary slot's gradient, as the arena takes it
        grads = {b - 1: scratch.take(self.acts[b - 1].shape) for b in bs}
        self.feats, self.cots = (
            tuple(a[b - 1][rows[b - 1] - n:] for b, (_, n) in zip(bs, ends))
            for a in (self.acts, grads))
        self.feat, self.cot = self.feats[0], self.cots[0]
        self._grad = _bind_gradient(model, self.acts, grads, scratch,
                                    bwd.extend)
        self._fwd = [(op[0], op[1:]) for op in fwd]
        self._bwd = [(op[0], op[1:]) for op in bwd]
        zeros = np.zeros(max(a.size for a in (self.x, *self.feats)))

        def dot(a):
            return partial(np.reshape(a, -1, copy=False).dot, zeros[:a.size])

        self._x_dot, self._grad_dot = dot(self.x), dot(self._grad)
        self._feat_dots = [(label, dot(a))
                           for (label, _), a in zip(ends, self.feats)]
        self._cot_dots = [dot(a) for a in self.cots]

    def run(self):
        if not math.isfinite(self._x_dot()):
            raise TensorError("model input contains non-finite elements")
        for f, args in self._fwd:
            f(*args)
        for label, dot in self._feat_dots:
            if not math.isfinite(dot()):
                raise EngineError(f"{self._where}: non-finite activation at "
                                  f"{label!r}")

    def gradient(self):
        for dot in self._cot_dots:
            if not math.isfinite(dot()):
                raise TensorError("cotangent contains non-finite elements")
        for f, args in self._bwd:
            f(*args)
        if not math.isfinite(self._grad_dot()):
            raise EngineError(f"{self._where}: non-finite gradient")
        return self._grad


def _arena(model, ends):
    """The arena over ``ends``, ((boundary label, rows), ...) deepest first
    (``_Arena``), and a sized ``_Scratch``, sized by binding a probe arena
    over a fresh one."""
    probe = _Scratch()
    _Arena(model, ends, probe)
    return _Arena(model, ends, _Scratch(probe.need))


# ---------------------------------------------------------------------------
# passes

def _run(model, x, upto, keep, what):
    """Run layers [0, upto) on one input ``x``, as a batch of one, on fresh
    arrays, each layer's ops applied as soon as they are bound; returns the
    activations in slot layout, each with its batch axis, None in each slot
    outside ``keep`` that has died (``_bind_prefix``)."""
    acts = [None] * upto + [require_tensor(x, shape=model.input_shape,
                                           name="model input")[None]]
    _bind_prefix(model, {upto - 1: 1}, acts, keep, _Scratch(), _call)
    if not np.isfinite(acts[upto - 1]).all():
        raise EngineError(f"model {model.name!r}: non-finite {what}")
    return acts


def forward(model, x):
    """Run the whole graph; returns the final activation."""
    n = len(model.layers)
    return _run(model, x, n, (), "output")[n - 1][0]


def forward_until(model, x, boundary_label):
    """Run the enclave-side prefix only; returns the exposed feature map."""
    b = model.boundary_of(boundary_label)
    return _run(model, x, b, (), f"activation at {boundary_label!r}")[b - 1][0]


def input_gradient(model, boundary_label, x, cotangent):
    """Gradient of <boundary activation, cotangent> with respect to the input.

    Reverse-mode over the executed prefix; parameters are treated as
    constants.
    """
    b = model.boundary_of(boundary_label)
    acts = _run(model, x, b, _kept(model.schedule[:b]),
                f"activation at {boundary_label!r}")
    cot = require_tensor(cotangent, shape=acts[b - 1].shape[1:],
                         name="cotangent")
    gx = _bind_gradient(model, acts, {b - 1: cot[None]}, _Scratch(), _call)
    if not np.isfinite(gx).all():
        raise EngineError(f"model {model.name!r}: non-finite gradient")
    return gx[0]
