"""Layered CNN description with named partition points.

A model is a linear chain of primitive layers. Residual blocks and
squeeze-excitation gates are lowered to the chain with explicit intra-block
references: a layer normally consumes the previous layer's output, but may
name an earlier layer as its ``source``, and Add / ChannelwiseMul layers
reference a second operand the same way. Index -1 refers to the graph input,
which is what references collapse to when a graph is split at a boundary.

Partition points are named boundaries between complete blocks. Splitting at
one yields two runnable graphs: the enclave-resident prefix and the
accelerator-resident suffix. The tensor crossing between them is the exposed
feature map whose byte size drives transfer-cost and privacy analysis.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

from .tensors import TeesplitError, numpy_holds, read_json, write_text_atomic

ELEMENT_SIZE = 4  # bytes per tensor element on the wire
# bytes of im2col columns per conv forward block (see the engine's docstring)
_COLS_BLOCK_BYTES = 8 << 20

# layer kinds
CONV = "Conv2d"
DWCONV = "DepthwiseConv2d"
FC = "FullyConnected"
RELU = "ReLU"
SWISH = "Swish"
SIGMOID = "Sigmoid"
BNORM = "BatchNormAffine"
MAXPOOL = "MaxPool"
AVGPOOL = "AvgPool"
GAP = "GlobalAvgPool"
ADD = "Add"
CMUL = "ChannelwiseMul"
FLATTEN = "Flatten"

KINDS = (CONV, DWCONV, FC, RELU, SWISH, SIGMOID, BNORM, MAXPOOL, AVGPOOL,
         GAP, ADD, CMUL, FLATTEN)
# kinds that read their source through k x k windows
_WINDOWED = (CONV, DWCONV, MAXPOOL, AVGPOOL)
# kinds whose engine kernel writes its whole output through ``out=``, so the
# output can be a view into a larger array
_WRITES_OUT = (RELU, BNORM, SWISH, SIGMOID, ADD, CMUL, MAXPOOL, AVGPOOL,
               DWCONV)

# hyperparameters accepted per kind (name -> required flag)
_PARAM_SPEC = {
    CONV: {"in_channels": True, "out_channels": True, "kernel": True,
           "stride": True, "padding": True, "seed": False, "init": False},
    DWCONV: {"channels": True, "kernel": True, "stride": True,
             "padding": True, "seed": False},
    FC: {"in_features": True, "units": True, "seed": False},
    RELU: {},
    SWISH: {},
    SIGMOID: {},
    BNORM: {"channels": True, "seed": False},
    MAXPOOL: {"kernel": True, "stride": True, "padding": False},
    AVGPOOL: {"kernel": True, "stride": True, "padding": False},
    GAP: {},
    ADD: {"skip_source": True},
    CMUL: {"map_source": True},
    FLATTEN: {},
}


class GraphError(TeesplitError, ValueError):
    """Raised for malformed model descriptions or invalid partition requests."""


def mix_seed(*values):
    """Stable 63-bit mix of integers, used to derive per-layer weight seeds."""
    h = 0x9E3779B97F4A7C15
    for v in values:
        h = (h ^ (int(v) & 0xFFFFFFFFFFFFFFFF)) * 0xBF58476D1CE4E5B9
        h &= 0xFFFFFFFFFFFFFFFF
        h ^= h >> 31
    return h & 0x7FFFFFFFFFFFFFFF


@dataclass(frozen=True)
class LayerSpec:
    """One primitive layer.

    ``source`` is the index of the layer whose output this layer consumes
    (None = previous layer, -1 = graph input). ``output_shape`` is filled in
    by shape inference and is fully determined by input shape and params.
    """
    name: str
    kind: str
    params: dict
    output_shape: tuple
    source: int | None = None


@dataclass(frozen=True)
class Unit:
    """A contiguous run of layers forming one described block.

    ``counts`` says how the block is tallied in human-readable partition
    summaries, e.g. a bottleneck residual block counts as 3 conv layers and
    its projection shortcut is not tallied; an MBConv block counts as one
    MBConv unit.
    """
    label: str
    start: int
    end: int  # exclusive
    counts: tuple = ()


class Step(NamedTuple):
    """The static facts of one layer that the engine runs it from.

    ``refs`` are the slots the layer reads: its source, then its
    ``skip_source`` / ``map_source`` operand when it has one. ``dead`` are
    the slots whose last reader in the whole graph is this layer (a slot no
    layer reads is its own maker's; the graph's result is nobody's).
    ``kernel``, ``stride`` and ``padding`` are 0 for unwindowed kinds, and
    ``rows`` is a conv's output rows per im2col block (0 for other kinds).
    ``fill`` is the value a windowed layer's padding reads: -inf for
    MaxPool, 0.0 otherwise.

    The storage rule, owned here: a layer's output slot is stored as the
    interior of a (C, H + 2p, W + 2p) array whose border holds ``fill``
    when every reader of the slot is a windowed layer with the same padding
    p > 0 and the same ``fill``, and the layer's kind writes its output
    through ``out=`` (every kind but Conv2d, FullyConnected, Flatten and
    GlobalAvgPool). ``border`` is then (p, fill), and () otherwise; the
    graph input is never bordered. ``bordered`` says whether the source
    slot is. A pass that ends at slot b - 1 stores that slot unbordered,
    since its readers lie beyond the pass."""
    index: int
    layer: LayerSpec
    kind: str
    refs: tuple
    source: int
    dead: tuple
    weight_key: tuple | None
    kernel: int
    stride: int
    padding: int
    in_shape: tuple
    out_shape: tuple
    rows: int
    fill: float
    border: tuple
    bordered: bool


@dataclass(frozen=True)
class ModelGraph:
    name: str
    input_shape: tuple
    layers: tuple
    partition_points: tuple  # ((label, boundary), ...)
    units: tuple = ()

    @cached_property
    def schedule(self):
        """One ``Step`` per layer, computed on first use and kept on the
        instance; it holds no weights and nothing activation-sized."""
        n = len(self.layers)
        refs = [tuple(r for _, r in _refs(layer, i))
                for i, layer in enumerate(self.layers)]
        fill = [-math.inf if layer.kind == MAXPOOL else 0.0
                for layer in self.layers]
        # last[r]: the last layer to read slot r, and frames[r]: the
        # (padding, fill) of each reader of slot r, None for an unwindowed
        # one (the input's are last[-1] and frames[-1])
        last = list(range(n)) + [n]
        frames = [set() for _ in range(n + 1)]
        for i, rs in enumerate(refs):
            layer = self.layers[i]
            frame = ((layer.params.get("padding", 0), fill[i])
                     if layer.kind in _WINDOWED else None)
            for r in rs:
                last[r] = i
                frames[r].add(frame)
        last[n - 1] = n
        dead = [[] for _ in range(n + 1)]
        for r in range(-1, n):
            dead[last[r]].append(r)
        border = [()] * n
        for r, layer in enumerate(self.layers):
            if layer.kind in _WRITES_OUT and len(frames[r]) == 1:
                frame, = frames[r]
                if frame is not None and frame[0] > 0:
                    border[r] = frame
        steps = []
        for i, layer in enumerate(self.layers):
            p = layer.params
            src = refs[i][0]
            in_shape = self.input_shape if src < 0 else self.layers[src].output_shape
            k = p.get("kernel", 0)
            rows = 0
            if layer.kind == CONV:
                row_bytes = in_shape[0] * k * k * layer.output_shape[2] * 8
                rows = max(1, _COLS_BLOCK_BYTES // row_bytes)
            steps.append(Step(i, layer, layer.kind, refs[i], src, tuple(dead[i]),
                              weight_key(layer), k, p.get("stride", 0),
                              p.get("padding", 0), in_shape, layer.output_shape,
                              rows, fill[i], border[i],
                              src >= 0 and bool(border[src])))
        return tuple(steps)

    def boundary_of(self, label):
        for lab, b in self.partition_points:
            if lab == label:
                return b
        raise GraphError(f"unknown partition point {label!r} in model {self.name!r}")

    def labels(self):
        return [lab for lab, _ in self.partition_points]

    @property
    def output_shape(self):
        return self.layers[-1].output_shape


@dataclass(frozen=True)
class PartitionAssignment:
    """A model cut at one named boundary (layers [0, boundary) run in the
    enclave, the rest on the accelerator): block tallies per side plus the
    shape/byte size of the feature map that crosses between them."""
    boundary_label: str
    boundary: int
    exposed_tensor_shape: tuple
    exposed_tensor_bytes: int
    enclave_counts: tuple
    accelerator_counts: tuple

    @property
    def enclave_summary(self):
        return format_counts(self.enclave_counts)

    @property
    def accelerator_summary(self):
        return format_counts(self.accelerator_counts)


def _index(value):
    """``operator.index(value)``, refusing bools: a Python or NumPy integer
    as an int; TypeError for anything else."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a bool, not an integer")
    return operator.index(value)


def _check_params(name, kind, params):
    """Checked copy of ``params``, every value but ``init`` as an int."""
    spec = _PARAM_SPEC[kind]
    checked = {}
    for key, val in params.items():
        if key not in spec:
            raise GraphError(f"layer {name!r}: unknown {kind} parameter {key!r}")
        if key == "init":
            if val not in ("he", "identity"):
                raise GraphError(f"layer {name!r}: unknown init {val!r}")
        else:
            try:
                val = _index(val)
            except TypeError:
                raise GraphError(f"layer {name!r}: parameter {key!r} must be "
                                 f"an integer") from None
        checked[key] = val
    for key, required in spec.items():
        if required and key not in params:
            raise GraphError(f"layer {name!r}: missing {kind} parameter {key!r}")
    for key in ("kernel", "stride", "in_channels", "out_channels", "channels",
                "in_features", "units"):
        if key in checked and checked[key] < 1:
            raise GraphError(f"layer {name!r}: {key} must be >= 1")
    for key in ("padding", "seed"):
        if checked.get(key, 0) < 0:
            raise GraphError(f"layer {name!r}: {key} must be >= 0")
    if kind == MAXPOOL and checked.get("padding", 0) >= checked["kernel"]:
        # a window would read only the -inf border
        raise GraphError(f"layer {name!r}: MaxPool padding "
                         f"{checked['padding']} must be less than its kernel "
                         f"{checked['kernel']}")
    return checked


def _pool_extent(name, h, k, s, p):
    out = (h + 2 * p - k) // s + 1
    if h + 2 * p < k or out < 1:
        raise GraphError(
            f"layer {name!r}: spatial extent {h} too small for kernel {k} "
            f"(stride {s}, padding {p})")
    return out


def _infer_shape(name, kind, p, in_shape, shapes):
    """Output shape of one layer with checked params ``p`` given its input
    shape. Add/ChannelwiseMul read their second operand's shape from
    ``shapes`` by reference."""
    if kind in (CONV, DWCONV, MAXPOOL, AVGPOOL, GAP, BNORM):
        if len(in_shape) != 3:
            raise GraphError(f"layer {name!r}: {kind} needs a C x H x W input, "
                             f"got shape {in_shape}")
    if kind in (CONV, DWCONV, MAXPOOL, AVGPOOL):
        # windowed kinds; pools carry no channel count to check
        c, h, w = in_shape
        want = p.get("in_channels", p.get("channels", c))
        if c != want:
            raise GraphError(f"layer {name!r}: expects {want} input channels, "
                             f"got {c}")
        if p.get("init") == "identity":
            if p["in_channels"] != p["out_channels"]:
                raise GraphError(f"layer {name!r}: identity init needs matching "
                                 f"channel counts")
            if p["kernel"] % 2 == 0:
                raise GraphError(f"layer {name!r}: identity init needs an odd kernel")
        k, s, pad = p["kernel"], p["stride"], p.get("padding", 0)
        return (p.get("out_channels", c), _pool_extent(name, h, k, s, pad),
                _pool_extent(name, w, k, s, pad))
    if kind == GAP:
        return (in_shape[0], 1, 1)
    if kind == BNORM:
        if in_shape[0] != p["channels"]:
            raise GraphError(f"layer {name!r}: expects {p['channels']} channels, "
                             f"got {in_shape[0]}")
        return in_shape
    if kind == FC:
        n = math.prod(in_shape)
        if n != p["in_features"]:
            raise GraphError(f"layer {name!r}: expects {p['in_features']} input "
                             f"features, got {n}")
        return (p["units"],)
    if kind in (RELU, SWISH, SIGMOID):
        return in_shape
    if kind == FLATTEN:
        return (math.prod(in_shape),)
    if kind == ADD:
        skip_shape = shapes[p["skip_source"]]
        if skip_shape != in_shape:
            raise GraphError(f"layer {name!r}: skip operand shape {skip_shape} "
                             f"does not match input shape {in_shape}")
        return in_shape
    if kind == CMUL:
        map_shape = shapes[p["map_source"]]
        if len(map_shape) != 3:
            raise GraphError(f"layer {name!r}: scaled operand must be C x H x W")
        if math.prod(in_shape) != map_shape[0]:
            raise GraphError(f"layer {name!r}: gate vector of {math.prod(in_shape)} "
                             f"values cannot scale {map_shape[0]} channels")
        return map_shape
    raise GraphError(f"layer {name!r}: unknown kind {kind!r}")


def weight_shapes(layer):
    """Shape of each weight array the layer carries, by name; {} for kinds
    without parameters. Conv, depthwise conv and FC carry ``w``, output
    channels or units first, so one output element reads ``prod(w[1:])``
    weights, and a bias ``b``; batch norm carries ``gamma`` and ``beta``."""
    p = layer.params
    if layer.kind == CONV:
        k, o = p["kernel"], p["out_channels"]
        return {"w": (o, p["in_channels"], k, k), "b": (o,)}
    if layer.kind == DWCONV:
        k, c = p["kernel"], p["channels"]
        return {"w": (c, k, k), "b": (c,)}
    if layer.kind == FC:
        return {"w": (p["units"], p["in_features"]), "b": (p["units"],)}
    if layer.kind == BNORM:
        return {"gamma": (p["channels"],), "beta": (p["channels"],)}
    return {}


def weight_key(layer):
    """Key the engine caches the layer's weights under, None for kinds
    without weights: kind, seed and init, plus the weight shapes, which fix
    every other parameter the weights depend on."""
    shapes = weight_shapes(layer)
    if not shapes:
        return None
    p = layer.params
    return (layer.kind, p.get("seed", 0), p.get("init", "he"), *shapes.values())


def source_of(layer, i):
    """Index of the layer whose output layer ``i`` consumes (-1: the graph
    input)."""
    return i - 1 if layer.source is None else layer.source


def _refs(layer, i):
    """(field, index) for every operand of layer ``i``: its source, then
    ``skip_source`` / ``map_source`` when present."""
    return [("source", source_of(layer, i))] + [
        (key, layer.params[key]) for key in ("skip_source", "map_source")
        if key in layer.params]


def make_graph(name, input_shape, layers, partition_points, units=()):
    """Validate a layer chain, run shape inference, and freeze a ModelGraph.

    ``layers`` may carry empty output_shape fields; they are recomputed here.
    Raises GraphError on malformed references, shape mismatches, inputs too
    small for the downsampling chain, or partition points that cut a block.
    """
    try:
        dims = tuple(_index(d) for d in input_shape)
    except TypeError:
        dims = ()
    if not dims or any(d < 1 for d in dims):
        raise GraphError(f"model {name!r}: bad input shape {input_shape!r}")
    input_shape = dims
    if not layers:
        raise GraphError(f"model {name!r}: no layers")

    # slot layout: shapes[i] is layer i's output, shapes[-1] the input's
    shapes = [None] * len(layers) + [input_shape]
    inferred = []
    least = []  # least[i]: the least slot layer i reads
    names = set()
    for i, layer in enumerate(layers):
        if not isinstance(layer.name, str):
            raise GraphError(f"model {name!r}: layer name {layer.name!r} is "
                             f"not a string")
        if layer.name in names:
            raise GraphError(f"model {name!r}: duplicate layer name {layer.name!r}")
        names.add(layer.name)
        if layer.kind not in KINDS:
            raise GraphError(f"layer {layer.name!r}: unknown kind {layer.kind!r}")
        params = _check_params(layer.name, layer.kind, layer.params)
        refs = _refs(layer, i)
        for key, ref in refs:
            try:
                ok = -1 <= _index(ref) < i
            except TypeError:
                ok = False
            if not ok:
                raise GraphError(f"layer {layer.name!r}: {key} {ref} must name "
                                 f"an earlier layer")
        least.append(min(ref for _, ref in refs))
        out_shape = _infer_shape(layer.name, layer.kind, params,
                                 shapes[source_of(layer, i)], shapes)
        shapes[i] = out_shape
        source = None if layer.source is None else _index(layer.source)
        inferred.append(LayerSpec(layer.name, layer.kind, params, out_shape,
                                  source))
        # as the engine holds them: float64, 8 bytes an element
        for what, shape in [("output", out_shape), *weight_shapes(
                inferred[-1]).items()]:
            if not numpy_holds(shape, 8):
                raise GraphError(f"layer {layer.name!r}: {what} shape {shape} "
                                 f"is more than numpy can hold")

    pts = []
    seen_labels = set()
    prev_b = 0
    for lab, b in partition_points:
        try:
            b = _index(b)
        except TypeError:
            raise GraphError(f"model {name!r}: boundary {b!r} for {lab!r} is "
                             f"not an integer") from None
        if not isinstance(lab, str):
            raise GraphError(f"model {name!r}: partition label {lab!r} is not "
                             f"a string")
        if lab in seen_labels:
            raise GraphError(f"model {name!r}: duplicate partition label {lab!r}")
        seen_labels.add(lab)
        if not (1 <= b < len(layers)):
            raise GraphError(f"model {name!r}: boundary {b} for {lab!r} out of range")
        if b <= prev_b:
            raise GraphError(f"model {name!r}: partition boundaries must be "
                             f"strictly increasing")
        prev_b = b
        pts.append((lab, b))

    units = tuple(units)
    if units:
        pos = 0
        ends = set()
        for u in units:
            if u.start != pos or u.end <= u.start or u.end > len(layers):
                raise GraphError(f"model {name!r}: unit {u.label!r} does not tile "
                                 f"the layer chain")
            pos = u.end
            ends.add(u.end)
        if pos != len(layers):
            raise GraphError(f"model {name!r}: units do not cover the layer chain")
        for lab, b in pts:
            if b not in ends:
                raise GraphError(f"model {name!r}: partition point {lab!r} falls "
                                 f"inside a block")

    # a partition point must not be crossed by any reference other than to
    # the activation feeding the suffix (index boundary-1, the exposed map);
    # low[b] is the least slot that layers b onward read
    low = list(itertools.accumulate(reversed(least), min))[::-1]
    for lab, b in pts:
        if low[b] < b - 1:
            i = next(i for i in range(b, len(least)) if least[i] < b - 1)
            raise GraphError(
                f"model {name!r}: layer {inferred[i].name!r} reaches across "
                f"partition point {lab!r}")

    return ModelGraph(name=str(name), input_shape=input_shape,
                      layers=tuple(inferred), partition_points=tuple(pts),
                      units=units)


def _counts_for_range(model, lo, hi):
    """Run-length tally of described block kinds for layers [lo, hi)."""
    if model.units:
        items = [c for u in model.units if u.start >= lo and u.end <= hi
                 for c in u.counts]
    else:
        # no block annotations: tally primitive parameterized layers
        kinds = {CONV: "conv", DWCONV: "conv", FC: "FC"}
        items = [(kinds[layer.kind], 1) for layer in model.layers[lo:hi]
                 if layer.kind in kinds]
    return tuple((kind, sum(n for _, n in run))
                 for kind, run in itertools.groupby(items, key=lambda c: c[0]))


def format_counts(counts):
    if not counts:
        return "none"
    return " + ".join(f"{n} {kind}" for kind, n in counts)


def enumerate_partitions(model):
    """All supported cut positions with per-side block tallies and the
    exposed feature map's shape and byte size."""
    out = []
    n = len(model.layers)
    for lab, b in model.partition_points:
        shape = model.layers[b - 1].output_shape
        out.append(PartitionAssignment(
            boundary_label=lab,
            boundary=b,
            exposed_tensor_shape=shape,
            exposed_tensor_bytes=math.prod(shape) * ELEMENT_SIZE,
            enclave_counts=_counts_for_range(model, 0, b),
            accelerator_counts=_counts_for_range(model, b, n),
        ))
    return out


def split(model, boundary_label):
    """Cut the model at a named boundary into (enclave graph, accelerator
    graph). Composing the two reproduces the original computation; the only
    tensor flowing between them is the exposed feature map."""
    b = model.boundary_of(boundary_label)
    head = make_graph(
        f"{model.name}#enclave", model.input_shape, model.layers[:b],
        [(lab, bd) for lab, bd in model.partition_points if bd < b],
        tuple(u for u in model.units if u.end <= b))

    # the tail's references move down by b: the exposed map (layer b-1)
    # becomes the tail's input -1, and anything earlier falls below -1,
    # which the tail's make_graph rejects
    tail_layers = []
    for j, layer in enumerate(model.layers[b:]):
        params = {key: val - b if key in ("skip_source", "map_source") else val
                  for key, val in layer.params.items()}
        src = None if layer.source in (None, b + j - 1) else layer.source - b
        tail_layers.append(replace(layer, params=params, source=src))
    tail = make_graph(
        f"{model.name}#accelerator", model.layers[b - 1].output_shape,
        tail_layers,
        [(lab, bd - b) for lab, bd in model.partition_points if bd > b],
        tuple(Unit(u.label, u.start - b, u.end - b, u.counts)
              for u in model.units if u.start >= b))
    return head, tail


# ---------------------------------------------------------------------------
# JSON round trip

def model_to_json(model):
    layers = []
    for layer in model.layers:
        rec = {"name": layer.name, "kind": layer.kind}
        rec.update(layer.params)
        if layer.source is not None:
            rec["source"] = layer.source
        layers.append(rec)
    doc = {
        "name": model.name,
        "input_shape": list(model.input_shape),
        "layers": layers,
        "partition_points": [{"label": lab, "boundary": b}
                             for lab, b in model.partition_points],
    }
    if model.units:
        doc["units"] = [{"label": u.label, "start": u.start, "end": u.end,
                         "counts": [list(c) for c in u.counts]}
                        for u in model.units]
    return doc


def _unit_counts(counts):
    """A unit record's ``counts`` as (kind, n) pairs; ValueError or TypeError
    unless each is a [string, non-negative integer] pair."""
    if not isinstance(counts, list) or not all(
            isinstance(c, list) and len(c) == 2 and isinstance(c[0], str)
            and _index(c[1]) >= 0 for c in counts):
        raise ValueError(f"counts {counts!r} are not [kind, count >= 0] pairs")
    return tuple((k, _index(n)) for k, n in counts)


def model_from_json(doc):
    try:
        name = doc["name"]
        input_shape = doc["input_shape"]
        raw_layers = doc["layers"]
        raw_points = doc["partition_points"]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"model document missing field: {exc}") from None
    if not isinstance(raw_layers, list) or not isinstance(raw_points, list):
        raise GraphError("model layers and partition_points must be lists")
    layers = []
    for rec in raw_layers:
        if not isinstance(rec, dict):
            raise GraphError(f"layer record must be an object, got {rec!r}")
        rec = dict(rec)
        try:
            lname = rec.pop("name")
            kind = rec.pop("kind")
        except KeyError as exc:
            raise GraphError(f"layer record missing field: {exc}") from None
        src = rec.pop("source", None)
        layers.append(LayerSpec(name=lname, kind=kind, params=rec,
                                output_shape=(), source=src))
    points = []
    for rec in raw_points:
        try:
            points.append((rec["label"], rec["boundary"]))
        except (KeyError, TypeError) as exc:
            raise GraphError(f"partition point record missing field: {exc}") from None
    try:
        units = tuple(Unit(rec["label"], _index(rec["start"]),
                           _index(rec["end"]),
                           _unit_counts(rec.get("counts", [])))
                      for rec in doc.get("units", []))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed unit record: {exc!r}") from None
    return make_graph(name, input_shape, layers, points, units)


def save_model(path, model):
    write_text_atomic(path, json.dumps(model_to_json(model), indent=2) + "\n")


def load_model(path):
    return model_from_json(read_json(path, GraphError, "model document"))
