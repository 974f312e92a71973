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

import json
import math
from dataclasses import dataclass, replace

ELEMENT_SIZE = 4  # bytes per tensor element on the wire

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


class GraphError(ValueError):
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


@dataclass(frozen=True)
class ModelGraph:
    name: str
    input_shape: tuple
    layers: tuple
    partition_points: tuple  # ((label, boundary), ...)
    units: tuple = ()

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
    """A model cut at one named boundary: layer ranges per environment plus
    the shape/byte size of the feature map that crosses between them."""
    boundary_label: str
    boundary: int
    enclave_range: tuple
    accelerator_range: tuple
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


def _check_params(name, kind, params):
    spec = _PARAM_SPEC[kind]
    for key in params:
        if key not in spec:
            raise GraphError(f"layer {name!r}: unknown {kind} parameter {key!r}")
    for key, required in spec.items():
        if required and key not in params:
            raise GraphError(f"layer {name!r}: missing {kind} parameter {key!r}")
    for key, val in params.items():
        if key == "init":
            if val not in ("he", "identity"):
                raise GraphError(f"layer {name!r}: unknown init {val!r}")
        elif not isinstance(val, int) or isinstance(val, bool):
            raise GraphError(f"layer {name!r}: parameter {key!r} must be an integer")
    for key in ("kernel", "stride"):
        if key in params and params[key] < 1:
            raise GraphError(f"layer {name!r}: {key} must be >= 1")
    for key in ("padding", "seed"):
        if params.get(key, 0) < 0:
            raise GraphError(f"layer {name!r}: {key} must be >= 0")


def _pool_extent(name, h, k, s, p):
    out = (h + 2 * p - k) // s + 1
    if h + 2 * p < k or out < 1:
        raise GraphError(
            f"layer {name!r}: spatial extent {h} too small for kernel {k} "
            f"(stride {s}, padding {p})")
    return out


def _infer_shape(layer, in_shape, shape_of):
    """Output shape of one layer given its input shape. ``shape_of`` resolves
    referenced layer indices for Add/ChannelwiseMul."""
    name, kind, p = layer.name, layer.kind, layer.params
    if kind in (CONV, DWCONV, MAXPOOL, AVGPOOL, GAP, BNORM):
        if len(in_shape) != 3:
            raise GraphError(f"layer {name!r}: {kind} needs a C x H x W input, "
                             f"got shape {in_shape}")
    if kind == CONV:
        c, h, w = in_shape
        if c != p["in_channels"]:
            raise GraphError(f"layer {name!r}: expects {p['in_channels']} input "
                             f"channels, got {c}")
        if p.get("init") == "identity":
            if p["in_channels"] != p["out_channels"]:
                raise GraphError(f"layer {name!r}: identity init needs matching "
                                 f"channel counts")
            if p["kernel"] % 2 == 0:
                raise GraphError(f"layer {name!r}: identity init needs an odd kernel")
        oh = _pool_extent(name, h, p["kernel"], p["stride"], p["padding"])
        ow = _pool_extent(name, w, p["kernel"], p["stride"], p["padding"])
        return (p["out_channels"], oh, ow)
    if kind == DWCONV:
        c, h, w = in_shape
        if c != p["channels"]:
            raise GraphError(f"layer {name!r}: expects {p['channels']} channels, got {c}")
        oh = _pool_extent(name, h, p["kernel"], p["stride"], p["padding"])
        ow = _pool_extent(name, w, p["kernel"], p["stride"], p["padding"])
        return (c, oh, ow)
    if kind in (MAXPOOL, AVGPOOL):
        c, h, w = in_shape
        pad = p.get("padding", 0)
        oh = _pool_extent(name, h, p["kernel"], p["stride"], pad)
        ow = _pool_extent(name, w, p["kernel"], p["stride"], pad)
        return (c, oh, ow)
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
        skip_shape = shape_of(p["skip_source"])
        if skip_shape != in_shape:
            raise GraphError(f"layer {name!r}: skip operand shape {skip_shape} "
                             f"does not match input shape {in_shape}")
        return in_shape
    if kind == CMUL:
        map_shape = shape_of(p["map_source"])
        if len(map_shape) != 3:
            raise GraphError(f"layer {name!r}: scaled operand must be C x H x W")
        if math.prod(in_shape) != map_shape[0]:
            raise GraphError(f"layer {name!r}: gate vector of {math.prod(in_shape)} "
                             f"values cannot scale {map_shape[0]} channels")
        return map_shape
    raise GraphError(f"layer {name!r}: unknown kind {kind!r}")


def _refs(layer):
    """(field, index) for every layer this layer names as an operand:
    ``source``, then ``skip_source`` / ``map_source`` when present."""
    refs = [] if layer.source is None else [("source", layer.source)]
    return refs + [(key, layer.params[key])
                   for key in ("skip_source", "map_source")
                   if key in layer.params]


def make_graph(name, input_shape, layers, partition_points, units=()):
    """Validate a layer chain, run shape inference, and freeze a ModelGraph.

    ``layers`` may carry empty output_shape fields; they are recomputed here.
    Raises GraphError on malformed references, shape mismatches, inputs too
    small for the downsampling chain, or partition points that cut a block.
    """
    try:
        input_shape = tuple(int(d) for d in input_shape)
    except (TypeError, ValueError):
        raise GraphError(f"model {name!r}: bad input shape "
                         f"{input_shape!r}") from None
    if len(input_shape) < 1 or any(d < 1 for d in input_shape):
        raise GraphError(f"model {name!r}: bad input shape {input_shape}")
    if not layers:
        raise GraphError(f"model {name!r}: no layers")

    shapes = []

    def shape_of(idx):
        if idx == -1:
            return input_shape
        if not (0 <= idx < len(shapes)):
            raise GraphError(f"model {name!r}: reference to layer {idx} is out of range")
        return shapes[idx]

    inferred = []
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
        _check_params(layer.name, layer.kind, layer.params)
        for key, ref in _refs(layer):
            if (not isinstance(ref, int) or isinstance(ref, bool)
                    or not -1 <= ref < i):
                raise GraphError(f"layer {layer.name!r}: {key} {ref} must name "
                                 f"an earlier layer")
        src = layer.source
        in_shape = shape_of(i - 1 if src is None else src)
        out_shape = _infer_shape(layer, in_shape, shape_of)
        shapes.append(out_shape)
        inferred.append(replace(layer, output_shape=out_shape))

    pts = []
    seen_labels = set()
    prev_b = 0
    for lab, b in partition_points:
        try:
            b = int(b)
        except (TypeError, ValueError):
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
    # the activation feeding the suffix (index boundary-1, the exposed map)
    for lab, b in pts:
        for layer in inferred[b:]:
            for _, r in _refs(layer):
                if r < b - 1:
                    raise GraphError(
                        f"model {name!r}: layer {layer.name!r} reaches across "
                        f"partition point {lab!r}")

    return ModelGraph(name=str(name), input_shape=input_shape,
                      layers=tuple(inferred), partition_points=tuple(pts),
                      units=units)


def _counts_for_range(model, lo, hi):
    """Run-length tally of described block kinds for layers [lo, hi)."""
    runs = []
    if model.units:
        for u in model.units:
            if u.start >= lo and u.end <= hi:
                for kind, n in u.counts:
                    if runs and runs[-1][0] == kind:
                        runs[-1][1] += n
                    else:
                        runs.append([kind, n])
    else:
        # no block annotations: tally primitive parameterized layers
        for layer in model.layers[lo:hi]:
            kind = {CONV: "conv", DWCONV: "conv", FC: "FC"}.get(layer.kind)
            if kind:
                if runs and runs[-1][0] == kind:
                    runs[-1][1] += 1
                else:
                    runs.append([kind, 1])
    return tuple((k, n) for k, n in runs)


def format_counts(counts):
    if not counts:
        return "none"
    return " + ".join(f"{n} {kind}" for kind, n in counts)


def enumerate_partitions(model):
    """All supported cut positions with per-side layer ranges, block tallies,
    and the exposed feature map's shape and byte size."""
    out = []
    n = len(model.layers)
    for lab, b in model.partition_points:
        shape = model.layers[b - 1].output_shape
        out.append(PartitionAssignment(
            boundary_label=lab,
            boundary=b,
            enclave_range=(0, b),
            accelerator_range=(b, n),
            exposed_tensor_shape=shape,
            exposed_tensor_bytes=math.prod(shape) * ELEMENT_SIZE,
            enclave_counts=_counts_for_range(model, 0, b),
            accelerator_counts=_counts_for_range(model, b, n),
        ))
    return out


def _shift_ref(idx, b, owner, model):
    if idx >= b:
        return idx - b
    if idx == b - 1:
        return -1
    raise GraphError(f"model {model.name!r}: layer {owner!r} reaches across "
                     f"the requested boundary")


def split(model, boundary_label):
    """Cut the model at a named boundary into (enclave graph, accelerator
    graph). Composing the two reproduces the original computation; the only
    tensor flowing between them is the exposed feature map."""
    b = model.boundary_of(boundary_label)
    head = make_graph(
        f"{model.name}#enclave", model.input_shape, model.layers[:b],
        [(lab, bd) for lab, bd in model.partition_points if bd < b],
        tuple(u for u in model.units if u.end <= b))

    tail_layers = []
    for i in range(b, len(model.layers)):
        layer = model.layers[i]
        params = dict(layer.params)
        for key in ("skip_source", "map_source"):
            if key in params:
                params[key] = _shift_ref(params[key], b, layer.name, model)
        src = layer.source
        if src is not None:
            src = _shift_ref(src, b, layer.name, model)
            if src == i - b - 1:
                src = None
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
        units = tuple(
            Unit(rec["label"], int(rec["start"]), int(rec["end"]),
                 tuple((k, n) for k, n in rec.get("counts", [])))
            for rec in doc.get("units", []))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed unit record: {exc!r}") from None
    return make_graph(name, input_shape, layers, points, units)


def save_model(path, model):
    from .tensors import write_text_atomic
    write_text_atomic(path, json.dumps(model_to_json(model), indent=2) + "\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphError(f"unreadable model document {path}: {exc}") from None
    return model_from_json(doc)
