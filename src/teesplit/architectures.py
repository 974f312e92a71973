"""Built-in model graphs: VGG-16, ResNet-50, EfficientNet-B0, and small toy
CNNs for attack experiments.

Each builder lowers its architecture to the primitive layer chain and names
one partition point after every complete block that may host the trust
boundary: VGG-16 after each of its 13 convolution groups (a group is the
conv, its activation, and the pooling that immediately follows, when one
does), ResNet-50 after the stem and after each of its 4 stages, and
EfficientNet-B0 after the stem, after each of its first 6 MBConv stages, and
after the 1x1 head convolution.

Weights are not pretrained; parameterized layers carry a seed derived from
the builder's master seed, and the execution engine materializes He-style
fan-in scaled weights from it on demand.
"""

from __future__ import annotations

import math

from .graph import (ADD, BNORM, CMUL, CONV, DWCONV, FC, FLATTEN, GAP,
                    GraphError, LayerSpec, MAXPOOL, RELU, SIGMOID, SWISH, Unit,
                    load_model, make_graph, mix_seed)

BUILTIN_ARCHITECTURES = ("vgg16", "resnet50", "efficientnetb0")


class _Assembler:
    """Accumulates layers, blocks, and partition points for a builder."""

    def __init__(self, name, input_shape, master_seed):
        self.name = name
        self.input_shape = input_shape
        self.master_seed = master_seed
        self.layers = []
        self.units = []
        self.points = []
        self._unit_start = 0

    def add(self, kind, name, source=None, **params):
        if kind in (CONV, DWCONV, FC, BNORM) and "seed" not in params:
            params["seed"] = mix_seed(self.master_seed, len(self.layers))
        if kind == FC and "in_features" not in params:
            # the width make_graph infers for the previous layer's output,
            # so one builder body serves every input size the chain accepts
            width = math.prod(make_graph(self.name, self.input_shape,
                                         self.layers, ()).output_shape)
            params = {"in_features": width, **params}
        self.layers.append(LayerSpec(name=name, kind=kind, params=params,
                                     output_shape=(), source=source))
        return len(self.layers) - 1

    @property
    def last(self):
        return len(self.layers) - 1

    def unit(self, label, counts=()):
        self.units.append(Unit(label, self._unit_start, len(self.layers),
                               tuple(counts)))
        self._unit_start = len(self.layers)

    def point(self, label):
        self.points.append((label, len(self.layers)))

    def build(self):
        return make_graph(self.name, self.input_shape, self.layers,
                          self.points, tuple(self.units))


def build_vgg16(input_shape=(3, 224, 224), seed=0):
    a = _Assembler("vgg16", input_shape, mix_seed(seed, 16))
    groups = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)]
    in_ch = input_shape[0]
    conv_no = 0
    for g, (width, reps) in enumerate(groups):
        for r in range(reps):
            conv_no += 1
            a.add(CONV, f"conv{conv_no}", in_channels=in_ch, out_channels=width,
                  kernel=3, stride=1, padding=1)
            a.add(RELU, f"relu{conv_no}")
            if r == reps - 1:
                a.add(MAXPOOL, f"pool{g + 1}", kernel=2, stride=2)
            a.unit(f"conv{conv_no}", (("conv", 1),))
            a.point(f"Layer {conv_no}")
            in_ch = width
    a.add(FLATTEN, "flatten")
    for i, units in enumerate((4096, 4096, 1000), start=1):
        a.add(FC, f"fc{i}", units=units)
        if i < 3:
            a.add(RELU, f"fc{i}.relu")
        a.unit(f"fc{i}", (("FC", 1),))
    return a.build()


def _bottleneck(a, in_ch, mid, out_ch, stride, tag):
    """Residual bottleneck: 1x1 reduce, 3x3 spatial, 1x1 expand, with a
    projection shortcut whenever the block reshapes its input."""
    pre = a.last
    project = stride != 1 or in_ch != out_ch
    a.add(CONV, f"{tag}.conv1", in_channels=in_ch, out_channels=mid,
          kernel=1, stride=1, padding=0)
    a.add(BNORM, f"{tag}.bn1", channels=mid)
    a.add(RELU, f"{tag}.relu1")
    a.add(CONV, f"{tag}.conv2", in_channels=mid, out_channels=mid,
          kernel=3, stride=stride, padding=1)
    a.add(BNORM, f"{tag}.bn2", channels=mid)
    a.add(RELU, f"{tag}.relu2")
    a.add(CONV, f"{tag}.conv3", in_channels=mid, out_channels=out_ch,
          kernel=1, stride=1, padding=0)
    main_end = a.add(BNORM, f"{tag}.bn3", channels=out_ch)
    if project:
        a.add(CONV, f"{tag}.skip.conv", source=pre, in_channels=in_ch,
              out_channels=out_ch, kernel=1, stride=stride, padding=0)
        a.add(BNORM, f"{tag}.skip.bn", channels=out_ch)
        a.add(ADD, f"{tag}.add", skip_source=main_end)
    else:
        a.add(ADD, f"{tag}.add", skip_source=pre)
    a.add(RELU, f"{tag}.out")
    a.unit(tag, (("conv", 3),))


def build_resnet50(input_shape=(3, 224, 224), seed=0):
    a = _Assembler("resnet50", input_shape, mix_seed(seed, 50))
    a.add(CONV, "stem.conv", in_channels=input_shape[0], out_channels=64,
          kernel=7, stride=2, padding=3)
    a.add(BNORM, "stem.bn", channels=64)
    a.add(RELU, "stem.relu")
    a.add(MAXPOOL, "stem.pool", kernel=3, stride=2, padding=1)
    a.unit("stem", (("conv", 1),))
    a.point("Layer 1")
    in_ch = 64
    for s, (mid, reps) in enumerate(zip((64, 128, 256, 512), (3, 4, 6, 3)),
                                    start=1):
        out_ch = mid * 4
        for r in range(reps):
            stride = 2 if (r == 0 and s > 1) else 1
            _bottleneck(a, in_ch, mid, out_ch, stride, f"stage{s}.block{r + 1}")
            in_ch = out_ch
        a.point(f"Layer {s + 1}")
    a.add(GAP, "head.pool")
    a.add(FLATTEN, "head.flatten")
    a.add(FC, "head.fc", in_features=in_ch, units=1000)
    a.unit("head", (("FC", 1),))
    return a.build()


def _mbconv(a, in_ch, out_ch, expand, stride, kernel, tag):
    """Mobile inverted bottleneck: 1x1 expansion, depthwise conv, squeeze-
    excitation gate, 1x1 projection; residual only when shape is preserved."""
    pre = a.last
    e = in_ch * expand
    a.add(CONV, f"{tag}.expand", in_channels=in_ch, out_channels=e,
          kernel=1, stride=1, padding=0)
    a.add(BNORM, f"{tag}.expand.bn", channels=e)
    a.add(SWISH, f"{tag}.expand.act")
    a.add(DWCONV, f"{tag}.dw", channels=e, kernel=kernel, stride=stride,
          padding=kernel // 2)
    a.add(BNORM, f"{tag}.dw.bn", channels=e)
    gated = a.add(SWISH, f"{tag}.dw.act")
    a.add(GAP, f"{tag}.se.pool")
    a.add(FC, f"{tag}.se.reduce", in_features=e, units=max(1, in_ch // 4))
    a.add(SWISH, f"{tag}.se.act")
    a.add(FC, f"{tag}.se.expand", in_features=max(1, in_ch // 4), units=e)
    a.add(SIGMOID, f"{tag}.se.gate")
    a.add(CMUL, f"{tag}.se.scale", map_source=gated)
    a.add(CONV, f"{tag}.project", in_channels=e, out_channels=out_ch,
          kernel=1, stride=1, padding=0)
    a.add(BNORM, f"{tag}.project.bn", channels=out_ch)
    if stride == 1 and in_ch == out_ch:
        a.add(ADD, f"{tag}.add", skip_source=pre)
    a.unit(tag, (("MBConv", 1),))


def build_efficientnetb0(input_shape=(3, 224, 224), seed=0):
    a = _Assembler("efficientnetb0", input_shape, mix_seed(seed, 7))
    a.add(CONV, "stem.conv", in_channels=input_shape[0], out_channels=32,
          kernel=3, stride=2, padding=1)
    a.add(BNORM, "stem.bn", channels=32)
    a.add(SWISH, "stem.act")
    a.unit("stem", (("conv", 1),))
    a.point("Layer 1")
    stages = [
        (1, 16, 1, 1, 3),
        (6, 24, 2, 2, 3),
        (6, 40, 2, 2, 5),
        (6, 80, 3, 2, 3),
        (6, 112, 3, 1, 5),
        (6, 192, 4, 2, 5),
        (6, 320, 1, 1, 3),
    ]
    in_ch = 32
    block_no = 0
    for s, (expand, out_ch, reps, stride, kernel) in enumerate(stages, start=1):
        for r in range(reps):
            block_no += 1
            _mbconv(a, in_ch, out_ch, expand, stride if r == 0 else 1, kernel,
                    f"mbconv{block_no}")
            in_ch = out_ch
        if s <= 6:
            a.point(f"Layer {s + 1}")
    a.add(CONV, "head.conv", in_channels=in_ch, out_channels=1280,
          kernel=1, stride=1, padding=0)
    a.add(BNORM, "head.bn", channels=1280)
    a.add(SWISH, "head.act")
    a.unit("head", (("conv", 1),))
    a.point("Layer 8")
    a.add(GAP, "top.pool")
    a.add(FLATTEN, "top.flatten")
    a.add(FC, "top.fc", in_features=1280, units=1000)
    a.unit("top", (("FC", 1),))
    return a.build()


def build_architecture(arch_name, input_shape=(3, 224, 224), seed=0):
    """Build one of the supported architectures at the given input size.

    Raises GraphError for unknown names or inputs too small to survive the
    architecture's downsampling chain.
    """
    builders = {"vgg16": build_vgg16, "resnet50": build_resnet50,
                "efficientnetb0": build_efficientnetb0}
    if arch_name not in builders:
        raise GraphError(f"unknown architecture {arch_name!r}; expected one of "
                         f"{', '.join(BUILTIN_ARCHITECTURES)}")
    return builders[arch_name](tuple(input_shape), seed)


def build_toy_cnn(points=4, input_shape=(1, 16, 16), seed=0, widths=None):
    """Small CNN with one partition point per conv block, for inversion
    experiments. Later blocks pool and narrow, so deeper exposed maps carry
    progressively less of the input."""
    if points < 2:
        raise GraphError("toy model needs at least 2 partition points")
    if widths is None:
        widths = [8, 8, 6, 4, 3, 2][:points]
        while len(widths) < points:
            widths.append(2)
    if len(widths) != points:
        raise GraphError("widths must provide one channel count per block")
    a = _Assembler(f"toy{points}", input_shape, mix_seed(seed, points, 997))
    in_ch = input_shape[0]
    for i, width in enumerate(widths, start=1):
        if i in (2, 3):
            a.add(MAXPOOL, f"block{i}.pool", kernel=2, stride=2)
        a.add(CONV, f"block{i}.conv", in_channels=in_ch, out_channels=width,
              kernel=3, stride=1, padding=1)
        a.add(RELU, f"block{i}.relu")
        a.unit(f"block{i}", (("conv", 1),))
        a.point(f"L{i}")
        in_ch = width
    a.add(FLATTEN, "top.flatten")
    a.add(FC, "top.fc", units=10)
    a.unit("top", (("FC", 1),))
    return a.build()


def resolve_model(spec, input_shape=None, seed=0):
    """Model reference as used by the command line: a built-in architecture
    name, ``toy<N>`` for an N-point toy CNN, or a path to a JSON document."""
    if spec.endswith(".json"):
        return load_model(spec)
    if spec.startswith("toy") and spec[3:].isdigit():
        return build_toy_cnn(points=int(spec[3:]),
                             input_shape=input_shape or (1, 16, 16), seed=seed)
    return build_architecture(spec, input_shape or (3, 224, 224), seed)
