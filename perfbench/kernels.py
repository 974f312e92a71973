"""Per-kind kernel table for the traced run.

Each layer kind the workloads run is timed alone, at one attack-scale and
one 224-scale input, on a two-layer graph: the layer, then a Flatten, with
the partition point between them so ``input_gradient`` covers exactly the
layer. ``bwd_us`` is the whole ``input_gradient`` call, which re-runs the
layer's forward before its backward. MACs come from ``costs.mac_count``;
bytes are computed as float64 input + output + parameters, not measured.
Add and ChannelwiseMul need a second operand and are left out: their cost
shows only in their networks' forward times.
"""

import math
import statistics
from time import perf_counter

import numpy as np

from teesplit import costs, engine, graph
from teesplit.graph import (BNORM, CONV, DWCONV, FC, FLATTEN, GAP, MAXPOOL,
                            RELU, SIGMOID, SWISH, LayerSpec)

CHANNELS = 8
SHAPES = (("h16", (CHANNELS, 16, 16)), ("h224", (CHANNELS, 224, 224)))
KINDS = (
    (CONV, {"in_channels": CHANNELS, "out_channels": CHANNELS, "kernel": 3,
            "stride": 1, "padding": 1}),
    (DWCONV, {"channels": CHANNELS, "kernel": 3, "stride": 1, "padding": 1}),
    (FC, {"units": 10}),
    (RELU, {}),
    (SWISH, {}),
    (SIGMOID, {}),
    (BNORM, {"channels": CHANNELS}),
    (MAXPOOL, {"kernel": 2, "stride": 2}),
    (GAP, {}),
    (FLATTEN, {}),
)
MIN_REPEATS = 5
MIN_SECONDS = 0.02


def _graph(kind, params, shape, seed):
    params = dict(params)
    if kind == FC:
        params["in_features"] = math.prod(shape)
    if kind in (CONV, DWCONV, FC, BNORM):
        params["seed"] = seed
    layers = [LayerSpec("layer", kind, params, ()),
              LayerSpec("flatten", FLATTEN, {}, ())]
    return graph.make_graph(f"kernel-{kind}", shape, layers, [("out", 1)])


def _median_us(fn):
    fn()  # materializes weights outside the timing
    times = []
    start = perf_counter()
    while len(times) < MIN_REPEATS or perf_counter() - start < MIN_SECONDS:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e6 * statistics.median(times)


def kernel_table(seed):
    """Rows of (kind, shape tag, fwd_us, bwd_us, macs, bytes)."""
    rows = []
    for tag, shape in SHAPES:
        rng = np.random.default_rng(graph.mix_seed(seed, len(tag)))
        x = rng.uniform(0.0, 1.0, shape)
        for kind, params in KINDS:
            g = _graph(kind, params, shape, graph.mix_seed(seed, 11))
            layer = g.layers[0]
            cot = rng.standard_normal(layer.output_shape)
            fwd = _median_us(lambda: engine.forward(g, x))
            bwd = _median_us(lambda: engine.input_gradient(g, "out", x, cot))
            nbytes = 8 * (math.prod(shape) + math.prod(layer.output_shape)
                          + engine.param_count(layer))
            rows.append((kind, tag, fwd, bwd, costs.mac_count(g, "out"),
                         nbytes))
    return rows
