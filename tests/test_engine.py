import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import teesplit as ts
from teesplit import engine
from teesplit.graph import _COLS_BLOCK_BYTES, LayerSpec


def spec(name, kind, source=None, **params):
    return LayerSpec(name=name, kind=kind, params=params, output_shape=(),
                     source=source)


def graph(input_shape, layers, points=()):
    return ts.make_graph("t", input_shape, layers, list(points))


def windows(x, k, stride, pad, fill=0.0):
    """``engine._bind_windows`` of ``x`` over fresh memory, its ops run once."""
    win, ops = engine._bind_windows(x, k, stride, pad, fill, engine._Scratch())
    engine._call(ops)
    return win


# ---------------------------------------------------------------------------
# weight materialization

def test_weights_deterministic_across_cache_clears():
    layer = spec("c", ts.CONV, in_channels=3, out_channels=8, kernel=3,
                 stride=1, padding=1, seed=42)
    w1 = {k: v.copy() for k, v in ts.layer_weights(layer).items()}
    ts.clear_weight_cache()
    w2 = ts.layer_weights(layer)
    for k in w1:
        assert w1[k].tobytes() == w2[k].tobytes()


def test_weight_seed_changes_weights():
    base = dict(in_channels=3, out_channels=8, kernel=3, stride=1, padding=1)
    a = ts.layer_weights(spec("c", ts.CONV, seed=1, **base))
    b = ts.layer_weights(spec("c", ts.CONV, seed=2, **base))
    assert a["w"].tobytes() != b["w"].tobytes()


def test_he_init_scale():
    layer = spec("c", ts.CONV, in_channels=16, out_channels=64, kernel=3,
                 stride=1, padding=1, seed=0)
    w = ts.layer_weights(layer)["w"]
    fan_in = 16 * 9
    std = float(w.std())
    assert abs(std - np.sqrt(2.0 / fan_in)) < 0.01
    assert abs(float(w.mean())) < 0.01
    assert np.all(ts.layer_weights(layer)["b"] == 0.0)


def test_bn_init_ranges():
    layer = spec("bn", ts.BNORM, channels=256, seed=3)
    w = ts.layer_weights(layer)
    assert np.all(w["gamma"] >= 0.9) and np.all(w["gamma"] <= 1.1)
    assert float(np.abs(w["beta"]).max()) < 0.3


@pytest.fixture
def identity_conv(monkeypatch):
    """Materializes every conv's kernel as the identity for one test: 1.0
    at the centre offset of each output channel's own input channel, 0.0
    elsewhere, with the shipped zero bias. Each conv must keep its channel
    count and have an odd kernel."""
    materialize = engine._materialize

    def identity(layer):
        w = materialize(layer)
        if layer.kind == ts.CONV:
            o, _, k, _ = w["w"].shape
            w["w"] = np.zeros(w["w"].shape)
            w["w"][range(o), range(o), k // 2, k // 2] = 1.0
        return w

    ts.clear_weight_cache()
    monkeypatch.setattr(engine, "_materialize", identity)
    yield
    ts.clear_weight_cache()


def test_identity_conv_is_identity(identity_conv):
    layers = [spec("c", ts.CONV, in_channels=3, out_channels=3, kernel=3,
                   stride=1, padding=1, seed=0)]
    m = graph((3, 6, 6), layers)
    x = np.random.default_rng(0).uniform(0, 1, (3, 6, 6))
    assert ts.forward(m, x).tobytes() == x.tobytes()


def test_param_count_oracle():
    c = spec("c", ts.CONV, in_channels=3, out_channels=8, kernel=3, stride=1,
             padding=1)
    assert ts.param_count(c) == 8 * (3 * 9 + 1)
    f = spec("f", ts.FC, in_features=10, units=4)
    assert ts.param_count(f) == 4 * 11
    d = spec("d", ts.DWCONV, channels=6, kernel=5, stride=1, padding=2)
    assert ts.param_count(d) == 6 * 26
    assert ts.param_count(spec("r", ts.RELU)) == 0


# ---------------------------------------------------------------------------
# forward semantics, hand oracles

@pytest.fixture
def nonzero_bias(monkeypatch):
    """Draws every conv, depthwise-conv and FC bias non-zero for one test.

    The shipped biases are all zero, so without this no oracle can tell a
    forward pass that adds the bias from one that skips it."""
    materialize = engine._materialize

    def biased(layer):
        w = materialize(layer)
        if "b" in w:
            w["b"] = np.random.default_rng(6).uniform(0.5, 1.5, w["b"].shape)
        return w

    ts.clear_weight_cache()
    monkeypatch.setattr(engine, "_materialize", biased)
    assert ts.layer_weights(spec("p", ts.FC, in_features=2, units=3))["b"].min() > 0
    yield
    ts.clear_weight_cache()


def test_fc_forward_matches_matrix_math():
    layers = [spec("fl", ts.FLATTEN), spec("fc", ts.FC, in_features=12,
                                           units=5, seed=7)]
    m = graph((3, 2, 2), layers)
    x = np.random.default_rng(1).standard_normal((3, 2, 2))
    w = ts.layer_weights(m.layers[1])
    want = w["w"] @ x.ravel() + w["b"]
    got = ts.forward(m, x)
    assert np.allclose(got, want, rtol=0, atol=0)


# (in_channels, out_channels, H, W, kernel, stride, padding): 1x1 stride 1
# unpadded is the lowering's no-copy path, 7x7/2 pad 3 the ResNet stem, and
# the 90x90 case's columns exceed one block (80 rows, then 10)
CONV_CASES = [(2, 3, 5, 5, 3, 2, 1), (4, 5, 6, 6, 1, 1, 0),
              (4, 5, 7, 7, 1, 2, 0), (3, 4, 15, 15, 7, 2, 3),
              (3, 2, 6, 9, 3, 1, 1), (16, 2, 90, 90, 3, 1, 1)]
# (channels, H, W, kernel, stride, padding): the planes are channel-last
# below 8 output columns and channel-major from 8 on. A 1x1 output of one
# channel is a single sum; 5 channels give a 2x2 output; stride 2 with
# padding 2 on each side; 110 channels at 7x7 fill a planes block of 106
# channels and a partial one of 4, and 8 channels at 64x64 blocks of 3, 3
# and 2
DWCONV_CASES = [(3, 4, 4, 3, 1, 1), (3, 9, 7, 5, 2, 2), (1, 3, 3, 3, 1, 0),
                (5, 4, 4, 3, 1, 0), (2, 20, 18, 5, 2, 2), (110, 7, 7, 5, 1, 2),
                (8, 64, 64, 3, 1, 1)]


def conv_layer(case, seed):
    """(input shape, layer) for a CONV_CASES entry."""
    c, o, h, w, k, s, pad = case
    return (c, h, w), spec("c", ts.CONV, in_channels=c, out_channels=o,
                           kernel=k, stride=s, padding=pad, seed=seed)


def dwconv_layer(case, seed):
    """(input shape, layer) for a DWCONV_CASES entry."""
    c, h, w, k, s, pad = case
    return (c, h, w), spec("d", ts.DWCONV, channels=c, kernel=k, stride=s,
                           padding=pad, seed=seed)


def test_conv_forward_matches_loop_oracle():
    for n, case in enumerate(CONV_CASES):
        c, o, h, w_, k, s, pad = case
        shape, layer = conv_layer(case, 9 + n)
        m = graph(shape, [layer])
        x = np.random.default_rng(2 + n).standard_normal(shape)
        w = ts.layer_weights(m.layers[0])
        xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
        oh, ow = (h + 2 * pad - k) // s + 1, (w_ + 2 * pad - k) // s + 1
        want = np.zeros((o, oh, ow))
        for oc in range(o):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[:, s * i:s * i + k, s * j:s * j + k]
                    want[oc, i, j] = float((patch * w["w"][oc]).sum()) + w["b"][oc]
        got = ts.forward(m, x)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12), case
        assert got.flags.c_contiguous and not np.shares_memory(got, x), case


def test_dwconv_forward_matches_loop_oracle():
    for n, case in enumerate(DWCONV_CASES):
        c, h, w_, k, s, pad = case
        shape, layer = dwconv_layer(case, 4 + n)
        m = graph(shape, [layer])
        x = np.random.default_rng(3 + n).standard_normal(shape)
        w = ts.layer_weights(m.layers[0])
        xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
        oh, ow = (h + 2 * pad - k) // s + 1, (w_ + 2 * pad - k) // s + 1
        want = np.zeros((c, oh, ow))
        for ch in range(c):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[ch, s * i:s * i + k, s * j:s * j + k]
                    want[ch, i, j] = float((patch * w["w"][ch]).sum()) + w["b"][ch]
        got = ts.forward(m, x)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12), case
        assert got.flags.c_contiguous and not np.shares_memory(got, x), case


def dwconv_oracle(x, w, b, k, s, pad):
    """The depthwise forward as a loop over the kernel offsets: one
    (C, OH, OW) product per offset added to a sum from +0.0 in row-major
    offset order, then the bias."""
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
    out = np.zeros(win.shape[:3])
    for i in range(k):
        for j in range(k):
            out += win[..., i, j] * w[:, i, j, None, None]
    return out + b[:, None, None]


def test_dwconv_forward_matches_offset_loop_bitwise():
    blocks = set()
    for n, case in enumerate(DWCONV_CASES):
        c, h, w_, k, s, pad = case
        oh, ow = (h + 2 * pad - k) // s + 1, (w_ + 2 * pad - k) // s + 1
        per = engine._PLANES_BLOCK_BYTES // (k * k * oh * ow * 8)
        blocks.add((ow < 8, oh * ow, c, per))  # channel-last, as the engine
        shape, layer = dwconv_layer(case, 40 + n)
        m = graph(shape, [layer])
        x = np.random.default_rng(50 + n).standard_normal(shape)
        w = ts.layer_weights(m.layers[0])
        want = dwconv_oracle(x, w["w"], w["b"], k, s, pad)
        assert ts.forward(m, x).tobytes() == want.tobytes(), case
    # the cases reach a single sum, a 2x2 output, and on each side a last
    # planes block holding part of the channels, more than one
    assert any(hw == c == 1 for _, hw, c, _ in blocks)
    assert any(hw == 4 for _, hw, _, _ in blocks)
    for side in (True, False):
        assert any(last == side and c % per > 1 and c > per
                   for last, _, c, per in blocks), side


def test_offset_sum_adds_in_row_major_order_from_zero():
    # 1.0 then eight 1e-16 terms: added in order, each term rounds away and
    # the sum is 1.0; numpy sums a reduction left with one output element
    # pairwise, adding most small terms to each other first, to 1 + 7e-16
    terms = np.array([1.0] + [1e-16] * 8)
    for shape in [(9, 1), (9, 1, 1, 1), (9, 2), (9, 3, 2)]:
        planes = np.empty(shape)
        planes.T[...] = terms
        out = np.empty(shape[1:])
        engine._call(engine._offset_sum(planes, out))
        assert (out == 1.0).all(), shape


def test_dwconv_bias_matches_offset_loop_bitwise(nonzero_bias):
    test_dwconv_forward_matches_offset_loop_bitwise()


# laid out as CONV_CASES, with columns spanning several blocks: rows dividing
# OH evenly (2 x 65), a ragged last block (82 rows, then 6), stride 2 with
# padding, and 1x1. Every block is a multiple of 8 columns wide, and so is
# the whole: OpenBLAS computes a last partial group of columns differently
# depending on the width of the product it ends
BLOCKED_CONV_CASES = [(16, 4, 130, 112, 3, 1, 1), (16, 4, 88, 88, 3, 1, 1),
                      (16, 3, 160, 160, 5, 2, 2), (80, 4, 128, 128, 1, 1, 0)]


def test_blocked_conv_matches_whole_column_product(nonzero_bias):
    for n, case in enumerate(BLOCKED_CONV_CASES):
        c, o, h, w_, k, s, pad = case
        shape, layer = conv_layer(case, 20 + n)
        m = graph(shape, [layer])
        x = np.random.default_rng(30 + n).standard_normal(shape)
        win = sliding_window_view(np.pad(x, ((0, 0), (pad, pad), (pad, pad))),
                                  (k, k), axis=(1, 2))[:, ::s, ::s]
        oh, ow = win.shape[1:3]
        cols = np.ascontiguousarray(win.transpose(0, 3, 4, 1, 2)).reshape(
            c * k * k, oh * ow)
        assert cols.nbytes > _COLS_BLOCK_BYTES, case
        w = ts.layer_weights(m.layers[0])
        want = w["w"].reshape(o, -1) @ cols + w["b"][:, None]
        got = ts.forward(m, x)
        assert np.array_equal(got, want.reshape(o, oh, ow)), case
        assert got.flags.c_contiguous, case


def test_fc_bias_matches_matrix_math(nonzero_bias):
    test_fc_forward_matches_matrix_math()


def test_conv_bias_matches_loop_oracle(nonzero_bias):
    test_conv_forward_matches_loop_oracle()


def test_dwconv_bias_matches_loop_oracle(nonzero_bias):
    test_dwconv_forward_matches_loop_oracle()


def test_conv_backward_is_forward_adjoint():
    # biases are zero, so each conv is linear and <f(x), g> = <x, f^T g>
    cases = [conv_layer(case, 11) for case in CONV_CASES]
    cases += [dwconv_layer(case, 12) for case in DWCONV_CASES]
    rng = np.random.default_rng(8)
    for shape, layer in cases:
        m = graph(shape, [layer, spec("f", ts.FLATTEN)], [("Z", 1)])
        x = rng.standard_normal(m.input_shape)
        f = ts.forward_until(m, x, "Z")
        g = rng.standard_normal(f.shape)
        dx = ts.input_gradient(m, "Z", x, g)
        assert np.isclose((f * g).sum(), (x * dx).sum(), rtol=1e-12, atol=0), \
            layer.params


def test_pool_forward_oracles():
    layers = [spec("p", ts.MAXPOOL, kernel=2, stride=2)]
    m = graph((1, 4, 4), layers)
    x = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
    want = np.array([[[5.0, 7.0], [13.0, 15.0]]])
    assert np.array_equal(ts.forward(m, x), want)

    layers = [spec("p", ts.AVGPOOL, kernel=2, stride=2)]
    m = graph((1, 4, 4), layers)
    want = np.array([[[2.5, 4.5], [10.5, 12.5]]])
    assert np.array_equal(ts.forward(m, x), want)


def test_gap_and_flatten_shapes():
    layers = [spec("g", ts.GAP)]
    m = graph((4, 3, 3), layers)
    x = np.random.default_rng(5).standard_normal((4, 3, 3))
    got = ts.forward(m, x)
    assert got.shape == (4, 1, 1)
    assert np.allclose(got[:, 0, 0], x.mean(axis=(1, 2)))

    layers = [spec("f", ts.FLATTEN)]
    m = graph((2, 3, 3), layers)
    y = np.random.default_rng(6).standard_normal((2, 3, 3))
    assert np.array_equal(ts.forward(m, y), y.ravel())


def test_activation_oracles():
    x = np.linspace(-3, 3, 36).reshape(1, 6, 6)
    m = graph((1, 6, 6), [spec("r", ts.RELU)])
    assert np.array_equal(ts.forward(m, x), np.maximum(x, 0.0))
    m = graph((1, 6, 6), [spec("s", ts.SIGMOID)])
    assert np.allclose(ts.forward(m, x), 1.0 / (1.0 + np.exp(-x)), atol=1e-15)
    m = graph((1, 6, 6), [spec("w", ts.SWISH)])
    assert np.allclose(ts.forward(m, x), x / (1.0 + np.exp(-x)), atol=1e-15)
    # bitwise the two-branch form, at signed zeros and where exp underflows
    v = np.array([0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 36.0, -36.0,
                  745.0, -745.0, 800.0, -800.0]).reshape(1, 3, 4)
    z = np.exp(-np.abs(v))
    want = np.where(v >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    m = graph((1, 3, 4), [spec("s", ts.SIGMOID)])
    assert ts.forward(m, v).tobytes() == want.tobytes()
    m = graph((1, 3, 4), [spec("w", ts.SWISH)])
    assert ts.forward(m, v).tobytes() == (v * want).tobytes()


def test_bnorm_forward_is_channel_affine():
    layers = [spec("bn", ts.BNORM, channels=3, seed=8)]
    m = graph((3, 2, 2), layers)
    x = np.random.default_rng(7).standard_normal((3, 2, 2))
    w = ts.layer_weights(m.layers[0])
    want = w["gamma"][:, None, None] * x + w["beta"][:, None, None]
    assert np.array_equal(ts.forward(m, x), want)


def test_add_and_cmul_wiring():
    layers = [
        spec("c1", ts.CONV, in_channels=2, out_channels=2, kernel=1, stride=1,
             padding=0, seed=1),
        spec("c2", ts.CONV, in_channels=2, out_channels=2, kernel=1, stride=1,
             padding=0, seed=2, source=-1),
        spec("a", ts.ADD, skip_source=0),
    ]
    m = graph((2, 3, 3), layers)
    x = np.random.default_rng(8).standard_normal((2, 3, 3))
    y1 = ts.forward(graph((2, 3, 3), [layers[0]]), x)
    y2 = ts.forward(graph((2, 3, 3), [spec("c2", ts.CONV, in_channels=2,
                                           out_channels=2, kernel=1, stride=1,
                                           padding=0, seed=2)]), x)
    assert np.array_equal(ts.forward(m, x), y1 + y2)

    layers = [
        spec("g", ts.GAP),
        spec("fl", ts.FLATTEN),
        spec("fc", ts.FC, in_features=2, units=2, seed=3),
        spec("sg", ts.SIGMOID),
        spec("m", ts.CMUL, map_source=-1),
    ]
    m = graph((2, 3, 3), layers)
    got = ts.forward(m, x)
    gates = ts.forward(graph((2, 3, 3), layers[:4]), x)
    assert np.array_equal(got, x * gates.reshape(2, 1, 1))


def test_forward_shapes_match_inference():
    for name, shape in [("vgg16", (3, 32, 32)), ("resnet50", (3, 64, 64)),
                        ("efficientnetb0", (3, 64, 64))]:
        m = ts.build_architecture(name, input_shape=shape)
        x = np.random.default_rng(0).uniform(0, 1, shape)
        assert ts.forward(m, x).shape == m.output_shape
        for a in ts.enumerate_partitions(m):
            f = ts.forward_until(m, x, a.boundary_label)
            assert f.shape == a.exposed_tensor_shape


def test_forward_bitwise_deterministic(toy4):
    x = np.random.default_rng(1).uniform(0, 1, (1, 16, 16))
    assert ts.forward(toy4, x).tobytes() == ts.forward(toy4, x).tobytes()


def test_forward_releases_dead_activations_bitwise():
    # both read skip_source / map_source operands several layers later, so
    # an activation dropped too early would show
    for name in ("resnet50", "efficientnetb0"):
        m = ts.build_architecture(name, input_shape=(3, 64, 64))
        x = np.random.default_rng(4).uniform(0, 1, m.input_shape)
        n = len(m.layers)
        acts = engine._run(m, x, n, (), "output")
        assert all(a is None for a in acts[:n - 1] + acts[n:]), name
        kept = engine._run(m, x, n, range(-1, n), "output")
        assert np.array_equal(acts[n - 1], kept[n - 1]), name
        assert np.array_equal(ts.forward(m, x), kept[n - 1][0]), name

    # the input is read again after layer 0, by a source and by a
    # map_source: its slot is dropped once that last reader has run
    conv = dict(in_channels=2, out_channels=2, kernel=1, stride=1, padding=0)
    for layers, reader in [
            ([spec("c1", ts.CONV, seed=1, **conv),
              spec("c2", ts.CONV, seed=2, source=-1, **conv),
              spec("a", ts.ADD, skip_source=0)], 1),
            ([spec("g", ts.GAP), spec("fl", ts.FLATTEN),
              spec("fc", ts.FC, in_features=2, units=2, seed=3),
              spec("sg", ts.SIGMOID), spec("m", ts.CMUL, map_source=-1)], 4)]:
        m = graph((2, 3, 3), layers)
        x = np.random.default_rng(8).standard_normal(m.input_shape)
        n = len(m.layers)
        kept = engine._run(m, x, n, range(-1, n), "output")
        assert kept[-1].base is x  # x itself, as a batch of one
        for upto in range(reader + 1, n + 1):
            acts = engine._run(m, x, upto, (), "output")
            assert acts[-1] is None, (reader, upto)
            assert np.array_equal(acts[upto - 1], kept[upto - 1]), (reader, upto)
        assert np.array_equal(ts.forward(m, x), kept[n - 1][0]), reader


def test_warm_forward_peak_memory_is_bounded():
    # 8 conv/ReLU pairs at 16x128x128, cut before the last pair. Streaming
    # the columns, dropping each activation after its last reader and
    # storing each ReLU output inside the border its conv reads peaks near
    # 6.0 activation sizes for forward and forward_until (7.0 with a padded
    # copy per conv call), and near 19 for input_gradient, whose backward
    # reads every ReLU output; keeping every activation peaks near 18 and
    # 27 for the last two
    layers = []
    for i in range(8):
        layers += [spec(f"c{i}", ts.CONV, in_channels=16 if i else 3,
                        out_channels=16, kernel=3, stride=1, padding=1, seed=i),
                   spec(f"r{i}", ts.RELU)]
    m = graph((3, 128, 128), layers, [("P", 14)])
    x = np.random.default_rng(6).uniform(0, 1, m.input_shape)
    cot = np.random.default_rng(7).standard_normal((16, 128, 128))
    for run, bound in [(lambda: ts.forward(m, x), 6.5),
                       (lambda: ts.forward_until(m, x, "P"), 6.5),
                       (lambda: ts.input_gradient(m, "P", x, cot), 23)]:
        run()  # materialize the weights
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 16 * 128 * 128 * 8, (bound, peak)


def test_maxpool_tie_routes_to_first_index():
    layers = [spec("p", ts.MAXPOOL, kernel=2, stride=2),
              spec("f", ts.FLATTEN)]
    m = graph((1, 2, 2), layers, points=[("P", 1)])
    x = np.full((1, 2, 2), 0.7)
    g = ts.input_gradient(m, "P", x, np.ones((1, 1, 1)))
    want = np.array([[[1.0, 0.0], [0.0, 0.0]]])
    assert np.array_equal(g, want)


def _maxpool_oracle(x, g, k, s, pad):
    """Max pooling as argmax, take_along_axis and np.add.at: the forward
    output and the input gradient of cotangent ``g``."""
    h, w = x.shape[1:]
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)), constant_values=-np.inf)
    win = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
    flat = win.reshape(win.shape[:3] + (k * k,))
    idx = np.argmax(flat, axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    xpg = np.zeros(xp.shape)
    ci, oi, oj = np.indices(idx.shape)
    np.add.at(xpg, (ci, oi * s + idx // k, oj * s + idx % k), g)
    return out, xpg[:, pad:pad + h, pad:pad + w]


def test_maxpool_matches_argmax_oracle():
    rng = np.random.default_rng(8)
    signed_zeros = np.where(rng.random((2, 8, 8)) < 0.5, 0.0, -0.0)
    cases = [
        (rng.standard_normal((3, 8, 8)), 2, 2, 0),
        # few distinct values: overlapping windows share their maximum
        (rng.integers(0, 3, (3, 9, 9)).astype(np.float64), 3, 2, 1),
        (np.full((2, 8, 8), 0.7), 2, 2, 0),
        (np.full((2, 9, 9), 0.7), 3, 2, 1),
        (signed_zeros, 2, 2, 0),
        (signed_zeros, 3, 1, 1),
        # all negative: the -inf padding must never win
        (-rng.uniform(1.0, 2.0, (2, 7, 7)), 3, 2, 1),
        (-rng.uniform(1.0, 2.0, (2, 7, 7)), 2, 2, 1),
        # no comparison at all; gaps between windows; windows that abut;
        # windows that overlap by one column and row
        (rng.integers(0, 3, (2, 9, 9)).astype(np.float64), 1, 2, 0),
        (rng.integers(0, 3, (2, 11, 11)).astype(np.float64), 2, 3, 0),
        (rng.integers(0, 3, (2, 9, 9)).astype(np.float64), 3, 3, 0),
        (rng.integers(0, 3, (2, 7, 7)).astype(np.float64), 2, 1, 0),
        # a non-square map: rows and columns take their own extents
        (rng.integers(0, 3, (2, 9, 7)).astype(np.float64), 3, 2, 1),
        # more channels than one block of column maxima holds (63 here):
        # the later block's indices start at its first channel
        (rng.integers(0, 3, (70, 64, 64)).astype(np.float64), 3, 2, 1),
    ]
    for x, k, s, pad in cases:
        layers = [spec("p", ts.MAXPOOL, kernel=k, stride=s, padding=pad),
                  spec("f", ts.FLATTEN)]
        m = graph(x.shape, layers, points=[("P", 1)])
        out = ts.forward_until(m, x, "P")
        g = rng.standard_normal(out.shape)
        g[rng.random(g.shape) < 0.2] = -0.0
        want_out, want_g = _maxpool_oracle(x, g, k, s, pad)
        assert out.tobytes() == want_out.tobytes(), (x.shape, k, s, pad)
        got_g = ts.input_gradient(m, "P", x, g)
        assert got_g.tobytes() == np.ascontiguousarray(want_g).tobytes(), \
            (x.shape, k, s, pad)
    # a batched arena of three images, whose channels (3 x 30) also span
    # two blocks: every image equals the oracle on it alone; at k = 1 the
    # column maxima are a copy, and so is the output
    for k, s, pad in [(3, 2, 1), (1, 2, 0), (1, 1, 0)]:
        layers = [spec("p", ts.MAXPOOL, kernel=k, stride=s, padding=pad),
                  spec("f", ts.FLATTEN)]
        m = graph((30, 64, 64), layers, points=[("P", 1)])
        arena = engine._arena(m, (("P", 3),))
        xs = rng.integers(0, 3, arena.x.shape).astype(np.float64)
        gs = rng.standard_normal(arena.feat.shape)
        np.copyto(arena.x, xs)
        arena.run()
        np.copyto(arena.cot, gs)
        got = arena.gradient()
        for x, g, out, gx in zip(xs, gs, arena.feat, got):
            want_out, want_g = _maxpool_oracle(x, g, k, s, pad)
            assert out.tobytes() == want_out.tobytes(), (k, s, pad)
            assert gx.tobytes() == np.ascontiguousarray(want_g).tobytes(), \
                (k, s, pad)


def test_schedule_holds_no_weights(request):
    layers = [spec("fl", ts.FLATTEN), spec("fc", ts.FC, in_features=12,
                                           units=5, seed=7)]
    m = graph((3, 2, 2), layers)
    x = np.random.default_rng(1).standard_normal((3, 2, 2))
    m.schedule  # compiled while the cached biases are zero
    w0 = ts.layer_weights(m.layers[1])
    assert np.array_equal(ts.forward(m, x), w0["w"] @ x.reshape(-1))
    request.getfixturevalue("nonzero_bias")
    w = ts.layer_weights(m.layers[1])
    assert w["b"].min() > 0
    assert np.array_equal(ts.forward(m, x), w["w"] @ x.reshape(-1) + w["b"])


@pytest.mark.parametrize("name, shape", [("toy4", (1, 16, 16)),
                                         ("resnet50", (3, 64, 64))])
def test_warm_run_and_backward_rederive_nothing(monkeypatch, name, shape):
    m = ts.resolve_model(name, shape, seed=3)
    x = np.random.default_rng(2).uniform(0, 1, shape)
    n = len(m.layers)
    cot = np.random.default_rng(3).standard_normal((1,) + m.output_shape)

    def gradient():
        acts = engine._run(m, x, n, engine._kept(m.schedule), "output")
        return engine._bind_gradient(m, acts, {n - 1: cot}, engine._Scratch(),
                                     engine._call)

    want = gradient()  # warm
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    # patched where each name is looked up: graph's own globals, and the
    # engine's imports of them
    for module in (ts.graph, engine):
        for fn in ("source_of", "_refs", "weight_shapes"):
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, counted(getattr(module, fn)))
    got = gradient()
    assert calls == []
    assert np.array_equal(got, want)


def test_input_gradient_aliases_no_cotangent_or_activation():
    conv = dict(in_channels=2, out_channels=2, kernel=1, stride=1, padding=0)
    cases = [
        # the boundary sits right after a Flatten of the input
        ([spec("fl", ts.FLATTEN), spec("r", ts.RELU)], 1),
        # a residual Add, then a Flatten at the boundary
        ([spec("c", ts.CONV, seed=1, **conv), spec("r", ts.RELU),
          spec("a", ts.ADD, skip_source=-1), spec("fl", ts.FLATTEN),
          spec("fc", ts.FC, in_features=18, units=2, seed=2)], 4),
        # a squeeze-excitation gate on the input, then a Flatten
        ([spec("g", ts.GAP), spec("fl", ts.FLATTEN),
          spec("fc", ts.FC, in_features=2, units=2, seed=3),
          spec("s", ts.SIGMOID), spec("m", ts.CMUL, map_source=-1),
          spec("fl2", ts.FLATTEN), spec("r", ts.RELU)], 6),
    ]
    rng = np.random.default_rng(9)
    for layers, b in cases:
        m = graph((2, 3, 3), layers, [("B", b)])
        x = rng.standard_normal(m.input_shape)
        # input_gradient's backward, over every activation of the prefix
        acts = engine._run(m, x, b, range(-1, b), "output")
        cot = rng.standard_normal(acts[b - 1].shape)
        gx = engine._bind_gradient(m, acts, {b - 1: cot},
                                   engine._Scratch(), engine._call)
        assert gx.tobytes() == ts.input_gradient(m, "B", x, cot[0]).tobytes(), b
        assert gx.shape == (1,) + m.input_shape
        assert not np.shares_memory(gx, cot), b
        for act in acts:
            assert not np.shares_memory(gx, act), b

        # the bound prefix: its gradient shares no memory with its
        # activations or the cotangent, and the same arena running a
        # candidate next leaves it as it was
        arena = engine._arena(m, (("B", 1),))
        np.copyto(arena.x, x)
        arena.run()
        np.copyto(arena.cot, cot)
        got = arena.gradient()
        assert got.tobytes() == gx.tobytes(), b
        for act in arena.acts + [cot, arena.cot]:
            # a transient slot is None once its last reader is bound
            assert act is None or not np.shares_memory(got, act), b
        kept = got.tobytes()
        np.copyto(arena.x, rng.standard_normal(m.input_shape))
        arena.run()
        assert got.tobytes() == kept, b


def test_arenas_match_public_api_bitwise_on_random_models():
    # every kind, bound over one arena whose transient arrays are pooled;
    # its runs and gradients, taken in turn, equal forward_until and
    # input_gradient, and a gradient survives the run that follows it
    rng = np.random.default_rng(77)
    kinds = set()
    for _ in range(60):
        m = build_random_model(rng)
        kinds.update(layer.kind for layer in m.layers)
        arena = engine._arena(m, (("Z", 1),))
        last = None
        for _ in range(4):
            x = rng.uniform(0.05, 0.95, m.input_shape)
            ct = rng.standard_normal(arena.feat.shape[1:])
            np.copyto(arena.x, x)
            arena.run()
            assert arena.feat.tobytes() == ts.forward_until(m, x, "Z").tobytes()
            if last is not None:
                assert last[0].tobytes() == last[1], m.layers
            np.copyto(arena.cot, ct)
            g = arena.gradient()
            assert g.tobytes() == ts.input_gradient(m, "Z", x, ct).tobytes()
            last = g, g.tobytes()
    assert kinds == ALL_KINDS, ALL_KINDS - kinds


def test_batched_arenas_match_public_api_per_image_on_random_models():
    # every kind, bound over a batch of three: each image's run and
    # gradient equal forward_until and input_gradient on that image alone,
    # so no image's bits depend on the others
    rng = np.random.default_rng(78)
    kinds = set()
    for _ in range(40):
        m = build_random_model(rng)
        kinds.update(layer.kind for layer in m.layers)
        arena = engine._arena(m, (("Z", 3),))
        xs = rng.uniform(0.05, 0.95, (3,) + m.input_shape)
        cts = rng.standard_normal(arena.feat.shape)
        np.copyto(arena.x, xs)
        arena.run()
        np.copyto(arena.cot, cts)
        g = arena.gradient()
        for x, ct, feat, gx in zip(xs, cts, arena.feat, g):
            assert feat.tobytes() == ts.forward_until(m, x, "Z").tobytes()
            assert gx.tobytes() == ts.input_gradient(m, "Z", x, ct).tobytes()
    assert kinds == ALL_KINDS, ALL_KINDS - kinds


def _oracle_maxpool_kernels(monkeypatch):
    """Bind MaxPool through ``_maxpool_oracle``, image by image, in place of
    the engine's kernels."""
    def fwd(st, acts, out, w, scratch):
        x = acts[st.source]

        def run():
            for xi, oi in zip(x, out):
                oi[...] = _maxpool_oracle(xi, np.zeros(oi.shape), st.kernel,
                                          st.stride, st.padding)[0]
        return out, [(run,)]

    def bwd(st, g, acts, w, dsts, scratch):
        x = acts[st.source]

        def run():
            for xi, gi, di in zip(x, g, dsts[0]):
                di[...] = _maxpool_oracle(xi, gi, st.kernel, st.stride,
                                          st.padding)[1]
        return dsts, [(run,)]

    monkeypatch.setitem(engine._KERNELS, ts.MAXPOOL,
                        (fwd, bwd, engine._KERNELS[ts.MAXPOOL][2]))


def test_batched_arenas_match_maxpool_oracle_on_random_models(monkeypatch):
    # pools whose windows overlap (k3/s2/p1, k3/s1/p1) beside k2/s2, on
    # inputs of five levels, so windows hold ties that BatchNormAffine,
    # Swish and other pools carry to a pool's input: each image of a
    # batched arena equals the public passes run with MaxPool bound
    # through the argmax oracle, image by image
    rng = np.random.default_rng(79)
    pools = ((2, 2, 0), (3, 2, 1), (3, 1, 1))
    seen = set()
    for _ in range(60):
        m = build_random_model(rng, pools)
        seen.update((layer.params["kernel"], layer.params["stride"],
                     layer.params["padding"])
                    for layer in m.layers if layer.kind == ts.MAXPOOL)
        arena = engine._arena(m, (("Z", 2),))
        xs = rng.integers(0, 5, arena.x.shape) / 4.0
        cts = rng.standard_normal(arena.feat.shape)
        np.copyto(arena.x, xs)
        arena.run()
        np.copyto(arena.cot, cts)
        g = arena.gradient()
        with monkeypatch.context() as mp:
            _oracle_maxpool_kernels(mp)
            for x, ct, feat, gx in zip(xs, cts, arena.feat, g):
                assert feat.tobytes() == \
                    ts.forward_until(m, x, "Z").tobytes(), m.layers
                assert gx.tobytes() == \
                    ts.input_gradient(m, "Z", x, ct).tobytes(), m.layers
    assert seen == set(pools), seen


@pytest.mark.parametrize("h, n, per, rows", [(20, 5, 4, 20), (40, 3, 1, 40),
                                           (48, 2, 1, 37)])
def test_batched_conv_blocks_match_single_images(h, n, per, rows):
    # 576 columns per output pixel: at 20x20 four whole images fill a
    # block (blocks of 4 and 1), at 40x40 one does, and at 48x48 one image
    # is split into blocks of 37 and 11 output rows; the backward's
    # column gradients hold the same whole images
    m = graph((64, h, h), [spec("c", ts.CONV, in_channels=64, out_channels=4,
                                kernel=3, stride=1, padding=1, seed=1),
                           spec("r", ts.RELU), spec("s", ts.SIGMOID)],
              [("Z", 2)])
    st = m.schedule[0]
    assert (max(1, st.rows // h), min(st.rows, h)) == (per, rows)
    rng = np.random.default_rng(17)
    arena = engine._arena(m, (("Z", n),))
    xs = rng.uniform(0.05, 0.95, (n,) + m.input_shape)
    cts = rng.standard_normal(arena.feat.shape)
    np.copyto(arena.x, xs)
    arena.run()
    np.copyto(arena.cot, cts)
    g = arena.gradient()
    for x, ct, feat, gx in zip(xs, cts, arena.feat, g):
        assert feat.tobytes() == ts.forward_until(m, x, "Z").tobytes()
        assert gx.tobytes() == ts.input_gradient(m, "Z", x, ct).tobytes()


def test_split_halves_share_weights_bitwise(toy4):
    head, tail = ts.split(toy4, "L2")
    merged = head.layers + tail.layers
    for orig, piece in zip(toy4.layers, merged):
        wo, wp = ts.layer_weights(orig), ts.layer_weights(piece)
        if wo is None:
            assert wp is None
            continue
        for k in wo:
            assert wo[k] is wp[k]


def _bordered_chains():
    """Chains whose padded windowed layer reads a slot the schedule stores
    bordered, each with its inputs' range: padded pools behind producers
    with negative outputs, where a 0.0 border would win a MaxPool window,
    and padded convs behind elementwise producers."""
    pool = dict(kernel=3, stride=1, padding=1)
    conv = dict(in_channels=2, out_channels=2, kernel=3, stride=1, padding=1)
    neg, pos = (-2.0, -1.0), (0.05, 0.95)
    return [
        ([spec("bn", ts.BNORM, channels=2, seed=1),
          spec("p", ts.MAXPOOL, **pool)], neg),
        ([spec("sw", ts.SWISH), spec("p", ts.MAXPOOL, kernel=2, stride=2,
                                     padding=1)], neg),
        # a MaxPool's output bordered for the next MaxPool
        ([spec("bn", ts.BNORM, channels=2, seed=2),
          spec("p1", ts.MAXPOOL, **pool), spec("p2", ts.MAXPOOL, kernel=3,
                                               stride=2, padding=1)], neg),
        ([spec("bn", ts.BNORM, channels=2, seed=3),
          spec("p", ts.AVGPOOL, **pool)], neg),
        ([spec("sw", ts.SWISH), spec("d", ts.DWCONV, channels=2, kernel=5,
                                     stride=2, padding=2, seed=4)], neg),
        ([spec("sg", ts.SIGMOID), spec("c", ts.CONV, seed=5, **conv)], pos),
        ([spec("r", ts.RELU), spec("c", ts.CONV, seed=8, **conv)], (-1.0, 1.0)),
        ([spec("d", ts.DWCONV, channels=2, kernel=3, stride=1, padding=1,
               seed=6), spec("c", ts.CONV, seed=7, **conv)], neg),
    ]


def test_bordered_slots_match_split_halves_bitwise():
    # the whole graph reads each bordered slot in place; splitting just
    # before its reader makes the slot the tail's input, which is never
    # bordered, so the tail pads a copy of it. Both must agree bitwise,
    # forward and backward, and every public pass returns a C-contiguous
    # array
    rng = np.random.default_rng(14)
    cases = []
    for layers, (lo, hi) in _bordered_chains():
        m = graph((2, 7, 7), layers + [spec("z", ts.SIGMOID)])
        cases.append((m, len(layers) - 1, lo, hi))
    for _ in range(40):
        m = build_random_model(rng)
        cases += [(m, st.index, 0.05, 0.95) for st in m.schedule
                  if st.bordered]
    producers, readers = set(), set()
    for m, s, lo, hi in cases:
        assert m.schedule[s].bordered and m.schedule[s].padding > 0
        producers.add(m.layers[s - 1].kind)
        readers.add(m.layers[s].kind)
        n = len(m.layers)
        m = ts.make_graph(m.name, m.input_shape, m.layers,
                          [("S", s), ("Z", n - 1)])
        head, tail = ts.split(m, "S")
        assert not tail.schedule[0].bordered
        x = rng.uniform(lo, hi, m.input_shape)
        whole = ts.forward(m, x)
        feat = ts.forward_until(m, x, "S")
        z = ts.forward_until(m, x, "Z")
        ct = rng.standard_normal(z.shape)
        g = ts.input_gradient(m, "Z", x, ct)
        g_tail = ts.input_gradient(tail, "Z", feat, ct)
        g_chain = ts.input_gradient(m, "S", x, g_tail)
        assert ts.forward(head, x).tobytes() == feat.tobytes()
        assert ts.forward(tail, feat).tobytes() == whole.tobytes(), m.layers
        assert ts.forward_until(tail, feat, "Z").tobytes() == z.tobytes()
        assert g_chain.tobytes() == g.tobytes(), m.layers
        for out in (whole, feat, z, g, g_tail, g_chain):
            assert out.flags.c_contiguous
        arena = engine._arena(m, (("Z", 1),))
        np.copyto(arena.x, x)
        arena.run()
        assert arena.feat.tobytes() == z.tobytes()
        np.copyto(arena.cot, ct)
        assert arena.gradient().tobytes() == g.tobytes()
    assert producers == {ts.RELU, ts.SWISH, ts.SIGMOID, ts.BNORM, ts.ADD,
                         ts.CMUL, ts.MAXPOOL, ts.AVGPOOL, ts.DWCONV}, producers
    assert readers == {ts.CONV, ts.DWCONV, ts.MAXPOOL, ts.AVGPOOL}, readers


def test_arenas_allocate_each_transient_bordered_shape_once():
    # BatchNormAffine into a padded DepthwiseConv2d, and a padded MaxPool
    # into another: slots 0, 3 and 5 are bordered (1, 0.0) and die after
    # their reader, slot 2 is bordered (1, -inf) and kept, since MaxPool's
    # backward reads it. The arena keeps a fresh slot 2, and the three
    # transient slots share one (1, 0.0) array through the pool: two
    # bordered arrays, not four
    c, h = 4, 32
    dw = dict(channels=c, kernel=3, stride=1, padding=1)
    layers = [spec("bn0", ts.BNORM, channels=c, seed=1),
              spec("dw0", ts.DWCONV, seed=2, **dw),
              spec("bn1", ts.BNORM, channels=c, seed=3),
              spec("mp", ts.MAXPOOL, kernel=3, stride=1, padding=1),
              spec("dw1", ts.DWCONV, seed=4, **dw),
              spec("bn2", ts.BNORM, channels=c, seed=5),
              spec("dw2", ts.DWCONV, seed=6, **dw), spec("z", ts.SIGMOID)]
    m = graph((c, h, h), layers, [("Z", 7)])
    assert [st.border for st in m.schedule] == [
        (1, 0.0), (), (1, -np.inf), (1, 0.0), (), (1, 0.0), (), ()]
    engine._arena(m, (("Z", 1),))  # materialize the weights
    tracemalloc.start()
    try:
        arena = engine._arena(m, (("Z", 1),))
        snap = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    size = c * (h + 2) * (h + 2) * 8
    held = sum(t.size for t in snap.filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]).traces
        if t.size == size)
    assert held <= 2 * size, held / size
    rng = np.random.default_rng(15)
    for _ in range(2):
        x = rng.uniform(0.05, 0.95, m.input_shape)
        ct = rng.standard_normal(arena.feat.shape[1:])
        np.copyto(arena.x, x)
        arena.run()
        assert arena.feat.tobytes() == ts.forward_until(m, x, "Z").tobytes()
        np.copyto(arena.cot, ct)
        assert arena.gradient().tobytes() == \
            ts.input_gradient(m, "Z", x, ct).tobytes()


def test_padded_read_of_the_input_fills_no_border(toy4):
    # block1.conv pads the graph input, which is never bordered: the bound
    # forward copies it into the interior of a scratch array whose border
    # was filled when the array was made, and emits no fill of its own
    arena = engine._arena(toy4, (("L4", 1),))
    assert len(arena._fwd) == 21
    assert all(getattr(f, "__name__", "") != "fill" for f, _ in arena._fwd)
    f, (inner, src) = arena._fwd[0]
    assert f is np.copyto and src is arena.x
    np.copyto(arena.x, np.random.default_rng(4).uniform(0, 1, toy4.input_shape))
    arena.run()
    assert np.array_equal(inner.base,
                          np.pad(arena.x, ((0, 0), (0, 0), (1, 1), (1, 1))))


def test_col2im_planes_are_zeroed_once(toy4):
    # the planes come zeroed from the pool, so none of the four col2im
    # layers in toy4's L4 backward emits a fill: each is one planes block,
    # placed, summed and cropped
    arena = engine._arena(toy4, (("L4", 1),))
    assert len(arena._bwd) == 38
    assert all(getattr(f, "__name__", "") != "fill" for f, _ in arena._bwd)
    # two convs whose planes have one shape, (3, 3, 2, 10, 10), but another
    # stride and output extent: planes shared by shape alone would hold the
    # stride-1 conv's writes where the stride-2 conv reads +0.0, from the
    # second gradient on
    conv = dict(in_channels=2, out_channels=2, kernel=3, padding=1)
    m = graph((2, 8, 8), [spec("c1", ts.CONV, stride=1, seed=1, **conv),
                          spec("c2", ts.CONV, stride=2, seed=2, **conv),
                          spec("z", ts.SIGMOID)], [("Z", 2)])
    arena = engine._arena(m, (("Z", 1),))
    rng = np.random.default_rng(16)
    for _ in range(2):
        x = rng.uniform(0.05, 0.95, m.input_shape)
        ct = rng.standard_normal(arena.feat.shape[1:])
        np.copyto(arena.x, x)
        arena.run()
        np.copyto(arena.cot, ct)
        assert arena.gradient().tobytes() == \
            ts.input_gradient(m, "Z", x, ct).tobytes()


def _with_nested_points(m, rng):
    """``m`` with partition points at up to three random boundaries no
    reference crosses, below its last one, "Z"."""
    z = m.boundary_of("Z")
    cuts = [b for b in range(1, z)
            if all(min(st.refs) >= b - 1 for st in m.schedule[b:])]
    pick = sorted(rng.permutation(cuts)[:int(rng.integers(1, 4))])
    return ts.make_graph(m.name, m.input_shape, m.layers,
                         [(f"P{b}", int(b)) for b in pick] + [("Z", z)])


def _match_single_arenas(m, labels, counts, xs, rng):
    """Run and differentiate ``xs`` in one arena over ``labels``, deepest
    first, with ``counts`` rows each, and check each boundary's rows, feat
    and gradient, against an arena of that boundary alone."""
    arena = engine._arena(m, tuple(zip(labels, counts)))
    singles = [engine._arena(m, ((label, n),))
               for label, n in zip(labels, counts)]
    for x in xs:  # the arena runs again over arrays its last run wrote
        cts = [rng.standard_normal(c.shape) for c in arena.cots]
        np.copyto(arena.x, x)
        arena.run()
        for cot, ct in zip(arena.cots, cts):
            np.copyto(cot, ct)
        g = arena.gradient()
        start = 0
        for label, single, feat, ct in zip(labels, singles, arena.feats, cts):
            rows = slice(start, start + len(single.x))
            np.copyto(single.x, x[rows])
            single.run()
            assert single.feat.tobytes() == feat.tobytes(), (label, m.layers)
            np.copyto(single.cot, ct)
            assert single.gradient().tobytes() == g[rows].tobytes(), \
                (label, m.layers)
            start = rows.stop


def test_ragged_arenas_match_single_boundary_arenas_bitwise():
    # one arena over every boundary of a random model, deepest first, each
    # layer bound once over the rows of the boundaries at or beyond it:
    # each boundary's feats and gradients equal an arena of its own. The
    # models hold residual Adds, overlapping max pools (k3/s2/p1, k3/s1/p1)
    # and padded readers of a boundary slot the schedule would border,
    # which the ragged arena stores unbordered; inputs of five levels give
    # the pools ties
    rng = np.random.default_rng(81)
    pools = ((2, 2, 0), (3, 2, 1), (3, 1, 1))
    seen = set()
    for _ in range(40):
        m = _with_nested_points(build_random_model(rng, pools), rng)
        labels = tuple(reversed(m.labels()))
        counts = tuple(int(rng.integers(1, 3)) for _ in labels)
        shape = (sum(counts),) + m.input_shape
        _match_single_arenas(m, labels, counts,
                             [rng.uniform(0.05, 0.95, shape),
                              rng.integers(0, 5, shape) / 4.0], rng)
        z = m.boundary_of("Z")
        for st in m.schedule[:z]:
            if st.kind == ts.ADD:
                seen.add("add")
            if st.kind == ts.MAXPOOL and st.kernel > st.stride:
                seen.add("overlapping pool")
        if any(m.schedule[b].bordered for _, b in m.partition_points[:-1]):
            seen.add("padded reader of a boundary")
    assert seen == {"add", "overlapping pool", "padded reader of a boundary"}
    # toy4's L3 is read by block4.conv, which pads it
    toy = ts.build_toy_cnn(points=4, input_shape=(1, 16, 16), seed=5)
    assert toy.schedule[toy.boundary_of("L3")].bordered
    shape = (7,) + toy.input_shape
    _match_single_arenas(toy, ("L4", "L3", "L2", "L1"), (2, 1, 3, 1),
                         [rng.uniform(0.0, 1.0, shape) for _ in range(2)], rng)


def test_ragged_arena_binds_each_layer_once(toy4):
    # toy4's four boundaries at N = 2 bind 54 forward and 95 backward ops
    # in four arenas, 22 and 38 in one: every layer binds once, over the
    # rows of the boundaries at or beyond it. Its one forward op more than
    # L4 alone copies L3, a boundary slot and so unbordered, into the
    # bordered scratch block4.conv pads, over L4's two rows
    singles = [engine._arena(toy4, ((label, 2),)) for label in toy4.labels()]
    assert ([len(a._fwd) for a in singles], [len(a._bwd) for a in singles]) \
        == ([5, 11, 17, 21], [6, 19, 32, 38])
    arena = engine._arena(toy4, (("L4", 2), ("L3", 2), ("L2", 2), ("L1", 2)))
    assert (len(arena._fwd), len(arena._bwd)) == (22, 38)
    l3 = arena.acts[toy4.boundary_of("L3") - 1]
    copies = [args for f, args in arena._fwd
              if f is np.copyto and np.shares_memory(args[1], l3)]
    assert [src.shape for _, src in copies] == [(2,) + l3.shape[1:]]
    assert l3.base is None and len(l3) == 4
    assert [len(f) for f in arena.feats] == [2] * 4


def _raised(f):
    with pytest.raises((ts.TensorError, ts.EngineError)) as info:
        with np.errstate(over="ignore", invalid="ignore"):
            f()
    return type(info.value), str(info.value)


def test_arena_checks_raise_the_public_passes_errors(identity_conv):
    # an identity conv added to its own input doubles it: an input of 1e308
    # overflows the boundary activation, a cotangent of 1e308 the gradient
    layers = [spec("c", ts.CONV, in_channels=2, out_channels=2, kernel=1,
                   stride=1, padding=0, seed=0),
              spec("a", ts.ADD, skip_source=-1), spec("r", ts.RELU)]
    m = graph((2, 3, 3), layers, [("B", 2)])
    arena = engine._arena(m, (("B", 1),))
    x = np.full(m.input_shape, 0.5)
    ct = np.ones(arena.feat.shape[1:])

    def run(x):
        np.copyto(arena.x, x)
        arena.run()

    def gradient(ct):
        run(x)
        np.copyto(arena.cot, ct)
        return arena.gradient()

    bad_x, bad_ct = x.copy(), ct.copy()
    bad_x[1, 2, 0], bad_ct[0, 1, 1] = np.inf, np.nan
    cases = [(run, ts.forward_until, bad_x, ts.TensorError),
             (run, ts.forward_until, np.full(m.input_shape, 1e308),
              ts.EngineError),
             (gradient, lambda m, c, label: ts.input_gradient(m, label, x, c),
              bad_ct, ts.TensorError),
             (gradient, lambda m, c, label: ts.input_gradient(m, label, x, c),
              np.full(ct.shape, 1e308), ts.EngineError)]
    for arena_call, public, bad, kind in cases:
        want = _raised(lambda: public(m, bad, "B"))
        assert want[0] is kind, want
        assert _raised(lambda: arena_call(bad)) == want
    # the arena still runs and differentiates finite values after each error
    g = gradient(ct)
    assert arena.feat.tobytes() == ts.forward_until(m, x, "B").tobytes()
    assert g.tobytes() == ts.input_gradient(m, "B", x, ct).tobytes()


def test_engine_input_validation(toy4):
    with pytest.raises(ts.TensorError):
        ts.forward(toy4, np.zeros((2, 16, 16)))
    bad = np.zeros((1, 16, 16))
    bad[0, 0, 0] = np.inf
    with pytest.raises(ts.TensorError):
        ts.forward(toy4, bad)
    x = np.zeros((1, 16, 16))
    with pytest.raises((ts.EngineError, ts.TensorError)):
        ts.input_gradient(toy4, "L1", x, np.zeros((3, 3, 3)))


@pytest.mark.parametrize("fill", [0.0, -np.inf])
def test_windows_match_pad_and_sliding_view(fill):
    rng = np.random.default_rng(5)
    for h, w in [(7, 7), (9, 5), (8, 11)]:
        x = rng.standard_normal((3, h, w))
        for k in (1, 2, 3):
            for stride in (1, 2):
                for pad in (0, 1, 2):
                    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)),
                                constant_values=fill)
                    want = sliding_window_view(xp, (k, k), axis=(1, 2))[
                        :, ::stride, ::stride]
                    got = windows(x, k, stride, pad, fill)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                    assert not got.flags.writeable


def test_col2im_matches_scalar_scatter():
    # each pixel sums its window terms in row-major kernel-offset order,
    # starting from zero: the order the engine's gradients are pinned to
    rng = np.random.default_rng(6)
    # enough channels that the planes span more than one block
    blocked = engine._PLANES_BLOCK_BYTES // (5 * 5 * 13 * 11 * 8) + 1
    assert blocked > 1
    cases = [((2, 9, 7), 3, 1, 1), ((2, 9, 7), 3, 2, 1),
             ((2, 9, 7), 2, 2, 0), ((2, 9, 7), 5, 2, 2),
             ((blocked, 9, 7), 5, 2, 2),
             ((2, 9, 7), 2, 3, 0)]  # rows 2, 5, 8, columns 2, 5, 6 get nothing
    for negzero in (False, True):
        for x_shape, k, stride, pad in cases:
            win = windows(np.zeros(x_shape), k, stride, pad)
            if negzero:
                gwin = np.full(win.shape, -0.0)
                gwin[rng.random(win.shape) < 0.1] = 1.5
            else:
                gwin = rng.standard_normal(win.shape)
            c, oh, ow = win.shape[:3]
            want = np.zeros((c, x_shape[1] + 2 * pad, x_shape[2] + 2 * pad))
            for i in range(k):
                for j in range(k):
                    for ch in range(c):
                        for y in range(oh):
                            for xx in range(ow):
                                want[ch, y * stride + i, xx * stride + j] += \
                                    gwin[ch, y, xx, i, j]
            want = want[:, pad:pad + x_shape[1], pad:pad + x_shape[2]]
            got = np.empty(x_shape)
            engine._call(engine._bind_col2im(gwin, got, stride, pad,
                                             engine._Scratch()))
            assert got.tobytes() == want.tobytes(), (x_shape, k, stride, pad)
            if negzero:  # a sum from +0.0 never ends at -0.0
                assert not np.signbit(got).any()


def col2im_oracle(gwin, x_shape, s, pad):
    """The adjoint of the windows (C, OH, OW, k, k) of an x of ``x_shape``
    (C, H, W): each offset's window gradients placed on a zeroed padded
    plane of its own, and the planes' cropped regions summed offset by
    offset in row-major order from +0.0."""
    c, oh, ow, k, _ = gwin.shape
    _, h, w = x_shape
    planes = np.zeros((k, k, c, h + 2 * pad, w + 2 * pad))
    for i in range(k):
        for j in range(k):
            planes[i, j, :, i:i + s * oh:s, j:j + s * ow:s] = gwin[..., i, j]
    out = np.zeros(x_shape)
    for i in range(k):
        for j in range(k):
            out += planes[i, j, :, pad:pad + h, pad:pad + w]
    return out


@pytest.mark.parametrize("c, h, k, s, pad, per", [(17, 32, 3, 1, 1, 12),
                                                  (40, 20, 5, 2, 2, 9)])
def test_dwconv_backward_partial_planes_block_matches_cropped_sum(
        c, h, k, s, pad, per):
    # per channels fill a planes block, so the last block holds c % per
    # channels, more than one, and sums a prefix of the planes' channels
    hp = h + 2 * pad
    assert engine._PLANES_BLOCK_BYTES // (k * k * hp * hp * 8) == per
    assert c % per > 1
    m = graph((c, h, h), [spec("d", ts.DWCONV, channels=c, kernel=k,
                               stride=s, padding=pad, seed=3),
                          spec("f", ts.FLATTEN)], [("Z", 1)])
    rng = np.random.default_rng(21)
    x = rng.standard_normal(m.input_shape)
    g = rng.standard_normal(m.layers[0].output_shape)
    w = ts.layer_weights(m.layers[0])["w"]
    want = col2im_oracle(g[..., None, None] * w[:, None, None], (c, h, h),
                         s, pad)
    assert ts.input_gradient(m, "Z", x, g).tobytes() == want.tobytes()
    arena = engine._arena(m, (("Z", 1),))
    np.copyto(arena.x, x)
    arena.run()
    np.copyto(arena.cot, g)
    assert arena.gradient()[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("c, h, k, pad, n, blocks", [
    (8, 64, 3, 1, 2, 6),  # 3 channels a block: 3 blocks an image
    (4, 32, 3, 1, 5, 2),  # 14 channels a block: blocks of 3 and 2 images
    (600, 4, 5, 2, 3, 6),  # channel-last, 327 channels a block: 2 an image
    # a block holds channels of two images: 6 of 12 channels, and, channel-
    # last, 297 of 480; whole images a block would bind 3 blocks each
    (4, 49, 3, 1, 3, 2),
    (160, 7, 3, 1, 3, 2)])
def test_batched_dwconv_blocks_match_single_images(c, h, k, pad, n, blocks):
    m = graph((c, h, h), [spec("d", ts.DWCONV, channels=c, kernel=k,
                               stride=1, padding=pad, seed=2),
                          spec("s", ts.SIGMOID), spec("f", ts.FLATTEN)],
              [("Z", 2)])
    arena = engine._arena(m, (("Z", n),))
    # one in-place multiply per planes block; the sigmoid emits none
    assert sum(f is np.multiply for f, _ in arena._fwd) == blocks
    rng = np.random.default_rng(23)
    xs = rng.standard_normal((n,) + m.input_shape)
    cts = rng.standard_normal(arena.feat.shape)
    np.copyto(arena.x, xs)
    arena.run()
    np.copyto(arena.cot, cts)
    g = arena.gradient()
    for x, ct, feat, gx in zip(xs, cts, arena.feat, g):
        assert feat.tobytes() == ts.forward_until(m, x, "Z").tobytes()
        assert gx.tobytes() == ts.input_gradient(m, "Z", x, ct).tobytes()


# ---------------------------------------------------------------------------
# gradient vs central finite differences

_KINDS_SEEN = set()
ALL_KINDS = {ts.CONV, ts.DWCONV, ts.FC, ts.RELU, ts.SWISH, ts.SIGMOID,
             ts.BNORM, ts.MAXPOOL, ts.AVGPOOL, ts.GAP, ts.ADD, ts.CMUL,
             ts.FLATTEN}


def build_random_model(rng, pools=None):
    """Random small chain; the probe boundary sits after the last block so
    every layer except the trailing marker lies on the gradient path. Its
    pools are k2/s2 unless ``pools`` lists the (kernel, stride, padding)
    to draw from, with one more draw per pool."""
    c = int(rng.integers(1, 4))
    size = h0 = int(rng.choice([8, 12]))
    layers = []
    n = 0

    def put(kind, source=None, **params):
        nonlocal n
        layers.append(spec(f"y{n}", kind, source=source, **params))
        _KINDS_SEEN.add(kind)
        n += 1

    cur = c
    for _ in range(int(rng.integers(2, 5))):
        choice = int(rng.integers(0, 6))
        if choice == 0:
            nxt = int(rng.integers(2, 6))
            put(ts.CONV, in_channels=cur, out_channels=nxt, kernel=3,
                stride=1, padding=1, seed=int(rng.integers(0, 99)))
            cur = nxt
            put(ts.SWISH if rng.integers(0, 2) else ts.RELU)
        elif choice == 1:
            put(ts.DWCONV, channels=cur, kernel=3, stride=1, padding=1,
                seed=int(rng.integers(0, 99)))
            put(ts.BNORM, channels=cur, seed=int(rng.integers(0, 99)))
            put(ts.SIGMOID)
        elif choice == 2 and size >= 8:
            k, s, p = ((2, 2, 0) if pools is None
                       else pools[rng.integers(0, len(pools))])
            put(ts.MAXPOOL if rng.integers(0, 2) else ts.AVGPOOL,
                kernel=k, stride=s, padding=p)
            size = (size + 2 * p - k) // s + 1
        elif choice == 3:
            pre = len(layers) - 1
            put(ts.CONV, in_channels=cur, out_channels=cur, kernel=1,
                stride=1, padding=0, seed=int(rng.integers(0, 99)))
            put(ts.ADD, skip_source=pre)
        elif choice == 4:
            # squeeze-excite: gates from pooled stats rescale the block input
            pre = len(layers) - 1
            put(ts.GAP)
            put(ts.FLATTEN)
            put(ts.FC, in_features=cur, units=cur,
                seed=int(rng.integers(0, 99)))
            put(ts.SIGMOID)
            put(ts.CMUL, map_source=pre)
        else:
            put(ts.BNORM, channels=cur, seed=int(rng.integers(0, 99)))
            put(ts.SWISH)
    if rng.integers(0, 2):
        put(ts.FLATTEN)
        put(ts.FC, in_features=cur * size * size, units=3,
            seed=int(rng.integers(0, 99)))
    probe = len(layers)
    put(ts.SIGMOID)
    return ts.make_graph("rnd", (c, h0, h0), layers, [("Z", probe)])


def fd_directional(m, label, x, ct, idx, h):
    xp = x.copy()
    xp[idx] += h
    xm = x.copy()
    xm[idx] -= h
    fp = float((ts.forward_until(m, xp, label) * ct).sum())
    fm = float((ts.forward_until(m, xm, label) * ct).sum())
    return (fp - fm) / (2.0 * h)


def gradient_check(m, rng, n_coords=6, h=1e-6, tol=1e-4):
    """Central-difference check at n_coords random coordinates.

    A coordinate is skipped as kink-adjacent when the difference quotient
    has not converged between h and h/2 (ReLU corners, pool argmax flips).
    Returns (checked, skipped).
    """
    label = "Z"
    x = rng.uniform(0.05, 0.95, m.input_shape)
    f = ts.forward_until(m, x, label)
    ct = rng.standard_normal(f.shape)
    g = ts.input_gradient(m, label, x, ct)
    checked = skipped = 0
    for _ in range(n_coords):
        idx = tuple(int(rng.integers(0, s)) for s in x.shape)
        fd1 = fd_directional(m, label, x, ct, idx, h)
        fd2 = fd_directional(m, label, x, ct, idx, h / 2.0)
        scale = max(abs(fd1), abs(fd2), 1.0)
        if abs(fd1 - fd2) > 1e-5 * scale:
            skipped += 1
            continue
        denom = max(abs(fd2), abs(g[idx]), 1e-6)
        err = abs(fd2 - g[idx]) / denom
        assert err <= tol, (m.name, idx, err)
        checked += 1
    return checked, skipped


def test_gradient_matches_finite_differences_many_models():
    rng = np.random.default_rng(2024)
    total_checked = total_skipped = 0
    for _ in range(50):
        m = build_random_model(rng)
        checked, skipped = gradient_check(m, rng)
        total_checked += checked
        total_skipped += skipped
    # the kink filter may drop stray coordinates, never the bulk
    assert total_checked >= 4 * max(total_skipped, 1)
    missing = ALL_KINDS - _KINDS_SEEN
    assert not missing, missing
