import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import teesplit as ts
from teesplit import engine
from teesplit.graph import LayerSpec


def spec(name, kind, source=None, **params):
    return LayerSpec(name=name, kind=kind, params=params, output_shape=(),
                     source=source)


def graph(input_shape, layers, points=()):
    return ts.make_graph("t", input_shape, layers, list(points))


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


def test_identity_conv_is_identity():
    layers = [spec("c", ts.CONV, in_channels=3, out_channels=3, kernel=3,
                   stride=1, padding=1, seed=0, init="identity")]
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
# unpadded is the lowering's no-copy path, 7x7/2 pad 3 the ResNet stem
CONV_CASES = [(2, 3, 5, 5, 3, 2, 1), (4, 5, 6, 6, 1, 1, 0),
              (4, 5, 7, 7, 1, 2, 0), (3, 4, 15, 15, 7, 2, 3),
              (3, 2, 6, 9, 3, 1, 1)]
# (channels, H, W, kernel, stride, padding)
DWCONV_CASES = [(3, 4, 4, 3, 1, 1), (3, 9, 7, 5, 2, 2)]


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


def test_maxpool_tie_routes_to_first_index():
    layers = [spec("p", ts.MAXPOOL, kernel=2, stride=2),
              spec("f", ts.FLATTEN)]
    m = graph((1, 2, 2), layers, points=[("P", 1)])
    x = np.full((1, 2, 2), 0.7)
    g = ts.input_gradient(m, "P", x, np.ones((1, 1, 1)))
    want = np.array([[[1.0, 0.0], [0.0, 0.0]]])
    assert np.array_equal(g, want)


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
                    got = engine._windows(x, k, stride, pad, fill)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                    assert not got.flags.writeable


def test_col2im_matches_scalar_scatter():
    # each pixel sums its window terms in row-major kernel-offset order,
    # starting from zero: the order the engine's gradients are pinned to
    rng = np.random.default_rng(6)
    for k, stride, pad in [(3, 1, 1), (3, 2, 1), (2, 2, 0), (5, 2, 2)]:
        x_shape = (2, 9, 7)
        win = engine._windows(np.zeros(x_shape), k, stride, pad)
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
        got = engine._col2im(gwin, x_shape, stride, pad)
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# gradient vs central finite differences

_KINDS_SEEN = set()
ALL_KINDS = {ts.CONV, ts.DWCONV, ts.FC, ts.RELU, ts.SWISH, ts.SIGMOID,
             ts.BNORM, ts.MAXPOOL, ts.AVGPOOL, ts.GAP, ts.ADD, ts.CMUL,
             ts.FLATTEN}


def build_random_model(rng):
    """Random small chain; the probe boundary sits after the last block so
    every layer except the trailing marker lies on the gradient path."""
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
            put(ts.MAXPOOL if rng.integers(0, 2) else ts.AVGPOOL,
                kernel=2, stride=2)
            size //= 2
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
