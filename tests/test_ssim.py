import numpy as np
import pytest

import teesplit as ts


def gaussian_2d(size, sigma):
    half = size // 2
    g = np.array([np.exp(-(i - half) ** 2 / (2.0 * sigma ** 2))
                  for i in range(size)])
    g = g / g.sum()
    return np.outer(g, g)


def ssim_oracle(a, b, params=None):
    """Unoptimized reference: explicit loops over valid window positions."""
    p = params or ts.SsimParams()
    win = gaussian_2d(p.window_size, p.sigma)
    c1 = (p.k1 * p.dynamic_range) ** 2
    c2 = (p.k2 * p.dynamic_range) ** 2
    k = p.window_size
    vals = []
    for c in range(a.shape[0]):
        for i in range(a.shape[1] - k + 1):
            for j in range(a.shape[2] - k + 1):
                pa = a[c, i:i + k, j:j + k]
                pb = b[c, i:i + k, j:j + k]
                mua = float((win * pa).sum())
                mub = float((win * pb).sum())
                va = float((win * (pa - mua) ** 2).sum())
                vb = float((win * (pb - mub) ** 2).sum())
                cov = float((win * (pa - mua) * (pb - mub)).sum())
                num = (2 * mua * mub + c1) * (2 * cov + c2)
                den = (mua ** 2 + mub ** 2 + c1) * (va + vb + c2)
                vals.append(num / den)
    return float(np.mean(vals))


def rand_pair(rng, shape):
    return (rng.uniform(0, 1, shape), rng.uniform(0, 1, shape))


def test_identity_is_exactly_one():
    rng = np.random.default_rng(0)
    for shape in [(1, 16, 16), (3, 13, 21), (2, 11, 11)]:
        a, _ = rand_pair(rng, shape)
        assert ts.ssim(a, a) == 1.0


def test_constant_pair_closed_form():
    p = ts.SsimParams()
    c1 = (p.k1 * p.dynamic_range) ** 2
    a = np.zeros((1, 16, 16))
    b = np.ones((1, 16, 16))
    assert abs(ts.ssim(a, b) - c1 / (1 + c1)) < 1e-12
    for va, vb in [(0.3, 0.7), (0.5, 0.5), (0.0, 0.2)]:
        ca = np.full((2, 12, 14), va)
        cb = np.full((2, 12, 14), vb)
        want = (2 * va * vb + c1) / (va * va + vb * vb + c1)
        assert abs(ts.ssim(ca, cb) - want) < 1e-12


def test_symmetry_bitwise():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a, b = rand_pair(rng, (2, 14, 14))
        assert ts.ssim(a, b) == ts.ssim(b, a)


def test_bounded_on_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        a, b = rand_pair(rng, (1, 13, 13))
        v = ts.ssim(a, b)
        assert -1.0 <= v <= 1.0


def test_matches_double_loop_oracle():
    rng = np.random.default_rng(3)
    shapes = [(1, 16, 16), (2, 13, 18), (3, 11, 11), (1, 24, 12)]
    for trial in range(20):
        shape = shapes[trial % len(shapes)]
        a, b = rand_pair(rng, shape)
        assert abs(ts.ssim(a, b) - ssim_oracle(a, b)) < 1e-9


def test_similar_scores_higher_than_dissimilar():
    rng = np.random.default_rng(4)
    a = rng.uniform(0, 1, (1, 20, 20))
    near = np.clip(a + rng.normal(0, 0.02, a.shape), 0, 1)
    far = rng.uniform(0, 1, a.shape)
    assert ts.ssim(a, near) > ts.ssim(a, far)


def test_custom_params_respected():
    rng = np.random.default_rng(5)
    a, b = rand_pair(rng, (1, 12, 12))
    p = ts.SsimParams(window_size=7, sigma=1.0, k1=0.02, k2=0.05,
                      dynamic_range=1.0)
    assert abs(ts.ssim(a, b, p) - ssim_oracle(a, b, p)) < 1e-9
    assert ts.ssim(a, b, p) != ts.ssim(a, b)


def test_window_normalized_and_peaked():
    w = ts.gaussian_window(11, 1.5)
    assert w.shape == (11, 11)
    assert abs(float(w.sum()) - 1.0) < 1e-12
    assert w[5, 5] == w.max()
    assert np.array_equal(w, w.T)


def test_images_smaller_than_window_rejected():
    a = np.zeros((1, 8, 8))
    with pytest.raises(ts.PrivacyError):
        ts.ssim(a, a)


def test_mismatched_shapes_rejected():
    with pytest.raises((ts.PrivacyError, ts.TensorError)):
        ts.ssim(np.zeros((1, 16, 16)), np.zeros((1, 16, 17)))


def test_out_of_range_images_rejected():
    a = np.zeros((1, 16, 16))
    hot = np.full((1, 16, 16), 1.5)
    with pytest.raises(ts.PrivacyError):
        ts.ssim(a, hot)


@pytest.mark.parametrize("field", ["sigma", "k1", "k2", "dynamic_range"])
@pytest.mark.parametrize("value", [0.0, -1.5, np.nan, np.inf, -np.inf, "1",
                                   None])
def test_nonpositive_or_nonfinite_params_rejected(field, value):
    a = np.full((1, 16, 16), 0.5)
    with pytest.raises(ts.PrivacyError, match=field):
        ts.ssim(a, a, ts.SsimParams(**{field: value}))
    if field == "sigma":
        with pytest.raises(ts.PrivacyError, match="sigma"):
            ts.gaussian_window(11, value)


@pytest.mark.parametrize("size", [
    pytest.param(size, id=f"window_size={size!r}")
    for size in ["11", 11.0, True, None, 4, 1, -3, 2 ** 70 + 1]])
def test_bad_window_sizes_rejected(size):
    a = np.full((1, 16, 16), 0.5)
    with pytest.raises(ts.PrivacyError, match="window size"):
        ts.ssim(a, a, ts.SsimParams(window_size=size))
    if size != 2 ** 70 + 1:  # a window that large is never built
        with pytest.raises(ts.PrivacyError, match="window size"):
            ts.gaussian_window(size, 1.5)
