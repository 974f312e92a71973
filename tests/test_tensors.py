import struct

import numpy as np
import pytest

import teesplit as ts


def wire_oracle(arr):
    """Independent serializer: u64 LE rank, u64 LE extents, f32 LE payload."""
    out = struct.pack("<Q", arr.ndim)
    for d in arr.shape:
        out += struct.pack("<Q", d)
    for v in arr.astype(np.float32).ravel(order="C"):
        out += struct.pack("<f", float(v))
    return out


def test_wire_format_matches_byte_oracle():
    rng = np.random.default_rng(0)
    for shape in [(3,), (2, 5), (4, 3, 2), (1, 1, 1, 6)]:
        arr = np.ascontiguousarray(rng.standard_normal(shape))
        assert ts.tensor_to_bytes(arr) == wire_oracle(arr)


def test_round_trip_preserves_f32_values():
    rng = np.random.default_rng(1)
    arr = np.ascontiguousarray(rng.standard_normal((3, 7, 5)))
    back = ts.tensor_from_bytes(ts.tensor_to_bytes(arr))
    assert back.shape == arr.shape
    assert back.dtype == np.float64
    # payload is f32 on the wire, so equality holds after one f32 round trip
    assert np.array_equal(back, arr.astype(np.float32).astype(np.float64))


def test_round_trip_exact_for_f32_representable():
    arr = np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 8.0
    back = ts.tensor_from_bytes(ts.tensor_to_bytes(arr))
    assert np.array_equal(back, arr)


def test_values_beyond_float32_rejected():
    f4max = float(np.finfo(np.float32).max)
    edge = np.array([f4max, -f4max, 1.0])
    assert np.array_equal(ts.tensor_from_bytes(ts.tensor_to_bytes(edge)), edge)
    for big in (3.5e38, -1e300):
        with pytest.raises(ts.TensorError, match="float32 range"):
            ts.tensor_to_bytes(np.array([1.0, big]))


def test_truncated_payload_rejected():
    arr = np.ones((2, 2))
    blob = ts.tensor_to_bytes(arr)
    for cut in (0, 3, 8, 20, len(blob) - 1):
        with pytest.raises(ts.TensorError):
            ts.tensor_from_bytes(blob[:cut])
    with pytest.raises(ts.TensorError):
        ts.tensor_from_bytes(blob + b"\x00")


def test_extents_numpy_cannot_hold_rejected(tmp_path, capsys):
    # no payload, so the byte count matches, but numpy holds neither shape:
    # an extent beyond its index type, and nonzero extents whose product
    # overflows it
    for shape in [(2 ** 64 - 1, 0), (2 ** 40, 2 ** 40, 0)]:
        blob = struct.pack(f"<Q{len(shape)}Q", len(shape), *shape)
        with pytest.raises(ts.TensorError, match="implausible tensor extents"):
            ts.tensor_from_bytes(blob)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob)
        assert ts.main(["simulate", "--model", "toy3", "--input-shape",
                        "1x16x16", "--boundary", "L1", "--profile",
                        "builtin:vgg16", "--input", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
    # an empty tensor numpy can hold still loads
    assert ts.tensor_from_bytes(struct.pack("<3Q", 2, 0, 3)).shape == (0, 3)


def test_save_load_tensor(tmp_path):
    arr = np.linspace(0.0, 1.0, 30).reshape(2, 3, 5)
    path = tmp_path / "t.bin"
    ts.save_tensor(path, arr)
    assert np.array_equal(ts.load_tensor(path),
                          arr.astype(np.float32).astype(np.float64))


def test_require_tensor_contract():
    good = np.zeros((1, 2, 2))
    assert ts.require_tensor(good, shape=(1, 2, 2), name="x") is not None
    with pytest.raises(ts.TensorError):
        ts.require_tensor(np.zeros((2, 2)), shape=(1, 2, 2), name="x")
    bad = np.zeros((1, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ts.TensorError):
        ts.require_tensor(bad, name="x")
    # nested lists coerce; scalars do not
    assert ts.require_tensor([[1.0]], name="x").shape == (1, 1)
    with pytest.raises(ts.TensorError):
        ts.require_tensor(3.0, name="x")


def test_pgm_binary(tmp_path):
    p = tmp_path / "g.pgm"
    p.write_bytes(b"P5\n# a comment\n4 2\n255\n" + bytes(range(8)))
    img = ts.load_image(p)
    assert img.shape == (1, 2, 4)
    assert img[0, 0, 0] == 0.0
    assert img[0, 1, 3] == 7.0 / 255.0


def test_ppm_binary(tmp_path):
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + bytes(range(12)))
    img = ts.load_image(p)
    assert img.shape == (3, 2, 2)
    # planes are channel-major; pixel (0, 1) has rgb (3, 4, 5)
    assert img[0, 0, 1] == 3.0 / 255.0
    assert img[2, 0, 1] == 5.0 / 255.0


def test_pgm_ascii(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_text("P2\n# c\n3 2\n100\n0 50 100\n25 75 100\n")
    img = ts.load_image(p)
    assert img.shape == (1, 2, 3)
    assert img[0, 0, 1] == 0.5
    assert img[0, 1, 1] == 0.75


def test_ppm_ascii(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_text("P3\n1 1\n255\n255 0 128\n")
    img = ts.load_image(p)
    assert img.shape == (3, 1, 1)
    assert img[0, 0, 0] == 1.0
    assert img[1, 0, 0] == 0.0


def test_image_tensor_fallback(tmp_path):
    arr = np.random.default_rng(2).uniform(0, 1, (3, 4, 4))
    path = tmp_path / "x.bin"
    ts.save_tensor(path, arr)
    img = ts.load_image(path)
    assert img.shape == (3, 4, 4)
    b = tmp_path / "flat.bin"
    ts.save_tensor(b, arr.ravel())
    with pytest.raises(ts.TensorError):
        ts.load_image(b)
    # a 1 x 0 x 5 tensor: rank and extents, no payload
    e = tmp_path / "empty.bin"
    e.write_bytes(struct.pack("<4Q", 3, 1, 0, 5))
    with pytest.raises(ts.TensorError, match="empty.bin"):
        ts.load_image(e)


def test_image_tensor_range_checked(tmp_path):
    path = tmp_path / "hot.bin"
    ts.save_tensor(path, np.full((1, 2, 2), 9.0))
    with pytest.raises(ts.TensorError):
        ts.load_image(path)


def test_raw_pnm_sample_above_maxval_rejected(tmp_path):
    p = tmp_path / "hot.pgm"
    p.write_bytes(b"P5 2 1 100\n" + bytes([50, 200]))
    with pytest.raises(ts.TensorError, match="hot.pgm"):
        ts.load_image(p)


def test_truncated_pgm_rejected(tmp_path):
    p = tmp_path / "short.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(5))
    with pytest.raises(ts.TensorError):
        ts.load_image(p)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.bin"
    for _ in range(3):
        ts.save_tensor(path, np.zeros((2, 2)))
    leftovers = [f for f in tmp_path.iterdir() if f.name != "out.bin"]
    assert leftovers == []
