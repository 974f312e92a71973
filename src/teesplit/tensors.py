"""Tensor validation and serialization.

Tensors are dense float64 numpy arrays inside the package. On disk they use
a little-endian binary layout: an 8-byte unsigned rank, one 8-byte unsigned
extent per dimension, then the elements as 4-byte floats in row-major order.
Images may also be loaded from 8-bit PGM/PPM files (plain or raw), scaled to
[0, 1]. All file writes go through a temp-file-then-rename so readers never
observe partial output. Text files are read as UTF-8 after an optional
byte-order mark, and every CSV table the package writes comes from
``csv_text``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import struct
import tempfile

import numpy as np


class TensorError(ValueError):
    """Raised for malformed tensors or unreadable tensor/image files."""


def require_tensor(x, shape=None, name="tensor"):
    """Coerce to a C-contiguous float64 array and check every element is
    finite (and the shape, when one is expected)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim < 1:
        raise TensorError(f"{name} must have rank >= 1")
    arr = np.ascontiguousarray(arr)
    if not np.isfinite(arr).all():
        raise TensorError(f"{name} contains non-finite elements")
    if shape is not None and arr.shape != tuple(shape):
        raise TensorError(f"{name} has shape {arr.shape}, expected {tuple(shape)}")
    return arr


def numpy_holds(shape, itemsize):
    """Whether numpy can make an array of ``shape`` with ``itemsize``-byte
    elements: it refuses one whose nonzero extents' product, in bytes,
    overflows ``np.intp``, even when another extent is 0."""
    return math.prod(d for d in shape if d) * itemsize <= np.iinfo(np.intp).max


def write_bytes_atomic(path, data):
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text):
    write_bytes_atomic(path, text.encode("utf-8"))


def read_text(path, error, what):
    """Contents of a UTF-8 text file, without a leading byte-order mark.
    Bytes that do not decode raise ``error`` naming the ``what`` and the
    path; a missing file raises OSError."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"unreadable {what} {path}: {exc}") from None


def read_json(path, error, what):
    """Parsed JSON document of a UTF-8 file; undecodable bytes or malformed
    JSON raise ``error`` as ``read_text`` does."""
    try:
        return json.loads(read_text(path, error, what))
    except json.JSONDecodeError as exc:
        raise error(f"unreadable {what} {path}: {exc}") from None


def csv_text(header, rows):
    """The package's CSV table format: every line ends in a bare newline,
    float cells carry 10 significant digits, other cells print as ``str``."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([format(v, ".10g") if isinstance(v, float) else v
                    for v in row])
    return buf.getvalue()


def tensor_to_bytes(x):
    x = require_tensor(x)
    with np.errstate(over="ignore"):
        body = x.astype("<f4")
    if not np.all(np.isfinite(body)):
        raise TensorError("tensor has elements beyond the float32 range")
    head = struct.pack("<Q", x.ndim)
    head += struct.pack(f"<{x.ndim}Q", *x.shape)
    return head + body.tobytes(order="C")


def tensor_from_bytes(data):
    if len(data) < 8:
        raise TensorError("tensor data truncated before rank field")
    (rank,) = struct.unpack_from("<Q", data, 0)
    if rank < 1 or rank > 32:
        raise TensorError(f"implausible tensor rank {rank}")
    if len(data) < 8 + 8 * rank:
        raise TensorError("tensor data truncated in extents")
    shape = struct.unpack_from(f"<{rank}Q", data, 8)
    n = math.prod(shape)
    body = data[8 + 8 * rank:]
    if len(body) != 4 * n:
        raise TensorError(f"tensor data holds {len(body)} payload bytes, "
                          f"expected {4 * n}")
    if not numpy_holds(shape, 4):
        raise TensorError(f"implausible tensor extents {shape}")
    return require_tensor(np.frombuffer(body, dtype="<f4").reshape(shape))


def save_tensor(path, x):
    write_bytes_atomic(path, tensor_to_bytes(x))


def load_tensor(path):
    with open(path, "rb") as fh:
        return tensor_from_bytes(fh.read())


def _pnm_tokens(data):
    """Token stream for plain/raw PNM headers, honoring # comments."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i:i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < n and data[i:i + 1] not in (b"\n", b"\r"):
                i += 1
        else:
            j = i
            while j < n and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            yield data[i:j], j
            i = j


def load_image(path):
    """Image as a channels-first tensor with values in [0, 1].

    Accepts 8-bit PGM (P2/P5, one channel) and PPM (P3/P6, three channels),
    or the package's binary tensor format.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        arr = tensor_from_bytes(data)
        if arr.ndim != 3 or arr.size == 0:
            raise TensorError(f"{path}: expected a non-empty C x H x W image "
                              f"tensor, got shape {arr.shape}")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise TensorError(f"{path}: image values must lie in [0, 1]")
        return arr

    toks = _pnm_tokens(data)
    fields = []
    end = 0
    try:
        while len(fields) < 4:
            tok, end = next(toks)
            fields.append(tok)
    except StopIteration:
        raise TensorError(f"{path}: truncated PNM header") from None
    kind = fields[0].decode("ascii")
    try:
        width, height, maxval = (int(v) for v in fields[1:4])
    except ValueError:
        raise TensorError(f"{path}: non-numeric PNM header") from None
    if width < 1 or height < 1:
        raise TensorError(f"{path}: bad PNM dimensions {width}x{height}")
    if not (0 < maxval <= 255):
        raise TensorError(f"{path}: only 8-bit PNM supported (maxval {maxval})")
    channels = 3 if kind in ("P3", "P6") else 1
    count = width * height * channels

    if kind in ("P5", "P6"):
        body = data[end + 1:]  # single whitespace byte after maxval
        if len(body) < count:
            raise TensorError(f"{path}: truncated PNM pixel data")
        vals = np.frombuffer(body[:count], dtype=np.uint8)
    else:
        vals = []
        try:
            while len(vals) < count:
                tok, end = next(toks)
                vals.append(int(tok))
        except (StopIteration, ValueError):
            raise TensorError(f"{path}: bad plain PNM pixel data") from None
        vals = np.asarray(vals, dtype=np.int64)
    if vals.min() < 0 or vals.max() > maxval:
        raise TensorError(f"{path}: PNM sample out of range 0..{maxval}")
    img = vals.astype(np.float64).reshape(height, width, channels) / maxval
    return require_tensor(np.moveaxis(img, 2, 0))
