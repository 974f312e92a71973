"""A fixed reference routine that measures how fast the host is right now.

On a shared host the same work runs 10-80 % slower for minutes at a time,
so a time taken in one run cannot be compared with a time taken minutes
later. The runner therefore times this routine, which does the same work in
every run and never calls teesplit, right before each timed operation, and
reports operations in units of it. Its parts mirror what the workloads
spend their time on:

- ``blas``: dense float64 matrix products, as in convolutions and FC layers;
- ``memory``: im2col-style copies of a strided window view, as in
  convolution lowering;
- ``small_conv``: a loop of 3x3 convolutions on an 8x16x16 map, lowered by
  im2col as the engine does, with a ReLU and the weight gradient: the
  per-call overhead that dominates work on attack-scale tensors.

A workload picks the parts that match its own bottleneck; README.md gives
the spreads that chose them. A loop of numpy calls on a 16-element array
was tried for the privacy sweep and left out: its speed differed by half
from one process to the next while the sweep's did not.
"""

from time import perf_counter

import numpy as np


class Reference:
    """The chosen parts of the routine, on inputs fixed once per process."""

    def __init__(self, parts):
        rng = np.random.default_rng(20240411)
        self._a = rng.standard_normal((256, 256))
        self._b = rng.standard_normal((256, 256))
        self._image = rng.standard_normal((16, 66, 66))
        self._map = rng.standard_normal((8, 18, 18))
        self._kernel = rng.standard_normal((8, 72))
        table = {"blas": self._blas, "memory": self._memory,
                 "small_conv": self._small_conv}
        self._parts = [table[p] for p in parts]

    def _blas(self):
        for _ in range(3):
            self._a @ self._b

    def _memory(self):
        view = np.lib.stride_tricks.sliding_window_view(
            self._image, (3, 3), axis=(1, 2))
        for _ in range(2):
            np.ascontiguousarray(view.transpose(0, 3, 4, 1, 2))

    def _small_conv(self):
        view = np.lib.stride_tricks.sliding_window_view(
            self._map, (3, 3), axis=(1, 2))
        for _ in range(60):
            cols = np.ascontiguousarray(
                view.transpose(0, 3, 4, 1, 2)).reshape(72, 256)
            y = np.maximum(self._kernel @ cols, 0.0)
            self._kernel.T @ ((y > 0) * y)

    def seconds(self):
        """Run the routine once; the seconds it took."""
        t0 = perf_counter()
        for part in self._parts:
            part()
        return perf_counter() - t0
