"""Print the peak memory of one inversion attack on VGG-16's Layer 4 map.

The protocol: a seeded 3x224x224 input to VGG-16, its ``forward_until``
map at "Layer 4" as the target, then ``invert_feature_map`` with
``AttackConfig(steps=3)``. The process's peak RSS (``ru_maxrss``) is
printed in MB, so two trees are compared by running it once per tree:

    PYTHONPATH=/path/to/old/src python3 tools/attack_rss.py
    PYTHONPATH=src python3 tools/attack_rss.py

It takes about 3.5 s and peaks near 482 MB on a 2-vCPU x86-64 host with one
BLAS thread. The figure moves with how the engine stores and pools an
inversion's arrays.
"""

from __future__ import annotations

import resource

import numpy as np

import teesplit as ts

BOUNDARY = "Layer 4"


def main():
    model = ts.resolve_model("vgg16", (3, 224, 224), seed=0)
    x = np.random.default_rng(0).uniform(0.0, 1.0, model.input_shape)
    target = ts.forward_until(model, x, BOUNDARY)
    ts.invert_feature_map(model, BOUNDARY, target, ts.AttackConfig(steps=3))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.1f} MB (ru_maxrss)")


if __name__ == "__main__":
    main()
