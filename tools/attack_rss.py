"""Print the peak memory of one inversion attack on VGG-16's Layer 4 maps.

The protocol: N seeded 3x224x224 inputs to VGG-16 (N = 1 unless given as
the one argument), their ``forward_until`` maps at "Layer 4" as the
targets, then one ``invert_feature_map`` call with ``AttackConfig(steps=3)``
over the map, or over the stack of N maps with seeds 0 to N - 1. The
process's peak RSS (``ru_maxrss``) is printed in MB, so two trees are
compared by running it once per tree:

    PYTHONPATH=/path/to/old/src python3 tools/attack_rss.py
    PYTHONPATH=src python3 tools/attack_rss.py
    PYTHONPATH=src python3 tools/attack_rss.py 2

With one image it takes about 3.5 s and peaks near 482 MB on a 2-vCPU
x86-64 host with one BLAS thread, near 488 MB with two and near 584 MB
with twenty. The figure moves with how the engine stores and pools an
inversion's arrays; at this size the attack binds one image at a time,
so only the stack's inputs, targets and results grow with N.
"""

from __future__ import annotations

import resource
import sys

import numpy as np

import teesplit as ts

BOUNDARY = "Layer 4"


def main(argv):
    try:
        (n,) = map(int, argv or ["1"])
    except ValueError:
        n = 0
    if n < 1:
        sys.exit("usage: attack_rss.py [IMAGES >= 1]")
    model = ts.resolve_model("vgg16", (3, 224, 224), seed=0)
    rng = np.random.default_rng(0)
    if n == 1:
        x = rng.uniform(0.0, 1.0, model.input_shape)
        target = ts.forward_until(model, x, BOUNDARY)
        ts.invert_feature_map(model, BOUNDARY, target, ts.AttackConfig(steps=3))
    else:
        xs = rng.uniform(0.0, 1.0, (n,) + model.input_shape)
        targets = np.empty((n,) + model.layers[
            model.boundary_of(BOUNDARY) - 1].output_shape)
        for target, x in zip(targets, xs):  # as score_boundary fills them
            target[...] = ts.forward_until(model, x, BOUNDARY)
        ts.invert_feature_map(model, BOUNDARY, targets, ts.AttackConfig(
            steps=3, init_seed=tuple(range(n))))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.1f} MB (ru_maxrss), {n} image(s)")


if __name__ == "__main__":
    main(sys.argv[1:])
