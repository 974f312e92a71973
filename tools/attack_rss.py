"""Print the peak memory of one inversion attack on a network's boundary maps.

The protocol: N seeded 3x224x224 inputs to the network (VGG-16 unless
given), their ``forward_until`` maps at the boundary ("Layer 4" unless
given) as the targets, then one ``invert_feature_map`` call with
``AttackConfig(steps=3)`` over the map, or over the stack of N maps with
seeds 0 to N - 1. The boundary ``all`` attacks every boundary's stack in
that one call, by ``invert_feature_map``'s tuple form (``evaluate_privacy``
makes one such call per group of boundaries whose maps share an arena: at
224 pixels, one per boundary). The process's peak RSS
(``ru_maxrss``) is printed in MB, so two trees are compared by running it
once per tree:

    PYTHONPATH=/path/to/old/src python3 tools/attack_rss.py
    PYTHONPATH=src python3 tools/attack_rss.py
    PYTHONPATH=src python3 tools/attack_rss.py 2
    PYTHONPATH=src python3 tools/attack_rss.py 1 efficientnetb0 "Layer 5"
    PYTHONPATH=src python3 tools/attack_rss.py 1 resnet50 all

Arguments, all optional and in this order: the number of images N (at
least 1), a built-in network and one of its boundary labels, or ``all``.

On VGG-16 Layer 4, with one image, it takes about 3.5 s and peaks near
482 MB on a 2-vCPU x86-64 host with one BLAS thread, near 488 MB with two
and near 584 MB with twenty. The figure moves with how the engine stores
and pools an inversion's arrays; at this size the attack binds one image
at a time, so only the stack's inputs, targets and results grow with N.
EfficientNet-B0 Layer 5 is the one run of the depthwise kernels' scratch
at 224 pixels, and ResNet-50 Layer 1 the one of an overlapping max pool
(k3/s2/p1) in an arena. With ``all``, every boundary's maps are packed
deepest first into arenas that run one after another, so the peak is the
deepest arena's plus every boundary's targets and results.
"""

from __future__ import annotations

import argparse
import resource
import sys

import numpy as np

import teesplit as ts


def main(argv):
    parser = argparse.ArgumentParser(
        prog="attack_rss.py",
        description="peak RSS of one 3-step inversion attack at 3x224x224")
    parser.add_argument("images", nargs="?", type=int, default=1)
    parser.add_argument("network", nargs="?", default="vgg16")
    parser.add_argument("boundary", nargs="?", default="Layer 4")
    args = parser.parse_args(argv)
    n, boundary = args.images, args.boundary
    if n < 1:
        parser.error("IMAGES must be at least 1")
    try:
        model = ts.resolve_model(args.network, (3, 224, 224), seed=0)
        labels = (tuple(model.labels()) if boundary == "all"
                  else (boundary,))
        for label in labels:
            model.boundary_of(label)
    except ts.GraphError as exc:
        parser.error(str(exc))
    rng = np.random.default_rng(0)
    if n == 1 and boundary != "all":
        x = rng.uniform(0.0, 1.0, model.input_shape)
        target = ts.forward_until(model, x, boundary)
        ts.invert_feature_map(model, boundary, target,
                              ts.AttackConfig(steps=3))
    else:
        xs = rng.uniform(0.0, 1.0, (n,) + model.input_shape)
        stacks = tuple(np.empty((n,) + model.layers[
            model.boundary_of(label) - 1].output_shape) for label in labels)
        for label, targets in zip(labels, stacks):
            for target, x in zip(targets, xs):  # as evaluate_privacy fills them
                target[...] = ts.forward_until(model, x, label)
        seeds = tuple(range(n))
        if boundary == "all":
            ts.invert_feature_map(model, labels, stacks, ts.AttackConfig(
                steps=3, init_seed=(seeds,) * len(labels)))
        else:
            ts.invert_feature_map(model, boundary, stacks[0],
                                  ts.AttackConfig(steps=3, init_seed=seeds))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.1f} MB (ru_maxrss), {n} image(s), "
          f"{args.network} {boundary}")


if __name__ == "__main__":
    main(sys.argv[1:])
