"""Print the peak memory of the library's attack on a network's boundary maps.

The protocol: N seeded 3x224x224 images, in [0, 1], for the network
(VGG-16 unless given), scored with ``AttackConfig(steps=3)`` by the
library's own entry points: ``privacy.score_boundary`` at one boundary
("Layer 4" unless given), or ``evaluate_privacy`` at every boundary when
the boundary is ``all``. Each runs the enclave prefix on every image,
inverts the maps one arena at a time and scores each reconstruction, so
the figure is what the ``attack`` and ``evaluate`` commands hold. The
process's peak RSS (``ru_maxrss``) is printed in MB, so two trees are
compared by running it once per tree:

    PYTHONPATH=/path/to/old/src python3 tools/attack_rss.py
    PYTHONPATH=src python3 tools/attack_rss.py
    PYTHONPATH=src python3 tools/attack_rss.py 4 vgg16 "Layer 1"
    PYTHONPATH=src python3 tools/attack_rss.py 1 efficientnetb0 "Layer 5"
    PYTHONPATH=src python3 tools/attack_rss.py 1 resnet50 all

Arguments, all optional and in this order: the number of images N (at
least 1), a built-in network and one of its boundary labels, or ``all``.

EfficientNet-B0 Layer 5 is the one run of the depthwise kernels' scratch
at 224 pixels, and ResNet-50 Layer 1 the one of an overlapping max pool
(k3/s2/p1) in an arena. At 224 pixels an arena holds the maps of one
boundary, so the peak is the largest arena's plus the images, that
arena's maps and reconstructions, and the similarity's window arrays:
apart from the images, it stops growing with N once a boundary's maps
fill more than one arena (VGG-16 Layer 1 holds one map per arena).
Figures for a 2-vCPU x86-64 host with one BLAS thread are in README.md.
"""

from __future__ import annotations

import argparse
import resource
import sys

import numpy as np

import teesplit as ts
from teesplit.privacy import score_boundary


def main(argv):
    parser = argparse.ArgumentParser(
        prog="attack_rss.py",
        description="peak RSS of a 3-step attack's scores at 3x224x224")
    parser.add_argument("images", nargs="?", type=int, default=1)
    parser.add_argument("network", nargs="?", default="vgg16")
    parser.add_argument("boundary", nargs="?", default="Layer 4")
    args = parser.parse_args(argv)
    n, boundary = args.images, args.boundary
    if n < 1:
        parser.error("IMAGES must be at least 1")
    try:
        model = ts.resolve_model(args.network, (3, 224, 224), seed=0)
        if boundary != "all":
            model.boundary_of(boundary)
    except ts.GraphError as exc:
        parser.error(str(exc))
    images = list(np.random.default_rng(0).uniform(
        0.0, 1.0, (n,) + model.input_shape))
    cfg = ts.AttackConfig(steps=3)
    if boundary == "all":
        ts.evaluate_privacy(model, images, cfg)
    else:
        score_boundary(model, model.labels().index(boundary), images, cfg)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.1f} MB (ru_maxrss), {n} image(s), "
          f"{args.network} {boundary}")


if __name__ == "__main__":
    main(sys.argv[1:])
