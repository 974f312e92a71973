"""Print one SHA-256 per group of engine, attack, graph and profile results.

Two trees compute the same bits exactly when they print the same lines, so
a change that must keep every bit is checked by running this once per tree:

    PYTHONPATH=/path/to/old/src python3 tools/fingerprint.py > old.txt
    PYTHONPATH=src python3 tools/fingerprint.py > new.txt
    diff old.txt new.txt

Groups:
- ``forward64``, ``forward100``, ``forward224``: ``forward`` of VGG-16,
  ResNet-50 and EfficientNet-B0 at 3xHxH;
- ``boundary64``: ``forward_until`` at every partition point of the three
  at 3x64x64;
- ``gradient64``: ``input_gradient`` at the same points, each with a seeded
  cotangent;
- ``privacy``: ``evaluate_privacy`` scores of three seeded toy CNNs;
- ``graph``: the model JSON, the ``enumerate_partitions`` table and the
  JSON of both ``split`` halves at every partition point, for the three
  built-ins at 3xHxH (H = 64, 100, 224) and ``toy2`` to ``toy7``;
- ``profiles``: ``builtin_profile`` of the three built-ins, and
  ``calibrate`` on ``toy4`` and on each built-in, once from the first and
  last boundaries only and once with a middle boundary measured too.

Only the public API is used, and every input is drawn from a fixed seed.
It takes about 15 s and peaks near 1.1 GB of memory (1112-1116 MB; VGG-16's
weights at 224, dropped before the next network is built) on a 2-vCPU
x86-64 host with one BLAS thread; the ``graph`` and ``profiles`` groups
take about 0.3 s of that. The process's peak RSS (``ru_maxrss``) is printed
on stderr, after the digests on stdout.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys

import numpy as np

import teesplit as ts

NETWORKS = ("vgg16", "resnet50", "efficientnetb0")


def _rng(*salt):
    return np.random.default_rng(ts.mix_seed(*salt))


def _feed(digest, arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    digest.update(repr(arr.shape).encode())
    digest.update(arr.tobytes())


def _engine_groups():
    groups = {name: hashlib.sha256()
              for name in ("forward64", "forward100", "forward224",
                           "boundary64", "gradient64")}
    for size in (64, 100, 224):
        shape = (3, size, size)
        for i, net in enumerate(NETWORKS):
            model = ts.build_architecture(net, input_shape=shape, seed=i)
            x = _rng(size, i).uniform(0.0, 1.0, shape)
            _feed(groups[f"forward{size}"], ts.forward(model, x))
            if size == 64:
                for j, (label, b) in enumerate(model.partition_points):
                    _feed(groups["boundary64"], ts.forward_until(model, x, label))
                    cot = _rng(size, i, j).standard_normal(
                        model.layers[b - 1].output_shape)
                    _feed(groups["gradient64"],
                          ts.input_gradient(model, label, x, cot))
            ts.clear_weight_cache()
    return groups


def _privacy_group():
    digest = hashlib.sha256()
    cfg = ts.AttackConfig(steps=60, step_size=0.05, init_seed=7)
    for seed in (1, 2, 3):
        model = ts.build_toy_cnn(points=4, input_shape=(1, 16, 16), seed=seed)
        images = [_rng(100, seed, k).uniform(0.0, 1.0, model.input_shape)
                  for k in range(2)]
        report = ts.evaluate_privacy(model, images, cfg)
        for label, mean, sims in report.per_point:
            digest.update(f"{label} {mean.hex()} "
                          f"{' '.join(s.hex() for s in sims)}\n".encode())
        ts.clear_weight_cache()
    return digest


def _json(digest, doc):
    digest.update(json.dumps(doc, indent=2).encode() + b"\n")


def _graph_group():
    digest = hashlib.sha256()
    models = [ts.build_architecture(net, input_shape=(3, size, size))
              for size in (64, 100, 224) for net in NETWORKS]
    models += [ts.build_toy_cnn(points=n) for n in range(2, 8)]
    for model in models:
        _json(digest, ts.model_to_json(model))
        for a in ts.enumerate_partitions(model):
            digest.update(f"{a!r}\n".encode())
        for label in model.labels():
            for half in ts.split(model, label):
                _json(digest, ts.model_to_json(half))
    return digest


def _profiles_group():
    digest = hashlib.sha256()
    for net in NETWORKS:
        shipped = ts.builtin_profile(net)
        _json(digest, ts.profile_to_json(shipped))
        model = ts.build_architecture(net)
        totals = [(a.boundary_label, ts.predict(shipped, a).total_seconds)
                  for a in ts.enumerate_partitions(model)]
        first, middle, last = totals[0], totals[len(totals) // 2], totals[-1]
        for picked in ([first, last], [first, middle, last]):
            _json(digest, ts.profile_to_json(ts.calibrate(
                model, picked, shipped.full_enclave_seconds, 0.05)))
    toy = ts.build_toy_cnn(points=4)
    for picked in ([("L1", 0.3), ("L4", 0.9)],
                   [("L1", 0.3), ("L2", 0.45), ("L4", 0.9)]):
        _json(digest, ts.profile_to_json(ts.calibrate(toy, picked, 1.0, 0.05)))
    return digest


def main():
    groups = _engine_groups()
    groups["privacy"] = _privacy_group()
    groups["graph"] = _graph_group()
    groups["profiles"] = _profiles_group()
    for name, digest in groups.items():
        print(f"{name} {digest.hexdigest()}")
    # on stderr, so the digest lines on stdout stay comparable
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.1f} MB (ru_maxrss)", file=sys.stderr)


if __name__ == "__main__":
    main()
