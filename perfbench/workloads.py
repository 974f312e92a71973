"""The benchmark's three closed-loop workloads.

Each workload builds every input from the run's seed, then exposes one
*cycle*: a fixed list of operations that the runner times one after the
other, each issued only when the previous one has returned. Outputs are
kept and checked after timing, against an independent recomputation where
one exists; the runner separately requires every repeat of an operation,
traced or not, to reproduce its first output bit for bit. ``REFERENCE``
names the parts of the host-speed reference routine (``reference.py``)
that match the workload's bottleneck.

- ``privacy_sweep``: ``evaluate_privacy`` on seeded 4-point toy CNNs at
  1x16x16 with the acceptance-gate attack (120 PGD steps, step 0.05). Loads
  ``engine.forward_until``/``input_gradient`` and ``privacy``; bypasses
  ``graph.split``, ``pipeline``, ``costs`` and ``planner``.
- ``forward_224``: warm ``engine.forward`` at 3x224x224 on VGG-16,
  ResNet-50 and EfficientNet-B0, round robin. Loads BLAS-bound ``engine``
  and weight materialization; bypasses ``privacy`` and the split path.
- ``split_sim``: ``simulate_pipeline`` at every boundary of the three
  networks at 3x64x64, serializing each output and ledger, plus one
  ``plan`` per network. Loads ``graph.split``, ``pipeline``, ``costs``,
  ``planner``; bypasses ``privacy``.
"""

import dataclasses
import functools
import os
import statistics
import tempfile
from time import perf_counter

import numpy as np

from teesplit import architectures, costs, engine, graph, pipeline, planner
from teesplit import privacy, tensors

NETWORKS = ("vgg16", "resnet50", "efficientnetb0")

# per-layer metrics only some workloads produce; the others report 0
LAYER_EXTRAS = {
    "privacy.attack.steps": "count",
    "privacy.attack.early_stops": "count",
    "privacy.attack.candidates_per_step": "ratio",
    **{f"costs.mac_share_gap.{net}": "share" for net in NETWORKS},
}


def _rng(seed, *salt):
    return np.random.default_rng(graph.mix_seed(seed, *salt))


def _hex(values):
    return tuple(float(v).hex() for v in values)


def tail(values):
    """(value, percentile): the highest percentile of ``values`` that has at
    least ten samples beyond it; the lowest sample when there are fewer
    than eleven."""
    ordered = sorted(values)
    i = max(len(ordered) - 11, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def _cycle_seconds(records):
    """Total seconds per cycle index, over cycles whose operations all ran."""
    per = {}
    for r in records:
        per.setdefault(r.cycle, []).append(r.seconds)
    width = max(len(v) for v in per.values())
    return [sum(v) for v in per.values() if len(v) == width]


def _materialize(models):
    """Materialize every layer's weights now; returns the seconds taken."""
    t0 = perf_counter()
    for model in models:
        for layer in model.layers:
            engine.layer_weights(layer)
    return perf_counter() - t0


def _non_increasing(losses):
    return all(b <= a for a, b in zip(losses, losses[1:]))


def _fail_key(records, key):
    for r in records:
        if r.key == key:
            r.failed = True


def _first(records, key):
    return next((r for r in records if r.key == key and r.out is not None),
                None)


# ---------------------------------------------------------------------------

class PrivacySweep:
    name = "privacy_sweep"
    REFERENCE = ("blas", "small_conv")   # see reference.py
    MODELS = 4          # (model, image set) pairs, one sweep each per cycle
    IMAGES = 2          # images per sweep: 4 boundaries x 2 = 8 inversions
    SHAPE = (1, 16, 16)
    CHECK_PAIRS = 3     # (boundary, image) pairs re-derived per run

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.cfg = privacy.AttackConfig(steps=120, step_size=0.05,
                                        init_seed=graph.mix_seed(seed, 6))

    def _smooth_image(self, rng):
        # coarse random grid upsampled 4x: smooth targets keep a 120-step
        # attack well conditioned, as in the acceptance gate
        c, h, w = self.SHAPE
        coarse = rng.uniform(0.0, 1.0, size=(c, h // 4, w // 4))
        return np.repeat(np.repeat(coarse, 4, axis=1), 4, axis=2)

    def setup(self):
        engine.clear_weight_cache()
        self.combos = []
        with tempfile.TemporaryDirectory(dir=self.work_dir) as d:
            for k in range(self.MODELS):
                model = architectures.build_toy_cnn(
                    points=4, input_shape=self.SHAPE,
                    seed=graph.mix_seed(self.seed, k))
                rng = _rng(self.seed, 100, k)
                images = []
                for i in range(self.IMAGES):
                    path = os.path.join(d, f"{k}-{i}.pgm")
                    _write_pgm(path, self._smooth_image(rng))
                    images.append(tensors.load_image(path))
                self.combos.append((model, images))
        return {"materialize_s": _materialize(m for m, _ in self.combos)}

    def cycle(self):
        return [(k, functools.partial(self._sweep, k))
                for k in range(len(self.combos))]

    def _sweep(self, k):
        """One evaluate_privacy call. Each inversion it makes is timed, and
        its per-step losses kept, through the on_step hook."""
        model, images = self.combos[k]
        inner = privacy.invert_feature_map
        inversions = []

        def timed_inversion(model, label, exposed, cfg):
            losses = []
            t0 = perf_counter()
            x = inner(model, label, exposed, cfg,
                      lambda step, loss: losses.append(loss))
            inversions.append((label, perf_counter() - t0, losses))
            return x

        privacy.invert_feature_map = timed_inversion
        try:
            report = privacy.evaluate_privacy(model, images, self.cfg)
        finally:
            privacy.invert_feature_map = inner
        return report, inversions

    def fingerprint(self, key, out):
        report, _ = out
        return repr((report.optimal_boundary,
                     [(lab, _hex([m]), _hex(s)) for lab, m, s in report.per_point]))

    def check(self, records):
        for r in records:
            if r.out is not None and not all(
                    _non_increasing(losses) for _, _, losses in r.out[1]):
                r.failed = True
        rng = _rng(self.seed, 7)
        for _ in range(self.CHECK_PAIRS):
            k = int(rng.integers(self.MODELS))
            bi = int(rng.integers(4))
            ii = int(rng.integers(self.IMAGES))
            first = _first(records, k)
            if first is None:
                continue
            model, images = self.combos[k]
            label = model.partition_points[bi][0]
            exposed = engine.forward_until(model, images[ii], label)
            cfg = dataclasses.replace(
                self.cfg, init_seed=graph.mix_seed(self.cfg.init_seed, bi, ii))
            losses = []
            recon = privacy.invert_feature_map(
                model, label, exposed, cfg,
                on_step=lambda step, loss: losses.append(loss))
            score = privacy.ssim(recon, images[ii], privacy.SsimParams())
            reported = first.out[0].per_point[bi][2][ii]
            if score.hex() != reported.hex() or not _non_increasing(losses):
                _fail_key(records, k)

    def unit_times(self, records):
        """Seconds of each (boundary, image) inversion."""
        return [t for r in records if r.out is not None for _, t, _ in r.out[1]]

    def summary(self, records):
        ok = [r for r in records if r.out is not None]
        inv = self.unit_times(records)
        steps = sum(len(losses) for r in ok for _, _, losses in r.out[1])
        sweep_s = statistics.median(r.seconds for r in ok)
        steps_per_s = steps / sum(r.seconds for r in ok)
        tail_s, pct = tail(inv)
        return [
            ("sweep_s", sweep_s, "s", f"median of {len(ok)} evaluate_privacy calls"),
            ("attack_steps_per_s", steps_per_s, "1/s", f"{steps} PGD steps"),
            ("inversion_tail_s", tail_s, "s",
             f"p{pct:.1f} of {len(inv)} (boundary, image) inversions"),
        ]

    def layer_extras(self, traced_cycles):
        """Exact attack counts per cycle from the traced cycles."""
        steps = early = candidates = 0
        for records, rec in traced_cycles:
            for r in records:
                for _, _, losses in (r.out[1] if r.out is not None else ()):
                    steps += len(losses)
                    early += len(losses) < self.cfg.steps
            kids = rec.child_index()
            for i, span in enumerate(rec.spans):
                if span[0] == "privacy.invert_feature_map":
                    # one forward_until scores the start point; the rest
                    # score line-search candidates
                    candidates += sum(
                        rec.spans[j][0] == "engine.forward_until"
                        for j in kids[i]) - 1
        n = len(traced_cycles)
        return {"privacy.attack.steps": (steps / n, "count"),
                "privacy.attack.early_stops": (early / n, "count"),
                "privacy.attack.candidates_per_step":
                    (candidates / steps if steps else 0.0, "ratio")}


def _write_pgm(path, image):
    pixels = np.round(image[0] * 255.0).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h) + pixels.tobytes())


# ---------------------------------------------------------------------------

class Forward224:
    name = "forward_224"
    REFERENCE = ("blas", "memory")
    SHAPE = (3, 224, 224)

    def __init__(self, seed, work_dir):
        self.seed = seed

    def setup(self):
        engine.clear_weight_cache()
        self.models = [architectures.build_architecture(
            net, self.SHAPE, seed=graph.mix_seed(self.seed, 224, i))
            for i, net in enumerate(NETWORKS)]
        self.x = _rng(self.seed, 224).uniform(0.0, 1.0, self.SHAPE)
        return {"materialize_s": _materialize(self.models)}

    def cycle(self):
        return [(net, functools.partial(self._forward, i))
                for i, net in enumerate(NETWORKS)]

    def _forward(self, i):
        return engine.forward(self.models[i], self.x)

    def fingerprint(self, key, out):
        return out.tobytes()

    def check(self, records):
        for r in records:
            if r.out is not None and not np.all(np.isfinite(r.out)):
                r.failed = True

    def unit_times(self, records):
        """Seconds of each forward."""
        return [r.seconds for r in records if r.out is not None]

    def summary(self, records):
        return [(f"forward_p50_s.{net}",
                 statistics.median(r.seconds for r in records
                                   if r.key == net and r.out is not None),
                 "s", "median warm engine.forward at 3x224x224")
                for net in NETWORKS]

    def layer_extras(self, traced_cycles):
        return {}


# ---------------------------------------------------------------------------

class SplitSim:
    name = "split_sim"
    REFERENCE = ("blas", "memory")
    SHAPE = (3, 64, 64)

    def __init__(self, seed, work_dir):
        self.seed = seed

    def setup(self):
        engine.clear_weight_cache()
        self.nets = []
        for i, net in enumerate(NETWORKS):
            model = architectures.build_architecture(
                net, self.SHAPE, seed=graph.mix_seed(self.seed, 64, i))
            labels = model.labels()
            # privacy scores that fall with depth, with seeded noise, so the
            # feasible set differs from seed to seed
            noise = _rng(self.seed, 64, i).normal(0.0, 0.08, len(labels))
            values = np.clip(np.linspace(0.7, 0.05, len(labels)) + noise,
                             0.0, 1.0)
            scores = tuple((lab, float(v)) for lab, v in zip(labels, values))
            self.nets.append((net, model, costs.builtin_profile(net), scores))
        self.x = _rng(self.seed, 64).uniform(0.0, 1.0, self.SHAPE)
        return {"materialize_s": _materialize(m for _, m, _, _ in self.nets)}

    def cycle(self):
        ops = []
        for i, (net, model, _, _) in enumerate(self.nets):
            ops += [((net, label), functools.partial(self._boundary, i, label))
                    for label in model.labels()]
            ops.append(((net, "plan"), functools.partial(self._plan, i)))
        return ops

    def _boundary(self, i, label):
        """One `teesplit simulate --out-tensor --ledger` worth of work."""
        _, model, profile, _ = self.nets[i]
        result = pipeline.simulate_pipeline(model, label, self.x, profile)
        return (result, tensors.tensor_to_bytes(result.output),
                result.ledger.to_csv())

    def _request(self, i):
        net, model, profile, scores = self.nets[i]
        return planner.PlanRequest(
            model_name=net, profile=profile, scores=scores,
            assignments=tuple(graph.enumerate_partitions(model)))

    def _plan(self, i):
        return planner.plan(self._request(i))

    def fingerprint(self, key, out):
        if key[1] == "plan":
            return repr(dataclasses.astuple(out))
        result, blob, csv = out
        return result.output.tobytes() + blob + csv.encode()

    def check(self, records):
        for i, (net, model, _, _) in enumerate(self.nets):
            ref = engine.forward(model, self.x)
            ref_blob = tensors.tensor_to_bytes(ref)
            oracle = repr(dataclasses.astuple(
                planner.brute_force_plan(self._request(i))))
            for r in records:
                if r.key[0] != net or r.out is None:
                    continue
                if r.key[1] == "plan":
                    r.failed |= self.fingerprint(r.key, r.out) != oracle
                    continue
                result, blob, csv = r.out
                r.failed |= not (
                    result.output.tobytes() == ref.tobytes()
                    and blob == ref_blob
                    and result.ledger.crossings("feature_map") == 1
                    and csv.count("\n") == len(result.ledger.events) + 1)

    def unit_times(self, records):
        """Seconds of each single-boundary simulation."""
        return [r.seconds for r in records if r.key[1] != "plan"]

    def summary(self, records):
        passes = _cycle_seconds(records)
        bounds = self.unit_times(records)
        pass_s = statistics.median(passes)
        tail_s, pct = tail(bounds)
        return [
            ("simulate_pass_s", pass_s, "s",
             f"median of {len(passes)} passes over "
             f"{len(bounds) // len(passes)} boundaries plus 3 plans"),
            ("boundary_tail_s", tail_s, "s",
             f"p{pct:.1f} of {len(bounds)} single-boundary simulations"),
        ]

    def layer_extras(self, traced_cycles):
        """Largest gap, over a network's boundaries, between the head's
        measured share of forward time on this host and its MAC share."""
        shares = {}
        for records, rec in traced_cycles:
            kids = rec.child_index()
            sims = [i for i, s in enumerate(rec.spans)
                    if s[0] == "pipeline.simulate_pipeline"]
            keys = [r.key for r in records if r.key[1] != "plan"]
            for key, i in zip(keys, sims):
                head, tail_ = [rec.spans[j][2] - rec.spans[j][1]
                               for j in kids[i]
                               if rec.spans[j][0] == "engine.forward"]
                shares.setdefault(key, []).append(head / (head + tail_))
        out = {}
        for net, model, _, _ in self.nets:
            total = costs.mac_count(model)
            gap = max(abs(statistics.median(shares[(net, label)])
                          - costs.mac_count(model, label) / total)
                      for label in model.labels())
            out[f"costs.mac_share_gap.{net}"] = (gap, "share")
        return out


WORKLOADS = {w.name: w for w in (PrivacySweep, Forward224, SplitSim)}
