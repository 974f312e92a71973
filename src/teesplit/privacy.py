"""Reconstruction-risk scoring for exposed feature maps.

An adversary holding the accelerator-side partition sees the feature map
that crosses the trust boundary. The attack here inverts it: starting from
random pixels, projected gradient descent drives the enclave prefix's
output toward the captured map, keeping pixels inside their bounds and
halving the step whenever a move would increase the loss (so the loss trace
never increases). Reconstruction quality is scored with mean structural
similarity over a sliding Gaussian window; low similarity at a boundary
means the exposed map reveals little about the input.

The partition selection rule follows the similarity curve across boundary
depth: pick the earliest boundary whose score is at or below the threshold
provided every deeper score stays within a small slack of the threshold, so
one dip followed by a clear rise does not count as private.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import engine
from .graph import _index, mix_seed
from .tensors import TeesplitError, csv_column, csv_text, require_tensor

DEFAULT_THRESHOLD = 0.2
DEFAULT_SLACK = 0.05


class PrivacyError(TeesplitError, ValueError):
    """Raised for invalid similarity or attack inputs."""


class InversionDivergenceError(TeesplitError, RuntimeError):
    """Attack loss became non-finite; carries the offending step index, and
    the boundary label and index in its stack (0 for a single map; in
    ``evaluate_privacy``, in its images) of the image whose loss it was."""

    def __init__(self, step, image, boundary):
        super().__init__(f"attack loss of image {image} at boundary "
                         f"{boundary!r} diverged at step {step}")
        self.step = step
        self.image = image
        self.boundary = boundary


@dataclass(frozen=True)
class SsimParams:
    window_size: int = 11
    sigma: float = 1.5
    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: float = 1.0


@dataclass(frozen=True)
class AttackConfig:
    steps: int = 2000
    step_size: float = 0.05
    init_seed: int = 0
    pixel_bounds: tuple = (0.0, 1.0)


@dataclass(frozen=True)
class PrivacyReport:
    model_name: str
    per_point: tuple  # (boundary_label, mean_ssim, per_sample_ssim tuple)
    threshold: float
    optimal_boundary: str | None

    def labels(self):
        return [lab for lab, _, _ in self.per_point]


def _check(test, value, message):
    """``value``, if ``test(value)`` holds; PrivacyError(message) if not,
    or if the test cannot compare ``value`` (a string, None, an array)."""
    try:
        ok = bool(test(value))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise PrivacyError(message)
    return value


def _window_size(size):
    """``size`` as an int, if it is an odd integer >= 3."""
    return _index(_check(lambda v: _index(v) % 2 == 1 and _index(v) >= 3,
                         size, f"window size must be an odd integer >= 3, "
                               f"got {size!r}"))


def _require_positive(name, value):
    _check(lambda v: 0 < v < np.inf, value,
           f"{name} must be finite and > 0, got {value!r}")


def gaussian_window(size, sigma):
    """Normalized 2-D Gaussian weights."""
    size = _window_size(size)
    _require_positive("sigma", sigma)
    r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(r ** 2) / (2.0 * sigma ** 2))
    w = np.outer(g, g)
    return w / w.sum()


def ssim(a, b, params=SsimParams()):
    """Mean structural similarity between two channels-first images.

    Local statistics are taken under a sliding Gaussian window at every
    fully-inside position, per channel, and the per-window similarity is
    averaged over positions and channels. The value is reported as computed
    and may be negative for anticorrelated structure.
    """
    a = require_tensor(a, name="first image")
    b = require_tensor(b, shape=a.shape, name="second image")
    if a.ndim != 3:
        raise PrivacyError("images must be C x H x W")
    for name in ("sigma", "k1", "k2", "dynamic_range"):
        _require_positive(name, getattr(params, name))
    span = params.dynamic_range
    eps = 1e-12
    if a.min() < -eps or a.max() > span + eps or b.min() < -eps or b.max() > span + eps:
        raise PrivacyError(f"image values must lie within [0, {span}]")
    k = _window_size(params.window_size)
    if a.shape[1] < k or a.shape[2] < k:  # before the window is built
        raise PrivacyError(f"spatial extent {a.shape[1:]} below window size {k}")
    w = gaussian_window(k, params.sigma)
    c1 = (params.k1 * span) ** 2
    c2 = (params.k2 * span) ** 2

    win_a = sliding_window_view(a, w.shape, axis=(1, 2))
    win_b = sliding_window_view(b, w.shape, axis=(1, 2))
    mu_a = np.einsum("cyxij,ij->cyx", win_a, w)
    mu_b = np.einsum("cyxij,ij->cyx", win_b, w)
    da = win_a - mu_a[..., None, None]
    db = win_b - mu_b[..., None, None]
    var_a = np.einsum("cyxij,cyxij,ij->cyx", da, da, w)
    var_b = np.einsum("cyxij,cyxij,ij->cyx", db, db, w)
    cov = np.einsum("cyxij,cyxij,ij->cyx", da, db, w)
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


# prefix activations one attack arena may bind, each map counting those of
# its own boundary: maps beyond it are attacked in the next arena, one
# arena after another
_ARENA_BYTES = 64 << 20
# and an arena over several boundaries binds at most this: sharing each
# layer's ops saves their fixed cost, which pays only while the rows are
# few. On toy4 at 16x16 (run plus gradient over four boundaries, best of
# five 300-pass loops, one BLAS thread, 2-vCPU x86-64), one arena took
# 401-451 us against 451-494 us for four at 2 rows each, 603-607 against
# 601-610 at 3 and 2235-2300 against 1855-1929 at 10
_RAGGED_BYTES = 1 << 19


def _activation_bytes(model, b):
    """Bytes of one image's input and layer outputs up to layer ``b``: its
    share of an arena's activations, before pooling."""
    return 8 * (math.prod(model.input_shape) + sum(
        math.prod(layer.output_shape) for layer in model.layers[:b]))


def _pack(model, bs, counts):
    """Arenas for counts[j] maps at each boundary bs[j]: lists of rows,
    (boundary, j, image index), deepest boundary first, each filled in turn
    while its maps' activations, each map's of its own prefix, fit
    ``_ARENA_BYTES``, or ``_RAGGED_BYTES`` once it holds several
    boundaries; at least one map per arena."""
    arenas, held = [], 0
    for row in sorted(((b, j, i) for j, (b, n) in enumerate(zip(bs, counts))
                       for i in range(n)), key=lambda r: -r[0]):
        cost = _activation_bytes(model, row[0])
        cap = (_ARENA_BYTES if arenas and arenas[-1][0][0] == row[0]
               else _RAGGED_BYTES)
        if not arenas or held + cost > cap:
            arenas.append([])
            held = 0
        arenas[-1].append(row)
        held += cost
    return arenas


def invert_feature_map(model, boundary_label, exposed, cfg=AttackConfig(),
                       on_step=None):
    """Reconstruct a plausible input whose boundary activation matches the
    exposed feature map.

    ``exposed`` is one map, with ``cfg.init_seed`` one seed. Or
    ``boundary_label`` is a nonempty tuple of distinct labels, ``exposed`` a
    tuple of stacks of maps on a new leading axis, one per label, and
    ``cfg.init_seed`` a tuple of seed tuples, one per stack; the result is
    then a tuple of stacks. The maps are laid out deepest boundary first in
    one bound prefix (``engine._arena``), each map running its own prefix,
    so a call binds every map it is given at once: ``evaluate_privacy``
    hands it one arena of its maps at a time. Each map's reconstruction is
    bitwise the one a call with that map and its seed alone returns.
    Deterministic given the config seed. Once every map's attack has
    stopped, ``on_step(step, loss)`` is invoked for each step taken when
    provided, inside the attack's ``np.errstate(over="ignore",
    invalid="ignore")``; for several maps, ``loss`` is their losses summed
    in argument order (labels, then stack order), a stopped map's last one
    included. Raises PrivacyError for a malformed config, before any work,
    and InversionDivergenceError, naming the step, the map's boundary and
    its index in its stack, if a loss turns non-finite.
    """
    many = isinstance(boundary_label, tuple)
    labels = boundary_label if many else (boundary_label,)
    bs = [model.boundary_of(label) for label in labels]
    stacks = exposed if many else (np.asarray(exposed)[None],)
    if not isinstance(stacks, tuple) or len(stacks) != len(bs):
        raise PrivacyError(f"attack needs a tuple of one stack of maps per "
                           f"label, got {type(exposed).__name__}")
    targets = [require_tensor(t, name="exposed feature map", shape=np.shape(
        t)[:1] + model.layers[b - 1].output_shape) for t, b in zip(stacks, bs)]
    try:
        lo, hi = cfg.pixel_bounds
        seeds = [[_index(s) for s in group] for group in (
            cfg.init_seed if many else ((cfg.init_seed,),))]
        ok = (-np.inf < lo < hi < np.inf and _index(cfg.steps) >= 1
              and 0 < cfg.step_size < np.inf
              and 1 <= len(seeds) == len(bs) == len(set(bs))
              and all(len(group) == len(t) >= 1 and min(group) >= 0
                      for group, t in zip(seeds, targets)))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise PrivacyError(f"attack needs integer steps >= 1, a finite step "
                           f"size > 0, finite increasing pixel bounds, "
                           f"distinct labels and an integer init seed >= 0 "
                           f"per map, got {boundary_label!r}, {cfg!r}")
    rows = sorted(((b, j, i) for j, (b, t) in enumerate(zip(bs, targets))
                   for i in range(len(t))), key=lambda r: -r[0])
    xs = [np.empty((len(t),) + model.input_shape) for t in targets]
    # overflow in the attack is the divergence signal, not an anomaly: every
    # non-finite loss, activation or gradient raises
    with np.errstate(over="ignore", invalid="ignore"):
        history = _descend(model, labels, rows, targets, seeds, xs, cfg,
                           _index(cfg.steps))
        if on_step is not None:
            order = sorted(range(len(rows)), key=lambda p: rows[p][1:])
            for step, losses in enumerate(history, 1):
                on_step(step, sum(losses[p] for p in order))
    return tuple(xs) if many else xs[0][0]


def _descend(model, labels, rows, targets, seeds, xs, cfg, steps):
    """The attack on the maps ``rows``, (boundary, label index, image index)
    deepest boundary first, of ``targets``, each from its seed in
    ``seeds``, over one arena; each map's accepted point goes to its row of
    ``xs`` once the attack stops. Returns the maps' losses after each step
    taken."""
    n = len(rows)
    # a -0.0 bound becomes +0.0, so neither a start (lo + range * u) nor a
    # clipped pixel is ever -0.0, and x - d is -0.0 only when x is
    lo, hi = (bound + 0.0 for bound in cfg.pixel_bounds)
    # one run of rows per boundary, a label's consecutive images
    runs = [list(run) for _, run in itertools.groupby(rows, lambda r: r[0])]
    x = np.empty((n,) + model.input_shape)
    for row, (_, j, i) in zip(x, rows):
        row[...] = np.random.default_rng(seeds[j][i]).uniform(lo, hi, row.shape)
    # the prefixes bound once over all n maps; the accepted points x live
    # outside it, and each candidate is written into its row of the arena's
    # input and run there. A row not searching gets its x again, so a
    # re-run gives it the same activations, residual and loss
    arena = engine._arena(model, tuple((labels[run[0][1]], len(run))
                                       for run in runs))
    np.copyto(arena.x, x)
    # per boundary: its maps' targets, and diff, feat - target of the last
    # run, whose square sq sums, row by row, to each map's loss
    parts = [(targets[run[0][1]][run[0][2]:run[-1][2] + 1],
              np.empty(feat.shape), np.empty(feat.shape), feat, cot)
             for run, feat, cot in zip(runs, arena.feats, arena.cots)]

    def losses_of(step):
        # a row not searching re-runs its accepted point
        arena.run()
        got = []
        for target, diff, sq, feat, _ in parts:
            np.subtract(feat, target, out=diff)
            np.square(diff, out=sq)
            got += np.add.reduce(sq.reshape(len(sq), -1), axis=1).tolist()
        for (_, j, i), value in zip(rows, got):
            if not math.isfinite(value):
                raise InversionDivergenceError(step, i, labels[j])
        return got

    # this round's step of each map, and the same values over an input
    round_steps = np.empty(n)
    per_x = round_steps.reshape((n,) + (1,) * (x.ndim - 1))
    loss = losses_of(0)
    sizes = [cfg.step_size] * n  # each map's step size
    stale = [0] * n  # steps taken since the last accepted one
    history, refused = [], []
    for step in range(1, steps + 1):
        # a step is refused only once the map's step size is at the floor,
        # where it stays, so no later step moves its x or runs a candidate:
        # a map that has stopped after 20 stale steps is left as it is while
        # the others go on. A gradient is taken when a map's x has moved
        # (and at step 1), over every row's accepted point: its input,
        # activations and residual. A row at the floor gets the gradient it
        # got when its x was accepted, finite then, and never reads it
        if 0 in stale:
            if refused:  # their rows last ran refused candidates
                np.copyto(arena.x, x)
                losses_of(step)
            for _, diff, _, _, cot in parts:
                np.multiply(diff, 2.0, out=cot)
            grad = arena.gradient()
        stale = [k + 1 for k in stale]
        refused = []
        while True:
            moving = [size if k and size > 1e-14 else 0.0
                      for size, k in zip(sizes, stale)]
            if not any(moving):
                break
            # arena.x = clip(x - step size * grad); a row not searching
            # moves by a step of 0, which leaves its x as it is, bit for
            # bit: the finite grad * 0 is +-0.0, and x holds no -0.0, the
            # one value that subtracting -0.0 or clipping would change
            round_steps[:] = moving
            np.multiply(grad, per_x, out=arena.x)
            np.subtract(x, arena.x, out=arena.x)
            arena.x.clip(lo, hi, out=arena.x)
            cand = losses_of(step)
            for i, size in enumerate(moving):
                if not size:
                    continue
                if cand[i] <= loss[i]:
                    x[i] = arena.x[i]
                    loss[i], stale[i] = cand[i], 0
                else:
                    sizes[i] *= 0.5
                    if sizes[i] <= 1e-14:
                        refused.append(i)
        history.append(list(loss))
        if min(stale) >= 20:
            break
    for row, (_, j, i) in zip(x, rows):
        xs[j][i] = row
    return history


def feasible_boundaries(values, threshold, slack):
    """One flag per boundary, in depth order: True when its score is at or
    below the threshold and every deeper score is within threshold + slack."""
    flags = []
    worst_after = -np.inf
    for value in reversed([float(v) for v in values]):
        flags.append(value <= threshold and worst_after <= threshold + slack)
        # accumulator first: a NaN score never becomes the running maximum
        worst_after = max(worst_after, value)
    return flags[::-1]


def _check_rule(threshold, slack):
    _check(lambda v: v > 0, threshold, "threshold must be positive")
    _check(lambda v: v >= 0, slack, "slack must be non-negative")


def select_optimal_partition(scores, threshold, slack=DEFAULT_SLACK):
    """Earliest boundary whose score is at or below the threshold with every
    later score within threshold + slack; None when no boundary qualifies.

    ``scores`` is an ordered sequence of (boundary_label, mean_ssim).
    """
    if not scores:
        raise PrivacyError("no scores to select from")
    _check_rule(threshold, slack)
    flags = feasible_boundaries([s for _, s in scores], threshold, slack)
    return next((label for (label, _), ok in zip(scores, flags) if ok), None)


def _scores(model, bis, images, cfg):
    """Per-image similarity of the attack's reconstructions at each of the
    model's partition points ``bis``, as one tuple per point. The maps are
    attacked in one ``invert_feature_map`` call per arena (``_pack``), its
    rows' maps stacked per point, in point order, so only one arena's maps
    and reconstructions are held at a time; image ``ii`` at point ``bi`` is
    attacked from the seed ``mix_seed(cfg.init_seed, bi, ii)``, and a
    divergence names ``ii``."""
    if not images:
        raise PrivacyError("need at least one image")
    labels = [model.partition_points[bi][0] for bi in bis]
    sims = [[None] * len(images) for _ in labels]
    for rows in _pack(model, [model.boundary_of(label) for label in labels],
                      [len(images)] * len(labels)):
        js = sorted({j for _, j, _ in rows})
        held = [[i for _, k, i in rows if k == j] for j in js]
        group = tuple(labels[j] for j in js)
        # module-global lookups, so a wrapper set on this module sees each call
        stacks = tuple(np.stack([engine.forward_until(model, images[i], lab)
                                 for i in ii]) for lab, ii in zip(group, held))
        seeds = tuple(tuple(mix_seed(cfg.init_seed, bis[j], i) for i in ii)
                      for j, ii in zip(js, held))
        try:
            recons = invert_feature_map(model, group, stacks,
                                        replace(cfg, init_seed=seeds))
        except InversionDivergenceError as exc:
            raise InversionDivergenceError(
                exc.step, held[group.index(exc.boundary)][exc.image],
                exc.boundary) from None
        for j, ii, rs in zip(js, held, recons):
            for i, r in zip(ii, rs):
                sims[j][i] = ssim(r, images[i])
    return [tuple(s) for s in sims]


def score_boundary(model, bi, images, cfg):
    """Per-image similarity of the attack's reconstructions at the model's
    ``bi``-th partition point, as ``evaluate_privacy`` scores it."""
    return _scores(model, (bi,), images, cfg)[0]


def evaluate_privacy(model, images, cfg=AttackConfig(),
                     threshold=DEFAULT_THRESHOLD, slack=DEFAULT_SLACK):
    """Attack every partition point of the model over a set of images.

    Run the enclave prefix on each image at every boundary, invert the
    exposed maps one arena at a time, each from a per-image seed derived
    from the config seed and the boundary, and score each reconstruction
    against its original. Returns the report with the threshold-rule
    optimal boundary (None when nothing qualifies).
    """
    _check_rule(threshold, slack)  # before the attacks, not after them
    imgs = [require_tensor(im, shape=model.input_shape, name="image")
            for im in images]
    labels = model.labels()
    sims = _scores(model, range(len(labels)), imgs, cfg)
    per_point = tuple((label, float(np.mean(s)), s)
                      for label, s in zip(labels, sims))
    optimal = select_optimal_partition([(lab, m) for lab, m, _ in per_point],
                                       threshold, slack)
    return PrivacyReport(model_name=model.name, per_point=per_point,
                         threshold=threshold, optimal_boundary=optimal)


# ---------------------------------------------------------------------------
# CSV round trip

def report_to_csv(report):
    return csv_text(
        ["boundary", "label", "mean_ssim", "n_samples", "below_threshold"],
        ([i, label, mean, len(samples), int(mean <= report.threshold)]
         for i, (label, mean, samples) in enumerate(report.per_point, start=1)))


def scores_from_csv(text):
    """(label, mean_ssim) rows from a privacy report CSV, in file order."""
    out = csv_column(text, "mean_ssim", PrivacyError,
                     "malformed privacy report row")
    if not out:
        raise PrivacyError("privacy report is empty")
    if not all(np.isfinite(s) for _, s in out):
        raise PrivacyError("privacy report scores must be finite")
    return out
