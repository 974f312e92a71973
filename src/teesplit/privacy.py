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

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import engine
from .graph import _index, mix_seed
from .tensors import csv_text, require_tensor

DEFAULT_THRESHOLD = 0.2
DEFAULT_SLACK = 0.05


class PrivacyError(ValueError):
    """Raised for invalid similarity or attack inputs."""


class InversionDivergenceError(RuntimeError):
    """Attack loss became non-finite; carries the offending step index and
    the index of the image (0 for a single map) whose loss it was."""

    def __init__(self, step, image=0):
        super().__init__(
            f"attack loss of image {image} diverged at step {step}")
        self.step = step
        self.image = image


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


def _holds(test, value):
    """``test(value)``, False where comparing ``value`` raises (a string,
    None, an array)."""
    try:
        return bool(test(value))
    except (TypeError, ValueError):
        return False


def _require_positive(name, value):
    if not _holds(lambda v: 0 < v < np.inf, value):
        raise PrivacyError(f"{name} must be finite and > 0, got {value!r}")


def _window_size(size):
    """``size`` as an int, if it is an odd integer >= 3."""
    try:
        k = _index(size)
    except TypeError:
        k = 0
    if k % 2 != 1 or k < 3:
        raise PrivacyError(f"window size must be an odd integer >= 3, "
                           f"got {size!r}")
    return k


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


# activations one attack arena may bind: a stack whose prefix activations
# exceed it is attacked in consecutive arenas of as many whole maps as fit
_ARENA_BYTES = 64 << 20


def _activation_bytes(model, b):
    """Bytes of one image's input and layer outputs up to layer ``b``: its
    share of an arena's activations, before pooling."""
    return 8 * (math.prod(model.input_shape) + sum(
        math.prod(layer.output_shape) for layer in model.layers[:b]))


def invert_feature_map(model, boundary_label, exposed, cfg=AttackConfig(),
                       on_step=None):
    """Reconstruct a plausible input whose boundary activation matches the
    exposed feature map.

    ``exposed`` is one map, or a stack of N maps on a new leading axis with
    ``cfg.init_seed`` a tuple of N seeds; the result has the same leading
    shape. A stack's maps are attacked together, over one bound prefix of
    as many whole maps as ``_ARENA_BYTES`` holds (at least one; the arenas
    run one after another), and each map's reconstruction is bitwise the
    one a call with that map and its seed alone returns. Deterministic
    given the config seed. Once every map's attack has stopped,
    ``on_step(step, loss)`` is invoked for each step taken when provided,
    inside the attack's ``np.errstate(over="ignore", invalid="ignore")``;
    for a stack, ``loss`` is the maps' losses summed in stack order, a
    stopped map's last one included. Raises PrivacyError for a malformed
    config, before any work, and InversionDivergenceError, naming the step
    and the map's index, if a loss turns non-finite (in a stack of several
    arenas, the first arena's to diverge).
    """
    b = model.boundary_of(boundary_label)
    shape = model.layers[b - 1].output_shape
    stacked = np.ndim(exposed) == len(shape) + 1
    target = require_tensor(exposed, name="exposed feature map",
                            shape=np.shape(exposed)[:int(stacked)] + shape)
    if not stacked:
        target = target[None]
    n = len(target)
    try:
        lo, hi = cfg.pixel_bounds
        seeds = [_index(s) for s in (cfg.init_seed if stacked
                                     else (cfg.init_seed,))]
        ok = -np.inf < lo < hi < np.inf and len(seeds) == n >= 1 and all(
            s >= 0 for s in seeds)
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise PrivacyError(f"attack needs finite increasing pixel bounds and "
                           f"an integer init seed >= 0 per map, got "
                           f"{cfg.pixel_bounds!r}, {cfg.init_seed!r}")
    try:
        steps = _index(cfg.steps)
    except TypeError:
        steps = 0
    if steps < 1 or not _holds(lambda v: 0 < v < np.inf, cfg.step_size):
        raise PrivacyError(f"attack needs integer steps >= 1 and a finite step "
                           f"size > 0, got {cfg.steps!r}, {cfg.step_size!r}")
    per = max(1, _ARENA_BYTES // _activation_bytes(model, b))
    x = np.empty((n,) + model.input_shape)
    # overflow in the attack is the divergence signal, not an anomaly: every
    # non-finite loss, activation or gradient raises
    with np.errstate(over="ignore", invalid="ignore"):
        # each arena's maps' losses after each of its steps
        runs = [_descend(model, boundary_label, target[i:i + per],
                         seeds[i:i + per], x[i:i + per], cfg, steps, i)
                for i in range(0, n, per)]
        if on_step is not None:
            for step in range(1, max(map(len, runs)) + 1):
                on_step(step, sum(loss for run in runs
                                  for loss in run[min(step, len(run)) - 1]))
    return x if stacked else x[0]


def _descend(model, boundary_label, target, seeds, x, cfg, steps, first):
    """The attack on the maps ``target``, from the seeds ``seeds``, over one
    arena, its accepted points written into ``x``; the first map is image
    ``first`` of the caller's stack. Returns the maps' losses after each
    step taken."""
    n = len(target)
    # a -0.0 bound becomes +0.0, so neither a start (lo + range * u) nor a
    # clipped pixel is ever -0.0, and x - d is -0.0 only when x is
    lo, hi = (bound + 0.0 for bound in cfg.pixel_bounds)
    for row, seed in zip(x, seeds):
        row[...] = np.random.default_rng(seed).uniform(lo, hi, row.shape)
    # the prefix bound once over all n maps; the accepted points x live
    # outside it, and each candidate is written into its row of the arena's
    # input and run there. A row not searching gets its x again, so a
    # re-run gives it the same activations, residual and loss
    arena = engine._arena(model, boundary_label, n)
    np.copyto(arena.x, x)
    # diff holds feat - target of the last run, whose square sq sums, row by
    # row, to each map's loss
    diff, sq = np.empty(target.shape), np.empty(target.shape)
    rows = sq.reshape(n, -1)

    def losses_of(step):
        # a row not searching re-runs its accepted point
        arena.run()
        np.subtract(arena.feat, target, out=diff)
        np.square(diff, out=sq)
        got = np.add.reduce(rows, axis=1).tolist()
        for i, value in enumerate(got):
            if not math.isfinite(value):
                raise InversionDivergenceError(step, first + i)
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
            np.multiply(diff, 2.0, out=arena.cot)
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
    if not _holds(lambda v: v > 0, threshold):
        raise PrivacyError("threshold must be positive")
    if not _holds(lambda v: v >= 0, slack):
        raise PrivacyError("slack must be non-negative")


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


def score_boundary(model, bi, images, cfg):
    """Per-image similarity of the attack's reconstructions at the model's
    ``bi``-th partition point. The images' exposed maps are attacked as one
    stack, in one ``invert_feature_map`` call; image ``ii`` is attacked
    from the seed ``mix_seed(cfg.init_seed, bi, ii)``."""
    if not images:
        raise PrivacyError("need at least one image")
    label = model.partition_points[bi][0]
    maps = np.empty((len(images),)
                    + model.layers[model.boundary_of(label) - 1].output_shape)
    # module-global lookups, so a wrapper set on this module sees each call
    for row, img in zip(maps, images):
        row[...] = engine.forward_until(model, img, label)
    seeds = tuple(mix_seed(cfg.init_seed, bi, ii) for ii in range(len(images)))
    recons = invert_feature_map(model, label, maps, replace(cfg, init_seed=seeds))
    return tuple(ssim(recon, img) for recon, img in zip(recons, images))


def evaluate_privacy(model, images, cfg=AttackConfig(),
                     threshold=DEFAULT_THRESHOLD, slack=DEFAULT_SLACK):
    """Attack every partition point of the model over a set of images.

    Per boundary: run the enclave prefix on each image, invert the exposed
    map from a per-image seed derived from the config seed, and score the
    reconstruction against the original. Returns the report with the
    threshold-rule optimal boundary (None when nothing qualifies).
    """
    if not images:
        raise PrivacyError("need at least one image")
    _check_rule(threshold, slack)  # before the attacks, not after them
    imgs = [require_tensor(im, shape=model.input_shape, name="image")
            for im in images]
    per_point = []
    for bi, (label, _) in enumerate(model.partition_points):
        sims = score_boundary(model, bi, imgs, cfg)
        per_point.append((label, float(np.mean(sims)), sims))
    optimal = select_optimal_partition([(lab, m) for lab, m, _ in per_point],
                                       threshold, slack)
    return PrivacyReport(model_name=model.name, per_point=tuple(per_point),
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
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise PrivacyError("privacy report is empty")
    out = []
    try:
        for row in rows:
            out.append((row["label"], float(row["mean_ssim"])))
    except (KeyError, TypeError, ValueError):
        raise PrivacyError("malformed privacy report row") from None
    if not all(np.isfinite(s) for _, s in out):
        raise PrivacyError("privacy report scores must be finite")
    return out
