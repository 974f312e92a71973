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
    """Attack loss became non-finite; carries the offending step index."""

    def __init__(self, step):
        super().__init__(f"attack loss diverged at step {step}")
        self.step = step


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


def _require_positive(name, value):
    if not (0 < value < np.inf):
        raise PrivacyError(f"{name} must be finite and > 0, got {value!r}")


def gaussian_window(size, sigma):
    """Normalized 2-D Gaussian weights."""
    if size % 2 != 1 or size < 3:
        raise PrivacyError(f"window size must be odd and >= 3, got {size}")
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
    w = gaussian_window(params.window_size, params.sigma)
    if a.shape[1] < params.window_size or a.shape[2] < params.window_size:
        raise PrivacyError(
            f"spatial extent {a.shape[1:]} below window size {params.window_size}")
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


def invert_feature_map(model, boundary_label, exposed, cfg=AttackConfig(),
                       on_step=None):
    """Reconstruct a plausible input whose boundary activation matches the
    exposed feature map.

    Deterministic given the config seed. ``on_step(step, loss)`` is invoked
    after every iteration when provided, inside the attack's
    ``np.errstate(over="ignore", invalid="ignore")``. Raises PrivacyError
    for a malformed config, before any work, and InversionDivergenceError
    if the loss turns non-finite.
    """
    b = model.boundary_of(boundary_label)
    target = require_tensor(exposed, shape=model.layers[b - 1].output_shape,
                            name="exposed feature map")
    try:
        lo, hi = cfg.pixel_bounds
        seed = _index(cfg.init_seed)
        ok = -np.inf < lo < hi < np.inf and seed >= 0
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise PrivacyError(f"attack needs finite increasing pixel bounds and "
                           f"an integer init seed >= 0, got "
                           f"{cfg.pixel_bounds!r}, {cfg.init_seed!r}")
    try:
        steps = _index(cfg.steps)
    except TypeError:
        steps = 0
    if steps < 1 or not (0 < cfg.step_size < np.inf):
        raise PrivacyError(f"attack needs integer steps >= 1 and a finite step "
                           f"size > 0, got {cfg.steps!r}, {cfg.step_size!r}")
    # the prefix bound once; the accepted point x lives outside it, and each
    # candidate is written into the arena's input and run there
    arena = engine._arena(model, boundary_label)
    x = np.random.default_rng(seed).uniform(lo, hi, model.input_shape)
    np.copyto(arena.x, x)
    # diff holds feat - target of the last run, whose square sq sums to the loss
    diff, sq = np.empty(target.shape), np.empty(target.shape)

    def loss_of():
        arena.run()
        np.subtract(arena.feat, target, out=diff)
        return float(np.add.reduce(np.square(diff, out=sq), None))

    # overflow in the attack is the divergence signal, not an anomaly: every
    # non-finite loss, activation or gradient raises
    with np.errstate(over="ignore", invalid="ignore"):
        loss = loss_of()
        if not math.isfinite(loss):
            raise InversionDivergenceError(0)
        step_size = cfg.step_size
        stale = 0  # steps taken since the last accepted one
        for step in range(1, cfg.steps + 1):
            # the arena holds the accepted point's activations, and diff its
            # residual, at step 1 and after an accepted step. A step is
            # refused only once step_size is at the floor, where it stays,
            # so no later step moves x, runs a candidate or needs a new
            # gradient
            if stale == 0:
                np.multiply(diff, 2.0, out=arena.cot)
                grad = arena.gradient()
            stale += 1
            while step_size > 1e-14:
                # arena.x = clip(x - step_size * grad)
                np.multiply(grad, step_size, out=arena.x)
                np.subtract(x, arena.x, out=arena.x)
                arena.x.clip(lo, hi, out=arena.x)
                cand_loss = loss_of()
                if not math.isfinite(cand_loss):
                    raise InversionDivergenceError(step)
                if cand_loss <= loss:
                    np.copyto(x, arena.x)
                    loss, stale = cand_loss, 0
                    break
                step_size *= 0.5
            if on_step is not None:
                on_step(step, loss)
            if stale >= 20:
                break
    return x


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
    if not (threshold > 0):
        raise PrivacyError("threshold must be positive")
    if not (slack >= 0):
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
    ``bi``-th partition point; image ``ii`` is attacked from the seed
    ``mix_seed(cfg.init_seed, bi, ii)``."""
    label = model.partition_points[bi][0]
    sims = []
    # module-global lookups, so a wrapper set on this module sees each call
    for ii, img in enumerate(images):
        exposed = engine.forward_until(model, img, label)
        sub = replace(cfg, init_seed=mix_seed(cfg.init_seed, bi, ii))
        recon = invert_feature_map(model, label, exposed, sub)
        sims.append(ssim(recon, img))
    return tuple(sims)


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
