"""Runtime cost model for partitioned inference.

A profile stores, per partition point, the enclave time for the prefix and
the accelerator time for the suffix, plus an affine transfer model over the
exposed feature map's byte size. Predicted total = enclave prefix + transfer
+ accelerator suffix; speedup is measured against running everything inside
the enclave.

Calibration takes measured end-to-end totals at a subset of boundaries
(first and last at minimum). The accelerator suffix is modeled proportional
to the suffix's multiply-accumulate count scaled to the full-accelerator
runtime; enclave prefixes at measured boundaries are then fixed so predict
reproduces each measured total exactly, and prefixes at unmeasured
boundaries are interpolated between the surrounding measured ones
proportionally to cumulative MAC counts. Enclave time in practice is far
from MAC-proportional globally (tail layers pay heavy paging costs), which
is why measured anchors are honored exactly and MACs only steer the
in-between fill.

Shipped profiles for the built-in architectures are assembled the same way
from their published endpoint runtimes, with transfer coefficients spanning
0.02 s for the smallest exposed map to 0.1 s for the largest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .architectures import build_architecture
from .graph import CONV, DWCONV, FC, enumerate_partitions

TRANSFER_CLAMP = (0.02, 0.1)

# published endpoint runtimes: full-enclave seconds and (label, total seconds)
# anchors for the partitioned run
_BUILTIN_ANCHORS = {
    "vgg16": (4.2, (("Layer 8", 1.4),)),
    "resnet50": (4.02, (("Layer 3", 3.04), ("Layer 4", 3.6))),
    "efficientnetb0": (3.7, (("Layer 4", 2.5),)),
}
_DEFAULT_ACCELERATOR_SECONDS = 0.05


class CalibrationError(ValueError):
    """Raised for unusable measurements or an inconsistent profile."""


@dataclass(frozen=True)
class PointCost:
    boundary_label: str
    enclave_prefix_seconds: float
    accelerator_suffix_seconds: float


@dataclass(frozen=True)
class TransferModel:
    base_seconds: float
    seconds_per_byte: float
    clamp: tuple | None = None

    def seconds_for(self, nbytes):
        t = self.base_seconds + self.seconds_per_byte * nbytes
        if self.clamp is not None:
            t = min(max(t, self.clamp[0]), self.clamp[1])
        return t


@dataclass(frozen=True)
class CostProfile:
    model_name: str
    full_enclave_seconds: float
    full_accelerator_seconds: float
    per_point: tuple
    transfer: TransferModel

    def point(self, boundary_label):
        for pt in self.per_point:
            if pt.boundary_label == boundary_label:
                return pt
        raise CalibrationError(f"profile for {self.model_name!r} has no "
                               f"boundary {boundary_label!r}")

    def labels(self):
        return [pt.boundary_label for pt in self.per_point]


@dataclass(frozen=True)
class RuntimeBreakdown:
    boundary_label: str
    enclave_seconds: float
    transfer_seconds: float
    accelerator_seconds: float
    total_seconds: float
    speedup_vs_full_enclave: float


def validate_profile(profile):
    tm = profile.transfer
    if tm.clamp is not None and len(tm.clamp) != 2:
        raise CalibrationError("transfer clamp must be a (low, high) pair")
    numbers = [profile.full_enclave_seconds, profile.full_accelerator_seconds,
               tm.base_seconds, tm.seconds_per_byte, *(tm.clamp or ()),
               *(t for pt in profile.per_point for t in (
                   pt.enclave_prefix_seconds, pt.accelerator_suffix_seconds))]
    if not all(math.isfinite(v) for v in numbers):
        raise CalibrationError("profile numbers must be finite")
    if tm.clamp is not None and tm.clamp[0] > tm.clamp[1]:
        raise CalibrationError("transfer clamp low end exceeds its high end")
    if profile.full_enclave_seconds <= 0 or profile.full_accelerator_seconds < 0:
        raise CalibrationError("profile runtimes must be positive")
    if not profile.per_point:
        raise CalibrationError("profile has no partition points")
    prev = 0.0
    for pt in profile.per_point:
        if pt.enclave_prefix_seconds < prev:
            raise CalibrationError(
                f"enclave prefix time decreases at {pt.boundary_label!r}")
        if pt.accelerator_suffix_seconds < 0:
            raise CalibrationError(
                f"negative accelerator time at {pt.boundary_label!r}")
        prev = pt.enclave_prefix_seconds
    return profile


def mac_count(model, up_to_boundary=None):
    """Multiply-accumulate count of the enclave prefix (or the whole model).

    Convention: a convolution counts one MAC per kernel tap per output
    element (per input channel for dense convs, per channel for depthwise),
    a fully connected layer counts inputs x outputs, and every other kind
    counts one operation per output element.
    """
    if up_to_boundary is None:
        hi = len(model.layers)
    else:
        hi = model.boundary_of(up_to_boundary)
    return _macs_prefix(model, hi)


def _layer_macs(layer):
    out_elems = math.prod(layer.output_shape)
    p = layer.params
    if layer.kind == CONV:
        return out_elems * p["kernel"] ** 2 * p["in_channels"]
    if layer.kind == DWCONV:
        return out_elems * p["kernel"] ** 2
    if layer.kind == FC:
        return p["in_features"] * p["units"]
    return out_elems


def _macs_prefix(model, hi):
    return sum(_layer_macs(layer) for layer in model.layers[:hi])


def predict(profile, assignment):
    """Runtime breakdown for one partition choice."""
    pt = profile.point(assignment.boundary_label)
    transfer = profile.transfer.seconds_for(assignment.exposed_tensor_bytes)
    total = pt.enclave_prefix_seconds + transfer + pt.accelerator_suffix_seconds
    speedup = (profile.full_enclave_seconds - total) / profile.full_enclave_seconds
    return RuntimeBreakdown(
        boundary_label=assignment.boundary_label,
        enclave_seconds=pt.enclave_prefix_seconds,
        transfer_seconds=transfer,
        accelerator_seconds=pt.accelerator_suffix_seconds,
        total_seconds=total,
        speedup_vs_full_enclave=speedup,
    )


def full_enclave_breakdown(profile):
    """Degenerate breakdown for the no-split fallback."""
    fe = profile.full_enclave_seconds
    return RuntimeBreakdown(boundary_label="full-enclave", enclave_seconds=fe,
                            transfer_seconds=0.0, accelerator_seconds=0.0,
                            total_seconds=fe, speedup_vs_full_enclave=0.0)


def fit_transfer(byte_sizes, clamp=TRANSFER_CLAMP):
    """Affine transfer model hitting clamp[0] at the smallest exposed map and
    clamp[1] at the largest."""
    lo, hi = clamp
    bmin, bmax = min(byte_sizes), max(byte_sizes)
    if bmax > bmin:
        rate = (hi - lo) / (bmax - bmin)
        base = lo - rate * bmin
    else:
        rate, base = 0.0, (lo + hi) / 2.0
    return TransferModel(base_seconds=base, seconds_per_byte=rate, clamp=clamp)


def _interp_prefix(mac, anchors):
    """Piecewise-linear prefix seconds in cumulative MACs over anchor
    (mac, seconds) pairs sorted by mac."""
    for (m0, p0), (m1, p1) in zip(anchors, anchors[1:]):
        if m0 <= mac <= m1:
            if m1 == m0:
                return p0
            t = (mac - m0) / (m1 - m0)
            return p0 + t * (p1 - p0)
    raise CalibrationError("boundary MAC count outside anchored range")


def _assemble(model, assignments, measured, full_enclave, full_accelerator,
              extend_to_endpoints):
    """Shared profile construction. ``measured`` maps label -> total seconds.
    When ``extend_to_endpoints`` is set, virtual anchors at zero depth and at
    the full model close the interpolation range (used for shipped profiles
    whose published anchors are interior boundaries)."""
    transfer = fit_transfer([a.exposed_tensor_bytes for a in assignments])
    total_macs = _macs_prefix(model, len(model.layers))
    macs = {a.boundary_label: _macs_prefix(model, a.boundary) for a in assignments}
    suffix = {lab: full_accelerator * (1.0 - m / total_macs)
              for lab, m in macs.items()}
    tr = {a.boundary_label: transfer.seconds_for(a.exposed_tensor_bytes)
          for a in assignments}
    prefix = {lab: total - tr[lab] - suffix[lab]
              for lab, total in measured.items()}

    anchors = []
    if extend_to_endpoints:
        anchors.append((0.0, 0.0))
    prev = -math.inf
    for lab in macs:
        if lab not in prefix:
            continue
        if prefix[lab] < 0:
            raise CalibrationError(
                f"measured total at {lab!r} is below the modeled transfer and "
                f"accelerator cost")
        if prefix[lab] < prev:
            raise CalibrationError(
                f"measured prefix times are not non-decreasing at {lab!r}")
        prev = prefix[lab]
        anchors.append((macs[lab], prefix[lab]))
    if extend_to_endpoints:
        anchors.append((float(total_macs), full_enclave))

    per_point = tuple(
        PointCost(boundary_label=lab,
                  enclave_prefix_seconds=(prefix[lab] if lab in prefix else
                                          _interp_prefix(macs[lab], anchors)),
                  accelerator_suffix_seconds=suffix[lab])
        for lab in macs)
    return validate_profile(CostProfile(
        model_name=model.name, full_enclave_seconds=full_enclave,
        full_accelerator_seconds=full_accelerator, per_point=per_point,
        transfer=transfer))


def calibrate(model, measurements, full_enclave_seconds,
              full_accelerator_seconds):
    """Profile from measured (boundary label, total seconds) pairs.

    The first and last partition points must be measured; every measured
    total is reproduced exactly by predict, and in-between boundaries are
    filled by MAC-proportional interpolation of the enclave prefix.
    """
    assignments = enumerate_partitions(model)
    labels = [a.boundary_label for a in assignments]
    measured = {}
    for lab, total in measurements:
        if lab not in labels:
            raise CalibrationError(f"measurement for unknown boundary {lab!r}")
        if lab in measured:
            raise CalibrationError(f"duplicate measurement for {lab!r}")
        if not (total > 0 and math.isfinite(total)):
            raise CalibrationError(f"measured total at {lab!r} must be positive")
        measured[lab] = float(total)
    for endpoint in (labels[0], labels[-1]):
        if endpoint not in measured:
            raise CalibrationError(
                f"calibration needs the first and last boundaries measured; "
                f"missing {endpoint!r}")
    if not (full_enclave_seconds > 0 and full_accelerator_seconds > 0):
        raise CalibrationError("endpoint runtimes must be positive")
    return _assemble(model, assignments, measured, float(full_enclave_seconds),
                     float(full_accelerator_seconds), extend_to_endpoints=False)


def builtin_profile(arch_name,
                    full_accelerator_seconds=_DEFAULT_ACCELERATOR_SECONDS):
    """Shipped cost profile for a built-in architecture at 3 x 224 x 224,
    anchored to its published full-enclave and partitioned runtimes."""
    if arch_name not in _BUILTIN_ANCHORS:
        raise CalibrationError(f"no shipped profile for {arch_name!r}")
    full_enclave, anchors = _BUILTIN_ANCHORS[arch_name]
    model = build_architecture(arch_name, (3, 224, 224))
    assignments = enumerate_partitions(model)
    return _assemble(model, assignments, dict(anchors), full_enclave,
                     full_accelerator_seconds, extend_to_endpoints=True)


# ---------------------------------------------------------------------------
# JSON round trip

def profile_to_json(profile):
    doc = {
        "model_name": profile.model_name,
        "full_enclave_seconds": profile.full_enclave_seconds,
        "full_accelerator_seconds": profile.full_accelerator_seconds,
        "per_point": [
            {"boundary_label": pt.boundary_label,
             "enclave_prefix_seconds": pt.enclave_prefix_seconds,
             "accelerator_suffix_seconds": pt.accelerator_suffix_seconds}
            for pt in profile.per_point],
        "transfer": {"base_seconds": profile.transfer.base_seconds,
                     "seconds_per_byte": profile.transfer.seconds_per_byte},
    }
    if profile.transfer.clamp is not None:
        doc["transfer"]["clamp_seconds"] = list(profile.transfer.clamp)
    return doc


def profile_from_json(doc):
    try:
        transfer = doc["transfer"]
        clamp = transfer.get("clamp_seconds")
        profile = CostProfile(
            model_name=doc["model_name"],
            full_enclave_seconds=float(doc["full_enclave_seconds"]),
            full_accelerator_seconds=float(doc["full_accelerator_seconds"]),
            per_point=tuple(
                PointCost(boundary_label=pt["boundary_label"],
                          enclave_prefix_seconds=float(pt["enclave_prefix_seconds"]),
                          accelerator_suffix_seconds=float(
                              pt["accelerator_suffix_seconds"]))
                for pt in doc["per_point"]),
            transfer=TransferModel(
                base_seconds=float(transfer["base_seconds"]),
                seconds_per_byte=float(transfer["seconds_per_byte"]),
                clamp=None if clamp is None else tuple(map(float, clamp))),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CalibrationError(f"malformed profile document: {exc}") from None
    return validate_profile(profile)


def save_profile(path, profile):
    from .tensors import write_text_atomic
    write_text_atomic(path, json.dumps(profile_to_json(profile), indent=2) + "\n")


def load_profile(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CalibrationError(f"unreadable profile {path}: {exc}") from None
    return profile_from_json(doc)
