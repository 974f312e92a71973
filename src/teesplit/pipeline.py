"""End-to-end partitioned-inference simulation with a trust ledger.

The simulated flow mirrors the deployment steps: the model and input are
decrypted inside the enclave, the model is split there, the enclave runs the
critical prefix, the resulting feature map leaves the enclave exactly once,
and the untrusted accelerator runs the non-critical suffix to the output.
Every artifact movement is recorded as a ledger event and checked against
the zone rules: the raw input and the critical partition's weights must
never appear outside the enclave, and the only artifacts that cross out are
the boundary feature map and the non-critical partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import engine
from .architectures import resolve_model
from .costs import predict
from .graph import ELEMENT_SIZE, ModelGraph, enumerate_partitions, split
from .tensors import csv_text

ZONE_TEE = "tee"
ZONE_UNTRUSTED = "untrusted"
ZONES = (ZONE_TEE, ZONE_UNTRUSTED)

ART_INPUT = "input"
ART_CRITICAL = "model_partition_critical"
ART_NONCRITICAL = "model_partition_noncritical"
ART_FEATURE_MAP = "feature_map"
ART_OUTPUT = "output"
ARTIFACTS = (ART_INPUT, ART_CRITICAL, ART_NONCRITICAL, ART_FEATURE_MAP,
             ART_OUTPUT)

# artifacts allowed to appear in the untrusted zone
_UNTRUSTED_OK = (ART_FEATURE_MAP, ART_NONCRITICAL, ART_OUTPUT)


class LedgerViolationError(RuntimeError):
    """An artifact appeared in a zone the trust rules forbid."""


@dataclass(frozen=True)
class LedgerEvent:
    step: int
    zone: str
    artifact: str
    nbytes: int


@dataclass
class TrustLedger:
    events: list = field(default_factory=list)

    def record(self, step, zone, artifact, nbytes):
        if not (1 <= step <= 6):
            raise LedgerViolationError(f"step {step} outside the 1..6 flow")
        if zone not in ZONES:
            raise LedgerViolationError(f"unknown zone {zone!r}")
        if artifact not in ARTIFACTS:
            raise LedgerViolationError(f"unknown artifact {artifact!r}")
        if nbytes < 0:
            raise LedgerViolationError("negative byte count")
        self.events.append(LedgerEvent(step, zone, artifact, int(nbytes)))

    def validate(self):
        """Enforce the zone rules; raises LedgerViolationError on breach."""
        for ev in self.events:
            if ev.artifact in (ART_INPUT, ART_CRITICAL) and ev.zone != ZONE_TEE:
                raise LedgerViolationError(
                    f"{ev.artifact} appeared in zone {ev.zone} at step {ev.step}")
            if ev.zone == ZONE_UNTRUSTED and ev.artifact not in _UNTRUSTED_OK:
                raise LedgerViolationError(
                    f"{ev.artifact} is not allowed outside the enclave")
        return self

    def crossings(self, artifact):
        """How many times the artifact was recorded in the untrusted zone."""
        return sum(1 for ev in self.events
                   if ev.artifact == artifact and ev.zone == ZONE_UNTRUSTED)

    def to_csv(self):
        return csv_text(["step", "zone", "artifact", "bytes"],
                        ([ev.step, ev.zone, ev.artifact, ev.nbytes]
                         for ev in self.events))


@dataclass(frozen=True)
class PipelineResult:
    output: object
    ledger: TrustLedger
    breakdown: object
    assignment: object


def simulate_pipeline(model, boundary_label, x, profile):
    """Run split inference at one boundary and account every artifact move.

    ``model`` may be a ModelGraph or an architecture name (built at the
    input's shape). The output is bitwise identical to running the unsplit
    model; the ledger validates against the zone rules before returning, and
    the runtime breakdown comes from the cost profile.
    """
    if not isinstance(model, ModelGraph):
        model = resolve_model(model, input_shape=tuple(int(d) for d in x.shape))
    b = model.boundary_of(boundary_label)
    assignment = next(a for a in enumerate_partitions(model)
                      if a.boundary_label == boundary_label)
    head, tail = split(model, boundary_label)

    input_bytes = math.prod(model.input_shape) * ELEMENT_SIZE
    critical_bytes = engine.model_param_bytes(model, 0, b)
    noncritical_bytes = engine.model_param_bytes(model, b, len(model.layers))

    ledger = TrustLedger()
    # decrypt model and input inside the enclave
    ledger.record(2, ZONE_TEE, ART_CRITICAL, critical_bytes)
    ledger.record(2, ZONE_TEE, ART_NONCRITICAL, noncritical_bytes)
    ledger.record(2, ZONE_TEE, ART_INPUT, input_bytes)
    # partition the model inside the enclave
    ledger.record(3, ZONE_TEE, ART_CRITICAL, critical_bytes)
    ledger.record(3, ZONE_TEE, ART_NONCRITICAL, noncritical_bytes)
    # run the critical prefix inside the enclave
    exposed = engine.forward(head, x)
    fmap_bytes = math.prod(exposed.shape) * ELEMENT_SIZE
    ledger.record(4, ZONE_TEE, ART_FEATURE_MAP, fmap_bytes)
    # the single kernel switch: feature map and non-critical partition leave
    ledger.record(5, ZONE_UNTRUSTED, ART_FEATURE_MAP, fmap_bytes)
    ledger.record(6, ZONE_UNTRUSTED, ART_NONCRITICAL, noncritical_bytes)
    # run the non-critical suffix outside
    output = engine.forward(tail, exposed)
    out_bytes = math.prod(output.shape) * ELEMENT_SIZE
    ledger.record(6, ZONE_UNTRUSTED, ART_OUTPUT, out_bytes)

    ledger.validate()
    breakdown = predict(profile, assignment)
    return PipelineResult(output=output, ledger=ledger, breakdown=breakdown,
                          assignment=assignment)
