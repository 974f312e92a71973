"""Joint privacy/runtime partition planning.

A boundary is feasible when its own reconstruction score is at or below the
privacy threshold and every deeper boundary's score stays within threshold
plus slack. The planner applies the privacy evaluator's own rule,
``privacy.feasible_boundaries``, not a copy of it. Among feasible
boundaries the planner picks the one with the smallest predicted total
runtime, preferring the earlier boundary on ties. When nothing is feasible
the plan recommends keeping the whole model in the enclave.

``brute_force_plan`` re-derives the same answer by exhaustive scanning and
exists as an independent check on ``plan``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .costs import full_enclave_breakdown, predict
from .privacy import (DEFAULT_SLACK, DEFAULT_THRESHOLD, PrivacyError,
                      _check_rule, feasible_boundaries)
from .tensors import csv_text


class PlanError(ValueError):
    """Raised when the planning inputs are inconsistent."""


@dataclass(frozen=True)
class PlanRequest:
    model_name: str
    profile: object
    scores: tuple  # ordered (boundary_label, mean_ssim)
    assignments: tuple  # PartitionAssignment per boundary, same order
    threshold: float = DEFAULT_THRESHOLD
    slack: float = DEFAULT_SLACK


@dataclass(frozen=True)
class Alternative:
    boundary_label: str
    mean_ssim: float
    feasible: bool
    breakdown: object


@dataclass(frozen=True)
class PartitionPlan:
    model_name: str
    chosen_boundary: str | None
    breakdown: object
    privacy_score: float | None
    full_enclave_seconds: float
    alternatives: tuple = field(default=(), repr=False)

    @property
    def feasible(self):
        return self.chosen_boundary is not None


def _validated(req):
    labels = [lab for lab, _ in req.scores]
    if not labels:
        raise PlanError("request has no boundaries")
    if labels != req.profile.labels():
        raise PlanError("privacy scores and cost profile cover different "
                        "boundary sets")
    if labels != [a.boundary_label for a in req.assignments]:
        raise PlanError("partition assignments do not match the scored "
                        "boundaries")
    try:
        _check_rule(req.threshold, req.slack)
    except PrivacyError as exc:
        raise PlanError(str(exc)) from None
    return labels


def plan(req):
    """Best feasible partition under the request's threshold and slack."""
    _validated(req)
    flags = feasible_boundaries([s for _, s in req.scores], req.threshold,
                                req.slack)
    alternatives = []
    best = None
    for (label, score), assignment, feasible in zip(req.scores,
                                                    req.assignments, flags):
        breakdown = predict(req.profile, assignment)
        alternatives.append(Alternative(boundary_label=label,
                                        mean_ssim=float(score),
                                        feasible=feasible,
                                        breakdown=breakdown))
        if feasible and (best is None
                         or breakdown.total_seconds < best.breakdown.total_seconds):
            best = alternatives[-1]

    if best is None:
        return PartitionPlan(
            model_name=req.model_name, chosen_boundary=None,
            breakdown=full_enclave_breakdown(req.profile), privacy_score=None,
            full_enclave_seconds=req.profile.full_enclave_seconds,
            alternatives=tuple(alternatives))
    return PartitionPlan(
        model_name=req.model_name, chosen_boundary=best.boundary_label,
        breakdown=best.breakdown, privacy_score=best.mean_ssim,
        full_enclave_seconds=req.profile.full_enclave_seconds,
        alternatives=tuple(alternatives))


def brute_force_plan(req):
    """Same contract as plan, derived by exhaustive scanning."""
    _validated(req)
    n = len(req.scores)
    feasible_idx = []
    for i in range(n):
        ok = req.scores[i][1] <= req.threshold
        for j in range(i + 1, n):
            if req.scores[j][1] > req.threshold + req.slack:
                ok = False
        if ok:
            feasible_idx.append(i)

    alternatives = []
    for i in range(n):
        alternatives.append(Alternative(
            boundary_label=req.scores[i][0], mean_ssim=float(req.scores[i][1]),
            feasible=i in feasible_idx,
            breakdown=predict(req.profile, req.assignments[i])))

    if not feasible_idx:
        return PartitionPlan(
            model_name=req.model_name, chosen_boundary=None,
            breakdown=full_enclave_breakdown(req.profile), privacy_score=None,
            full_enclave_seconds=req.profile.full_enclave_seconds,
            alternatives=tuple(alternatives))
    best = feasible_idx[0]
    for i in feasible_idx[1:]:
        if (alternatives[i].breakdown.total_seconds
                < alternatives[best].breakdown.total_seconds):
            best = i
    alt = alternatives[best]
    return PartitionPlan(
        model_name=req.model_name, chosen_boundary=alt.boundary_label,
        breakdown=alt.breakdown, privacy_score=alt.mean_ssim,
        full_enclave_seconds=req.profile.full_enclave_seconds,
        alternatives=tuple(alternatives))


def plan_table_csv(plans):
    """Summary table, one row per plan: partition point count, chosen point,
    and the runtime comparison against the full-enclave baseline."""
    return csv_text(
        ["model", "partition_points", "optimal_point", "full_enclave_seconds",
         "partitioned_seconds", "speedup_percent"],
        ([p.model_name, len(p.alternatives),
          p.chosen_boundary if p.feasible else "full-enclave",
          p.full_enclave_seconds, p.breakdown.total_seconds,
          100.0 * p.breakdown.speedup_vs_full_enclave] for p in plans))
