import numpy as np
import pytest

import teesplit as ts


def toy_request_parts(points=4):
    m = ts.build_toy_cnn(points=points, input_shape=(1, 16, 16), seed=points)
    return m, tuple(ts.enumerate_partitions(m))


def random_profile(rng, model, assignments, full_enclave=1.0):
    """Random valid profile whose per-point totals stay below the
    full-enclave time, the regime the monotone-response property assumes."""
    n = len(assignments)
    prefix = np.sort(rng.uniform(0.05, 0.55, n))
    suffix = rng.uniform(0.0, 0.25, n)
    tm = ts.fit_transfer([a.exposed_tensor_bytes for a in assignments])
    pts = tuple(ts.PointCost(boundary_label=a.boundary_label,
                             enclave_prefix_seconds=float(p),
                             accelerator_suffix_seconds=float(s))
                for a, p, s in zip(assignments, prefix, suffix))
    return ts.CostProfile(model_name=model.name,
                          full_enclave_seconds=full_enclave,
                          full_accelerator_seconds=0.05,
                          per_point=pts, transfer=tm)


def random_request(rng, model, assignments, profile=None):
    scores = tuple((a.boundary_label, float(np.round(rng.uniform(0, 0.45), 3)))
                   for a in assignments)
    return ts.PlanRequest(
        model_name=model.name,
        profile=profile or random_profile(rng, model, assignments),
        scores=scores, assignments=assignments,
        threshold=float(rng.uniform(0.05, 0.4)),
        slack=float(rng.uniform(0.0, 0.1)))


def test_plan_equals_brute_force_on_random_requests():
    rng = np.random.default_rng(11)
    parts = {k: toy_request_parts(k) for k in (2, 3, 4, 5, 6)}
    for trial in range(400):
        m, asg = parts[2 + trial % 5]
        req = random_request(rng, m, asg)
        a = ts.plan(req)
        b = ts.brute_force_plan(req)
        assert a.chosen_boundary == b.chosen_boundary
        assert a.breakdown.total_seconds == b.breakdown.total_seconds
        assert [x.feasible for x in a.alternatives] == \
            [x.feasible for x in b.alternatives]


def test_first_feasible_alternative_is_the_evaluator_choice():
    rng = np.random.default_rng(14)
    parts = {k: toy_request_parts(k) for k in (2, 3, 4, 5, 6)}
    for trial in range(200):
        m, asg = parts[2 + trial % 5]
        req = random_request(rng, m, asg)
        first = next((alt.boundary_label for alt in ts.plan(req).alternatives
                      if alt.feasible), None)
        assert first == ts.select_optimal_partition(req.scores, req.threshold,
                                                    req.slack)


def test_feasibility_soundness():
    rng = np.random.default_rng(12)
    m, asg = toy_request_parts(5)
    for _ in range(300):
        req = random_request(rng, m, asg)
        p = ts.plan(req)
        by_label = dict(req.scores)
        if p.feasible:
            assert by_label[p.chosen_boundary] <= req.threshold
        for alt in p.alternatives:
            if alt.feasible:
                assert by_label[alt.boundary_label] <= req.threshold


def test_objective_optimality():
    rng = np.random.default_rng(13)
    m, asg = toy_request_parts(4)
    for _ in range(300):
        req = random_request(rng, m, asg)
        p = ts.plan(req)
        if not p.feasible:
            continue
        for alt in p.alternatives:
            if alt.feasible:
                assert alt.breakdown.total_seconds >= \
                    p.breakdown.total_seconds - 1e-15


def test_threshold_monotonicity():
    rng = np.random.default_rng(14)
    m, asg = toy_request_parts(4)
    for _ in range(200):
        prof = random_profile(rng, m, asg)
        base = random_request(rng, m, asg, profile=prof)
        t_lo = float(rng.uniform(0.05, 0.3))
        t_hi = t_lo + float(rng.uniform(0.01, 0.2))
        lo = ts.plan(ts.PlanRequest(model_name=base.model_name, profile=prof,
                                    scores=base.scores,
                                    assignments=base.assignments,
                                    threshold=t_lo, slack=base.slack))
        hi = ts.plan(ts.PlanRequest(model_name=base.model_name, profile=prof,
                                    scores=base.scores,
                                    assignments=base.assignments,
                                    threshold=t_hi, slack=base.slack))
        lo_feas = {a.boundary_label for a in lo.alternatives if a.feasible}
        hi_feas = {a.boundary_label for a in hi.alternatives if a.feasible}
        assert lo_feas <= hi_feas
        assert hi.breakdown.total_seconds <= lo.breakdown.total_seconds + 1e-15


def test_tie_breaks_toward_earlier_boundary():
    m, asg = toy_request_parts(3)
    tm = ts.TransferModel(base_seconds=0.05, seconds_per_byte=0.0,
                          clamp=(0.02, 0.1))
    pts = tuple(ts.PointCost(boundary_label=a.boundary_label,
                             enclave_prefix_seconds=0.3,
                             accelerator_suffix_seconds=0.1) for a in asg)
    prof = ts.CostProfile(model_name=m.name, full_enclave_seconds=1.0,
                          full_accelerator_seconds=0.05, per_point=pts,
                          transfer=tm)
    scores = tuple((a.boundary_label, 0.1) for a in asg)
    req = ts.PlanRequest(model_name=m.name, profile=prof, scores=scores,
                         assignments=asg, threshold=0.2, slack=0.05)
    p = ts.plan(req)
    assert p.chosen_boundary == asg[0].boundary_label
    assert ts.brute_force_plan(req).chosen_boundary == p.chosen_boundary


def test_infeasible_falls_back_to_full_enclave():
    rng = np.random.default_rng(15)
    m, asg = toy_request_parts(3)
    prof = random_profile(rng, m, asg)
    scores = tuple((a.boundary_label, 0.9) for a in asg)
    req = ts.PlanRequest(model_name=m.name, profile=prof, scores=scores,
                         assignments=asg, threshold=0.2, slack=0.05)
    p = ts.plan(req)
    assert not p.feasible
    assert p.chosen_boundary is None
    assert p.breakdown.total_seconds == prof.full_enclave_seconds
    assert p.breakdown.speedup_vs_full_enclave == 0.0
    b = ts.brute_force_plan(req)
    assert b.chosen_boundary is None


def test_single_boundary_requests():
    rng = np.random.default_rng(16)
    m = ts.build_toy_cnn(points=2, input_shape=(1, 16, 16), seed=0)
    asg = tuple(ts.enumerate_partitions(m))[:1]
    prof_pts = (ts.PointCost(boundary_label=asg[0].boundary_label,
                             enclave_prefix_seconds=0.2,
                             accelerator_suffix_seconds=0.1),)
    prof = ts.CostProfile(model_name=m.name, full_enclave_seconds=1.0,
                          full_accelerator_seconds=0.05, per_point=prof_pts,
                          transfer=ts.fit_transfer([asg[0].exposed_tensor_bytes]))
    ok = ts.PlanRequest(model_name=m.name, profile=prof,
                        scores=((asg[0].boundary_label, 0.1),),
                        assignments=asg, threshold=0.2, slack=0.05)
    assert ts.plan(ok).chosen_boundary == asg[0].boundary_label
    bad = ts.PlanRequest(model_name=m.name, profile=prof,
                         scores=((asg[0].boundary_label, 0.5),),
                         assignments=asg, threshold=0.2, slack=0.05)
    assert ts.plan(bad).chosen_boundary is None


def test_mismatched_label_sets_rejected():
    rng = np.random.default_rng(17)
    m, asg = toy_request_parts(4)
    prof = random_profile(rng, m, asg)
    scores = tuple((a.boundary_label, 0.1) for a in asg[:-1])
    req = ts.PlanRequest(model_name=m.name, profile=prof, scores=scores,
                         assignments=asg, threshold=0.2, slack=0.05)
    with pytest.raises(ts.PlanError):
        ts.plan(req)


@pytest.mark.parametrize("threshold, slack", [
    (0.0, 0.05), (0.2, -0.01), (0.2, float("nan")), (float("nan"), 0.05)])
def test_bad_threshold_or_slack_rejected(threshold, slack):
    rng = np.random.default_rng(19)
    m, asg = toy_request_parts(3)
    req = ts.PlanRequest(model_name=m.name,
                         profile=random_profile(rng, m, asg),
                         scores=tuple((a.boundary_label, 0.1) for a in asg),
                         assignments=asg, threshold=threshold, slack=slack)
    for planner in (ts.plan, ts.brute_force_plan):
        with pytest.raises(ts.PlanError):
            planner(req)


@pytest.mark.parametrize("threshold, slack", [
    ("0.2", 0.05), (0.2, "0.05"), (None, 0.05), (0.2, [0.05])])
def test_non_numeric_threshold_or_slack_is_a_plan_error(threshold, slack):
    # a value that cannot be compared is refused like an out-of-range one,
    # never with the comparison's TypeError
    rng = np.random.default_rng(20)
    m, asg = toy_request_parts(3)
    req = ts.PlanRequest(model_name=m.name,
                         profile=random_profile(rng, m, asg),
                         scores=tuple((a.boundary_label, 0.1) for a in asg),
                         assignments=asg, threshold=threshold, slack=slack)
    for planner in (ts.plan, ts.brute_force_plan):
        with pytest.raises(ts.PlanError):
            planner(req)


def test_plan_table_csv_shape():
    rng = np.random.default_rng(18)
    m, asg = toy_request_parts(4)
    prof = random_profile(rng, m, asg)
    feasible_req = ts.PlanRequest(
        model_name=m.name, profile=prof,
        scores=tuple((a.boundary_label, 0.05) for a in asg),
        assignments=asg, threshold=0.2, slack=0.05)
    infeasible_req = ts.PlanRequest(
        model_name=m.name, profile=prof,
        scores=tuple((a.boundary_label, 0.95) for a in asg),
        assignments=asg, threshold=0.2, slack=0.05)
    text = ts.plan_table_csv([ts.plan(feasible_req), ts.plan(infeasible_req)])
    lines = text.strip().split("\n")
    assert lines[0] == ("model,partition_points,optimal_point,"
                       "full_enclave_seconds,partitioned_seconds,"
                       "speedup_percent")
    assert len(lines) == 3
    assert lines[1].startswith(f"{m.name},4,")
    assert ",full-enclave," in lines[2]
    assert lines[2].endswith(",0")
