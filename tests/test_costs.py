import json

import numpy as np
import pytest

import teesplit as ts


def vgg_mac_oracle():
    """Hand-tallied multiply-accumulate spreadsheet for VGG-16 at 224.

    One row per layer in chain order: convs count out_elems * k^2 * in_ch,
    activations and pools count out_elems, FC counts in * out.
    """
    rows = []

    def conv(cin, cout, hw):
        rows.append(cout * hw * hw * 9 * cin)   # conv
        rows.append(cout * hw * hw)             # relu

    conv(3, 64, 224)
    conv(64, 64, 224)
    rows.append(64 * 112 * 112)                 # pool
    conv(64, 128, 112)
    conv(128, 128, 112)
    rows.append(128 * 56 * 56)
    conv(128, 256, 56)
    conv(256, 256, 56)
    conv(256, 256, 56)
    rows.append(256 * 28 * 28)
    conv(256, 512, 28)
    conv(512, 512, 28)
    conv(512, 512, 28)
    rows.append(512 * 14 * 14)
    conv(512, 512, 14)
    conv(512, 512, 14)
    conv(512, 512, 14)
    rows.append(512 * 7 * 7)
    rows.append(512 * 7 * 7)                    # flatten
    rows.append(25088 * 4096)                   # fc1
    rows.append(4096)
    rows.append(4096 * 4096)                    # fc2
    rows.append(4096)
    rows.append(4096 * 1000)                    # fc3
    return rows


def test_vgg_mac_count_matches_spreadsheet():
    m = ts.build_architecture("vgg16")
    rows = vgg_mac_oracle()
    assert ts.mac_count(m) == sum(rows)
    # per-boundary prefixes: Layer k ends after conv k (+relu, +pool when
    # the group closes); walk the spreadsheet with the model's boundaries
    for label, b in m.partition_points:
        assert ts.mac_count(m, up_to_boundary=label) == sum(rows[:b])


def test_mac_boundary_fraction_bounds():
    for name in ("vgg16", "resnet50", "efficientnetb0"):
        m = ts.build_architecture(name)
        total = ts.mac_count(m)
        prev = 0
        for label in m.labels():
            cur = ts.mac_count(m, up_to_boundary=label)
            assert prev < cur < total
            prev = cur


def test_fit_transfer_endpoints_and_affine():
    sizes = [1000, 5000, 9000]
    tm = ts.fit_transfer(sizes)
    assert tm.seconds_for(1000) == pytest.approx(0.02, abs=1e-15)
    assert tm.seconds_for(9000) == pytest.approx(0.1, abs=1e-15)
    assert tm.seconds_for(5000) == pytest.approx(0.06, abs=1e-12)
    # outside the fitted range the clamp takes over
    assert tm.seconds_for(100) == 0.02
    assert tm.seconds_for(10 ** 9) == 0.1


def test_fit_transfer_degenerate_single_size():
    tm = ts.fit_transfer([4096, 4096])
    assert 0.02 <= tm.seconds_for(4096) <= 0.1


def test_calibrate_reproduces_measured_totals(toy4):
    meas = [("L1", 0.30), ("L3", 0.70), ("L4", 0.95)]
    prof = ts.calibrate(toy4, meas, 1.0, 0.05)
    by_label = {a.boundary_label: a for a in ts.enumerate_partitions(toy4)}
    for label, total in meas:
        bd = ts.predict(prof, by_label[label])
        assert bd.total_seconds == pytest.approx(total, abs=1e-12)
    ts.validate_profile(prof)


def test_calibrate_interpolates_between_anchors(toy4):
    prof = ts.calibrate(toy4, [("L1", 0.30), ("L4", 0.95)], 1.0, 0.05)
    by_label = {a.boundary_label: a for a in ts.enumerate_partitions(toy4)}
    t2 = ts.predict(prof, by_label["L2"]).total_seconds
    t3 = ts.predict(prof, by_label["L3"]).total_seconds
    # prefixes grow with depth; interpolated points stay inside the bracket
    p = [prof.point(l).enclave_prefix_seconds for l in toy4.labels()]
    assert p == sorted(p)
    assert p[0] < p[1] < p[3] and p[0] < p[2] < p[3]
    assert 0 < t2 < 1.0 and 0 < t3 < 1.0


def test_calibrate_requires_first_and_last_boundary(toy4):
    with pytest.raises(ts.CalibrationError):
        ts.calibrate(toy4, [("L2", 0.5), ("L4", 0.9)], 1.0, 0.05)
    with pytest.raises(ts.CalibrationError):
        ts.calibrate(toy4, [("L1", 0.3), ("L3", 0.8)], 1.0, 0.05)


def test_calibrate_rejects_bad_measurements(toy4):
    with pytest.raises(ts.CalibrationError):
        ts.calibrate(toy4, [("L1", 0.3), ("nope", 0.5), ("L4", 0.9)], 1.0, 0.05)
    with pytest.raises(ts.CalibrationError):
        ts.calibrate(toy4, [("L1", 0.3), ("L1", 0.4), ("L4", 0.9)], 1.0, 0.05)
    with pytest.raises(ts.CalibrationError):
        ts.calibrate(toy4, [("L1", -0.1), ("L4", 0.9)], 1.0, 0.05)
    with pytest.raises(ts.CalibrationError):
        ts.calibrate(toy4, [("L1", 0.3), ("L4", 0.9)], 0.0, 0.05)


def test_calibrate_rejects_shrinking_prefix(toy4):
    # a deep boundary reported faster than a shallow one implies the
    # enclave prefix shrank with depth, which is physically impossible
    with pytest.raises(ts.CalibrationError):
        ts.calibrate(toy4, [("L1", 0.9), ("L4", 0.4)], 1.0, 0.05)


def test_speedup_antitone_in_measured_totals(toy4):
    by_label = {a.boundary_label: a for a in ts.enumerate_partitions(toy4)}
    rng = np.random.default_rng(3)
    for _ in range(50):
        lo = float(rng.uniform(0.2, 0.5))
        hi = float(rng.uniform(lo + 0.2, 0.99))
        bump = float(rng.uniform(0.001, 1.0 - hi))
        a = ts.calibrate(toy4, [("L1", lo), ("L4", hi)], 1.0, 0.05)
        b = ts.calibrate(toy4, [("L1", lo + bump), ("L4", hi + bump)], 1.0, 0.05)
        for label in toy4.labels():
            sa = ts.predict(a, by_label[label]).speedup_vs_full_enclave
            sb = ts.predict(b, by_label[label]).speedup_vs_full_enclave
            assert sb <= sa + 1e-12


def test_builtin_profiles_validate_and_cover_all_boundaries():
    for name in ("vgg16", "resnet50", "efficientnetb0"):
        prof = ts.builtin_profile(name)
        ts.validate_profile(prof)
        m = ts.build_architecture(name)
        assert prof.labels() == m.labels()
        for a in ts.enumerate_partitions(m):
            bd = ts.predict(prof, a)
            assert bd.total_seconds > 0
            assert bd.enclave_seconds >= 0
            assert bd.accelerator_seconds >= 0


def test_builtin_full_enclave_seconds():
    assert ts.builtin_profile("vgg16").full_enclave_seconds == 4.2
    assert ts.builtin_profile("resnet50").full_enclave_seconds == 4.02
    assert ts.builtin_profile("efficientnetb0").full_enclave_seconds == 3.7


def test_builtin_profile_unknown_name():
    with pytest.raises(ts.CalibrationError):
        ts.builtin_profile("alexnet")


def test_profile_json_round_trip(toy4):
    prof = ts.calibrate(toy4, [("L1", 0.3), ("L4", 0.95)], 1.0, 0.05)
    blob = json.dumps(ts.profile_to_json(prof))
    back = ts.profile_from_json(json.loads(blob))
    assert back == prof


def test_profile_save_load(tmp_path):
    prof = ts.builtin_profile("resnet50")
    path = tmp_path / "p.json"
    ts.save_profile(path, prof)
    assert ts.load_profile(path) == prof


@pytest.mark.parametrize("field", ["full_enclave_seconds",
                                   "full_accelerator_seconds",
                                   "enclave_prefix_seconds",
                                   "accelerator_suffix_seconds",
                                   "base_seconds", "clamp_seconds"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_profile_json_rejects_non_finite_numbers(field, value):
    doc = ts.profile_to_json(ts.builtin_profile("resnet50"))
    if field.startswith("full"):
        doc[field] = value
    elif field == "base_seconds":
        doc["transfer"][field] = value
    elif field == "clamp_seconds":
        doc["transfer"][field] = [0.02, value]
    else:
        doc["per_point"][1][field] = value
    with pytest.raises(ts.CalibrationError):
        ts.profile_from_json(doc)


@pytest.mark.parametrize("clamp", [[0.1], [], [0.02, 0.05, 0.1], 0.1, "ab",
                                   [0.1, 0.02]])
def test_profile_json_rejects_clamp_not_a_pair(clamp):
    doc = ts.profile_to_json(ts.builtin_profile("resnet50"))
    doc["transfer"]["clamp_seconds"] = clamp
    with pytest.raises(ts.CalibrationError):
        ts.profile_from_json(doc)


@pytest.mark.parametrize("transfer", [5, None, [0.1, 1e-9], "transfer"])
def test_profile_json_rejects_transfer_not_an_object(transfer):
    doc = ts.profile_to_json(ts.builtin_profile("resnet50"))
    doc["transfer"] = transfer
    with pytest.raises(ts.CalibrationError, match="malformed profile"):
        ts.profile_from_json(doc)


def test_validate_profile_catches_corruption():
    prof = ts.builtin_profile("resnet50")
    pts = list(prof.per_point)
    pts[1] = ts.PointCost(boundary_label=pts[1].boundary_label,
                          enclave_prefix_seconds=pts[0].enclave_prefix_seconds - 0.5,
                          accelerator_suffix_seconds=pts[1].accelerator_suffix_seconds)
    bad = ts.CostProfile(model_name=prof.model_name,
                         full_enclave_seconds=prof.full_enclave_seconds,
                         full_accelerator_seconds=prof.full_accelerator_seconds,
                         per_point=tuple(pts), transfer=prof.transfer)
    with pytest.raises(ts.CalibrationError):
        ts.validate_profile(bad)


def test_predict_unknown_boundary():
    prof = ts.builtin_profile("resnet50")
    m = ts.build_architecture("vgg16")
    a = ts.enumerate_partitions(m)[10]
    with pytest.raises(ts.CalibrationError):
        ts.predict(prof, a)
