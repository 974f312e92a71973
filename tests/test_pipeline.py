import numpy as np
import pytest

import teesplit as ts
from teesplit.pipeline import (ART_CRITICAL, ART_FEATURE_MAP, ART_INPUT,
                               ART_NONCRITICAL, ART_OUTPUT, ZONE_TEE,
                               ZONE_UNTRUSTED)

from conftest import smooth_images


def toy_setup():
    m = ts.build_toy_cnn(points=4, input_shape=(1, 16, 16), seed=5)
    prof = ts.calibrate(m, [("L1", 0.4), ("L4", 0.95)], 1.0, 0.05)
    x = smooth_images(1, (1, 16, 16), seed=0)[0]
    return m, prof, x


def test_simulate_output_bitwise_equal_to_unsplit():
    m, prof, x = toy_setup()
    want = ts.forward(m, x)
    for label in m.labels():
        res = ts.simulate_pipeline(m, label, x, prof)
        assert res.output.tobytes() == want.tobytes()


def test_ledger_event_order_and_zones():
    m, prof, x = toy_setup()
    res = ts.simulate_pipeline(m, "L2", x, prof)
    got = [(e.step, e.zone, e.artifact) for e in res.ledger.events]
    assert got == [
        (2, ZONE_TEE, ART_CRITICAL),
        (2, ZONE_TEE, ART_NONCRITICAL),
        (2, ZONE_TEE, ART_INPUT),
        (3, ZONE_TEE, ART_CRITICAL),
        (3, ZONE_TEE, ART_NONCRITICAL),
        (4, ZONE_TEE, ART_FEATURE_MAP),
        (5, ZONE_UNTRUSTED, ART_FEATURE_MAP),
        (6, ZONE_UNTRUSTED, ART_NONCRITICAL),
        (6, ZONE_UNTRUSTED, ART_OUTPUT),
    ]
    steps = [e.step for e in res.ledger.events]
    assert steps == sorted(steps)


def test_ledger_byte_counts():
    m, prof, x = toy_setup()
    res = ts.simulate_pipeline(m, "L2", x, prof)
    by_key = {(e.step, e.artifact): e.nbytes for e in res.ledger.events}
    b = m.boundary_of("L2")
    assert by_key[(2, ART_INPUT)] == 16 * 16 * ts.ELEMENT_SIZE
    assert by_key[(2, ART_CRITICAL)] == ts.model_param_bytes(m, 0, b)
    assert by_key[(2, ART_NONCRITICAL)] == \
        ts.model_param_bytes(m, b, len(m.layers))
    assert by_key[(5, ART_FEATURE_MAP)] == res.assignment.exposed_tensor_bytes
    assert by_key[(6, ART_OUTPUT)] == 10 * ts.ELEMENT_SIZE


def test_exactly_one_feature_map_crossing():
    m, prof, x = toy_setup()
    for label in m.labels():
        res = ts.simulate_pipeline(m, label, x, prof)
        assert res.ledger.crossings(ART_FEATURE_MAP) == 1
        assert res.ledger.crossings(ART_INPUT) == 0
        assert res.ledger.crossings(ART_CRITICAL) == 0


def test_simulate_breakdown_matches_predict():
    m, prof, x = toy_setup()
    by_label = {a.boundary_label: a for a in ts.enumerate_partitions(m)}
    for label in m.labels():
        res = ts.simulate_pipeline(m, label, x, prof)
        want = ts.predict(prof, by_label[label])
        assert res.breakdown == want


def test_simulate_unknown_boundary():
    m, prof, x = toy_setup()
    with pytest.raises(ts.GraphError):
        ts.simulate_pipeline(m, "L9", x, prof)


def test_ledger_record_validation():
    led = ts.TrustLedger()
    with pytest.raises(ts.LedgerViolationError):
        led.record(0, ZONE_TEE, ART_INPUT, 10)
    with pytest.raises(ts.LedgerViolationError):
        led.record(7, ZONE_TEE, ART_INPUT, 10)
    with pytest.raises(ts.LedgerViolationError):
        led.record(1, "cloud", ART_INPUT, 10)
    with pytest.raises(ts.LedgerViolationError):
        led.record(1, ZONE_TEE, "secrets", 10)
    with pytest.raises(ts.LedgerViolationError):
        led.record(1, ZONE_TEE, ART_INPUT, -1)


def test_ledger_validate_flags_leaks():
    led = ts.TrustLedger()
    led.record(5, ZONE_UNTRUSTED, ART_INPUT, 100)
    with pytest.raises(ts.LedgerViolationError):
        led.validate()

    led = ts.TrustLedger()
    led.record(5, ZONE_UNTRUSTED, ART_CRITICAL, 100)
    with pytest.raises(ts.LedgerViolationError):
        led.validate()

    led = ts.TrustLedger()
    led.record(2, ZONE_TEE, ART_INPUT, 100)
    led.record(5, ZONE_UNTRUSTED, ART_FEATURE_MAP, 64)
    assert led.validate() is led


def test_ledger_csv_format():
    led = ts.TrustLedger()
    led.record(2, ZONE_TEE, ART_INPUT, 1024)
    led.record(5, ZONE_UNTRUSTED, ART_FEATURE_MAP, 2048)
    assert led.to_csv() == ("step,zone,artifact,bytes\n"
                            "2,tee,input,1024\n"
                            "5,untrusted,feature_map,2048\n")


def test_pipeline_rejects_wrong_input_shape():
    m, prof, _ = toy_setup()
    with pytest.raises(ts.TensorError):
        ts.simulate_pipeline(m, "L2", np.zeros((3, 16, 16)), prof)
