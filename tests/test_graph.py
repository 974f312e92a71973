import dataclasses
import json

import numpy as np
import pytest

import teesplit as ts
from teesplit.graph import LayerSpec


def chain(*specs):
    """Build LayerSpecs for make_graph from terse (name, kind, params) specs."""
    out = []
    for n, k, p, *rest in specs:
        extra = rest[0] if rest else {}
        out.append(LayerSpec(name=n, kind=k, params=dict(p, **extra.get("params", {})),
                             output_shape=(), source=extra.get("source")))
    return out


def small_model():
    layers = chain(
        ("c1", ts.CONV, {"in_channels": 2, "out_channels": 4, "kernel": 3,
                         "stride": 1, "padding": 1, "seed": 1}),
        ("r1", ts.RELU, {}),
        ("p1", ts.MAXPOOL, {"kernel": 2, "stride": 2, "padding": 0}),
        ("c2", ts.CONV, {"in_channels": 4, "out_channels": 6, "kernel": 3,
                         "stride": 1, "padding": 1, "seed": 2}),
        ("r2", ts.RELU, {}),
        ("f", ts.FLATTEN, {}),
        ("fc", ts.FC, {"in_features": 96, "units": 10, "seed": 3}),
    )
    return ts.make_graph("small", (2, 8, 8), layers,
                         [("A", 3), ("B", 5)])


def test_shape_inference_chain():
    m = small_model()
    shapes = [l.output_shape for l in m.layers]
    assert shapes == [(4, 8, 8), (4, 8, 8), (4, 4, 4), (6, 4, 4), (6, 4, 4),
                      (96,), (10,)]
    assert m.output_shape == (10,)


def test_make_graph_takes_numpy_integers():
    m = small_model()
    got = ts.make_graph("small", np.array([2, 8, 8]), m.layers,
                        [("A", np.int64(3)), ("B", np.int32(5))])
    assert got == m
    assert all(type(d) is int for d in got.input_shape)
    assert all(type(b) is int for _, b in got.partition_points)


def test_boundary_lookup_and_labels():
    m = small_model()
    assert m.labels() == ["A", "B"]
    assert m.boundary_of("A") == 3
    assert m.boundary_of("B") == 5
    with pytest.raises(ts.GraphError):
        m.boundary_of("C")


def test_exposed_tensor_matches_shape_oracle():
    # independent oracle: track shapes by hand per layer kind
    m = small_model()
    parts = ts.enumerate_partitions(m)
    assert [a.boundary_label for a in parts] == ["A", "B"]
    a, b = parts
    assert a.exposed_tensor_shape == (4, 4, 4)
    assert a.exposed_tensor_bytes == 4 * 4 * 4 * ts.ELEMENT_SIZE
    assert b.exposed_tensor_shape == (6, 4, 4)
    assert b.exposed_tensor_bytes == 6 * 4 * 4 * ts.ELEMENT_SIZE


def test_partition_points_must_be_increasing_and_interior():
    layers = chain(("c1", ts.CONV, {"in_channels": 1, "out_channels": 2,
                                    "kernel": 1, "stride": 1, "padding": 0,
                                    "seed": 0}),
                   ("r1", ts.RELU, {}))
    with pytest.raises(ts.GraphError):
        ts.make_graph("m", (1, 4, 4), layers, [("A", 0)])
    with pytest.raises(ts.GraphError):
        ts.make_graph("m", (1, 4, 4), layers, [("A", 2)])
    with pytest.raises(ts.GraphError):
        ts.make_graph("m", (1, 4, 4), layers, [("A", 1), ("B", 1)])
    ts.make_graph("m", (1, 4, 4), layers, [("A", 1)])


def test_duplicate_layer_names_rejected():
    layers = chain(("x", ts.RELU, {}), ("x", ts.RELU, {}))
    with pytest.raises(ts.GraphError):
        ts.make_graph("m", (1, 4, 4), layers, [])


def test_pool_too_small_raises():
    layers = chain(("p", ts.MAXPOOL, {"kernel": 5, "stride": 1,
                                      "padding": 0}))
    with pytest.raises(ts.GraphError):
        ts.make_graph("m", (1, 4, 4), layers, [])


@pytest.mark.parametrize("k, s, pad, ok", [(2, 1, 2, False), (3, 2, 3, False),
                                          (2, 1, 1, True), (3, 2, 2, True)])
def test_maxpool_padding_must_be_less_than_its_kernel(k, s, pad, ok):
    # padding >= kernel leaves windows that read only the -inf border, so
    # every forward would fail; such a pool is refused where the model is
    # made, from a LayerSpec chain and from model JSON alike
    layers = chain(("p", ts.MAXPOOL, {"kernel": k, "stride": s,
                                      "padding": pad}))
    if ok:
        m = ts.make_graph("m", (1, 3, 3), layers, [])
        out = ts.forward(m, np.arange(9.0).reshape(1, 3, 3))
        assert np.isfinite(out).all()
        return
    with pytest.raises(ts.GraphError, match="padding .* less than its kernel"):
        ts.make_graph("m", (1, 3, 3), layers, [])
    doc = ts.model_to_json(ts.make_graph("m", (1, 3, 3), chain(
        ("p", ts.MAXPOOL, {"kernel": k, "stride": s, "padding": 0})), []))
    doc["layers"][0]["padding"] = pad
    with pytest.raises(ts.GraphError, match="padding .* less than its kernel"):
        ts.model_from_json(doc)


def test_skip_reference_may_not_cross_boundary():
    layers = chain(
        ("c1", ts.CONV, {"in_channels": 3, "out_channels": 3, "kernel": 3,
                         "stride": 1, "padding": 1, "seed": 0}),
        ("r1", ts.RELU, {}),
        ("c2", ts.CONV, {"in_channels": 3, "out_channels": 3, "kernel": 3,
                         "stride": 1, "padding": 1, "seed": 1}),
        ("a", ts.ADD, {"skip_source": 0}, {"source": 2}),
    )
    # boundary at 2 puts the add's skip (layer 0) on the far side
    with pytest.raises(ts.GraphError):
        ts.make_graph("m", (3, 6, 6), layers, [("A", 2)])
    # boundary at 1 keeps the whole residual block together downstream
    m = ts.make_graph("m", (3, 6, 6), layers, [("A", 1)])
    # a hand-built graph can carry the cut make_graph refuses: the split's
    # tail then names a layer before its own input
    forged = dataclasses.replace(m, partition_points=(("A", 2),))
    with pytest.raises(ts.GraphError, match="skip_source -2 must name an earlier"):
        ts.split(forged, "A")


def test_crossing_error_names_first_point_and_its_first_crossing_layer():
    # a3 crosses P1 (it reads slot 0); a5 crosses P1 and P2 (it reads the
    # input), and layers from P1 onward read nothing lower than a5 does
    layers = chain(("r0", ts.RELU, {}), ("r1", ts.RELU, {}), ("r2", ts.RELU, {}),
                   ("a3", ts.ADD, {"skip_source": 0}), ("r4", ts.RELU, {}),
                   ("a5", ts.ADD, {"skip_source": -1}))
    cases = [([("P1", 2), ("P2", 4)], "layer 'a3' reaches across partition "
                                      "point 'P1'"),
             ([("P2", 4), ("P3", 5)], "layer 'a5' reaches across partition "
                                      "point 'P2'")]
    for points, message in cases:
        with pytest.raises(ts.GraphError) as err:
            ts.make_graph("m", (1, 4, 4), layers, points)
        assert str(err.value) == f"model 'm': {message}"


def test_split_shifts_sources_and_preserves_layers(toy4):
    for label in toy4.labels():
        b = toy4.boundary_of(label)
        head, tail = ts.split(toy4, label)
        assert len(head.layers) == b
        assert len(tail.layers) == len(toy4.layers) - b
        assert head.input_shape == toy4.input_shape
        assert tail.input_shape == toy4.layers[b - 1].output_shape
        assert tail.output_shape == toy4.output_shape
        # head keeps the earlier points, tail keeps the later ones shifted
        assert list(head.partition_points) == \
            [(lab, bb) for lab, bb in toy4.partition_points if bb < b]
        assert list(tail.partition_points) == \
            [(lab, bb - b) for lab, bb in toy4.partition_points if bb > b]


def test_split_residual_model_references():
    m = ts.build_architecture("resnet50", input_shape=(3, 64, 64))
    head, tail = ts.split(m, "Layer 3")
    # every reference in the tail must stay inside the tail or point at
    # the tail's own input
    for i, layer in enumerate(tail.layers):
        for ref in _refs(layer):
            assert -1 <= ref < i
    full = head.layers + tail.layers
    assert len(full) == len(m.layers)


def _refs(layer):
    out = []
    if layer.source is not None:
        out.append(layer.source)
    for key in ("skip_source", "map_source"):
        if key in layer.params:
            out.append(layer.params[key])
    return out


def test_json_round_trip(toy4):
    blob = json.dumps(ts.model_to_json(toy4))
    back = ts.model_from_json(json.loads(blob))
    assert back == toy4


def test_json_round_trip_residual():
    m = ts.build_architecture("efficientnetb0", input_shape=(3, 32, 32))
    back = ts.model_from_json(ts.model_to_json(m))
    assert back == m


def test_save_load_model(tmp_path, toy4):
    path = tmp_path / "m.json"
    ts.save_model(path, toy4)
    assert ts.load_model(path) == toy4


_DROP = object()


@pytest.mark.parametrize("path, value", [
    (("units", 0, "start"), _DROP),
    (("units", 0, "end"), "x"),
    (("layers", 0), 5),
    (("input_shape",), ["a"]),
    (("partition_points",), 5),
    (("partition_points", 0, "boundary"), "x"),
    (("input_shape",), [1, 16.7, 16]),
    (("input_shape",), [True, 16, 16]),
    (("partition_points", 0, "boundary"), 2.9),
    (("layers", 1, "source"), "x"),
    (("layers", 0, "name"), [1]),
    (("partition_points", 0, "label"), {"a": 1}),
    (("layers", 0, "seed"), -1),
    (("units", 0, "counts"), [["conv", "x"], ["conv", 1]]),
    (("units", 0, "counts"), {"ab": 1}),
    (("units", 0, "counts"), [["conv", -5]]),
    (("layers", 0, "kernel"), 3.0),
    (("layers", 0, "kernel"), True),
    (("layers", 0, "kernel"), "3"),
    (("layers", -1, "units"), 0),
    (("layers", -1, "units"), -1),
    (("layers", 0, "init"), "he"),
], ids=["unit-without-start", "unit-end-not-integer", "layer-not-object",
        "input-shape-not-numeric", "partition-points-not-list",
        "boundary-not-integer", "float-dimension", "bool-dimension",
        "float-boundary", "source-not-integer", "name-not-string",
        "label-not-string", "negative-seed", "unit-count-not-integer",
        "unit-counts-not-list", "unit-count-negative", "float-kernel",
        "bool-kernel", "string-kernel", "zero-units", "negative-units",
        "conv-init"])
def test_model_from_json_rejects_malformed_documents(toy4, path, value):
    doc = ts.model_to_json(toy4)
    *parents, key = path
    target = doc
    for k in parents:
        target = target[k]
    if value is _DROP:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(ts.GraphError) as err:
        ts.model_from_json(doc)
    if key == "kernel":
        assert "parameter 'kernel' must be an integer" in str(err.value)


def residual_model():
    conv = {"in_channels": 3, "out_channels": 3, "kernel": 3, "stride": 1,
            "padding": 1}
    layers = chain(("c1", ts.CONV, dict(conv, seed=0)),
                   ("r1", ts.RELU, {}),
                   ("c2", ts.CONV, dict(conv, seed=1), {"source": 0}),
                   ("a", ts.ADD, {"skip_source": 0}))
    return ts.make_graph("res", (3, 6, 6), layers, [("A", 1)])


@pytest.mark.parametrize("field", ["kernel", "source", "skip_source"])
def test_numpy_integer_layer_fields_load_as_int(field):
    m = residual_model()
    doc = ts.model_to_json(m)
    rec = next(r for r in doc["layers"] if field in r)
    rec[field] = np.int64(rec[field])
    back = ts.model_from_json(doc)
    assert back == m
    layer = next(l for l in back.layers if l.name == rec["name"])
    got = layer.source if field == "source" else layer.params[field]
    assert type(got) is int
    assert json.dumps(ts.model_to_json(back)) == json.dumps(ts.model_to_json(m))


def test_unit_counts_run_length():
    m = ts.build_architecture("efficientnetb0")
    last = [a for a in ts.enumerate_partitions(m)
            if a.boundary_label == "Layer 8"][0]
    # the two stem/head convs around the MBConv run stay distinct
    assert last.enclave_summary == "1 conv + 16 MBConv + 1 conv"
    assert last.accelerator_summary == "1 FC"


def test_mix_seed_spread():
    vals = {ts.mix_seed(0, i) for i in range(512)}
    assert len(vals) == 512
    assert ts.mix_seed(1, 2) != ts.mix_seed(2, 1)


def test_layerspec_frozen():
    spec = LayerSpec(name="r", kind=ts.RELU, params={}, output_shape=(1, 2, 2))
    with pytest.raises(Exception):
        spec.name = "q"
