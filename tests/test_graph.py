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
    ts.make_graph("m", (3, 6, 6), layers, [("A", 1)])


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
    (("layers", 1, "source"), "x"),
    (("layers", 0, "name"), [1]),
    (("partition_points", 0, "label"), {"a": 1}),
    (("layers", 0, "seed"), -1),
], ids=["unit-without-start", "unit-end-not-integer", "layer-not-object",
        "input-shape-not-numeric", "partition-points-not-list",
        "boundary-not-integer", "source-not-integer", "name-not-string",
        "label-not-string", "negative-seed"])
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
    with pytest.raises(ts.GraphError):
        ts.model_from_json(doc)


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
