import numpy as np
import pytest

import teesplit as ts
from teesplit import engine
from teesplit.graph import LayerSpec

from conftest import smooth_images


def labeled(vals):
    return [(f"B{i + 1}", v) for i, v in enumerate(vals)]


# ---------------------------------------------------------------------------
# selection rule

def test_select_monotone_drop():
    assert ts.select_optimal_partition(
        labeled([0.5, 0.4, 0.15, 0.1, 0.08]), 0.2, 0.05) == "B3"


def test_select_dip_does_not_qualify():
    assert ts.select_optimal_partition(
        labeled([0.5, 0.15, 0.3, 0.1, 0.08]), 0.2, 0.05) == "B4"


def test_select_hover_within_slack():
    assert ts.select_optimal_partition(
        labeled([0.19, 0.22, 0.21]), 0.2, 0.05) == "B1"


def test_select_strict_slack():
    assert ts.select_optimal_partition(labeled([0.19, 0.22]), 0.2, 0.0) is None


def test_select_none_when_all_leak():
    assert ts.select_optimal_partition(labeled([0.5, 0.4, 0.3]), 0.2) is None


def test_select_last_point_qualifies_alone():
    assert ts.select_optimal_partition(labeled([0.9, 0.8, 0.1]), 0.2) == "B3"


def test_select_never_returns_score_above_threshold():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        vals = list(np.round(rng.uniform(0, 0.5, n), 3))
        t = float(rng.uniform(0.05, 0.4))
        slack = float(rng.uniform(0, 0.1))
        got = ts.select_optimal_partition(labeled(vals), t, slack)
        if got is not None:
            i = int(got[1:]) - 1
            assert vals[i] <= t
            assert all(v <= t + slack for v in vals[i:])
        else:
            # no i may satisfy the full rule
            for i in range(n):
                ok = vals[i] <= t and all(v <= t + slack for v in vals[i:])
                assert not ok


def test_select_validates_inputs():
    with pytest.raises(ts.PrivacyError):
        ts.select_optimal_partition([], 0.2)
    with pytest.raises(ts.PrivacyError):
        ts.select_optimal_partition(labeled([0.1]), 0.0)
    with pytest.raises(ts.PrivacyError):
        ts.select_optimal_partition(labeled([0.1]), 0.2, -0.01)
    with pytest.raises(ts.PrivacyError):
        ts.select_optimal_partition(labeled([0.1]), 0.2, float("nan"))


# ---------------------------------------------------------------------------
# inversion attack

def shallow_wide_model():
    # one overcomplete conv keeps the first boundary near-invertible
    layers = [
        LayerSpec(name="c1", kind=ts.CONV,
                  params={"in_channels": 1, "out_channels": 8, "kernel": 3,
                          "stride": 1, "padding": 1, "seed": 11},
                  output_shape=()),
        LayerSpec(name="r1", kind=ts.RELU, params={}, output_shape=()),
        LayerSpec(name="c2", kind=ts.CONV,
                  params={"in_channels": 8, "out_channels": 4, "kernel": 3,
                          "stride": 2, "padding": 1, "seed": 12},
                  output_shape=()),
        LayerSpec(name="f", kind=ts.FLATTEN, params={}, output_shape=()),
    ]
    return ts.make_graph("wide", (1, 12, 12), layers, [("A", 1), ("B", 3)])


def test_inversion_recovers_easy_boundary():
    m = shallow_wide_model()
    x = smooth_images(1, (1, 12, 12), seed=3)[0]
    f = ts.forward_until(m, x, "A")
    cfg = ts.AttackConfig(steps=300, step_size=0.1, init_seed=0)
    r = ts.invert_feature_map(m, "A", f, cfg)
    assert float(np.max(np.abs(r - x))) < 1e-3


def test_inversion_loss_nonincreasing():
    m = shallow_wide_model()
    x = smooth_images(1, (1, 12, 12), seed=4)[0]
    f = ts.forward_until(m, x, "B")
    losses = []
    cfg = ts.AttackConfig(steps=120, step_size=0.05, init_seed=1)
    ts.invert_feature_map(m, "B", f, cfg, on_step=lambda s, l: losses.append(l))
    assert losses, "no steps recorded"
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))


def test_inversion_deterministic():
    m = shallow_wide_model()
    x = smooth_images(1, (1, 12, 12), seed=5)[0]
    f = ts.forward_until(m, x, "B")
    cfg = ts.AttackConfig(steps=60, step_size=0.05, init_seed=9)
    r1 = ts.invert_feature_map(m, "B", f, cfg)
    r2 = ts.invert_feature_map(m, "B", f, cfg)
    assert r1.tobytes() == r2.tobytes()


def test_inversion_seed_changes_start():
    m = shallow_wide_model()
    x = smooth_images(1, (1, 12, 12), seed=6)[0]
    f = ts.forward_until(m, x, "B")
    a = ts.invert_feature_map(m, "B", f, ts.AttackConfig(steps=5, init_seed=1))
    b = ts.invert_feature_map(m, "B", f, ts.AttackConfig(steps=5, init_seed=2))
    assert a.tobytes() != b.tobytes()


def test_inversion_respects_pixel_bounds():
    m = shallow_wide_model()
    x = smooth_images(1, (1, 12, 12), seed=7)[0]
    f = ts.forward_until(m, x, "B")
    cfg = ts.AttackConfig(steps=40, step_size=0.5, init_seed=3,
                          pixel_bounds=(0.2, 0.6))
    r = ts.invert_feature_map(m, "B", f, cfg)
    assert float(r.min()) >= 0.2 and float(r.max()) <= 0.6


def test_inversion_divergence_reports_step():
    m = shallow_wide_model()
    huge = np.full(m.layers[2].output_shape, 1e200)
    with pytest.raises(ts.InversionDivergenceError) as exc:
        ts.invert_feature_map(m, "B", huge, ts.AttackConfig(steps=10))
    # the initial loss already overflows, before any step is taken
    assert exc.value.step == 0


def oracle_inversion(model, label, exposed, cfg, on_step):
    """The attack loop written against the public engine API only: every
    step re-runs the prefix for the accepted point's input gradient."""
    lo, hi = cfg.pixel_bounds
    x = np.random.default_rng(cfg.init_seed).uniform(lo, hi, model.input_shape)

    def loss_of(candidate):
        feat = ts.forward_until(model, candidate, label)
        with np.errstate(over="ignore", invalid="ignore"):
            return feat, float(np.sum((feat - exposed) ** 2))

    feat, loss = loss_of(x)
    step_size, stale = cfg.step_size, 0
    for step in range(1, cfg.steps + 1):
        grad = ts.input_gradient(model, label, x, 2.0 * (feat - exposed))
        improved = False
        while step_size > 1e-14:
            cand = np.clip(x - step_size * grad, lo, hi)
            cand_feat, cand_loss = loss_of(cand)
            if cand_loss <= loss:
                x, feat, loss = cand, cand_feat, cand_loss
                improved = True
                break
            step_size *= 0.5
        on_step(step, loss)
        stale = 0 if improved else stale + 1
        if stale >= 20:
            break
    return x


@pytest.mark.parametrize("which", ["toy4", "wide", "resnet50", "efficientnetb0"])
def test_inversion_matches_public_api_oracle(which, monkeypatch):
    if which in ("toy4", "wide"):
        m = (ts.build_toy_cnn(points=4, input_shape=(1, 16, 16), seed=3)
             if which == "toy4" else shallow_wide_model())
        # a large first step forces line-search halvings; a step below the
        # 1e-14 floor never moves, so the attack stops after 20 stale steps
        cases = [(label, steps, step_size) for label in m.labels()
                 for steps, step_size in [(25, 2.0), (30, 1e-15)]]
    else:
        # ResNet-50's Layer 2 ends in a residual Add and its ReLU; the
        # EfficientNet-B0 prefixes hold depthwise conv, batch norm, Swish
        # and a squeeze-excitation block (GAP, FC, Sigmoid, channel gate),
        # ending after that block (Layer 2) or right after an Add (Layer 3)
        m = ts.build_architecture(which, (3, 32, 32), seed=1)
        cases = {"resnet50": [("Layer 2", 4, 2.0)],
                 "efficientnetb0": [("Layer 2", 4, 2.0),
                                    ("Layer 3", 4, 50.0)]}[which]
    x = smooth_images(1, m.input_shape, seed=12)[0]
    candidates = []
    oracle_forward = ts.forward_until
    monkeypatch.setattr(ts, "forward_until", lambda *args: (
        candidates.append(args), oracle_forward(*args))[1])
    for label, steps, step_size in cases:
        bi = m.labels().index(label)
        f = oracle_forward(m, x, label)
        cfg = ts.AttackConfig(steps=steps, step_size=step_size, init_seed=bi)
        got, want = [], []
        r = ts.invert_feature_map(m, label, f, cfg,
                                  on_step=lambda s, l: got.append((s, l)))
        candidates.clear()
        r_oracle = oracle_inversion(m, label, f, cfg,
                                    lambda s, l: want.append((s, l)))
        assert r.tobytes() == r_oracle.tobytes(), (label, step_size)
        assert got == want, (label, step_size)
        if step_size > 1.0:  # the start point, then more than one per step
            assert len(candidates) > 1 + len(want), (label, len(candidates))


@pytest.mark.parametrize("which", ["toy4", "wide"])
def test_inversion_refusing_after_accepted_steps_matches_oracle(which,
                                                               monkeypatch):
    # from the 7th evaluation of a feature map on, each is pushed far from
    # the target, in the attack's arena and in the oracle's forward_until
    # alike: after some accepted steps every candidate is refused, the step
    # size halves to the floor, and 20 stale steps stop the attack. The
    # attack takes a gradient only at step 1 and after an accepted step
    m = (ts.build_toy_cnn(points=4, input_shape=(1, 16, 16), seed=3)
         if which == "toy4" else shallow_wide_model())
    x = smooth_images(1, m.input_shape, seed=13)[0]
    oracle_forward = ts.forward_until
    arena_run, arena_gradient = engine._Arena.run, engine._Arena.gradient
    evals, grads = [0], [0]

    def pushed(feat):
        evals[0] += 1
        if evals[0] > 6:
            feat += 1e3
        return feat

    def counted(arena):
        grads[0] += 1
        return arena_gradient(arena)

    monkeypatch.setattr(ts, "forward_until",
                        lambda *args: pushed(oracle_forward(*args)))
    monkeypatch.setattr(engine._Arena, "run",
                        lambda arena: (arena_run(arena), pushed(arena.feat)))
    monkeypatch.setattr(engine._Arena, "gradient", counted)
    for bi, label in enumerate(m.labels()):
        f = oracle_forward(m, x, label)
        cfg = ts.AttackConfig(steps=40, step_size=0.5, init_seed=bi)
        got, want = [], []
        evals[0] = grads[0] = 0
        r = ts.invert_feature_map(m, label, f, cfg,
                                  on_step=lambda s, l: got.append((s, l)))
        # the last accepted step is the one before the first of 20 refused
        accepted = len(got) - 20
        assert accepted >= 1 and len(got) < cfg.steps, (label, got)
        assert grads[0] == accepted + 1, (label, grads[0], accepted)
        evals[0] = 0
        r_oracle = oracle_inversion(m, label, f, cfg,
                                    lambda s, l: want.append((s, l)))
        assert r.tobytes() == r_oracle.tobytes(), label
        assert got == want, label


@pytest.mark.parametrize("fields", [
    pytest.param(dict(steps=steps, step_size=step_size),
                 id=f"{steps}-{step_size}")
    for steps, step_size in [
        (0, 0.05), (-3, 0.05), (2.5, 0.05), (True, 0.05),
        (5, 0.0), (5, -1.0), (5, float("nan")), (5, float("inf"))]
] + [
    pytest.param(dict(pixel_bounds=bounds),
                 id=f"bounds={bounds}".replace(" ", ""))
    for bounds in [(0.0, float("inf")), (-float("inf"), 0.0), (0, 1, 2),
                   (1.0, 1.0), (1.0, 0.0), (0.0, float("nan")), (0.0,),
                   None, ("0", "1")]
] + [
    pytest.param(dict(init_seed=seed), id=f"seed={seed}")
    for seed in [-1, 1.5, True, None]
])
def test_inversion_rejects_bad_attack_settings(fields, monkeypatch):
    m = shallow_wide_model()
    cfg = ts.AttackConfig(**fields)

    def no_work(*args):
        raise AssertionError("the attack bound its prefix before checking")

    monkeypatch.setattr(engine, "_arena", no_work)
    with pytest.raises(ts.PrivacyError):
        ts.invert_feature_map(m, "A", np.zeros(m.layers[0].output_shape), cfg)


def test_inversion_rejects_wrong_target_shape():
    m = shallow_wide_model()
    with pytest.raises(ts.TensorError):
        ts.invert_feature_map(m, "A", np.zeros((2, 2, 2)))


# ---------------------------------------------------------------------------
# end-to-end privacy evaluation

def test_evaluate_privacy_report_and_trend():
    m = ts.build_toy_cnn(points=4, input_shape=(1, 16, 16), seed=9)
    images = smooth_images(4, (1, 16, 16), seed=8)
    cfg = ts.AttackConfig(steps=100, step_size=0.1, init_seed=0)
    rep = ts.evaluate_privacy(m, images, cfg)
    assert rep.labels() == m.labels()
    assert all(len(samples) == len(images) for _, _, samples in rep.per_point)
    means = [mean for _, mean, _ in rep.per_point]
    assert means[-1] < means[0]
    for _, mean, samples in rep.per_point:
        assert mean == pytest.approx(float(np.mean(samples)), abs=1e-12)


def test_evaluate_privacy_deterministic():
    m = ts.build_toy_cnn(points=3, input_shape=(1, 16, 16), seed=2)
    images = smooth_images(2, (1, 16, 16), seed=1)
    cfg = ts.AttackConfig(steps=50, step_size=0.1, init_seed=4)
    a = ts.evaluate_privacy(m, images, cfg)
    b = ts.evaluate_privacy(m, images, cfg)
    assert a.per_point == b.per_point
    assert a.optimal_boundary == b.optimal_boundary


def test_evaluate_privacy_requires_images():
    m = ts.build_toy_cnn(points=3, input_shape=(1, 16, 16), seed=2)
    with pytest.raises(ts.PrivacyError):
        ts.evaluate_privacy(m, [], ts.AttackConfig(steps=5))


def test_evaluate_privacy_checks_rule_before_attacking(monkeypatch):
    m = ts.build_toy_cnn(points=3, input_shape=(1, 16, 16), seed=2)
    images = smooth_images(1, (1, 16, 16), seed=1)

    def no_attack(*args):
        raise AssertionError("attack ran before the rule was checked")

    monkeypatch.setattr(ts.privacy, "invert_feature_map", no_attack)
    for threshold, slack in ((0.0, 0.05), (0.2, float("nan"))):
        with pytest.raises(ts.PrivacyError):
            ts.evaluate_privacy(m, images, ts.AttackConfig(steps=5),
                                threshold=threshold, slack=slack)


def test_report_csv_round_trip():
    m = ts.build_toy_cnn(points=3, input_shape=(1, 16, 16), seed=2)
    images = smooth_images(2, (1, 16, 16), seed=3)
    rep = ts.evaluate_privacy(m, images, ts.AttackConfig(steps=40, init_seed=0))
    text = ts.report_to_csv(rep)
    back = ts.scores_from_csv(text)
    assert [lab for lab, _ in back] == rep.labels()
    for (lab, mean), (_, want, _) in zip(back, rep.per_point):
        assert mean == pytest.approx(want, abs=1e-9)


def test_scores_from_csv_rejects_garbage():
    with pytest.raises(ts.PrivacyError):
        ts.scores_from_csv("")
    with pytest.raises(ts.PrivacyError):
        ts.scores_from_csv("a,b\n1,2\n")
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ts.PrivacyError):
            ts.scores_from_csv(f"label,mean_ssim\nL1,0.1\nL2,{bad}\n")
