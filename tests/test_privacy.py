from dataclasses import replace

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


@pytest.mark.parametrize("threshold, slack", [
    pytest.param(threshold, slack, id=name) for threshold, slack, name in [
        ("0.2", 0.05, "str-threshold"), (None, 0.05, "None-threshold"),
        (0.2, "0.05", "str-slack"), (0.2, None, "None-slack"),
        (np.array([0.2, 0.3]), 0.05, "array-threshold")]])
def test_rule_rejects_values_that_are_not_numbers(threshold, slack):
    with pytest.raises(ts.PrivacyError):
        ts.select_optimal_partition(labeled([0.1]), threshold, slack)
    m = ts.build_toy_cnn(points=3, input_shape=(1, 16, 16), seed=2)
    with pytest.raises(ts.PrivacyError):
        ts.evaluate_privacy(m, smooth_images(1, (1, 16, 16), seed=1),
                            ts.AttackConfig(steps=5), threshold, slack)


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


@pytest.fixture
def zero_conv(monkeypatch):
    """Materializes every conv's kernel as zeros for one test, with the
    shipped zero bias, so a prefix through a conv is constant and its input
    gradient exactly zero."""
    materialize = engine._materialize

    def zero(layer):
        w = materialize(layer)
        if layer.kind == ts.CONV:
            w["w"] = np.zeros(w["w"].shape)
        return w

    ts.clear_weight_cache()
    monkeypatch.setattr(engine, "_materialize", zero)
    yield
    ts.clear_weight_cache()


def test_zero_gradient_attack_accepts_equal_loss_moves(zero_conv):
    # every move leaves x and the loss as they are: a candidate whose loss
    # equals the accepted one is accepted, so the step never halves, no
    # step is stale and the attack takes all its steps from its start point
    m = ts.build_toy_cnn(points=4, input_shape=(1, 16, 16), seed=3)
    f = np.random.default_rng(8).uniform(
        0.0, 1.0, m.layers[m.boundary_of("L2") - 1].output_shape)
    cfg = ts.AttackConfig(steps=30, step_size=0.05, init_seed=4)
    got, want = [], []
    r = ts.invert_feature_map(m, "L2", f, cfg,
                              on_step=lambda s, l: got.append((s, l)))
    start = np.random.default_rng(4).uniform(0.0, 1.0, m.input_shape)
    assert [s for s, _ in got] == list(range(1, 31))
    assert r.tobytes() == start.tobytes()
    r_oracle = oracle_inversion(m, "L2", f, cfg,
                                lambda s, l: want.append((s, l)))
    assert r.tobytes() == r_oracle.tobytes()
    assert got == want


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
        (5, 0.0), (5, -1.0), (5, float("nan")), (5, float("inf")),
        (5, "0.1"), (5, None)]
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


@pytest.mark.parametrize("seeds", [
    pytest.param(seeds, id=f"seeds={seeds}".replace(" ", ""))
    for seeds in [(1, 2), (1, 2, 3, 4), (1, -1, 2), (1, True, 2), (1, 2.0, 3),
                  (1, None, 3), 5, "123", None]
])
def test_stacked_inversion_rejects_bad_seeds(seeds, monkeypatch):
    # a stack of three maps needs three integer seeds >= 0, checked before
    # the prefix is bound
    m = shallow_wide_model()

    def no_work(*args):
        raise AssertionError("the attack bound its prefix before checking")

    monkeypatch.setattr(engine, "_arena", no_work)
    maps = np.zeros((3,) + m.layers[0].output_shape)
    with pytest.raises(ts.PrivacyError):
        ts.invert_feature_map(m, ("A",), (maps,),
                              ts.AttackConfig(init_seed=(seeds,)))
    # and a single map takes one integer seed, not a tuple
    with pytest.raises(ts.PrivacyError):
        ts.invert_feature_map(m, "A", maps[0], ts.AttackConfig(init_seed=(1,)))


def pushing_run(monkeypatch, limits, push):
    """Replace ``engine._Arena.run``: once map r of a stack has run on
    ``limits[r]`` distinct inputs, every new input it runs on gets its
    boundary activation raised by ``push``. A stack's maps are its arenas'
    rows counted in the order the arenas first run (an arena over several
    boundaries lays them out deepest first). The rule reads only a
    map's own inputs, which a stack's row and a single map's attack see in
    the same order (a row re-run on an input it ran before is treated as
    before), so stacked and single attacks meet it alike. And
    ``engine._Arena.gradient`` raises, as for a non-finite gradient,
    whenever a row's last run was pushed, whatever its cotangent. Returns a
    function that starts the count over with new limits."""
    arena_run, arena_gradient = engine._Arena.run, engine._Arena.gradient
    state = {"limits": limits, "seen": {}, "arenas": []}

    def run(arena):
        arena_run(arena)
        if not any(a is arena for a in state["arenas"]):
            state["arenas"].append(arena)
        first = 0
        for a in state["arenas"]:
            if a is arena:
                break
            first += len(a.x)
        pushed = []
        feats = (row for feat in arena.feats for row in feat)
        for r, (x, feat) in enumerate(zip(arena.x, feats), first):
            seen = state["seen"].setdefault(r, [])
            if x.tobytes() not in seen:
                seen.append(x.tobytes())
            pushed.append(seen.index(x.tobytes()) >= state["limits"][r])
            if pushed[-1]:
                feat += push
        arena.pushed = pushed

    def gradient(arena):
        if any(arena.pushed):
            raise engine.EngineError("non-finite gradient")
        return arena_gradient(arena)

    def reset(limits):
        state.update(limits=limits, seen={}, arenas=[])

    monkeypatch.setattr(engine._Arena, "run", run)
    monkeypatch.setattr(engine._Arena, "gradient", gradient)
    return reset


def run_stack_and_singles(m, label, maps, cfg, reset=None, limits=None):
    """The stacked attack's result and summed losses, and each map's single
    attack's result and losses, seeded ``cfg.init_seed[i]``."""
    got = []
    if reset:
        reset(limits)
    stack = ts.invert_feature_map(
        m, (label,), (maps,), replace(cfg, init_seed=(cfg.init_seed,)),
        on_step=lambda s, l: got.append((s, l)))[0]
    singles = []
    for i, (f, seed) in enumerate(zip(maps, cfg.init_seed)):
        if reset:
            reset([limits[i]])
        losses = []
        r = ts.invert_feature_map(m, label, f, replace(cfg, init_seed=seed),
                                  on_step=lambda s, l: losses.append(l))
        singles.append((r, losses))
    return stack, got, singles


def assert_stack_matches_singles(stack, got, singles):
    assert stack.shape == (len(singles),) + singles[0][0].shape
    for row, (r, _) in zip(stack, singles):
        assert row.tobytes() == r.tobytes()
    # the stack steps until its last map stops; a stopped map adds its
    # last loss, and the sum runs left to right in map order
    longest = max(len(losses) for _, losses in singles)
    want = [(t, sum(losses[min(t, len(losses)) - 1] for _, losses in singles))
            for t in range(1, longest + 1)]
    assert got == want


@pytest.mark.parametrize("which", ["toy4", "wide"])
def test_stacked_inversion_matches_single_runs(which):
    m = (ts.build_toy_cnn(points=4, input_shape=(1, 16, 16), seed=3)
         if which == "toy4" else shallow_wide_model())
    images = smooth_images(3, m.input_shape, seed=14)
    # a large first step halves a different number of times per map, so
    # line-search rounds run with some rows settled; below the 1e-14 floor
    # no map ever moves and all stop together after 20 stale steps
    for label in m.labels():
        maps = np.stack([ts.forward_until(m, x, label) for x in images])
        for steps, step_size in [(25, 2.0), (12, 0.05), (30, 1e-15)]:
            cfg = ts.AttackConfig(steps=steps, step_size=step_size,
                                  init_seed=(5, 0, 17))
            stack, got, singles = run_stack_and_singles(m, label, maps, cfg)
            assert_stack_matches_singles(stack, got, singles)
            if step_size == 2.0:
                assert len({len(l) for _, l in singles}) == 1  # all ran on


def test_stacked_inversion_with_a_negative_zero_bound():
    # a stack steps its settled rows by 0 * grad, which keeps x bit for bit
    # only while x holds no -0.0: a -0.0 pixel bound is read as +0.0, so
    # pixels clipped to it are +0.0, alone and in a stack
    m = ts.build_toy_cnn(points=4, input_shape=(1, 16, 16), seed=3)
    images = smooth_images(3, m.input_shape, seed=18)
    for bounds in [(-0.0, 1.0), (-1.0, -0.0)]:
        maps = np.stack([ts.forward_until(m, x - 0.5 - 0.5 * (bounds[1] == 0),
                                          "L2") for x in images])
        cfg = ts.AttackConfig(steps=25, step_size=2.0, init_seed=(5, 0, 17),
                              pixel_bounds=bounds)
        stack, got, singles = run_stack_and_singles(m, "L2", maps, cfg)
        assert_stack_matches_singles(stack, got, singles)
        zeros = stack[stack == 0.0]
        assert zeros.size and not np.signbit(zeros).any(), bounds


@pytest.mark.parametrize("which", ["toy4", "wide"])
@pytest.mark.parametrize("limits", [[np.inf, 5, np.inf], [4, 9, 6]])
def test_stacked_inversion_stops_each_map_on_its_own(which, limits,
                                                     monkeypatch):
    # a map whose limit is finite has its feature maps pushed far from its
    # target from its limit-th distinct input on: after a few accepted
    # steps it refuses every candidate, halves its step to the floor and
    # stops 20 steps later, while the others run all 40 steps (maps 0 and
    # 2) or stop after their own last accepted step. A backward over a row
    # whose last run was pushed is also non-finite, as when a candidate
    # overflows inside the prefix but not at the boundary: a map at the
    # floor takes no gradient, so its single attack never meets that, and
    # neither may the stack's
    m = (ts.build_toy_cnn(points=4, input_shape=(1, 16, 16), seed=3)
         if which == "toy4" else shallow_wide_model())
    images = smooth_images(3, m.input_shape, seed=15)
    reset = pushing_run(monkeypatch, [np.inf] * 3, 1e3)
    for label in m.labels():
        maps = np.stack([ts.forward_until(m, x, label) for x in images])
        cfg = ts.AttackConfig(steps=40, step_size=0.5, init_seed=(3, 8, 1))
        stack, got, singles = run_stack_and_singles(m, label, maps, cfg,
                                                    reset, limits)
        lengths = [len(losses) for _, losses in singles]
        assert all(k == 40 if lim == np.inf else 20 < k < 40
                   for k, lim in zip(lengths, limits)), (label, lengths)
        assert_stack_matches_singles(stack, got, singles)


def test_stacked_inversion_names_the_diverging_map(monkeypatch):
    # map 2's feature maps overflow the loss from its 4th distinct input on
    m = ts.build_toy_cnn(points=4, input_shape=(1, 16, 16), seed=3)
    images = smooth_images(3, m.input_shape, seed=16)
    reset = pushing_run(monkeypatch, [np.inf, np.inf, 3], 1e200)
    maps = np.stack([ts.forward_until(m, x, "L2") for x in images])
    cfg = ts.AttackConfig(steps=30, step_size=0.05, init_seed=((0, 1, 2),))
    with pytest.raises(ts.InversionDivergenceError) as stacked:
        ts.invert_feature_map(m, ("L2",), (maps,), cfg)
    reset([3])
    with pytest.raises(ts.InversionDivergenceError) as single:
        ts.invert_feature_map(m, "L2", maps[2], replace(cfg, init_seed=2))
    assert stacked.value.image == 2 and single.value.image == 0
    assert stacked.value.step == single.value.step > 0
    assert "image 2" in str(stacked.value)
    # a map whose start already overflows is named at step 0
    maps[1] = 1e200
    reset([np.inf] * 3)
    with pytest.raises(ts.InversionDivergenceError) as start:
        ts.invert_feature_map(m, ("L2",), (maps,), cfg)
    assert (start.value.step, start.value.image) == (0, 1)


def test_one_call_binds_one_arena_whatever_the_budget_says(monkeypatch):
    # with room for two maps' activations per arena, a call over five maps
    # still binds them all in one arena (evaluate_privacy packs, a call
    # does not); results and summed losses are the single runs', with map 1
    # stopping early
    m = ts.build_toy_cnn(points=4, input_shape=(1, 16, 16), seed=3)
    images = smooth_images(5, m.input_shape, seed=17)
    bind, binds = engine._arena, []
    monkeypatch.setattr(engine, "_arena", lambda *args: (
        binds.append(args[1]), bind(*args))[1])
    reset = pushing_run(monkeypatch, [np.inf] * 5, 1e3)
    limits = [np.inf, 5, np.inf, np.inf, np.inf]
    for label in m.labels():
        monkeypatch.setattr(ts.privacy, "_ARENA_BYTES", 2 * (
            ts.privacy._activation_bytes(m, m.boundary_of(label))) + 7)
        maps = np.stack([ts.forward_until(m, x, label) for x in images])
        cfg = ts.AttackConfig(steps=40, step_size=0.5,
                              init_seed=(3, 8, 1, 0, 11))
        binds.clear()
        stack, got, singles = run_stack_and_singles(m, label, maps, cfg,
                                                    reset, limits)
        assert binds == [((label, n),) for n in [5] + [1] * 5], \
            (label, binds)
        lengths = [len(losses) for _, losses in singles]
        assert lengths[1] < 40 and max(lengths) == 40, (label, lengths)
        assert_stack_matches_singles(stack, got, singles)


def test_evaluate_privacy_attacks_each_boundary_in_one_call(monkeypatch):
    # the call contract the benchmark's inversion timer relies on:
    # evaluate_privacy reaches invert_feature_map through the privacy
    # module's global, once per evaluation of a model whose maps share
    # arenas, as a small toy's do, with four positional arguments: every
    # label, one stack of the images' maps per label, and one mix_seed per
    # map
    m = ts.build_toy_cnn(points=3, input_shape=(1, 16, 16), seed=2)
    images = smooth_images(3, (1, 16, 16), seed=4)
    cfg = ts.AttackConfig(steps=5, init_seed=6)
    inner, calls = ts.privacy.invert_feature_map, []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(ts.privacy, "invert_feature_map", recorded)
    rep = ts.evaluate_privacy(m, images, cfg)
    assert len(calls) == 1
    (model, labels, stacks, sub), kwargs = calls[0]
    assert kwargs == {} and model is m and labels == tuple(m.labels())
    assert [maps.shape for maps in stacks] == [
        (3,) + m.layers[m.boundary_of(label) - 1].output_shape
        for label in labels]
    for label, maps in zip(labels, stacks):
        for img, f in zip(images, maps):
            assert f.tobytes() == ts.forward_until(m, img, label).tobytes()
    assert sub == replace(cfg, init_seed=tuple(
        tuple(ts.mix_seed(6, bi, ii) for ii in range(3)) for bi in range(3)))
    monkeypatch.setattr(ts.privacy, "invert_feature_map", inner)
    assert ts.evaluate_privacy(m, images, cfg) == rep


def test_evaluate_privacy_calls_once_per_arena(monkeypatch):
    # with room for L3's three maps in one arena, and for L2's three and an
    # L1 map in one arena over several boundaries, toy3's maps pack into
    # [L3 x 3], [L2 x 3, L1 x 1], [L1 x 2]: each arena is attacked in a
    # call of its own, its labels in point order, holding only its own
    # maps with their images' seeds, and the report is the one of a single
    # call
    m = ts.build_toy_cnn(points=3, input_shape=(1, 16, 16), seed=2)
    images = smooth_images(3, (1, 16, 16), seed=4)
    cfg = ts.AttackConfig(steps=5, init_seed=6)
    rep = ts.evaluate_privacy(m, images, cfg)
    cost = {label: ts.privacy._activation_bytes(m, m.boundary_of(label))
            for label in m.labels()}
    monkeypatch.setattr(ts.privacy, "_ARENA_BYTES", 3 * cost["L3"])
    monkeypatch.setattr(ts.privacy, "_RAGGED_BYTES",
                        3 * cost["L2"] + cost["L1"])
    inner, calls = ts.privacy.invert_feature_map, []

    def recorded(model, labels, stacks, sub):
        calls.append((labels, [len(maps) for maps in stacks], sub.init_seed))
        return inner(model, labels, stacks, sub)

    def seeds(bi, indices):
        return tuple(ts.mix_seed(6, bi, ii) for ii in indices)

    monkeypatch.setattr(ts.privacy, "invert_feature_map", recorded)
    assert ts.evaluate_privacy(m, images, cfg) == rep
    assert calls == [
        (("L3",), [3], (seeds(2, range(3)),)),
        (("L1", "L2"), [1, 3], (seeds(0, [0]), seeds(1, range(3)))),
        (("L1",), [2], (seeds(0, [1, 2]),))]


def test_evaluate_privacy_names_the_diverging_image(monkeypatch):
    # with each map in an arena of its own, image 2's map at L2 overflows
    # the loss at its start: the error names the image's index among the
    # images, not its row in its arena's call
    m = ts.build_toy_cnn(points=4, input_shape=(1, 16, 16), seed=3)
    images = smooth_images(3, m.input_shape, seed=21)
    monkeypatch.setattr(ts.privacy, "_ARENA_BYTES", 1)
    monkeypatch.setattr(ts.privacy, "_RAGGED_BYTES", 1)
    forward_until = engine.forward_until

    def pushed(model, x, label):
        feat = forward_until(model, x, label)
        if label == "L2" and x.tobytes() == images[2].tobytes():
            feat = np.full(feat.shape, 1e200)
        return feat

    monkeypatch.setattr(engine, "forward_until", pushed)
    with pytest.raises(ts.InversionDivergenceError) as err:
        ts.evaluate_privacy(m, images, ts.AttackConfig(steps=2))
    assert (err.value.image, err.value.boundary) == (2, "L2")
    assert err.value.step == 0
    assert "image 2 at boundary 'L2'" in str(err.value)


def test_inversions_at_several_boundaries_pack_rows_deepest_first(
        monkeypatch):
    # toy4's four boundaries, three maps each, given shallowest first: the
    # rows are laid out deepest first in one arena, whatever _ARENA_BYTES
    # and _RAGGED_BYTES say, and each map's result and the summed losses
    # (labels, then stack order) are those of its attack alone; map 1 at
    # L2 stops early
    m = ts.build_toy_cnn(points=4, input_shape=(1, 16, 16), seed=3)
    images = smooth_images(3, m.input_shape, seed=19)
    labels = ("L1", "L2", "L3", "L4")
    cost = {label: ts.privacy._activation_bytes(m, m.boundary_of(label))
            for label in labels}
    assert [cost[label] for label in labels] == [34816, 47104, 49664, 50688]
    monkeypatch.setattr(ts.privacy, "_ARENA_BYTES", 2 * cost["L4"] + 7)
    monkeypatch.setattr(ts.privacy, "_RAGGED_BYTES",
                        cost["L4"] + cost["L3"] + 7)
    bind, binds = engine._arena, []
    monkeypatch.setattr(engine, "_arena", lambda *args: (
        binds.append(args[1]), bind(*args))[1])
    stacks = tuple(np.stack([ts.forward_until(m, x, label) for x in images])
                   for label in labels)
    seeds = ((4, 0, 9), (1, 2, 3), (7, 7, 5), (0, 11, 6))
    limits = [np.inf] * 12
    limits[7] = 5  # deepest first: L4's rows are 0-2, L3's 3-5, L2's 6-8
    reset = pushing_run(monkeypatch, limits, 1e3)
    cfg = ts.AttackConfig(steps=40, step_size=0.5, init_seed=seeds)
    got = []
    recons = ts.invert_feature_map(m, labels, stacks, cfg,
                                   lambda s, l: got.append((s, l)))
    assert binds == [(("L4", 3), ("L3", 3), ("L2", 3), ("L1", 3))]
    singles = []
    for label, maps, group in zip(labels, stacks, seeds):
        for ii, (f, seed) in enumerate(zip(maps, group)):
            reset([5 if (label, ii) == ("L2", 1) else np.inf])
            losses = []
            r = ts.invert_feature_map(m, label, f, replace(cfg, init_seed=seed),
                                      lambda s, l: losses.append(l))
            singles.append((r, losses))
    assert [len(recon) for recon in recons] == [3] * 4
    assert_stack_matches_singles(np.concatenate(recons), got, singles)
    lengths = [len(losses) for _, losses in singles]
    assert lengths[4] < 40 and max(lengths) == 40, lengths


def test_inversions_at_several_boundaries_name_the_diverging_map(
        monkeypatch):
    # the map of image 1 at L2, row 5 of the arena, overflows the loss from
    # its 4th distinct input on: the error names its boundary, its index in
    # its stack and the step its attack alone diverges at
    m = ts.build_toy_cnn(points=4, input_shape=(1, 16, 16), seed=3)
    images = smooth_images(2, m.input_shape, seed=20)
    labels = tuple(m.labels())
    stacks = tuple(np.stack([ts.forward_until(m, x, label) for x in images])
                   for label in labels)
    cfg = ts.AttackConfig(steps=30, step_size=0.05,
                          init_seed=((0, 1), (2, 3), (4, 5), (6, 7)))
    limits = [np.inf] * 8
    limits[5] = 3
    reset = pushing_run(monkeypatch, limits, 1e200)
    with pytest.raises(ts.InversionDivergenceError) as many:
        ts.invert_feature_map(m, labels, stacks, cfg)
    reset([3])
    with pytest.raises(ts.InversionDivergenceError) as single:
        ts.invert_feature_map(m, "L2", stacks[1][1], replace(cfg, init_seed=3))
    assert (many.value.boundary, many.value.image) == ("L2", 1)
    assert (single.value.boundary, single.value.image) == ("L2", 0)
    assert many.value.step == single.value.step > 0
    assert "image 1 at boundary 'L2'" in str(many.value)


@pytest.mark.parametrize("labels, exposed, seeds", [
    pytest.param(("A", "B"), "one", ((1,), (2,)), id="a-map-not-a-tuple"),
    pytest.param(("A", "B"), "three", ((1,), (2,)), id="three-stacks-for-two"),
    pytest.param(("A", "B"), "two", ((1,), (2, 3)), id="seeds-per-stack"),
    pytest.param(("A", "B"), "two", (1, 2), id="seeds-not-tuples"),
    pytest.param(("A", "B"), "two", ((1,),), id="one-seed-tuple"),
    pytest.param(("A", "B"), "empty", ((), (2,)), id="an-empty-stack"),
    pytest.param(("A", "A"), "twice", ((1,), (2,)), id="a-label-twice"),
    pytest.param((), "none", (), id="no-labels")])
def test_inversions_at_several_boundaries_reject_bad_stacks(
        labels, exposed, seeds, monkeypatch):
    m = shallow_wide_model()

    def no_work(*args):
        raise AssertionError("the attack bound its prefix before checking")

    monkeypatch.setattr(engine, "_arena", no_work)
    maps = [np.zeros((1,) + m.layers[b - 1].output_shape)
            for _, b in m.partition_points]
    exposed = {"one": maps[0], "three": (maps[0], maps[1], maps[1]),
               "two": tuple(maps), "empty": (maps[0][:0], maps[1]),
               "twice": (maps[0], maps[0]), "none": ()}[exposed]
    with pytest.raises(ts.PrivacyError):
        ts.invert_feature_map(m, labels, exposed,
                              ts.AttackConfig(init_seed=seeds))


def test_evaluate_privacy_matches_score_boundary_on_gate_six_models():
    # gate 6's five toy CNNs and attack settings, over four images: the one
    # attack over every boundary scores each image as score_boundary, one
    # boundary at a time, does, bit for bit
    cfg = ts.AttackConfig(steps=120, step_size=0.05, init_seed=7)
    for seed in (1, 2, 3, 4, 5):
        m = ts.build_toy_cnn(points=4, input_shape=(1, 16, 16), seed=seed)
        images = smooth_images(4, (1, 16, 16), seed=100 + seed)
        report = ts.evaluate_privacy(m, images, cfg)
        for bi, (label, mean, sims) in enumerate(report.per_point):
            alone = ts.privacy.score_boundary(m, bi, images, cfg)
            assert [s.hex() for s in sims] == [s.hex() for s in alone], \
                (seed, label)
            assert mean == float(np.mean(alone))


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
