"""Network-module tests.

The gradient oracle here is an independent finite-difference loop written
in this file: it perturbs each parameter in place, restores it, and reads
the loss only through the public forward-loss path (``loss_value``).
"""

import math
import tracemalloc

import numpy as np
import pytest

from pireg.errors import ConfigError, ShapeError, TrainingDiverged
from pireg.losses import (VARIANTS, LossConfig, gaussian_link, head_loss_and_grad,
                          interval_link, squash_mix)
from pireg.network import (STACK_FORWARD_BYTES, FeedForwardModel, backward, forward,
                           init_model, loss_value)

# Starting biases of an interval head at the default bounds, and of a
# mean-variance head.
INTERVAL_BIAS = (3.0, -3.0, 0.0)
GAUSSIAN_BIAS = (0.0, 0.0)


def parameters(model):
    """Weights and biases interleaved per layer: w0, b0, w1, b1, ..."""
    return [p for wb in zip(model.weights, model.biases) for p in wb]


def independent_fd(model, x, y, cfg, h=1e-5):
    """Entrywise central differences through the public loss path."""
    grads = []
    for param in parameters(model):
        g = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = param[idx]
            param[idx] = saved + h
            up = loss_value(model, x, y, cfg)
            param[idx] = saved - h
            down = loss_value(model, x, y, cfg)
            param[idx] = saved
            g[idx] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def rel_err(a, b, floor=1e-4):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


def randomized_params(model, rng, scale=1.0):
    for p in parameters(model):
        p[...] = rng.uniform(-scale, scale, size=p.shape)


# ---------------------------------------------------------------------------
# Construction and forward contracts.
# ---------------------------------------------------------------------------


def test_init_model_head_biases_and_shapes():
    model = init_model([2, 4, 3], seed=0, head_bias=INTERVAL_BIAS)
    assert model.layer_sizes == (2, 4, 3)
    assert [w.shape for w in model.weights] == [(2, 4), (4, 3)]
    assert [b.shape for b in model.biases] == [(4,), (3,)]
    assert model.biases[0].tolist() == [0.0] * 4
    assert model.biases[1].tolist() == [3.0, -3.0, 0.0]
    assert len(parameters(model)) == 4


def test_init_model_zero_input_lands_on_head_biases():
    model = init_model([3, 8, 5, 3], seed=4, head_bias=(2.0, -1.5, 0.0))
    raw = forward(model, np.zeros((1, 3)))
    assert raw[0].tolist() == [2.0, -1.5, 0.0]


def test_init_model_rejects_bad_layouts():
    with pytest.raises(ConfigError):
        init_model([2, 4, 2], seed=0, head_bias=INTERVAL_BIAS)
    with pytest.raises(ConfigError):
        init_model([3], seed=0, head_bias=INTERVAL_BIAS)
    with pytest.raises(ConfigError):
        init_model([2, 0, 3], seed=0, head_bias=INTERVAL_BIAS)
    with pytest.raises(ConfigError):
        init_model([2, 4, 3], seed=0, head_bias=GAUSSIAN_BIAS)


def test_init_is_seed_deterministic():
    a = init_model([2, 6, 3], seed=11, head_bias=INTERVAL_BIAS)
    b = init_model([2, 6, 3], seed=11, head_bias=INTERVAL_BIAS)
    c = init_model([2, 6, 3], seed=12, head_bias=INTERVAL_BIAS)
    for pa, pb in zip(parameters(a), parameters(b)):
        assert np.array_equal(pa, pb)
    assert any(not np.array_equal(pa, pc)
               for pa, pc in zip(parameters(a), parameters(c)))


def test_forward_emits_one_triple_per_row_with_interior_mix():
    model = init_model([2, 5, 3], seed=1, head_bias=INTERVAL_BIAS)
    x = np.random.default_rng(0).normal(size=(100, 2))
    raw = forward(model, x)
    assert raw.shape == (100, 3)
    mix = squash_mix(raw[:, 2])
    assert np.all(mix > 0.0) and np.all(mix < 1.0)
    # Wild parameters saturate the logistic; the mix must stay interior.
    randomized_params(model, np.random.default_rng(5), scale=80.0)
    mix = squash_mix(forward(model, x)[:, 2])
    assert np.all(mix > 0.0) and np.all(mix < 1.0)


def test_forward_shape_policing():
    model = init_model([2, 4, 3], seed=0, head_bias=INTERVAL_BIAS)
    with pytest.raises(ShapeError):
        forward(model, np.zeros((5, 3)))
    with pytest.raises(ShapeError):
        forward(model, np.zeros(5))
    # A head read under the other model kind's layout is refused.
    gauss = init_model([2, 4, 2], seed=0, head_bias=GAUSSIAN_BIAS)
    with pytest.raises(ShapeError):
        interval_link(forward(gauss, np.zeros((5, 2))), "joint")
    with pytest.raises(ShapeError):
        gaussian_link(forward(model, np.zeros((5, 2))))


def test_forward_gaussian_positive_variance():
    model = init_model([3, 6, 2], seed=2, head_bias=GAUSSIAN_BIAS)
    randomized_params(model, np.random.default_rng(9), scale=5.0)
    mean, variance = gaussian_link(forward(model, np.random.default_rng(1).normal(size=(40, 3))))
    assert mean.shape == variance.shape == (40,)
    assert np.all(variance > 0.0)


# ---------------------------------------------------------------------------
# Gradients.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
def test_backward_matches_independent_finite_differences(variant):
    # The full scale (100 nets, all variants) runs in the acceptance gate;
    # this is the per-variant unit check on a 2-4-3 net, batch 16.
    rng = np.random.default_rng([41, VARIANTS.index(variant)])
    head = GAUSSIAN_BIAS if variant == "gaussian_nll" else INTERVAL_BIAS
    model = init_model([2, 4, len(head)], seed=7, head_bias=head)
    randomized_params(model, rng)
    x = rng.uniform(-1.0, 1.0, size=(16, 2))
    y = rng.normal(0.0, 1.0, size=16)
    cfg = LossConfig(variant=variant)
    loss, grads = backward(model, x, y, cfg)
    assert math.isfinite(loss)
    fd = independent_fd(model, x, y, cfg)
    worst = max(rel_err(g, f) for g, f in zip(parameters(grads), fd))
    assert worst <= 1e-4


def test_backward_gradient_shapes_close_over_parameters():
    model = init_model([3, 7, 5, 3], seed=13, head_bias=INTERVAL_BIAS)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(9, 3))
    y = rng.normal(size=9)
    _, grads = backward(model, x, y, LossConfig())
    for p, g in zip(parameters(model), parameters(grads)):
        assert p.shape == g.shape


def test_backward_loss_agrees_with_loss_value():
    model = init_model([2, 5, 3], seed=21, head_bias=INTERVAL_BIAS)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(12, 2))
    y = rng.normal(size=12)
    cfg = LossConfig(variant="decoupled")
    loss, _ = backward(model, x, y, cfg)
    assert loss == loss_value(model, x, y, cfg)


def test_full_interval_weight_leaves_mix_head_untouched():
    # With all weight on the interval term, no gradient may reach the
    # parameters feeding the third head unit.
    model = init_model([2, 4, 3], seed=17, head_bias=INTERVAL_BIAS)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    _, grads = backward(model, x, y, LossConfig(interval_weight=1.0))
    assert np.all(grads.weights[-1][:, 2] == 0.0)
    assert grads.biases[-1][2] == 0.0


def test_duplicating_rows_preserves_gradients_when_coverage_is_met():
    # All mean-style terms are invariant under duplicating the batch; the
    # coverage penalty scales with sqrt(n) but is inactive here because the
    # wide head biases capture every target.
    model = init_model([2, 4, 3], seed=19, head_bias=(6.0, -6.0, 0.0))
    rng = np.random.default_rng(4)
    x = rng.normal(size=(8, 2))
    y = rng.normal(0.0, 0.5, size=8)
    cfg = LossConfig()
    loss1, g1 = backward(model, x, y, cfg)
    loss2, g2 = backward(model, np.vstack([x, x]), np.concatenate([y, y]), cfg)
    assert loss2 == pytest.approx(loss1, rel=1e-12)
    for a, b in zip(parameters(g1), parameters(g2)):
        np.testing.assert_allclose(b, a, rtol=1e-9, atol=1e-15)


def test_backward_rejects_bad_batches():
    # An empty batch, lone model or stack, passes the forward pass and is
    # refused by the loss, for the loss value and the gradient alike.
    model = init_model([2, 4, 3], seed=0, head_bias=INTERVAL_BIAS)
    for net, rows in ((model, (0,)), (stack_of((2, 4, 3), 2), (2, 0))):
        for call in (backward, loss_value):
            with pytest.raises(ShapeError, match="batch must be non-empty"):
                call(net, np.zeros(rows + (2,)), np.zeros(rows), LossConfig())
    with pytest.raises(ShapeError):
        backward(model, np.zeros((3, 2)), np.zeros(4), LossConfig())


def test_backward_raises_on_non_finite_loss():
    model = init_model([1, 3, 3], seed=0, head_bias=INTERVAL_BIAS)
    model.weights[0][0, 0] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(TrainingDiverged):
            backward(model, np.ones((2, 1)), np.zeros(2), LossConfig())


def stack_of(sizes, members, head=INTERVAL_BIAS):
    return FeedForwardModel(tuple(sizes), np.stack([init_model(sizes, s, head).flat
                                                    for s in range(members)]))


@pytest.mark.parametrize("rows", [40, 4000])
@pytest.mark.parametrize("own_rows", [False, True, "list"])
def test_stack_forward_matches_member_forwards_bitwise(rows, own_rows):
    # 40 rows fit the one-call budget and 4000 do not; either way each member's
    # head carries the bits of that member forwarded alone, whether the
    # members share one matrix or read their own rows, as an (M, n, d) array
    # or as a list of M matrices.
    stack = stack_of((3, 16, 8, 3), 4)
    assert (4 * rows * 24 * 8 > STACK_FORWARD_BYTES) == (rows == 4000)
    rng = np.random.default_rng(rows)
    x = rng.normal(size=(4, rows, 3) if own_rows else (rows, 3))
    heads = forward(stack, list(x) if own_rows == "list" else x)
    assert heads.shape == (4, rows, 3)
    for j, flat in enumerate(stack.flat):
        alone = forward(FeedForwardModel(stack.layer_sizes, flat), x[j] if own_rows else x)
        assert heads[j].tobytes() == alone.tobytes()


def test_forward_refuses_a_list_that_does_not_fit_the_stack():
    stack = stack_of((3, 8, 3), 2)
    with pytest.raises(ShapeError, match="2 members"):
        forward(stack, [np.zeros((5, 3))] * 3)
    with pytest.raises(ShapeError, match="2 members"):
        forward(stack, [np.zeros((5, 3)), np.zeros((4, 3))])


def traced_peak(fn, *args):
    # Bytes allocated at the peak of fn(*args) above what was held before;
    # returns (result, peak).
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - baseline


def test_loss_value_holds_one_members_activations_at_a_time():
    # Validation on many rows: a one-call forward of five members would hold
    # their (4000, 100) hidden activations at once, 16 MB.
    stack = stack_of((1, 100, 3), 5)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(4000, 1)), rng.normal(size=4000)
    _, peak = traced_peak(loss_value, stack, x, y, LossConfig())
    assert peak <= 2 * 4000 * 100 * 8


def test_validation_of_groups_copies_no_members_rows():
    # Two groups of three members, each reading its group's (4000, 40)
    # validation copy through a list, above the one-call budget: one
    # member's activations, 3.2 MB, are held at a time, and no member's
    # rows are copied (six copies would take 7.7 MB).
    stack = stack_of((40, 100, 3), 6)
    rng = np.random.default_rng(1)
    groups = [(rng.normal(size=(4000, 40)), rng.normal(size=4000)) for _ in range(2)]
    assert 6 * 4000 * 100 * 8 > STACK_FORWARD_BYTES
    rows = [groups[j // 3] for j in range(6)]
    loss, peak = traced_peak(loss_value, stack, [x for x, _ in rows], [y for _, y in rows],
                             LossConfig())
    assert peak <= 2 * 4000 * 100 * 8
    for s, (x, y) in enumerate(groups):
        group = FeedForwardModel(stack.layer_sizes, stack.flat[3 * s:3 * s + 3])
        assert loss[3 * s:3 * s + 3].tobytes() == loss_value(group, x, y, LossConfig()).tobytes()


def test_backward_matches_separate_delta_temporaries_bitwise():
    # backward writes each propagated delta over the dead activations of its
    # layer; a pass that allocates every delta afresh must give the same bits.
    stack = stack_of((3, 12, 7, 3), 3)
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(30, 3)), rng.normal(size=30)
    cfg = LossConfig()
    loss, grads = backward(stack, x, y, cfg)

    activations = [x]
    a = x
    for i, (w, b) in enumerate(zip(stack.weights, stack.biases)):
        a = a @ w + b[..., None, :]
        if i < len(stack.weights) - 1:
            a = np.maximum(a, 0.0)
            activations.append(a)
    want_loss, delta = head_loss_and_grad(a, y, cfg)
    assert loss.tobytes() == want_loss.tobytes()
    for i in range(len(stack.weights) - 1, -1, -1):
        assert grads.weights[i].tobytes() == (activations[i].swapaxes(-1, -2) @ delta).tobytes()
        assert grads.biases[i].tobytes() == delta.sum(axis=-2).tobytes()
        if i > 0:
            delta = (delta @ stack.weights[i].swapaxes(-1, -2)) * (activations[i] > 0.0)
