"""Optimizer, LR schedule, and the compound segmentation loss."""

import math

import numpy as np
import pytest

import xlunet.tensor as T
from xlunet.losses import LossConfig, dice_ce_loss
from xlunet.nnops import softmax
from xlunet.optim import (
    AdamWConfig,
    adamw_step,
    init_adamw,
    lr_schedule,
)
from xlunet.tensor import ContractError, Graph, NumericsError, Tensor
from xlunet.train import RunConfig


def _param(arr):
    return Tensor(np.asarray(arr, dtype=np.float32), requires_grad=True)


# ---------------------------------------------------------------------------
# AdamW


def test_single_step_closed_form():
    # one step, theta=1, g=1, lr=0.1, no decay:
    #   m=0.1, v=0.001, mhat=1, vhat=1  ->  theta' = 1 - 0.1/(1 + eps)
    p = {"w": _param([1.0])}
    p["w"].grad = np.array([1.0], dtype=np.float32)
    state = init_adamw(p)
    cfg = AdamWConfig(weight_decay=0.0)
    adamw_step(p, state, cfg, lr=0.1)
    want = 1.0 - 0.1 / (1.0 + cfg.eps)
    np.testing.assert_allclose(p["w"].data, [want], rtol=1e-6)
    assert state.step_count == 1


def test_decay_is_decoupled_and_first():
    # zero gradient: the only change is theta *= 1 - lr*wd
    p = {"w": _param([2.0])}
    p["w"].grad = np.zeros(1, dtype=np.float32)
    state = init_adamw(p)
    adamw_step(p, state, AdamWConfig(weight_decay=0.05), lr=0.01)
    np.testing.assert_allclose(p["w"].data, [2.0 * (1.0 - 0.0005)], rtol=1e-6)


def test_two_steps_match_reference_formula():
    rng = np.random.default_rng(0)
    theta = rng.normal(size=(4,)).astype(np.float32)
    grads = [rng.normal(size=(4,)).astype(np.float32) for _ in range(2)]
    p = {"w": _param(theta.copy())}
    state = init_adamw(p)
    cfg = AdamWConfig(weight_decay=0.05)
    lr = 0.005
    for g in grads:
        p["w"].grad = g.copy()
        adamw_step(p, state, cfg, lr=lr)
        p["w"].grad = None
    # reference: plain numpy transcription
    m = np.zeros(4)
    v = np.zeros(4)
    ref = theta.astype(np.float64)
    for t, g in enumerate(grads, start=1):
        ref *= 1.0 - lr * cfg.weight_decay
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
        mhat = m / (1 - cfg.beta1**t)
        vhat = v / (1 - cfg.beta2**t)
        ref -= lr * mhat / (np.sqrt(vhat) + cfg.eps)
    np.testing.assert_allclose(p["w"].data, ref, rtol=1e-5)


def test_step_runs_at_the_given_lr():
    p = {"w": _param([1.0])}
    p["w"].grad = np.zeros(1, dtype=np.float32)
    state = init_adamw(p)
    adamw_step(p, state, AdamWConfig(weight_decay=0.5), lr=0.1)
    np.testing.assert_allclose(p["w"].data, [1.0 - 0.05], rtol=1e-6)


def _stepped_once(names):
    """Parameters that have taken one AdamW step, so the moments are not zero."""
    p = {n: _param([1.0, -2.0]) for n in names}
    for t in p.values():
        t.grad = np.array([0.5, -0.25], dtype=np.float32)
    state = init_adamw(p)
    adamw_step(p, state, AdamWConfig(), lr=0.005)
    return p, state


def _snapshot(p, state):
    return (
        state.step_count,
        {n: t.data.copy() for n, t in p.items()},
        {n: m.copy() for n, m in state.exp_avg.items()},
        {n: v.copy() for n, v in state.exp_avg_sq.items()},
    )


def _assert_unchanged(p, state, before):
    count, data, m, v = before
    assert state.step_count == count
    for n in p:
        np.testing.assert_array_equal(p[n].data, data[n], strict=True)
        np.testing.assert_array_equal(state.exp_avg[n], m[n], strict=True)
        np.testing.assert_array_equal(state.exp_avg_sq[n], v[n], strict=True)


def test_missing_grad_is_an_error():
    p, state = _stepped_once(["a", "w"])
    p["w"].grad = None
    before = _snapshot(p, state)
    with pytest.raises(ContractError, match="'w'"):
        adamw_step(p, state, AdamWConfig(), lr=0.005)
    # "a" precedes "w" and has a gradient, yet nothing was stepped
    _assert_unchanged(p, state, before)


def test_nonfinite_grad_names_the_parameter():
    p, state = _stepped_once(["good", "bad.weight"])
    p["bad.weight"].grad = np.array([np.nan, 1.0], dtype=np.float32)
    before = _snapshot(p, state)
    with pytest.raises(NumericsError, match="bad.weight"):
        adamw_step(p, state, AdamWConfig(), lr=0.005)
    _assert_unchanged(p, state, before)


def test_param_set_mismatch_detected():
    p = {"w": _param([1.0])}
    state = init_adamw(p)
    p["extra"] = _param([1.0])
    with pytest.raises(ContractError):
        adamw_step(p, state, AdamWConfig(), lr=0.005)


def test_config_validation():
    with pytest.raises(ContractError):
        AdamWConfig(beta1=1.0).validate()
    with pytest.raises(ContractError, match="learning_rate must be positive"):
        RunConfig(patch_size=(32, 32), num_classes=2, learning_rate=-1.0).validate()
    AdamWConfig().validate()


# ---------------------------------------------------------------------------
# schedule


def test_poly_schedule_endpoints_and_halfpoint():
    base = 0.01
    assert lr_schedule(0, base, 100) == pytest.approx(base)
    assert lr_schedule(50, base, 100) == pytest.approx(base * 0.5**0.9)
    assert lr_schedule(99, base, 100) == pytest.approx(base * 0.01**0.9)
    assert lr_schedule(50, base, 100) == pytest.approx(0.0053588673, rel=1e-6)


def test_poly_schedule_is_monotone():
    vals = [lr_schedule(e, 1.0, 30) for e in range(30)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_const_schedule():
    assert lr_schedule(17, 0.3, 100, kind="const") == pytest.approx(0.3)


def test_schedule_validates():
    # epoch == max gives exactly zero; past it is an error
    assert lr_schedule(100, 0.1, 100) == 0.0
    with pytest.raises(ContractError):
        lr_schedule(101, 0.1, 100)
    with pytest.raises(ContractError):
        lr_schedule(3, 0.1, 100, kind="linear")


# ---------------------------------------------------------------------------
# dice + cross-entropy


def _probs(arr):
    return Tensor(np.asarray(arr, dtype=np.float64))


def test_loss_uniform_prediction_closed_form():
    # 4 voxels, K=2, uniform probs, all-foreground target:
    #   dice_fg = (2*2 + eps) / (2 + 4 + eps);  CE = log 2
    probs = _probs(np.full((1, 2, 2, 2), 0.5))
    target = np.ones((1, 2, 2), dtype=np.int32)
    loss = dice_ce_loss(probs, target, LossConfig())
    eps = 1e-5
    want = (1.0 - (4.0 + eps) / (6.0 + eps)) + math.log(2.0)
    assert loss.item() == pytest.approx(want, rel=1e-9)


def test_perfect_prediction_loss_floor():
    # probabilities exactly on the one-hot target: dice -> 1, CE -> 0
    target = np.array([[[0, 1], [1, 0]]], dtype=np.int32)
    onehot = np.zeros((1, 2, 2, 2))
    for k in range(2):
        onehot[0, k] = target[0] == k
    loss = dice_ce_loss(_probs(onehot), target, LossConfig())
    assert loss.item() == pytest.approx(0.0, abs=1e-6)


def test_background_excluded_by_default():
    # all-background target with a perfect prediction: foreground dice term
    # is the empty-class smoothed value, CE is 0
    target = np.zeros((1, 2, 2), dtype=np.int32)
    onehot = np.zeros((1, 2, 2, 2))
    onehot[0, 0] = 1.0
    loss_fg = dice_ce_loss(_probs(onehot), target, LossConfig())
    loss_all = dice_ce_loss(_probs(onehot), target, LossConfig(include_background=True))
    # fg-only: dice = eps/eps = 1 -> dice loss 0; with background the mean
    # includes a perfect class too, still 0
    assert loss_fg.item() == pytest.approx(0.0, abs=1e-6)
    assert loss_all.item() == pytest.approx(0.0, abs=1e-6)


def test_class_weights_reweight_ce():
    probs = _probs(np.full((1, 2, 4), 0.5))
    target = np.array([[0, 0, 1, 1]], dtype=np.int32)
    plain = dice_ce_loss(probs, target, LossConfig())
    up_fg = dice_ce_loss(probs, target, LossConfig(class_weights=(1.0, 3.0)))
    # uniform probs: CE per voxel is log 2 regardless of class, so the
    # weighted mean equals the plain mean; the loss must be unchanged
    assert up_fg.item() == pytest.approx(plain.item(), rel=1e-9)
    # but with asymmetric probabilities the weighting shifts the value
    skew = np.zeros((1, 2, 4))
    skew[0, 0] = [0.9, 0.9, 0.9, 0.9]
    skew[0, 1] = [0.1, 0.1, 0.1, 0.1]
    plain2 = dice_ce_loss(_probs(skew), target, LossConfig())
    weighted2 = dice_ce_loss(_probs(skew), target, LossConfig(class_weights=(1.0, 3.0)))
    assert weighted2.item() > plain2.item()


def test_loss_decreases_toward_target():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(2, 3, 4, 4))
    target = rng.integers(0, 3, size=(2, 4, 4)).astype(np.int32)
    cfg = LossConfig()
    l0 = dice_ce_loss(_probs(_softmax_np(logits)), target, cfg).item()
    onehot = np.stack([(target == k) for k in range(3)], axis=1).astype(np.float64)
    sharp = 0.7 * onehot + 0.1  # still sums to 1, mass on the right class
    l1 = dice_ce_loss(_probs(sharp), target, cfg).item()
    assert l1 < l0


def _softmax_np(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def test_loss_validations():
    good = np.full((1, 2, 2, 2), 0.5)
    target = np.zeros((1, 2, 2), dtype=np.int32)
    cfg = LossConfig()
    with pytest.raises(ContractError, match="sum"):
        dice_ce_loss(_probs(good * 0.8), target, cfg)
    with pytest.raises(ContractError, match="class|label"):
        dice_ce_loss(_probs(good), target + 5, cfg)
    with pytest.raises(ContractError, match="integer"):
        dice_ce_loss(_probs(good), target.astype(np.float32), cfg)
    with pytest.raises(ContractError):
        dice_ce_loss(_probs(good), target[None], cfg)  # rank mismatch
    with pytest.raises(ContractError):
        dice_ce_loss(_probs(np.full((1, 1, 2, 2), 1.0)), target, cfg)  # K=1
    with pytest.raises(ContractError):
        LossConfig(class_weights=(1.0,)).validate(2)


def test_loss_gradient_through_softmax_is_finite_and_descends():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
    target = rng.integers(0, 2, size=(1, 4, 4)).astype(np.int32)
    with Graph() as g:
        probs = softmax(logits, axis=1)
        loss = dice_ce_loss(probs, target, LossConfig())
    g.backward(loss)
    assert np.isfinite(logits.grad).all()
    stepped = logits.data - 0.5 * logits.grad
    with Graph() as g2:
        probs2 = softmax(Tensor(stepped), axis=1)
        loss2 = dice_ce_loss(probs2, target, LossConfig())
    assert loss2.item() < loss.item()
