"""Finite-difference verification of every differentiable op.

``finite_diff_check`` compares tape gradients of a scalar-valued function
against float64 central differences at sampled elements.  ``standard_checks``
is the registry the CLI runs: one entry per kernel (tolerance 1e-5) plus
composite blocks and a tiny end-to-end network with the segmentation loss
(tolerance 1e-4 — longer chains accumulate more rounding).

Inputs are always built in float64; check functions close over their input
tensors and recompute from ``Tensor.data``, so the harness can nudge single
elements in place.  Kink-bearing ops (leaky relu, |x|, max) get inputs kept
away from their kinks; everything else uses generic random values.

``corrupted_backward`` is a negative control: it makes every reverse sweep
deliberately wrong, scaling each leaf gradient ``Graph.backward`` leaves, and
a gradcheck run under it must fail.  No VJP knows about it.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .losses import LossConfig, dice_ce_loss
from .network import NetworkConfig, build_network
from .nnops import (
    causal_conv1d,
    conv_nd,
    conv_transpose_nd,
    instance_norm,
    layer_norm,
    softmax,
)
from .tensor import ContractError, Graph, Tensor
from .vil import (
    init_mlstm_params,
    init_vil_params,
    init_xlstm_params,
    mlstm_sequence,
    vil_block,
    xlstm_block,
)

__all__ = [
    "CheckResult",
    "finite_diff_check",
    "standard_checks",
    "run_checks",
    "check_modules",
    "corrupted_backward",
]


@dataclass
class CheckResult:
    name: str
    module: str
    passed: bool
    max_rel: float
    n_checked: int
    worst: str = ""

    def line(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        return f"{status}  {self.name:<28} max_rel={self.max_rel:9.3e}  n={self.n_checked}"


@contextmanager
def corrupted_backward(scale: float = 0.02):
    """Scale every leaf gradient of each ``Graph.backward`` by ``1 + scale``
    — checks must then fail.  Restores the ``Graph.backward`` it found, which
    may itself be a wrapper (a tracer's, say)."""
    found = Graph.backward

    def wrong_backward(self, loss):
        found(self, loss)
        for leaf in self._leaves.values():
            leaf.grad = leaf.grad * (1.0 + scale)

    Graph.backward = wrong_backward
    try:
        yield
    finally:
        Graph.backward = found


def finite_diff_check(
    fn,
    inputs: list[Tensor],
    step: float = 1e-5,
    rel_tol: float = 1e-5,
    abs_tol: float = 1e-8,
    max_per_input: int = 6,
    rng: np.random.Generator | None = None,
    name: str = "check",
    module: str = "",
) -> CheckResult:
    """Compare tape gradients of scalar-valued ``fn()`` against central
    differences at up to ``max_per_input`` elements of each input.

    An element passes when ``|ad - fd| <= abs_tol + rel_tol * max(|ad|, |fd|)``.
    ``max_rel`` reports the worst ``|ad - fd| / (abs_tol/rel_tol + max(|ad|, |fd|))``,
    directly comparable against ``rel_tol``.
    """
    rng = rng or np.random.default_rng(0)
    for t in inputs:
        if t.data.dtype != np.float64:
            raise ContractError(f"finite_diff_check: input dtype {t.data.dtype}; use float64")
        if not t.requires_grad:
            raise ContractError("finite_diff_check: all inputs must require grad")
        t.grad = None

    with Graph() as g:
        loss = fn()
    if loss.size != 1:
        raise ContractError(f"finite_diff_check: fn must return a scalar, got shape {loss.shape}")
    g.backward(loss)

    floor = abs_tol / rel_tol
    max_rel = 0.0
    n_checked = 0
    worst = ""
    passed = True
    for idx, t in enumerate(inputs):
        grad = t.grad
        flat = t.data.reshape(-1)
        size = flat.shape[0]
        if size <= max_per_input:
            picks = np.arange(size)
        else:
            picks = np.sort(rng.choice(size, size=max_per_input, replace=False))
        for j in picks:
            orig = flat[j]
            flat[j] = orig + step
            hi = fn().item()
            flat[j] = orig - step
            lo = fn().item()
            flat[j] = orig
            fd = (hi - lo) / (2.0 * step)
            ad = float(grad.reshape(-1)[j])
            err = abs(ad - fd)
            ref = max(abs(ad), abs(fd))
            rel = err / (floor + ref)
            n_checked += 1
            if rel > max_rel:
                max_rel = rel
                worst = f"input[{idx}] elem {j}: ad={ad:.6e} fd={fd:.6e}"
            if err > abs_tol + rel_tol * ref:
                passed = False
    return CheckResult(name, module, passed, max_rel, n_checked, worst)


# ---------------------------------------------------------------------------
# registry


@dataclass
class OpCheck:
    name: str
    module: str
    build: object  # rng -> (fn, inputs)
    rel_tol: float = 1e-5
    abs_tol: float = 1e-8
    step: float = 1e-5
    max_per_input: int = 6


def _t(rng, shape, lo=-1.0, hi=1.0) -> Tensor:
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True, dtype=np.float64)


def _weighted_sum(y: Tensor, w: Tensor) -> Tensor:
    return T.reduce_sum(T.mul(y, w))


def _build_arithmetic(rng):
    a = _t(rng, (3, 4))
    b = _t(rng, (3, 4), 0.5, 1.5)

    def fn():
        y = T.add(T.mul(a, b), T.div(a, b))
        y = T.sub(y, a)
        return T.reduce_sum(T.mul(y, T.add(b, 0.25)))

    return fn, [a, b]


def _build_unary_smooth(rng):
    a = _t(rng, (4, 3), -0.8, 0.8)
    c = _t(rng, (4, 3), 0.4, 2.0)

    def fn():
        y = T.add(T.mul(T.exp(a), T.sigmoid(c)), T.log(c))
        y = T.add(y, T.silu(a))
        return T.reduce_sum(y)

    return fn, [a, c]


def _build_kinked(rng):
    # keep clear of the kinks at 0 and at the clamp floor 0.3
    raw = rng.uniform(0.1, 0.9, size=(5, 4))
    raw[raw < 0.45] -= 1.0  # in [-0.9, -0.55] or [0.45, 0.9]
    a = Tensor(raw, requires_grad=True, dtype=np.float64)

    def fn():
        y = T.add(T.leaky_relu(a, 0.01), T.absolute(a))
        y = T.add(y, T.max_with_scalar(a, 0.3))
        return T.reduce_sum(y)

    return fn, [a]


def _build_matmul(rng):
    a = _t(rng, (3, 4))
    b = _t(rng, (4, 5))

    def fn():
        return T.reduce_sum(T.matmul(a, b))

    return fn, [a, b]


def _build_matmul_batched(rng):
    a = _t(rng, (2, 3, 3, 4))
    b = _t(rng, (4, 5))
    w = _t(rng, (2, 3, 3, 5))

    def fn():
        return _weighted_sum(T.matmul(a, b), w)

    return fn, [a, b, w]


def _build_reductions(rng):
    x = _t(rng, (3, 4, 2))

    def fn():
        y = T.mul(T.reduce_mean(x, axis=0), T.reduce_sum(x, axis=0))
        return T.add(T.reduce_sum(y), T.reduce_mean(x))

    return fn, [x]


def _build_reduce_max(rng):
    x = _t(rng, (4, 6))
    w = _t(rng, (4,))

    def fn():
        return T.reduce_sum(T.mul(T.reduce_max(x, axis=1), w))

    return fn, [x, w]


def _build_cumsum(rng):
    x = _t(rng, (3, 5))
    w = _t(rng, (3, 5))

    def fn():
        return _weighted_sum(T.cumsum(x, axis=1), w)

    return fn, [x, w]


def _build_shape_ops(rng):
    x = _t(rng, (2, 3, 4))
    w = _t(rng, (4, 6))

    def fn():
        y = T.reshape_permute(x, (4, 6), (2, 0, 1))  # (4, 2, 3) -> (4, 6)
        y = T.flip(y, (0,))
        lo, hi = T.split(y, 2, axis=1)
        return _weighted_sum(T.concat([hi, lo], axis=1), w)

    return fn, [x, w]


def _build_broadcast(rng):
    x = _t(rng, (3, 1))
    w = _t(rng, (4, 3, 5))

    def fn():
        return _weighted_sum(T.broadcast_to(x, (4, 3, 5)), w)

    return fn, [x, w]


def _conv_builder(rank: int):
    def build(rng):
        sp = {1: (7,), 2: (6, 5), 3: (5, 4, 4)}[rank]
        x = _t(rng, (2, 3) + sp)
        w = _t(rng, (4, 3) + (3,) * rank)
        bias = _t(rng, (4,))
        out_sp = tuple((n + 2 - 3) // 2 + 1 for n in sp)
        wt = _t(rng, (2, 4) + out_sp)

        def fn():
            return _weighted_sum(conv_nd(x, w, bias, stride=2, padding=1), wt)

        return fn, [x, w, bias, wt]

    return build


def _convt_builder(rank: int):
    def build(rng):
        sp = {1: (5,), 2: (4, 3), 3: (3, 3, 2)}[rank]
        x = _t(rng, (2, 4) + sp)
        w = _t(rng, (4, 3) + (2,) * rank)
        bias = _t(rng, (3,))
        out_sp = tuple(2 * n for n in sp)
        wt = _t(rng, (2, 3) + out_sp)

        def fn():
            return _weighted_sum(conv_transpose_nd(x, w, bias, stride=2, padding=0), wt)

        return fn, [x, w, bias, wt]

    return build


def _build_convt_output_size(rng):
    x = _t(rng, (2, 2, 3, 3))
    w = _t(rng, (2, 3, 3, 3))
    out_sp = (6, 6)  # default would be 5x5; 6x6 floors back to the same input
    wt = _t(rng, (2, 3) + out_sp)

    def fn():
        y = conv_transpose_nd(x, w, stride=2, padding=1, output_size=out_sp)
        return _weighted_sum(y, wt)

    return fn, [x, w, wt]


def _build_causal_conv(rng):
    x = _t(rng, (2, 6, 4))
    k = _t(rng, (4, 3))
    bias = _t(rng, (4,))
    wt = _t(rng, (2, 6, 4))

    def fn():
        return _weighted_sum(causal_conv1d(x, k, bias), wt)

    return fn, [x, k, bias, wt]


def _build_instance_norm(rng):
    x = _t(rng, (2, 3, 4, 5))
    gamma = _t(rng, (3,), 0.5, 1.5)
    beta = _t(rng, (3,))
    wt = _t(rng, (2, 3, 4, 5))

    def fn():
        return _weighted_sum(instance_norm(x, gamma, beta), wt)

    return fn, [x, gamma, beta, wt]


def _build_layer_norm(rng):
    x = _t(rng, (2, 5, 6))
    gamma = _t(rng, (6,), 0.5, 1.5)
    beta = _t(rng, (6,))
    wt = _t(rng, (2, 5, 6))

    def fn():
        return _weighted_sum(layer_norm(x, gamma, beta), wt)

    return fn, [x, gamma, beta, wt]


def _build_softmax(rng):
    x = _t(rng, (2, 4, 3))
    wt = _t(rng, (2, 4, 3))

    def fn():
        return _weighted_sum(softmax(x, axis=1), wt)

    return fn, [x, wt]


def _build_mlstm_sequence(rng):
    params = init_mlstm_params(rng, embed_dim=8, heads=2, dtype=np.float64)
    seq = _t(rng, (2, 5, 8))
    wt = _t(rng, (2, 5, 8))
    inputs = [seq, wt] + [t for _, t in params.tensors()]

    def fn():
        return _weighted_sum(mlstm_sequence(seq, params), wt)

    return fn, inputs


def _vil_builder(direction: str):
    def build(rng):
        params = init_vil_params(rng, model_dim=6, direction=direction, heads=3, dtype=np.float64)
        seq = _t(rng, (2, 5, 6))
        wt = _t(rng, (2, 5, 6))
        inputs = [seq, wt] + [t for _, t in params.tensors()]

        def fn():
            return _weighted_sum(vil_block(seq, params), wt)

        return fn, inputs

    return build


def _build_xlstm_block(rng):
    params = init_xlstm_params(rng, channels=4, heads=2, dtype=np.float64)
    x = _t(rng, (2, 4, 2, 4))
    wt = _t(rng, (2, 4, 2, 4))
    inputs = [x, wt] + [t for _, t in params.tensors()]

    def fn():
        return _weighted_sum(xlstm_block(x, params), wt)

    return fn, inputs


def _build_dice_ce(rng):
    logits = _t(rng, (2, 3, 6, 6), -1.5, 1.5)
    labels = rng.integers(0, 3, size=(2, 6, 6)).astype(np.int32)
    cfg = LossConfig(class_weights=(0.5, 1.0, 1.5))

    def fn():
        return dice_ce_loss(softmax(logits, axis=1), labels, cfg)

    return fn, [logits]


def _build_end_to_end(rng):
    config = NetworkConfig(
        in_channels=1,
        num_classes=2,
        patch_size=(16, 16),
        num_stages=2,
        base_channels=4,
        channel_cap=64,
        variant="enc",
        heads=4,
        seed=7,
    )
    net = build_network(config)
    for p in net.params.values():
        p.data = p.data.astype(np.float64)
    x = Tensor(rng.uniform(-1, 1, size=(1, 1, 16, 16)), dtype=np.float64)
    labels = rng.integers(0, 2, size=(1, 16, 16)).astype(np.int32)

    def fn():
        return dice_ce_loss(net.forward(x), labels)

    return fn, list(net.params.values())


def standard_checks() -> list[OpCheck]:
    checks = [
        OpCheck("arithmetic", "tensor", _build_arithmetic),
        OpCheck("unary_smooth", "tensor", _build_unary_smooth),
        OpCheck("kinked_units", "tensor", _build_kinked),
        OpCheck("matmul", "tensor", _build_matmul),
        OpCheck("matmul_batched", "tensor", _build_matmul_batched),
        OpCheck("reductions", "tensor", _build_reductions),
        OpCheck("reduce_max", "tensor", _build_reduce_max),
        OpCheck("cumsum", "tensor", _build_cumsum),
        OpCheck("shape_ops", "tensor", _build_shape_ops),
        OpCheck("broadcast_to", "tensor", _build_broadcast),
        OpCheck("conv1d", "nnops", _conv_builder(1)),
        OpCheck("conv2d", "nnops", _conv_builder(2)),
        OpCheck("conv3d", "nnops", _conv_builder(3)),
        OpCheck("conv_transpose1d", "nnops", _convt_builder(1)),
        OpCheck("conv_transpose2d", "nnops", _convt_builder(2)),
        OpCheck("conv_transpose3d", "nnops", _convt_builder(3)),
        OpCheck("conv_transpose_output_size", "nnops", _build_convt_output_size),
        OpCheck("causal_conv1d", "nnops", _build_causal_conv),
        OpCheck("instance_norm", "nnops", _build_instance_norm),
        OpCheck("layer_norm", "nnops", _build_layer_norm),
        OpCheck("softmax", "nnops", _build_softmax),
        OpCheck("mlstm_sequence", "vil", _build_mlstm_sequence, max_per_input=4),
        OpCheck("vil_block_forward", "vil", _vil_builder("forward"), max_per_input=4),
        OpCheck("vil_block_reverse", "vil", _vil_builder("reverse"), max_per_input=4),
        OpCheck("xlstm_block", "vil", _build_xlstm_block, max_per_input=3),
        OpCheck("dice_ce_loss", "losses", _build_dice_ce, rel_tol=1e-4),
        OpCheck(
            "end_to_end_tiny_net",
            "network",
            _build_end_to_end,
            rel_tol=1e-4,
            # the net has kinks (leaky relu, |x|, max); at 1e-5 the central
            # difference straddles one on some seeds (25 and 40 among 0-79)
            step=1e-6,
            max_per_input=1,
        ),
    ]
    return checks


def check_modules() -> list[str]:
    seen = []
    for c in standard_checks():
        if c.module not in seen:
            seen.append(c.module)
    return seen


def run_checks(
    module: str | None = None, seed: int = 0, corrupt: bool = False
) -> list[CheckResult]:
    """Run the registry (optionally one module's checks), seeded."""
    selected = [c for c in standard_checks() if module is None or c.module == module]
    if not selected:
        raise ContractError(
            f"no gradient checks in module {module!r}; use one of {check_modules()}"
        )
    results = []
    for check in selected:
        key = zlib.crc32(check.name.encode())
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
        fn, inputs = check.build(rng)
        with corrupted_backward() if corrupt else nullcontext():
            result = finite_diff_check(
                fn,
                inputs,
                step=check.step,
                rel_tol=check.rel_tol,
                abs_tol=check.abs_tol,
                max_per_input=check.max_per_input,
                rng=rng,
                name=check.name,
                module=check.module,
            )
        results.append(result)
    return results
