"""Finite-difference verification of every differentiable op.

``finite_diff_check`` compares tape gradients of a scalar-valued function
against float64 central differences at sampled elements.  ``_CHECKS`` is the
battery ``run_checks`` runs, one row per check.  A kernel's row (tolerance
1e-5) takes ⟨op(inputs), random cotangent⟩: ``_op`` draws a bare op's inputs
from their shapes, ``_block`` a sequence block's parameters and input.  The
composite rows chain several ops, and a tiny end-to-end network with the
segmentation loss checks at 1e-4 (longer chains accumulate more rounding).
Each check draws from its own stream, keyed by ``crc32`` of its name, so a row
added, dropped or moved changes no other check's inputs.

Inputs are always built in float64; check functions close over their input
tensors and recompute from ``Tensor.data``, so the harness can nudge single
elements in place (strided inputs too; a read-only one is refused).
Kink-bearing ops (leaky relu, |x|, max) get inputs kept away from their
kinks; everything else uses generic random values.  The rows call every op
through its module binding when they run, so a wrapper installed on that
binding (a tracer's) sees the call.

``corrupted_backward`` is a negative control: it makes every reverse sweep
deliberately wrong, scaling each leaf gradient ``Graph.backward`` leaves by
1.02, and a gradcheck run under it must fail.  No VJP knows about it.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
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
    MlstmParams,
    VilBlockParams,
    XlstmBlockParams,
    mlstm_sequence,
    vil_block,
    xlstm_block,
)

__all__ = [
    "CheckResult",
    "finite_diff_check",
    "run_checks",
    "corrupted_backward",
]

# an element passes when |ad - fd| <= _ABS_TOL + rel_tol * max(|ad|, |fd|)
_ABS_TOL = 1e-8


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
        out = f"{status}  {self.name:<28} max_rel={self.max_rel:9.3e}  n={self.n_checked}"
        return out if self.passed else f"{out}  {self.worst}"


@contextmanager
def corrupted_backward():
    """Scale every leaf gradient of each ``Graph.backward`` by 1.02 — checks
    must then fail.  Restores the ``Graph.backward`` it found, which may
    itself be a wrapper (a tracer's, say)."""
    found = Graph.backward

    def wrong_backward(self, loss):
        found(self, loss)
        for leaf in self._leaves.values():
            leaf.grad = leaf.grad * 1.02

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
    max_per_input: int = 6,
    rng: np.random.Generator | None = None,
    name: str = "check",
    module: str = "",
) -> CheckResult:
    """Compare tape gradients of scalar-valued ``fn()`` against central
    differences at up to ``max_per_input`` elements of each input.

    An element passes when ``|ad - fd| <= 1e-8 + rel_tol * max(|ad|, |fd|)``.
    ``max_rel`` reports the worst ``|ad - fd| / (1e-8/rel_tol + max(|ad|, |fd|))``,
    directly comparable against ``rel_tol``.  Each element is perturbed in
    place in its input's own array, and put back even if ``fn`` raises.
    """
    rng = rng or np.random.default_rng(0)
    for idx, t in enumerate(inputs):
        if t.data.dtype != np.float64:
            raise ContractError(f"finite_diff_check: input dtype {t.data.dtype}; use float64")
        if not t.requires_grad:
            raise ContractError("finite_diff_check: all inputs must require grad")
        if not t.data.flags.writeable:
            raise ContractError(
                f"finite_diff_check: input[{idx}] is read-only; it cannot be perturbed in place"
            )
        t.grad = None

    with Graph() as g:
        loss = fn()
    if loss.size != 1:
        raise ContractError(f"finite_diff_check: fn must return a scalar, got shape {loss.shape}")
    g.backward(loss)
    for idx, t in enumerate(inputs):
        if t.grad is None:
            raise ContractError(f"finite_diff_check: input[{idx}] never entered fn's graph")

    floor = _ABS_TOL / rel_tol
    max_rel = 0.0
    n_checked = 0
    worst = ""
    passed = True
    for idx, t in enumerate(inputs):
        grad = t.grad
        size = t.data.size
        if size <= max_per_input:
            picks = np.arange(size)
        else:
            picks = np.sort(rng.choice(size, size=max_per_input, replace=False))
        for j in picks:
            at = np.unravel_index(j, t.shape)
            orig = t.data[at]
            try:
                t.data[at] = orig + step
                hi = fn().item()
                t.data[at] = orig - step
                lo = fn().item()
            finally:
                t.data[at] = orig
            fd = (hi - lo) / (2.0 * step)
            ad = float(grad[at])
            err = abs(ad - fd)
            ref = max(abs(ad), abs(fd))
            rel = err / (floor + ref)
            n_checked += 1
            if rel > max_rel:
                max_rel = rel
                worst = f"input[{idx}] elem {j}: ad={ad:.6e} fd={fd:.6e}"
            if err > _ABS_TOL + rel_tol * ref:
                passed = False
    return CheckResult(name, module, passed, max_rel, n_checked, worst)


# ---------------------------------------------------------------------------
# the battery


@dataclass
class OpCheck:
    name: str
    module: str
    build: object  # rng -> (fn, inputs)
    rel_tol: float = 1e-5
    step: float = 1e-5
    max_per_input: int = 6


def _t(rng, shape, lo=-1.0, hi=1.0) -> Tensor:
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _weighted_sum(y: Tensor, w: Tensor) -> Tensor:
    return T.reduce_sum(T.mul(y, w))


def _op(op, *specs, out=None):
    """⟨op(*inputs), wt⟩: draw each input from its spec, a shape or
    ``(shape, lo, hi)`` (default range ±1), in order, then the cotangent
    ``wt`` of shape ``out`` (by default the first input's).  The inputs are
    the drawn ones, then ``wt``."""

    def build(rng):
        inputs = [_t(rng, *(s if isinstance(s[0], tuple) else (s,))) for s in specs]
        wt = _t(rng, out or inputs[0].shape)
        return lambda: _weighted_sum(op(*inputs), wt), inputs + [wt]

    return build


def _block(init, op, shape):
    """⟨op(x, params), wt⟩ for a sequence block: draw ``params = init(rng)``,
    then the input ``x`` and the cotangent ``wt``, both of ``shape``.  The
    inputs are ``x``, ``wt``, then every parameter in layout order."""

    def build(rng):
        params = init(rng)
        x = _t(rng, shape)
        wt = _t(rng, shape)
        inputs = [x, wt] + [t for _, t in params.tensors()]
        return lambda: _weighted_sum(op(x, params), wt), inputs

    return build


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
    a = Tensor(raw, requires_grad=True)

    def fn():
        y = T.add(T.leaky_relu(a), T.absolute(a))
        y = T.add(y, T.max_with_scalar(a, 0.3))
        return T.reduce_sum(y)

    return fn, [a]


def _build_matmul(rng):
    a = _t(rng, (3, 4))
    b = _t(rng, (4, 5))

    def fn():
        return T.reduce_sum(T.matmul(a, b))

    return fn, [a, b]


def _build_reductions(rng):
    x = _t(rng, (3, 4, 2))

    def fn():
        y = T.mul(T.reduce_mean(x, axis=0), T.reduce_sum(x, axis=0))
        return T.add(T.reduce_sum(y), T.reduce_mean(x))

    return fn, [x]


def _build_shape_ops(rng):
    x = _t(rng, (2, 3, 4))
    w = _t(rng, (4, 6))

    def fn():
        y = T.reshape_permute(x, (4, 6), (2, 0, 1))  # (4, 2, 3) -> (4, 6)
        y = T.flip(y, (0,))
        lo, hi = T.split(y, 2, axis=1)
        return _weighted_sum(T.concat([hi, lo], axis=1), w)

    return fn, [x, w]


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
    x = Tensor(rng.uniform(-1, 1, size=(1, 1, 16, 16)))
    labels = rng.integers(0, 2, size=(1, 16, 16)).astype(np.int32)

    def fn():
        return dice_ce_loss(net.forward(x), labels)

    return fn, list(net.params.values())


def _conv(x, w, b):  # spatial n -> (n - 1) // 2 + 1
    return conv_nd(x, w, b, stride=2, padding=1)


def _convt(x, w, b):  # spatial n -> 2n
    return conv_transpose_nd(x, w, b, stride=2, padding=0)


def _convt_6x6(x, w):  # the default output would be 5x5; 6x6 floors back to 3x3
    return conv_transpose_nd(x, w, stride=2, padding=1, output_size=(6, 6))


def _reversed_vil(u, p):  # the block as ``xlstm_block`` runs its reverse half
    return T.flip(vil_block(T.flip(u, (1,)), p), (1,))


_CHECKS = (
    OpCheck("arithmetic", "tensor", _build_arithmetic),
    OpCheck("unary_smooth", "tensor", _build_unary_smooth),
    OpCheck("kinked_units", "tensor", _build_kinked),
    OpCheck("matmul", "tensor", _build_matmul),
    OpCheck(
        "matmul_batched", "tensor",
        _op(lambda a, b: T.matmul(a, b), (2, 3, 3, 4), (4, 5), out=(2, 3, 3, 5)),
    ),
    OpCheck("reductions", "tensor", _build_reductions),
    OpCheck("reduce_max", "tensor", _op(lambda x: T.reduce_max(x, axis=1), (4, 6), out=(4,))),
    OpCheck("cumsum", "tensor", _op(lambda x: T.cumsum(x, axis=1), (3, 5))),
    OpCheck("shape_ops", "tensor", _build_shape_ops),
    OpCheck(
        "broadcast_to", "tensor",
        _op(lambda x: T.broadcast_to(x, (4, 3, 5)), (3, 1), out=(4, 3, 5)),
    ),
    OpCheck("conv1d", "nnops", _op(_conv, (2, 3, 7), (4, 3, 3), (4,), out=(2, 4, 4))),
    OpCheck("conv2d", "nnops", _op(_conv, (2, 3, 6, 5), (4, 3, 3, 3), (4,), out=(2, 4, 3, 3))),
    OpCheck(
        "conv3d", "nnops",
        _op(_conv, (2, 3, 5, 4, 4), (4, 3, 3, 3, 3), (4,), out=(2, 4, 3, 2, 2)),
    ),
    OpCheck("conv_transpose1d", "nnops", _op(_convt, (2, 4, 5), (4, 3, 2), (3,), out=(2, 3, 10))),
    OpCheck(
        "conv_transpose2d", "nnops",
        _op(_convt, (2, 4, 4, 3), (4, 3, 2, 2), (3,), out=(2, 3, 8, 6)),
    ),
    OpCheck(
        "conv_transpose3d", "nnops",
        _op(_convt, (2, 4, 3, 3, 2), (4, 3, 2, 2, 2), (3,), out=(2, 3, 6, 6, 4)),
    ),
    OpCheck(
        "conv_transpose_output_size", "nnops",
        _op(_convt_6x6, (2, 2, 3, 3), (2, 3, 3, 3), out=(2, 3, 6, 6)),
    ),
    OpCheck("causal_conv1d", "nnops", _op(lambda *a: causal_conv1d(*a), (2, 6, 4), (4, 3), (4,))),
    OpCheck(
        "instance_norm", "nnops",
        _op(lambda *a: instance_norm(*a), (2, 3, 4, 5), ((3,), 0.5, 1.5), (3,)),
    ),
    OpCheck(
        "layer_norm", "nnops",
        _op(lambda *a: layer_norm(*a), (2, 5, 6), ((6,), 0.5, 1.5), (6,)),
    ),
    OpCheck("softmax", "nnops", _op(lambda x: softmax(x, axis=1), (2, 4, 3))),
    OpCheck(
        "mlstm_sequence", "vil",
        _block(lambda r: MlstmParams(r, 8, 2, np.float64),
               lambda *a: mlstm_sequence(*a), (2, 5, 8)),
        max_per_input=4,
    ),
    OpCheck(
        "vil_block_forward", "vil",
        _block(lambda r: VilBlockParams(r, 6, 3, 2, 4, np.float64),
               lambda *a: vil_block(*a), (2, 5, 6)),
        max_per_input=4,
    ),
    OpCheck(
        "vil_block_reverse", "vil",
        _block(lambda r: VilBlockParams(r, 6, 3, 2, 4, np.float64),
               _reversed_vil, (2, 5, 6)),
        max_per_input=4,
    ),
    OpCheck(
        "xlstm_block", "vil",
        _block(lambda r: XlstmBlockParams(r, 4, 2, 2, 4, np.float64),
               lambda *a: xlstm_block(*a), (2, 4, 2, 4)),
        max_per_input=3,
    ),
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
)


def run_checks(module: str | None = None, seed: int = 0) -> list[CheckResult]:
    """Run the battery (optionally one module's checks), seeded."""
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    selected = [c for c in _CHECKS if module is None or c.module == module]
    if not selected:
        modules = list(dict.fromkeys(c.module for c in _CHECKS))
        raise ContractError(f"no gradient checks in module {module!r}; use one of {modules}")
    results = []
    for check in selected:
        rng = T._rng_stream(seed, zlib.crc32(check.name.encode()))
        fn, inputs = check.build(rng)
        result = finite_diff_check(
            fn,
            inputs,
            step=check.step,
            rel_tol=check.rel_tol,
            max_per_input=check.max_per_input,
            rng=rng,
            name=check.name,
            module=check.module,
        )
        results.append(result)
    return results
