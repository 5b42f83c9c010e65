"""Sequence blocks: a stabilized matrix-memory recurrence with exponential
gating, wrapped in a gated pre-norm block, run over flattened volumes in both
directions.

The recurrence keeps, per head, an outer-product memory C, a normalizer n and
a running log-scale m.  For one position t with projections q, k (pre-scaled
by 1/sqrt(head_dim)), v and gate pre-activations i, f:

    m'  = max(f + m, i)
    C'  = exp(f + m - m') * C + exp(i - m') * v k^T
    n'  = exp(f + m - m') * n + exp(i - m') * k
    h~  = (C' q) / max(|n' . q|, 1)
    h   = sigmoid(out_gate) * h~

``mlstm_sequence`` evaluates that scan over a whole sequence as its
algebraically identical quadratic form, in one shot: with F_t the cumulative
sum of f and A[t, j] = F_t - F_j + i_j for j <= t (else -inf), the scan's
running max m_t equals the row max of A, the stabilized weights are
exp(A[t, j] - m_t) * (q_t . k_j), and the same readout/normalizer follow from
row sums.  This keeps the op a handful of vectorized tape nodes instead of
O(L) python steps, and its backward comes entirely from the primitive ops'
verified VJPs.  Equality with the scan is pinned against an independent
per-step loop (``tests/oracles.mlstm_loop``) by
``test_sequence_matches_loop_oracle`` at L = 12 and 16, in float64 at rtol
1e-10, atol 1e-12.  The
quadratic form runs with subnormal floats flushed to zero
(``tensor._flush_subnormals``): with exponential gating a few percent of the
float32 (B, H, L, L) decay and weight arrays fall below the smallest normal,
and each op over them would take the processor's slow path.

Direction handling: the cell and ``vil_block`` are causal.  ``xlstm_block``
pairs a forward block with a reverse one, which it runs as flip, block,
flip, so every op of the second block, the causal conv included, runs over
the reversed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nnops import causal_conv1d, layer_norm
from .tensor import ContractError, Tensor

__all__ = [
    "MlstmParams",
    "VilBlockParams",
    "XlstmBlockParams",
    "mlstm_sequence",
    "vil_block",
    "xlstm_block",
    "volume_to_sequence",
    "sequence_to_volume",
    "init_mlstm_params",
    "init_vil_params",
    "init_xlstm_params",
]

# ---------------------------------------------------------------------------
# parameter containers


class _Params:
    """Base of every parameter container, from these dataclasses up to the
    network: the order in which one assigns its attributes (a dataclass: its
    field order) is its layout, the checkpoint's and the gradient battery's
    input order."""

    def tensors(self) -> list[tuple[str, Tensor]]:
        """Every Tensor attribute in assignment order, a nested container's
        under "<attribute>."."""
        out = []
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                out.append((name, value))
            elif isinstance(value, _Params):
                out += [(f"{name}.{n}", t) for n, t in value.tensors()]
        return out


@dataclass
class MlstmParams(_Params):
    """Projections and gates for the matrix-memory recurrence.

    Linear weights are stored (in_features, out_features) and applied as
    ``x @ w``.  Keys are pre-scaled by 1/sqrt(head_dim) at projection time.
    Input/forget gates are scalar per head, the output gate is per channel.
    """

    query_proj: Tensor  # (E, E)
    key_proj: Tensor  # (E, E)
    value_proj: Tensor  # (E, E)
    input_gate_w: Tensor  # (E, H)
    input_gate_b: Tensor  # (H,)
    forget_gate_w: Tensor  # (E, H)
    forget_gate_b: Tensor  # (H,)
    out_gate_w: Tensor  # (E, E)
    out_gate_b: Tensor  # (E,)
    heads: int

    @property
    def embed_dim(self) -> int:
        return self.query_proj.shape[0]


@dataclass
class VilBlockParams(_Params):
    """One gated sequence block: pre-norm, up-projection split into a memory
    path (causal conv -> silu -> recurrence, with a learnable skip) and a
    silu gate, then down-projection with a residual."""

    ln_gamma: Tensor  # (D,)
    ln_beta: Tensor  # (D,)
    up_proj: Tensor  # (D, 2E)
    conv_kernel: Tensor  # (E, width)
    conv_bias: Tensor  # (E,)
    skip_scale: Tensor  # (E,)
    down_proj: Tensor  # (E, D)
    mlstm: MlstmParams  # last: the layout lists the cell after the block's own tensors


@dataclass
class XlstmBlockParams(_Params):
    """Standalone entry norm plus a forward and a reverse vil block."""

    pre_gamma: Tensor  # (C,)
    pre_beta: Tensor  # (C,)
    fwd: VilBlockParams
    rev: VilBlockParams


# ---------------------------------------------------------------------------
# initialization


def _uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> Tensor:
    """A weight drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in)): every linear and conv weight."""
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True)


def init_mlstm_params(
    rng: np.random.Generator, embed_dim: int, heads: int, dtype=np.float32
) -> MlstmParams:
    if embed_dim % heads != 0:
        raise ContractError(f"embed dim {embed_dim} must be divisible by heads {heads}")
    e, h = embed_dim, heads
    return MlstmParams(
        query_proj=_uniform(rng, (e, e), e, dtype),
        key_proj=_uniform(rng, (e, e), e, dtype),
        value_proj=_uniform(rng, (e, e), e, dtype),
        input_gate_w=_uniform(rng, (e, h), e, dtype),
        input_gate_b=Tensor(np.zeros(h, dtype=dtype), requires_grad=True),
        forget_gate_w=_uniform(rng, (e, h), e, dtype),
        # positive forget bias: sequences start with a mostly-open memory
        forget_gate_b=Tensor(np.ones(h, dtype=dtype), requires_grad=True),
        out_gate_w=_uniform(rng, (e, e), e, dtype),
        out_gate_b=Tensor(np.zeros(e, dtype=dtype), requires_grad=True),
        heads=heads,
    )


def init_vil_params(
    rng: np.random.Generator,
    model_dim: int,
    heads: int = 4,
    expansion: int = 2,
    conv_width: int = 4,
    dtype=np.float32,
) -> VilBlockParams:
    inner = expansion * model_dim
    return VilBlockParams(  # keyword order is the rng's draw order
        ln_gamma=Tensor(np.ones(model_dim, dtype=dtype), requires_grad=True),
        ln_beta=Tensor(np.zeros(model_dim, dtype=dtype), requires_grad=True),
        up_proj=_uniform(rng, (model_dim, 2 * inner), model_dim, dtype),
        conv_kernel=_uniform(rng, (inner, conv_width), conv_width, dtype),
        conv_bias=Tensor(np.zeros(inner, dtype=dtype), requires_grad=True),
        mlstm=init_mlstm_params(rng, inner, heads, dtype),
        skip_scale=Tensor(np.ones(inner, dtype=dtype), requires_grad=True),
        down_proj=_uniform(rng, (inner, model_dim), inner, dtype),
    )


def init_xlstm_params(
    rng: np.random.Generator,
    channels: int,
    heads: int = 4,
    expansion: int = 2,
    conv_width: int = 4,
    dtype=np.float32,
) -> XlstmBlockParams:
    return XlstmBlockParams(
        pre_gamma=Tensor(np.ones(channels, dtype=dtype), requires_grad=True),
        pre_beta=Tensor(np.zeros(channels, dtype=dtype), requires_grad=True),
        fwd=init_vil_params(rng, channels, heads, expansion, conv_width, dtype),
        rev=init_vil_params(rng, channels, heads, expansion, conv_width, dtype),
    )


# ---------------------------------------------------------------------------
# sequence op


_MASK_CACHE: dict[tuple[int, str], np.ndarray] = {}


def _causal_mask(length: int, dtype) -> np.ndarray:
    """(1, 1, L, L) additive mask: 0 on and below the diagonal, -inf above."""
    key = (length, np.dtype(dtype).str)
    mask = _MASK_CACHE.get(key)
    if mask is None:
        mask = np.zeros((1, 1, length, length), dtype=dtype)
        mask[0, 0][np.triu_indices(length, k=1)] = -np.inf
        mask.setflags(write=False)
        _MASK_CACHE[key] = mask
    return mask


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    y = T.matmul(x, w)
    col = T.reshape(b, (1,) * (y.ndim - 1) + (b.shape[0],))
    return T.add(y, T.broadcast_to(col, y.shape))


def _check_param_dtype(op: str, x: Tensor, param: Tensor) -> None:
    """An entry point's input must have its parameters' dtype: the mismatch
    is the caller's, so it is named at the entry, not at an op inside."""
    if x.data.dtype != param.data.dtype:
        raise ContractError(f"{op}: input dtype {x.data.dtype} != params dtype {param.data.dtype}")


def mlstm_sequence(seq: Tensor, params: MlstmParams) -> Tensor:
    """Run the causal recurrence over a whole (B, L, E) sequence as one taped
    op.

    Evaluates the stabilized quadratic form (see module docstring); output is
    elementwise equal to the per-step scan, up to floating-point
    associativity in the cumulative log-forget sums.
    """
    if not isinstance(seq, Tensor) or seq.ndim != 3:
        raise ContractError("mlstm_sequence: expected a (B, L, E) Tensor")
    if seq.shape[2] != params.embed_dim:
        raise ContractError(
            f"mlstm_sequence: embed dim {seq.shape[2]} != params dim {params.embed_dim}"
        )
    _check_param_dtype("mlstm_sequence", seq, params.query_proj)
    with T._flush_subnormals():
        return _mlstm_parallel(seq, params)


def _mlstm_parallel(seq: Tensor, params: MlstmParams) -> Tensor:
    b, length, embed = seq.shape
    heads = params.heads
    head_dim = embed // heads
    full = (b, heads, length, length)

    def heads_first(x: Tensor) -> Tensor:  # (B, L, E) -> (B, H, L, d)
        return T.permute(T.reshape(x, (b, length, heads, head_dim)), (0, 2, 1, 3))

    q = heads_first(T.matmul(seq, params.query_proj))
    k = heads_first(T.mul(T.matmul(seq, params.key_proj), 1.0 / math.sqrt(head_dim)))
    v = heads_first(T.matmul(seq, params.value_proj))

    def gate(w: Tensor, bias: Tensor) -> Tensor:  # (B, L, E) @ (E, H) -> (B, H, L)
        return T.permute(_linear(seq, w, bias), (0, 2, 1))

    i_pre = gate(params.input_gate_w, params.input_gate_b)
    f_pre = gate(params.forget_gate_w, params.forget_gate_b)

    cum_f = T.cumsum(f_pre, axis=2)  # (B, H, L), inclusive
    row = T.broadcast_to(T.reshape(cum_f, (b, heads, length, 1)), full)
    col = T.broadcast_to(T.reshape(T.sub(i_pre, cum_f), (b, heads, 1, length)), full)
    logits = T.add(row, col)  # logits[t, j] = F_t - F_j + i_j
    mask = Tensor(_causal_mask(length, seq.data.dtype))  # a constant: no tape node
    logits = T.add(logits, T.broadcast_to(mask, full))

    # row max == the scan's running log-scale m_t (diagonal keeps it finite)
    log_scale = T.reduce_max(logits, axis=3, keepdims=True)
    decay = T.exp(T.sub(logits, T.broadcast_to(log_scale, full)))

    scores = T.matmul(q, T.permute(k, (0, 1, 3, 2)))  # q_t . k_j
    weights = T.mul(scores, decay)
    numer = T.matmul(weights, v)  # (B, H, L, d)
    denom_raw = T.reduce_sum(weights, axis=3, keepdims=True)
    denom = T.max_with_scalar(T.absolute(denom_raw), 1.0)
    inner = T.div(numer, T.broadcast_to(denom, numer.shape))
    merged = T.reshape_permute(inner, (b, length, embed), (0, 2, 1, 3))

    out_gate = T.sigmoid(_linear(seq, params.out_gate_w, params.out_gate_b))
    return T.mul(out_gate, merged)


# ---------------------------------------------------------------------------
# blocks


def vil_block(seq: Tensor, params: VilBlockParams) -> Tensor:
    """Pre-norm gated block around the causal sequence recurrence;
    (B, L, D) -> same."""
    if not isinstance(seq, Tensor) or seq.ndim != 3:
        raise ContractError("vil_block: expected a (B, L, D) Tensor")
    if seq.shape[2] != params.ln_gamma.shape[0]:
        raise ContractError(
            f"vil_block: model dim {seq.shape[2]} != params dim {params.ln_gamma.shape[0]}"
        )
    _check_param_dtype("vil_block", seq, params.ln_gamma)

    u = layer_norm(seq, params.ln_gamma, params.ln_beta)
    up = T.matmul(u, params.up_proj)  # (B, L, 2E)
    memory_in, gate_in = T.split(up, 2, axis=2)

    conv = T.silu(causal_conv1d(memory_in, params.conv_kernel, params.conv_bias))
    h = mlstm_sequence(conv, params.mlstm)
    skip = T.reshape(params.skip_scale, (1, 1, conv.shape[2]))
    h = T.add(h, T.mul(conv, T.broadcast_to(skip, conv.shape)))

    gated = T.mul(h, T.silu(gate_in))
    return T.add(seq, T.matmul(gated, params.down_proj))


def volume_to_sequence(x: Tensor) -> Tensor:
    """(B, C, *spatial) -> (B, prod(spatial), C), row-major spatial order."""
    if not isinstance(x, Tensor) or x.ndim < 3:
        raise ContractError(f"volume_to_sequence: expected (B, C, *spatial), got shape {getattr(x, 'shape', None)}")
    b, c = x.shape[:2]
    length = math.prod(x.shape[2:])
    order = (0,) + tuple(range(2, x.ndim)) + (1,)
    return T.reshape_permute(x, (b, length, c), order)


def sequence_to_volume(seq: Tensor, spatial: tuple[int, ...]) -> Tensor:
    """Inverse of ``volume_to_sequence``: (B, L, C) -> (B, C, *spatial)."""
    if not isinstance(seq, Tensor) or seq.ndim != 3:
        raise ContractError("sequence_to_volume: expected a (B, L, C) Tensor")
    b, length, c = seq.shape
    spatial = tuple(spatial)
    if math.prod(spatial) != length:
        raise ContractError(f"sequence_to_volume: length {length} != prod of spatial {spatial}")
    grid = T.reshape(seq, (b,) + spatial + (c,))
    rank = len(spatial)
    return T.permute(grid, (0, rank + 1) + tuple(range(1, rank + 1)))


def xlstm_block(x: Tensor, params: XlstmBlockParams) -> Tensor:
    """Flatten a (B, C, *spatial) volume, norm it, run a forward and a
    reverse vil block, and fold it back to the volume layout."""
    seq = volume_to_sequence(x)
    _check_param_dtype("xlstm_block", seq, params.pre_gamma)
    u = layer_norm(seq, params.pre_gamma, params.pre_beta)
    u = vil_block(u, params.fwd)
    u = T.flip(vil_block(T.flip(u, (1,)), params.rev), (1,))
    return sequence_to_volume(u, x.shape[2:])
