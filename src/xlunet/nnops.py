"""Fused neural-net kernels on top of tensor.py: N-d convolution and its
transpose, instance/layer norm, softmax, and a depthwise causal 1-d conv.

These are single tape nodes with hand-written backwards (the closed forms are
cheaper and numerically tighter than composing primitives); every one of them
is covered by the finite-difference battery in gradcheck.py.

Convolutions are GEMMs over patch matrices, but no full patch matrix is ever
built.  ``_slabs`` takes a strided (B, C, *k, *out) view of the zero-padded
input and copies the patches of a few output rows (along the first spatial
axis) at a time into one reused buffer, so the GEMM reads each slab back from
cache instead of streaming a matrix 27x the input from memory.  A slab holds
at most ``_SLAB_BYTES`` = 512 KiB (at least one row): with the GEMM's
operands and output beside it, it stays inside a 2 MiB per-core L2.  A
one-tap kernel at stride 1 needs no copy: its patch matrix is the input.  A
stride-1, multi-tap kernel of rank >= 2 takes each patch row across the
whole padded width of the last axis, ``k[-1] - 1`` columns past the
output's: the last two axes of a tap are then one contiguous run of the
input (288 floats at 16^3 instead of 16), which copies several times faster.
The GEMMs compute those extra columns; the forward drops them when it writes
its output, and the weight cotangent multiplies them by a ``g`` that is
zero-padded across them, so neither an output nor the weights ever see them.
The last tap of the last row reads ``k[-1] - 1`` elements past the padded
input: ``_window`` allocates that slack (a spare zero row), and an input that
arrives without it is copied once.

The transposed convolution is the exact adjoint of ``conv_nd`` under the same
(stride, padding) geometry, so <conv(x, w), y> == <x, conv_transpose(y, w)>
holds to rounding error, with the *same* weight array: conv weights are
(out_ch, in_ch, *k), transposed conv weights are (in_ch, out_ch, *k).

Routes:

* ``conv_nd`` forward: ``y[:, :, slab] = W @ patches(slab)``, on whole rows
  at stride 1 and on the strided view otherwise.  Its weight cotangent
  re-slabs the padded input kept by the forward and accumulates
  ``gw.T += patches_b(slab) @ g_b[:, slab].T`` batch by batch, the
  orientation that BLAS runs fastest on these shapes (about 2x the
  ``g @ patches.T`` one).  A slab of one column folds the batch into the
  contraction instead, and a batch of one makes that an outer product, so
  no GEMM contracts over a single index.  So does
  ``conv_transpose_nd``'s backward, whose cotangents come from the slabs of
  g.
* The adjoint (``conv_nd``'s input cotangent, ``conv_transpose_nd``'s
  forward) is ``_conv_t``, one phase rule for every geometry.  Conv output p
  reads input q = p*stride + off - padding through tap off, so q receives
  only the taps with off == (q + padding) mod stride.  The outputs of one
  phase (one residue per axis) are a stride-1 correlation of a window of y
  with that phase's taps, flipped on every spatial axis and with in/out axes
  swapped, written to the phase's strided slice.  Every phase is thus a
  stride-1 correlation, on whole rows when it has several taps.  Stride 1 is
  one phase, the whole output, returned as the GEMM wrote it; a phase with
  no taps (kernel < stride) stays zero.  x gets no cotangent (``None``)
  without requires_grad.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import (
    ContractError,
    Tensor,
    _check_operands,
    _mean,
    _norm_axis,
    _readonly_view,
    record,
)

__all__ = [
    "conv_nd",
    "conv_transpose_nd",
    "causal_conv1d",
    "instance_norm",
    "layer_norm",
    "softmax",
]

# Patch bytes per slab: a slab, the weights and the GEMM's output slab must
# fit together in one core's L2 (2 MiB on the x86-64 CPU this was tuned on),
# or the GEMM streams the slab back from memory and the copy buys nothing.
_SLAB_BYTES = 512 * 1024


def _per_axis(value, rank: int, name: str) -> tuple[int, ...]:
    value = (int(value),) * rank if isinstance(value, int) else tuple(int(v) for v in value)
    if len(value) != rank:
        raise ContractError(f"{name}: expected {rank} values, got {value}")
    if min(value) < (1 if name == "stride" else 0):
        raise ContractError(f"{name}: invalid {value}")
    return value


def _window(arr: np.ndarray, start, size) -> np.ndarray:
    """The (B, C, *size) window of the spatial axes of ``arr`` (B, C, *sp)
    whose first corner is ``start``, zero where it leaves ``arr``: a negative
    start pads, a short size crops.  ``arr`` itself when nothing changes.
    A new window is allocated with a spare row of ``size[-1]`` zeros past
    its end, which is the slack that whole-row patches read (see
    ``_slabs``)."""
    sp = arr.shape[2:]
    if not any(start) and tuple(size) == sp:
        return arr
    shape = arr.shape[:2] + tuple(size)
    count = math.prod(shape)
    out = np.zeros(count + size[-1], arr.dtype)[:count].reshape(shape)
    src, dst = [slice(None)] * 2, [slice(None)] * 2
    for a, m, n in zip(start, size, sp):
        lo, hi = max(a, 0), min(a + m, n)
        if lo >= hi:
            return out
        src.append(slice(lo, hi))
        dst.append(slice(lo - a, hi - a))
    out[tuple(dst)] = arr[tuple(src)]
    return out


def _patch_grid(k, stride, out_sp) -> tuple[int, ...]:
    """The output positions that the patch columns of ``_slabs`` cover:
    ``out_sp``, except that a stride-1, multi-tap kernel of rank >= 2 runs
    each row ``k[-1] - 1`` columns further, across the whole padded width."""
    if len(k) < 2 or max(stride) > 1 or math.prod(k) == 1:
        return tuple(out_sp)
    return tuple(out_sp[:-1]) + (out_sp[-1] + k[-1] - 1,)


def _with_slack(xp: np.ndarray, slack: int) -> np.ndarray:
    """The elements of ``xp`` in C order followed by ``slack`` zeros, as one
    flat array: the buffer ``_window`` allocated ``xp`` in, or a copy."""
    base, n = xp.base, xp.size
    if (
        isinstance(base, np.ndarray)
        and base.ndim == 1
        and base.dtype == xp.dtype
        and xp.flags.c_contiguous
        and base.size >= n + slack
        # n contiguous elements inside base start at base[0] exactly when
        # they stop short of base[n:] (a bounds test, no pointer read)
        and not np.may_share_memory(xp, base[n:])
        and not np.count_nonzero(base[n : n + slack])
    ):
        return base[: n + slack]
    flat = np.zeros(n + slack, xp.dtype)
    flat[:n].reshape(xp.shape)[...] = xp
    return flat


def _slabs(xp: np.ndarray, k, stride, out_sp, grid):
    """Yield ``(rows, cols)`` slab by slab along the first output axis:
    ``cols`` is the (B, C*prod(k), n) patch matrix of the padded input ``xp``
    at the output rows ``rows`` (a slice of that axis), its n columns
    flattened in C order.  Every slab lives in one reused buffer: use it
    before asking for the next.  A one-tap kernel at stride 1 yields ``xp``
    itself as its one slab.

    The columns cover the output positions ``grid`` (``_patch_grid``): at
    stride 1 with several taps and rank >= 2, each patch row runs across the
    whole padded width of the last axis, ``k[-1] - 1`` columns past the
    output's end, so that the last two axes of every tap are one contiguous
    run of ``xp`` to copy.  The last tap of the last row reads that many
    elements past ``xp``: the slack that ``_window`` allocates, else ``xp``
    is copied once into a buffer that has it."""
    rank = len(k)
    b, c = xp.shape[:2]
    if math.prod(k) == 1 and all(s == 1 for s in stride):
        yield slice(None), xp.reshape(b, c, -1)
        return
    slack = grid[-1] - out_sp[-1]
    base, strides = xp, xp.strides
    if slack:
        base = _with_slack(xp, slack)
        strides = base[: xp.size].reshape(xp.shape).strides
    sb, sc, *ssp = strides
    shape = (b, c) + tuple(k) + grid
    strides = (sb, sc) + tuple(ssp) + tuple(s * st for s, st in zip(ssp, stride))
    if base.flags.c_contiguous:
        view = _readonly_view(base, shape, strides)
    else:
        view = as_strided(base, shape, strides, writeable=False)
    rest = math.prod(grid[1:])
    ck = c * math.prod(k)
    rows = min(out_sp[0], max(1, _SLAB_BYTES // (b * ck * rest * xp.itemsize)))
    buf = np.empty(b * ck * rows * rest, xp.dtype)
    lead = (slice(None),) * (2 + rank)
    for r0 in range(0, out_sp[0], rows):
        r1 = min(r0 + rows, out_sp[0])
        patches = view[lead + (slice(r0, r1),)]
        cols = buf[: patches.size].reshape(patches.shape)
        np.copyto(cols, patches)
        yield slice(r0, r1), cols.reshape(b, ck, -1)


def _patch_gemm(xp, k, stride, out_sp, lhs=None, g=None):
    """GEMMs against the patches of ``xp``, one slab at a time.

    Returns ``(y, gw)``: ``y = lhs @ patches`` as (B, M, *out_sp) when
    ``lhs`` (M, C*K) is given, and ``gw = sum_b g_b @ patches_b.T`` as
    (N, C*K) when ``g`` (B, N, *out_sp) is given; the other is ``None``.
    Whole-row patches (see ``_slabs``) have columns past each output row:
    ``y`` drops them, and ``g`` is zero-padded across them.  ``gw`` is
    accumulated transposed, ``cols_b @ g_b.T``, which BLAS runs faster than
    ``g_b @ cols_b.T``; a one-column slab folds the batch into the
    contraction instead.
    """
    b = xp.shape[0]
    grid = _patch_grid(k, stride, out_sp)
    slack = grid[-1] - out_sp[-1]
    rest = math.prod(grid[1:])
    y = gwt = part = None
    if lhs is not None:
        y = np.empty((b, lhs.shape[0]) + tuple(out_sp), xp.dtype)
        y2 = y.reshape(b, lhs.shape[0], -1)
    if g is not None:
        if slack:
            gp = np.zeros(g.shape[:2] + grid, g.dtype)
            gp[..., : out_sp[-1]] = g
            g = gp
        g2 = g.reshape(b, g.shape[1], -1)
        gwt = np.zeros((xp.shape[1] * math.prod(k), g.shape[1]), xp.dtype)
    for rows, cols in _slabs(xp, k, stride, out_sp, grid):
        r0, r1, _ = rows.indices(out_sp[0])
        sl, n = slice(r0 * rest, r1 * rest), cols.shape[2]
        if y is not None and not slack:
            np.matmul(lhs, cols, out=y2[:, :, sl])
        elif y is not None:
            if part is None:
                part = np.empty((b, lhs.shape[0], n), xp.dtype)
            wide = np.matmul(lhs, cols, out=part[:, :, :n])
            y[:, :, r0:r1] = wide.reshape(wide.shape[:2] + (r1 - r0,) + grid[1:])[..., : out_sp[-1]]
        if gwt is None:
            continue
        gs = g2[:, :, sl]
        if n == 1:
            lhs_t, rhs_t = cols[:, :, 0].T, gs[:, :, 0]
            gwt += lhs_t @ rhs_t if b > 1 else lhs_t * rhs_t
        else:
            for i in range(b):
                gwt += cols[i] @ gs[i].T
    return y, None if gwt is None else gwt.T


def _conv_t(y: np.ndarray, w: np.ndarray, stride, padding, out_sp) -> np.ndarray:
    """Adjoint of ``conv_nd(., w, stride, padding)``: (B, w.shape[0], *sp) ->
    (B, w.shape[1], *out_sp), one stride-1 correlation per output phase (see
    the module docstring)."""
    k = w.shape[2:]
    lead = (slice(None), slice(None))
    flip = lead + (slice(None, None, -1),) * len(k)
    wt = w.swapaxes(0, 1)
    alloc = np.empty if all(kk >= s for kk, s in zip(k, stride)) else np.zeros
    out = None if max(stride) == 1 else alloc(y.shape[:1] + wt.shape[:1] + out_sp, y.dtype)

    def phases(kk, s, p, n):
        # phase r: taps r, r + s, ...; outputs q0, q0 + s, ... (those with
        # (q + padding) % s == r); and the window of y they read, from
        # (q0 + padding - r) / s back by the tap count less one
        for r in range(min(s, kk)):
            q0, n_taps = (r - p) % s, len(range(r, kk, s))
            n_q, start = len(range(q0, n, s)), (q0 + p - r) // s - (n_taps - 1)
            yield slice(r, None, s), slice(q0, None, s), n_q, start, n_q + n_taps - 1

    for phase in itertools.product(*map(phases, k, stride, padding, out_sp)):
        tap_sl, out_sl, n_q, start, size = zip(*phase)
        if not all(n_q):
            continue
        taps = wt[lead + tap_sl][flip]
        lhs = taps.reshape(len(taps), -1)
        part, _ = _patch_gemm(_window(y, start, size), taps.shape[2:], (1,) * len(k), n_q, lhs=lhs)
        if out is None:
            return part
        out[lead + out_sl] = part
    return out


def _check_conv_args(inputs: tuple, op: str, transpose: bool) -> tuple[int, int, int]:
    """Check the ``(x, w[, bias])`` operands of a convolution whose weight is
    (out, in, *k), or (in, out, *k) when ``transpose``; (rank, in, out)."""
    _check_operands(op, inputs)
    xs, ws = inputs[0].data.shape, inputs[1].data.shape
    rank = len(ws) - 2
    if rank not in (1, 2, 3):
        raise ContractError(f"{op}: weight must be rank 3..5 (1-3 spatial dims), got shape {ws}")
    if len(xs) != rank + 2:
        raise ContractError(f"{op}: input shape {xs} does not match weight shape {ws}")
    cin, cout = ws[:2] if transpose else ws[1::-1]
    if cin != xs[1]:
        raise ContractError(f"{op}: input has {xs[1]} channels, weight expects {cin}")
    if len(inputs) == 3 and inputs[2].data.shape != (cout,):
        raise ContractError(f"{op}: bias shape {inputs[2].data.shape} != ({cout},)")
    return rank, cin, cout


def conv_nd(x: Tensor, w: Tensor, bias: Tensor | None = None, stride=1, padding=0) -> Tensor:
    """N-d cross-correlation: (B, Cin, *sp) x (Cout, Cin, *k) -> (B, Cout, *out).

    ``out[d] = (sp[d] + 2*padding[d] - k[d]) // stride[d] + 1``.
    """
    inputs = (x, w) if bias is None else (x, w, bias)
    rank, _, cout = _check_conv_args(inputs, "conv_nd", transpose=False)
    stride = _per_axis(stride, rank, "stride")
    padding = _per_axis(padding, rank, "padding")
    k = w.data.shape[2:]
    sp = x.data.shape[2:]
    out_sp = tuple(
        (n + 2 * p - kk) // s + 1 for n, p, kk, s in zip(sp, padding, k, stride)
    )
    if any(n + 2 * p < kk for n, p, kk in zip(sp, padding, k)) or any(o < 1 for o in out_sp):
        raise ContractError(
            f"conv_nd: kernel {k} does not fit input {sp} with padding {padding}"
        )

    padded = tuple(n + 2 * p for n, p in zip(sp, padding))
    xp = _window(x.data, tuple(-p for p in padding), padded)
    w2 = w.data.reshape(cout, -1)
    y, _ = _patch_gemm(xp, k, stride, out_sp, lhs=w2)  # (B, Cout, *out)
    if bias is not None:
        y += bias.data.reshape((1, cout) + (1,) * rank)
    out = Tensor(y)
    wd, x_grad, has_bias = w.data, x.requires_grad, bias is not None

    def vjp(g):
        _, gw = _patch_gemm(xp, k, stride, out_sp, g=g)
        gw = gw.reshape(wd.shape)
        gx = _conv_t(g, wd, stride, padding, sp) if x_grad else None
        if not has_bias:
            return gx, gw
        return gx, gw, g.sum(axis=(0,) + tuple(range(2, 2 + rank)))

    return record(out, inputs, vjp)


def conv_transpose_nd(
    x: Tensor,
    w: Tensor,
    bias: Tensor | None = None,
    stride=1,
    padding=0,
    output_size=None,
) -> Tensor:
    """Adjoint of ``conv_nd``: (B, Cin, *sp) x (Cin, Cout, *k) -> (B, Cout, *out).

    Default ``out[d] = (sp[d] - 1) * stride[d] - 2 * padding[d] + k[d]``;
    ``output_size`` may pick any other spatial size that the forward conv
    would have floored to the same ``sp`` (resolves the stride ambiguity).
    """
    inputs = (x, w) if bias is None else (x, w, bias)
    rank, cin, cout = _check_conv_args(inputs, "conv_transpose_nd", transpose=True)
    stride = _per_axis(stride, rank, "stride")
    padding = _per_axis(padding, rank, "padding")
    k = w.data.shape[2:]
    sp = x.data.shape[2:]
    if output_size is None:
        out_sp = tuple(
            (n - 1) * s - 2 * p + kk for n, s, p, kk in zip(sp, stride, padding, k)
        )
    else:
        out_sp = tuple(int(v) for v in output_size)
        if len(out_sp) != rank:
            raise ContractError(f"conv_transpose_nd: output_size needs {rank} dims, got {out_sp}")
    ok = all(
        o + 2 * p >= kk and (o + 2 * p - kk) // s + 1 == n
        for o, p, kk, s, n in zip(out_sp, padding, k, stride, sp)
    )
    if not ok or any(o < 1 for o in out_sp):
        raise ContractError(
            f"conv_transpose_nd: output size {out_sp} is inconsistent with input {sp},"
            f" kernel {k}, stride {stride}, padding {padding}"
        )

    y = _conv_t(x.data, w.data, stride, padding, out_sp)
    if bias is not None:
        y += bias.data.reshape((1, cout) + (1,) * rank)
    out = Tensor(y)
    xd, has_bias = x.data, bias is not None
    w2 = w.data.reshape(cin, -1) if x.requires_grad else None

    def vjp(g):
        padded = tuple(n + 2 * p for n, p in zip(out_sp, padding))
        gp = _window(g, tuple(-p for p in padding), padded)
        gx, gw = _patch_gemm(gp, k, stride, sp, lhs=w2, g=xd)
        gw = gw.reshape((cin, cout) + k)
        if not has_bias:
            return gx, gw
        return gx, gw, g.sum(axis=(0,) + tuple(range(2, 2 + rank)))

    return record(out, inputs, vjp)


def causal_conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """Depthwise causal convolution over the middle axis of (B, L, E).

    Left-pads with ``width - 1`` zeros so position t sees x[t-width+1 .. t]
    only; ``kernel`` is (E, width) with column ``width - 1`` as the tap on the
    current position.
    """
    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    _check_operands("causal_conv1d", inputs)
    xd, kd = x.data, kernel.data
    if xd.ndim != 3 or kd.ndim != 2 or kd.shape[0] != xd.shape[2]:
        raise ContractError(
            f"causal_conv1d: expected x (B, L, E) and kernel (E, width), got {xd.shape} and {kd.shape}"
        )
    if bias is not None and bias.data.shape != (xd.shape[2],):
        raise ContractError(f"causal_conv1d: bias shape {bias.data.shape} != ({xd.shape[2]},)")
    b, length, emb = xd.shape
    width = kd.shape[1]
    xp = np.zeros((b, length + width - 1, emb), xd.dtype)
    xp[:, width - 1 :] = xd
    y = np.zeros_like(xd)
    for tap in range(width):
        y += xp[:, tap : tap + length, :] * kd[:, tap]
    if bias is not None:
        y = y + bias.data
    out = Tensor(y)
    has_bias = bias is not None

    def vjp(g):
        gxp = np.zeros_like(xp)
        gk = np.empty_like(kd)
        for tap in range(width):
            gxp[:, tap : tap + length, :] += g * kd[:, tap]
            gk[:, tap] = (g * xp[:, tap : tap + length, :]).sum(axis=(0, 1))
        gx = gxp[:, width - 1 :, :]
        if not has_bias:
            return gx, gk
        return gx, gk, g.sum(axis=(0, 1))

    return record(out, inputs, vjp)


def _normalize(
    op: str, x: Tensor, gamma: Tensor, beta: Tensor, eps: float, axes: tuple, feat: int
) -> Tensor:
    """Normalize ``x`` over ``axes``, then scale and shift by gamma/beta along
    axis ``feat``.  One tape node; population variance (no Bessel
    correction)."""
    xd = x.data
    n_feat = xd.shape[feat]
    if gamma.data.shape != (n_feat,) or beta.data.shape != (n_feat,):
        raise ContractError(
            f"{op}: gamma/beta must have shape ({n_feat},), got {gamma.shape} and {beta.shape}"
        )
    rest = tuple(range(feat)) + tuple(range(feat + 1, xd.ndim))
    centered = xd - _mean(xd, axes)
    inv = 1.0 / np.sqrt(_mean(centered * centered, axes) + eps)
    xhat = centered * inv
    gshape = (n_feat,) + (1,) * (xd.ndim - 1 - feat)  # broadcasts along ``feat``
    gd = gamma.data.reshape(gshape)
    out = Tensor(gd * xhat + beta.data.reshape(gshape))

    def vjp(g):
        ggamma = (g * xhat).sum(axis=rest)
        gbeta = g.sum(axis=rest)
        gh = g * gd
        gx = inv * (gh - _mean(gh, axes) - xhat * _mean(gh * xhat, axes))
        return gx, ggamma, gbeta

    return record(out, (x, gamma, beta), vjp)


def instance_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each (batch, channel) slice over its spatial extent.

    x is (B, C, *sp); gamma/beta are per-channel scale/shift.  Population
    variance (no Bessel correction), matching the norm used at train time.
    """
    _check_operands("instance_norm", (x, gamma, beta))
    if x.ndim < 3:
        raise ContractError(f"instance_norm: input must be (B, C, *spatial), got {x.shape}")
    return _normalize("instance_norm", x, gamma, beta, eps, tuple(range(2, x.ndim)), feat=1)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis; gamma/beta have that axis's length."""
    _check_operands("layer_norm", (x, gamma, beta))
    if x.ndim < 1:
        raise ContractError("layer_norm: input must have at least one axis")
    return _normalize("layer_norm", x, gamma, beta, eps, (x.ndim - 1,), feat=x.ndim - 1)


def softmax(x: Tensor, axis: int) -> Tensor:
    """Shift-stabilized softmax along ``axis``."""
    _check_operands("softmax", (x,))
    ax = _norm_axis(axis, x.ndim, "softmax")
    shifted = x.data - x.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=ax, keepdims=True)
    out = Tensor(y)

    def vjp(g):
        dot = (g * y).sum(axis=ax, keepdims=True)
        return ((g - dot) * y,)

    return record(out, (x,), vjp)
