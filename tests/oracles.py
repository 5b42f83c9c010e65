"""Independent brute-force reference implementations.

Everything here is written the dumb, obviously-correct way — explicit loops,
pairwise distances, BFS — and deliberately shares no code with the package.
Tests compare the fast implementations against these.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np


# ---------------------------------------------------------------------------
# linear algebra


def matmul_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    b = np.asarray(b)
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.result_type(a, b))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


# ---------------------------------------------------------------------------
# convolution


def conv_nd_loops(x, w, bias=None, stride=1, padding=0):
    """Direct cross-correlation.  x: (B, Cin, *sp), w: (Cout, Cin, *k)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    rank = x.ndim - 2
    stride = (stride,) * rank if np.isscalar(stride) else tuple(stride)
    padding = (padding,) * rank if np.isscalar(padding) else tuple(padding)
    b_, cin, *sp = x.shape
    cout, cin2, *k = w.shape
    assert cin == cin2
    xp = np.pad(x, [(0, 0), (0, 0)] + [(p, p) for p in padding])
    out_sp = [
        (sp[d] + 2 * padding[d] - k[d]) // stride[d] + 1 for d in range(rank)
    ]
    out = np.zeros([b_, cout] + out_sp)
    for bi in range(b_):
        for co in range(cout):
            for pos in np.ndindex(*out_sp):
                s = 0.0
                for ci in range(cin):
                    for off in np.ndindex(*k):
                        idx = tuple(
                            pos[d] * stride[d] + off[d] for d in range(rank)
                        )
                        s += xp[(bi, ci) + idx] * w[(co, ci) + off]
                out[(bi, co) + pos] = s
            if bias is not None:
                out[bi, co] += float(bias[co])
    return out


def conv_weight_grad_loops(x, g, k, stride=1, padding=0):
    """Weight cotangent of ``conv_nd_loops``: gw[co, ci, tap] is the sum over
    batch and output positions p of g[b, co, p] * xp[b, ci, p*stride + tap],
    xp the zero-padded x.  x: (B, Cin, *sp), g: (B, Cout, *out)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    rank = x.ndim - 2
    k = (k,) * rank if np.isscalar(k) else tuple(k)
    stride = (stride,) * rank if np.isscalar(stride) else tuple(stride)
    padding = (padding,) * rank if np.isscalar(padding) else tuple(padding)
    b_, cin = x.shape[:2]
    cout, out_sp = g.shape[1], g.shape[2:]
    xp = np.pad(x, [(0, 0), (0, 0)] + [(p, p) for p in padding])
    gw = np.zeros([cout, cin] + list(k))
    for co in range(cout):
        for ci in range(cin):
            for tap in np.ndindex(*k):
                s = 0.0
                for bi in range(b_):
                    for pos in np.ndindex(*out_sp):
                        idx = tuple(pos[d] * stride[d] + tap[d] for d in range(rank))
                        s += g[(bi, co) + pos] * xp[(bi, ci) + idx]
                gw[(co, ci) + tap] = s
    return gw


def conv_transpose_nd_loops(x, w, bias=None, stride=1, padding=0, output_size=None):
    """Direct scatter transposed convolution.  x: (B, Cin, *sp), w: (Cin, Cout, *k)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    rank = x.ndim - 2
    stride = (stride,) * rank if np.isscalar(stride) else tuple(stride)
    padding = (padding,) * rank if np.isscalar(padding) else tuple(padding)
    b_, cin, *sp = x.shape
    cin2, cout, *k = w.shape
    assert cin == cin2
    if output_size is None:
        out_sp = [
            (sp[d] - 1) * stride[d] - 2 * padding[d] + k[d] for d in range(rank)
        ]
    else:
        out_sp = list(output_size)
    full = [out_sp[d] + 2 * padding[d] for d in range(rank)]
    canvas = np.zeros([b_, cout] + full)
    for bi in range(b_):
        for ci in range(cin):
            for pos in np.ndindex(*sp):
                for co in range(cout):
                    for off in np.ndindex(*k):
                        idx = tuple(
                            pos[d] * stride[d] + off[d] for d in range(rank)
                        )
                        canvas[(bi, co) + idx] += x[(bi, ci) + pos] * w[(ci, co) + off]
    sl = tuple(slice(padding[d], padding[d] + out_sp[d]) for d in range(rank))
    out = canvas[(slice(None), slice(None)) + sl]
    if bias is not None:
        for co in range(cout):
            out[:, co] += float(bias[co])
    return out


# ---------------------------------------------------------------------------
# matrix-memory sequence cell: direct transcription of the recurrence


def mlstm_loop(seq, wq, wk, wv, wi, bi_, wf, bf, wo, bo, heads):
    """Per-timestep scan over one (B, L, E) sequence, one head at a time.

    Weight conventions match the package: projections are (E, E) applied as
    x @ W; gate weights (E, H) / biases (H,).  Returns (B, L, E).
    """
    seq = np.asarray(seq, dtype=np.float64)
    b_, length, e = seq.shape
    d = e // heads
    out = np.zeros_like(seq)
    q_all = seq @ wq
    k_all = (seq @ wk) / math.sqrt(d)
    v_all = seq @ wv
    i_all = seq @ wi + bi_
    f_all = seq @ wf + bf
    o_all = 1.0 / (1.0 + np.exp(-(seq @ wo + bo)))
    for bi in range(b_):
        for h in range(heads):
            c = np.zeros((d, d))
            n = np.zeros(d)
            m = -np.inf
            for t in range(length):
                q = q_all[bi, t, h * d : (h + 1) * d]
                k = k_all[bi, t, h * d : (h + 1) * d]
                v = v_all[bi, t, h * d : (h + 1) * d]
                itil = i_all[bi, t, h]
                ftil = f_all[bi, t, h]
                m_new = max(ftil + m, itil)
                i_gate = math.exp(itil - m_new)
                f_gate = math.exp(ftil + m - m_new) if np.isfinite(m) else 0.0
                c = f_gate * c + i_gate * np.outer(v, k)
                n = f_gate * n + i_gate * k
                m = m_new
                h_tilde = (c @ q) / max(abs(float(n @ q)), 1.0)
                out[bi, t, h * d : (h + 1) * d] = (
                    o_all[bi, t, h * d : (h + 1) * d] * h_tilde
                )
    return out


# ---------------------------------------------------------------------------
# segmentation metrics


def _neighbors(idx, shape):
    for d in range(len(shape)):
        for delta in (-1, 1):
            j = list(idx)
            j[d] += delta
            if 0 <= j[d] < shape[d]:
                yield tuple(j)


def boundary_voxels_bf(mask: np.ndarray) -> list[tuple[int, ...]]:
    """Foreground voxels with at least one face-adjacent background voxel;
    the array border counts as background."""
    mask = np.asarray(mask, dtype=bool)
    out = []
    for idx in np.ndindex(*mask.shape):
        if not mask[idx]:
            continue
        on_border = any(
            idx[d] == 0 or idx[d] == mask.shape[d] - 1 for d in range(mask.ndim)
        )
        if on_border or any(not mask[j] for j in _neighbors(idx, mask.shape)):
            out.append(idx)
    return out


def dice_bf(pred, gt) -> float:
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    p = int(pred.sum())
    g = int(gt.sum())
    if p + g == 0:
        return 1.0
    inter = int(np.logical_and(pred, gt).sum())
    return 2.0 * inter / (p + g)


def _pairwise_min_dists(points_a, points_b):
    """For each point in a, the Euclidean distance to the closest point of b.

    Exact all-pairs scan; only the arithmetic is vectorized (in row chunks to
    bound memory), no distance-transform shortcuts.
    """
    a = np.asarray(points_a, dtype=np.float64)
    b = np.asarray(points_b, dtype=np.float64)
    out = []
    for lo in range(0, len(a), 128):
        chunk = a[lo : lo + 128]
        d2 = ((chunk[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        out.extend(np.sqrt(d2.min(axis=1)).tolist())
    return out


def surface_dice_bf(pred, gt, tolerance: float) -> float:
    bp = boundary_voxels_bf(pred)
    bg = boundary_voxels_bf(gt)
    if not bp and not bg:
        return 1.0
    if not bp or not bg:
        return 0.0
    d_pg = _pairwise_min_dists(bp, bg)
    d_gp = _pairwise_min_dists(bg, bp)
    hits = sum(1 for d in d_pg if d <= tolerance) + sum(
        1 for d in d_gp if d <= tolerance
    )
    return hits / (len(bp) + len(bg))


def hausdorff95_bf(pred, gt):
    if not np.asarray(pred).any() or not np.asarray(gt).any():
        return None
    bp = boundary_voxels_bf(pred)
    bg = boundary_voxels_bf(gt)
    pooled = _pairwise_min_dists(bp, bg) + _pairwise_min_dists(bg, bp)
    return float(np.percentile(np.array(pooled), 95))


def components_bf(mask: np.ndarray) -> np.ndarray:
    """Face-connected component labels via BFS; 0 is background."""
    mask = np.asarray(mask, dtype=bool)
    labels = np.zeros(mask.shape, dtype=np.int32)
    nxt = 0
    for start in np.ndindex(*mask.shape):
        if not mask[start] or labels[start]:
            continue
        nxt += 1
        queue = deque([start])
        labels[start] = nxt
        while queue:
            cur = queue.popleft()
            for j in _neighbors(cur, mask.shape):
                if mask[j] and not labels[j]:
                    labels[j] = nxt
                    queue.append(j)
    return labels


def instance_f1_bf(pred, gt, iou_threshold: float = 0.5) -> float:
    lp = components_bf(pred)
    lg = components_bf(gt)
    n_p = int(lp.max())
    n_g = int(lg.max())
    if n_p == 0 and n_g == 0:
        return 1.0
    size_p = {i: int((lp == i).sum()) for i in range(1, n_p + 1)}
    size_g = {i: int((lg == i).sum()) for i in range(1, n_g + 1)}
    inter: dict[tuple[int, int], int] = {}
    for idx in np.ndindex(*lp.shape):
        pi, gi = int(lp[idx]), int(lg[idx])
        if pi and gi:
            inter[(pi, gi)] = inter.get((pi, gi), 0) + 1
    pairs = []
    for (pi, gi), ov in inter.items():
        union = size_p[pi] + size_g[gi] - ov
        pairs.append((-ov / union, pi, gi))
    pairs.sort()
    used_p, used_g = set(), set()
    tp = 0
    for neg_iou, pi, gi in pairs:
        if pi in used_p or gi in used_g:
            continue
        if -neg_iou >= iou_threshold:
            used_p.add(pi)
            used_g.add(gi)
            tp += 1
    fp = n_p - tp
    fn = n_g - tp
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0
    return 2.0 * tp / (2.0 * tp + fp + fn)
