"""Training loss: soft Dice (batch-global, per class) plus cross-entropy,
both computed from the network's softmax probabilities.

For class k, with p the predicted probability map and g the one-hot target,

    dice_k = (2 * sum(p_k * g_k) + eps) / (sum(p_k) + sum(g_k) + eps)

where the sums run over the whole batch and all voxels (one ratio per class,
not per sample) and ``eps`` is the smoothing constant ``_DICE_SMOOTH`` =
1e-5.  The loss is ``(1 - mean_k dice_k) + ce`` with the mean over
foreground classes only (unless configured otherwise) and ``ce`` the mean
negative log probability of the target class, optionally class-weighted.
Probabilities are clamped to >= 1e-12 before the log so a float32 softmax
underflow cannot produce an infinite loss; the clamp never binds at sane
operating points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ContractError, NumericsError, Tensor

__all__ = ["LossConfig", "dice_ce_loss"]

_DICE_SMOOTH = 1e-5
_PROB_FLOOR = 1e-12
_CHANNEL_SUM_TOL = 1e-4


@dataclass
class LossConfig:
    include_background: bool = False
    class_weights: tuple[float, ...] | None = None  # CE weights, one per class

    def validate(self, num_classes: int) -> None:
        if self.class_weights is not None:
            if len(self.class_weights) != num_classes:
                raise ContractError(
                    f"class_weights needs {num_classes} entries, got {len(self.class_weights)}"
                )
            # NaN fails too
            if not (all(0 <= w < np.inf for w in self.class_weights) and sum(self.class_weights) > 0):
                raise ContractError("class_weights must be finite and >= 0 with a positive sum")


def dice_ce_loss(probs: Tensor, target: np.ndarray, cfg: LossConfig | None = None) -> Tensor:
    """Scalar loss from (B, K, *sp) probabilities and (B, *sp) integer labels.

    Validates that the class axis sums to one (within 1e-4) and that labels
    lie in [0, K) — both are cheap and catch wiring bugs loudly.
    """
    cfg = cfg or LossConfig()
    if not isinstance(probs, Tensor) or probs.ndim < 3:
        raise ContractError("dice_ce_loss: probs must be a (B, K, *spatial) Tensor")
    target = np.asarray(target)
    if not np.issubdtype(target.dtype, np.integer):
        raise ContractError(f"dice_ce_loss: target must be integer labels, got {target.dtype}")
    b, k = probs.shape[:2]
    if target.shape != (b,) + probs.shape[2:]:
        raise ContractError(
            f"dice_ce_loss: target shape {target.shape} does not match probs {probs.shape}"
        )
    cfg.validate(k)
    if k < 2:
        raise ContractError(f"dice_ce_loss: need at least 2 classes, got {k}")
    sums = probs.data.sum(axis=1)
    worst = float(np.abs(sums - 1.0).max())
    if not np.isfinite(probs.data).all():
        raise NumericsError("dice_ce_loss: probabilities contain non-finite values")
    if worst > _CHANNEL_SUM_TOL:
        raise ContractError(
            f"dice_ce_loss: class axis must sum to 1 (max deviation {worst:.2e});"
            " pass softmax output, not logits"
        )
    if target.min() < 0 or target.max() >= k:
        raise ContractError(
            f"dice_ce_loss: labels must lie in [0, {k}), got range"
            f" [{int(target.min())}, {int(target.max())}]"
        )

    dtype = probs.data.dtype
    onehot = np.zeros(probs.shape, dtype=dtype)
    np.put_along_axis(onehot, target[:, None].astype(np.int64), 1.0, axis=1)

    # soft Dice over batch-flattened sums: one ratio per class
    reduce_axes = (0,) + tuple(range(2, probs.ndim))
    intersect = T.reduce_sum(T.mul(probs, Tensor(onehot)), axis=reduce_axes)  # (K,)
    pred_sum = T.reduce_sum(probs, axis=reduce_axes)
    target_sum = Tensor(onehot.sum(axis=reduce_axes))
    dice = T.div(
        T.add(T.mul(intersect, 2.0), _DICE_SMOOTH),
        T.add(T.add(pred_sum, target_sum), _DICE_SMOOTH),
    )
    if not cfg.include_background:
        dice = T.narrow(dice, 0, 1, k - 1)
    dice_loss = T.sub(1.0, T.reduce_mean(dice))

    # cross-entropy from clamped probabilities
    # unit weights are exact: onehot * 1 is onehot; float32 sums of ones are exact below 2**24
    logp = T.log(T.max_with_scalar(probs, _PROB_FLOOR))
    weights = np.asarray(cfg.class_weights or (1.0,) * k, dtype=dtype)
    voxel_w = weights[target]  # (B, *sp)
    total_w = float(voxel_w.sum())
    if total_w <= 0:
        raise ContractError("dice_ce_loss: class weights zero out every voxel in this batch")
    picked = T.reduce_sum(T.mul(logp, Tensor(onehot * voxel_w[:, None])))
    ce = T.mul(picked, -1.0 / total_w)

    loss = T.add(dice_loss, ce)
    if not np.isfinite(loss.data).all():
        raise NumericsError("dice_ce_loss: loss is non-finite")
    return loss
