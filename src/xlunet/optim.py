"""AdamW with decoupled weight decay, and the polynomial LR schedule.

Per parameter, one step at learning rate ``lr`` does, in order:

    theta <- theta - lr * weight_decay * theta          (decay first, decoupled)
    m <- b1 * m + (1 - b1) * g
    v <- b2 * v + (1 - b2) * g^2
    theta <- theta - lr * mhat / (sqrt(vhat) + eps)     (bias-corrected m, v)

State lives in plain float arrays keyed by parameter name so checkpoints can
serialize it exactly.  Gradients are read from ``Tensor.grad`` and must be
finite — a NaN gradient aborts with the parameter's name rather than
poisoning the weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import ContractError, NumericsError, Tensor

__all__ = ["AdamWConfig", "AdamWState", "init_adamw", "adamw_step", "lr_schedule"]

_POLY_EXPONENT = 0.9


@dataclass
class AdamWConfig:
    weight_decay: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def validate(self) -> None:
        if not 0 <= self.weight_decay < 1:
            raise ContractError(f"weight_decay must be in [0, 1), got {self.weight_decay}")
        for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0 <= b < 1:
                raise ContractError(f"{name} must be in [0, 1), got {b}")
        if self.eps <= 0:
            raise ContractError(f"eps must be positive, got {self.eps}")


@dataclass
class AdamWState:
    step_count: int = 0
    exp_avg: dict[str, np.ndarray] = field(default_factory=dict)
    exp_avg_sq: dict[str, np.ndarray] = field(default_factory=dict)


def init_adamw(params: dict[str, Tensor]) -> AdamWState:
    return AdamWState(
        step_count=0,
        exp_avg={n: np.zeros_like(p.data) for n, p in params.items()},
        exp_avg_sq={n: np.zeros_like(p.data) for n, p in params.items()},
    )


def adamw_step(
    params: dict[str, Tensor],
    state: AdamWState,
    cfg: AdamWConfig,
    lr: float,
) -> None:
    """Apply one update in place at learning rate ``lr``, which the caller's
    schedule gives (``lr_schedule``); moments update even for zero
    gradients."""
    cfg.validate()
    lr = float(lr)
    if lr < 0:
        raise ContractError(f"adamw_step: negative learning rate {lr}")
    if set(state.exp_avg) != set(params):
        raise ContractError("adamw_step: state was initialized for a different parameter set")
    # every gradient is checked before anything changes, so an error leaves
    # the parameters, the moments and step_count as they were
    for name, p in params.items():
        g = p.grad
        if g is None:
            raise ContractError(f"adamw_step: parameter {name!r} has no gradient")
        if g.shape != p.shape:
            raise ContractError(
                f"adamw_step: gradient shape {g.shape} != parameter shape {p.shape} for {name!r}"
            )
        if not np.isfinite(g).all():
            raise NumericsError(f"adamw_step: non-finite gradient for parameter {name!r}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for name, p in params.items():
        g = p.grad
        if cfg.weight_decay:
            p.data *= 1.0 - lr * cfg.weight_decay
        m = state.exp_avg[name]
        v = state.exp_avg_sq[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


def lr_schedule(
    epoch: int,
    base_lr: float,
    max_epochs: int,
    kind: str = "poly",
) -> float:
    """LR for a 0-based epoch: poly decay ``base * (1 - epoch/max)^0.9``
    (``_POLY_EXPONENT``) or constant."""
    if kind == "const":
        return float(base_lr)
    if kind != "poly":
        raise ContractError(f"lr_schedule: unknown kind {kind!r} (use 'poly' or 'const')")
    if max_epochs < 1:
        raise ContractError(f"lr_schedule: max_epochs must be >= 1, got {max_epochs}")
    if not 0 <= epoch <= max_epochs:
        raise ContractError(f"lr_schedule: epoch {epoch} outside [0, {max_epochs}]")
    frac = 1.0 - epoch / max_epochs
    return float(base_lr * frac**_POLY_EXPONENT)
