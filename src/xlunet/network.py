"""Segmentation U-Net with sequence blocks at the bottleneck ("bot" variant)
or after every encoder stage plus the bottleneck ("enc" variant).

Layout, for ``num_stages = S`` (every downsampling is a factor 2, so each
spatial dim of the input must be divisible by ``2 ** (S + 1)``):

    stem        conv3, stride 2, in_channels -> ch(0)          [skip]
    stage i     res(stride 2) -> res(stride 1) at ch(i), i = 0..S-1
                (+ sequence block in the enc variant)           [skip, i < S-1]
    bottleneck  res -> res (stride 1, ch(S-1)) + sequence block
    decoder     for each skip, deepest first: convT2 stride 2,
                concat skip, res(2c -> c), res(c -> c)
    final       convT2 stride 2 (undoes the stem), 1x1 conv to classes,
                softmax over the channel axis

with ``ch(i) = min(base_channels * 2**i, channel_cap)``.  The deepest stage's
output feeds the bottleneck directly and is not used as a skip.  Residual
blocks are conv3 -> instance norm -> leaky relu plus an identity (or
stride-matched 1x1 conv) shortcut added after the activation.

The network is one tree of parameter containers (``vil._Params``), the
sequence blocks' parameter sets included, and attribute order is the layout:
``Network.params`` walks ``stem.conv``, ``enc0`` .. ``enc{S-1}``,
``bottleneck``, ``dec{S-1}`` .. ``dec0``, ``final.up`` and ``head.conv``, each
stage as ``res0``, ``res1``, ``xlstm`` (encoder) or ``up``, ``res0``, ``res1``
(decoder).  That order names the checkpoint's rows, the AdamW state and the
gradient battery's inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nnops import conv_nd, conv_transpose_nd, instance_norm, softmax
from .tensor import ContractError, NumericsError, Tensor
from .vil import XlstmBlockParams, _constant, _Params, _uniform, xlstm_block

__all__ = [
    "NetworkConfig",
    "Network",
    "build_network",
    "count_parameters",
]

_VARIANTS = ("bot", "enc")


@dataclass
class NetworkConfig:
    """Static shape/capacity description of one network."""

    in_channels: int
    num_classes: int
    patch_size: tuple[int, ...]
    num_stages: int = 4
    base_channels: int = 8
    channel_cap: int = 64
    variant: str = "enc"
    heads: int = 4
    expansion: int = 2
    conv_width: int = 4
    seed: int = 0

    def __post_init__(self):
        self.patch_size = tuple(int(p) for p in self.patch_size)

    def stage_channels(self, i: int) -> int:
        return min(self.base_channels * (2**i), self.channel_cap)

    @property
    def _divisor(self) -> int:
        """The stem and every stage halve each spatial dim."""
        return 2 ** (self.num_stages + 1)

    def _fits(self, dims: tuple[int, ...]) -> bool:
        """Whether every spatial dim is a positive multiple of ``_divisor``."""
        return all(n >= self._divisor and n % self._divisor == 0 for n in dims)

    def validate(self) -> None:
        if self.variant not in _VARIANTS:
            raise ContractError(f"variant must be one of {_VARIANTS}, got {self.variant!r}")
        if len(self.patch_size) not in (2, 3):
            raise ContractError(f"patch_size must have 2 or 3 dims, got {self.patch_size}")
        if self.in_channels < 1:
            raise ContractError(f"in_channels must be >= 1, got {self.in_channels}")
        if self.num_classes < 2:
            raise ContractError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.num_stages < 1:
            raise ContractError(f"num_stages must be >= 1, got {self.num_stages}")
        if self.base_channels < 1 or self.channel_cap < self.base_channels:
            raise ContractError(
                f"need 1 <= base_channels <= channel_cap, got {self.base_channels}, {self.channel_cap}"
            )
        for name in ("heads", "expansion", "conv_width"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if not self._fits(self.patch_size):
            raise ContractError(
                f"patch_size {self.patch_size}: every dim must be a positive multiple of"
                f" {self._divisor} (stem + {self.num_stages} stages each halve it)"
            )
        sites = [self.stage_channels(self.num_stages - 1)]  # bottleneck
        if self.variant == "enc":
            sites += [self.stage_channels(i) for i in range(self.num_stages)]
        for c in sites:
            if (self.expansion * c) % self.heads != 0:
                raise ContractError(
                    f"sequence block at {c} channels: expanded dim {self.expansion * c}"
                    f" is not divisible by heads={self.heads}"
                )


# ---------------------------------------------------------------------------
# layers


class _Group(_Params):
    """Named parts, sublayers or tensors: keyword order is the draw order and the layout."""

    def __init__(self, **parts):
        vars(self).update(parts)


class _Conv(_Params):
    """Plain convolution, optional bias."""

    def __init__(self, rng, in_ch, out_ch, kernel, stride, padding, bias=True):
        self.w = _uniform(rng, (out_ch, in_ch) + kernel, in_ch * int(np.prod(kernel)), np.float32)
        self.b = _constant(0.0, out_ch, np.float32) if bias else None
        self.stride, self.padding = stride, padding

    def __call__(self, x: Tensor) -> Tensor:
        return conv_nd(x, self.w, self.b, stride=self.stride, padding=self.padding)


class _UpConv(_Params):
    """Stride-2 transposed convolution with a 2^rank kernel (exact doubling)."""

    def __init__(self, rng, in_ch, out_ch, rank):
        self.w = _uniform(rng, (in_ch, out_ch) + (2,) * rank, in_ch * 2**rank, np.float32)
        self.b = _constant(0.0, out_ch, np.float32)

    def __call__(self, x: Tensor) -> Tensor:
        return conv_transpose_nd(x, self.w, self.b, stride=2, padding=0)


class _ResBlock(_Params):
    """conv3 -> instance norm -> leaky relu, plus a shortcut.

    The shortcut is the identity when shapes are preserved, otherwise a bare
    1x1 conv with the same stride.  The main conv carries no bias (the norm
    would cancel it).
    """

    def __init__(self, rng, in_ch, out_ch, rank, stride=1):
        self.conv = _Conv(rng, in_ch, out_ch, (3,) * rank, stride, 1, bias=False)
        self.norm = _Group(
            gamma=_constant(1.0, out_ch, np.float32), beta=_constant(0.0, out_ch, np.float32)
        )
        self.skip = None
        if in_ch != out_ch or stride != 1:
            self.skip = _Conv(rng, in_ch, out_ch, (1,) * rank, stride, 0, bias=False)

    def __call__(self, x: Tensor) -> Tensor:
        y = T.leaky_relu(instance_norm(self.conv(x), self.norm.gamma, self.norm.beta))
        shortcut = x if self.skip is None else self.skip(x)
        return T.add(y, shortcut)


def _encode(stage: _Group, h: Tensor) -> Tensor:
    """An encoder stage or the bottleneck: two residual blocks, then its
    sequence block if it has one."""
    h = stage.res1(stage.res0(h))
    return h if stage.xlstm is None else xlstm_block(h, stage.xlstm)


# ---------------------------------------------------------------------------
# network


class Network(_Params):
    """The layer tree + forward pass.  Construct via ``build_network``."""

    def __init__(self, config: NetworkConfig):
        config.validate()
        self.config = config
        rank = len(config.patch_size)
        rng = T._rng_stream(config.seed, 0)
        ch = config.stage_channels

        def res(in_ch, out_ch, stride=1):
            return _ResBlock(rng, in_ch, out_ch, rank, stride)

        def stage(in_ch, out_ch, stride, sequence):
            return _Group(
                res0=res(in_ch, out_ch, stride),
                res1=res(out_ch, out_ch),
                xlstm=XlstmBlockParams(
                    rng, out_ch, config.heads, config.expansion, config.conv_width
                ) if sequence else None,
            )

        stages = config.num_stages
        self.stem = _Group(conv=_Conv(rng, config.in_channels, ch(0), (3,) * rank, 2, 1))
        for i in range(stages):
            setattr(self, f"enc{i}", stage(ch(max(i - 1, 0)), ch(i), 2, config.variant == "enc"))
        self.bottleneck = stage(ch(stages - 1), ch(stages - 1), 1, True)
        below = ch(stages - 1)
        for level in reversed(range(stages)):
            skip = ch(max(level - 1, 0))  # the stem's channels, or stage level-1's
            up = _UpConv(rng, below, skip, rank)
            setattr(self, f"dec{level}", _Group(up=up, res0=res(2 * skip, skip), res1=res(skip, skip)))
            below = skip
        self.final = _Group(up=_UpConv(rng, below, config.base_channels, rank))
        self.head = _Group(
            conv=_Conv(rng, config.base_channels, config.num_classes, (1,) * rank, 1, 0)
        )
        self.params: dict[str, Tensor] = dict(self.tensors())

    # -- passes ------------------------------------------------------------

    def _check_input(self, x: Tensor) -> None:
        cfg = self.config
        rank = len(cfg.patch_size)
        if not isinstance(x, Tensor) or x.ndim != rank + 2:
            raise ContractError(
                f"forward: expected (B, {cfg.in_channels}, *spatial[{rank}]), got"
                f" shape {getattr(x, 'shape', None)}"
            )
        if x.shape[1] != cfg.in_channels:
            raise ContractError(f"forward: expected {cfg.in_channels} input channels, got {x.shape[1]}")
        if not cfg._fits(x.shape[2:]):
            raise ContractError(
                f"forward: spatial dims {x.shape[2:]} must be positive multiples of {cfg._divisor}"
            )

    def forward(self, x: Tensor) -> Tensor:
        """(B, in_channels, *spatial) -> per-voxel class probabilities
        (B, num_classes, *spatial), softmax-normalized over the class axis."""
        self._check_input(x)
        stages = self.config.num_stages
        h = self.stem.conv(x)
        skips = [h]  # dec{level} takes skips[level]: the stem's, or stage level-1's
        for i in range(stages):
            h = _encode(getattr(self, f"enc{i}"), h)
            skips.append(h)
        h = _encode(self.bottleneck, h)
        for level in reversed(range(stages)):
            dec = getattr(self, f"dec{level}")
            h = T.concat([dec.up(h), skips[level]], axis=1)
            h = dec.res1(dec.res0(h))
        h = self.head.conv(self.final.up(h))
        probs = softmax(h, axis=1)
        if not np.all(np.isfinite(probs.data)):
            raise NumericsError("forward: network output contains non-finite values")
        return probs

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def build_network(config: NetworkConfig) -> Network:
    """Validate the config and materialize parameters (seeded by config.seed)."""
    return Network(config)


def count_parameters(net: Network) -> int:
    return sum(p.size for p in net.params.values())
