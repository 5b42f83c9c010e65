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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nnops import conv_nd, conv_transpose_nd, instance_norm, softmax
from .tensor import ContractError, NumericsError, Tensor
from .vil import XlstmBlockParams, init_xlstm_params, xlstm_block

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


class _Registry:
    def __init__(self):
        self.params: dict[str, Tensor] = {}

    def add(self, name: str, t: Tensor) -> None:
        if name in self.params:
            raise ContractError(f"duplicate parameter name {name!r}")
        self.params[name] = t

    def add_all(self, prefix: str, items) -> None:
        for name, t in items:
            self.add(f"{prefix}.{name}", t)


def _conv_weight(rng, out_ch, in_ch, kernel, dtype=np.float32) -> Tensor:
    fan_in = in_ch * int(np.prod(kernel))
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(
        rng.uniform(-bound, bound, size=(out_ch, in_ch) + tuple(kernel)).astype(dtype),
        requires_grad=True,
    )


class _Conv:
    """Plain convolution, optional bias."""

    def __init__(self, reg, name, rng, in_ch, out_ch, kernel, stride, padding, bias=True):
        self.stride = stride
        self.padding = padding
        self.w = _conv_weight(rng, out_ch, in_ch, kernel)
        reg.add(f"{name}.w", self.w)
        self.b = None
        if bias:
            self.b = Tensor(np.zeros(out_ch, dtype=np.float32), requires_grad=True)
            reg.add(f"{name}.b", self.b)

    def __call__(self, x: Tensor) -> Tensor:
        return conv_nd(x, self.w, self.b, stride=self.stride, padding=self.padding)


class _UpConv:
    """Stride-2 transposed convolution with a 2^rank kernel (exact doubling)."""

    def __init__(self, reg, name, rng, in_ch, out_ch, rank):
        kernel = (2,) * rank
        fan_in = in_ch * int(np.prod(kernel))
        bound = 1.0 / np.sqrt(fan_in)
        self.w = Tensor(
            rng.uniform(-bound, bound, size=(in_ch, out_ch) + kernel).astype(np.float32),
            requires_grad=True,
        )
        self.b = Tensor(np.zeros(out_ch, dtype=np.float32), requires_grad=True)
        reg.add(f"{name}.w", self.w)
        reg.add(f"{name}.b", self.b)

    def __call__(self, x: Tensor) -> Tensor:
        return conv_transpose_nd(x, self.w, self.b, stride=2, padding=0)


class _ResBlock:
    """conv3 -> instance norm -> leaky relu, plus a shortcut.

    The shortcut is the identity when shapes are preserved, otherwise a bare
    1x1 conv with the same stride.  The main conv carries no bias (the norm
    would cancel it).
    """

    def __init__(self, reg, name, rng, in_ch, out_ch, rank, stride=1):
        self.stride = stride
        self.conv = _Conv(
            reg, f"{name}.conv", rng, in_ch, out_ch, (3,) * rank, stride, 1, bias=False
        )
        self.gamma = Tensor(np.ones(out_ch, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(out_ch, dtype=np.float32), requires_grad=True)
        reg.add(f"{name}.norm.gamma", self.gamma)
        reg.add(f"{name}.norm.beta", self.beta)
        self.proj = None
        if in_ch != out_ch or stride != 1:
            self.proj = _Conv(
                reg, f"{name}.skip", rng, in_ch, out_ch, (1,) * rank, stride, 0, bias=False
            )

    def __call__(self, x: Tensor) -> Tensor:
        y = T.leaky_relu(instance_norm(self.conv(x), self.gamma, self.beta), 0.01)
        shortcut = x if self.proj is None else self.proj(x)
        return T.add(y, shortcut)


class _SequenceSite:
    def __init__(self, reg, name, rng, channels, cfg: NetworkConfig):
        self.block: XlstmBlockParams = init_xlstm_params(
            rng, channels, heads=cfg.heads, expansion=cfg.expansion, conv_width=cfg.conv_width
        )
        reg.add_all(name, self.block.tensors())

    def __call__(self, x: Tensor) -> Tensor:
        return xlstm_block(x, self.block)


@dataclass
class _EncoderStage:
    res0: _ResBlock
    res1: _ResBlock
    seq: _SequenceSite | None


@dataclass
class _DecoderStage:
    up: _UpConv
    res0: _ResBlock
    res1: _ResBlock


# ---------------------------------------------------------------------------
# network


class Network:
    """Built parameter set + forward pass.  Construct via ``build_network``."""

    def __init__(self, config: NetworkConfig):
        config.validate()
        self.config = config
        rank = len(config.patch_size)
        reg = _Registry()
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(0,)))

        self.stem = _Conv(
            reg, "stem.conv", rng, config.in_channels, config.stage_channels(0), (3,) * rank, 2, 1
        )
        self.stages: list[_EncoderStage] = []
        self.sequence_sites: list[str] = []
        prev = config.stage_channels(0)
        for i in range(config.num_stages):
            ch = config.stage_channels(i)
            res0 = _ResBlock(reg, f"enc{i}.res0", rng, prev, ch, rank, stride=2)
            res1 = _ResBlock(reg, f"enc{i}.res1", rng, ch, ch, rank, stride=1)
            seq = None
            if config.variant == "enc":
                seq = _SequenceSite(reg, f"enc{i}.xlstm", rng, ch, config)
                self.sequence_sites.append(f"enc{i}.xlstm")
            self.stages.append(_EncoderStage(res0, res1, seq))
            prev = ch

        bot_ch = config.stage_channels(config.num_stages - 1)
        self.bottleneck_res0 = _ResBlock(reg, "bottleneck.res0", rng, prev, bot_ch, rank)
        self.bottleneck_res1 = _ResBlock(reg, "bottleneck.res1", rng, bot_ch, bot_ch, rank)
        self.bottleneck_seq = _SequenceSite(reg, "bottleneck.xlstm", rng, bot_ch, config)
        self.sequence_sites.append("bottleneck.xlstm")

        # skip sources, shallow to deep: stem, stage 0 .. stage S-2
        skip_channels = [config.stage_channels(0)] + [
            config.stage_channels(i) for i in range(config.num_stages - 1)
        ]
        self.decoder: list[_DecoderStage] = []
        below = bot_ch
        for level in reversed(range(len(skip_channels))):
            ch = skip_channels[level]
            name = f"dec{level}"
            up = _UpConv(reg, f"{name}.up", rng, below, ch, rank)
            res0 = _ResBlock(reg, f"{name}.res0", rng, 2 * ch, ch, rank)
            res1 = _ResBlock(reg, f"{name}.res1", rng, ch, ch, rank)
            self.decoder.append(_DecoderStage(up, res0, res1))
            below = ch

        self.final_up = _UpConv(reg, "final.up", rng, below, config.base_channels, rank)
        self.head = _Conv(
            reg, "head.conv", rng, config.base_channels, config.num_classes, (1,) * rank, 1, 0
        )
        self.params: dict[str, Tensor] = reg.params

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
        h = self.stem(x)
        skips = [h]
        last = len(self.stages) - 1
        for i, stage in enumerate(self.stages):
            h = stage.res1(stage.res0(h))
            if stage.seq is not None:
                h = stage.seq(h)
            if i < last:
                skips.append(h)
        h = self.bottleneck_seq(self.bottleneck_res1(self.bottleneck_res0(h)))
        for dec, skip in zip(self.decoder, reversed(skips)):
            h = dec.up(h)
            h = T.concat([h, skip], axis=1)
            h = dec.res1(dec.res0(h))
        h = self.head(self.final_up(h))
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
