"""U-Net assembly: shapes, variants, parameter bookkeeping, validation."""

import hashlib
import json

import numpy as np
import pytest

import xlunet.nnops as nnops
from xlunet.losses import LossConfig, dice_ce_loss
from xlunet.network import NetworkConfig, build_network, count_parameters
from xlunet.tensor import ContractError, Graph, Tensor
from xlunet.train import predict_volume
from xlunet.vil import XlstmBlockParams
import xlunet.tensor as T


def _cfg(**kw):
    base = dict(
        in_channels=1,
        num_classes=2,
        patch_size=(16, 16),
        num_stages=2,
        base_channels=4,
        variant="bot",
        heads=2,
        seed=0,
    )
    base.update(kw)
    return NetworkConfig(**base)


# ---------------------------------------------------------------------------
# configuration validation


def test_patch_divisibility_enforced():
    with pytest.raises(ContractError, match="divisible|multiple"):
        _cfg(patch_size=(20, 16)).validate()  # 20 % 8 != 0
    _cfg(patch_size=(24, 16)).validate()


@pytest.mark.parametrize("dims", [(20, 16), (4, 16), (0, 16)])
def test_downsampling_rule_is_shared(dims):
    # the config, the forward pass and whole-volume prediction all ask for
    # positive multiples of 2 ** (num_stages + 1) = 8, each in its own words
    with pytest.raises(ContractError, match="positive multiple of 8"):
        _cfg(patch_size=dims).validate()
    net = build_network(_cfg())
    with pytest.raises(ContractError, match="positive multiples of 8"):
        net.forward(Tensor(np.zeros((1, 1) + dims, dtype=np.float32)))
    with pytest.raises(ContractError, match=r"multiples of 8; use tile=True \(--tile\)"):
        predict_volume(net, np.zeros((1,) + dims, dtype=np.float32), tile=False)
    assert predict_volume(net, np.zeros((1, 8, 24), dtype=np.float32)).shape == (8, 24)


def test_rank_limited_to_2_and_3():
    with pytest.raises(ContractError):
        _cfg(patch_size=(16,)).validate()
    with pytest.raises(ContractError):
        _cfg(patch_size=(16, 16, 16, 16)).validate()


def test_variant_checked():
    with pytest.raises(ContractError):
        _cfg(variant="mid").validate()


def test_head_divisibility_checked():
    # sequence width at a site is expansion * channels; heads must divide it
    with pytest.raises(ContractError, match="heads"):
        _cfg(heads=3).validate()


def test_channel_progression_caps():
    cfg = _cfg(num_stages=4, base_channels=8, channel_cap=16, patch_size=(64, 64))
    assert [cfg.stage_channels(i) for i in range(4)] == [8, 16, 16, 16]


# ---------------------------------------------------------------------------
# forward shapes


@pytest.mark.parametrize("variant", ["bot", "enc"])
def test_forward_shape_2d(variant):
    net = build_network(_cfg(variant=variant, num_classes=3))
    x = Tensor(np.zeros((2, 1, 16, 16), dtype=np.float32))
    out = net.forward(x)
    assert out.shape == (2, 3, 16, 16)


def test_forward_shape_3d():
    net = build_network(
        _cfg(patch_size=(8, 16, 16), num_classes=2, base_channels=4, heads=2)
    )
    out = net.forward(Tensor(np.zeros((1, 1, 8, 16, 16), dtype=np.float32)))
    assert out.shape == (1, 2, 8, 16, 16)


def test_forward_anisotropic_input_allowed():
    # any spatial size divisible by 2^(stages+1) works, not just the
    # configured patch
    net = build_network(_cfg())
    out = net.forward(Tensor(np.zeros((1, 1, 24, 16), dtype=np.float32)))
    assert out.shape == (1, 2, 24, 16)


def test_softmax_channel_sums():
    net = build_network(_cfg(num_classes=4))
    rng = np.random.default_rng(0)
    out = net.forward(Tensor(rng.normal(size=(2, 1, 16, 16)).astype(np.float32)))
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
    assert (out.data >= 0).all()


def test_forward_rejects_wrong_channels_and_sizes():
    net = build_network(_cfg())
    with pytest.raises(ContractError):
        net.forward(Tensor(np.zeros((1, 2, 16, 16), dtype=np.float32)))
    with pytest.raises(ContractError):
        net.forward(Tensor(np.zeros((1, 1, 18, 16), dtype=np.float32)))


# ---------------------------------------------------------------------------
# variants and parameters


def _sequence_sites(net):
    """The names of the sequence blocks in the network's layer tree, in
    layout order."""
    return [
        f"{name}.xlstm"
        for name, layer in vars(net).items()
        if isinstance(getattr(layer, "xlstm", None), XlstmBlockParams)
    ]


def test_sequence_site_counts():
    bot = build_network(_cfg(variant="bot", num_stages=3, patch_size=(32, 32)))
    enc = build_network(_cfg(variant="enc", num_stages=3, patch_size=(32, 32)))
    assert _sequence_sites(bot) == ["bottleneck.xlstm"]
    assert _sequence_sites(enc) == ["enc0.xlstm", "enc1.xlstm", "enc2.xlstm", "bottleneck.xlstm"]
    for net in (bot, enc):  # a site's parameters are listed under its name
        prefixes = {n.split(".xlstm.")[0] + ".xlstm" for n in net.params if ".xlstm." in n}
        assert prefixes == set(_sequence_sites(net))


def test_enc_has_more_parameters_than_bot():
    bot = build_network(_cfg(variant="bot"))
    enc = build_network(_cfg(variant="enc"))
    assert count_parameters(enc) > count_parameters(bot)


def test_param_count_matches_manual_sum():
    net = build_network(_cfg())
    manual = sum(int(np.prod(p.shape)) for p in net.params.values())
    assert count_parameters(net) == manual


@pytest.mark.parametrize(
    "variant, patch, tensors, size, digest",
    [
        ("enc", (64, 64), 246, 635_283,
         "379d847db381a84de05707d283fae68b7f5cbfa533a5f60a0d4ac76e6f46c75f"),
        ("bot", (32, 32, 32), 110, 770_291,
         "f98b4b47d93271124fd89589d3f521a62008afbed0fc9c4277a82358df887c82"),
    ],
    ids=["enc", "bot"],
)
def test_parameter_layout_is_pinned(variant, patch, tensors, size, digest):
    # the ordered (name, shape) list of the benchmark's networks (3 classes,
    # 4 stages, base 8) is the checkpoint's state layout
    net = build_network(
        NetworkConfig(in_channels=1, num_classes=3, patch_size=patch, variant=variant)
    )
    layout = [[name, list(p.shape)] for name, p in net.params.items()]
    assert (len(layout), count_parameters(net)) == (tensors, size)
    assert hashlib.sha256(json.dumps(layout).encode()).hexdigest() == digest


def test_init_determinism_and_seed_sensitivity():
    a = build_network(_cfg(seed=5))
    b = build_network(_cfg(seed=5))
    c = build_network(_cfg(seed=6))
    assert all(np.array_equal(a.params[k].data, b.params[k].data) for k in a.params)
    assert any(not np.array_equal(a.params[k].data, c.params[k].data) for k in a.params)


def test_all_params_are_float32_and_require_grad():
    net = build_network(_cfg())
    for name, p in net.params.items():
        assert p.dtype == np.float32, name
        assert p.requires_grad, name


def test_gradients_reach_every_parameter():
    net = build_network(_cfg())
    x = Tensor(np.random.default_rng(1).normal(size=(1, 1, 16, 16)).astype(np.float32))
    with Graph() as g:
        out = net.forward(x)
        loss = T.reduce_sum(T.mul(out, out))
    g.backward(loss)
    for name, p in net.params.items():
        assert p.grad is not None, name
        assert np.isfinite(p.grad).all(), name
    nonzero = sum(1 for p in net.params.values() if np.any(p.grad != 0))
    # at least the overwhelming majority of tensors get signal (biases of
    # dead relu paths can legitimately sit at zero for one sample)
    assert nonzero >= 0.9 * len(net.params)
    net.zero_grad()
    assert all(p.grad is None for p in net.params.values())


@pytest.mark.parametrize("variant", ["enc", "bot"])
def test_taped_leaves_are_the_params(variant):
    # a tensor that a layer holds outside the tree walk would go untrained
    # and unsaved: the leaves of one training step are exactly net.params
    net = build_network(_cfg(variant=variant))
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(2, 1, 16, 16)).astype(np.float32))
    with Graph() as g:
        loss = dice_ce_loss(net.forward(x), rng.integers(0, 2, size=(2, 16, 16)), LossConfig())
    g.backward(loss)
    assert sorted(map(id, g._leaves.values())) == sorted(map(id, net.params.values()))


def test_decoder_mirrors_encoder_resolutions():
    # deepest feature map is patch / 2^(stages+1)
    cfg = _cfg(num_stages=2, patch_size=(32, 32))
    net = build_network(cfg)
    out = net.forward(Tensor(np.zeros((1, 1, 32, 32), dtype=np.float32)))
    assert out.shape[2:] == (32, 32)


# ---------------------------------------------------------------------------
# tape size


@pytest.mark.parametrize(
    "variant, patch, batch, nodes",
    [("enc", (64, 64), 4, 759), ("bot", (32, 32, 32), 2, 239)],
    ids=["enc", "bot"],
)
def test_taped_nodes_per_training_step(monkeypatch, variant, patch, batch, nodes):
    """One training step's forward and loss tape exactly this many nodes.

    The traced benchmark requires exactly these counts per step
    (``perfbench/workloads.py``, ``TRAIN``: 3 classes, 4 stages, base 8) and
    counts them the same way: a node is an output whose ``requires_grad``
    turns on in ``record``.  When that check changes, this test changes with
    it.
    """
    counted = []
    real_record = T.record

    def spy(out, inputs, vjp):
        was = out.requires_grad
        res = real_record(out, inputs, vjp)
        counted.append(res.requires_grad and not was)
        return res

    monkeypatch.setattr(T, "record", spy)
    monkeypatch.setattr(nnops, "record", spy)
    net = build_network(
        NetworkConfig(in_channels=1, num_classes=3, patch_size=patch, variant=variant)
    )
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(batch, 1) + patch).astype(np.float32))
    target = rng.integers(0, 3, size=(batch,) + patch)
    with Graph():
        dice_ce_loss(net.forward(x), target, LossConfig())
    assert sum(counted) == nodes
