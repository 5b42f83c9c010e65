"""Convolution / normalization / softmax forward values and adjoint identities."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import xlunet.nnops as N
import xlunet.tensor as T
from xlunet.gradcheck import finite_diff_check
from xlunet.tensor import ContractError, Graph, Tensor

from oracles import conv_nd_loops, conv_transpose_nd_loops, conv_weight_grad_loops


def _t(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# convolution values


def test_conv2d_all_ones_box_counts():
    # 3x3 ones kernel over 3x3 ones image, padding 1: each output counts the
    # overlapping window size
    x = _t(np.ones((1, 1, 3, 3)))
    w = _t(np.ones((1, 1, 3, 3)))
    out = N.conv_nd(x, w, stride=1, padding=1)
    expected = np.array([[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])
    np.testing.assert_array_equal(out.data[0, 0], expected)


@pytest.mark.parametrize(
    "rank,stride,padding",
    [(1, 1, 0), (1, 2, 1), (2, 1, 1), (2, 2, 0), (2, 2, 1), (3, 1, 1), (3, 2, 1)],
)
def test_conv_matches_loop_oracle(rng, rank, stride, padding):
    sp = {1: (9,), 2: (7, 8), 3: (5, 6, 5)}[rank]
    x = rng.normal(size=(2, 3) + sp)
    w = rng.normal(size=(4, 3) + (3,) * rank)
    bias = rng.normal(size=(4,))
    got = N.conv_nd(_t(x), _t(w), _t(bias), stride=stride, padding=padding)
    want = conv_nd_loops(x, w, bias, stride=stride, padding=padding)
    np.testing.assert_allclose(got.data, want, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize(
    "rank,stride,padding",
    [(1, 1, 0), (1, 2, 0), (2, 2, 0), (2, 2, 1), (3, 2, 0)],
)
def test_conv_transpose_matches_scatter_oracle(rng, rank, stride, padding):
    sp = {1: (5,), 2: (4, 5), 3: (3, 4, 3)}[rank]
    x = rng.normal(size=(2, 3) + sp)
    w = rng.normal(size=(3, 2) + (2,) * rank)
    bias = rng.normal(size=(2,))
    got = N.conv_transpose_nd(_t(x), _t(w), _t(bias), stride=stride, padding=padding)
    want = conv_transpose_nd_loops(x, w, bias, stride=stride, padding=padding)
    np.testing.assert_allclose(got.data, want, rtol=1e-10, atol=1e-10)


def test_conv_transpose_is_adjoint_of_conv(rng):
    # <conv(x, w), y> == <x, convT(y, w)>: the very same weight array serves
    # both, its leading axis read as out-channels by conv and in-channels by
    # the transpose
    x = rng.normal(size=(2, 3, 8, 9))
    w = rng.normal(size=(4, 3, 3, 3))
    y = rng.normal(size=(2, 4, 4, 5))  # conv output shape for stride 2 pad 1
    cx = N.conv_nd(_t(x), _t(w), stride=2, padding=1).data
    assert cx.shape == y.shape
    # convT must land back on x's spatial size (floor division makes several
    # input sizes share one output size, hence the explicit override)
    ty = N.conv_transpose_nd(
        _t(y), _t(w), stride=2, padding=1, output_size=(8, 9)
    ).data
    assert ty.shape == x.shape
    lhs = float((cx * y).sum())
    rhs = float((x * ty).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_conv_output_shape_formula(rng):
    x = _t(rng.normal(size=(1, 1, 10, 11)))
    w = _t(rng.normal(size=(2, 1, 3, 3)))
    assert N.conv_nd(x, w, stride=2, padding=1).shape == (1, 2, 5, 6)
    assert N.conv_nd(x, w, stride=1, padding=0).shape == (1, 2, 8, 9)


def test_conv_transpose_output_size_validation(rng):
    x = _t(rng.normal(size=(1, 2, 4, 4)))
    w = _t(rng.normal(size=(2, 3, 2, 2)))
    out = N.conv_transpose_nd(x, w, stride=2)
    assert out.shape == (1, 3, 8, 8)
    with pytest.raises(ContractError):
        N.conv_transpose_nd(x, w, stride=2, output_size=(11, 8))


def test_conv_rejects_bad_shapes(rng):
    x = _t(rng.normal(size=(1, 3, 8, 8)))
    w = _t(rng.normal(size=(4, 2, 3, 3)))  # channel mismatch
    with pytest.raises(ContractError):
        N.conv_nd(x, w)
    with pytest.raises(ContractError):
        N.conv_nd(x, _t(np.zeros((4, 3, 3))))  # rank mismatch


def test_conv_kernel_larger_than_padded_input_rejected(rng):
    x = _t(rng.normal(size=(1, 1, 3, 3)))
    w = _t(rng.normal(size=(1, 1, 5, 5)))
    with pytest.raises(ContractError):
        N.conv_nd(x, w)


# ---------------------------------------------------------------------------
# causal depthwise conv


def test_causal_conv_is_causal(rng):
    b, l, e, width = 2, 10, 3, 4
    x = rng.normal(size=(b, l, e))
    k = rng.normal(size=(e, width))
    bias = rng.normal(size=(e,))
    y1 = N.causal_conv1d(_t(x), _t(k), _t(bias)).data
    x2 = x.copy()
    x2[:, 6:, :] += 5.0
    y2 = N.causal_conv1d(_t(x2), _t(k), _t(bias)).data
    np.testing.assert_array_equal(y1[:, :6], y2[:, :6])
    assert not np.allclose(y1[:, 6:], y2[:, 6:])


def test_causal_conv_value_matches_manual(rng):
    b, l, e, width = 1, 6, 2, 3
    x = rng.normal(size=(b, l, e))
    k = rng.normal(size=(e, width))
    bias = rng.normal(size=(e,))
    got = N.causal_conv1d(_t(x), _t(k), _t(bias)).data
    xp = np.pad(x, ((0, 0), (width - 1, 0), (0, 0)))
    want = np.zeros_like(x)
    for t_ in range(l):
        for c in range(e):
            # kernel tap width-1 multiplies the current position
            for tap in range(width):
                want[0, t_, c] += xp[0, t_ + tap, c] * k[c, tap]
    np.testing.assert_allclose(got, want + bias, rtol=1e-12)


# ---------------------------------------------------------------------------
# normalization


def test_instance_norm_moments(rng):
    x = rng.normal(loc=3.0, scale=2.5, size=(2, 3, 8, 8))
    gamma = np.ones(3)
    beta = np.zeros(3)
    y = N.instance_norm(_t(x), _t(gamma), _t(beta)).data
    # per (batch, channel) plane: ~zero mean, ~unit variance
    np.testing.assert_allclose(y.mean(axis=(2, 3)), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.var(axis=(2, 3)), 1.0, atol=1e-4)


def test_instance_norm_affine(rng):
    x = rng.normal(size=(1, 2, 4, 4))
    y = N.instance_norm(_t(x), _t([2.0, 0.5]), _t([1.0, -1.0])).data
    base = N.instance_norm(_t(x), _t([1.0, 1.0]), _t([0.0, 0.0])).data
    np.testing.assert_allclose(y[:, 0], base[:, 0] * 2.0 + 1.0, rtol=1e-10)
    np.testing.assert_allclose(y[:, 1], base[:, 1] * 0.5 - 1.0, rtol=1e-10)


def test_layer_norm_last_axis(rng):
    x = rng.normal(loc=-1.0, scale=3.0, size=(4, 7, 6))
    y = N.layer_norm(_t(x), _t(np.ones(6)), _t(np.zeros(6))).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    # normalized variance is var/(var+eps), a hair under 1
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-3)


def test_instance_norm_constant_input_stays_finite():
    x = np.full((1, 1, 4, 4), 7.0)
    y = N.instance_norm(_t(x), _t([1.0]), _t([0.0])).data
    assert np.isfinite(y).all()
    np.testing.assert_allclose(y, 0.0, atol=1e-6)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_known_value():
    x = _t([[0.0, np.log(2.0)]])
    np.testing.assert_allclose(
        N.softmax(x, axis=1).data, [[1.0 / 3.0, 2.0 / 3.0]], rtol=1e-12
    )


def test_softmax_shift_invariance_and_stability(rng):
    x = rng.normal(size=(3, 5))
    a = N.softmax(_t(x), axis=1).data
    b = N.softmax(_t(x + 1000.0), axis=1).data
    np.testing.assert_allclose(a, b, rtol=1e-9)
    extreme = N.softmax(_t([[-4000.0, 0.0, 4000.0]]), axis=1).data
    assert np.isfinite(extreme).all()
    np.testing.assert_allclose(extreme.sum(axis=1), 1.0)


@given(st.integers(2, 6), st.integers(1, 4))
def test_softmax_sums_to_one(k, b):
    rng = np.random.default_rng(k * 31 + b)
    x = rng.normal(size=(b, k)) * 10
    y = N.softmax(_t(x), axis=1).data
    np.testing.assert_allclose(y.sum(axis=1), 1.0, rtol=1e-10)
    assert (y >= 0).all()


# ---------------------------------------------------------------------------
# adjoint consistency through the tape (dot-product test on random directions)


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
def test_conv_vjp_is_true_adjoint(rng, stride, padding):
    # For y = conv(x): <J v, u> == <v, J^T u> with v a random input direction
    # and u a random output cotangent; J^T u is what backward computes.
    x0 = rng.normal(size=(1, 2, 6, 6))
    w0 = rng.normal(size=(3, 2, 3, 3))
    v = rng.normal(size=x0.shape)
    x = _t(x0, grad=True)
    w = _t(w0)
    with Graph() as g:
        y = N.conv_nd(x, w, stride=stride, padding=padding)
        u = rng.normal(size=y.shape)
        loss = T.reduce_sum(T.mul(y, Tensor(u)))
    g.backward(loss)
    jv = (
        conv_nd_loops(x0 + 1e-7 * v, w0, stride=stride, padding=padding)
        - conv_nd_loops(x0 - 1e-7 * v, w0, stride=stride, padding=padding)
    ) / 2e-7
    lhs = float((jv * u).sum())
    rhs = float((v * x.grad).sum())
    assert lhs == pytest.approx(rhs, rel=1e-6)


# ---------------------------------------------------------------------------
# finite differences for conv_nd's backward at stride 1


@pytest.mark.parametrize(
    "rank,k,padding,crops",
    [
        (1, 3, 0, False),
        (1, 3, 1, False),
        (2, 3, 0, False),
        (2, 3, 1, False),
        (3, 3, 0, False),
        (3, 3, 1, False),
        (3, 1, 0, False),
        (2, 3, 3, True),  # padding > k - 1: the adjoint crops g instead of padding it
    ],
)
def test_conv_stride1_gradients_match_finite_differences(
    rng, monkeypatch, rank, k, padding, crops
):
    sp = {1: (6,), 2: (5, 4), 3: (4, 3, 3)}[rank]
    x = _t(rng.normal(size=(2, 3) + sp), grad=True)
    w = _t(rng.normal(size=(4, 3) + (k,) * rank), grad=True)
    out_sp = tuple(n + 2 * padding - k + 1 for n in sp)
    wt = _t(rng.normal(size=(2, 4) + out_sp))
    windows = _counted(monkeypatch, "_window")

    def fn():
        return T.reduce_sum(T.mul(N.conv_nd(x, w, stride=1, padding=padding), wt))

    res = finite_diff_check(fn, [x, w], rng=rng)
    assert res.passed, res.line()
    # the forward pads x (start -padding); the adjoint's window of g starts
    # at padding - (k - 1), past g's first corner exactly when it crops
    assert any(a > 0 for _, start, _ in windows for a in start) == crops


# ---------------------------------------------------------------------------
# slab routes: every patch matrix is built a few output rows at a time


def _conv_grads(x0, w0, wt0, conv):
    x, w = _t(x0, grad=True), _t(w0, grad=True)
    with Graph() as g:
        y = conv(x, w)
        loss = T.reduce_sum(T.mul(y, _t(wt0)))
    g.backward(loss)
    return y.data, x.grad, w.grad


def _counted(monkeypatch, name):
    calls = []
    real = getattr(N, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(N, name, counted)
    return calls


@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, 0)])
def test_conv_several_slabs_equal_one_slab(rng, monkeypatch, stride, padding):
    x0 = rng.normal(size=(2, 3, 9, 5, 4))
    w0 = rng.normal(size=(4, 3, 3, 3, 3))
    out_sp = tuple((n + 2 * padding - 3) // stride + 1 for n in x0.shape[2:])
    wt0 = rng.normal(size=(2, 4) + out_sp)

    def conv(x, w):
        return N.conv_nd(x, w, stride=stride, padding=padding)

    one = _conv_grads(x0, w0, wt0, conv)
    # two output rows of patches per slab: 9, 7 or 5 rows end in a short slab;
    # at stride 1 a patch row spans the whole padded width, k - 1 past the output
    width = out_sp[2] + (2 if stride == 1 else 0)
    row_bytes = 2 * 3 * 27 * out_sp[1] * width * 8
    monkeypatch.setattr(N, "_SLAB_BYTES", 2 * row_bytes + 1)
    slab_widths = []
    real_slabs = N._slabs

    def counted_slabs(*args):
        slab_widths.append([])
        for sl, cols in real_slabs(*args):
            slab_widths[-1].append(cols.shape[2])
            yield sl, cols

    monkeypatch.setattr(N, "_slabs", counted_slabs)
    many = _conv_grads(x0, w0, wt0, conv)
    fwd = slab_widths[0]  # forward: 2 output rows per slab, then the short rest
    assert len(fwd) > 2 and set(fwd[:-1]) == {2 * out_sp[1] * width} and fwd[-1] < fwd[0]
    for a, b in zip(one, many):
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12)
    want = conv_nd_loops(x0, w0, stride=stride, padding=padding)
    np.testing.assert_allclose(many[0], want, rtol=1e-10, atol=1e-10)
    x, w = _t(x0, grad=True), _t(w0, grad=True)
    res = finite_diff_check(lambda: T.reduce_sum(T.mul(conv(x, w), _t(wt0))), [x, w], rng=rng)
    assert res.passed, res.line()


@pytest.mark.parametrize(
    "rank,k,stride,padding,overlapping",
    [
        (1, 2, 2, 0, False),
        (2, 2, 2, 0, False),
        (3, 2, 2, 0, False),  # every up-convolution of the network
        (2, 3, 2, 1, True),
        (3, 3, 2, 1, True),
    ],
)
def test_conv_transpose_routes(rng, monkeypatch, rank, k, stride, padding, overlapping):
    sp = {1: (5,), 2: (4, 3), 3: (3, 2, 3)}[rank]
    x0 = rng.normal(size=(2, 3) + sp)
    w0 = rng.normal(size=(3, 2) + (k,) * rank)
    out_sp = tuple((n - 1) * stride - 2 * padding + k for n in sp)
    wt0 = rng.normal(size=(2, 2) + out_sp)

    def conv(x, w):
        return N.conv_transpose_nd(x, w, stride=stride, padding=padding)

    slabs = _counted(monkeypatch, "_slabs")
    y = conv(_t(x0), _t(w0)).data
    # kernel == stride: each output phase has one tap, whose patch matrix is
    # x itself; overlapping windows give some phase more than one tap
    assert slabs and any(np.prod(phase_k) > 1 for _, phase_k, *_ in slabs) == overlapping
    want = conv_transpose_nd_loops(x0, w0, stride=stride, padding=padding)
    np.testing.assert_allclose(y, want, rtol=1e-10, atol=1e-10)
    x, w = _t(x0, grad=True), _t(w0, grad=True)
    res = finite_diff_check(lambda: T.reduce_sum(T.mul(conv(x, w), _t(wt0))), [x, w], rng=rng)
    assert res.passed, res.line()


@st.composite
def _adjoint_geometry(draw):
    """(rank, k, stride, padding, input size, output size) of a transposed
    conv: kernel 1-4, stride 1-3, padding 0..k+1, and an output size up to
    stride - 1 past the default on each axis."""
    rank = draw(st.integers(1, 3))
    axes = []
    for _ in range(rank):
        k = draw(st.integers(1, 4))
        s = draw(st.integers(1, 3))
        p = draw(st.integers(0, k + 1))
        lo = max(1, 1 - (k - 2 * p - 1) // s)  # smallest input with a default output >= 1
        n = draw(st.integers(lo, lo + (2 if rank == 3 else 3)))
        o = (n - 1) * s - 2 * p + k + draw(st.integers(0, s - 1))
        axes.append((k, s, p, n, o))
    return (rank,) + tuple(tuple(a[i] for a in axes) for i in range(5))


@given(_adjoint_geometry())
@example((3, (1, 1, 1), (2, 2, 2), (0, 0, 0), (2, 3, 2), (3, 6, 4)))  # the 1^3 stride-2 skip
@example((2, (3, 4), (2, 3), (3, 1), (3, 2), (2, 5)))  # k not a multiple of s, padding > k - 1
@example((1, (4,), (3,), (0,), (3,), (12,)))  # stride 3, enlarged output size
def test_adjoint_is_one_route_for_every_geometry(geometry):
    rank, k, stride, padding, sp, out_sp = geometry
    rng = np.random.default_rng(sum(k) + 7 * sum(stride) + 31 * sum(sp))
    x0 = rng.normal(size=(2, 2) + sp)
    w0 = rng.normal(size=(2, 3) + k)
    y = N.conv_transpose_nd(_t(x0), _t(w0), stride=stride, padding=padding, output_size=out_sp)
    want = conv_transpose_nd_loops(x0, w0, stride=stride, padding=padding, output_size=out_sp)
    np.testing.assert_allclose(y.data, want, rtol=1e-10, atol=1e-10)
    # conv_nd's input cotangent is the same map: <conv(z), x0> == <z, convT(x0)>
    z = _t(rng.normal(size=(2, 3) + out_sp), grad=True)
    with Graph() as g:
        c = N.conv_nd(z, _t(w0), stride=stride, padding=padding)
        loss = T.reduce_sum(T.mul(c, _t(x0)))
    g.backward(loss)
    assert c.shape[2:] == sp
    np.testing.assert_allclose(z.grad, y.data, rtol=1e-10, atol=1e-10)


@given(_adjoint_geometry(), st.integers(1, 3), st.booleans())
@example((3, (3, 3, 3), (1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)), 2, False)  # the 1^3 bottleneck
@example((3, (3, 3, 3), (2, 2, 2), (1, 1, 1), (1, 1, 1), (2, 2, 2)), 1, False)  # one column, batch 1
@example((3, (1, 1, 1), (1, 1, 1), (0, 0, 0), (1, 1, 1), (1, 1, 1)), 2, False)  # one tap, one column
@example((2, (3, 3), (1, 1), (1, 1), (5, 4), (5, 4)), 3, True)  # whole rows, short last slab
def test_weight_cotangents_match_the_loop_oracle(geometry, batch, short_slabs):
    # conv_nd(z, w) read back against x, and conv_transpose_nd(x, w) against
    # z, have the same weight cotangent: <conv(z, w), x> == <z, convT(x, w)>
    rank, k, stride, padding, sp, out_sp = geometry
    rng = np.random.default_rng(sum(k) + 7 * sum(stride) + 31 * sum(sp) + batch)
    x0 = rng.normal(size=(batch, 2) + sp)
    z0 = rng.normal(size=(batch, 2) + out_sp)
    w0 = rng.normal(size=(2, 2) + k)
    # both weight cotangents slab the same patches: B x 2 channels x k taps,
    # over output rows as wide as the route makes them
    grid = N._patch_grid(k, stride, sp)
    row_bytes = batch * 2 * math.prod(k) * math.prod(grid[1:]) * 8
    w, wt = _t(w0, grad=True), _t(w0, grad=True)
    with pytest.MonkeyPatch.context() as mp:
        if short_slabs:  # two rows per slab, and a short last one at odd sp[0]
            mp.setattr(N, "_SLAB_BYTES", 2 * row_bytes + 1)
        with Graph() as g:
            c = N.conv_nd(_t(z0), w, stride=stride, padding=padding)
            loss = T.reduce_sum(T.mul(c, _t(x0)))
        g.backward(loss)
        with Graph() as g:
            y = N.conv_transpose_nd(_t(x0), wt, stride=stride, padding=padding, output_size=out_sp)
            loss = T.reduce_sum(T.mul(y, _t(z0)))
        g.backward(loss)
    want = conv_weight_grad_loops(z0, x0, k, stride=stride, padding=padding)
    np.testing.assert_allclose(w.grad, want, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(wt.grad, want, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("offset", [0, 1])
def test_slack_reuses_only_a_buffer_that_starts_the_input(offset):
    # the buffer _window allocates is reused when x starts at its first
    # element and is followed by zeros; an offset view is copied, even where
    # the elements past its base's first n are zeros too
    want = np.arange(12.0).reshape(3, 4) % 11  # its last element is 0
    buf = np.zeros(offset + 12 + 3)
    x = buf[offset : offset + 12].reshape(3, 4)
    x[...] = want
    flat = N._with_slack(x, 2)
    np.testing.assert_array_equal(flat, np.r_[want.reshape(-1), 0.0, 0.0])
    assert np.shares_memory(flat, buf) == (offset == 0)


def test_one_tap_stride1_patches_are_the_input(rng):
    x0 = rng.normal(size=(2, 3, 5, 4))
    w0 = rng.normal(size=(4, 3, 1, 1))
    [(sl, cols)] = list(N._slabs(x0, (1, 1), (1, 1), (5, 4), (5, 4)))
    assert sl == slice(None) and cols.shape == (2, 3, 20) and np.shares_memory(cols, x0)
    wt0 = rng.normal(size=(2, 4, 5, 4))

    def conv(x, w):
        return N.conv_nd(x, w, stride=1, padding=0)

    y, gx, gw = _conv_grads(x0, w0, wt0, conv)
    np.testing.assert_allclose(y, conv_nd_loops(x0, w0), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(gx, np.einsum("bohw,oc->bchw", wt0, w0[:, :, 0, 0]), rtol=1e-12)
    np.testing.assert_allclose(gw[:, :, 0, 0], np.einsum("bohw,bchw->oc", wt0, x0), rtol=1e-12)


@pytest.mark.parametrize(
    "op,stride,padding",
    [("conv", 1, 1), ("conv", 2, 1), ("convT", 2, 0), ("convT", 2, 1)],
)
def test_conv_input_without_grad_gets_no_cotangent(rng, monkeypatch, op, stride, padding):
    x0 = rng.normal(size=(2, 3, 5, 4))
    if op == "conv":
        w0 = rng.normal(size=(4, 3, 3, 3))

        def conv(x, w):
            return N.conv_nd(x, w, stride=stride, padding=padding)
    else:
        w0 = rng.normal(size=(3, 4, 2 + padding, 2 + padding))

        def conv(x, w):
            return N.conv_transpose_nd(x, w, stride=stride, padding=padding)

    out_shape = conv(_t(x0), _t(w0)).shape
    _, _, w_grad = _conv_grads(x0, w0, np.ones(out_shape), conv)
    vjps = []
    real_record = N.record

    def keep_vjp(out, inputs, vjp):
        vjps.append(vjp)
        return real_record(out, inputs, vjp)

    monkeypatch.setattr(N, "record", keep_vjp)
    x, w = _t(x0), _t(w0, grad=True)  # x is a constant, like the stem's image
    with Graph() as g:
        loss = T.reduce_sum(conv(x, w))
    g.backward(loss)
    assert x.grad is None
    np.testing.assert_array_equal(w.grad, w_grad)
    gx, gw = vjps[0](np.ones(out_shape))
    assert gx is None
    np.testing.assert_array_equal(gw, w_grad)


# ---------------------------------------------------------------------------
# the operand contract: every op takes Tensor operands, float ones of one
# dtype except where it only moves elements, and names itself when it
# refuses one

# op -> (call, float32 operand shapes)
_OPERAND_CALLS = {
    "add": (T.add, [(2, 3), (2, 3)]),
    "sub": (T.sub, [(2, 3), (2, 3)]),
    "mul": (T.mul, [(2, 3), (2, 3)]),
    "div": (T.div, [(2, 3), (2, 3)]),
    "exp": (T.exp, [(2, 3)]),
    "log": (T.log, [(2, 3)]),
    "sigmoid": (T.sigmoid, [(2, 3)]),
    "silu": (T.silu, [(2, 3)]),
    "leaky_relu": (T.leaky_relu, [(2, 3)]),
    "absolute": (T.absolute, [(2, 3)]),
    "max_with_scalar": (lambda x: T.max_with_scalar(x, 0.5), [(2, 3)]),
    "matmul": (T.matmul, [(2, 3), (3, 4)]),
    "reduce_sum": (T.reduce_sum, [(2, 3)]),
    "reduce_mean": (T.reduce_mean, [(2, 3)]),
    "reduce_max": (lambda x: T.reduce_max(x, axis=1), [(2, 3)]),
    "cumsum": (lambda x: T.cumsum(x, axis=1), [(2, 3)]),
    "reshape": (lambda x: T.reshape(x, (3, 2)), [(2, 3)]),
    "permute": (lambda x: T.permute(x, (1, 0)), [(2, 3)]),
    "reshape_permute": (lambda x: T.reshape_permute(x, (6,), (1, 0)), [(2, 3)]),
    "broadcast_to": (lambda x: T.broadcast_to(x, (4, 2, 3)), [(2, 3)]),
    "flip": (lambda x: T.flip(x, (1,)), [(2, 3)]),
    "concat": (lambda a, b: T.concat([a, b], axis=0), [(2, 3), (1, 3)]),
    "narrow": (lambda x: T.narrow(x, 1, 1, 2), [(2, 3)]),
    "split": (lambda x: T.split(x, 3, axis=1)[0], [(2, 3)]),
    "conv_nd": (lambda x, w, b: N.conv_nd(x, w, b, padding=1), [(1, 2, 4, 4), (3, 2, 3, 3), (3,)]),
    "conv_transpose_nd": (
        lambda x, w, b: N.conv_transpose_nd(x, w, b, stride=2),
        [(1, 2, 3, 3), (2, 3, 2, 2), (3,)],
    ),
    "causal_conv1d": (N.causal_conv1d, [(2, 5, 4), (4, 3), (4,)]),
    "layer_norm": (N.layer_norm, [(2, 5, 4), (4,), (4,)]),
    "instance_norm": (N.instance_norm, [(2, 3, 4, 4), (3,), (3,)]),
    "softmax": (lambda x: N.softmax(x, axis=1), [(2, 3, 4)]),
}
# the ops that only move elements: any dtype passes, as labels and masks do
_ANY_DTYPE = {"reshape", "permute", "reshape_permute", "flip"}
# the one operand that breaks the contract, made from its float32 array
_BAD_OPERANDS = {
    "ndarray": lambda a: a,
    "list": lambda a: a.tolist(),
    "int32": lambda a: Tensor(a.astype(np.int32)),
    "float64": lambda a: Tensor(a.astype(np.float64)),
}


@pytest.mark.parametrize(
    "op,bad",
    [
        (op, bad)
        for op, (_, shapes) in _OPERAND_CALLS.items()
        for bad in _BAD_OPERANDS
        if bad != "float64" or len(shapes) > 1  # one operand cannot mix dtypes
        if bad != "int32" or op not in _ANY_DTYPE
    ],
)
def test_operand_contract_names_the_op(op, bad):
    call, shapes = _OPERAND_CALLS[op]
    arrays = [np.ones(s, np.float32) for s in shapes]
    assert call(*map(Tensor, arrays)).dtype == np.float32
    for i in range(len(arrays)):
        args = [Tensor(a) for a in arrays]
        args[i] = _BAD_OPERANDS[bad](arrays[i])
        with pytest.raises(ContractError, match=f"^{op}: "):
            call(*args)


def test_operand_table_covers_every_op():
    not_ops = {"ContractError", "GraphError", "NumericsError", "Tensor", "Graph"}
    assert set(_OPERAND_CALLS) == (set(T.__all__) - not_ops) | set(N.__all__)


@pytest.mark.parametrize("op", sorted(_ANY_DTYPE))
def test_element_moving_ops_keep_an_int_dtype(op):
    call, [shape] = _OPERAND_CALLS[op]
    assert call(Tensor(np.arange(6, dtype=np.int32).reshape(shape))).dtype == np.int32
