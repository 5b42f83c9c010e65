"""Tensor container semantics and forward-op values."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import xlunet.nnops as N
import xlunet.tensor as T
from xlunet.tensor import ContractError, Graph, Tensor, backward

from oracles import matmul_loops


# ---------------------------------------------------------------------------
# construction and dtype policy


def test_python_scalars_become_float32_int32():
    assert Tensor(1.5).dtype == np.float32
    assert Tensor(3).dtype == np.int32
    assert Tensor([1.0, 2.0]).dtype == np.float32
    assert Tensor([[1, 2]]).dtype == np.int32


def test_numpy_arrays_keep_dtype():
    assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64
    assert Tensor(np.zeros(3, dtype=np.uint8)).dtype == np.uint8
    # numpy scalars carry an explicit dtype too — a float64 reduction result
    # must not silently drop to float32
    assert Tensor(np.float64(2.5)).dtype == np.float64


def test_unsupported_dtype_rejected():
    with pytest.raises(ContractError, match="unsupported dtype"):
        Tensor(np.zeros(3, dtype=np.float16))
    with pytest.raises(ContractError, match="unsupported dtype"):
        Tensor(np.zeros(3, dtype=np.complex64))


def test_requires_grad_needs_float():
    with pytest.raises(ContractError, match="requires_grad"):
        Tensor(np.zeros(3, dtype=np.int32), requires_grad=True)
    t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    assert t.requires_grad and t.grad is None


def test_wrapping_a_tensor_is_an_error():
    with pytest.raises(ContractError):
        Tensor(Tensor(1.0))


def test_item_and_detach():
    t = Tensor(np.array(2.5, dtype=np.float32), requires_grad=True)
    assert t.item() == pytest.approx(2.5)
    d = t.detach()
    assert not d.requires_grad
    assert np.array_equal(d.data, t.data)


# ---------------------------------------------------------------------------
# arithmetic values


def test_binary_ops_match_numpy(rng):
    a = rng.normal(size=(3, 4)).astype(np.float32)
    b = rng.normal(size=(3, 4)).astype(np.float32) + 2.5
    ta, tb = Tensor(a), Tensor(b)
    np.testing.assert_allclose(T.add(ta, tb).data, a + b, rtol=1e-6)
    np.testing.assert_allclose(T.sub(ta, tb).data, a - b, rtol=1e-6)
    np.testing.assert_allclose(T.mul(ta, tb).data, a * b, rtol=1e-6)
    np.testing.assert_allclose(T.div(ta, tb).data, a / b, rtol=1e-6)
    np.testing.assert_allclose(T.mul(ta, -1.0).data, -a, rtol=1e-6)


def test_scalar_operand_allowed_but_shape_mismatch_rejected():
    a = Tensor(np.ones((2, 3), dtype=np.float32))
    assert T.add(a, 1.0).shape == (2, 3)
    assert T.mul(2.0, a).shape == (2, 3)
    with pytest.raises(ContractError):
        T.add(a, Tensor(np.ones((3,), dtype=np.float32)))
    with pytest.raises(ContractError):
        T.mul(a, Tensor(np.ones((2, 1), dtype=np.float32)))


def test_explicit_broadcast_to():
    a = Tensor(np.arange(3, dtype=np.float32))
    out = T.broadcast_to(a, (2, 3))
    assert out.shape == (2, 3)
    np.testing.assert_array_equal(out.data, np.broadcast_to(np.arange(3), (2, 3)))
    with pytest.raises(ContractError):
        T.broadcast_to(a, (2, 4))


@pytest.mark.parametrize(
    "in_shape,out_shape",
    [((3,), (2, 3)), ((1, 1, 4), (2, 3, 4)), ((3, 1), (3, 1)), ((1,), (1, 2, 1, 5)), ((), (2, 2)), ((2, 1, 3), (4, 2, 5, 3))],
)
@pytest.mark.parametrize("contiguous", [True, False])
def test_broadcast_to_is_numpys_view(rng, in_shape, out_shape, contiguous):
    # the same values, strides and read-only flag as np.broadcast_to, so that
    # every later op sees the layout it saw before
    x0 = rng.normal(size=in_shape)
    if not contiguous:
        x0 = np.repeat(x0[..., None], 2, axis=-1)[..., 0]
    got = T.broadcast_to(Tensor(x0), out_shape).data
    want = np.broadcast_to(x0, out_shape)
    assert got.strides == want.strides and not got.flags.writeable
    np.testing.assert_array_equal(got, want)


def test_unary_values(rng):
    x = rng.uniform(0.5, 2.0, size=(5,)).astype(np.float64)
    t = Tensor(x)
    np.testing.assert_allclose(T.exp(t).data, np.exp(x))
    np.testing.assert_allclose(T.log(t).data, np.log(x))
    np.testing.assert_allclose(T.sigmoid(t).data, 1 / (1 + np.exp(-x)))
    np.testing.assert_allclose(T.silu(t).data, x / (1 + np.exp(-x)))
    np.testing.assert_allclose(T.absolute(Tensor(-x)).data, x)


def test_log_rejects_nonpositive():
    with pytest.raises(T.NumericsError):
        T.log(Tensor(np.array([1.0, 0.0], dtype=np.float32)))


def test_sigmoid_extreme_inputs_are_stable():
    x = Tensor(np.array([-500.0, -88.0, 0.0, 88.0, 500.0], dtype=np.float32))
    y = T.sigmoid(x).data
    assert np.isfinite(y).all()
    assert y[0] == 0.0 and y[-1] == 1.0 and y[2] == 0.5


@pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-6), (np.float64, 1e-14)])
def test_sigmoid_and_silu_saturate_to_the_closed_form(dtype, rtol):
    # a dense grid of step 1/64 (exact in float32) over [-120, 120] crosses
    # float32's exp overflow at -88.7 and both dtypes' rounding to 1
    xs = np.concatenate([[-1000.0, -50.0, 50.0, 1000.0], np.arange(-120 * 64, 120 * 64 + 1) / 64])
    # the closed form, evaluated on the side where exp cannot overflow
    sig = np.array([math.exp(v) / (1 + math.exp(v)) if v < 0 else 1 / (1 + math.exp(-v)) for v in xs.tolist()])
    x = Tensor(xs.astype(dtype), requires_grad=True)
    with Graph() as g:
        s = T.sigmoid(x)
        y = T.silu(x)
        loss = T.add(T.reduce_sum(s), T.reduce_sum(y))
    backward(loss, g)
    # below the dtype's smallest normal too few bits are left for rtol
    tiny = np.finfo(dtype).tiny
    normal = sig >= tiny
    for out, want in ((s.data, sig), (y.data, xs * sig)):
        assert out.dtype == dtype and np.isfinite(out).all()
        np.testing.assert_allclose(out[normal], want[normal], rtol=rtol, atol=0)
    assert ((s.data[~normal] >= 0) & (s.data[~normal] < tiny)).all()
    assert ((y.data[~normal] <= 0) & (y.data[~normal] >= xs[~normal] * tiny)).all()
    # where the closed form rounds to exactly 0 or 1, so does the op
    rounded = sig.astype(dtype)
    saturated = (rounded == 0) | (rounded == 1)
    np.testing.assert_array_equal(s.data[saturated], rounded[saturated])
    np.testing.assert_array_equal(y.data[saturated], (x.data * rounded)[saturated])
    assert np.isfinite(x.grad).all()


def test_leaky_relu():
    x = Tensor(np.array([-2.0, 0.0, 3.0], dtype=np.float32))
    np.testing.assert_allclose(T.leaky_relu(x, 0.01).data, [-0.02, 0.0, 3.0])


def test_max_with_scalar():
    x = Tensor(np.array([-2.0, 0.5, 3.0], dtype=np.float32))
    np.testing.assert_allclose(T.max_with_scalar(x, 1.0).data, [1.0, 1.0, 3.0])


# ---------------------------------------------------------------------------
# matmul


def test_matmul_known_value():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
    b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]], dtype=np.float32))
    np.testing.assert_array_equal(
        T.matmul(a, b).data, np.array([[19.0, 22.0], [43.0, 50.0]], dtype=np.float32)
    )


def test_matmul_matches_loop_oracle(rng):
    a = rng.normal(size=(4, 6)).astype(np.float64)
    b = rng.normal(size=(6, 3)).astype(np.float64)
    got = T.matmul(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(got, matmul_loops(a, b), rtol=1e-12)


def test_matmul_batched_broadcast(rng):
    a = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
    b = rng.normal(size=(5, 6)).astype(np.float32)
    out = T.matmul(Tensor(a), Tensor(b))
    assert out.shape == (2, 3, 4, 6)
    np.testing.assert_allclose(out.data, a @ b, rtol=1e-5)


@pytest.mark.parametrize(
    "a_shape,b_shape,swap_a",
    [
        ((2, 1, 8), (8, 5), False),  # L=1, as at the bot network's sequence block
        ((4, 4, 8), (8, 5), False),
        ((2, 3, 4, 8), (8, 5), False),
        ((2, 8, 4), (8, 5), True),  # a non-contiguous a keeps the batched route
        ((2, 4, 8), (2, 8, 5), False),  # N-d @ N-d is unchanged
        ((3, 1, 4, 8), (2, 8, 5), False),
    ],
)
def test_matmul_cotangents_match_the_batched_formula(rng, a_shape, b_shape, swap_a):
    a0 = rng.normal(size=a_shape)
    if swap_a:
        a0 = np.swapaxes(a0, -1, -2)
    b0 = rng.normal(size=b_shape)
    a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
    u = rng.normal(size=np.broadcast_shapes(a0.shape[:-2], b0.shape[:-2]) + (a0.shape[-2], b0.shape[-1]))
    with Graph() as g:
        loss = T.reduce_sum(T.mul(T.matmul(a, b), Tensor(u)))
    backward(loss, g)

    def summed_to(arr, shape):
        arr = arr.sum(axis=tuple(range(arr.ndim - len(shape))))
        return arr.sum(axis=tuple(i for i, n in enumerate(shape) if n == 1), keepdims=True)

    want_a = summed_to(np.matmul(u, np.swapaxes(b0, -1, -2)), a0.shape)
    want_b = summed_to(np.matmul(np.swapaxes(a0, -1, -2), u), b0.shape)
    np.testing.assert_allclose(a.grad, want_a, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(b.grad, want_b, rtol=1e-12, atol=1e-12)


def test_matmul_rejects_vectors():
    with pytest.raises(ContractError):
        T.matmul(Tensor(np.ones(3, dtype=np.float32)), Tensor(np.ones((3, 2), dtype=np.float32)))


@pytest.mark.parametrize("a_shape,b_shape", [((2, 4, 5), (3, 5, 6)), ((2, 3, 4, 5), (4, 5, 6))])
def test_matmul_rejects_clashing_batch_dims(a_shape, b_shape):
    a, b = Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape))
    with pytest.raises(ContractError, match=r"^matmul: batch dims incompatible"):
        T.matmul(a, b)


@pytest.mark.parametrize("lead", [(), (1,), (7,), (2, 3), (1, 4, 1), (3, 1, 2, 2)])
def test_matmul_takes_a_2d_weight_under_any_leading_dims(rng, lead):
    a0 = rng.normal(size=lead + (4, 5))
    w0 = rng.normal(size=(5, 6))
    got = T.matmul(Tensor(a0), Tensor(w0)).data
    np.testing.assert_array_equal(got, np.matmul(a0, w0))


# ---------------------------------------------------------------------------
# reductions / shape ops


def test_reductions(rng):
    x = rng.normal(size=(2, 3, 4)).astype(np.float64)
    t = Tensor(x)
    np.testing.assert_allclose(T.reduce_sum(t).item(), x.sum())
    np.testing.assert_allclose(T.reduce_sum(t, axis=(1,)).data, x.sum(axis=1))
    np.testing.assert_allclose(
        T.reduce_sum(t, axis=(0, 2), keepdims=True).data, x.sum(axis=(0, 2), keepdims=True)
    )
    np.testing.assert_allclose(T.reduce_mean(t, axis=(2,)).data, x.mean(axis=2))
    np.testing.assert_allclose(T.reduce_max(t, axis=1).data, x.max(axis=1))
    np.testing.assert_allclose(
        T.reduce_max(t, axis=2, keepdims=True).data, x.max(axis=2, keepdims=True)
    )


# every differentiable op of tensor and nnops on operands of one float dtype;
# binary ops also take a python scalar on either side
_OPS = {
    "add": lambda t: T.add(t((2, 3)), t((2, 3))),
    "sub": lambda t: T.sub(2.0, t((2, 3))),
    "mul": lambda t: T.mul(t((2, 3)), 0.5),
    "div": lambda t: T.div(t((2, 3)), T.exp(t((2, 3)))),
    "exp": lambda t: T.exp(t((2, 3))),
    "log": lambda t: T.log(T.exp(t((2, 3)))),
    "sigmoid": lambda t: T.sigmoid(t((2, 3))),
    "silu": lambda t: T.silu(t((2, 3))),
    "leaky_relu": lambda t: T.leaky_relu(t((2, 3)), 0.1),
    "absolute": lambda t: T.absolute(t((2, 3))),
    "max_with_scalar": lambda t: T.max_with_scalar(t((2, 3)), 0.25),
    "matmul": lambda t: T.matmul(t((2, 3, 4)), t((4, 5))),
    "reduce_sum": lambda t: T.reduce_sum(t((2, 3))),
    "reduce_mean": lambda t: T.reduce_mean(t((2, 3)), axis=1),
    "reduce_max": lambda t: T.reduce_max(t((2, 3)), axis=1, keepdims=True),
    "cumsum": lambda t: T.cumsum(t((2, 3)), axis=1),
    "reshape": lambda t: T.reshape(t((2, 3)), (3, 2)),
    "permute": lambda t: T.permute(t((2, 3, 4)), (2, 0, 1)),
    "reshape_permute": lambda t: T.reshape_permute(t((2, 3, 4)), (4, 6), (2, 0, 1)),
    "broadcast_to": lambda t: T.broadcast_to(t((3, 1)), (2, 3, 4)),
    "flip": lambda t: T.flip(t((2, 3)), (1,)),
    "concat": lambda t: T.concat([t((2, 3)), t((2, 2))], axis=1),
    "narrow": lambda t: T.narrow(t((2, 5)), 1, 1, 3),
    "split": lambda t: T.split(t((2, 6)), [2, 4], axis=1),
    "conv_nd": lambda t: N.conv_nd(t((1, 2, 5, 4)), t((3, 2, 3, 3)), t((3,)), padding=1),
    "conv_transpose_nd": lambda t: N.conv_transpose_nd(t((1, 2, 3, 2)), t((2, 3, 2, 2)), t((3,)), stride=2),
    "causal_conv1d": lambda t: N.causal_conv1d(t((2, 5, 3)), t((3, 4)), t((3,))),
    "instance_norm": lambda t: N.instance_norm(t((2, 3, 4, 4)), t((3,)), t((3,))),
    "layer_norm": lambda t: N.layer_norm(t((2, 5, 6)), t((6,)), t((6,))),
    "softmax": lambda t: N.softmax(t((2, 4, 3)), axis=1),
}


def test_dtype_table_covers_every_op():
    not_ops = {"ContractError", "GraphError", "NumericsError", "Tensor", "Graph", "backward"}
    assert set(_OPS) == (set(T.__all__) - not_ops) | set(N.__all__)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", sorted(_OPS))
def test_ops_keep_their_operands_dtype(rng, op, dtype):
    def t(shape):
        return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

    with Graph():  # the taped route, whose outputs carry the dtype into backward
        out = _OPS[op](t)
    for o in out if isinstance(out, list) else [out]:
        assert o.dtype == dtype and o.data.dtype == dtype


def test_cumsum(rng):
    x = rng.normal(size=(2, 5)).astype(np.float64)
    np.testing.assert_allclose(T.cumsum(Tensor(x), axis=1).data, np.cumsum(x, axis=1))


def test_shape_ops(rng):
    x = rng.normal(size=(2, 3, 4)).astype(np.float32)
    t = Tensor(x)
    assert T.reshape(t, (6, 4)).shape == (6, 4)
    np.testing.assert_array_equal(T.permute(t, (2, 0, 1)).data, x.transpose(2, 0, 1))
    np.testing.assert_array_equal(T.flip(t, 1).data, np.flip(x, axis=1))
    got = T.reshape_permute(t, (3, 8), (1, 0, 2))
    np.testing.assert_array_equal(got.data, x.transpose(1, 0, 2).reshape(3, 8))


@pytest.mark.parametrize(
    "op, want, undo",
    [
        # each case: the op, its numpy value, and the numpy map of an output
        # cotangent back to the input's layout
        (
            lambda t: T.permute(t, (0, 2, 1, 3)),
            lambda x: x.transpose(0, 2, 1, 3),
            lambda g: g.transpose(0, 2, 1, 3),
        ),
        (
            lambda t: T.permute(t, (3, 0, 2, 1)),
            lambda x: x.transpose(3, 0, 2, 1),
            lambda g: g.transpose(1, 3, 2, 0),
        ),
        (
            # the merged axes stay adjacent, so numpy reshapes the
            # transposed view without copying it
            lambda t: T.reshape_permute(t, (3, 2, 20), (1, 0, 2, 3)),
            lambda x: x.transpose(1, 0, 2, 3).reshape(3, 2, 20),
            lambda g: g.reshape(3, 2, 4, 5).transpose(1, 0, 2, 3),
        ),
        (
            # volume_to_sequence's move: channels last, spatial axes merged
            lambda t: T.reshape_permute(t, (2, 20, 3), (0, 2, 3, 1)),
            lambda x: x.transpose(0, 2, 3, 1).reshape(2, 20, 3),
            lambda g: g.reshape(2, 4, 5, 3).transpose(0, 3, 1, 2),
        ),
    ],
    ids=[
        "permute-heads-first",
        "permute-any",
        "reshape_permute-merge",
        "reshape_permute-channels-last",
    ],
)
def test_axis_moves_are_c_contiguous_with_unchanged_values_and_vjps(rng, op, want, undo):
    x = rng.normal(size=(2, 3, 4, 5))
    t = Tensor(x, requires_grad=True)
    with Graph() as g:
        out = op(t)
        w = rng.normal(size=out.shape)
        loss = T.reduce_sum(T.mul(out, Tensor(w)))
    assert out.data.flags.c_contiguous
    np.testing.assert_array_equal(out.data, want(x))
    backward(loss, g)
    np.testing.assert_array_equal(t.grad, undo(w))


@pytest.mark.parametrize("op", [T.add, T.sub])
@pytest.mark.parametrize("const_first", [False, True])
@pytest.mark.parametrize("scalar", [False, True])
def test_add_sub_vjp_gives_none_for_a_constant_input(rng, monkeypatch, op, const_first, scalar):
    # record's contract: no cotangent for an input that does not require grad
    vjps = []
    real_record = T.record

    def spy(out, inputs, vjp):
        vjps.append(vjp)
        return real_record(out, inputs, vjp)

    monkeypatch.setattr(T, "record", spy)
    var = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    const = 1.5 if scalar else Tensor(rng.normal(size=(2, 3)))
    with Graph():
        op(const, var) if const_first else op(var, const)
    gout = rng.normal(size=(2, 3))
    g_first, g_second = vjps[-1](gout)
    g_const, g_var = (g_first, g_second) if const_first else (g_second, g_first)
    assert g_const is None
    sign = -1.0 if op is T.sub and const_first else 1.0
    np.testing.assert_array_equal(g_var, sign * gout)


def test_narrow_and_split(rng):
    x = rng.normal(size=(4, 6)).astype(np.float32)
    t = Tensor(x)
    np.testing.assert_array_equal(T.narrow(t, 1, 2, 3).data, x[:, 2:5])
    parts = T.split(t, 3, axis=1)
    assert [p.shape for p in parts] == [(4, 2)] * 3
    parts = T.split(t, [1, 5], axis=1)
    assert [p.shape for p in parts] == [(4, 1), (4, 5)]
    with pytest.raises(ContractError):
        T.narrow(t, 1, 5, 3)
    with pytest.raises(ContractError):
        T.split(t, 4, axis=1)


def test_concat(rng):
    a = rng.normal(size=(2, 3)).astype(np.float32)
    b = rng.normal(size=(2, 5)).astype(np.float32)
    out = T.concat([Tensor(a), Tensor(b)], axis=1)
    np.testing.assert_array_equal(out.data, np.concatenate([a, b], axis=1))
    with pytest.raises(ContractError):
        T.concat([Tensor(a), Tensor(b)], axis=0)


# ---------------------------------------------------------------------------
# subnormal flush

_SUBNORMAL = 2.0**-127  # half of float32's smallest normal, exactly


def _halved_tiny() -> float:
    """float32 ``tiny * 0.5``: the subnormal 2**-127, or 0 where flushed."""
    tiny = np.full(1, np.finfo(np.float32).tiny, np.float32)
    return float((tiny * np.float32(0.5))[0])


def _mxcsr() -> int:
    env = T._Fenv()
    T._FENV_CALLS[0](env)
    return env.mxcsr


@pytest.mark.skipif(
    not T._FLUSHES_SUBNORMALS,
    reason="the import-time probe found no flush-to-zero control (needs x86-64 glibc)",
)
def test_subnormal_flush_is_scoped_to_its_context_and_the_backward_sweep():
    status = 0x3F  # MXCSR's sticky exception flags; ops may raise them
    before = _mxcsr()
    assert _halved_tiny() == _SUBNORMAL
    with T._flush_subnormals():
        assert _halved_tiny() == 0.0
        # denormals-are-zero: a subnormal input reads as 0
        assert not (np.full(1, _SUBNORMAL, np.float32) + np.float32(0)).any()
    assert _halved_tiny() == _SUBNORMAL
    assert _mxcsr() & ~status == before & ~status

    # the sweep runs in the mode and leaves it when a VJP raises
    seen = []

    def failing_vjp(g):
        seen.append(_halved_tiny())
        raise RuntimeError("vjp failed")

    x = Tensor(np.ones(3, np.float32), requires_grad=True)
    with Graph() as g:
        loss = T.reduce_sum(T.record(Tensor(2 * x.data), (x,), failing_vjp))
    with pytest.raises(RuntimeError, match="vjp failed"):
        backward(loss, g)
    assert seen == [0.0]
    assert _halved_tiny() == _SUBNORMAL

    # bits that were already set stay set, after the context and the sweep
    old = T._swap_flush_bits(T._FTZ_DAZ)
    try:
        with T._flush_subnormals():
            pass
        assert _halved_tiny() == 0.0
        with Graph() as g:
            loss = T.reduce_sum(T.mul(x, 2.0))
        backward(loss, g)
        assert _halved_tiny() == 0.0
    finally:
        T._swap_flush_bits(old)
    assert _halved_tiny() == _SUBNORMAL


# ---------------------------------------------------------------------------
# properties


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
        elements=st.floats(-100, 100),
    )
)
def test_flip_is_involution(x):
    t = Tensor(x)
    np.testing.assert_array_equal(T.flip(T.flip(t, 0), 0).data, x)


@given(
    hnp.arrays(
        np.float64,
        st.just((3, 4)),
        elements=st.floats(-50, 50),
    ),
    hnp.arrays(
        np.float64,
        st.just((3, 4)),
        elements=st.floats(-50, 50),
    ),
)
def test_add_commutes(a, b):
    np.testing.assert_array_equal(
        T.add(Tensor(a), Tensor(b)).data, T.add(Tensor(b), Tensor(a)).data
    )


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
        elements=st.floats(-10, 10),
    )
)
def test_split_concat_roundtrip(x):
    t = Tensor(x)
    parts = T.split(t, [1] * x.shape[1], axis=1) if x.shape[1] else []
    if parts:
        back = T.concat(parts, axis=1)
        np.testing.assert_array_equal(back.data, x)
