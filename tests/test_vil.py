"""Matrix-memory sequence cell and its block wrappers."""

import contextlib
import gc
import tracemalloc

import numpy as np
import pytest

import xlunet.tensor as T
from xlunet.nnops import layer_norm
from xlunet.tensor import ContractError, Tensor
from xlunet.vil import (
    init_mlstm_params,
    init_vil_params,
    init_xlstm_params,
    mlstm_sequence,
    sequence_to_volume,
    vil_block,
    volume_to_sequence,
    xlstm_block,
)

from oracles import mlstm_loop


def _params(rng, e=8, h=2, dtype=np.float64):
    return init_mlstm_params(rng, e, h, dtype=dtype)


def _loop(seq, p):
    """The independent per-step scan over ``p``'s weights."""
    return mlstm_loop(seq, *(t.data for _, t in p.tensors()), heads=p.heads)


def _vil_pair(x, p):
    """``xlstm_block`` written out from public ops: the entry norm, the
    forward block, and the reverse block as flip, block, flip."""
    u = layer_norm(volume_to_sequence(x), p.pre_gamma, p.pre_beta)
    u = vil_block(u, p.fwd)
    u = T.flip(vil_block(T.flip(u, (1,)), p.rev), (1,))
    return sequence_to_volume(u, x.shape[2:])


# ---------------------------------------------------------------------------
# first-step semantics


def test_first_step_reduces_to_closed_form(rng):
    # With C=0, n=0, m=-inf the first step gives
    #   h = o * (C1 q) / max(|n1 . q|, 1),  C1 = v k^T,  n1 = k
    # (C1 = i * v k^T and n1 = i * k with i = exp(itil - itil) = 1 exactly).
    # An L=1 sequence is exactly that first step, in the scan and the op.
    p = _params(rng)
    seq = rng.normal(size=(3, 1, 8))
    serial = _loop(seq, p)
    par = mlstm_sequence(Tensor(seq), p).data
    d = 4
    for b in range(3):
        x = seq[b, 0]
        for head in range(2):
            sl = slice(head * d, (head + 1) * d)
            q = x @ p.query_proj.data[:, sl]
            k = (x @ p.key_proj.data[:, sl]) / np.sqrt(d)
            v = x @ p.value_proj.data[:, sl]
            o = 1 / (1 + np.exp(-(x @ p.out_gate_w.data[:, sl] + p.out_gate_b.data[sl])))
            c1 = np.outer(v, k)
            want = o * (c1 @ q) / max(abs(float(k @ q)), 1.0)
            np.testing.assert_allclose(serial[b, 0, sl], want, rtol=1e-10)
            np.testing.assert_allclose(par[b, 0, sl], want, rtol=1e-10)


def test_step_rejects_bad_shapes(rng):
    p = _params(rng)
    with pytest.raises(ContractError, match="embed dim 7"):
        mlstm_sequence(Tensor(rng.normal(size=(2, 3, 7))), p)
    with pytest.raises(ContractError):
        mlstm_sequence(Tensor(rng.normal(size=(2, 8))), p)


@pytest.mark.parametrize("entry", ["mlstm_sequence", "vil_block", "xlstm_block"])
def test_dtype_mismatch_is_named_at_the_entry_point(rng, entry):
    # float64 parameters and a float32 input: the error names the block the
    # caller called, not an op inside it
    if entry == "mlstm_sequence":
        fn, params, shape = mlstm_sequence, _params(rng), (2, 5, 8)
    elif entry == "vil_block":
        fn, shape = vil_block, (2, 5, 6)
        params = init_vil_params(rng, model_dim=6, heads=3, dtype=np.float64)
    else:
        fn, shape = xlstm_block, (2, 4, 2, 3)
        params = init_xlstm_params(rng, channels=4, heads=2, dtype=np.float64)
    x = Tensor(rng.normal(size=shape).astype(np.float32))
    with pytest.raises(ContractError, match=rf"^{entry}: input dtype float32 != params dtype float64"):
        fn(x, params)


# ---------------------------------------------------------------------------
# sequence form vs independent per-step scan


@pytest.mark.parametrize("length", [12, 16])
def test_sequence_matches_loop_oracle(rng, length):
    p = _params(rng)
    seq = rng.normal(size=(2, length, 8))
    got = mlstm_sequence(Tensor(seq), p).data
    np.testing.assert_allclose(got, _loop(seq, p), rtol=1e-10, atol=1e-12)


def test_reverse_equals_flip_forward_flip(rng):
    # xlstm_block's reverse half is flip, block, flip in the gradient of the
    # input and of every weight too (test_reverse_vil_block_mirrors_forward
    # pins the output)
    p = init_xlstm_params(rng, channels=6, heads=3, dtype=np.float64)
    x = rng.normal(size=(2, 6, 3, 3))
    wt = Tensor(rng.normal(size=x.shape))

    def run(block):
        xt = Tensor(x, requires_grad=True)
        for _, t in p.tensors():
            t.grad = None
        with T.Graph() as g:
            loss = T.reduce_sum(T.mul(block(xt, p), wt))
        g.backward(loss)
        return [xt.grad] + [t.grad for _, t in p.tensors()]

    for got, want in zip(run(xlstm_block), run(_vil_pair), strict=True):
        np.testing.assert_array_equal(got, want)


def test_causality_is_bitwise(rng):
    p = _params(rng)
    seq = rng.normal(size=(2, 12, 8))
    out1 = mlstm_sequence(Tensor(seq), p).data
    seq2 = seq.copy()
    seq2[:, 7:, :] = rng.normal(size=(2, 5, 8)) * 10
    out2 = mlstm_sequence(Tensor(seq2), p).data
    assert np.array_equal(out1[:, :7], out2[:, :7])


def test_anticausality_of_reverse_direction(rng):
    # with its down projection zeroed the forward half is the identity
    # (test_vil_block_has_residual_path), so only the reverse half remains:
    # earlier raster positions must not affect later outputs
    p = init_xlstm_params(rng, channels=6, heads=3, dtype=np.float64)
    p.fwd.down_proj.data = np.zeros_like(p.fwd.down_proj.data)
    x = rng.normal(size=(1, 6, 2, 5))
    out1 = xlstm_block(Tensor(x), p).data.reshape(1, 6, 10)
    x2 = x.copy()
    x2[:, :, 0, :4] += 2.0  # raster positions 0-3
    out2 = xlstm_block(Tensor(x2), p).data.reshape(1, 6, 10)
    assert np.array_equal(out1[:, :, 4:], out2[:, :, 4:])
    assert not np.array_equal(out1[:, :, :4], out2[:, :, :4])


@pytest.mark.parametrize("shift", [50.0, -50.0])
def test_extreme_gate_biases_stay_finite(rng, shift):
    p = _params(rng)
    p.forget_gate_b.data = p.forget_gate_b.data + shift
    p.input_gate_b.data = p.input_gate_b.data - shift
    seq = rng.normal(size=(2, 16, 8))
    par = mlstm_sequence(Tensor(seq), p).data
    ser = _loop(seq, p)
    assert np.isfinite(par).all() and np.isfinite(ser).all()
    np.testing.assert_allclose(par, ser, rtol=1e-9, atol=1e-12)


def test_single_timestep_sequence(rng):
    p = _params(rng)
    seq = rng.normal(size=(2, 1, 8))
    par = mlstm_sequence(Tensor(seq), p).data
    np.testing.assert_allclose(par, _loop(seq, p), rtol=1e-10)


def test_embed_dim_head_divisibility():
    rng = np.random.default_rng(0)
    with pytest.raises(ContractError):
        init_mlstm_params(rng, 9, 2)


# ---------------------------------------------------------------------------
# volume <-> sequence


@pytest.mark.parametrize("shape", [(2, 3, 4, 5), (1, 2, 3, 4, 5)])
def test_volume_sequence_roundtrip(rng, shape):
    x = rng.normal(size=shape).astype(np.float32)
    seq = volume_to_sequence(Tensor(x))
    b, c = shape[0], shape[1]
    length = int(np.prod(shape[2:]))
    assert seq.shape == (b, length, c)
    back = sequence_to_volume(seq, shape[2:])
    np.testing.assert_array_equal(back.data, x)


def test_volume_to_sequence_is_row_major(rng):
    # scanning a (1, 1, 2, 3) volume: sequence order is the raster order of
    # the spatial grid
    x = np.arange(6, dtype=np.float32).reshape(1, 1, 2, 3)
    seq = volume_to_sequence(Tensor(x))
    np.testing.assert_array_equal(seq.data[0, :, 0], np.arange(6))


def test_quadratic_form_keeps_few_full_arrays_for_backward(rng):
    # of the (B, H, L, L) arrays the taped quadratic form computes, its
    # backward reads only decay, scores and weights; the tape must not keep
    # the rest alive between forward and backward
    b, length, e, h = 2, 128, 16, 4
    p = _params(rng, e=e, h=h)
    seq = Tensor(rng.normal(size=(b, length, e)), requires_grad=True)
    full = b * h * length * length * np.dtype(np.float64).itemsize
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with T.Graph() as g:
            loss = T.reduce_sum(mlstm_sequence(seq, p))
        gc.collect()
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert live / full < 4, f"{live / full:.2f} full (B, H, L, L) arrays live before backward"
    g.backward(loss)
    assert np.isfinite(seq.grad).all()


def test_quadratic_form_arrays_are_c_contiguous(rng, monkeypatch):
    # every (B, H, L, L) array the forward materialises is row-major: one
    # strided array (say, from a gate permuted out of (B, L, H) memory as a
    # view) makes every later elementwise op over that shape run strided too
    b, length, e, h = 2, 24, 8, 2
    full = (b, h, length, length)
    arrays = []
    real_record = T.record

    def spy(out, inputs, vjp):
        for t in (out,) + tuple(inputs):
            # broadcast_to's outputs are stride-0 views, not memory of their own
            if t.shape == full and 0 not in t.data.strides:
                arrays.append(t.data)
        return real_record(out, inputs, vjp)

    monkeypatch.setattr(T, "record", spy)
    p = _params(rng, e=e, h=h)
    seq = Tensor(rng.normal(size=(b, length, e)), requires_grad=True)
    with T.Graph():
        mlstm_sequence(seq, p)
    # logits, masked logits, logits - m, decay, scores, weights
    assert len({id(a) for a in arrays}) == 6
    for a in arrays:
        assert a.flags.c_contiguous, f"a (B, H, L, L) array has strides {a.strides}"


@pytest.mark.skipif(not T._HEAP_KEPT, reason="the C library exports no mallopt (not glibc)")
def test_repeated_steps_take_no_page_faults(rng):
    # freed tape memory stays in the process, so a forward + backward of an
    # L=256 block, once its memory was touched, faults nothing back in
    # (glibc's default trimming costs ~3,000 faults a repetition here)
    resource = pytest.importorskip("resource")
    b, length, e, h = 4, 256, 16, 4
    p = _params(rng, e=e, h=h, dtype=np.float32)
    seq = Tensor(rng.normal(size=(b, length, e)).astype(np.float32), requires_grad=True)
    faults = []
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with T.Graph() as g:
            loss = T.reduce_sum(mlstm_sequence(seq, p))
        g.backward(loss)
        for t in [seq] + [t for _, t in p.tensors()]:
            t.grad = None
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert sum(faults[2:]) < 1500, f"minor page faults per repetition: {faults}"


@pytest.mark.skipif(
    not T._FLUSHES_SUBNORMALS,
    reason="the import-time probe found no flush-to-zero control (needs x86-64 glibc)",
)
def test_quadratic_form_computes_no_subnormals_and_unchanged_values(rng, monkeypatch):
    # with the exponential forget gate some 4% of decay, weights and the
    # logits cotangent fall below float32's smallest normal, and every BLAS
    # call or exp touching them takes a slow path; the flushed forward and
    # backward must hold none of them, and give the values of the plain ones
    b, length, e, h = 4, 256, 16, 4
    full = (b, h, length, length)
    tiny = np.finfo(np.float32).tiny
    p = _params(rng, e=e, h=h, dtype=np.float32)
    x = rng.normal(size=(b, length, e)).astype(np.float32)
    counts = {"forward": 0, "backward": 0}
    real_record = T.record

    def count(a, where):
        counts[where] += np.count_nonzero((a != 0) & (np.abs(a) < tiny))

    def spy(out, inputs, vjp):
        if out.shape == full:
            count(out.data, "forward")

        def counted_vjp(g):
            gins = vjp(g)
            for gin in gins:
                if gin is not None:
                    count(gin, "backward")
            return gins

        return real_record(out, inputs, counted_vjp)

    def run():
        counts.update(forward=0, backward=0)
        seq = Tensor(x, requires_grad=True)
        for _, t in p.tensors():
            t.grad = None
        with T.Graph() as g:
            out = mlstm_sequence(seq, p)
            loss = T.reduce_sum(out)
        g.backward(loss)
        return [out.data, seq.grad] + [t.grad for _, t in p.tensors()]

    monkeypatch.setattr(T, "record", spy)
    flushed = run()
    assert counts == {"forward": 0, "backward": 0}
    monkeypatch.setattr(T, "_flush_subnormals", contextlib.nullcontext)
    plain = run()
    # the shape does exercise the flush: unflushed, subnormals appear
    assert counts["forward"] > 0 and counts["backward"] > 0
    assert len(flushed) == 11
    for got, want in zip(flushed, plain):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# block wrappers


def test_vil_block_preserves_shape_and_grads_flow(rng):
    p = init_vil_params(rng, model_dim=6, heads=3, dtype=np.float64)
    seq = Tensor(rng.normal(size=(2, 7, 6)), requires_grad=True)
    with T.Graph() as g:
        out = vil_block(seq, p)
        loss = T.reduce_sum(T.mul(out, out))
    g.backward(loss)
    assert out.shape == (2, 7, 6)
    assert seq.grad is not None and np.isfinite(seq.grad).all()
    for name, t in p.tensors():
        assert t.grad is not None, name


def test_vil_block_has_residual_path(rng):
    # zeroing the down projection leaves exactly the input (residual only)
    p = init_vil_params(rng, model_dim=6, heads=3, dtype=np.float64)
    p.down_proj.data = np.zeros_like(p.down_proj.data)
    seq = rng.normal(size=(2, 5, 6))
    out = vil_block(Tensor(seq), p).data
    np.testing.assert_array_equal(out, seq)


def test_reverse_vil_block_mirrors_forward(rng):
    # xlstm_block is the forward block, then the reverse one as flip, block,
    # flip: bitwise its composition from public ops
    p = init_xlstm_params(rng, channels=6, heads=3, dtype=np.float64)
    x = Tensor(rng.normal(size=(2, 6, 3, 5)))
    np.testing.assert_array_equal(xlstm_block(x, p).data, _vil_pair(x, p).data)


def test_xlstm_block_shape_and_no_outer_residual(rng):
    p = init_xlstm_params(rng, channels=4, heads=2, dtype=np.float64)
    x = Tensor(rng.normal(size=(2, 4, 3, 5)), requires_grad=True)
    out = xlstm_block(x, p)
    assert out.shape == x.shape
    # both inner blocks carry their own residual; killing both down
    # projections and the skip path must NOT return x + x (no extra outer
    # residual is added around the pair)
    for block in (p.fwd, p.rev):
        block.down_proj.data = np.zeros_like(block.down_proj.data)
    out2 = xlstm_block(x, p).data
    # with down projections dead, each inner block is the identity over its
    # (normalized) input, so the whole becomes pre-norm(x) passed through
    # twice — i.e. pre-norm(x), not pre-norm(x) + x
    normed = layer_norm(volume_to_sequence(x), p.pre_gamma, p.pre_beta)
    want = sequence_to_volume(normed, x.shape[2:]).data
    np.testing.assert_allclose(out2, want, rtol=1e-10, atol=1e-12)
