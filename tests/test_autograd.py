"""Reverse-mode engine: graph lifecycle, gradient routing, finite differences."""

import gc
import sys
import types
import weakref

import numpy as np
import pytest

import xlunet.nnops as N
import xlunet.tensor as T
from xlunet.gradcheck import corrupted_backward, finite_diff_check, run_checks
from xlunet.tensor import ContractError, Graph, GraphError, Tensor, backward


def _leaf(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


# ---------------------------------------------------------------------------
# closed-form gradients


def test_chain_rule_product_sum():
    # d/dx sum(x * y) = y, d/dy = x
    x = _leaf([1.0, 2.0, 3.0])
    y = _leaf([4.0, 5.0, 6.0])
    with Graph() as g:
        loss = T.reduce_sum(T.mul(x, y))
    backward(loss, g)
    np.testing.assert_allclose(x.grad, [4.0, 5.0, 6.0])
    np.testing.assert_allclose(y.grad, [1.0, 2.0, 3.0])


def test_reuse_of_intermediate_accumulates():
    # f = sum(a*a + a*a) -> df/da = 4a
    a = _leaf([1.5, -2.0])
    with Graph() as g:
        sq = T.mul(a, a)
        loss = T.reduce_sum(T.add(sq, sq))
    backward(loss, g)
    np.testing.assert_allclose(a.grad, [6.0, -8.0])


def test_div_and_exp_log():
    # f = log(exp(x)/x) = x - log x -> f' = 1 - 1/x
    x = _leaf([0.5, 2.0])
    with Graph() as g:
        loss = T.reduce_sum(T.log(T.div(T.exp(x), x)))
    backward(loss, g)
    np.testing.assert_allclose(x.grad, 1.0 - 1.0 / x.data, rtol=1e-12)


def test_reduce_max_routes_to_first_argmax():
    x = _leaf([[1.0, 3.0, 3.0, 0.0]])
    with Graph() as g:
        loss = T.reduce_sum(T.reduce_max(x, axis=1))
    backward(loss, g)
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0, 0.0]])


def test_reduce_max_ties_on_a_middle_axis():
    # max over axis 1 of (2, 3, 2); tied maxima in three of the four columns
    x = _leaf(
        [
            [[1.0, 5.0], [4.0, 5.0], [4.0, 2.0]],
            [[7.0, 0.0], [7.0, 0.0], [7.0, 0.0]],
        ]
    )
    wt = Tensor(np.array([[2.0, 3.0], [5.0, 7.0]]))
    with Graph() as g:
        m = T.reduce_max(x, axis=1)
        loss = T.reduce_sum(T.mul(m, wt))
    backward(loss, g)
    np.testing.assert_array_equal(m.data, [[4.0, 5.0], [7.0, 0.0]])
    expected = np.zeros((2, 3, 2))
    expected[0, 1, 0], expected[0, 0, 1] = 2.0, 3.0
    expected[1, 0, 0], expected[1, 0, 1] = 5.0, 7.0
    np.testing.assert_array_equal(x.grad, expected)


@pytest.mark.parametrize("keepdims", [False, True])
def test_reduce_max_tie_routes_to_the_first_maximum(keepdims):
    # ties along the last axis, a signed-zero tie included: the value and
    # the cotangent both come from the first maximal element
    x = _leaf([[2.0, 5.0, 5.0, 1.0], [-0.0, 0.0, -1.0, 0.0], [3.0, 3.0, 3.0, 3.0]])
    wt = Tensor(np.array([2.0, 3.0, 5.0]).reshape((3, 1) if keepdims else (3,)))
    with Graph() as g:
        m = T.reduce_max(x, axis=1, keepdims=keepdims)
        loss = T.reduce_sum(T.mul(m, wt))
    backward(loss, g)
    assert m.shape == ((3, 1) if keepdims else (3,))
    np.testing.assert_array_equal(m.data.reshape(-1), [5.0, 0.0, 3.0])
    assert np.signbit(m.data.reshape(-1)[1])  # the -0.0 that comes first
    expected = np.zeros((3, 4))
    expected[0, 1], expected[1, 0], expected[2, 0] = 2.0, 3.0, 5.0
    np.testing.assert_array_equal(x.grad, expected)


def test_scalar_mixed_in_grad():
    x = _leaf([2.0])
    with Graph() as g:
        loss = T.reduce_sum(T.mul(x, 3.0))
    backward(loss, g)
    np.testing.assert_allclose(x.grad, [3.0])


def test_broadcast_to_sums_grad():
    x = _leaf([1.0, 2.0, 3.0])
    with Graph() as g:
        wide = T.broadcast_to(x, (4, 3))
        loss = T.reduce_sum(T.mul(wide, wide))
    backward(loss, g)
    np.testing.assert_allclose(x.grad, 8.0 * x.data)


def test_narrow_scatters_grad():
    x = _leaf([0.0, 1.0, 2.0, 3.0])
    with Graph() as g:
        loss = T.reduce_sum(T.narrow(x, 0, 1, 2))
    backward(loss, g)
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# graph lifecycle contracts


def test_backward_outside_graph_scope():
    x = _leaf([1.0])
    with Graph() as g:
        loss = T.reduce_sum(x)
    backward(loss, g)  # after exit is fine
    np.testing.assert_array_equal(x.grad, [1.0])


def test_graph_single_use():
    x = _leaf([1.0])
    with Graph() as g:
        loss = T.reduce_sum(x)
    backward(loss, g)
    with pytest.raises(GraphError, match="consumed"):
        backward(loss, g)


def test_backward_releases_the_tape():
    x = _leaf([1.0, 2.0])
    with Graph() as g:
        h = T.mul(x, x)
        loss = T.reduce_sum(T.mul(h, h))
    intermediate = weakref.ref(h.data)
    del h
    backward(loss, g)
    gc.collect()
    assert intermediate() is None
    np.testing.assert_allclose(x.grad, [4.0, 32.0])
    with pytest.raises(GraphError, match="consumed"):
        backward(loss, g)


def test_forward_releases_what_no_backward_reads():
    # h feeds only add's and exp's backwards, which read shapes and exp's
    # output: once the caller drops h, nothing keeps its array alive
    x = _leaf([0.5, -1.0, 2.0])
    with Graph() as g:
        h = T.add(x, x)
        loss = T.reduce_sum(T.exp(h))
    intermediate = weakref.ref(h.data)
    del h
    gc.collect()
    assert intermediate() is None
    backward(loss, g)
    np.testing.assert_array_equal(x.grad, 2.0 * np.exp(x.data + x.data))


def test_long_chain_with_reused_ids_routes_exactly():
    # y_{n+1} = c * y_n + x with every intermediate dropped as the loop runs,
    # so CPython hands their ids to later tensors; with c = (1, -1) the
    # gradient of sum(y_N) is exactly (N + 1, 1) for even N
    steps = 1000
    x = _leaf([3.0, 3.0])
    c = Tensor(np.array([1.0, -1.0]))
    ids = []
    with Graph() as g:
        y = x
        for _ in range(steps):
            scaled = T.mul(y, c)
            y = T.add(scaled, x)
            ids += [id(scaled), id(y)]
            del scaled
        loss = T.reduce_sum(y)
    assert len(set(ids)) < len(ids)  # the hazard is really exercised
    backward(loss, g)
    np.testing.assert_array_equal(x.grad, [steps + 1.0, 1.0])


def test_no_vjp_closes_over_a_tensor(monkeypatch):
    # a VJP that captures a Tensor pins its data (and its gradient
    # metadata) until the sweep reaches it, whether or not it reads it
    real_record = T.record
    offenders = []

    def checked_record(out, inputs, vjp):
        cells = vjp.__closure__ or ()
        if any(isinstance(cell.cell_contents, Tensor) for cell in cells):
            offenders.append(vjp.__qualname__)
        return real_record(out, inputs, vjp)

    monkeypatch.setattr(T, "record", checked_record)
    monkeypatch.setattr(N, "record", checked_record)
    results = run_checks()
    assert all(r.passed for r in results)
    assert not offenders, sorted(set(offenders))


def test_backward_requires_scalar_loss():
    x = _leaf([1.0, 2.0])
    with Graph() as g:
        y = T.mul(x, x)
    with pytest.raises(GraphError, match="scalar"):
        backward(y, g)


def test_backward_on_foreign_tensor():
    x = _leaf([1.0])
    with Graph() as g:
        _ = T.reduce_sum(x)
    other = Tensor(np.array(0.0, dtype=np.float64), requires_grad=True)
    with pytest.raises(GraphError):
        backward(other, g)


def test_input_from_another_graph_rejected():
    # y was recorded in g1: in g2 it would be a leaf whose gradient never
    # reaches x, so g2 refuses it; a leaf enters every graph
    x = _leaf([1.0, 2.0])
    with Graph():
        y = T.mul(x, 2.0)
    with Graph() as g2:
        with pytest.raises(GraphError, match="produced by another graph; use detach"):
            T.mul(y, 3.0)
        loss = T.reduce_sum(T.mul(T.add(y.detach(), x), 3.0))
    backward(loss, g2)
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])
    assert y.grad is None


def test_backward_names_a_loss_that_needs_no_grad():
    with Graph() as g:
        loss = T.reduce_sum(Tensor(np.ones(3)))
    with pytest.raises(GraphError, match="does not depend on any tensor that requires grad"):
        backward(loss, g)
    other = Tensor(np.array(0.0, dtype=np.float64), requires_grad=True)
    with pytest.raises(GraphError, match="stale graph: the loss was not computed"):
        backward(other, g)


def test_grads_accumulate_across_backward_calls():
    x = _leaf([1.0, 2.0])
    for _ in range(2):
        with Graph() as g:
            loss = T.reduce_sum(T.mul(x, x))
        backward(loss, g)
    np.testing.assert_allclose(x.grad, 4.0 * x.data)


def test_leaf_grad_from_a_broadcast_is_writeable():
    # reduce_sum's cotangent is a read-only zero-stride broadcast view
    x = _leaf([[1.0, 2.0], [3.0, 4.0]])
    with Graph() as g:
        loss = T.reduce_sum(x)
    backward(loss, g)
    x.grad *= 2.0
    np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))


def test_leaf_grads_share_no_memory():
    # add hands one cotangent array to both of its inputs
    x = _leaf([[1.0, 2.0], [3.0, 4.0]])
    y = _leaf([[5.0, 6.0], [7.0, 8.0]])
    c = Tensor(np.array([[2.0, 3.0], [4.0, 5.0]]))
    with Graph() as g:
        loss = T.reduce_sum(T.mul(T.add(x, y), c))
    backward(loss, g)
    x.grad[0, 0] = 100.0
    np.testing.assert_array_equal(y.grad, c.data)
    np.testing.assert_array_equal(x.grad, [[100.0, 3.0], [4.0, 5.0]])


def test_dead_branch_leaf_gets_zero_grad():
    x = _leaf([1.0, 2.0])
    unused = _leaf([5.0])
    with Graph() as g:
        _ = T.mul(unused, 2.0)  # recorded, but never reaches the loss
        loss = T.reduce_sum(x)
    backward(loss, g)
    np.testing.assert_array_equal(unused.grad, [0.0])


def test_no_recording_outside_graph():
    x = _leaf([1.0])
    y = T.mul(x, x)  # no active graph: plain forward value
    assert y.item() == pytest.approx(1.0)
    with Graph() as g:
        loss = T.reduce_sum(x)
    backward(loss, g)
    np.testing.assert_array_equal(x.grad, [1.0])  # y's op contributed nothing


def test_nested_graphs_rejected():
    with Graph():
        with pytest.raises(GraphError):
            with Graph():
                pass


# ---------------------------------------------------------------------------
# finite-difference harness


def test_finite_diff_check_passes_on_correct_op(rng):
    x = _leaf(rng.normal(size=(3, 3)))
    res = finite_diff_check(
        lambda: T.reduce_sum(T.mul(T.sigmoid(x), x)), [x], rng=rng, name="smoke"
    )
    assert res.passed, res.line()


def test_finite_diff_check_rejects_float32():
    x = Tensor(np.ones((2,), dtype=np.float32), requires_grad=True)
    with pytest.raises(ContractError, match="float64"):
        finite_diff_check(lambda: T.reduce_sum(x), [x], rng=np.random.default_rng(0))


def test_finite_diff_check_perturbs_a_strided_input_in_place(rng):
    # a transposed view: a flattened copy would be perturbed instead, and
    # every central difference would read 0
    x = Tensor(rng.uniform(-1, 1, (4, 3)).T, requires_grad=True)
    assert not x.data.flags.c_contiguous
    res = finite_diff_check(lambda: T.reduce_sum(T.mul(x, x)), [x], rng=rng)
    assert res.passed and res.n_checked == 6, res.line()


def test_finite_diff_check_restores_an_input_when_fn_raises(rng):
    x = _leaf(rng.uniform(-1, 1, (3, 2)))
    before = x.data.copy()
    calls = []

    def fn():
        calls.append(1)
        if len(calls) == 2:  # the first perturbed evaluation
            raise ArithmeticError("boom")
        return T.reduce_sum(T.mul(x, x))

    with pytest.raises(ArithmeticError, match="boom"):
        finite_diff_check(fn, [x], rng=rng)
    np.testing.assert_array_equal(x.data, before)


def test_finite_diff_check_rejects_a_read_only_input():
    arr = np.ones((2, 2))
    arr.flags.writeable = False
    x = Tensor(arr, requires_grad=True)
    with pytest.raises(ContractError, match=r"input\[0\] is read-only"):
        finite_diff_check(lambda: T.reduce_sum(x), [x], rng=np.random.default_rng(0))


def test_battery_reaches_every_differentiable_op(monkeypatch):
    # every op of tensor's and nnops' __all__, wrapped under each binding the
    # package holds of it, must see an input that requires grad; check names
    # must be unique, since each names its check's random stream
    ops = {
        id(fn): (name, fn)
        for mod in (T, N)
        for name in mod.__all__
        if isinstance(fn := getattr(mod, name), types.FunctionType) and name != "backward"
    }
    reached = set()

    def wrap(name, fn):
        def op(*args, **kwargs):
            flat = [a for arg in args for a in (arg if isinstance(arg, list) else [arg])]
            if any(isinstance(a, Tensor) and a.requires_grad for a in flat):
                reached.add(name)
            return fn(*args, **kwargs)

        return op

    wrappers = {key: wrap(name, fn) for key, (name, fn) in ops.items()}
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "xlunet" or mod_name.startswith("xlunet.")):
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and id(value) in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[id(value)])
    names = [r.name for r in run_checks(seed=0)]
    assert len(set(names)) == len(names), names
    assert sorted(name for name, _ in ops.values() if name not in reached) == []


def test_corrupted_backward_is_detected(rng):
    a = _leaf(rng.normal(size=(3, 4)))
    b = _leaf(rng.normal(size=(4, 2)))

    def fn():
        return T.reduce_sum(T.matmul(a, b))

    clean = finite_diff_check(fn, [a, b], rng=rng, name="clean")
    assert clean.passed
    with corrupted_backward():
        bad = finite_diff_check(fn, [a, b], rng=rng, name="bad")
    assert not bad.passed
    # and the hook resets on exit
    again = finite_diff_check(fn, [a, b], rng=rng, name="again")
    assert again.passed


def test_corrupted_backward_fails_every_conv_check():
    with corrupted_backward():
        results = run_checks(module="nnops", seed=0)
    convs = [r for r in results if r.name.startswith("conv")]
    assert {r.name for r in convs} >= {"conv2d", "conv_transpose2d"}
    assert not any(r.passed for r in convs), [r.line() for r in convs]


@pytest.mark.parametrize("seed", [25, 40])
def test_end_to_end_check_passes_on_kink_prone_seeds(seed):
    # at step 1e-5 the central difference straddled a kink on these seeds
    results = run_checks(module="network", seed=seed)
    assert all(r.passed for r in results), [r.line() for r in results]


def test_standard_checks_all_pass_fast_subset():
    results = run_checks(module="tensor", seed=1)
    assert results and all(r.passed for r in results), [r.line() for r in results]
