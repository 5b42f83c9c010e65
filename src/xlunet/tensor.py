"""numpy-backed dense tensors with tape-based reverse-mode autodiff.

Everything downstream (conv kernels, sequence blocks, the U-Net, the loss)
is built from the ops in this module plus the fused kernels in nnops.py, so
the contract here is deliberately strict:

- dtypes: float32 (training), float64 (gradient checking), int32 / uint8
  (labels, masks).  Gradients only exist for float tensors.
- binary elementwise ops require equal shapes, or one side to be a scalar
  (python number or 0-d tensor).  Any other broadcast must be spelled out
  with ``broadcast_to`` so the backward of every op mirrors its forward
  exactly; implicit numpy broadcasting is rejected on purpose.
- ops are module functions, called as ``T.op(...)`` (``T.add(a, b)``,
  ``T.matmul(a, w)``); ``Tensor`` has no operator overloads, so each op has
  one spelling.
- operands: every op names itself when it refuses one.  Each operand is a
  ``Tensor``; all are float and of one dtype, except in the ops that only
  move elements (``reshape``, ``permute``, ``reshape_permute``, ``flip``),
  which take any dtype.
- ops record onto the innermost active ``Graph`` only when some input
  requires grad.  With no active graph they are plain numpy (inference).
  An input that another graph produced is a ``GraphError``; a leaf (a
  parameter, a checked input) enters any graph.
- the tape keeps no ``Tensor`` and no array of its own.  A node is the
  output's token, one token per input (``None`` for an input that does not
  require grad) and the VJP closure; a token is a plain object that the
  recorded tensor carries and the graph keeps alive, so, unlike ``id()``, it
  cannot be reused while the graph lives.  Each VJP captures only the arrays
  its backward reads, plus shapes, dtypes and flags, never a ``Tensor``.  An
  intermediate therefore lives only while a closure or the caller
  references it: one that no backward reads is freed during the forward.
- layout: ops that only move axes (``permute``, ``reshape_permute``,
  ``flip``) return C-contiguous arrays, never strided views.  Elementwise
  ops keep their inputs' memory order, so a view whose innermost axis is
  not the data's would make every later op over the same shape run
  strided, including the (B, H, L, L) arrays of the sequence kernel.
- allocator: importing this module sets glibc's ``M_MMAP_THRESHOLD`` to its
  32 MiB maximum and ``M_TRIM_THRESHOLD`` to 1 GiB, where the C library
  exports ``mallopt`` (elsewhere it does nothing).  This holds for the whole
  process, not only for arrays made here.  Without it, glibc hands the top
  of the heap back to the OS when a backward frees the tape, and the next
  forward page-faults every freed page back in.  Both thresholds must be
  set: fixing only the trim threshold also freezes the mmap threshold at
  128 KiB, and every array above that is then mmapped afresh.
- subnormals: ``Graph.backward`` runs its sweep, and ``vil.mlstm_sequence``
  its quadratic form, inside ``_flush_subnormals``, which sets the calling
  thread's flush-to-zero and denormals-are-zero bits (MXCSR bits 15 and 6)
  and on exit puts back just those two bits as they were, also when an
  exception leaves it.  Values below the dtype's smallest normal (1.18e-38
  in float32) then become, and read as, 0; on x86 every BLAS call and
  ``exp`` that meets one takes a slow path.  The mode is scoped, never left
  set: process-wide it would break Hypothesis (which refuses to draw floats
  then) and IEEE behaviour for the caller's own code.  It acts on the
  calling thread only; BLAS worker threads keep their own mode.  An
  import-time probe checks that a float32 op flushes under the mode and
  stops flushing after it; where it fails, or off x86-64 glibc Linux, the
  context does nothing.

Per-op cost: on the short sequences of the deep stages and the tiny shapes
of the gradient checks, an op's arithmetic takes a microsecond or two and
its fixed cost is the rest: the operand checks, numpy's dispatch, wrapping
the result in a ``Tensor`` and the ``record`` call.  Every contract check
stays, run once per op.  Bookkeeping must not re-validate what the op
already checked: a ``Tensor`` takes an op's ndarray as it is, and ``record``
returns at once when no graph is active.  Numpy's Python-level helpers
(``broadcast_to``, ``argsort``, ``pad``, ``mean``) are replaced by C-level
calls that give the same bits.

Finiteness policy: ops do not sweep their outputs with ``isfinite`` (the
attention-style sequence kernel legitimately feeds ``-inf`` log-weights into
``exp`` to encode causal masking, and exact zeros come out; inside the
subnormal flush, results below the smallest normal come out as exact zeros
too, and a subnormal input reads as zero).  Instead,
training is guarded by named checks at three points where a NaN would
otherwise pass silently: the network output (``Network.forward``), the loss
(``dice_ce_loss``) and every gradient (``adamw_step``).  ``log`` rejects
non-positive inputs.  The sequence kernel checks nothing itself: a gate
that leaves the finite range surfaces at the network output check.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
import sys

import numpy as np

__all__ = [
    "ContractError",
    "GraphError",
    "NumericsError",
    "Tensor",
    "Graph",
    "add",
    "sub",
    "mul",
    "div",
    "exp",
    "log",
    "sigmoid",
    "silu",
    "leaky_relu",
    "absolute",
    "max_with_scalar",
    "matmul",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "cumsum",
    "reshape",
    "permute",
    "reshape_permute",
    "broadcast_to",
    "flip",
    "concat",
    "narrow",
    "split",
]

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> bool:
    """Make glibc's malloc keep freed memory in the process (see above).

    Returns whether both thresholds were set: False where the C library has
    no ``mallopt`` or rejects a value.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the mmap threshold first: its maximum is 32 MiB on 64-bit glibc
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20)) and bool(
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    )


_HEAP_KEPT = _keep_freed_heap()


class _Fenv(ctypes.Structure):
    # x86-64 glibc's 32-byte fenv_t: the x87 environment, then MXCSR
    _fields_ = (("x87", ctypes.c_uint8 * 28), ("mxcsr", ctypes.c_uint32))


_FTZ_DAZ = (1 << 15) | (1 << 6)  # MXCSR's flush-to-zero and denormals-are-zero


def _fenv_calls():
    """glibc's ``(fegetenv, fesetenv)`` on x86-64 Linux; None elsewhere."""
    if sys.platform != "linux" or os.uname().machine != "x86_64":
        return None
    try:
        libc = ctypes.CDLL(None)
        calls = (libc.fegetenv, libc.fesetenv)
    except (AttributeError, OSError, TypeError):
        return None
    for f in calls:
        f.argtypes = (ctypes.POINTER(_Fenv),)
        f.restype = ctypes.c_int
    return calls


_FENV_CALLS = _fenv_calls()


def _swap_flush_bits(bits: int) -> int:
    """Set the calling thread's FTZ and DAZ bits to ``bits``; return the old ones.

    Every other MXCSR bit (status flags, exception masks, rounding) is
    written back as it was read.
    """
    get, put = _FENV_CALLS
    env = _Fenv()  # one buffer per call: MXCSR is per thread
    get(env)
    old = env.mxcsr & _FTZ_DAZ
    env.mxcsr = env.mxcsr & ~_FTZ_DAZ | bits
    put(env)
    return old


def _probe_flush() -> bool:
    """Whether setting the bits makes a float32 op flush its subnormal result,
    and clearing them again brings it back."""
    if _FENV_CALLS is None:
        return False
    tiny = np.full(4, np.finfo(np.float32).tiny, np.float32)
    half = np.float32(0.5)
    old = _swap_flush_bits(_FTZ_DAZ)
    try:
        flushed = tiny * half
    finally:
        _swap_flush_bits(old)
    return not flushed.any() and bool((tiny * half).all())


_FLUSHES_SUBNORMALS = _probe_flush()


class _flush_subnormals:
    """Context: the calling thread flushes subnormal floats to zero (module docstring).

    On exit only the FTZ and DAZ bits are put back as they were on entry.
    Does nothing where the import-time probe failed.
    """

    __slots__ = ("_old",)

    def __enter__(self):
        self._old = _swap_flush_bits(_FTZ_DAZ) if _FLUSHES_SUBNORMALS else None
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._old is not None:
            _swap_flush_bits(self._old)
        return False


_LEAKY_SLOPE = 0.01  # leaky_relu's slope below zero

_FLOAT_DTYPES = frozenset((np.dtype(np.float32), np.dtype(np.float64)))
_SUPPORTED_DTYPES = _FLOAT_DTYPES | {np.dtype(np.int32), np.dtype(np.uint8)}


class ContractError(ValueError):
    """An operation was called with arguments that violate its contract."""


class GraphError(RuntimeError):
    """The autodiff tape was misused (double backward, stale loss, ...)."""


class NumericsError(ArithmeticError):
    """A value that must stay finite became NaN/Inf (named check sites only)."""


class Tensor:
    """A dense ndarray plus autodiff metadata.

    ``data`` is the raw ndarray (shared, never copied defensively), ``grad``
    is ``None`` until a backward pass deposits an ndarray of the same shape.
    Python floats/ints passed as ``data`` default to float32/int32.
    """

    __slots__ = ("data", "requires_grad", "grad", "_token")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if type(data) is np.ndarray and dtype is None:
            arr = data  # what every op hands over: np.asarray would return it
        else:
            if isinstance(data, Tensor):
                raise ContractError("Tensor(data): wrap raw arrays, not another Tensor")
            arr = np.asarray(data, dtype=dtype)
            if dtype is None and not isinstance(data, (np.ndarray, np.generic)):
                # python scalars / lists arrive as float64 / int64; keep the
                # package's working precision instead.  numpy arrays *and*
                # numpy scalars carry an explicit dtype and keep it.
                if arr.dtype == np.float64:
                    arr = arr.astype(np.float32)
                elif arr.dtype == np.int64:
                    arr = arr.astype(np.int32)
        if arr.dtype not in _SUPPORTED_DTYPES:
            raise ContractError(
                f"unsupported dtype {arr.dtype}; supported: float32, float64, int32, uint8"
            )
        if requires_grad and arr.dtype not in _FLOAT_DTYPES:
            raise ContractError(f"requires_grad needs a float tensor, got {arr.dtype}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        # this tensor's key on a tape: set when an op records it as an
        # output, or when it first enters a graph as a leaf
        self._token: object | None = None

    # -- introspection -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return self.data.reshape(()).item()

    def detach(self) -> "Tensor":
        """Same storage, severed from any graph."""
        return Tensor(self.data)

    def __repr__(self) -> str:
        flags = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flags})"


# ---------------------------------------------------------------------------
# tape


class _Leaf:
    """A leaf's tape token, which any graph takes; an op output's token is a
    plain ``object``, which only the graph that produced it takes."""

    __slots__ = ()


class Graph:
    """Records differentiable ops, in execution order, for one reverse sweep.

    Use as a context manager around a forward pass::

        with Graph() as g:
            loss = model(x)
        g.backward(loss)

    A graph is single-use: ``backward`` consumes it.  Ops executed while no
    graph is active are not recorded at all.

    The tape holds tokens and VJP closures only.  Each node is ``(out token,
    input tokens, vjp)``, an input token being ``None`` when that input does
    not require grad; an intermediate array stays alive only while a VJP
    closure or the caller references it.  Leaves (requires-grad tensors that
    entered the graph without being produced by it) are kept in ``_leaves``,
    keyed by ``id``, to receive their gradients.  An input that another
    graph produced is a ``GraphError``.
    """

    def __init__(self):
        self._nodes: list[tuple[object, tuple[object | None, ...], object]] = []
        self._produced: set[object] = set()
        self._leaves: dict[int, Tensor] = {}
        self._consumed = False

    def __enter__(self) -> "Graph":
        if _GRAPH_STACK:
            raise GraphError(
                "graphs do not nest: finish the active recording before opening another"
            )
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _GRAPH_STACK.remove(self)
        return False

    def _input_token(self, t: Tensor) -> object | None:
        if not t.requires_grad:
            return None
        token = t._token
        if token is None:
            token = t._token = _Leaf()
        elif token in self._produced:
            return token
        elif type(token) is not _Leaf:
            raise GraphError(
                "an op's input was produced by another graph; use detach() to"
                " take its value as a constant"
            )
        self._leaves.setdefault(id(t), t)
        return token

    def _add_node(self, out: Tensor, inputs: tuple[Tensor, ...], vjp) -> None:
        tokens = tuple(self._input_token(t) for t in inputs)
        token = out._token = object()
        self._produced.add(token)
        self._nodes.append((token, tokens, vjp))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into ``leaf.grad`` for every leaf.

        Leaves are the requires-grad tensors that entered the graph without
        being produced by it (parameters, checked inputs).  Leaves the loss
        does not depend on receive zero gradients, not ``None``.  Each
        leaf's gradient is writeable and shares no memory with another's.
        Gradients are keyed by token.  The sweep drops each node as it
        passes it, so the VJP closures, and the arrays only they reference,
        are freed by the time ``backward`` returns.
        """
        if self._consumed:
            raise GraphError("this graph was already consumed by backward(); record a fresh forward pass")
        if not isinstance(loss, Tensor):
            raise ContractError("backward: loss must be a Tensor")
        if loss.size != 1:
            raise GraphError(f"backward: loss must be scalar, got shape {loss.shape}")
        if not loss.requires_grad:
            raise GraphError(
                "backward: the loss does not depend on any tensor that requires grad"
                " (or was computed while no graph was recording)"
            )
        if loss._token not in self._produced:
            raise GraphError(
                "stale graph: the loss was not computed while this graph was recording"
            )
        self._consumed = True
        grads: dict[object, np.ndarray] = {loss._token: np.ones_like(loss.data)}
        nodes = self._nodes
        with _flush_subnormals():
            while nodes:
                out, inputs, vjp = nodes.pop()
                gout = grads.pop(out, None)
                if gout is None:
                    continue
                gins = vjp(gout)
                for token, gin in zip(inputs, gins):
                    if gin is None or token is None:
                        continue
                    acc = grads.get(token)
                    grads[token] = gin if acc is None else acc + gin
        held = set()  # ids of the buffers that leaf gradients already hold
        for leaf in self._leaves.values():
            g = grads.get(leaf._token)
            if g is None:
                g = np.zeros_like(leaf.data)
            else:
                g = np.asarray(g, dtype=leaf.data.dtype).reshape(leaf.shape)
            if leaf.grad is not None:
                leaf.grad = leaf.grad + g
                continue
            # a broadcast cotangent is a read-only view, and one VJP may hand
            # the same array to several inputs: copy only those
            owner = id(g if g.base is None else g.base)
            if not g.flags.writeable or owner in held:
                g = g.copy()
            else:
                held.add(owner)
            leaf.grad = g


_GRAPH_STACK: list[Graph] = []


def record(out: Tensor, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    """Attach ``out = op(inputs)`` to the active graph, if grads are wanted.

    ``vjp(gout)`` must return one cotangent per input (``None`` for inputs
    that are not differentiable arguments or do not require grad).  It should
    close over the arrays its backward reads, not over tensors: whatever it
    captures lives until the sweep passes its node.
    """
    if not _GRAPH_STACK:
        return out
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            _GRAPH_STACK[-1]._add_node(out, inputs, vjp)
            return out
    return out


# ---------------------------------------------------------------------------
# helpers


def _rng_stream(seed: int, key: int) -> np.random.Generator:
    """The generator of stream ``key`` under ``seed``: streams with different
    keys are independent.  The keys in use:

    - 0: parameter init (``Network``);
    - 1: patch sampling and 2: mirror augmentation (``run_training``);
    - the case index: each synthetic case of ``generate_dataset``;
    - ``zlib.crc32(name)``: each check of ``run_checks``, under its own seed.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def _require_tensor(t, op: str) -> None:
    """The operand rule's first half, all that the ops which only move
    elements ask: the operand is a ``Tensor`` (of any dtype)."""
    if not isinstance(t, Tensor):
        raise ContractError(f"{op}: operands must be Tensors, got {type(t).__name__}")


def _require_float(t, op: str) -> None:
    """The operand rule for one operand: a float ``Tensor``."""
    if not isinstance(t, Tensor) or t.data.dtype not in _FLOAT_DTYPES:
        _require_tensor(t, op)
        raise ContractError(f"{op}: requires a float tensor, got {t.data.dtype}")


def _check_operands(op: str, tensors) -> None:
    """The contract of an op over a sequence of tensor operands: each one is a
    ``Tensor``, each is float, and all share one dtype."""
    first = None
    for t in tensors:
        if not isinstance(t, Tensor):
            _require_tensor(t, op)
        dtype = t.data.dtype
        if dtype is first:
            continue
        _require_float(t, op)
        if first is None:
            first = dtype
        elif dtype != first:
            raise ContractError(f"{op}: mixed dtypes {first} vs {dtype}")


def _as_tensor(x, dtype, op: str) -> Tensor:
    """Coerce a python number (or 0-d array) into a constant Tensor."""
    arr = np.asarray(x)
    if arr.ndim != 0:
        raise ContractError(f"{op}: expected a Tensor or scalar, got array of shape {arr.shape}")
    return Tensor(arr.astype(dtype))


def _coerce_pair(a, b, op: str) -> tuple[Tensor, Tensor]:
    """Promote python scalars, enforce the equal-or-scalar shape rule."""
    if not isinstance(b, Tensor):
        if not isinstance(a, Tensor):
            raise ContractError(f"{op}: at least one operand must be a Tensor")
        b = _as_tensor(b, a.data.dtype, op)
    elif not isinstance(a, Tensor):
        a = _as_tensor(a, b.data.dtype, op)
    _check_operands(op, (a, b))
    sa, sb = a.data.shape, b.data.shape
    if sa != sb and sa and sb:
        raise ContractError(
            f"{op}: shapes {sa} and {sb} are neither equal nor scalar;"
            " use broadcast_to for explicit broadcasting"
        )
    return a, b


def _mean(a: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``a.mean(axis=axes, keepdims=True)``, bit for bit, without numpy's
    Python-level ``mean``: the same sum, divided in place by the same
    ``intp`` count."""
    s = np.add.reduce(a, axes, None, None, True)
    s /= np.intp(math.prod([a.shape[i] for i in axes]))
    return s


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (adjoint of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _norm_axes(axis, ndim: int, op: str) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        if -ndim <= axis < ndim:
            return (axis % ndim,)
        axis = (axis,)
    axes = tuple(a % ndim if -ndim <= a < ndim else a for a in axis)
    for a in axes:
        if not 0 <= a < ndim:
            raise ContractError(f"{op}: axis {a} out of range for ndim {ndim}")
    if len(set(axes)) != len(axes):
        raise ContractError(f"{op}: repeated axis in {axis}")
    return axes


def _norm_axis(axis, ndim: int, op: str) -> int:
    """The one axis of a single-axis op, in [0, ndim)."""
    if not isinstance(axis, int):
        raise ContractError(f"{op}: axis must be one int, got {axis!r}")
    if not -ndim <= axis < ndim:
        raise ContractError(f"{op}: axis {axis} out of range for ndim {ndim}")
    return axis % ndim


# ---------------------------------------------------------------------------
# elementwise binary


def add(a, b) -> Tensor:
    a, b = _coerce_pair(a, b, "add")
    out = Tensor(a.data + b.data)
    sa, sb = a.data.shape, b.data.shape
    a_grad, b_grad = a.requires_grad, b.requires_grad

    def vjp(g):
        ga = _reduce_to(g, sa) if a_grad else None
        gb = _reduce_to(g, sb) if b_grad else None
        return ga, gb

    return record(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _coerce_pair(a, b, "sub")
    out = Tensor(a.data - b.data)
    sa, sb = a.data.shape, b.data.shape
    a_grad, b_grad = a.requires_grad, b.requires_grad

    def vjp(g):
        ga = _reduce_to(g, sa) if a_grad else None
        gb = _reduce_to(-g, sb) if b_grad else None
        return ga, gb

    return record(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _coerce_pair(a, b, "mul")
    out = Tensor(a.data * b.data)
    sa, sb = a.data.shape, b.data.shape
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def vjp(g):
        ga = None if bd is None else _reduce_to(g * bd, sa)
        gb = None if ad is None else _reduce_to(g * ad, sb)
        return ga, gb

    return record(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = _coerce_pair(a, b, "div")
    out = Tensor(a.data / b.data)
    sa, sb, a_grad = a.data.shape, b.data.shape, a.requires_grad
    ad = a.data if b.requires_grad else None
    bd = b.data

    def vjp(g):
        ga = _reduce_to(g / bd, sa) if a_grad else None
        gb = None if ad is None else _reduce_to(-g * ad / (bd * bd), sb)
        return ga, gb

    return record(out, (a, b), vjp)


# ---------------------------------------------------------------------------
# elementwise unary


def exp(x: Tensor) -> Tensor:
    _require_float(x, "exp")
    y = np.exp(x.data)
    out = Tensor(y)
    return record(out, (x,), lambda g: (g * y,))


def log(x: Tensor) -> Tensor:
    _require_float(x, "log")
    if np.any(x.data <= 0):
        raise NumericsError("log: inputs must be strictly positive")
    xd = x.data
    out = Tensor(np.log(xd))
    return record(out, (x,), lambda g: (g / xd,))


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) in place, in numpy, so that training, prediction and
    # the gradient checks load no scipy module (metrics.py imports
    # scipy.ndimage when a metric first needs it).  Below -88.7 (float32) or
    # -709.8 (float64) exp overflows to inf, and 1 / inf is the exact 0 the
    # sigmoid saturates to, so that one overflow is expected and silenced;
    # large x gives exp -> 0 and exactly 1.  Outputs that would be subnormal
    # come out as 0 or with fewer significant bits.
    y = np.negative(x, out=np.empty_like(x))  # an array even when x is 0-d
    with np.errstate(over="ignore"):
        np.exp(y, out=y)
    y += 1.0
    return np.reciprocal(y, out=y)


def sigmoid(x: Tensor) -> Tensor:
    _require_float(x, "sigmoid")
    y = _stable_sigmoid(x.data)
    out = Tensor(y)
    return record(out, (x,), lambda g: (g * y * (1.0 - y),))


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    _require_float(x, "silu")
    xd = x.data
    s = _stable_sigmoid(xd)
    out = Tensor(xd * s)
    return record(out, (x,), lambda g: (g * s * (1.0 + xd * (1.0 - s)),))


def leaky_relu(x: Tensor) -> Tensor:
    """x where x > 0, else ``_LEAKY_SLOPE`` * x (0.01); subgradient 0.01 at 0."""
    _require_float(x, "leaky_relu")
    pos = x.data > 0
    out = Tensor(np.where(pos, x.data, _LEAKY_SLOPE * x.data))
    dtype = x.data.dtype

    def vjp(g):
        return (g * np.where(pos, np.asarray(1.0, dtype), np.asarray(_LEAKY_SLOPE, dtype)),)

    return record(out, (x,), vjp)


def absolute(x: Tensor) -> Tensor:
    """|x|; subgradient 0 at x == 0."""
    _require_float(x, "absolute")
    xd = x.data
    out = Tensor(np.abs(xd))
    return record(out, (x,), lambda g: (g * np.sign(xd),))


def max_with_scalar(x: Tensor, floor: float) -> Tensor:
    """Elementwise max(x, floor); gradient passes where x >= floor."""
    _require_float(x, "max_with_scalar")
    floor = float(floor)
    keep = x.data >= floor
    out = Tensor(np.where(keep, x.data, np.asarray(floor, x.data.dtype)))
    return record(out, (x,), lambda g: (g * keep,))


# ---------------------------------------------------------------------------
# matmul


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product, numpy semantics for leading batch dims.

    Both operands must have ndim >= 2; trailing two axes contract as
    ``(..., m, k) @ (..., k, n)``.  Leading axes broadcast (the usual case is
    a stack of row vectors times an unbatched weight matrix); the backward
    sums the cotangent back down to each operand's shape.
    """
    _check_operands("matmul", (a, b))
    sa, sb = a.data.shape, b.data.shape
    if len(sa) < 2 or len(sb) < 2:
        raise ContractError(f"matmul: operands need ndim >= 2, got {sa} @ {sb}")
    if sa[-1] != sb[-2]:
        raise ContractError(f"matmul: inner dimensions differ: {sa} @ {sb}")
    # a 2-d operand has no batch dims, so only two batched operands can clash
    if len(sa) > 2 and len(sb) > 2:
        for m, n in zip(sa[-3::-1], sb[-3::-1]):
            if m != n and m != 1 and n != 1:
                raise ContractError(f"matmul: batch dims incompatible: {sa} @ {sb}")
    out = Tensor(np.matmul(a.data, b.data))
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def vjp(g):
        ga = None if bd is None else _reduce_to(np.matmul(g, np.swapaxes(bd, -1, -2)), sa)
        if ad is None:
            gb = None
        elif len(sb) == 2 and ad.ndim > 2 and ad.flags.c_contiguous:
            # a 2-d weight: one GEMM over the flattened leading axes instead of
            # a batch of small ones summed afterwards
            gb = ad.reshape(-1, sb[0]).T @ g.reshape(-1, sb[1])
        else:
            gb = _reduce_to(np.matmul(np.swapaxes(ad, -1, -2), g), sb)
        return ga, gb

    return record(out, (a, b), vjp)


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    _require_float(x, "reduce_sum")
    shape = x.data.shape
    axes = _norm_axes(axis, len(shape), "reduce_sum")
    out = Tensor(x.data.sum(axis=axes, keepdims=keepdims))

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape),)

    return record(out, (x,), vjp)


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    _require_float(x, "reduce_mean")
    shape = x.data.shape
    axes = _norm_axes(axis, len(shape), "reduce_mean")
    count = math.prod([shape[a] for a in axes])
    y = _mean(x.data, axes)
    out = Tensor(y if keepdims else y.reshape([n for a, n in enumerate(shape) if a not in axes]))

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape) / count,)

    return record(out, (x,), vjp)


def reduce_max(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis; gradient routes to the first maximal element."""
    _require_float(x, "reduce_max")
    xd = x.data
    ax = _norm_axis(axis, xd.ndim, "reduce_max")
    idx = xd.argmax(ax, keepdims=True)
    # the value gathered at idx, not np.max's: np.max is a second full pass
    # (0.8 ms against this gather's 0.06 ms for the (4, 4, 256, 256) float32
    # logits of an enc training step, one x86-64 core), and its zero maximum
    # may have the other sign than the first maximal element
    m = np.take_along_axis(xd, idx, axis=ax)
    out = Tensor(m if keepdims else m.squeeze(ax))
    shape, dtype = xd.shape, xd.dtype

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, ax)
        gx = np.zeros(shape, dtype=dtype)
        np.put_along_axis(gx, idx, g, axis=ax)
        return (gx,)

    return record(out, (x,), vjp)


def cumsum(x: Tensor, axis: int) -> Tensor:
    _require_float(x, "cumsum")
    ax = _norm_axis(axis, x.ndim, "cumsum")
    out = Tensor(x.data.cumsum(ax))

    def vjp(g):
        rev = np.flip(g, axis=ax)
        return (np.flip(np.cumsum(rev, axis=ax), axis=ax),)

    return record(out, (x,), vjp)


# ---------------------------------------------------------------------------
# shape ops


def _inverse_permutation(axes: tuple, shape: tuple[int, ...], op: str) -> tuple[int, ...]:
    """The permutation that undoes ``axes``, which must permute the axes of
    ``shape``."""
    if sorted(axes) != list(range(len(shape))):
        raise ContractError(f"{op}: {axes} is not a permutation of axes for shape {shape}")
    inv = [0] * len(axes)
    for i, a in enumerate(axes):
        inv[a] = i
    return tuple(inv)


def _readonly_view(a: np.ndarray, shape, strides) -> np.ndarray:
    """A read-only view of the C-contiguous ``a``, from its first element,
    with the given shape and strides: ``as_strided(a, shape, strides,
    writeable=False)`` without numpy's Python layer, and checked to stay
    inside ``a``."""
    y = np.ndarray(shape, a.dtype, a, 0, strides)
    y.flags.writeable = False
    return y


def _broadcast_view(a: np.ndarray, shape: tuple) -> np.ndarray | None:
    """``np.broadcast_to(a, shape)`` for a C-contiguous, non-empty ``a``: the
    same read-only view with the same strides (0 on every new or size-1
    axis), built without numpy's Python layer.  None where ``shape`` does
    not take ``a`` by numpy's rules or is not plainly positive."""
    extra = len(shape) - a.ndim
    if extra < 0 or not a.size:
        return None
    for m in shape[:extra]:
        if m < 1:
            return None
    strides = [0] * extra
    for n, m, st in zip(a.shape, shape[extra:], a.strides):
        if n == m:
            strides.append(0 if n == 1 else st)
        elif n == 1 and m > 0:
            strides.append(0)
        else:
            return None
    return _readonly_view(a, shape, strides)


def reshape(x: Tensor, shape) -> Tensor:
    _require_tensor(x, "reshape")
    shape = tuple(shape)
    xd = x.data
    try:
        y = xd.reshape(shape)
    except ValueError as e:
        raise ContractError(f"reshape: cannot view shape {xd.shape} as {shape}") from e
    out, in_shape = Tensor(y), xd.shape
    return record(out, (x,), lambda g: (g.reshape(in_shape),))


def permute(x: Tensor, axes) -> Tensor:
    _require_tensor(x, "permute")
    axes = tuple(axes)
    xd = x.data
    inv = _inverse_permutation(axes, xd.shape, "permute")
    # a copy, not a strided view: see the layout rule in the module docstring
    out = Tensor(np.ascontiguousarray(xd.transpose(axes)))
    return record(out, (x,), lambda g: (g.transpose(inv),))


def reshape_permute(x: Tensor, new_shape, axis_order) -> Tensor:
    """Permute axes by ``axis_order`` then reshape to ``new_shape`` (one node).

    The result is C-contiguous, even where numpy could reshape the permuted
    view without copying it.
    """
    _require_tensor(x, "reshape_permute")
    axis_order = tuple(axis_order)
    new_shape = tuple(new_shape)
    inv = _inverse_permutation(axis_order, x.data.shape, "reshape_permute")
    permuted = x.data.transpose(axis_order)
    try:
        y = permuted.reshape(new_shape)
    except ValueError as e:
        raise ContractError(
            f"reshape_permute: cannot view permuted shape {permuted.shape} as {new_shape}"
        ) from e
    mid_shape = permuted.shape
    out = Tensor(np.ascontiguousarray(y))
    return record(out, (x,), lambda g: (g.reshape(mid_shape).transpose(inv),))


def broadcast_to(x: Tensor, shape) -> Tensor:
    """Explicit numpy-rules broadcast; backward sums over the expanded axes."""
    _require_float(x, "broadcast_to")
    shape = tuple(shape)
    xd = x.data
    y = _broadcast_view(xd, shape) if xd.flags.c_contiguous else None
    if y is None:
        try:
            y = np.broadcast_to(xd, shape)
        except ValueError as e:
            raise ContractError(f"broadcast_to: cannot broadcast {xd.shape} to {shape}") from e
    out, in_shape = Tensor(y), xd.shape
    return record(out, (x,), lambda g: (_reduce_to(g, in_shape),))


def flip(x: Tensor, axes) -> Tensor:
    # contiguous copies, not negative-stride views (the layout rule in the
    # module docstring), and for a second reason: downstream BLAS calls
    # must see the same memory layout whether the caller flipped the data
    # itself or went through this op, so that both routes are bit-identical
    _require_tensor(x, "flip")
    ndim = x.data.ndim
    axes = _norm_axes(axes, ndim, "flip")
    rev = tuple(slice(None, None, -1) if i in axes else slice(None) for i in range(ndim))
    out = Tensor(np.ascontiguousarray(x.data[rev]))
    return record(out, (x,), lambda g: (np.ascontiguousarray(g[rev]),))


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat: need at least one tensor")
    _check_operands("concat", tensors)
    ax = _norm_axis(axis, tensors[0].data.ndim, "concat")
    ref = tensors[0].data.shape
    for t in tensors[1:]:
        shape = t.data.shape
        if len(shape) != len(ref) or any(
            i != ax and shape[i] != ref[i] for i in range(len(ref))
        ):
            raise ContractError(f"concat: shapes {[t.shape for t in tensors]} differ off axis {ax}")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=ax))
    bounds = list(itertools.accumulate([t.data.shape[ax] for t in tensors[:-1]]))

    def vjp(g):
        return tuple(np.split(g, bounds, axis=ax))

    return record(out, tuple(tensors), vjp)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice ``x[..., start:start+length, ...]`` along ``axis``."""
    _require_float(x, "narrow")
    shape, dtype = x.data.shape, x.data.dtype
    ax = _norm_axis(axis, len(shape), "narrow")
    if not (0 <= start and length >= 1 and start + length <= shape[ax]):
        raise ContractError(
            f"narrow: [{start}, {start + length}) out of bounds for axis {ax} of shape {shape}"
        )
    sl = (slice(None),) * ax + (slice(start, start + length),)
    out = Tensor(x.data[sl].copy())

    def vjp(g):
        gx = np.zeros(shape, dtype)
        gx[sl] = g
        return (gx,)

    return record(out, (x,), vjp)


def split(x: Tensor, sections: int, axis: int) -> list[Tensor]:
    """Split into ``sections`` equal parts along ``axis``."""
    _require_float(x, "split")
    ax = _norm_axis(axis, x.ndim, "split")
    n = x.shape[ax]
    if type(sections) is not int or sections <= 0 or n % sections != 0:
        raise ContractError(f"split: {n} does not divide into {sections!r} equal parts")
    size = n // sections
    return [narrow(x, ax, i * size, size) for i in range(sections)]
