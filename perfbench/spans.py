"""Layer spans recorded from outside the package.

``Tracer.install()`` replaces every binding of each layer's public functions
(in every ``xlunet`` module namespace, so ``from .data import write_xten``
copies are caught too) with a wrapper that records a span: name, layer, the
unit of work it belongs to, start, end and parent.  Span durations are
summed per unit as they close; the first ``MAX_KEPT`` spans are also kept in
memory for ``write``.  A few wrappers count work at the boundary:

- ``tensor.record`` counts taped nodes and output bytes, and wraps each VJP
  so its backward time is charged to the ``vil`` or convolution span that
  was open when the node was recorded;
- the convolutions add their forward FLOPs, computed from shapes;
- ``write_xten``/``read_xten`` add bytes moved;
- ``Network.forward`` inside ``predict_volume`` counts a tile window;
- the ``scipy.ndimage`` that ``metrics`` reaches is a proxy that counts EDT
  calls and voxels;
- ``finite_diff_check`` counts evaluations of the checked function and tags
  its span with the checked module.

``uninstall()`` puts every original back.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import types
from collections import defaultdict
from time import perf_counter

# layers are the package's modules; every function in a module's __all__ is
# wrapped, plus these methods
LAYERS = ("tensor", "nnops", "vil", "network", "losses", "optim", "data", "metrics", "gradcheck", "train")
LAYER_METHODS = (("tensor", "Graph", "backward"), ("network", "Network", "forward"))
# while one of these spans is open, its key counts as open (by function
# name, or by layer for "vil")
OPEN_KEYS = {"vil": "vil", "conv_nd": "conv", "conv_transpose_nd": "conv", "predict_volume": "predict"}
MAX_KEPT = 100_000


def _conv_flop(x, w, out, transpose: bool) -> int:
    """2 x multiply-adds of one N-d convolution, from shapes.

    A convolution gathers Cin*K products into every output voxel; a
    transposed one scatters Cout*K products from every input voxel.  Both
    weights keep that factor in ``w.shape[1]``."""
    src = x.shape if transpose else out.shape
    return 2 * math.prod(src) * math.prod(w.shape[1:])


class _EdtProxy(types.ModuleType):
    """``scipy.ndimage`` with ``distance_transform_edt`` counted."""

    def __init__(self, real, tracer):
        super().__init__(real.__name__)
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def distance_transform_edt(self, mask, *args, **kwargs):
        self._tracer.count("metrics.edt_calls", 1)
        self._tracer.count("metrics.edt_vox", mask.size)
        return self._real.distance_transform_edt(mask, *args, **kwargs)


class Tracer:
    def __init__(self):
        # kept span: [id, name, layer, unit, start, end, parent span, child seconds, tag]
        self.spans: list[list] = []
        self.total_spans = 0
        self._stack: list[list] = []
        self._open = defaultdict(int)  # OPEN_KEYS value -> open depth
        self.counts = defaultdict(float)  # (unit, key) -> value, durations included
        self.calls = defaultdict(int)  # name -> calls over the whole run
        self.call_s = defaultdict(float)  # name -> seconds over the whole run
        self.unit = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def count(self, key: str, value: float) -> None:
        self.counts[(self.unit, key)] += value

    def _wrap(self, name: str, layer: str, fn, after=None):
        open_key = OPEN_KEYS.get(name.rsplit(".", 1)[-1]) or OPEN_KEYS.get(layer)
        stack, open_, counts = self._stack, self._open, self.counts

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            unit = self.unit
            kept = self.total_spans < MAX_KEPT
            rec = [self.total_spans if kept else -1, name, layer, unit, 0.0, 0.0, parent, 0.0,
                   kwargs.get("module") if name == "gradcheck.finite_diff_check" else None]
            self.total_spans += 1
            if kept:
                self.spans.append(rec)
            stack.append(rec)
            if open_key:
                open_[open_key] += 1
            start = rec[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = rec[5] = perf_counter()
                stack.pop()
                if open_key:
                    open_[open_key] -= 1
                d = end - start
                self.calls[name] += 1
                self.call_s[name] += d
                counts[(unit, "span:" + name)] += d
                counts[(unit, "self:" + name)] += d - rec[7]
                if parent is None or parent[2] != layer:
                    counts[(unit, "layer:" + layer)] += d
                if parent is not None:
                    parent[7] += d
                    if parent[1] == "train.run_training":
                        counts[(unit, "in_training")] += d
                    elif parent[1] == "network.Network.forward" and layer in ("nnops", "vil"):
                        counts[(unit, "forward_children")] += d
                if rec[8] is not None:
                    counts[(unit, "module:" + rec[8])] += d
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _record_hook(self, original):
        counts = self.counts

        def record(out, inputs, vjp):
            was = out.requires_grad
            charged = tuple(key for key in ("vil", "conv") if self._open[key])
            unit = self.unit

            def timed_vjp(g):
                t0 = perf_counter()
                result = vjp(g)
                dt = perf_counter() - t0
                for key in charged:
                    counts[(unit, key + ".bwd_s")] += dt
                return result

            res = original(out, inputs, timed_vjp)
            if res.requires_grad and not was:
                nbytes = res.data.nbytes
                counts[(unit, "tensor.tape_nodes")] += 1
                counts[(unit, "tensor.tape_bytes")] += nbytes
                for key in charged:
                    counts[(unit, key + ".tape_nodes")] += 1
                    counts[(unit, key + ".tape_bytes")] += nbytes
            return res

        record.__wrapped__ = original
        return record

    def _after_hooks(self) -> dict:
        def conv(transpose):
            return lambda args, out: self.count("conv.flop", _conv_flop(args[0], args[1], out, transpose))

        def window(args, result):
            if self._open["predict"]:
                self.count("train.tile_windows", 1)

        return {
            "conv_nd": conv(False),
            "conv_transpose_nd": conv(True),
            "write_xten": lambda args, result: self.count("data.write_bytes", getattr(args[1], "nbytes", 0)),
            "read_xten": lambda args, result: self.count("data.read_bytes", result.nbytes),
            "Network.forward": window,
        }

    def _count_fn_evals(self, finite_diff_check):
        def counted_check(fn, inputs, *args, **kwargs):
            def counted():
                self.count("gradcheck.fn_evals", 1)
                return fn()

            return finite_diff_check(counted, inputs, *args, **kwargs)

        return counted_check

    # -- install / uninstall ---------------------------------------------

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        import xlunet  # noqa: F401  (loads every layer module)

        replace: dict[int, object] = {}
        hooks = self._after_hooks()
        for layer in LAYERS:
            mod = sys.modules["xlunet." + layer]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not isinstance(fn, types.FunctionType):
                    continue
                target = self._count_fn_evals(fn) if attr == "finite_diff_check" else fn
                replace[id(fn)] = self._wrap(f"{layer}.{attr}", layer, target, hooks.get(attr))
        tensor = sys.modules["xlunet.tensor"]
        replace[id(tensor.record)] = self._record_hook(tensor.record)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "xlunet" or mod_name.startswith("xlunet.")):
                continue
            for attr, value in list(vars(mod).items()):
                new = replace.get(id(value))
                if new is not None and isinstance(value, types.FunctionType):
                    self._set(mod, attr, new)
        for layer, cls_name, meth in LAYER_METHODS:
            cls = getattr(sys.modules["xlunet." + layer], cls_name)
            name = f"{cls_name}.{meth}"
            self._set(cls, meth, self._wrap(f"{layer}.{name}", layer, getattr(cls, meth), hooks.get(name)))
        metrics = sys.modules["xlunet.metrics"]
        self._set(metrics, "ndimage", _EdtProxy(metrics.ndimage, self))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- output ----------------------------------------------------------

    def unit_count(self, unit, key: str) -> float:
        return self.counts.get((unit, key), 0.0)

    def layer_metrics(self, units, unit_seconds: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per unit of work, over the spans of ``units``.

        ``unit_seconds`` is the wall time of those units.  A layer's time is
        the duration of its spans whose parent is in another layer; self
        time is a span's duration minus its children's, except that
        ``Network.forward`` subtracts only its ``nnops`` and ``vil``
        children.  Checkpoint and restore figures are per call over the
        whole run, and ``data.generate_s`` is per ``generate_dataset`` call.
        """
        measured = set(units)
        n = max(len(measured), 1)
        c = defaultdict(float)
        for (unit, key), value in self.counts.items():
            if unit in measured:
                c[key] += value

        def ms(seconds):
            return 1000.0 * seconds / n

        def per_call_ms(name):
            calls = self.calls[name]
            return 1000.0 * self.call_s[name] / calls if calls else 0.0

        conv_s = c["span:nnops.conv_nd"] + c["span:nnops.conv_transpose_nd"]
        vil_s = c["layer:vil"] + c["vil.bwd_s"]
        runs = self.calls["train.run_training"]
        out = {
            "vil.fwd_ms": (ms(c["layer:vil"]), "ms"),
            "vil.bwd_ms": (ms(c["vil.bwd_s"]), "ms"),
            "vil.mlstm_fwd_ms": (ms(c["span:vil.mlstm_sequence"]), "ms"),
            "vil.tape_nodes": (c["vil.tape_nodes"] / n, "count"),
            "vil.tape_mb": (c["vil.tape_bytes"] / n / 1e6, "MB"),
            "vil.step_share": (vil_s / unit_seconds if unit_seconds else 0.0, "ratio"),
            "tensor.tape_nodes": (c["tensor.tape_nodes"] / n, "count"),
            "tensor.tape_mb": (c["tensor.tape_bytes"] / n / 1e6, "MB"),
            "tensor.backward_ms": (ms(c["span:tensor.Graph.backward"]), "ms"),
            "nnops.conv_fwd_ms": (ms(conv_s), "ms"),
            "nnops.conv_bwd_ms": (ms(c["conv.bwd_s"]), "ms"),
            "nnops.conv_gflop": (c["conv.flop"] / n / 1e9, "GFLOP"),
            "nnops.conv_gflops": (c["conv.flop"] / 1e9 / conv_s if conv_s else 0.0, "GFLOP/s"),
            "nnops.norm_ms": (ms(c["span:nnops.instance_norm"] + c["span:nnops.layer_norm"]), "ms"),
            "network.forward_ms": (ms(c["span:network.Network.forward"]), "ms"),
            "network.forward_self_ms": (ms(c["span:network.Network.forward"] - c["forward_children"]), "ms"),
            "losses.loss_ms": (ms(c["span:losses.dice_ce_loss"]), "ms"),
            "optim.step_ms": (ms(c["span:optim.adamw_step"]), "ms"),
            "data.sample_ms": (ms(c["span:data.sample_patch"]), "ms"),
            "data.generate_s": (per_call_ms("data.generate_dataset") / 1000.0, "s"),
            "data.write_ms": (ms(c["span:data.write_xten"]), "ms"),
            "data.write_mb": (c["data.write_bytes"] / n / 1e6, "MB"),
            "data.read_ms": (ms(c["span:data.read_xten"]), "ms"),
            "data.read_mb": (c["data.read_bytes"] / n / 1e6, "MB"),
            "train.step_self_ms": (ms(unit_seconds - c["in_training"]) if c["in_training"] else 0.0, "ms"),
            "train.ckpt_save_ms": (per_call_ms("train.save_checkpoint"), "ms"),
            "train.ckpt_saves": (self.calls["train.save_checkpoint"] / runs if runs else 0.0, "count"),
            "train.ckpt_restore_ms": (per_call_ms("train.restore_network"), "ms"),
            "train.tile_windows": (c["train.tile_windows"] / n, "count"),
            "train.stitch_ms": (ms(c["self:train.predict_volume"]), "ms"),
            "train.eval_self_ms": (ms(c["self:train.run_eval"]), "ms"),
            "metrics.dsc_ms": (ms(c["span:metrics.dice_coefficient"]), "ms"),
            "metrics.nsd_ms": (ms(c["span:metrics.surface_dice"]), "ms"),
            "metrics.hd95_ms": (ms(c["span:metrics.hausdorff95"]), "ms"),
            "metrics.f1_ms": (ms(c["span:metrics.instance_f1"]), "ms"),
            "metrics.edt_calls": (c["metrics.edt_calls"] / n, "count"),
            "metrics.edt_mvox": (c["metrics.edt_vox"] / n / 1e6, "Mvox"),
            "gradcheck.fn_evals": (c["gradcheck.fn_evals"] / n, "count"),
        }
        for module in ("tensor", "nnops", "vil", "losses", "network"):
            out[f"gradcheck.{module}_ms"] = (ms(c["module:" + module]), "ms")
        return out

    def write(self, path) -> None:
        """One JSON array per kept span: id, parent id, name, unit, start
        and end in microseconds (, checked module)."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            for sid, name, _layer, unit, start, end, parent, _child, tag in self.spans:
                row = [sid, parent[0] if parent is not None else -1, name, unit,
                       round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1)]
                if tag is not None:
                    row.append(tag)
                f.write(json.dumps(row) + "\n")
