"""Training, checkpointing, prediction and case evaluation.

A run is described by a ``RunConfig`` (JSON on disk, read by the same strict
reader as ``dataset.json`` and checkpoint manifests: unknown keys, wrong
types, list elements of the wrong type and NaN/infinity are errors naming
the field).  Training is
deterministic end to end for a fixed config: the parameter init, the patch
sampling and the mirror augmentation each draw from their own stream of the
run seed (the keys are listed in ``tensor._rng_stream``'s docstring), every
checkpoint stores the exact generator states, and resuming reproduces the
uninterrupted run bit for bit.
The train log's wall-clock column is the one deliberately nondeterministic
artifact.

A checkpoint directory holds ``manifest.json`` (sorted keys, no timestamps:
config, counters, RNG states, the ``[name, shape]`` layout, the state file's
name and SHA-256) and ``state-<first 16 hex of the SHA-256>.xten``, one
float32 (3, N) tensor whose rows are the parameters, ``exp_avg`` and
``exp_avg_sq``, each concatenated in ``net.params`` order.  The digest is of
the payload (little-endian values, row-major).  A save writes, fsyncs and
renames the state into place, then the manifest, and only then deletes older
state files, so a crash mid-save leaves the previous checkpoint whole; a
restore checks layout, shape and digest first, and a malformed manifest is a
``ContractError`` naming the file and the key.  ``latest/`` is written every
epoch and ``best/`` tracks the lowest epoch-mean training loss; an epoch that
writes both builds and hashes its state once.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import time
import typing
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .data import (
    _centre_pads,
    _check_fields,
    _read_json_object,
    load_case,
    load_dataset,
    read_xten,
    sample_patch,
    write_xten,
)
from .losses import LossConfig, dice_ce_loss
from .metrics import (
    METRIC_NAMES,
    check_label_map,
    dice_coefficient,
    evaluate_case,
    write_aggregate_csv,
    write_case_jsonl,
)
from .network import Network, NetworkConfig, build_network, count_parameters
from .optim import AdamWConfig, AdamWState, adamw_step, init_adamw, lr_schedule
from .tensor import ContractError, Graph, NumericsError, Tensor, _rng_stream

__all__ = [
    "RunConfig",
    "TrainResult",
    "load_run_config",
    "run_training",
    "save_checkpoint",
    "load_checkpoint",
    "restore_network",
    "predict_volume",
    "run_eval",
]

_CKPT_FORMAT = "xlunet-checkpoint-v2"


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig(NetworkConfig):
    """A training run: the network's keys (``NetworkConfig``'s) and these."""

    batch_size: int = 4
    max_epochs: int = 100
    steps_per_epoch: int = 10
    learning_rate: float = 0.005
    schedule: str = "poly"
    weight_decay: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    force_foreground_prob: float = 0.5
    augment_mirror: bool = False
    include_background_dice: bool = False
    class_weights: tuple[float, ...] | None = None
    early_stop_dice: float | None = None
    early_stop_interval: int = 10

    def __post_init__(self):
        super().__post_init__()
        if self.class_weights is not None:
            self.class_weights = tuple(float(w) for w in self.class_weights)

    def validate(self) -> None:
        super().validate()
        if not 0 < self.learning_rate < np.inf:  # NaN fails too
            raise ContractError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        self.adamw_config().validate()
        for name in ("batch_size", "max_epochs", "steps_per_epoch", "early_stop_interval"):
            if getattr(self, name) < 1:
                raise ContractError(f"RunConfig.{name} must be >= 1, got {getattr(self, name)}")
        if self.schedule not in ("poly", "const"):
            raise ContractError(f"RunConfig.schedule must be 'poly' or 'const', got {self.schedule!r}")
        if not 0.0 <= self.force_foreground_prob <= 1.0:
            raise ContractError(
                f"RunConfig.force_foreground_prob must be in [0, 1], got {self.force_foreground_prob}"
            )
        if self.early_stop_dice is not None and not 0.0 < self.early_stop_dice <= 1.0:
            raise ContractError(
                f"RunConfig.early_stop_dice must be in (0, 1], got {self.early_stop_dice}"
            )
        self.loss_config().validate(self.num_classes)

    def network_config(self) -> NetworkConfig:
        return NetworkConfig(**{f.name: getattr(self, f.name) for f in fields(NetworkConfig)})

    def adamw_config(self) -> AdamWConfig:
        return AdamWConfig(
            weight_decay=self.weight_decay,
            beta1=self.beta1,
            beta2=self.beta2,
            eps=self.adam_eps,
        )

    def loss_config(self) -> LossConfig:
        return LossConfig(
            include_background=self.include_background_dice,
            class_weights=self.class_weights,
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["patch_size"] = list(self.patch_size)
        if self.class_weights is not None:
            d["class_weights"] = list(self.class_weights)
        return d


def run_config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ContractError(f"run config must be a JSON object, got {type(raw).__name__}")
    optional = [f.name for f in fields(RunConfig) if f.default is not MISSING]
    _check_fields(raw, typing.get_type_hints(RunConfig), "run config", optional)
    cfg = RunConfig(**raw)
    cfg.validate()
    return cfg


def load_run_config(path) -> RunConfig:
    raw = _read_json_object(path)
    try:
        return run_config_from_dict(raw)
    except ContractError as e:
        raise ContractError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# checkpoints


def _state_digest(state: np.ndarray) -> str:
    return hashlib.sha256(state.astype("<f4", copy=False)).hexdigest()


def _replace_synced(tmp: Path, final: Path) -> None:
    """fsync ``tmp``, then atomically rename it to ``final``."""
    with open(tmp, "rb") as f:
        os.fsync(f.fileno())
    os.replace(tmp, final)


_LOG_HEADER = "step,epoch,lr,loss,seconds\n"


def _keep_logged_steps(log_path: Path, global_step: int) -> None:
    """Start every run's log: cut ``log_path`` back to its header and the
    rows of steps up to ``global_step``, the resumed checkpoint's (0 for a
    fresh run, which never reads the old file): an interrupted epoch's rows,
    and a torn last row (no newline), go.  A missing log starts afresh."""
    old = log_path.read_text() if global_step and log_path.exists() else ""
    rows = old.splitlines(keepends=True)[1:]

    def held(row: str) -> bool:
        step = row.split(",", 1)[0]
        return row.endswith("\n") and step.isdigit() and int(step) <= global_step

    tmp = log_path.with_name(log_path.name + ".tmp")
    tmp.write_text(_LOG_HEADER + "".join(filter(held, rows)))
    _replace_synced(tmp, log_path)


# (state, digest) of every open ``_one_state`` block, keyed by the ids of its
# (net, opt_state), which stay alive while the block is open
_EPOCH_STATE: dict[tuple[int, int], tuple[np.ndarray, str]] = {}


def _checkpoint_state(net: Network, opt_state: AdamWState) -> tuple[np.ndarray, str]:
    """The float32 (3, N) state of ``net`` and ``opt_state`` and its digest."""
    held = _EPOCH_STATE.get((id(net), id(opt_state)))
    if held is not None:
        return held
    state = np.empty((3, count_parameters(net)), dtype=np.float32)
    for row, arrays in zip(state, ({n: p.data for n, p in net.params.items()},
                                   opt_state.exp_avg, opt_state.exp_avg_sq)):
        np.concatenate([arrays[name].ravel() for name in net.params], out=row)
    return state, _state_digest(state)


@contextmanager
def _one_state(net: Network, opt_state: AdamWState):
    """Build and hash the state once; every save inside the block writes it."""
    key = (id(net), id(opt_state))
    _EPOCH_STATE[key] = _checkpoint_state(net, opt_state)
    try:
        yield
    finally:
        del _EPOCH_STATE[key]


class _Manifest(typing.TypedDict):
    """The keys of ``manifest.json`` and their JSON types."""

    format: str
    config: dict
    epochs_completed: int
    global_step: int
    best_loss: float
    rng: dict
    step_count: int
    layout: list
    state: str
    sha256: str


def save_checkpoint(
    ckpt_dir,
    net: Network,
    opt_state: AdamWState,
    cfg: RunConfig,
    epochs_completed: int,
    global_step: int,
    best_loss: float,
    rng_states: dict,
) -> None:
    ckpt_dir = Path(ckpt_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    state, digest = _checkpoint_state(net, opt_state)
    state_name = f"state-{digest[:16]}.xten"
    manifest: _Manifest = {
        "format": _CKPT_FORMAT,
        "config": cfg.to_dict(),
        "epochs_completed": epochs_completed,
        "global_step": global_step,
        "best_loss": best_loss,
        "rng": rng_states,
        "step_count": opt_state.step_count,
        "layout": [[name, list(p.shape)] for name, p in net.params.items()],
        "state": state_name,
        "sha256": digest,
    }
    # a NaN or infinity, which the reader rejects, fails here before any write
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
    write_xten(ckpt_dir / "state.xten.tmp", state)
    _replace_synced(ckpt_dir / "state.xten.tmp", ckpt_dir / state_name)
    (ckpt_dir / "manifest.json.tmp").write_text(text)
    _replace_synced(ckpt_dir / "manifest.json.tmp", ckpt_dir / "manifest.json")
    for old in ckpt_dir.glob("state-*.xten"):
        if old.name != state_name:
            old.unlink()


def load_checkpoint(ckpt_dir) -> dict:
    """Read and check ``ckpt_dir/manifest.json``; every malformed manifest
    is a ``ContractError`` that names the file and the key."""
    ckpt_dir = Path(ckpt_dir)
    manifest_path = ckpt_dir / "manifest.json"
    if not manifest_path.exists():
        raise ContractError(f"{ckpt_dir}: no manifest.json — not a checkpoint directory")
    manifest = _read_json_object(manifest_path)
    if manifest.get("format") != _CKPT_FORMAT:
        raise ContractError(
            f"{ckpt_dir}: unsupported checkpoint format {manifest.get('format')!r}"
        )
    _check_fields(manifest, typing.get_type_hints(_Manifest), str(manifest_path))
    digest = manifest["sha256"]
    if len(digest) != 64 or any(c not in "0123456789abcdef" for c in digest):
        raise ContractError(f"{manifest_path}: key 'sha256' is not a SHA-256 hex digest")
    if manifest["state"] != f"state-{digest[:16]}.xten":
        raise ContractError(f"{manifest_path}: key 'state' does not name the state file of 'sha256'")
    manifest["_dir"] = ckpt_dir
    return manifest


def restore_network(manifest: dict) -> tuple[Network, RunConfig]:
    """Rebuild the network described by a checkpoint and load its weights."""
    net, cfg, _ = _restore(manifest)
    return net, cfg


def _restore(manifest: dict) -> tuple[Network, RunConfig, AdamWState]:
    """Rebuild the network and its optimizer state from the checkpoint's
    state file, after checking it against the manifest."""
    cfg = run_config_from_dict(manifest["config"])
    net = build_network(cfg.network_config())
    if manifest["layout"] != [[name, list(p.shape)] for name, p in net.params.items()]:
        raise ContractError("checkpoint parameters do not match the configured network")
    path = manifest["_dir"] / manifest["state"]
    if not path.is_file():
        raise ContractError(f"{path}: the manifest's state file is missing")
    state = read_xten(path)
    expected = (3, count_parameters(net))
    if state.dtype != np.float32 or state.shape != expected:
        raise ContractError(
            f"{path}: state is {state.dtype} {state.shape}, expected float32 {expected}"
        )
    if _state_digest(state) != manifest["sha256"]:
        raise ContractError(f"{path}: SHA-256 does not match the manifest; the file is corrupt")
    opt_state = AdamWState(step_count=int(manifest["step_count"]))
    offsets = np.cumsum([p.size for p in net.params.values()])[:-1]
    for (name, p), chunk in zip(net.params.items(), np.split(state, offsets, axis=1)):
        values, avg, avg_sq = chunk.reshape((3,) + p.shape)
        p.data = values.copy()
        opt_state.exp_avg[name] = avg.copy()
        opt_state.exp_avg_sq[name] = avg_sq.copy()
    return net, cfg, opt_state


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    epochs_completed: int
    global_step: int
    final_epoch_loss: float
    best_loss: float
    stopped_early: bool
    out_dir: Path


def _mirror(image: np.ndarray, label: np.ndarray, rng: np.random.Generator):
    for axis in range(label.ndim):
        if rng.random() < 0.5:
            image = np.flip(image, axis=axis + 1)
            label = np.flip(label, axis=axis)
    return image.copy(), label.copy()


def _mean_foreground_dice(net: Network, cases, num_classes: int) -> float:
    """Mean foreground Dice over ``cases``, each predicted whole where the
    network takes it whole and tiled elsewhere."""
    scores = []
    for image, label in cases:
        pred = predict_volume(net, image, tile=not net.config._fits(image.shape[1:]))
        for cls in range(1, num_classes):
            scores.append(dice_coefficient(pred == cls, label == cls))
    return float(np.mean(scores))


def run_training(
    cfg: RunConfig,
    data_dir,
    out_dir,
    resume_from=None,
    log=None,
) -> TrainResult:
    """Train per ``cfg`` on the dataset at ``data_dir``; artifacts go to
    ``out_dir`` (train_log.csv, checkpoints/latest, checkpoints/best)."""
    cfg.validate()
    info = load_dataset(data_dir)
    if info.classes != cfg.num_classes:
        raise ContractError(
            f"dataset has {info.classes} classes but config says {cfg.num_classes}"
        )
    if info.in_channels != cfg.in_channels:
        raise ContractError(
            f"dataset has {info.in_channels} channels but config says {cfg.in_channels}"
        )
    if info.dims != len(cfg.patch_size):
        raise ContractError(
            f"dataset is {info.dims}-d but patch_size {cfg.patch_size} is {len(cfg.patch_size)}-d"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = [load_case(info, case_id) for case_id in info.cases]

    sampling_rng = _rng_stream(cfg.seed, 1)
    augment_rng = _rng_stream(cfg.seed, 2)
    opt_cfg = cfg.adamw_config()
    loss_cfg = cfg.loss_config()

    log_path = out_dir / "train_log.csv"
    if resume_from is not None:
        manifest = load_checkpoint(resume_from)
        net, stored_cfg, opt_state = _restore(manifest)
        if stored_cfg != cfg:
            raise ContractError(
                "resume: run config does not match the checkpoint's"
                " (omit --config or pass the identical file)"
            )
        try:
            sampling_rng.bit_generator.state = manifest["rng"]["sampling"]
            augment_rng.bit_generator.state = manifest["rng"]["augment"]
        except (KeyError, TypeError, ValueError) as e:
            raise ContractError(
                f"{resume_from}: manifest key 'rng' does not hold the generator states ({e!r})"
            ) from e
        start_epoch = int(manifest["epochs_completed"])
        global_step = int(manifest["global_step"])
        best_loss = float(manifest["best_loss"])
    else:
        net = build_network(cfg.network_config())
        opt_state = init_adamw(net.params)
        start_epoch = 0
        global_step = 0
        best_loss = float("inf")

    epoch_loss = float("nan")
    _keep_logged_steps(log_path, global_step)
    with open(log_path, "a") as log_file:
        for epoch in range(start_epoch, cfg.max_epochs):
            lr = lr_schedule(epoch, cfg.learning_rate, cfg.max_epochs, cfg.schedule)
            losses = []
            for _ in range(cfg.steps_per_epoch):
                t0 = time.perf_counter()
                images = []
                labels = []
                for _ in range(cfg.batch_size):
                    case_idx = int(sampling_rng.integers(len(cases)))
                    image, label = cases[case_idx]
                    patch_img, patch_lab = sample_patch(
                        image, label, cfg.patch_size, sampling_rng, cfg.force_foreground_prob
                    )
                    if cfg.augment_mirror:
                        patch_img, patch_lab = _mirror(patch_img, patch_lab, augment_rng)
                    images.append(patch_img)
                    labels.append(patch_lab)
                batch = Tensor(np.stack(images).astype(np.float32, copy=False))
                target = np.stack(labels)
                try:
                    with Graph() as graph:
                        probs = net.forward(batch)
                        loss = dice_ce_loss(probs, target, loss_cfg)
                    graph.backward(loss)
                    loss_value = float(loss.item())
                    adamw_step(net.params, opt_state, opt_cfg, lr=lr)
                except NumericsError as e:
                    raise RuntimeError(
                        f"training aborted at step {global_step + 1}: {e}"
                    ) from e
                net.zero_grad()
                global_step += 1
                losses.append(loss_value)
                seconds = time.perf_counter() - t0
                log_file.write(
                    f"{global_step},{epoch},{lr:.8g},{loss_value:.8g},{seconds:.4f}\n"
                )
            log_file.flush()
            epoch_loss = float(np.mean(losses))
            rng_states = {
                "sampling": sampling_rng.bit_generator.state,
                "augment": augment_rng.bit_generator.state,
            }
            with _one_state(net, opt_state):
                # best/ first: a crash before latest/ redoes this epoch, which rewrites best/
                if epoch_loss < best_loss:
                    best_loss = epoch_loss
                    save_checkpoint(
                        out_dir / "checkpoints" / "best",
                        net, opt_state, cfg, epoch + 1, global_step, best_loss, rng_states,
                    )
                save_checkpoint(
                    out_dir / "checkpoints" / "latest",
                    net, opt_state, cfg, epoch + 1, global_step, best_loss, rng_states,
                )
            if log is not None:
                log(f"epoch {epoch + 1}/{cfg.max_epochs}: lr={lr:.3g} loss={epoch_loss:.4f}")
            if (
                cfg.early_stop_dice is not None
                and (epoch + 1) % cfg.early_stop_interval == 0
            ):
                score = _mean_foreground_dice(net, cases, cfg.num_classes)
                if log is not None:
                    log(f"epoch {epoch + 1}: train foreground dice {score:.4f}")
                if score >= cfg.early_stop_dice:
                    return TrainResult(
                        epoch + 1, global_step, epoch_loss, best_loss, True, out_dir
                    )
    return TrainResult(
        max(start_epoch, cfg.max_epochs), global_step, epoch_loss, best_loss, False, out_dir
    )


# ---------------------------------------------------------------------------
# prediction


def _tiled_probs(net: Network, image: np.ndarray) -> np.ndarray:
    """Sliding-window class probabilities with half-patch stride and
    mean-probability stitching; windows clamp to the volume edge."""
    patch = net.config.patch_size
    sp = image.shape[1:]
    pairs = _centre_pads(sp, patch)
    if any(map(any, pairs)):
        image = np.pad(image, [(0, 0)] + pairs)
    padded_sp = image.shape[1:]

    starts_per_axis = []
    for n, p in zip(padded_sp, patch):
        stride = max(1, p // 2)
        starts = list(range(0, n - p + 1, stride))
        if starts[-1] != n - p:
            starts.append(n - p)
        starts_per_axis.append(starts)

    k = net.config.num_classes
    acc = np.zeros((k,) + padded_sp, dtype=np.float64)
    count = np.zeros(padded_sp, dtype=np.float64)
    for corner in itertools.product(*starts_per_axis):
        sl = tuple(slice(c, c + p) for c, p in zip(corner, patch))
        window = image[(slice(None),) + sl][None]
        probs = net.forward(Tensor(window)).data[0]
        acc[(slice(None),) + sl] += probs
        count[sl] += 1.0
    probs = acc / count
    core = tuple(slice(b, b + n) for (b, _), n in zip(pairs, sp))
    return probs[(slice(None),) + core]


def predict_volume(net: Network, image: np.ndarray, tile: bool = False) -> np.ndarray:
    """Segment one (C, *spatial) volume into int32 labels.

    Without ``tile`` the volume goes through the network whole, which needs
    every spatial dim to be a multiple of the network's downsampling factor;
    with ``tile`` a half-patch-stride sliding window averages probabilities.
    """
    image = np.asarray(image, dtype=np.float32)
    rank = len(net.config.patch_size)
    if image.ndim != rank + 1 or image.shape[0] != net.config.in_channels:
        raise ContractError(
            f"predict_volume: expected ({net.config.in_channels}, *spatial[{rank}]),"
            f" got {image.shape}"
        )
    if tile:
        probs = _tiled_probs(net, image)
    else:
        if not net.config._fits(image.shape[1:]):
            raise ContractError(
                f"predict_volume: spatial dims {image.shape[1:]} are not multiples of"
                f" {net.config._divisor}; use tile=True (--tile) for arbitrary volumes"
            )
        probs = net.forward(Tensor(image[None])).data[0]
    return np.argmax(probs, axis=0).astype(np.int32)


# ---------------------------------------------------------------------------
# evaluation over prediction/label directories


def run_eval(
    pred_dir,
    gt_dir,
    out_path,
    metrics=METRIC_NAMES,
    tolerance: float = 1.0,
    iou_threshold: float = 0.5,
) -> int:
    """Score every ``<case>.xten`` in ``gt_dir`` against ``pred_dir``.

    Writes per-case JSON lines to ``out_path`` and the aggregate CSV next to
    it (suffix swapped to .csv).  Missing predictions are reported to stderr
    and excluded; their presence makes the exit code 1.  A label file that is
    not integer, holds a negative label or differs in shape from its pair is
    a ``ContractError`` naming the file.
    """
    pred_dir = Path(pred_dir)
    gt_dir = Path(gt_dir)
    out_path = Path(out_path)
    gt_files = sorted(gt_dir.glob("*.xten"))
    if not gt_files:
        raise ContractError(f"{gt_dir}: no .xten label files found")
    pairs = {}
    missing = []
    for gt_file in gt_files:
        pred_file = pred_dir / gt_file.name
        if not pred_file.exists():
            missing.append(gt_file.stem)
            continue
        pred = check_label_map(read_xten(pred_file), str(pred_file))
        gt = check_label_map(read_xten(gt_file), str(gt_file))
        if pred.shape != gt.shape:
            raise ContractError(f"{pred_file}: shape {pred.shape} differs from {gt_file}'s {gt.shape}")
        pairs[gt_file.stem] = (pred, gt)
    if not pairs:
        raise ContractError(f"{pred_dir}: no predictions matched the label files")
    num_classes = 0
    for pred, gt in pairs.values():
        num_classes = max(num_classes, int(pred.max(initial=0)) + 1, int(gt.max(initial=0)) + 1)
    num_classes = max(num_classes, 2)
    results = {
        case_id: evaluate_case(pred, gt, num_classes, metrics, tolerance, iou_threshold)
        for case_id, (pred, gt) in pairs.items()
    }
    write_case_jsonl(out_path, results)
    csv_path = out_path.with_suffix(".csv")
    if csv_path == out_path:
        csv_path = out_path.with_name(out_path.name + ".csv")
    write_aggregate_csv(csv_path, results, metrics)
    if missing:
        print(
            f"warning: {len(missing)} case(s) had no prediction and were excluded:"
            f" {', '.join(missing)}",
            file=sys.stderr,
        )
        return 1
    return 0
