"""The benchmark's four workloads.

Each workload makes its inputs from the seed and sets up ``SETUPS`` times
(the median set-up is reported).  It then runs rounds of operations through
the public API: one untimed warm-up round, then rounds until ``seconds``
have passed.  Every output is checked; a failed check fails the operations
it covers, each counted once, and the run goes on.

- ``train-2d-enc`` / ``train-3d-bot``: repeated ``run_training`` runs of a
  fixed, short config; an operation is one training step.
- ``infer-3d``: tiled ``predict_volume`` + ``write_xten`` and ``run_eval``
  of 96^3 cases; an operation is one predicted or one evaluated case, and
  one timed case is both.
- ``gradcheck``: full ``run_checks`` passes; an operation is one check, and
  one timed pass is all of them.

A check that guards no single operation (the restore of the latest
checkpoint, the self-score) is an operation of its own.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import xlunet

SETUPS = 5
CLASSES = 3


@dataclass
class Context:
    seed: int
    seconds: float
    work: Path
    tracer: object | None  # spans.Tracer when the run is traced

    def set_unit(self, unit) -> None:
        if self.tracer is not None:
            self.tracer.unit = unit


@dataclass
class Outcome:
    setup_s: float  # median set-up, plus any per-run set-up the workload adds
    op_ms: list[float]  # wall time of each timed operation
    units: list  # tracer unit of each timed operation
    work: float  # units of work (samples, cases, checks) in the timed operations
    work_unit: str
    attempted: int = 0
    failed_ops: set = field(default_factory=set)  # keys of the failed operations
    problems: list[str] = field(default_factory=list)
    report: dict = field(default_factory=dict)  # workload-specific figures: name -> (value, unit)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def check(self, ok: bool, what: str, ops) -> bool:
        """Fail the operations keyed by ``ops`` when ``ok`` is false; an
        operation that fails several checks counts once."""
        if not ok:
            self.failed_ops.update(ops)
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def check_alone(self, ok: bool, what: str) -> bool:
        """A check that is an operation of its own."""
        self.attempted += 1
        return self.check(ok, what, [("check", self.attempted)])


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it (the max
    when there are fewer than eleven), and its label."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return v[-1], f"max of {n}"
    return v[n - 11], f"p{math.floor(100 * (n - 10) / n)} of {n}"


def _rounds(seconds: float):
    """Round numbers: round 0 is warm-up (checked, not timed), then rounds
    start until ``seconds`` have passed since it ended."""
    yield 0
    deadline = perf_counter() + seconds
    n = 1
    while perf_counter() < deadline:
        yield n
        n += 1


def _median_setup(make) -> tuple[float, object]:
    """Run ``make(k)`` SETUPS times; median seconds and the last result."""
    times = []
    result = None
    for k in range(SETUPS):
        t0 = perf_counter()
        result = make(k)
        times.append(perf_counter() - t0)
    return statistics.median(times), result


def _labels_ok(labels: np.ndarray, shape) -> bool:
    return labels.shape == tuple(shape) and labels.min() >= 0 and labels.max() < CLASSES


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainSpec:
    dims: int
    case_size: int
    cases: int
    patch: int
    variant: str
    batch: int
    tape_nodes: int  # exact taped nodes per step (checked in the traced run)


TRAIN = {
    "train-2d-enc": TrainSpec(2, 64, 8, 64, "enc", 4, 759),
    "train-3d-bot": TrainSpec(3, 48, 6, 32, "bot", 2, 239),
}
# Each run_training call is 4 epochs of 3 steps.  Three of its timed steps
# carry an epoch-end checkpoint (the last epoch's falls after the last
# step), so one step in four is a checkpoint stall and the tail percentile,
# with ten steps beyond it, lands among them.
EPOCHS = 4
STEPS_PER_EPOCH = 3


class StepClock:
    """Step boundaries of ``run_training``, taken outside the package.

    A step ends when ``adamw_step`` returns and the next one starts there,
    so a checkpoint written between epochs stalls the step after it.  The
    first step of a run starts at its first ``sample_patch`` call.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.steps: list[tuple[int, float]] = []  # (unit, seconds)
        self.first_start = None
        self._last = None
        self._next_unit = 0
        self._undo = []

    def new_run(self) -> None:
        self.first_start = None
        self.ctx.set_unit("init")

    def end_run(self) -> None:
        self._next_unit += 1  # the final checkpoint belongs to no step
        self.ctx.set_unit("check")

    def install(self) -> None:
        train = xlunet.train
        sample, adamw = train.sample_patch, train.adamw_step

        def sample_patch(*args, **kwargs):
            if self.first_start is None:
                self.first_start = self._last = perf_counter()
                self.ctx.set_unit(self._next_unit)
            return sample(*args, **kwargs)

        def adamw_step(*args, **kwargs):
            result = adamw(*args, **kwargs)
            now = perf_counter()
            self.steps.append((self._next_unit, now - self._last))
            self._last = now
            self._next_unit += 1
            self.ctx.set_unit(self._next_unit)
            return result

        self._undo = [("sample_patch", sample), ("adamw_step", adamw)]
        train.sample_patch = sample_patch
        train.adamw_step = adamw_step

    def uninstall(self) -> None:
        for name, fn in self._undo:
            setattr(xlunet.train, name, fn)


def _train_config(spec: TrainSpec, seed: int) -> dict:
    return {
        "patch_size": [spec.patch] * spec.dims,
        "num_classes": CLASSES,
        "variant": spec.variant,
        "num_stages": 4,
        "base_channels": 8,
        "batch_size": spec.batch,
        "max_epochs": EPOCHS,
        "steps_per_epoch": STEPS_PER_EPOCH,
        "seed": seed,
    }


def _logged_losses(log_path: Path) -> list[float]:
    with open(log_path) as f:
        return [float(row["loss"]) for row in csv.DictReader(f)]


def run_train(ctx: Context, spec: TrainSpec) -> Outcome:
    def make(k):
        data = ctx.work / f"data{k}"
        xlunet.generate_dataset(data, spec.cases, CLASSES, spec.dims, spec.case_size, ctx.seed)
        cfg_path = ctx.work / f"run{k}.json"
        cfg_path.write_text(json.dumps(_train_config(spec, ctx.seed)))
        return data, xlunet.load_run_config(cfg_path)

    ctx.set_unit("setup")
    setup_s, (data, cfg) = _median_setup(make)
    out_dir = ctx.work / "train"
    per_run = EPOCHS * STEPS_PER_EPOCH
    clock = StepClock(ctx)
    clock.install()
    inits = []
    final_losses = []
    warm_steps = 0
    step_key = {}  # clock unit of a completed step -> (round, step in the run)
    o = Outcome(0.0, [], [], 0.0, "samples")
    try:
        for n in _rounds(ctx.seconds):
            if n == 1:
                warm_steps = len(clock.steps)
            clock.new_run()
            first_step = len(clock.steps)
            keys = [(n, i) for i in range(per_run)]
            o.attempted += per_run
            t0 = perf_counter()
            try:
                result = xlunet.run_training(cfg, data, out_dir)
            except Exception:
                traceback.print_exc()
                result = None
            clock.end_run()
            done = clock.steps[first_step:]
            for key, (unit, _) in zip(keys, done):
                step_key[unit] = key
            if result is None:  # a crashed run fails its remaining steps
                o.check(False, "run_training raised", keys[len(done):])
                continue
            inits.append(clock.first_start - t0)
            losses = _logged_losses(out_dir / "train_log.csv")
            bad = [k for k, v in zip(keys, losses) if not math.isfinite(v)] + keys[len(losses):]
            o.check(not bad, f"{len(bad)} logged losses missing or not finite", bad)
            final_losses.append(result.final_epoch_loss)
            o.check(
                result.final_epoch_loss == final_losses[0],
                f"final loss {result.final_epoch_loss!r} differs from the first run's"
                f" {final_losses[0]!r} (training is not deterministic)",
                keys[-STEPS_PER_EPOCH:],  # the steps the final loss averages
            )
    finally:
        clock.uninstall()

    # the latest checkpoint restores and predicts valid labels
    ctx.set_unit("check")
    try:
        net, _ = xlunet.restore_network(xlunet.load_checkpoint(out_dir / "checkpoints" / "latest"))
        info = xlunet.load_dataset(data)
        image, _ = xlunet.load_case(info, info.cases[0])
        labels = xlunet.predict_volume(net, image, tile=spec.dims == 3)
        ok = _labels_ok(labels, image.shape[1:])
    except Exception:
        traceback.print_exc()
        ok = False
    o.check_alone(ok, "the latest checkpoint does not restore and predict valid labels")

    steps = clock.steps[warm_steps:]
    if ctx.tracer is not None:
        for unit, _ in steps:
            nodes = ctx.tracer.unit_count(unit, "tensor.tape_nodes")
            o.check(nodes == spec.tape_nodes, f"step {unit}: {nodes:g} taped nodes, expected {spec.tape_nodes}",
                    [step_key[unit]])
    o.setup_s = setup_s + (statistics.median(inits) if inits else 0.0)
    o.op_ms = [s * 1000.0 for _, s in steps]
    o.units = [u for u, _ in steps]
    o.work = spec.batch * len(steps)
    if o.op_ms:
        tail_ms, label = tail(o.op_ms)
        o.report["train_step_p50_ms"] = (statistics.median(o.op_ms), "ms")
        o.report[f"train_step_tail_ms ({label})"] = (tail_ms, "ms")
        o.report["train_samples_per_s"] = (o.work / (sum(o.op_ms) / 1000.0), "samples/s")
    if final_losses:
        o.report["train_loss_final"] = (final_losses[0], "loss")
    o.report["train_runs"] = (len(final_losses), "count")
    return o


# ---------------------------------------------------------------------------
# inference and evaluation

INFER_SIZE = 96
INFER_CASES = 3
INFER_PATCH = 32
TILE_WINDOWS = 125  # ((96 - 32) / 16 + 1) ** 3 windows at half-patch stride


def _shifted(label: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A stand-in prediction: the ground truth rolled by 1-3 voxels per axis."""
    shift = tuple(int(s) * int(rng.choice([-1, 1])) for s in rng.integers(1, 4, size=label.ndim))
    return np.roll(label, shift, axis=tuple(range(label.ndim)))


def run_infer(ctx: Context) -> Outcome:
    def make(k):
        root = ctx.work / f"setup{k}"
        info = xlunet.generate_dataset(root / "data", INFER_CASES, CLASSES, 3, INFER_SIZE, ctx.seed)
        rng = np.random.default_rng(ctx.seed)
        images, evals = [], []
        for case_id in info.cases:
            image, label = xlunet.load_case(info, case_id)
            case_dir = root / "eval" / case_id
            (case_dir / "gt").mkdir(parents=True)
            (case_dir / "pred").mkdir()
            xlunet.write_xten(case_dir / "gt" / f"{case_id}.xten", label)
            xlunet.write_xten(case_dir / "pred" / f"{case_id}.xten", _shifted(label, rng))
            images.append(image)
            evals.append(case_dir)
        cfg = xlunet.RunConfig(
            patch_size=(INFER_PATCH,) * 3, num_classes=CLASSES, variant="bot", seed=ctx.seed
        )
        cfg.validate()
        seeded = xlunet.build_network(cfg.network_config())
        ckpt = root / "ckpt"
        xlunet.save_checkpoint(ckpt, seeded, xlunet.init_adamw(seeded.params), cfg, 0, 0, 0.0, {})
        net, _ = xlunet.restore_network(xlunet.load_checkpoint(ckpt))
        return net, info.cases, images, evals

    ctx.set_unit("setup")
    setup_s, (net, cases, images, evals) = _median_setup(make)
    pred_dir = ctx.work / "pred"
    pred_dir.mkdir()
    o = Outcome(setup_s, [], [], 0.0, "cases")
    digests: dict[int, str] = {}
    predict_s, eval_s = [], []
    for n in _rounds(ctx.seconds):
        i = n % len(cases)
        case_id, case_dir = cases[i], evals[i]
        ctx.set_unit(n if n else "warmup")
        o.attempted += 2
        t0 = perf_counter()
        labels = xlunet.predict_volume(net, images[i], tile=True)
        xlunet.write_xten(pred_dir / f"{case_id}.xten", labels)
        t1 = perf_counter()
        code = xlunet.run_eval(case_dir / "pred", case_dir / "gt", case_dir / "scores.jsonl")
        t2 = perf_counter()
        ctx.set_unit("check")
        o.check(_labels_ok(labels, images[i].shape[1:]), f"{case_id}: invalid predicted labels", [("predict", n)])
        digest = hashlib.sha256(labels.tobytes()).hexdigest()
        o.check(digests.setdefault(i, digest) == digest, f"{case_id}: repeated prediction differs", [("predict", n)])
        with open(case_dir / "scores.jsonl") as f:
            rows = [json.loads(line) for line in f]
        o.check(code == 0 and _scores_ok(rows, CLASSES - 1), f"{case_id}: scores out of range", [("eval", n)])
        if n:
            predict_s.append(t1 - t0)
            eval_s.append(t2 - t1)
            o.op_ms.append((t2 - t0) * 1000.0)
            o.units.append(n)

    # scoring a ground truth against itself gives 1, 1, 0, 1
    gt = xlunet.read_xten(evals[0] / "gt" / f"{cases[0]}.xten")
    scores = xlunet.evaluate_case(gt, gt, CLASSES)
    exact = all(r == {"dsc": 1.0, "nsd": 1.0, "hd95": 0.0, "f1": 1.0} for r in scores.values())
    o.check_alone(exact, f"self-score is {scores}, expected dsc=nsd=f1=1, hd95=0")
    if ctx.tracer is not None:
        for unit in o.units:
            windows = ctx.tracer.unit_count(unit, "train.tile_windows")
            o.check(windows == TILE_WINDOWS, f"case {unit}: {windows:g} windows, expected {TILE_WINDOWS}",
                    [("predict", unit)])
    o.work = len(o.op_ms)
    o.report["predict_case_s"] = (statistics.median(predict_s), "s")
    o.report["eval_case_s"] = (sum(eval_s) / len(eval_s), "s")
    return o


def _scores_ok(rows: list[dict], foreground: int) -> bool:
    """One row per case; every class has dsc/nsd/f1 in [0, 1] and hd95 >= 0 or null."""
    if len(rows) != 1 or len(rows[0]["classes"]) != foreground:
        return False
    for r in rows[0]["classes"].values():
        if not all(0.0 <= r[m] <= 1.0 for m in ("dsc", "nsd", "f1")):
            return False
        if r["hd95"] is not None and not r["hd95"] >= 0.0:
            return False
    return True


# ---------------------------------------------------------------------------
# gradient checks


def run_gradcheck(ctx: Context) -> Outcome:
    # nothing but the import precedes the first run_checks call
    o = Outcome(0.0, [], [], 0.0, "checks")
    for n in _rounds(ctx.seconds):
        ctx.set_unit(n if n else "warmup")
        t0 = perf_counter()
        results = xlunet.run_checks(seed=ctx.seed)
        elapsed = perf_counter() - t0
        ctx.set_unit("check")
        o.attempted += len(results)
        for r in results:
            o.check(r.passed, f"gradcheck {r.name} (seed {ctx.seed}): max_rel={r.max_rel:.3e} {r.worst}",
                    [(n, r.name)])
        if n:
            o.op_ms.append(elapsed * 1000.0)
            o.units.append(n)
            o.work += len(results)
    o.report["gradcheck_s"] = (statistics.median(o.op_ms) / 1000.0, "s")
    return o


WORKLOADS = {
    "train-2d-enc": lambda ctx: run_train(ctx, TRAIN["train-2d-enc"]),
    "train-3d-bot": lambda ctx: run_train(ctx, TRAIN["train-3d-bot"]),
    "infer-3d": run_infer,
    "gradcheck": run_gradcheck,
}
