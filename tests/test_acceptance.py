"""Acceptance gate: one test per shipping criterion, one verdict line each
under ``pytest -v``.

Every tolerance here is pinned; a failure means the package does not meet its
contract.  The overfit runs (criterion 3) are the slowest part at roughly a
minute combined; everything else is seconds.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from xlunet.cli import main
from xlunet.data import (
    XtenBadDtype,
    XtenBadMagic,
    XtenBadVersion,
    XtenTruncated,
    generate_dataset,
    read_xten,
    write_xten,
)
from xlunet.gradcheck import corrupted_backward, run_checks
from xlunet.metrics import dice_coefficient, hausdorff95, instance_f1, surface_dice
from xlunet.network import NetworkConfig, build_network, count_parameters
from xlunet.tensor import Tensor
from xlunet.train import (
    RunConfig,
    load_checkpoint,
    restore_network,
    run_training,
)
from xlunet.vil import MlstmParams, mlstm_sequence

from oracles import (
    dice_bf,
    hausdorff95_bf,
    instance_f1_bf,
    mlstm_loop,
    surface_dice_bf,
)


# ---------------------------------------------------------------------------
# criterion 1 — benchmark-scale results are out of scope; the property suite
# below is the designated substitute


def test_criterion_1_property_suite_substitutes_for_benchmark_tables():
    """Full-scale benchmark training (multi-GPU, days) cannot run here, so no
    literature-scale score table is reproduced.  The accepted substitute is
    this file: exact gradients (2), real learning on synthetic data (3),
    shape/probability contracts (4), metric correctness against brute force
    (5), sequence-cell equivalences (6), variant structure (7), bit
    determinism (8) and stable serialization (9).  This test pins the
    substitution: all eight must exist."""
    here = globals()
    missing = [
        n
        for n in range(2, 10)
        if not any(name.startswith(f"test_criterion_{n}") for name in here)
    ]
    assert not missing, f"substitute criteria missing: {missing}"


# ---------------------------------------------------------------------------
# criterion 2 — gradient checks


def test_criterion_2_gradcheck_battery_passes_within_budget():
    """Every finite-difference check passes (per-op rel tol 1e-5, end-to-end
    net 1e-4) in under 5 minutes, and the deliberately corrupted backward
    pass is caught."""
    t0 = time.time()
    results = run_checks(seed=0)
    elapsed = time.time() - t0
    failures = [r.line() for r in results if not r.passed]
    assert not failures, failures
    assert any(r.name == "end_to_end_tiny_net" for r in results)
    assert elapsed < 300.0, f"gradcheck battery took {elapsed:.0f}s"
    with corrupted_backward():
        corrupted = run_checks(module="tensor", seed=0)
    assert any(not r.passed for r in corrupted), "corrupted backward went undetected"


# ---------------------------------------------------------------------------
# criterion 3 — the network actually learns (overfit 8 synthetic cases)


@pytest.fixture(scope="module")
def overfit_dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("overfit")
    generate_dataset(d, num_cases=8, classes=3, dims=2, size=(64, 64), seed=7)
    return d


def _overfit(variant, target, data_dir, out_dir):
    cfg = RunConfig(
        patch_size=(64, 64),
        num_classes=3,
        num_stages=4,
        base_channels=8,
        variant=variant,
        heads=4,
        batch_size=4,
        max_epochs=300,
        steps_per_epoch=10,
        learning_rate=0.005,
        seed=7,
        early_stop_dice=target,
        early_stop_interval=10,
    )
    t0 = time.time()
    res = run_training(cfg, data_dir, out_dir)
    elapsed = time.time() - t0
    # measure the final train-set foreground dice with the shipped weights
    from xlunet.train import _mean_foreground_dice
    from xlunet.data import load_case, load_dataset

    net, _ = restore_network(load_checkpoint(Path(out_dir) / "checkpoints" / "latest"))
    info = load_dataset(data_dir)
    score = _mean_foreground_dice(net, [load_case(info, c) for c in info.cases], 3)
    return score, elapsed, res


def test_criterion_3_overfit_enc_variant_dice_95(overfit_dataset, tmp_path):
    """enc variant reaches mean foreground train DSC >= 0.95 on 8 synthetic
    64x64 cases within 300x10 steps and 30 CPU-minutes."""
    score, elapsed, _ = _overfit("enc", 0.95, overfit_dataset, tmp_path / "enc")
    assert elapsed < 1800.0, f"enc overfit took {elapsed:.0f}s"
    assert score >= 0.95, f"enc train foreground DSC {score:.4f} < 0.95"


def test_criterion_3_overfit_bot_variant_dice_90(overfit_dataset, tmp_path):
    """bot variant reaches mean foreground train DSC >= 0.90 under the same
    budget."""
    score, elapsed, _ = _overfit("bot", 0.90, overfit_dataset, tmp_path / "bot")
    assert elapsed < 1800.0, f"bot overfit took {elapsed:.0f}s"
    assert score >= 0.90, f"bot train foreground DSC {score:.4f} < 0.90"


# ---------------------------------------------------------------------------
# criterion 4 — forward contract on a 3-d volume


def test_criterion_4_forward_shape_and_probability_contract():
    """(1,1,16,32,32) in, (1,2,16,32,32) out, channel sums within 1e-6 of 1."""
    cfg = NetworkConfig(
        in_channels=1,
        num_classes=2,
        patch_size=(16, 32, 32),
        num_stages=2,
        base_channels=8,
        variant="enc",
        heads=4,
        seed=0,
    )
    net = build_network(cfg)
    x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 16, 32, 32)).astype(np.float32))
    out = net.forward(x)
    assert out.shape == (1, 2, 16, 32, 32)
    dev = np.abs(out.data.sum(axis=1) - 1.0).max()
    assert dev <= 1e-6, f"channel sums off by {dev:.2e}"
    assert (out.data >= 0.0).all()


# ---------------------------------------------------------------------------
# criterion 5 — metrics vs brute force on random 16^3 masks


def test_criterion_5_metrics_match_bruteforce_on_50_random_pairs():
    """50 random 16^3 mask pairs: DSC/NSD/F1 within 1e-9 of the brute-force
    oracle, HD95 within 1e-6 (both None on empty masks)."""
    rng = np.random.default_rng(55)
    checked = 0
    for trial in range(50):
        density = rng.uniform(0.02, 0.5)
        pred = rng.random((16, 16, 16)) < density
        gt = rng.random((16, 16, 16)) < rng.uniform(0.02, 0.5)
        if trial == 0:
            pred[:] = False
        if trial == 1:
            pred[:] = False
            gt[:] = False
        tol = float(rng.choice([1.0, 1.5, 2.0]))
        assert abs(dice_coefficient(pred, gt) - dice_bf(pred, gt)) <= 1e-9
        assert abs(surface_dice(pred, gt, tol) - surface_dice_bf(pred, gt, tol)) <= 1e-9
        assert abs(instance_f1(pred, gt) - instance_f1_bf(pred, gt)) <= 1e-9
        h, hb = hausdorff95(pred, gt), hausdorff95_bf(pred, gt)
        if hb is None:
            assert h is None
        else:
            assert abs(h - hb) <= 1e-6
        checked += 1
    assert checked == 50


# ---------------------------------------------------------------------------
# criterion 6 — sequence cell equivalences


def test_criterion_6_mlstm_parallel_serial_duality_and_stability():
    """On (2,16,8) float64: the parallel form == the independent per-step
    scan within 1e-6; causality is bitwise; +-50 gate biases stay finite."""
    rng = np.random.default_rng(6)
    p = MlstmParams(rng, 8, 2, np.float64)
    seq = rng.normal(size=(2, 16, 8))

    def serial(params):
        return mlstm_loop(seq, *(t.data for _, t in params.tensors()), heads=params.heads)

    par = mlstm_sequence(Tensor(seq), p).data
    assert np.abs(par - serial(p)).max() <= 1e-6

    # causality: perturbing the tail leaves the head bit-identical
    seq2 = seq.copy()
    seq2[:, 9:, :] += 7.0
    par2 = mlstm_sequence(Tensor(seq2), p).data
    assert np.array_equal(par[:, :9], par2[:, :9])

    for shift in (50.0, -50.0):
        ps = MlstmParams(np.random.default_rng(7), 8, 2, np.float64)
        ps.forget_gate_b.data = ps.forget_gate_b.data + shift
        ps.input_gate_b.data = ps.input_gate_b.data - shift
        out = mlstm_sequence(Tensor(seq), ps).data
        assert np.isfinite(out).all(), f"non-finite output at gate shift {shift}"
        np.testing.assert_allclose(out, serial(ps), atol=1e-6)


# ---------------------------------------------------------------------------
# criterion 7 — variant structure


def test_criterion_7_variant_sites_and_capacity():
    """bot places exactly 1 sequence block, enc places num_stages+1, and enc
    has strictly more parameters."""
    common = dict(
        in_channels=1, num_classes=2, patch_size=(64, 64),
        num_stages=4, base_channels=8, heads=4, seed=0,
    )
    bot = build_network(NetworkConfig(variant="bot", **common))
    enc = build_network(NetworkConfig(variant="enc", **common))

    def sites(net):  # the layer tree's sequence blocks, in layout order
        return [name for name, layer in vars(net).items() if getattr(layer, "xlstm", None)]

    assert sites(bot) == ["bottleneck"]
    assert sites(enc) == ["enc0", "enc1", "enc2", "enc3", "bottleneck"]
    assert count_parameters(enc) > count_parameters(bot)


# ---------------------------------------------------------------------------
# criterion 8 — whole-pipeline determinism


def _run_pipeline(root: Path) -> None:
    data = root / "data"
    assert main(["gen-data", "--out", str(data), "--cases", "3", "--classes", "3",
                 "--dims", "2", "--size", "32", "--seed", "21"]) == 0
    cfg = {
        "patch_size": [32, 32], "num_classes": 3, "num_stages": 2,
        "base_channels": 4, "variant": "bot", "heads": 2, "batch_size": 2,
        "max_epochs": 2, "steps_per_epoch": 3, "seed": 13,
    }
    (root / "run.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(root / "run.json"),
                 "--data", str(data), "--out", str(root / "run")]) == 0
    assert main(["predict", "--ckpt", str(root / "run" / "checkpoints" / "latest"),
                 "--input", str(data / "images"), "--out", str(root / "pred")]) == 0
    assert main(["eval", "--pred", str(root / "pred"), "--gt", str(data / "labels"),
                 "--out", str(root / "report.jsonl")]) == 0


def test_criterion_8_pipeline_runs_twice_byte_identical(tmp_path):
    """gen-data -> train -> predict -> eval, run twice from clean state,
    produces byte-identical artifacts (train_log.csv excluded: its wall-clock
    column is the one sanctioned nondeterminism)."""
    a, b = tmp_path / "a", tmp_path / "b"
    _run_pipeline(a)
    _run_pipeline(b)
    files_a = sorted(
        p.relative_to(a) for p in a.rglob("*") if p.is_file() and p.name != "train_log.csv"
    )
    files_b = sorted(
        p.relative_to(b) for p in b.rglob("*") if p.is_file() and p.name != "train_log.csv"
    )
    assert files_a == files_b
    assert files_a, "pipeline produced no artifacts"
    diffs = [str(rel) for rel in files_a if (a / rel).read_bytes() != (b / rel).read_bytes()]
    assert not diffs, f"artifacts differ between runs: {diffs}"
    # the log exists and its loss column matches even though timings differ
    la = [line.split(",")[:4] for line in (a / "run" / "train_log.csv").read_text().splitlines()]
    lb = [line.split(",")[:4] for line in (b / "run" / "train_log.csv").read_text().splitlines()]
    assert la == lb


# ---------------------------------------------------------------------------
# criterion 9 — tensor file format


def test_criterion_9_xten_roundtrip_and_error_taxonomy(tmp_path):
    """Bitwise roundtrip for float32/int32/uint8 at ranks 1..5; malformed
    headers raise the distinct documented exceptions."""
    rng = np.random.default_rng(9)
    for dtype in (np.float32, np.int32, np.uint8):
        for rank in range(1, 6):
            shape = tuple(int(s) for s in rng.integers(1, 5, size=rank))
            if dtype == np.float32:
                arr = rng.normal(size=shape).astype(np.float32)
            else:
                arr = rng.integers(0, 200, size=shape).astype(dtype)
            p = tmp_path / f"{np.dtype(dtype).name}_{rank}.xten"
            write_xten(p, arr)
            back = read_xten(p)
            assert back.shape == shape and back.dtype == np.dtype(dtype)
            assert back.tobytes() == arr.tobytes()

    good = tmp_path / "ref.xten"
    write_xten(good, np.arange(4, dtype=np.float32))
    blob = bytearray(good.read_bytes())

    cases = {
        XtenBadMagic: b"XXXX" + bytes(blob[4:]),
        XtenBadVersion: bytes(blob[:4]) + b"\x07" + bytes(blob[5:]),
        XtenBadDtype: bytes(blob[:5]) + b"\x09" + bytes(blob[6:]),
        XtenTruncated: bytes(blob[:-3]),
    }
    seen = set()
    for exc, payload in cases.items():
        p = tmp_path / f"bad_{exc.__name__}.xten"
        p.write_bytes(payload)
        with pytest.raises(exc):
            read_xten(p)
        seen.add(exc)
    assert len(seen) == 4
    with pytest.raises(XtenBadDtype):
        write_xten(tmp_path / "f64.xten", np.zeros(2, dtype=np.float64))
