"""Run configs, training loop artifacts, resume, prediction, and the
modules they load."""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xlunet.train as train
from xlunet.data import XtenError, generate_dataset, load_case, load_dataset
from xlunet.metrics import dice_coefficient, evaluate_case
from xlunet.network import build_network
from xlunet.optim import init_adamw
from xlunet.tensor import ContractError, Tensor
from xlunet.train import (
    RunConfig,
    load_checkpoint,
    load_run_config,
    predict_volume,
    restore_network,
    run_config_from_dict,
    run_eval,
    run_training,
)


def _tiny_cfg(**kw):
    base = dict(
        patch_size=(32, 32),
        num_classes=3,
        num_stages=2,
        base_channels=4,
        variant="bot",
        heads=2,
        batch_size=2,
        max_epochs=2,
        steps_per_epoch=2,
        seed=3,
    )
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("ds")
    generate_dataset(d, num_cases=3, classes=3, dims=2, size=(32, 32), seed=2)
    return d


# ---------------------------------------------------------------------------
# config parsing


def test_config_json_roundtrip(tmp_path):
    cfg = _tiny_cfg()
    p = tmp_path / "run.json"
    p.write_text(json.dumps(cfg.to_dict()))
    back = load_run_config(p)
    assert back == cfg


def test_unknown_keys_rejected():
    with pytest.raises(ContractError, match="momentum"):
        run_config_from_dict({"patch_size": [32, 32], "num_classes": 2, "momentum": 0.9})


def test_missing_required_keys_rejected():
    with pytest.raises(ContractError, match="patch_size"):
        run_config_from_dict({"num_classes": 2})


def test_wrong_types_named():
    with pytest.raises(ContractError, match="batch_size"):
        run_config_from_dict(
            {"patch_size": [32, 32], "num_classes": 2, "batch_size": "four"}
        )
    with pytest.raises(ContractError, match="batch_size"):
        run_config_from_dict(
            {"patch_size": [32, 32], "num_classes": 2, "batch_size": True}
        )

    def cfg(**extra):
        return run_config_from_dict({"patch_size": [32, 32], "num_classes": 2, **extra})

    # one accepted and one rejected value per rule of the derived type table
    accepted = [
        {"class_weights": [1.0, 2.0]},  # a tuple field takes a list
        {"learning_rate": 1},  # a float field takes an int
        {"early_stop_dice": None},  # an X | None field takes null
        {"batch_size": 2},  # an int field takes an int
    ]
    for extra in accepted:
        got = cfg(**extra)
        key, value = next(iter(extra.items()))
        assert got.to_dict()[key] == value
    assert cfg(class_weights=[1.0, 2.0]).class_weights == (1.0, 2.0)
    rejected = [
        {"class_weights": "1,2"},
        {"learning_rate": "0.1"},
        {"learning_rate": True},  # bool is an int subclass, but not a number here
        {"early_stop_interval": None},  # not an X | None field
        {"batch_size": False},
        {"patch_size": [32.9, 32]},  # every element of a tuple field is checked
        {"patch_size": [True, 32]},
        {"patch_size": ["a", 32]},
        {"class_weights": [True, 1, 1]},
    ]
    for extra in rejected:
        key = next(iter(extra))
        with pytest.raises(ContractError, match=key):
            cfg(**extra)


def test_invalid_values_rejected():
    with pytest.raises(ContractError):
        _tiny_cfg(schedule="cosine").validate()
    with pytest.raises(ContractError):
        _tiny_cfg(patch_size=(30, 32)).validate()
    with pytest.raises(ContractError):
        _tiny_cfg(force_foreground_prob=1.5).validate()
    with pytest.raises(ContractError):
        _tiny_cfg(early_stop_dice=0.0).validate()


@pytest.mark.parametrize(
    "key, value",
    [("heads", 0), ("heads", -4), ("expansion", 0), ("conv_width", 0), ("seed", -1)],
)
def test_bad_sequence_block_settings_named(key, value):
    with pytest.raises(ContractError, match=f"^{key} must be"):
        run_config_from_dict({"patch_size": [32, 32], "num_classes": 2, key: value})


def test_bad_json_is_contract_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ContractError, match="JSON"):
        load_run_config(p)


@pytest.mark.parametrize(
    "text,key",
    [
        ('"learning_rate": NaN', "learning_rate"),
        ('"adam_eps": Infinity', "adam_eps"),
        ('"class_weights": [1, Infinity, 1]', "class_weights"),
        ('"learning_rate": 1e999', "learning_rate"),  # overflows to inf
        ('"learning_rate": 1%s' % ("0" * 400), "learning_rate"),  # an int no float holds
    ],
)
def test_non_finite_config_numbers_rejected(tmp_path, text, key):
    p = tmp_path / "run.json"
    p.write_text('{"patch_size": [32, 32], "num_classes": 3, %s}' % text)
    with pytest.raises(ContractError, match=key):
        load_run_config(p)


# ---------------------------------------------------------------------------
# training artifacts


def test_training_writes_log_and_checkpoints(dataset, tmp_path):
    cfg = _tiny_cfg()
    res = run_training(cfg, dataset, tmp_path / "run")
    assert res.epochs_completed == 2 and res.global_step == 4
    log = (tmp_path / "run" / "train_log.csv").read_text().strip().split("\n")
    assert log[0] == "step,epoch,lr,loss,seconds"
    assert len(log) == 5
    first = log[1].split(",")
    assert first[0] == "1" and first[1] == "0"
    assert float(first[2]) == pytest.approx(cfg.learning_rate)
    assert np.isfinite(float(first[3]))
    for sub in ("latest", "best"):
        m = load_checkpoint(tmp_path / "run" / "checkpoints" / sub)
        assert m["global_step"] <= 4
        net, back_cfg = restore_network(m)
        assert back_cfg == cfg


def test_config_dataset_mismatch_is_rejected(dataset, tmp_path):
    with pytest.raises(ContractError, match="classes"):
        run_training(_tiny_cfg(num_classes=2), dataset, tmp_path / "x")


def test_resume_config_mismatch_rejected(dataset, tmp_path):
    run_training(_tiny_cfg(), dataset, tmp_path / "run")
    ckpt = tmp_path / "run" / "checkpoints" / "latest"
    with pytest.raises(ContractError, match="config"):
        run_training(_tiny_cfg(seed=99), dataset, tmp_path / "run2", resume_from=ckpt)


def test_interrupted_resume_is_bit_exact(dataset, tmp_path):
    base = dict(max_epochs=3, augment_mirror=True)
    run_training(_tiny_cfg(**base), dataset, tmp_path / "a")

    class Stop(Exception):
        pass

    seen = []

    def boom(msg):
        seen.append(msg)
        if len(seen) == 1:
            raise Stop

    with pytest.raises(Stop):
        run_training(_tiny_cfg(**base), dataset, tmp_path / "b", log=boom)
    run_training(
        _tiny_cfg(**base),
        dataset,
        tmp_path / "b",
        resume_from=tmp_path / "b" / "checkpoints" / "latest",
    )
    ma = load_checkpoint(tmp_path / "a" / "checkpoints" / "latest")
    mb = load_checkpoint(tmp_path / "b" / "checkpoints" / "latest")
    na, _ = restore_network(ma)
    nb, _ = restore_network(mb)
    for k in na.params:
        assert np.array_equal(na.params[k].data, nb.params[k].data), k
    assert ma["rng"] == mb["rng"]
    assert ma["global_step"] == mb["global_step"]


def _checkpoint_files(run_dir):
    ckpts = run_dir / "checkpoints"
    return {str(f.relative_to(ckpts)): f.read_bytes() for f in sorted(ckpts.rglob("*")) if f.is_file()}


def _assert_same_final_state(dir_a, dir_b):
    ma = load_checkpoint(dir_a / "checkpoints" / "latest")
    mb = load_checkpoint(dir_b / "checkpoints" / "latest")
    na, _ = restore_network(ma)
    nb, _ = restore_network(mb)
    for k in na.params:
        assert np.array_equal(na.params[k].data, nb.params[k].data), k
    assert ma["rng"] == mb["rng"]
    assert ma["global_step"] == mb["global_step"]


def test_crash_mid_save_resumes_bit_exact(dataset, tmp_path, monkeypatch):
    # the second `latest` save writes one whole file and then dies: the
    # epoch-1 checkpoint must still resume into the uninterrupted run.  The
    # improving epoch 2 has already saved `best/`, so the resume, which redoes
    # epoch 2, must rewrite it: both directories end byte-equal to the
    # uninterrupted run's
    cfg = _tiny_cfg(max_epochs=3, augment_mirror=True)
    run_training(cfg, dataset, tmp_path / "a")

    class Crash(Exception):
        pass

    saves = []
    real_save, real_write = train.save_checkpoint, train.write_xten

    def save(ckpt_dir, *args):
        saves.append(ckpt_dir.name)
        real_save(ckpt_dir, *args)

    def write(path, array):
        real_write(path, array)
        if saves.count("latest") == 2 and saves[-1] == "latest":
            raise Crash

    monkeypatch.setattr(train, "save_checkpoint", save)
    monkeypatch.setattr(train, "write_xten", write)
    with pytest.raises(Crash):
        run_training(cfg, dataset, tmp_path / "b")
    monkeypatch.undo()
    assert saves == ["best", "latest", "best", "latest"]
    latest = tmp_path / "b" / "checkpoints" / "latest"
    assert load_checkpoint(latest)["epochs_completed"] == 1
    run_training(cfg, dataset, tmp_path / "b", resume_from=latest)
    _assert_same_final_state(tmp_path / "a", tmp_path / "b")
    want = _checkpoint_files(tmp_path / "a")
    assert {d.split("/")[0] for d in want} == {"best", "latest"}
    assert want == _checkpoint_files(tmp_path / "b")


def _logged(run_dir):
    """The log's deterministic columns: step, epoch, lr, loss."""
    return [row.rsplit(",", 1)[0] for row in (run_dir / "train_log.csv").read_text().splitlines()]


@pytest.mark.parametrize(
    "at_step, torn",
    [
        # stopped at step 7, the run has logged steps 5-6 past its step-4
        # checkpoint; the resume logs them again
        (7, ""),
        # a kill mid-write leaves part of a row with no newline: here the "1"
        # of step 11's, which reads as a step the step-8 checkpoint holds
        (11, "1"),
    ],
    ids=["mid_epoch", "torn_row"],
)
def test_resumed_log_equals_uninterrupted(dataset, tmp_path, monkeypatch, at_step, torn):
    cfg = _tiny_cfg(patch_size=(16, 16), max_epochs=3, steps_per_epoch=4)
    run_training(cfg, dataset, tmp_path / "a")

    class Stop(Exception):
        pass

    calls = []
    real_step = train.adamw_step

    def step(*args, **kwargs):
        calls.append(1)
        if len(calls) == at_step:
            raise Stop
        real_step(*args, **kwargs)

    monkeypatch.setattr(train, "adamw_step", step)
    with pytest.raises(Stop):
        run_training(cfg, dataset, tmp_path / "b")
    monkeypatch.undo()
    with open(tmp_path / "b" / "train_log.csv", "a") as f:
        f.write(torn)
    run_training(cfg, dataset, tmp_path / "b", resume_from=tmp_path / "b" / "checkpoints" / "latest")
    assert len(_logged(tmp_path / "a")) == 13
    assert _logged(tmp_path / "b") == _logged(tmp_path / "a")


def test_sigkilled_run_resumes_to_the_uninterrupted_run(dataset, tmp_path, child_env):
    # Python hands a text file's rows to the OS about every 8 KiB (every
    # block, where a block is larger) and a row is ~29 bytes: an epoch of
    # 1.5 blocks of rows flushes some before the epoch's checkpoint
    block = max(8192, os.stat(tmp_path).st_blksize)
    cfg = _tiny_cfg(
        patch_size=(8, 8), num_stages=1, batch_size=1, steps_per_epoch=int(1.5 * block / 29)
    )
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))

    def train_cli(out, *args):
        return subprocess.Popen(
            [sys.executable, "-m", "xlunet.cli", "train", "--data", str(dataset),
             "--out", str(tmp_path / out), *args],
            env=child_env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )

    log = tmp_path / "b" / "train_log.csv"
    latest = tmp_path / "b" / "checkpoints" / "latest"

    def logged_past_checkpoint() -> bool:
        try:
            step = json.loads((latest / "manifest.json").read_text())["global_step"]
            rows = log.read_text().splitlines(keepends=True)[1:]
        except FileNotFoundError:  # no checkpoint yet
            return False
        return any(row.endswith("\n") and int(row.split(",", 1)[0]) > step for row in rows)

    # the uninterrupted run goes alongside the killed one
    with train_cli("a", "--config", str(cfg_path)) as reference:
        with train_cli("b", "--config", str(cfg_path)) as killed:
            while killed.poll() is None and not logged_past_checkpoint():
                time.sleep(0.005)
            killed.kill()
        assert logged_past_checkpoint(), "the run ended before its log held a step past a checkpoint"
        with train_cli("b", "--resume", str(latest)) as resumed:
            _, err = resumed.communicate(timeout=60)
        assert resumed.returncode == 0, err
        _, err = reference.communicate(timeout=60)
    assert reference.returncode == 0, err
    assert _logged(tmp_path / "b") == _logged(tmp_path / "a")
    assert len(_logged(tmp_path / "a")) == 1 + cfg.max_epochs * cfg.steps_per_epoch
    for sub in ("best", "latest"):
        want, got = (tmp_path / run / "checkpoints" / sub for run in "ab")
        names = sorted(p.name for p in want.iterdir())
        assert sorted(p.name for p in got.iterdir()) == names
        for name in names:
            assert (got / name).read_bytes() == (want / name).read_bytes(), f"{sub}/{name}"


def test_checkpoint_is_a_manifest_and_one_state_file(dataset, tmp_path, monkeypatch):
    listings = []
    real_save = train.save_checkpoint

    def save(ckpt_dir, *args):
        real_save(ckpt_dir, *args)
        listings.append(sorted(f.name for f in ckpt_dir.iterdir()))

    monkeypatch.setattr(train, "save_checkpoint", save)
    run_training(_tiny_cfg(max_epochs=3), dataset, tmp_path / "run")
    assert len(listings) >= 3
    for names in listings:
        assert len(names) == 2 and names[0] == "manifest.json", names
        assert names[1].startswith("state-") and names[1].endswith(".xten"), names
    m = load_checkpoint(tmp_path / "run" / "checkpoints" / "latest")
    assert m["state"] == f"state-{m['sha256'][:16]}.xten"


def test_corrupt_state_file_is_named(dataset, tmp_path):
    run_training(_tiny_cfg(max_epochs=1), dataset, tmp_path / "run")
    m = load_checkpoint(tmp_path / "run" / "checkpoints" / "latest")
    state = m["_dir"] / m["state"]
    blob = bytearray(state.read_bytes())
    blob[-1] ^= 0x01
    state.write_bytes(bytes(blob))
    with pytest.raises(ContractError, match=m["state"]):
        restore_network(m)


def test_improving_epoch_hashes_its_state_once(dataset, tmp_path, monkeypatch):
    # best/ and latest/ of one epoch get one state, built and hashed once
    events = []
    real_save, real_digest = train.save_checkpoint, train._state_digest

    def save(ckpt_dir, *args):
        real_save(ckpt_dir, *args)
        events.append(ckpt_dir.name)

    def digest(state):
        events.append("sha256")
        return real_digest(state)

    monkeypatch.setattr(train, "save_checkpoint", save)
    monkeypatch.setattr(train, "_state_digest", digest)
    run_training(_tiny_cfg(max_epochs=3), dataset, tmp_path / "run")
    epochs = "/".join(events).split("/latest")[:-1]
    assert len(epochs) == 3
    assert epochs[0] == "sha256/best"  # the first epoch always improves
    for epoch in epochs:
        assert epoch.strip("/") in ("sha256", "sha256/best"), events


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A valid checkpoint's manifest (as JSON) and state-file bytes."""
    cfg = _tiny_cfg()
    net = build_network(cfg.network_config())
    d = tmp_path_factory.mktemp("ckpt")
    train.save_checkpoint(d, net, init_adamw(net.params), cfg, 1, 2, 0.5, {"sampling": {}, "augment": {}})
    manifest = json.loads((d / "manifest.json").read_text())
    return manifest, (d / manifest["state"]).read_bytes()


def _restore_from(manifest_bytes: bytes, state: bytes, state_name: str):
    """Restore from a directory holding these bytes; only the reader's named
    errors may escape."""
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "manifest.json").write_bytes(manifest_bytes)
        (Path(d) / state_name).write_bytes(state)
        try:
            restore_network(load_checkpoint(d))
        except (ContractError, XtenError):
            return False
        return True


_MANIFEST_FIELDS = (
    "format", "config", "epochs_completed", "global_step", "best_loss",
    "rng", "step_count", "layout", "state", "sha256",
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def test_manifest_without_config_is_named(checkpoint):
    manifest, state = checkpoint
    broken = {k: v for k, v in manifest.items() if k != "config"}
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "manifest.json").write_text(json.dumps(broken))
        with pytest.raises(ContractError, match=r"manifest\.json: missing key 'config'"):
            load_checkpoint(d)
        (Path(d) / "manifest.json").write_text("{not json")
        with pytest.raises(ContractError, match=r"manifest\.json: not valid JSON"):
            load_checkpoint(d)


@example(b"\xff{}")  # not UTF-8
@example(b"[" * 100_000)  # nested deeper than the parser recurses
@given(st.one_of(st.binary(max_size=200), st.text(max_size=100).map(str.encode)))
@settings(max_examples=150, deadline=None)
def test_fuzzed_run_config_bytes_raise_named_errors(tmp_path_factory, blob):
    p = tmp_path_factory.getbasetemp() / "fuzz_run.json"
    p.write_bytes(blob)
    try:
        load_run_config(p)
    except ContractError as e:
        assert "fuzz_run.json" in str(e)


@given(st.one_of(st.binary(max_size=200), st.text(max_size=100).map(str.encode)))
@settings(max_examples=150, deadline=None)
def test_fuzzed_manifest_bytes_raise_named_errors(checkpoint, blob):
    manifest, state = checkpoint
    assert not _restore_from(blob, state, manifest["state"])


@given(
    st.sets(st.sampled_from(_MANIFEST_FIELDS)),
    st.dictionaries(st.sampled_from(_MANIFEST_FIELDS), _json_values, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_fuzzed_manifest_fields_raise_named_errors(checkpoint, dropped, replaced):
    manifest, state = checkpoint
    fuzzed = {k: v for k, v in manifest.items() if k not in dropped}
    fuzzed.update(replaced)
    ok = _restore_from(json.dumps(fuzzed).encode(), state, manifest["state"])
    if ok:  # only a manifest that still describes this state file restores
        for key in ("config", "layout", "state", "sha256", "format"):
            assert fuzzed[key] == manifest[key]


@given(st.one_of(st.binary(max_size=300), st.integers(0, 10_000), st.integers(0, 10_000 * 8)))
@settings(max_examples=100, deadline=None)
def test_fuzzed_state_file_raises_named_errors(checkpoint, change):
    manifest, state = checkpoint
    if isinstance(change, bytes):
        fuzzed = change
    elif change < len(state):  # truncated
        fuzzed = state[:change]
    else:  # one bit flipped
        bit = change % (8 * len(state))
        fuzzed = bytearray(state)
        fuzzed[bit // 8] ^= 1 << (bit % 8)
        fuzzed = bytes(fuzzed)
    assert not _restore_from(json.dumps(manifest).encode(), fuzzed, manifest["state"])


def test_non_finite_best_loss_is_rejected(checkpoint, tmp_path):
    manifest, state = checkpoint
    (tmp_path / "manifest.json").write_text(json.dumps({**manifest, "best_loss": float("nan")}))
    (tmp_path / manifest["state"]).write_bytes(state)
    with pytest.raises(ContractError, match="best_loss"):
        load_checkpoint(tmp_path)
    # and the writer cannot produce one
    cfg = _tiny_cfg()
    net = build_network(cfg.network_config())
    with pytest.raises(ValueError):
        train.save_checkpoint(tmp_path / "w", net, init_adamw(net.params), cfg, 1, 2,
                              float("nan"), {"sampling": {}, "augment": {}})
    assert not any((tmp_path / "w").iterdir())


def test_v1_checkpoint_is_rejected(tmp_path):
    (tmp_path / "manifest.json").write_text(
        json.dumps({"format": "xlunet-checkpoint-v1", "params": {}, "optim": {}})
    )
    with pytest.raises(ContractError, match="unsupported checkpoint format"):
        load_checkpoint(tmp_path)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_nan_loss_aborts_with_step_number(dataset, tmp_path):
    # an absurd learning rate detonates the weights within a few steps
    cfg = _tiny_cfg(learning_rate=1e18, max_epochs=5, steps_per_epoch=5)
    with pytest.raises(RuntimeError, match=r"step \d+"):
        run_training(cfg, dataset, tmp_path / "boom")


def test_checkpoint_dir_must_exist(tmp_path):
    with pytest.raises(ContractError, match="manifest"):
        load_checkpoint(tmp_path / "nothing")


# ---------------------------------------------------------------------------
# prediction


def test_predict_whole_volume_and_tiled_agree(dataset, tmp_path):
    cfg = _tiny_cfg()
    run_training(cfg, dataset, tmp_path / "run")
    net, _ = restore_network(load_checkpoint(tmp_path / "run" / "checkpoints" / "latest"))
    info = load_dataset(dataset)
    img, _ = load_case(info, "case_000")
    whole = predict_volume(net, img, tile=False)
    assert whole.shape == (32, 32) and whole.dtype == np.int32
    # tiling covers the volume with overlapping windows; for a 32x32 volume
    # with a 32x32 patch there is exactly one window, so results match
    tiled = predict_volume(net, img, tile=True)
    np.testing.assert_array_equal(whole, tiled)


def test_predict_rejects_indivisible_without_tile(dataset, tmp_path):
    run_training(_tiny_cfg(), dataset, tmp_path / "run")
    net, _ = restore_network(load_checkpoint(tmp_path / "run" / "checkpoints" / "latest"))
    odd = np.zeros((1, 20, 32), dtype=np.float32)  # 20 % 8 != 0
    with pytest.raises(ContractError, match="tile"):
        predict_volume(net, odd, tile=False)
    out = predict_volume(net, odd, tile=True)
    assert out.shape == (20, 32)


def test_early_stop_tiles_cases_the_net_cannot_take_whole(tmp_path):
    # 20x20 cases are no multiple of 2 ** (stages + 1) = 8: the train-set
    # Dice of early stopping scores them tiled instead of refusing them
    data = tmp_path / "data"
    info = generate_dataset(data, num_cases=2, classes=3, dims=2, size=(20, 20), seed=2)
    cfg = _tiny_cfg(patch_size=(16, 16), early_stop_dice=1.0, early_stop_interval=2)
    lines = []
    assert run_training(cfg, data, tmp_path / "run", log=lines.append).epochs_completed == 2
    net, _ = restore_network(load_checkpoint(tmp_path / "run" / "checkpoints" / "latest"))
    scores = []
    for case_id in info.cases:
        image, label = load_case(info, case_id)
        pred = predict_volume(net, image, tile=True)
        scores += [dice_coefficient(pred == c, label == c) for c in (1, 2)]
    assert f"epoch 2: train foreground dice {np.mean(scores):.4f}" in lines


def test_predict_tiled_on_small_volume_pads_and_crops(dataset, tmp_path):
    run_training(_tiny_cfg(), dataset, tmp_path / "run")
    net, _ = restore_network(load_checkpoint(tmp_path / "run" / "checkpoints" / "latest"))
    small = np.zeros((1, 10, 9), dtype=np.float32)
    out = predict_volume(net, small, tile=True)
    assert out.shape == (10, 9)


def test_predict_validates_channels(dataset, tmp_path):
    run_training(_tiny_cfg(), dataset, tmp_path / "run")
    net, _ = restore_network(load_checkpoint(tmp_path / "run" / "checkpoints" / "latest"))
    with pytest.raises(ContractError):
        predict_volume(net, np.zeros((2, 32, 32), dtype=np.float32))


# ---------------------------------------------------------------------------
# eval orchestration


def test_run_eval_reports_and_exit_codes(dataset, tmp_path, capsys):
    info = load_dataset(dataset)
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    from xlunet.data import write_xten

    for cid in info.cases:
        _, lab = load_case(info, cid)
        write_xten(pred_dir / f"{cid}.xten", lab)  # predict the truth
    out = tmp_path / "rep.jsonl"
    code = run_eval(pred_dir, dataset / "labels", out)
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().strip().split("\n")]
    assert len(rows) == len(info.cases)
    for row in rows:
        for cls_metrics in row["classes"].values():
            if cls_metrics["dsc"] is not None:
                assert cls_metrics["dsc"] == 1.0
    assert (tmp_path / "rep.csv").exists()

    # drop one prediction: exit code 1 and a warning, case excluded
    (pred_dir / f"{info.cases[0]}.xten").unlink()
    code = run_eval(pred_dir, dataset / "labels", tmp_path / "rep2.jsonl")
    assert code == 1
    err = capsys.readouterr().err
    assert info.cases[0] in err


@pytest.mark.parametrize(
    "side,bad",
    [
        ("pred", np.full((6, 6), 1.5, dtype=np.float32)),
        ("gt", np.full((6, 6), np.nan, dtype=np.float32)),
        ("pred", np.full((6, 6), -1, dtype=np.int32)),
        ("gt", np.zeros((6, 5), dtype=np.int32)),
    ],
    ids=["float", "nan", "negative", "shape"],
)
def test_run_eval_rejects_bad_label_files_by_name(tmp_path, side, bad):
    from xlunet.data import write_xten

    dirs = {name: tmp_path / name for name in ("pred", "gt")}
    for d in dirs.values():
        d.mkdir()
        write_xten(d / "case_000.xten", np.ones((6, 6), dtype=np.int32))
    write_xten(dirs[side] / "case_000.xten", bad)
    with pytest.raises(ContractError, match="case_000.xten"):
        run_eval(dirs["pred"], dirs["gt"], tmp_path / "rep.jsonl")
    assert not (tmp_path / "rep.jsonl").exists()


# ---------------------------------------------------------------------------
# dependencies

_NUMPY_ONLY_PATHS = """
import json, sys
from pathlib import Path
import numpy as np
import xlunet
from xlunet import VilBlockParams, finite_diff_check, vil_block
from xlunet.data import load_case, load_dataset
from xlunet.metrics import dice_coefficient, evaluate_case
from xlunet.tensor import Tensor, reduce_sum
from xlunet.train import RunConfig, load_checkpoint, predict_volume, restore_network, run_training

data, out = sys.argv[1:3]
cfg = RunConfig(patch_size=(32, 32), num_classes=3, num_stages=2, base_channels=4, variant="enc",
                heads=2, batch_size=2, max_epochs=1, steps_per_epoch=1, seed=3)
assert run_training(cfg, data, out).global_step == 1
net, _ = restore_network(load_checkpoint(Path(out) / "checkpoints" / "latest"))
image, _ = load_case(load_dataset(data), "case_000")
assert predict_volume(net, image, tile=True).shape == (32, 32)
rng = np.random.default_rng(0)
params = VilBlockParams(rng, model_dim=6, heads=3, expansion=2, conv_width=4, dtype=np.float64)
seq = Tensor(rng.uniform(-1, 1, (2, 5, 6)), requires_grad=True)
inputs = [seq] + [t for _, t in params.tensors()]
assert finite_diff_check(lambda: reduce_sum(vil_block(seq, params)), inputs).passed
before = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
scores = evaluate_case(np.load(Path(out) / "pred.npy"), np.load(Path(out) / "gt.npy"), num_classes=3)
print(json.dumps({"scipy_before_eval": before, "ndimage_after_eval": "scipy.ndimage" in sys.modules,
                  "scores": {str(c): v for c, v in scores.items()}}))
"""


def test_train_predict_and_gradcheck_load_no_scipy(dataset, tmp_path, child_env):
    # a fresh interpreter, so that nothing this test process imported counts
    rng = np.random.default_rng(11)
    pred = rng.integers(0, 3, size=(12, 10)).astype(np.int32)
    gt = rng.integers(0, 3, size=(12, 10)).astype(np.int32)
    np.save(tmp_path / "pred.npy", pred)
    np.save(tmp_path / "gt.npy", gt)
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_ONLY_PATHS, str(dataset), str(tmp_path)],
        env=child_env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    assert child["scipy_before_eval"] == []
    # evaluation loads scipy.ndimage on demand, and scores as in this process
    assert child["ndimage_after_eval"]
    want = evaluate_case(pred, gt, num_classes=3)
    assert child["scores"] == {str(c): v for c, v in want.items()}
