"""Command-line interface: subcommands, exit codes, artifacts."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xlunet.cli import main
from xlunet.data import XtenTruncated, read_xten, write_xten


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A dataset plus a short training run, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert (
        main(
            [
                "gen-data", "--out", str(data), "--cases", "3", "--classes", "3",
                "--dims", "2", "--size", "32", "--seed", "5",
            ]
        )
        == 0
    )
    cfg = {
        "patch_size": [32, 32],
        "num_classes": 3,
        "num_stages": 2,
        "base_channels": 4,
        "variant": "bot",
        "heads": 2,
        "batch_size": 2,
        "max_epochs": 2,
        "steps_per_epoch": 2,
        "seed": 1,
    }
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert (
        main(
            ["train", "--config", str(cfg_path), "--data", str(data), "--out", str(root / "run")]
        )
        == 0
    )
    return root


def test_gen_data_creates_layout(workspace):
    data = workspace / "data"
    assert (data / "dataset.json").exists()
    assert sorted(p.name for p in (data / "images").iterdir()) == [
        "case_000.xten", "case_001.xten", "case_002.xten",
    ]
    assert len(list((data / "labels").iterdir())) == 3


def test_train_artifacts(workspace):
    run = workspace / "run"
    assert (run / "train_log.csv").exists()
    assert (run / "checkpoints" / "latest" / "manifest.json").exists()
    assert (run / "checkpoints" / "best" / "manifest.json").exists()


def test_predict_single_file(workspace, tmp_path):
    out = tmp_path / "pred.xten"
    code = main(
        [
            "predict",
            "--ckpt", str(workspace / "run" / "checkpoints" / "latest"),
            "--input", str(workspace / "data" / "images" / "case_000.xten"),
            "--out", str(out),
        ]
    )
    assert code == 0
    labels = read_xten(out)
    assert labels.shape == (32, 32) and labels.dtype == np.int32
    assert labels.min() >= 0 and labels.max() <= 2


def test_predict_directory_and_eval(workspace, tmp_path):
    pred_dir = tmp_path / "preds"
    assert (
        main(
            [
                "predict",
                "--ckpt", str(workspace / "run" / "checkpoints" / "latest"),
                "--input", str(workspace / "data" / "images"),
                "--out", str(pred_dir),
            ]
        )
        == 0
    )
    assert len(list(pred_dir.iterdir())) == 3
    report = tmp_path / "report.jsonl"
    assert (
        main(
            [
                "eval",
                "--pred", str(pred_dir),
                "--gt", str(workspace / "data" / "labels"),
                "--out", str(report),
            ]
        )
        == 0
    )
    rows = [json.loads(line) for line in report.read_text().strip().split("\n")]
    assert [r["case_id"] for r in rows] == ["case_000", "case_001", "case_002"]
    assert set(rows[0]["classes"]) == {"1", "2"}
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.startswith("case_id,class_id,dsc,nsd,hd95,f1")


def test_every_prefix_of_a_predicted_label_file_is_truncated(workspace, tmp_path):
    # predict writes its output in place: a kill mid-write leaves a prefix,
    # which a reader must refuse by name
    out = tmp_path / "out.xten"
    code = main(
        [
            "predict",
            "--ckpt", str(workspace / "run" / "checkpoints" / "latest"),
            "--input", str(workspace / "data" / "images" / "case_000.xten"),
            "--out", str(out),
        ]
    )
    assert code == 0
    whole = out.read_bytes()
    for n in range(len(whole)):
        out.write_bytes(whole[:n])
        with pytest.raises(XtenTruncated):
            read_xten(out)


def test_eval_metric_subset(workspace, tmp_path):
    pred_dir = workspace / "data" / "labels"  # truth vs itself
    report = tmp_path / "self.jsonl"
    assert (
        main(
            [
                "eval", "--pred", str(pred_dir), "--gt", str(pred_dir),
                "--out", str(report), "--metrics", "dsc,f1",
            ]
        )
        == 0
    )
    row = json.loads(report.read_text().split("\n")[0])
    assert set(row["classes"]["1"]) == {"dsc", "f1"}
    assert row["classes"]["1"]["dsc"] == 1.0


def test_resume_via_cli(workspace, tmp_path):
    code = main(
        [
            "train",
            "--data", str(workspace / "data"),
            "--out", str(tmp_path / "resumed"),
            "--resume", str(workspace / "run" / "checkpoints" / "latest"),
        ]
    )
    assert code == 0  # run already finished; resume is a no-op


def test_resume_with_a_different_config_fails(workspace, tmp_path, capsys):
    cfg = json.loads((workspace / "run.json").read_text())
    cfg["seed"] += 1
    other = tmp_path / "other.json"
    other.write_text(json.dumps(cfg))
    code = main(
        [
            "train",
            "--config", str(other),
            "--data", str(workspace / "data"),
            "--out", str(tmp_path / "resumed"),
            "--resume", str(workspace / "run" / "checkpoints" / "latest"),
        ]
    )
    assert code == 1
    assert "config" in capsys.readouterr().err


def test_gradcheck_subcommand_ok():
    assert main(["gradcheck", "--module", "tensor"]) == 0


def test_gradcheck_corrupt_fails(capsys):
    assert main(["gradcheck", "--module", "tensor", "--corrupt", "--seed", "2"]) == 1
    # a failing line names its worst element: input, index, ad and fd
    fails = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
    assert fails and all("input[" in ln and " fd=" in ln for ln in fails), fails


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["train"])  # missing required args
    assert e.value.code == 2


def test_runtime_errors_exit_1(workspace, tmp_path, capsys):
    # bad config key
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"patch_size": [32, 32], "num_classes": 3, "oops": 1}))
    code = main(
        ["train", "--config", str(bad), "--data", str(workspace / "data"), "--out", str(tmp_path / "x")]
    )
    assert code == 1
    assert "oops" in capsys.readouterr().err

    # malformed dataset.json: a named error, not a TypeError traceback
    data = tmp_path / "data"
    data.mkdir()
    manifest = json.loads((workspace / "data" / "dataset.json").read_text())
    (data / "dataset.json").write_text(json.dumps(dict(manifest, cases=5)))
    code = main(
        ["train", "--config", str(workspace / "run.json"), "--data", str(data), "--out", str(tmp_path / "c")]
    )
    assert code == 1
    assert "'cases'" in capsys.readouterr().err

    # unknown gradcheck module: the error lists the valid ones
    assert main(["gradcheck", "--module", "nope"]) == 1
    err = capsys.readouterr().err
    assert "'nope'" in err and "'tensor'" in err

    # missing checkpoint
    code = main(
        ["predict", "--ckpt", str(tmp_path / "nope"), "--input", "a", "--out", "b"]
    )
    assert code == 1

    # a float label file is not scored as background: the error names it
    for side in ("pred", "gt"):
        (tmp_path / side).mkdir()
    write_xten(tmp_path / "pred" / "case_000.xten", np.full((8, 8), 1.5, dtype=np.float32))
    write_xten(tmp_path / "gt" / "case_000.xten", np.ones((8, 8), dtype=np.int32))
    code = main(
        [
            "eval",
            "--pred", str(tmp_path / "pred"),
            "--gt", str(tmp_path / "gt"),
            "--out", str(tmp_path / "scores.jsonl"),
        ]
    )
    assert code == 1
    assert str(tmp_path / "pred" / "case_000.xten") in capsys.readouterr().err

    # corrupt data file
    bad_xten = tmp_path / "bad.xten"
    bad_xten.write_bytes(b"JUNKJUNKJUNK")
    code = main(
        [
            "predict",
            "--ckpt", str(workspace / "run" / "checkpoints" / "latest"),
            "--input", str(bad_xten),
            "--out", str(tmp_path / "out.xten"),
        ]
    )
    assert code == 1


def test_manifest_without_config_exits_1(workspace, tmp_path, capsys):
    src = workspace / "run" / "checkpoints" / "latest"
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    manifest = json.loads((src / "manifest.json").read_text())
    (ckpt / manifest["state"]).write_bytes((src / manifest["state"]).read_bytes())
    del manifest["config"]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    code = main(
        [
            "predict",
            "--ckpt", str(ckpt),
            "--input", str(workspace / "data" / "images" / "case_000.xten"),
            "--out", str(tmp_path / "out.xten"),
        ]
    )
    assert code == 1
    assert "'config'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, key",
    [
        (["train", "--config", "{cfg}", "--data", "{tmp}/data", "--out", "{tmp}/run"], "heads"),
        (["gen-data", "--out", "{tmp}/data", "--seed", "-1"], "seed"),
    ],
    ids=["train", "gen-data"],
)
def test_a_bad_setting_exits_1_naming_it(tmp_path, capsys, argv, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"patch_size": [32, 32], "num_classes": 3, "heads": 0}))
    assert main([a.format(cfg=cfg, tmp=tmp_path) for a in argv]) == 1
    assert f"{key} must be" in capsys.readouterr().err


def test_train_without_config_or_resume_fails(workspace, tmp_path, capsys):
    code = main(["train", "--data", str(workspace / "data"), "--out", str(tmp_path / "y")])
    assert code == 1
    assert "--config" in capsys.readouterr().err


def test_overfit_demo_runs_end_to_end(tmp_path, child_env):
    # README's demo, one epoch of the bot variant, in a fresh interpreter
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "overfit_demo.py"),
         "--out", str(tmp_path), "--variant", "bot", "--epochs", "1"],
        env=child_env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "report.csv", newline="") as f:
        means = [row for row in csv.DictReader(f) if row["case_id"] == "mean"]
    assert sorted(row["class_id"] for row in means) == ["1", "2"]
