"""Segmentation metrics against brute-force oracles and hand conventions."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlunet.metrics import (
    METRIC_NAMES,
    aggregate_metrics,
    boundary_mask,
    dice_coefficient,
    evaluate_case,
    hausdorff95,
    instance_f1,
    surface_dice,
    write_aggregate_csv,
    write_case_jsonl,
)
from xlunet.tensor import ContractError

from oracles import (
    boundary_voxels_bf,
    components_bf,
    dice_bf,
    hausdorff95_bf,
    instance_f1_bf,
    surface_dice_bf,
)


def _random_mask(rng, shape, p):
    return rng.random(shape) < p


# ---------------------------------------------------------------------------
# boundary extraction


def test_boundary_of_solid_block_is_its_shell():
    m = np.zeros((5, 5), dtype=bool)
    m[1:4, 1:4] = True
    b = boundary_mask(m)
    want = m.copy()
    want[2, 2] = False
    np.testing.assert_array_equal(b, want)


def test_array_edge_counts_as_background():
    m = np.ones((3, 3), dtype=bool)
    b = boundary_mask(m)
    want = np.ones((3, 3), dtype=bool)
    want[1, 1] = False
    np.testing.assert_array_equal(b, want)


@pytest.mark.parametrize("shape,p", [((6, 7), 0.35), ((4, 5, 4), 0.3)])
def test_boundary_matches_bruteforce(rng, shape, p):
    for _ in range(5):
        m = _random_mask(rng, shape, p)
        got = set(map(tuple, np.argwhere(boundary_mask(m))))
        want = set(boundary_voxels_bf(m))
        assert got == want


# ---------------------------------------------------------------------------
# per-metric oracles and conventions


def test_dice_conventions():
    empty = np.zeros((4, 4), dtype=bool)
    full = np.ones((4, 4), dtype=bool)
    assert dice_coefficient(empty, empty) == 1.0
    assert dice_coefficient(full, empty) == 0.0
    assert dice_coefficient(full, full) == 1.0


def test_nsd_conventions():
    empty = np.zeros((4, 4), dtype=bool)
    blob = np.zeros((4, 4), dtype=bool)
    blob[1:3, 1:3] = True
    assert surface_dice(empty, empty, 1.0) == 1.0
    assert surface_dice(blob, empty, 1.0) == 0.0
    assert surface_dice(empty, blob, 1.0) == 0.0
    assert surface_dice(blob, blob, 1.0) == 1.0


def test_nsd_tolerance_is_inclusive():
    a = np.zeros((1, 8), dtype=bool)
    b = np.zeros((1, 8), dtype=bool)
    a[0, 2] = True
    b[0, 3] = True  # boundary distance exactly 1
    assert surface_dice(a, b, 1.0) == 1.0
    assert surface_dice(a, b, 0.999) == 0.0


def test_hd95_empty_returns_none():
    empty = np.zeros((3, 3), dtype=bool)
    blob = ~empty
    assert hausdorff95(empty, blob) is None
    assert hausdorff95(blob, empty) is None
    assert hausdorff95(empty, empty) is None


def test_hd95_identical_masks_is_zero(rng):
    m = _random_mask(rng, (6, 6), 0.4)
    if m.any():
        assert hausdorff95(m, m) == 0.0


def test_instance_f1_conventions():
    empty = np.zeros((5, 5), dtype=bool)
    assert instance_f1(empty, empty) == 1.0
    one = empty.copy()
    one[1, 1] = True
    assert instance_f1(one, empty) == 0.0
    assert instance_f1(empty, one) == 0.0
    assert instance_f1(one, one) == 1.0


def test_instance_f1_iou_threshold_and_matching():
    # two gt instances; prediction hits one exactly and misses the other
    gt = np.zeros((5, 9), dtype=bool)
    gt[1:4, 1:4] = True
    gt[1:4, 5:8] = True
    pred = np.zeros_like(gt)
    pred[1:4, 1:4] = True
    # 1 TP, 0 FP, 1 FN  ->  F1 = 2/(2+0+1)
    assert instance_f1(pred, gt) == pytest.approx(2.0 / 3.0)
    # shrink overlap below threshold: the pair stops matching
    pred2 = np.zeros_like(gt)
    pred2[1, 1] = True  # IoU = 1/9
    assert instance_f1(pred2, gt, iou_threshold=0.5) == 0.0
    assert instance_f1(pred2, gt, iou_threshold=0.1) == pytest.approx(2.0 / 3.0)


def test_instance_f1_threshold_validated():
    m = np.zeros((3, 3), dtype=bool)
    with pytest.raises(ContractError):
        instance_f1(m, m, iou_threshold=0.0)
    with pytest.raises(ContractError):
        instance_f1(m, m, iou_threshold=1.5)


def test_components_match_bfs_oracle(rng):
    for _ in range(5):
        m = _random_mask(rng, (7, 7), 0.45)
        lab_bf = components_bf(m)
        # compare as partitions (label ids may differ)
        from scipy import ndimage

        lab, _ = ndimage.label(m, structure=ndimage.generate_binary_structure(2, 1))
        for i in range(1, int(lab_bf.max()) + 1):
            cells = lab[lab_bf == i]
            assert len(set(cells.tolist())) == 1


@pytest.mark.parametrize("shape", [(8, 8), (5, 6, 5)])
def test_all_metrics_match_bruteforce_on_random_masks(rng, shape):
    for trial in range(8):
        pred = _random_mask(rng, shape, 0.3)
        gt = _random_mask(rng, shape, 0.3)
        assert dice_coefficient(pred, gt) == pytest.approx(dice_bf(pred, gt), abs=1e-12)
        assert surface_dice(pred, gt, 1.5) == pytest.approx(
            surface_dice_bf(pred, gt, 1.5), abs=1e-9
        )
        h = hausdorff95(pred, gt)
        hb = hausdorff95_bf(pred, gt)
        if hb is None:
            assert h is None
        else:
            assert h == pytest.approx(hb, abs=1e-6)
        assert instance_f1(pred, gt) == pytest.approx(instance_f1_bf(pred, gt), abs=1e-12)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15)
def test_dice_nsd_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = rng.random((6, 6)) < 0.4
    b = rng.random((6, 6)) < 0.4
    assert dice_coefficient(a, b) == pytest.approx(dice_coefficient(b, a), abs=1e-12)
    assert surface_dice(a, b, 1.0) == pytest.approx(surface_dice(b, a, 1.0), abs=1e-12)
    ha, hb = hausdorff95(a, b), hausdorff95(b, a)
    if ha is not None:
        assert ha == pytest.approx(hb, abs=1e-9)


# ---------------------------------------------------------------------------
# multi-class evaluation and reports


def _label_pair():
    gt = np.zeros((8, 8), dtype=np.int32)
    gt[1:4, 1:4] = 1
    gt[5:7, 5:7] = 2
    pred = np.zeros_like(gt)
    pred[1:4, 1:4] = 1  # class 1 perfect
    pred[4:6, 4:6] = 2  # class 2 offset
    return pred, gt


def test_evaluate_case_structure():
    pred, gt = _label_pair()
    res = evaluate_case(pred, gt, num_classes=3)
    assert sorted(res) == [1, 2]
    assert set(res[1]) == set(METRIC_NAMES)
    assert res[1]["dsc"] == pytest.approx(1.0)
    assert res[1]["hd95"] == pytest.approx(0.0)
    assert res[2]["dsc"] == pytest.approx(dice_bf(pred == 2, gt == 2))


def test_evaluate_case_shares_one_edt_per_side(monkeypatch, rng):
    import xlunet.metrics as metrics

    pred = rng.integers(0, 3, size=(12, 10)).astype(np.int32)
    gt = rng.integers(0, 3, size=(12, 10)).astype(np.int32)
    calls = []
    real_edt = metrics.ndimage.distance_transform_edt

    def counted_edt(mask):
        calls.append(mask.shape)
        return real_edt(mask)

    monkeypatch.setattr(metrics.ndimage, "distance_transform_edt", counted_edt)
    res = evaluate_case(pred, gt, num_classes=3, tolerance=1.5)
    assert len(calls) == 4  # two foreground classes, one EDT per side
    for cls in (1, 2):
        assert res[cls]["nsd"] == surface_dice(pred == cls, gt == cls, 1.5)
        assert res[cls]["hd95"] == hausdorff95(pred == cls, gt == cls)


def test_evaluate_case_missing_class_conventions():
    pred = np.zeros((4, 4), dtype=np.int32)
    gt = np.zeros((4, 4), dtype=np.int32)
    res = evaluate_case(pred, gt, num_classes=2)
    assert res[1]["dsc"] == 1.0
    assert res[1]["nsd"] == 1.0
    assert res[1]["hd95"] is None
    assert res[1]["f1"] == 1.0


def test_aggregate_excludes_none():
    pred, gt = _label_pair()
    full = evaluate_case(pred, gt, num_classes=3)
    empty = evaluate_case(
        np.zeros((8, 8), dtype=np.int32), np.zeros((8, 8), dtype=np.int32), num_classes=3
    )
    agg = aggregate_metrics({"a": full, "b": empty})
    # dsc has two samples per class; hd95 only the non-empty case
    assert agg[1]["dsc"][2] == 2
    assert agg[1]["hd95"][2] == 1
    mean, std, n = agg[1]["dsc"]
    vals = [full[1]["dsc"], empty[1]["dsc"]]
    assert mean == pytest.approx(np.mean(vals))
    assert std == pytest.approx(np.std(vals))


def test_reports_roundtrip(tmp_path):
    pred, gt = _label_pair()
    results = {"case_b": evaluate_case(pred, gt, 3), "case_a": evaluate_case(gt, gt, 3)}
    jl = tmp_path / "report.jsonl"
    write_case_jsonl(jl, results)
    lines = jl.read_text().strip().split("\n")
    assert len(lines) == 2
    rows = [json.loads(line) for line in lines]
    assert [r["case_id"] for r in rows] == ["case_a", "case_b"]  # sorted
    assert rows[0]["classes"]["1"]["dsc"] == 1.0

    cp = tmp_path / "report.csv"
    write_aggregate_csv(cp, results)
    with open(cp) as f:
        got = list(csv.reader(f))
    assert got[0] == ["case_id", "class_id"] + list(METRIC_NAMES)
    assert [row[0] for row in got[1:]] == [
        "case_a", "case_a", "case_b", "case_b", "mean", "mean", "std", "std",
    ]


# ---------------------------------------------------------------------------
# every metric of a class runs on the union box of its two masks


def _union_box_shape(pred, gt):
    """The bounding box of pred | gt widened by one voxel and clipped, as a shape."""
    hits = np.argwhere(pred | gt)
    lo = np.maximum(hits.min(axis=0) - 1, 0)
    hi = np.minimum(hits.max(axis=0) + 2, pred.shape)
    return tuple(int(n) for n in hi - lo)


def _spy_edt(monkeypatch):
    import xlunet.metrics as metrics

    shapes = []
    real_edt = metrics.ndimage.distance_transform_edt

    def spy(mask):
        shapes.append(mask.shape)
        return real_edt(mask)

    monkeypatch.setattr(metrics.ndimage, "distance_transform_edt", spy)
    return shapes


def _assert_matches_bruteforce(res, pred, gt, classes, tolerance):
    for cls in classes:
        p, g = pred == cls, gt == cls
        row = res[cls]
        assert row["dsc"] == pytest.approx(dice_bf(p, g), abs=1e-12)
        assert row["nsd"] == pytest.approx(surface_dice_bf(p, g, tolerance), abs=1e-9)
        hb = hausdorff95_bf(p, g)
        if hb is None:
            assert row["hd95"] is None
        else:
            assert row["hd95"] == pytest.approx(hb, abs=1e-6)
        assert row["f1"] == pytest.approx(instance_f1_bf(p, g), abs=1e-12)


@st.composite
def _blob_label_pairs(draw):
    """Two label maps of up to four boxes of classes 1-3 each.  Boxes may run
    past the array edge (they are clipped, so they touch it), and a class may
    be missing from one map or from both."""
    ndim = draw(st.sampled_from((2, 3)))
    side = 9 if ndim == 2 else 6
    shape = tuple(draw(st.lists(st.integers(1, side), min_size=ndim, max_size=ndim)))

    def label_map():
        labels = np.zeros(shape, dtype=np.int32)
        for _ in range(draw(st.integers(0, 4))):
            cls = draw(st.integers(1, 3))
            box = []
            for n in shape:
                lo = draw(st.integers(0, n - 1))
                box.append(slice(lo, lo + draw(st.integers(1, n))))
            labels[tuple(box)] = cls
        return labels

    return label_map(), label_map()


@given(_blob_label_pairs(), st.sampled_from((0.0, 1.0, 1.5)))
@settings(max_examples=60)
def test_cropped_evaluate_case_matches_bruteforce(pair, tolerance):
    pred, gt = pair
    res = evaluate_case(pred, gt, num_classes=4, tolerance=tolerance)
    _assert_matches_bruteforce(res, pred, gt, (1, 2, 3), tolerance)


def test_edt_runs_on_the_union_box(monkeypatch):
    shape = (14, 16, 12)
    gt = np.zeros(shape, dtype=np.int32)
    gt[4:9, 5:10, 3:7] = 1  # interior blob
    gt[0:3, 10:16, 6:12] = 2  # touches three array faces
    pred = np.roll(gt, (1, -1, 1), axis=(0, 1, 2))
    shapes = _spy_edt(monkeypatch)
    res = evaluate_case(pred, gt, num_classes=3, tolerance=1.5)
    assert len(shapes) == 4  # one EDT per side and class
    for cls, calls in ((1, shapes[:2]), (2, shapes[2:])):
        box = _union_box_shape(pred == cls, gt == cls)
        for edt_shape in calls:
            assert all(e <= b for e, b in zip(edt_shape, box)), (cls, edt_shape, box)
    # the interior blob's EDTs see exactly its widened box, far less than the volume
    assert shapes[:2] == [(8, 8, 7)] * 2
    assert all(np.prod(s) < np.prod(shape) for s in shapes[:2])
    _assert_matches_bruteforce(res, pred, gt, (1, 2), 1.5)


def test_crop_clipped_at_the_array_border(monkeypatch):
    # both blobs run into the top-left corner: the widened box is clipped there,
    # and the border still counts as background for the boundary
    pred = np.zeros((10, 12), dtype=np.int32)
    gt = np.zeros_like(pred)
    pred[0:3, 0:3] = 1
    gt[0:4, 1:4] = 1
    shapes = _spy_edt(monkeypatch)
    res = evaluate_case(pred, gt, num_classes=2, tolerance=1.0)
    assert shapes == [(5, 5), (5, 5)]
    _assert_matches_bruteforce(res, pred, gt, (1,), 1.0)
    assert res[1]["nsd"] == surface_dice(pred == 1, gt == 1, 1.0)
    assert res[1]["hd95"] == hausdorff95(pred == 1, gt == 1)
    assert res[1]["f1"] == instance_f1(pred == 1, gt == 1)


@pytest.mark.parametrize("bad", [np.full((4, 4), 1.5, dtype=np.float32), np.full((4, 4), -1)])
def test_evaluate_case_rejects_non_label_arrays(bad):
    ok = np.zeros((4, 4), dtype=np.int32)
    with pytest.raises(ContractError, match="gt_labels"):
        evaluate_case(ok, bad, 2)
    with pytest.raises(ContractError, match="pred_labels"):
        evaluate_case(bad, ok, 2)


def test_evaluate_case_validates_shapes():
    with pytest.raises(ContractError):
        evaluate_case(
            np.zeros((4, 4), dtype=np.int32), np.zeros((4, 5), dtype=np.int32), 2
        )
    with pytest.raises(ContractError):
        evaluate_case(
            np.zeros((4, 4), dtype=np.int32), np.zeros((4, 4), dtype=np.int32), 1
        )
