"""Segmentation quality metrics: Dice overlap, normalized surface distance,
95th-percentile Hausdorff distance, and connected-component instance F1.

Conventions (shared with the brute-force oracles in the test suite):

- masks are boolean arrays on an isotropic unit-spacing grid, 2-d or 3-d;
- a *boundary* voxel is a foreground voxel with at least one face-adjacent
  background neighbor, where everything outside the array counts as
  background (a blob touching the edge has boundary there);
- DSC of two empty masks is 1.0;  NSD of two empty masks is 1.0 and of one
  empty mask is 0.0;  HD95 is undefined (None) when either mask is empty;
- instance F1 builds instances as face-adjacent connected components on both
  sides, matches greedily by descending IoU (ties broken by component ids),
  counts a match at IoU >= threshold, and is 1.0 when both sides are empty;
- aggregation reports mean and *population* standard deviation.

Every metric of a (pred, gt) pair runs on one crop: the bounding box of
``pred | gt``, widened by one voxel on each side and clipped to the array, so
evaluation cost follows the organ, not the volume.  The crop is exact.  Every
foreground and boundary voxel of either mask lies inside it, so the distance
transforms find the same nearest boundary voxel and the components are the
same.  A widened side holds only background, and a clipped side is the true
array border, so the border-is-background rule still holds.  Cropping keeps
raster order, so boundary-index order, component ids and IoU tie-breaks do
not change.  Two empty masks crop to an empty array.

The production path leans on scipy.ndimage for the distance transform and
component labelling; the tests pin every value against independent
hand-rolled implementations.  This is the only module that uses scipy, and
it imports ``scipy.ndimage`` when a metric first reaches it, not at import:
importing xlunet, training, prediction and the gradient checks load no scipy
module.  ``ndimage`` stays a module global that the metrics look up at call
time, so it can be wrapped or patched.
"""

from __future__ import annotations

import csv
import json
import types

import numpy as np

from .tensor import ContractError

__all__ = [
    "boundary_mask",
    "dice_coefficient",
    "surface_dice",
    "hausdorff95",
    "instance_f1",
    "evaluate_case",
    "check_label_map",
    "aggregate_metrics",
    "write_case_jsonl",
    "write_aggregate_csv",
    "METRIC_NAMES",
]

METRIC_NAMES = ("dsc", "nsd", "hd95", "f1")


class _OnDemandNdimage(types.ModuleType):
    """``scipy.ndimage``, imported on the first attribute it is asked for.

    Not entered in ``sys.modules``; attributes set on it (a patched
    ``distance_transform_edt``) shadow the real module's."""

    def __getattr__(self, name):
        from scipy import ndimage

        return getattr(ndimage, name)


ndimage = _OnDemandNdimage("scipy.ndimage")


def _as_mask(m, name: str) -> np.ndarray:
    m = np.asarray(m)
    if m.dtype != bool:
        raise ContractError(f"{name}: expected a boolean mask, got dtype {m.dtype}")
    if m.ndim not in (2, 3):
        raise ContractError(f"{name}: expected a 2-d or 3-d mask, got shape {m.shape}")
    return m


def boundary_mask(mask: np.ndarray) -> np.ndarray:
    """Foreground voxels with a face-adjacent background neighbor (the array
    border counts as background)."""
    mask = _as_mask(mask, "boundary_mask")
    padded = np.pad(mask, 1, constant_values=False)
    interior = mask.copy()
    core = [slice(1, 1 + n) for n in mask.shape]
    for axis, n in enumerate(mask.shape):
        for start in (0, 2):
            neighbor = list(core)
            neighbor[axis] = slice(start, start + n)
            interior &= padded[tuple(neighbor)]
    return mask & ~interior


def _union_box(pred: np.ndarray, gt: np.ndarray) -> tuple[slice, ...]:
    """The bounding box of ``pred | gt`` widened by one voxel on each side and
    clipped to the array; an empty box when both masks are empty."""
    union = pred | gt
    box = []
    for axis, n in enumerate(union.shape):
        others = tuple(a for a in range(union.ndim) if a != axis)
        hits = np.flatnonzero(union.any(axis=others))
        if hits.size == 0:
            return (slice(0, 0),) * union.ndim
        box.append(slice(max(int(hits[0]) - 1, 0), min(int(hits[-1]) + 2, n)))
    return tuple(box)


def _mask_pair(pred, gt, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Both masks, checked and cropped to their union box (see the module
    docstring for why every metric is exact on the crop)."""
    pred = _as_mask(pred, name)
    gt = _as_mask(gt, name)
    if pred.shape != gt.shape:
        raise ContractError(f"{name}: shapes differ: {pred.shape} vs {gt.shape}")
    box = _union_box(pred, gt)
    return pred[box], gt[box]


def dice_coefficient(pred: np.ndarray, gt: np.ndarray) -> float:
    """2|P∩G| / (|P| + |G|); 1.0 when both masks are empty."""
    pred, gt = _mask_pair(pred, gt, "dice_coefficient")
    p = int(pred.sum())
    g = int(gt.sum())
    if p == 0 and g == 0:
        return 1.0
    inter = int(np.logical_and(pred, gt).sum())
    return 2.0 * inter / (p + g)


def _surface_distances(pred, gt, name: str):
    """The distance from every boundary voxel of ``pred`` to the nearest
    boundary voxel of ``gt``, and from every boundary voxel of ``gt`` to
    ``pred``'s: one EDT per side, shared by NSD and HD95.  None when either
    mask is empty."""
    pred, gt = _mask_pair(pred, gt, name)
    if not pred.any() or not gt.any():
        return None
    bp = boundary_mask(pred)
    bg = boundary_mask(gt)
    return ndimage.distance_transform_edt(~bg)[bp], ndimage.distance_transform_edt(~bp)[bg]


def _nsd(pred, gt, distances, tolerance: float) -> float:
    if tolerance < 0:
        raise ContractError(f"surface_dice: tolerance must be >= 0, got {tolerance}")
    if distances is None:
        return 1.0 if not np.any(pred) and not np.any(gt) else 0.0
    to_gt, to_pred = distances
    close = int((to_gt <= tolerance).sum()) + int((to_pred <= tolerance).sum())
    return close / (to_gt.size + to_pred.size)


def _hd95(distances) -> float | None:
    return None if distances is None else float(np.percentile(np.concatenate(distances), 95))


def surface_dice(pred: np.ndarray, gt: np.ndarray, tolerance: float = 1.0) -> float:
    """Fraction of boundary voxels (both directions) within ``tolerance`` of
    the other mask's boundary.  Empty/empty -> 1.0, one-sided empty -> 0.0."""
    return _nsd(pred, gt, _surface_distances(pred, gt, "surface_dice"), tolerance)


def hausdorff95(pred: np.ndarray, gt: np.ndarray) -> float | None:
    """95th percentile (linear interpolation) of the pooled symmetric
    boundary-to-boundary distances; None when either mask is empty."""
    return _hd95(_surface_distances(pred, gt, "hausdorff95"))


def _face_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    structure = ndimage.generate_binary_structure(mask.ndim, 1)
    labels, count = ndimage.label(mask, structure=structure)
    return labels, int(count)


def instance_f1(pred: np.ndarray, gt: np.ndarray, iou_threshold: float = 0.5) -> float:
    """Greedy instance matching between connected components of both masks."""
    pred, gt = _mask_pair(pred, gt, "instance_f1")
    if not 0 < iou_threshold <= 1:
        raise ContractError(f"instance_f1: iou_threshold must be in (0, 1], got {iou_threshold}")
    pred_lab, n_pred = _face_components(pred)
    gt_lab, n_gt = _face_components(gt)
    if n_pred == 0 and n_gt == 0:
        return 1.0
    if n_pred == 0 or n_gt == 0:
        return 0.0
    # contingency table of overlap counts, background row/col included
    pair_ids = pred_lab.ravel().astype(np.int64) * (n_gt + 1) + gt_lab.ravel()
    cont = np.bincount(pair_ids, minlength=(n_pred + 1) * (n_gt + 1)).reshape(n_pred + 1, n_gt + 1)
    inter = cont[1:, 1:]
    pred_sizes = np.bincount(pred_lab.ravel(), minlength=n_pred + 1)[1:]
    gt_sizes = np.bincount(gt_lab.ravel(), minlength=n_gt + 1)[1:]
    union = pred_sizes[:, None] + gt_sizes[None, :] - inter
    iou = inter / union
    candidates = [
        (float(iou[p, g]), p, g)
        for p in range(n_pred)
        for g in range(n_gt)
        if iou[p, g] >= iou_threshold
    ]
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_p: set[int] = set()
    used_g: set[int] = set()
    tp = 0
    for _, p, g in candidates:
        if p in used_p or g in used_g:
            continue
        used_p.add(p)
        used_g.add(g)
        tp += 1
    fp = n_pred - tp
    fn = n_gt - tp
    return 2.0 * tp / (2.0 * tp + fp + fn)


def evaluate_case(
    pred_labels: np.ndarray,
    gt_labels: np.ndarray,
    num_classes: int,
    metrics=METRIC_NAMES,
    tolerance: float = 1.0,
    iou_threshold: float = 0.5,
) -> dict[int, dict[str, float | None]]:
    """Per-foreground-class metric dict for one label map pair."""
    pred_labels = check_label_map(pred_labels, "evaluate_case: pred_labels")
    gt_labels = check_label_map(gt_labels, "evaluate_case: gt_labels")
    if pred_labels.shape != gt_labels.shape:
        raise ContractError(
            f"evaluate_case: shapes differ: {pred_labels.shape} vs {gt_labels.shape}"
        )
    if num_classes < 2:
        raise ContractError(
            f"evaluate_case: need at least 2 classes (background + 1), got {num_classes}"
        )
    unknown = set(metrics) - set(METRIC_NAMES)
    if unknown:
        raise ContractError(f"evaluate_case: unknown metrics {sorted(unknown)}")
    out: dict[int, dict[str, float | None]] = {}
    for cls in range(1, num_classes):
        pmask, gmask = _mask_pair(pred_labels == cls, gt_labels == cls, "evaluate_case")
        row: dict[str, float | None] = {}
        if "dsc" in metrics:
            row["dsc"] = dice_coefficient(pmask, gmask)
        if "nsd" in metrics or "hd95" in metrics:
            distances = _surface_distances(pmask, gmask, "evaluate_case")
        if "nsd" in metrics:
            row["nsd"] = _nsd(pmask, gmask, distances, tolerance)
        if "hd95" in metrics:
            row["hd95"] = _hd95(distances)
        if "f1" in metrics:
            row["f1"] = instance_f1(pmask, gmask, iou_threshold)
        out[cls] = row
    return out


def check_label_map(labels, name: str) -> np.ndarray:
    """``labels`` as a 2-d or 3-d array of non-negative integer class ids, or
    a ``ContractError`` that starts with ``name``."""
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractError(f"{name}: expected integer class labels, got dtype {labels.dtype}")
    if labels.ndim not in (2, 3):
        raise ContractError(f"{name}: expected a 2-d or 3-d label map, got shape {labels.shape}")
    lowest = labels.min(initial=0)
    if lowest < 0:
        raise ContractError(f"{name}: class labels must be >= 0, got {lowest}")
    return labels


def aggregate_metrics(
    case_results: dict[str, dict[int, dict[str, float | None]]],
) -> dict[int, dict[str, tuple[float | None, float | None, int]]]:
    """Per class and metric: (mean, population std, n) over the defined values."""
    agg: dict[int, dict[str, tuple[float | None, float | None, int]]] = {}
    classes = sorted({c for rows in case_results.values() for c in rows})
    for cls in classes:
        agg[cls] = {}
        names = sorted({m for rows in case_results.values() for m in rows.get(cls, {})})
        for m in names:
            vals = [
                rows[cls][m]
                for rows in case_results.values()
                if cls in rows and rows[cls].get(m) is not None
            ]
            if vals:
                arr = np.asarray(vals, dtype=np.float64)
                agg[cls][m] = (float(arr.mean()), float(arr.std()), len(vals))
            else:
                agg[cls][m] = (None, None, 0)
    return agg


def write_case_jsonl(path, case_results: dict[str, dict[int, dict[str, float | None]]]) -> None:
    """One JSON object per case: {"case_id": ..., "classes": {"1": {...}}}."""
    with open(path, "w") as f:
        for case_id in sorted(case_results):
            rows = case_results[case_id]
            obj = {
                "case_id": case_id,
                "classes": {str(c): rows[c] for c in sorted(rows)},
            }
            f.write(json.dumps(obj, sort_keys=True) + "\n")


def write_aggregate_csv(path, case_results, metrics=METRIC_NAMES) -> None:
    """Flat table: one row per (case, class), then mean/std summary rows.

    Undefined values (e.g. HD95 with an empty mask) are left blank and are
    excluded from the summary statistics.
    """
    agg = aggregate_metrics(case_results)

    def fmt(v):
        return "" if v is None else f"{v:.6f}"

    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["case_id", "class_id"] + list(metrics))
        for case_id in sorted(case_results):
            for cls in sorted(case_results[case_id]):
                row = case_results[case_id][cls]
                writer.writerow([case_id, cls] + [fmt(row.get(m)) for m in metrics])
        for label, idx in (("mean", 0), ("std", 1)):
            for cls in sorted(agg):
                writer.writerow(
                    [label, cls]
                    + [fmt(agg[cls][m][idx] if m in agg[cls] else None) for m in metrics]
                )
