"""On-disk tensors (the XTEN format), synthetic datasets, and patch sampling.

XTEN v1 is a minimal little-endian binary tensor file:

    offset  size        field
    0       4           magic "XTEN" (58 54 45 4E)
    4       1           version, currently 1
    5       1           dtype code: 0 = float32, 1 = int32, 2 = uint8
    6       1           ndim
    7       1           reserved, must be 0
    8       8 * ndim    dims, uint64 little-endian
    ...     payload     row-major (C order) little-endian values

Round-trips are bitwise; malformed files raise a *distinct* error per failure
mode (magic / version / dtype / truncation).  float64 is deliberately not
representable — convert explicitly before writing.

The synthetic task is desk-scale: each case is a noisy image whose
foreground classes are axis-aligned ellipses (2-d) or ellipsoids (3-d) with
class-distinct base intensities, and the label map is exact (later blobs
overwrite earlier ones, intensity and label together).  Everything is a pure
function of (seed, case index).
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
import types
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import ContractError, _rng_stream

__all__ = [
    "XtenError",
    "XtenBadMagic",
    "XtenBadVersion",
    "XtenBadDtype",
    "XtenTruncated",
    "write_xten",
    "read_xten",
    "DatasetInfo",
    "generate_dataset",
    "load_dataset",
    "load_case",
    "sample_patch",
]

_MAGIC = b"XTEN"
_VERSION = 1
_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<i4"), 2: np.dtype("u1")}
_DTYPE_TO_CODE = {np.dtype(np.float32): 0, np.dtype(np.int32): 1, np.dtype(np.uint8): 2}
_MAX_PAYLOAD = 1 << 40  # sanity bound against hostile headers


class XtenError(Exception):
    """Base error for tensor-file problems."""


class XtenBadMagic(XtenError):
    pass


class XtenBadVersion(XtenError):
    pass


class XtenBadDtype(XtenError):
    pass


class XtenTruncated(XtenError):
    pass


def write_xten(path, array: np.ndarray) -> None:
    """Write ``array`` (float32 / int32 / uint8, ndim >= 1) to ``path``."""
    array = np.asarray(array)
    code = _DTYPE_TO_CODE.get(array.dtype)
    if code is None:
        raise XtenBadDtype(
            f"cannot write dtype {array.dtype}; supported: float32, int32, uint8"
            " (convert float64 explicitly)"
        )
    if array.ndim < 1 or array.ndim > 255:
        raise XtenError(f"cannot write ndim {array.ndim}")
    header = struct.pack("<4sBBBB", _MAGIC, _VERSION, code, array.ndim, 0)
    dims = struct.pack(f"<{array.ndim}Q", *array.shape)
    le = array.astype(array.dtype.newbyteorder("<"), copy=False)
    payload = np.ascontiguousarray(le).tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(dims)
        f.write(payload)


def read_xten(path) -> np.ndarray:
    """Read an XTEN file back as a native-endian array (always a fresh copy).

    The payload is read straight into the array it is returned in."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(8)
        if len(head) < 8:
            raise XtenTruncated(f"{path}: file too short for a header ({len(head)} bytes)")
        magic, version, code, ndim, reserved = struct.unpack("<4sBBBB", head)
        if magic != _MAGIC:
            raise XtenBadMagic(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise XtenBadVersion(f"{path}: unsupported version {version}")
        dtype = _CODE_TO_DTYPE.get(code)
        if dtype is None:
            raise XtenBadDtype(f"{path}: unknown dtype code {code}")
        if reserved != 0:
            raise XtenError(f"{path}: reserved header byte is {reserved}, expected 0")
        if ndim < 1:
            raise XtenError(f"{path}: ndim must be >= 1")
        dims = f.read(8 * ndim)
        if len(dims) < 8 * ndim:
            raise XtenTruncated(f"{path}: header promises {ndim} dims but file ends early")
        shape = struct.unpack(f"<{ndim}Q", dims)
        # a zero dim empties the payload but numpy still rejects huge other dims,
        # so the bound counts every zero dim as 1
        if math.prod(max(d, 1) for d in shape) * dtype.itemsize > _MAX_PAYLOAD:
            raise XtenError(f"{path}: implausible dims {shape}")
        total = math.prod(shape) * dtype.itemsize
        payload = size - 8 - 8 * ndim
        if payload < total:
            raise XtenTruncated(f"{path}: payload is {payload} bytes, header promises {total}")
        if payload > total:
            raise XtenError(f"{path}: {payload - total} trailing bytes after payload")
        try:
            arr = np.empty(shape, dtype)
        except ValueError as e:  # e.g. more dims than numpy supports
            raise XtenError(f"{path}: cannot hold {ndim} dims in an array ({e})") from e
        got = f.readinto(arr.reshape(-1).view(np.uint8))
        if got != total:
            raise XtenTruncated(f"{path}: payload is {got} bytes, header promises {total}")
    if sys.byteorder == "big":
        arr = arr.byteswap().view(dtype.newbyteorder("="))
    return arr


# ---------------------------------------------------------------------------
# JSON files: run configs, dataset.json and checkpoint manifests


def _read_json_object(path) -> dict:
    """The JSON object in the UTF-8 file ``path``.  Bad UTF-8, bad JSON,
    nesting too deep to parse, a value that is not an object, and a NaN or an
    infinity anywhere (``NaN``, ``Infinity``, or a literal that overflows such
    as ``1e999``) are each a ``ContractError`` naming the file."""
    try:
        raw = json.loads(Path(path).read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError is a ValueError
        raise ContractError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(raw, dict):
        raise ContractError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    # an explicit stack, so any depth the parser took is walked
    stack = list(raw.items())
    while stack:
        key, value = stack.pop()
        if isinstance(value, float) and not math.isfinite(value):
            raise ContractError(f"{path}: key {key!r} holds the non-finite number {value}")
        if isinstance(value, dict):
            stack += value.items()
        elif isinstance(value, list):
            stack += ((key, v) for v in value)
    return raw


def _fits(value, hint) -> bool:
    """Whether the JSON value ``value`` has the annotated type ``hint``: a
    float takes an int within a float's range, only a bool takes a bool, a
    tuple or list takes a list (or, from Python, a tuple) whose every element
    fits, and ``X | None`` takes null."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, h) for h in args)
    if origin in (tuple, list):
        return isinstance(value, (list, tuple)) and all(_fits(v, args[0]) for v in value)
    if isinstance(value, bool):  # an int subclass, but only a bool field takes one
        return hint is bool
    if hint is float:
        return isinstance(value, float) or (
            isinstance(value, int) and abs(value) <= sys.float_info.max
        )
    return isinstance(value, hint)


def _check_fields(raw: dict, hints: dict, where: str, optional=()) -> None:
    """Check the keys and value types of the JSON object ``raw`` against the
    annotations ``hints``: unknown keys, missing keys (other than those in
    ``optional``) and values that do not fit are each a ``ContractError``
    naming ``where`` and the key."""
    unknown = set(raw) - set(hints)
    if unknown:
        raise ContractError(f"{where}: unknown keys {sorted(unknown)}")
    for key, hint in hints.items():
        if key not in raw:
            if key not in optional:
                raise ContractError(f"{where}: missing key {key!r}")
        elif not _fits(raw[key], hint):
            expected = hint.__name__ if typing.get_origin(hint) is None else str(hint)
            raise ContractError(f"{where}: key {key!r} holds {raw[key]!r:.60}, expected {expected}")


# ---------------------------------------------------------------------------
# synthetic dataset


@dataclass
class DatasetInfo:
    root: Path
    classes: int
    in_channels: int
    dims: int
    cases: list[str]
    seed: int


_NOISE_STD = 0.1  # Gaussian noise added to every synthetic image


def _synthesize_case(rng: np.random.Generator, classes: int, size: tuple[int, ...]):
    """One (image, label) pair; every foreground class appears at least once."""
    ndim = len(size)
    image = np.zeros(size, dtype=np.float32)
    label = np.zeros(size, dtype=np.int32)
    grids = np.meshgrid(*[np.arange(n, dtype=np.float32) for n in size], indexing="ij")
    # radii as fractions of the extent: large enough to survive downsampling,
    # small enough that several blobs fit
    r_lo, r_hi = (0.10, 0.18) if ndim == 2 else (0.14, 0.24)
    n_fg = classes - 1
    for cls in range(1, classes):
        base = 0.3 if n_fg == 1 else 0.3 + 0.5 * (cls - 1) / (n_fg - 1)
        n_blobs = int(rng.integers(1, 5))
        for _ in range(n_blobs):
            center = [rng.uniform(0.2 * n, 0.8 * n) for n in size]
            radii = [rng.uniform(r_lo * n, r_hi * n) for n in size]
            dist = sum(((g - c) / r) ** 2 for g, c, r in zip(grids, center, radii))
            mask = dist <= 1.0
            intensity = base + rng.uniform(-0.08, 0.08)
            image[mask] = intensity
            label[mask] = cls
    image += rng.normal(0.0, _NOISE_STD, size=size).astype(np.float32)
    return image[None].astype(np.float32), label  # (1, *size) image, (*size) label


def generate_dataset(
    out_dir,
    num_cases: int,
    classes: int,
    dims: int,
    size,
    seed: int,
) -> DatasetInfo:
    """Write images/, labels/ and dataset.json under ``out_dir``.

    Deterministic: the same arguments produce byte-identical files.
    """
    if dims not in (2, 3):
        raise ContractError(f"dims must be 2 or 3, got {dims}")
    if classes < 2:
        raise ContractError(f"classes must be >= 2 (background + foreground), got {classes}")
    if num_cases < 1:
        raise ContractError(f"num_cases must be >= 1, got {num_cases}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    if isinstance(size, int):
        size = (size,) * dims
    size = tuple(int(s) for s in size)
    if len(size) != dims or any(s < 8 for s in size):
        raise ContractError(f"size must give {dims} dims of at least 8 voxels, got {size}")
    root = Path(out_dir)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "labels").mkdir(parents=True, exist_ok=True)
    cases = [f"case_{i:03d}" for i in range(num_cases)]
    for idx, case_id in enumerate(cases):
        image, label = _synthesize_case(_rng_stream(seed, idx), classes, size)
        write_xten(root / "images" / f"{case_id}.xten", image)
        write_xten(root / "labels" / f"{case_id}.xten", label)
    manifest = {
        "classes": classes,
        "in_channels": 1,
        "dims": dims,
        "cases": cases,
        "seed": seed,
    }
    with open(root / "dataset.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return DatasetInfo(root, classes, 1, dims, cases, seed)


def load_dataset(root) -> DatasetInfo:
    """Read and check ``root/dataset.json``; every malformed manifest is a
    ``ContractError`` that names the file and the key."""
    root = Path(root)
    manifest_path = root / "dataset.json"
    if not manifest_path.exists():
        raise ContractError(f"{root}: no dataset.json — not a dataset directory")
    manifest = _read_json_object(manifest_path)
    hints = typing.get_type_hints(DatasetInfo)
    del hints["root"]
    _check_fields(manifest, hints, str(manifest_path))
    if not manifest["cases"]:
        raise ContractError(f"{manifest_path}: key 'cases' must be a non-empty list of strings")
    # case ids become file names under images/ and labels/
    for case_id in manifest["cases"]:
        if case_id in ("", ".", "..") or any(c in case_id for c in ("/", os.sep, "\0")):
            raise ContractError(f"{manifest_path}: key 'cases' holds a bad case id {case_id!r}")
    if manifest["dims"] not in (2, 3):
        raise ContractError(f"{manifest_path}: key 'dims' must be 2 or 3, got {manifest['dims']}")
    if manifest["classes"] < 2:
        raise ContractError(
            f"{manifest_path}: key 'classes' must be >= 2, got {manifest['classes']}"
        )
    if manifest["in_channels"] < 1:
        raise ContractError(
            f"{manifest_path}: key 'in_channels' must be >= 1, got {manifest['in_channels']}"
        )
    return DatasetInfo(root=root, **manifest)


def load_case(info: DatasetInfo, case_id: str):
    """(image (C, *sp) float32, label (*sp) int32) for one case."""
    image = read_xten(info.root / "images" / f"{case_id}.xten")
    label = read_xten(info.root / "labels" / f"{case_id}.xten")
    if image.ndim != info.dims + 1 or image.shape[0] != info.in_channels:
        raise ContractError(
            f"{case_id}: image shape {image.shape} does not match dataset"
            f" ({info.in_channels} channels, {info.dims}-d)"
        )
    if label.shape != image.shape[1:]:
        raise ContractError(
            f"{case_id}: label shape {label.shape} does not match image {image.shape}"
        )
    return image.astype(np.float32, copy=False), label.astype(np.int32, copy=False)


# ---------------------------------------------------------------------------
# patch sampling


def _centre_pads(sp, patch) -> list[tuple[int, int]]:
    """The ``(before, after)`` zero padding that centres each spatial dim of
    ``sp`` shorter than ``patch`` in a patch-long one (the odd voxel goes
    after); ``(0, 0)`` for a dim that is long enough."""
    pads = [max(0, p - n) for p, n in zip(patch, sp)]
    return [(d // 2, d - d // 2) for d in pads]


def _pad_to_patch(image: np.ndarray, label: np.ndarray, patch: tuple[int, ...]):
    """Zero-pad (symmetrically) any spatial dim smaller than the patch."""
    pairs = _centre_pads(image.shape[1:], patch)
    if not any(map(any, pairs)):
        return image, label
    image = np.pad(image, [(0, 0)] + pairs)
    label = np.pad(label, pairs)
    return image, label


def sample_patch(
    image: np.ndarray,
    label: np.ndarray,
    patch: tuple[int, ...],
    rng: np.random.Generator,
    force_foreground_prob: float = 0.5,
):
    """Crop a random (image, label) patch; with probability
    ``force_foreground_prob`` the patch is constrained to contain at least one
    foreground voxel (when the case has any).

    The draw order is fixed (bernoulli, then voxel pick, then corners), so a
    given generator state always yields the same patch.
    """
    patch = tuple(int(p) for p in patch)
    if any(p < 1 for p in patch):
        raise ContractError(f"sample_patch: patch dims must be positive, got {patch}")
    if image.ndim != len(patch) + 1 or label.shape != image.shape[1:]:
        raise ContractError(
            f"sample_patch: image {image.shape} / label {label.shape} do not match"
            f" a {len(patch)}-d patch {patch}"
        )
    if not 0.0 <= force_foreground_prob <= 1.0:  # NaN fails too
        raise ContractError(
            f"sample_patch: force_foreground_prob must be in [0, 1], got {force_foreground_prob}"
        )
    image, label = _pad_to_patch(image, label, patch)
    sp = image.shape[1:]
    force = bool(rng.random() < force_foreground_prob)
    fg = np.argwhere(label > 0) if force else None
    corner = []
    if force and fg is not None and len(fg) > 0:
        voxel = fg[int(rng.integers(len(fg)))]
        for v, p, n in zip(voxel, patch, sp):
            lo = max(0, int(v) - p + 1)
            hi = min(n - p, int(v))
            corner.append(int(rng.integers(lo, hi + 1)))
    else:
        for p, n in zip(patch, sp):
            corner.append(int(rng.integers(0, n - p + 1)))
    sl = tuple(slice(c, c + p) for c, p in zip(corner, patch))
    return image[(slice(None),) + sl].copy(), label[sl].copy()
