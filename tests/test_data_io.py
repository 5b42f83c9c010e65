"""Tensor file format, synthetic data generator, patch sampler."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xlunet.data import (
    XtenBadDtype,
    XtenBadMagic,
    XtenBadVersion,
    XtenError,
    XtenTruncated,
    generate_dataset,
    load_case,
    load_dataset,
    read_xten,
    sample_patch,
    write_xten,
)
from xlunet.tensor import ContractError


# ---------------------------------------------------------------------------
# file format


def test_header_layout_is_stable(tmp_path):
    # magic, version, dtype code, ndim, reserved; then little-endian uint64
    # dims; uint8 has dtype code 2
    p = tmp_path / "a.xten"
    write_xten(p, np.zeros((2, 3), dtype=np.uint8))
    blob = p.read_bytes()
    assert blob[:8] == bytes.fromhex("5854454E 01 02 02 00".replace(" ", ""))
    assert struct.unpack("<2Q", blob[8:24]) == (2, 3)
    assert len(blob) == 24 + 6


@pytest.mark.parametrize("dtype", [np.float32, np.int32, np.uint8])
@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_roundtrip_bitwise(tmp_path, rng, dtype, rank):
    shape = tuple(rng.integers(1, 5, size=rank))
    if dtype == np.float32:
        arr = rng.normal(size=shape).astype(np.float32)
    else:
        arr = rng.integers(0, 200, size=shape).astype(dtype)
    p = tmp_path / "t.xten"
    write_xten(p, arr)
    back = read_xten(p)
    assert back.dtype == np.dtype(dtype)
    assert back.shape == shape
    assert np.array_equal(back, arr)
    assert back.tobytes() == arr.tobytes()


def test_write_rejects_float64_and_other_dtypes(tmp_path):
    with pytest.raises(XtenBadDtype):
        write_xten(tmp_path / "x.xten", np.zeros(3, dtype=np.float64))
    with pytest.raises(XtenBadDtype):
        write_xten(tmp_path / "x.xten", np.zeros(3, dtype=np.int64))


def test_write_rejects_zero_rank(tmp_path):
    with pytest.raises(XtenError):
        write_xten(tmp_path / "x.xten", np.float32(3.0))


def test_read_errors_are_distinct(tmp_path):
    good = tmp_path / "good.xten"
    write_xten(good, np.arange(6, dtype=np.int32).reshape(2, 3))
    blob = bytearray(good.read_bytes())

    bad_magic = tmp_path / "m.xten"
    bad_magic.write_bytes(b"NOPE" + bytes(blob[4:]))
    with pytest.raises(XtenBadMagic):
        read_xten(bad_magic)

    bad_version = tmp_path / "v.xten"
    v = blob.copy()
    v[4] = 9
    bad_version.write_bytes(bytes(v))
    with pytest.raises(XtenBadVersion):
        read_xten(bad_version)

    bad_dtype = tmp_path / "d.xten"
    d = blob.copy()
    d[5] = 7
    bad_dtype.write_bytes(bytes(d))
    with pytest.raises(XtenBadDtype):
        read_xten(bad_dtype)

    truncated = tmp_path / "t.xten"
    truncated.write_bytes(bytes(blob[:-5]))
    with pytest.raises(XtenTruncated):
        read_xten(truncated)

    header_only = tmp_path / "h.xten"
    header_only.write_bytes(bytes(blob[:6]))
    with pytest.raises(XtenTruncated):
        read_xten(header_only)

    trailing = tmp_path / "x.xten"
    trailing.write_bytes(bytes(blob) + b"\x00")
    with pytest.raises(XtenError):
        read_xten(trailing)

    reserved = tmp_path / "r.xten"
    r = blob.copy()
    r[7] = 1
    reserved.write_bytes(bytes(r))
    with pytest.raises(XtenError):
        read_xten(reserved)


def test_read_returns_native_writable_copy(tmp_path):
    p = tmp_path / "w.xten"
    write_xten(p, np.ones((2, 2), dtype=np.float32))
    arr = read_xten(p)
    assert arr.dtype.isnative
    arr[0, 0] = 5.0  # must not raise


@given(
    hnp.arrays(
        np.float32,
        hnp.array_shapes(min_dims=1, max_dims=4, max_side=6),
        elements=st.floats(-1e6, 1e6, width=32),
    )
)
@settings(max_examples=25)
def test_roundtrip_property(tmp_path_factory, x):
    p = tmp_path_factory.mktemp("xten") / "p.xten"
    write_xten(p, x)
    assert read_xten(p).tobytes() == x.tobytes()


def _xten_blob(code, dims, payload=b""):
    header = struct.pack("<4sBBBB", b"XTEN", 1, code, len(dims), 0)
    return header + struct.pack(f"<{len(dims)}Q", *dims) + payload


_xten_headers = st.builds(
    _xten_blob,
    st.integers(0, 3),  # 3 is not a dtype code
    st.lists(
        st.one_of(st.integers(0, 4), st.integers(0, 2**64 - 1)),
        min_size=1,
        max_size=70,  # past numpy's limit on ndim
    ),
    st.binary(max_size=64),
)


@example(_xten_blob(0, (0, 2**62)))
@example(_xten_blob(0, (2**63, 0)))
@example(_xten_blob(2, (1,) * 65, b"\x00"))
@given(st.one_of(st.binary(max_size=96), _xten_headers))
@settings(max_examples=300, deadline=None)
def test_read_xten_raises_only_xten_errors(tmp_path_factory, blob):
    p = tmp_path_factory.getbasetemp() / "fuzz.xten"
    p.write_bytes(blob)
    try:
        arr = read_xten(p)
    except XtenError:
        return
    assert blob.endswith(arr.tobytes())


# ---------------------------------------------------------------------------
# synthetic dataset


def test_generate_dataset_layout_and_ranges(tmp_path):
    info = generate_dataset(tmp_path / "ds", num_cases=4, classes=3, dims=2, size=(48, 40), seed=3)
    assert info.classes == 3 and info.dims == 2 and info.cases == [
        "case_000", "case_001", "case_002", "case_003"
    ]
    for cid in info.cases:
        img, lab = load_case(info, cid)
        assert img.shape == (1, 48, 40) and img.dtype == np.float32
        assert lab.shape == (48, 40) and lab.dtype == np.int32
        assert lab.min() >= 0 and lab.max() <= 2
        assert np.isfinite(img).all()
    # every foreground class appears somewhere in the dataset
    seen = set()
    for cid in info.cases:
        _, lab = load_case(info, cid)
        seen |= set(np.unique(lab).tolist())
    assert seen == {0, 1, 2}


def test_generate_dataset_3d(tmp_path):
    info = generate_dataset(tmp_path / "ds", num_cases=2, classes=2, dims=3, size=(16, 20, 18), seed=0)
    img, lab = load_case(info, "case_000")
    assert img.shape == (1, 16, 20, 18)
    assert lab.shape == (16, 20, 18)
    assert lab.max() <= 1


def test_generation_is_deterministic(tmp_path):
    a = generate_dataset(tmp_path / "a", num_cases=2, classes=3, dims=2, size=(32, 32), seed=9)
    b = generate_dataset(tmp_path / "b", num_cases=2, classes=3, dims=2, size=(32, 32), seed=9)
    for cid in a.cases:
        ia, la = load_case(a, cid)
        ib, lb = load_case(b, cid)
        assert ia.tobytes() == ib.tobytes()
        assert la.tobytes() == lb.tobytes()


def test_cases_are_independent_of_total_count(tmp_path):
    # case i is a function of (seed, i), so growing the dataset keeps
    # existing cases byte-identical
    small = generate_dataset(tmp_path / "s", num_cases=2, classes=3, dims=2, size=(32, 32), seed=4)
    large = generate_dataset(tmp_path / "l", num_cases=5, classes=3, dims=2, size=(32, 32), seed=4)
    for cid in small.cases:
        ia, la = load_case(small, cid)
        ib, lb = load_case(large, cid)
        assert ia.tobytes() == ib.tobytes()
        assert la.tobytes() == lb.tobytes()


def test_different_seeds_differ(tmp_path):
    a = generate_dataset(tmp_path / "a", num_cases=1, classes=2, dims=2, size=(32, 32), seed=1)
    b = generate_dataset(tmp_path / "b", num_cases=1, classes=2, dims=2, size=(32, 32), seed=2)
    ia, _ = load_case(a, "case_000")
    ib, _ = load_case(b, "case_000")
    assert ia.tobytes() != ib.tobytes()


def test_load_dataset_rejects_tampered_manifest(tmp_path):
    import json

    generate_dataset(tmp_path / "ds", num_cases=1, classes=2, dims=2, size=(32, 32), seed=0)
    manifest = tmp_path / "ds" / "dataset.json"
    raw = json.loads(manifest.read_text())
    raw["surprise"] = 1
    manifest.write_text(json.dumps(raw))
    with pytest.raises(ContractError, match="surprise"):
        load_dataset(tmp_path / "ds")
    del raw["surprise"], raw["classes"]
    manifest.write_text(json.dumps(raw))
    with pytest.raises(ContractError):
        load_dataset(tmp_path / "ds")


_DATASET_FIELDS = ("classes", "in_channels", "dims", "cases", "seed")
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.floats(allow_nan=False)
    | st.sampled_from(["", ".", "..", "a/b", "case_000"])
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def dataset_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    generate_dataset(root, num_cases=2, classes=3, dims=2, size=(8, 8), seed=0)
    return root, (root / "dataset.json").read_bytes()


def _load_from(root, blob):
    """Load the dataset with ``blob`` as its dataset.json; only a
    ContractError may escape, and a loaded dataset is well-typed."""
    (root / "dataset.json").write_bytes(blob)
    try:
        info = load_dataset(root)
    except ContractError as e:
        assert "dataset.json" in str(e)
        return None
    assert info.dims in (2, 3) and info.classes >= 2 and info.in_channels >= 1
    assert info.cases
    assert all(isinstance(c, str) and c not in ("", ".", "..") and "/" not in c for c in info.cases)
    return info


@given(st.one_of(st.binary(max_size=200), st.text(max_size=100).map(str.encode)))
@settings(max_examples=150, deadline=None)
def test_fuzzed_dataset_bytes_raise_named_errors(dataset_manifest, blob):
    root, good = dataset_manifest
    try:
        _load_from(root, blob)
    finally:
        (root / "dataset.json").write_bytes(good)


@example(set(), {"cases": 5})
@example(set(), {"classes": None})
@example(set(), {"classes": "x"})
@example(set(), {"dims": True})
@example(set(), {"cases": ["../labels/case_000"]})
@example(set(), {"cases": []})
@given(
    st.sets(st.sampled_from(_DATASET_FIELDS)),
    st.dictionaries(st.sampled_from(_DATASET_FIELDS), _json_values, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_fuzzed_dataset_fields_raise_named_errors(dataset_manifest, dropped, replaced):
    import json

    root, good = dataset_manifest
    fuzzed = {k: v for k, v in json.loads(good).items() if k not in dropped}
    fuzzed.update(replaced)
    try:
        info = _load_from(root, json.dumps(fuzzed).encode())
    finally:
        (root / "dataset.json").write_bytes(good)
    if info is not None:
        assert not dropped and (info.classes, info.dims, info.cases) == (
            fuzzed["classes"], fuzzed["dims"], fuzzed["cases"]
        )


def test_generate_dataset_validates_args(tmp_path):
    with pytest.raises(ContractError):
        generate_dataset(tmp_path / "x", num_cases=0, classes=3, dims=2, size=(32, 32), seed=0)
    with pytest.raises(ContractError):
        generate_dataset(tmp_path / "x", num_cases=1, classes=1, dims=2, size=(32, 32), seed=0)
    with pytest.raises(ContractError):
        generate_dataset(tmp_path / "x", num_cases=1, classes=2, dims=4, size=(8, 8, 8, 8), seed=0)
    with pytest.raises(ContractError):
        generate_dataset(tmp_path / "x", num_cases=1, classes=2, dims=2, size=(32,), seed=0)


# ---------------------------------------------------------------------------
# patch sampler


def _toy_case():
    img = np.zeros((1, 12, 12), dtype=np.float32)
    lab = np.zeros((12, 12), dtype=np.int32)
    lab[2, 3] = 1  # single foreground voxel
    img[0, 2, 3] = 1.0
    return img, lab


def test_forced_foreground_patch_contains_foreground():
    img, lab = _toy_case()
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(20):
        pi, pl = sample_patch(img, lab, (4, 4), rng, force_foreground_prob=1.0)
        assert pi.shape == (1, 4, 4) and pl.shape == (4, 4)
        assert (pl == 1).any()
        hits += 1
    assert hits == 20


def test_unforced_sampling_just_needs_valid_corners():
    img, lab = _toy_case()
    rng = np.random.default_rng(0)
    for _ in range(10):
        pi, pl = sample_patch(img, lab, (5, 5), rng, force_foreground_prob=0.0)
        assert pi.shape == (1, 5, 5)


def test_all_background_volume_falls_back_to_uniform():
    img = np.zeros((1, 8, 8), dtype=np.float32)
    lab = np.zeros((8, 8), dtype=np.int32)
    rng = np.random.default_rng(0)
    pi, pl = sample_patch(img, lab, (4, 4), rng, force_foreground_prob=1.0)
    assert pl.shape == (4, 4)


def test_patch_larger_than_volume_pads():
    img, lab = _toy_case()
    rng = np.random.default_rng(0)
    pi, pl = sample_patch(img, lab, (16, 16), rng)
    assert pi.shape == (1, 16, 16) and pl.shape == (16, 16)
    assert (pl == 1).sum() == 1  # the lone voxel survives, padding is zeros


def test_patch_equal_to_volume_is_identity():
    img, lab = _toy_case()
    rng = np.random.default_rng(0)
    pi, pl = sample_patch(img, lab, (12, 12), rng)
    np.testing.assert_array_equal(pi, img)
    np.testing.assert_array_equal(pl, lab)


def test_sampler_is_deterministic_given_rng_state():
    img, lab = _toy_case()
    a = sample_patch(img, lab, (4, 4), np.random.default_rng(42))
    b = sample_patch(img, lab, (4, 4), np.random.default_rng(42))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_sampler_validates(rng):
    img, lab = _toy_case()
    with pytest.raises(ContractError):
        sample_patch(img, lab, (4,), rng)
    with pytest.raises(ContractError):
        sample_patch(img, lab[None], (4, 4), rng)
    with pytest.raises(ContractError):
        sample_patch(img, lab, (0, 4), rng)
    for prob in (1.5, -0.5, math.nan):
        with pytest.raises(ContractError, match="force_foreground_prob"):
            sample_patch(img, lab, (4, 4), rng, prob)
