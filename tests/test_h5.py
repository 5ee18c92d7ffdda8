"""Hierarchical datastore: roundtrips, append semantics, failure modes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.h5 import File, Group, Dataset, FormatError, encode_tree, decode_tree


def test_file_roundtrip(tmp_path):
    path = tmp_path / "data.rh5"
    with File(path, "w") as f:
        g = f.create_group("region/inner")
        g.create_dataset("inputs", np.arange(12.0).reshape(3, 4),
                         attrs={"units": "K"})
        g.attrs["note"] = "hello"
        f.attrs["version"] = 2

    with File(path, "r") as f:
        assert f.attrs["version"] == 2
        g = f["region/inner"]
        assert g.attrs["note"] == "hello"
        ds = g["inputs"]
        np.testing.assert_allclose(ds.read(), np.arange(12.0).reshape(3, 4))
        assert ds.attrs["units"] == "K"


def test_dataset_append_and_len():
    ds = Dataset("d", np.zeros((0, 3)))
    ds.append(np.ones((2, 3)))
    ds.append(np.full((1, 3), 2.0))
    assert len(ds) == 3
    np.testing.assert_allclose(ds[2], [2, 2, 2])
    with pytest.raises(ValueError):
        ds.append(np.ones((1, 4)))


def test_append_mode_accumulates(tmp_path):
    path = tmp_path / "acc.rh5"
    for i in range(3):
        with File(path, "a") as f:
            g = f.require_group("r")
            ds = g.require_dataset("vals", (2,))
            ds.append(np.full((1, 2), float(i)))
    with File(path, "r") as f:
        data = f["r/vals"].read()
    assert data.shape == (3, 2)
    np.testing.assert_allclose(data[:, 0], [0, 1, 2])


def test_read_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        File(tmp_path / "nope.rh5", "r")


def test_invalid_mode(tmp_path):
    with pytest.raises(ValueError):
        File(tmp_path / "x.rh5", "q")


def test_group_name_conflicts():
    g = Group("/")
    g.create_dataset("x", np.zeros(3))
    with pytest.raises(ValueError):
        g.create_group("x")
    with pytest.raises(ValueError):
        g.create_dataset("x", np.zeros(3))
    g.create_group("sub")
    with pytest.raises(ValueError):
        g.create_dataset("sub", np.zeros(2))


def test_nested_path_creation_and_contains():
    g = Group("/")
    g.create_dataset("a/b/c", np.ones(2))
    assert "a" in g
    assert "a/b/c" in g
    assert "a/b/missing" not in g
    assert "z/c" not in g
    with pytest.raises(KeyError):
        g["a/b/zz"]


def test_keys_and_listing():
    g = Group("/")
    g.create_group("g1")
    g.create_dataset("d1", np.zeros(1))
    assert set(g.keys()) == {"g1", "d1"}
    assert set(g.groups()) == {"g1"}
    assert set(g.datasets()) == {"d1"}


def test_require_dataset_idempotent():
    g = Group("/")
    d1 = g.require_dataset("x", (4,), np.float32)
    d2 = g.require_dataset("x", (4,))
    assert d1 is d2
    assert d1.dtype == np.float32


def test_decode_rejects_bad_magic():
    with pytest.raises(FormatError):
        decode_tree(b"NOPE" + b"\0" * 16)


def test_decode_recovers_truncated_row_prefix():
    # Unclean shutdown mid-append: the intact row prefix is recovered
    # with a warning instead of refusing the whole database.
    blob = encode_tree({"attrs": {}, "groups": {},
                        "datasets": {"x": {"data": np.arange(10.0)}}})
    with pytest.warns(RuntimeWarning, match="truncated"):
        tree = decode_tree(blob[:-8])
    np.testing.assert_array_equal(tree["datasets"]["x"]["data"],
                                  np.arange(9.0))


def test_decode_rejects_unrecoverable_truncation():
    # A dataset cut before its first complete row cannot be salvaged.
    blob = encode_tree({"attrs": {}, "groups": {},
                        "datasets": {"x": {"data": np.arange(10.0)}}})
    with pytest.raises(FormatError):
        decode_tree(blob[:-78])


def test_various_dtypes_roundtrip(tmp_path):
    path = tmp_path / "dt.rh5"
    arrays = {
        "f64": np.linspace(0, 1, 7),
        "f32": np.linspace(0, 1, 7, dtype=np.float32),
        "i64": np.arange(5),
        "i32": np.arange(5, dtype=np.int32),
        "u8": np.arange(5, dtype=np.uint8),
        "b": np.array([True, False, True]),
    }
    with File(path, "w") as f:
        for name, arr in arrays.items():
            f.create_dataset(name, arr)
    with File(path, "r") as f:
        for name, arr in arrays.items():
            got = f[name].read()
            assert got.dtype == arr.dtype
            np.testing.assert_array_equal(got, arr)


def test_file_size(tmp_path):
    path = tmp_path / "sz.rh5"
    f = File(path, "w")
    assert f.file_size == 0
    f.create_dataset("big", np.zeros((1000, 10)))
    f.close()
    assert f.file_size > 1000 * 10 * 8


def test_file_rewrites_only_when_dirty(tmp_path):
    path = tmp_path / "d.rh5"
    with File(path, "w") as f:
        assert f.dirty                       # a new file must be written
        g = f.create_group("g")
        g.create_dataset("x", np.zeros((2, 3)))
        f.flush()
        assert not f.dirty
    mtime = path.stat().st_mtime_ns
    with File(path, "a") as f:
        assert not f.dirty                   # loading is not a change
        assert f["g/x"].shape == (2, 3)
    assert path.stat().st_mtime_ns == mtime
    for edit in (lambda f: f["g/x"].append(np.ones((1, 3))),
                 lambda f: f["g"].attrs.__setitem__("n", 3),
                 lambda f: f["g/x"].attrs.update(units="m"),
                 lambda f: f.create_group("h")):
        with File(path, "a") as f:
            edit(f)
            assert f.dirty
    with File(path, "r") as f:
        assert f["g/x"].shape == (3, 3)
        assert f["g"].attrs["n"] == 3
        assert f["g/x"].attrs["units"] == "m"
        assert "h" in f and not f.dirty


@given(st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d"]),
              st.integers(1, 4), st.integers(1, 4)),
    min_size=1, max_size=6, unique_by=lambda t: t[0]))
@settings(max_examples=30, deadline=None)
def test_encode_decode_property(datasets):
    """Property: encode→decode reproduces arbitrary dataset trees."""
    rng = np.random.default_rng(0)
    tree = {"attrs": {"n": len(datasets)}, "groups": {}, "datasets": {}}
    for name, r, c in datasets:
        tree["datasets"][name] = {"data": rng.normal(size=(r, c)),
                                  "attrs": {"rows": r}}
    out = decode_tree(encode_tree(tree))
    assert out["attrs"] == {"n": len(datasets)}
    for name, r, c in datasets:
        np.testing.assert_allclose(out["datasets"][name]["data"],
                                   tree["datasets"][name]["data"])
        assert out["datasets"][name]["attrs"] == {"rows": r}
