"""Descriptor-cache correctness and multi-region databases."""

import numpy as np
import pytest

from repro.api import approx_ml
from repro.bridge import BridgeError
from repro.nn import Linear, Sequential, save_model
from repro.runtime import EventLog, load_training_data

DIRECTIVES = """
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(predicated:flag) in(x) out(y) db("{db}") model("{model}")
"""


def make_region(db, model, log=None):
    @approx_ml(DIRECTIVES.format(db=db, model=model), event_log=log)
    def region(x, y, N, flag=False):
        y[:N] = x[:N].sum(axis=1)

    return region


def identity_model(path):
    model = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
    model[0].weight.data = np.array([[1.0, 1.0]])
    model[0].bias.data = np.array([0.0])
    save_model(model, path)


def test_cache_reuses_descriptors_for_same_buffer(tmp_path):
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")
    x = np.random.default_rng(0).normal(size=(8, 2))
    y = np.zeros(8)
    for _ in range(5):
        region(x, y, 8, flag=True)
    np.testing.assert_allclose(y, x.sum(axis=1), atol=1e-12)
    # One cached entry per (map, direction) after repeated invocations.
    assert len(region._map_cache) == 2


def test_cache_sees_fresh_data_in_same_buffer(tmp_path):
    """Views alias the buffer: new data must flow through cached maps."""
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")
    x = np.zeros((4, 2))
    y = np.zeros(4)
    region(x, y, 4, flag=True)
    np.testing.assert_allclose(y, np.zeros(4), atol=1e-12)
    x[:] = 3.0                         # mutate in place
    region(x, y, 4, flag=True)
    np.testing.assert_allclose(y, np.full(4, 6.0), atol=1e-12)


def test_cache_invalidated_by_new_array(tmp_path):
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")
    y = np.zeros(4)
    a = np.ones((4, 2))
    b = np.full((4, 2), 2.0)
    region(a, y, 4, flag=True)
    np.testing.assert_allclose(y, np.full(4, 2.0), atol=1e-12)
    region(b, y, 4, flag=True)         # different buffer, same shape
    np.testing.assert_allclose(y, np.full(4, 4.0), atol=1e-12)


def test_cache_invalidated_by_changed_extent(tmp_path):
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")
    x = np.arange(16.0).reshape(8, 2)
    y = np.zeros(8)
    region(x, y, 8, flag=True)
    y2 = np.zeros(8)
    region(x, y2, 4, flag=True)        # N shrinks: only 4 entries written
    np.testing.assert_allclose(y2[:4], x[:4].sum(axis=1), atol=1e-12)
    assert y2[4:].sum() == 0.0


def test_two_regions_share_one_database(tmp_path):
    db = tmp_path / "shared.rh5"
    log = EventLog()

    @approx_ml(DIRECTIVES.format(db=db, model=tmp_path / "a.rnm"),
               name="alpha", event_log=log)
    def alpha(x, y, N, flag=False):
        y[:N] = x[:N].sum(axis=1)

    @approx_ml(DIRECTIVES.format(db=db, model=tmp_path / "b.rnm"),
               name="beta", event_log=log)
    def beta(x, y, N, flag=False):
        y[:N] = x[:N].prod(axis=1)

    x = np.random.default_rng(1).normal(size=(6, 2))
    alpha(x, np.zeros(6), 6)
    alpha.flush()
    beta(x, np.zeros(6), 6)
    beta.flush()

    xa, ya, _ = load_training_data(db, "alpha")
    xb, yb, _ = load_training_data(db, "beta")
    np.testing.assert_allclose(ya[:, 0], x.sum(axis=1), atol=1e-12)
    np.testing.assert_allclose(yb[:, 0], x.prod(axis=1), atol=1e-12)


def test_region_repr_and_flush_idempotent(tmp_path):
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    assert "region" in repr(region)
    region(np.ones((3, 2)), np.zeros(3), 3)
    region.flush()
    region.flush()
    region.close()
    region.close()


# ----------------------------------------------------------------------
# Layout-keyed descriptors: fresh buffers of a cached layout rebind
# ----------------------------------------------------------------------

def count_concretize(monkeypatch):
    """Count the region runtime's full (symbolic) concretizations."""
    from repro.runtime import region as region_module
    calls = []
    real = region_module.concretize

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(region_module, "concretize", counting)
    return calls


def test_fresh_row_views_rebind_cached_descriptors(tmp_path, monkeypatch):
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")
    calls = count_concretize(monkeypatch)
    x = np.random.default_rng(2).normal(size=(256, 2))
    y = np.zeros(256)
    for i in range(256):
        region(x[i:i + 1], y[i:i + 1], 1, flag=True)
    np.testing.assert_allclose(y, x.sum(axis=1), atol=1e-12)
    assert len(calls) == 2                  # one per map, first call only
    assert len(region._map_cache) == 2


def test_rebind_keeps_deferred_scatters_in_their_rows(tmp_path):
    """A batched region scatters at flush time through the maps it
    concretized at submit time; rebinding must not retarget those."""
    identity_model(tmp_path / "m.rnm")

    @approx_ml(DIRECTIVES.format(db=tmp_path / "d.rh5",
                                 model=tmp_path / "m.rnm"),
               auto_batch=True, max_batch_rows=64)
    def region(x, y, N, flag=False):
        y[:N] = x[:N].sum(axis=1)

    x = np.random.default_rng(3).normal(size=(100, 2))
    y = np.zeros(100)
    for i in range(100):
        region(x[i:i + 1], y[i:i + 1], 1, flag=True)
    region.flush()
    np.testing.assert_allclose(y, x.sum(axis=1), atol=1e-12)
    assert len(region._map_cache) == 2


@pytest.mark.parametrize("make_x", [
    lambda x: x.astype(np.float32),                    # other dtype
    lambda x: np.ascontiguousarray(                    # other strides
        np.concatenate([x, np.zeros_like(x)], axis=1))[:, :2],
], ids=["float32", "strides"])
def test_other_layout_reconcretizes(tmp_path, monkeypatch, make_x):
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")
    calls = count_concretize(monkeypatch)
    x = np.random.default_rng(4).normal(size=(1, 2))
    y = np.zeros(1)
    region(x, y, 1, flag=True)
    other = make_x(x.copy())
    assert other.shape == x.shape and other.flags.c_contiguous
    assert (other.dtype, other.strides) != (x.dtype, x.strides)
    y2 = np.zeros(1)
    region(other, y2, 1, flag=True)
    np.testing.assert_allclose(y2, x.sum(axis=1), rtol=1e-6)
    assert sum(a is other for a in calls) == 1   # a miss, not a rebind
    assert len(region._map_cache) == 3


def test_rebound_to_map_views_stay_read_only(tmp_path):
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")
    x = np.ones((4, 2))
    for i in range(4):
        region(x[i:i + 1], np.zeros(1), 1, flag=True)
    maps = list(region._map_cache.values())
    to_map = next(cm for cm in maps if not cm.writable)
    from_map = next(cm for cm in maps if cm.writable)
    assert to_map.array.base is x                       # was rebound
    assert not to_map.views()[0].view.flags.writeable
    assert from_map.views()[0].view.flags.writeable
    assert x.flags.writeable                            # app memory untouched


def test_non_contiguous_argument_raises(tmp_path):
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")
    x = np.ones((8, 2))
    region(x[:4], np.zeros(4), 4, flag=True)
    with pytest.raises(BridgeError, match="C-contiguous"):
        region(x[::2], np.zeros(4), 4, flag=True)
    cm = next(iter(region._map_cache.values()))
    with pytest.raises(BridgeError, match="C-contiguous"):
        cm.rebind(np.ones((4, 4))[:, ::2])


def test_range_overrunning_smaller_layout_raises(tmp_path):
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")
    region(np.ones((8, 2)), np.zeros(8), 8, flag=True)
    with pytest.raises(BridgeError, match="outside"):
        region(np.ones((4, 2)), np.zeros(8), 8, flag=True)
