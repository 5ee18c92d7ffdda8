"""h5py-style ``File``/``Group``/``Dataset`` API over the RH5F container.

The HPAC-ML runtime's data-collection path (§IV-B) writes, per annotated
region, an HDF5 group holding three datasets: ``inputs``, ``outputs``
and ``region_time``.  This module provides the API surface that code
needs — nested groups, appendable datasets (``maxshape``-like semantics
via :meth:`Dataset.append`), attributes, and context-managed files — on
top of the single-file binary format in :mod:`repro.h5.format`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .format import decode_tree, encode_tree

__all__ = ["File", "Group", "Dataset"]


class _State:
    """Change flag shared by every node of one tree."""

    __slots__ = ("dirty",)

    def __init__(self):
        self.dirty = False


def _marking(name):
    method = getattr(dict, name)

    def mutate(self, *args, **kwargs):
        self._state.dirty = True
        return method(self, *args, **kwargs)

    mutate.__name__ = name
    return mutate


class _Attrs(dict):
    """Attribute dict whose mutators mark the owning tree dirty."""

    __slots__ = ("_state",)

    def __init__(self, state: _State, items=()):
        super().__init__(items)
        self._state = state


for _name in ("__setitem__", "__delitem__", "__ior__", "update",
              "setdefault", "pop", "popitem", "clear"):
    setattr(_Attrs, _name, _marking(_name))
del _name


class Dataset:
    """An n-dimensional array within a group, appendable on axis 0.

    Appends buffer incoming chunks and concatenate lazily, so a long
    collection run costs one concatenation at flush rather than one per
    region invocation.
    """

    def __init__(self, name: str, data: np.ndarray, attrs: dict | None = None,
                 state: _State | None = None):
        self.name = name
        self._base = np.asarray(data)
        self._pending: list[np.ndarray] = []
        self._state = state or _State()
        self.attrs: dict = _Attrs(self._state, attrs or {})

    def _consolidate(self) -> None:
        if self._pending:
            self._base = np.concatenate([self._base] + self._pending, axis=0)
            self._pending.clear()

    @property
    def shape(self) -> tuple:
        self._consolidate()
        return self._base.shape

    @property
    def dtype(self):
        return self._base.dtype

    @property
    def nbytes(self) -> int:
        self._consolidate()
        return self._base.nbytes

    def __len__(self) -> int:
        return self.shape[0]

    def append(self, chunk: np.ndarray) -> None:
        """Append ``chunk`` along axis 0; trailing dims must match."""
        chunk = np.asarray(chunk, dtype=self._base.dtype)
        if chunk.shape[1:] != self._base.shape[1:]:
            raise ValueError(
                f"append shape {chunk.shape[1:]} does not match dataset "
                f"inner shape {self._base.shape[1:]}")
        self._pending.append(chunk.copy())
        self._state.dirty = True

    def read(self) -> np.ndarray:
        """Materialize the full array (copy-safe view of internal buffer)."""
        self._consolidate()
        return self._base

    def __getitem__(self, idx) -> np.ndarray:
        self._consolidate()
        return self._base[idx]

    def __repr__(self):
        return f"Dataset({self.name!r}, shape={self.shape}, dtype={self.dtype})"


class Group:
    """A node holding child groups, datasets, and attributes."""

    def __init__(self, name: str, state: _State | None = None):
        self.name = name
        self._groups: dict[str, Group] = {}
        self._datasets: dict[str, Dataset] = {}
        self._state = state or _State()
        self.attrs: dict = _Attrs(self._state)

    # -- navigation ----------------------------------------------------
    def _resolve(self, path: str):
        """Walk a '/'-separated path; returns (parent_group, leaf_name)."""
        parts = [p for p in path.split("/") if p]
        if not parts:
            raise KeyError("empty path")
        node = self
        for part in parts[:-1]:
            if part not in node._groups:
                raise KeyError(f"no such group {part!r} in {node.name!r}")
            node = node._groups[part]
        return node, parts[-1]

    def __contains__(self, path: str) -> bool:
        try:
            parent, leaf = self._resolve(path)
        except KeyError:
            return False
        return leaf in parent._groups or leaf in parent._datasets

    def __getitem__(self, path: str):
        parent, leaf = self._resolve(path)
        if leaf in parent._groups:
            return parent._groups[leaf]
        if leaf in parent._datasets:
            return parent._datasets[leaf]
        raise KeyError(f"{path!r} not found in group {self.name!r}")

    def keys(self):
        return list(self._groups) + list(self._datasets)

    def groups(self):
        return dict(self._groups)

    def datasets(self):
        return dict(self._datasets)

    # -- creation --------------------------------------------------------
    def create_group(self, path: str) -> "Group":
        """Create (or return existing) nested group, making intermediates."""
        node = self
        for part in [p for p in path.split("/") if p]:
            if part in node._datasets:
                raise ValueError(f"{part!r} already names a dataset")
            child = node._groups.get(part)
            if child is None:
                child = node._groups[part] = Group(part, self._state)
                self._state.dirty = True
            node = child
        return node

    def require_group(self, path: str) -> "Group":
        return self.create_group(path)

    def create_dataset(self, name: str, data: np.ndarray,
                       attrs: dict | None = None) -> Dataset:
        if "/" in name:
            parent_path, leaf = name.rsplit("/", 1)
            return self.create_group(parent_path).create_dataset(leaf, data, attrs)
        if name in self._groups:
            raise ValueError(f"{name!r} already names a group")
        if name in self._datasets:
            raise ValueError(f"dataset {name!r} already exists")
        ds = Dataset(name, np.asarray(data), attrs, self._state)
        self._datasets[name] = ds
        self._state.dirty = True
        return ds

    def require_dataset(self, name: str, inner_shape: tuple,
                        dtype=np.float64) -> Dataset:
        """Get an appendable dataset, creating it empty if absent."""
        if name in self._datasets:
            return self._datasets[name]
        empty = np.empty((0,) + tuple(inner_shape), dtype=dtype)
        return self.create_dataset(name, empty)

    def __repr__(self):
        return (f"Group({self.name!r}, groups={list(self._groups)}, "
                f"datasets={list(self._datasets)})")

    # -- (de)serialization to plain-dict tree -----------------------------
    def _to_tree(self) -> dict:
        return {
            "attrs": self.attrs,
            "groups": {n: g._to_tree() for n, g in self._groups.items()},
            "datasets": {n: {"data": d.read(), "attrs": d.attrs}
                         for n, d in self._datasets.items()},
        }

    @classmethod
    def _from_tree(cls, name: str, tree: dict,
                   state: _State | None = None) -> "Group":
        g = cls(name, state)
        g.attrs.update(tree.get("attrs", {}))
        for n, sub in tree.get("groups", {}).items():
            g._groups[n] = cls._from_tree(n, sub, g._state)
        for n, ds in tree.get("datasets", {}).items():
            g._datasets[n] = Dataset(n, ds["data"], ds.get("attrs"), g._state)
        g._state.dirty = False
        return g


class File(Group):
    """Root group bound to a path; context manager flushes on exit.

    Modes: ``"w"`` truncate-create, ``"a"`` read-modify-write (creates if
    missing), ``"r"`` read-only (writes raise at flush).

    The file is rewritten whole, and only when it is :attr:`dirty`: new
    (``"w"``, or ``"a"`` on a missing path), or changed since the last
    write by creating a group or dataset, appending, or editing an
    ``attrs`` dict.  In-place edits of arrays returned by
    :meth:`Dataset.read` are not tracked.

    ``atomic=True`` routes every flush through the crash-safe
    tmp+fsync+``os.replace`` path (:mod:`repro.ioutil`), so readers
    never observe a torn container — required for files that other
    processes tail while the writer is live (telemetry streams).
    """

    def __init__(self, path, mode: str = "r", atomic: bool = False):
        super().__init__("/")
        if mode not in ("r", "w", "a"):
            raise ValueError(f"invalid mode {mode!r}")
        self.path = Path(path)
        self.mode = mode
        self.atomic = atomic
        self._closed = False
        if mode in ("r", "a") and self.path.exists():
            tree = decode_tree(self.path.read_bytes())
            loaded = Group._from_tree("/", tree, self._state)
            self._groups = loaded._groups
            self._datasets = loaded._datasets
            self.attrs = loaded.attrs
        elif mode == "r":
            raise FileNotFoundError(str(self.path))
        else:
            self._state.dirty = True

    @property
    def dirty(self) -> bool:
        """True when the in-memory tree differs from the file on disk."""
        return self.mode != "r" and self._state.dirty

    def flush(self) -> None:
        """Rewrite the file if it is :attr:`dirty`."""
        if not self.dirty:
            return
        if self.atomic:
            from ..ioutil import atomic_write_bytes
            atomic_write_bytes(self.path, encode_tree(self._to_tree()))
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_bytes(encode_tree(self._to_tree()))
        self._state.dirty = False

    def close(self) -> None:
        if not self._closed:
            if self.dirty:
                self.flush()
            self._closed = True

    def __enter__(self) -> "File":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    @property
    def file_size(self) -> int:
        """On-disk size in bytes (0 if never flushed)."""
        return self.path.stat().st_size if self.path.exists() else 0
