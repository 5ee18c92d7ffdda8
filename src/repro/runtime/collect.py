"""Data-collection backend (§IV-B).

During collection the runtime maps the region's inputs and outputs to
tensors through the data bridge and appends them — together with the
measured execution time of the wrapped code region — to a hierarchical
database.  The layout matches the paper: one group per annotated
region, holding ``inputs``, ``outputs`` and ``region_time`` datasets
whose outer dimension is the invocation index, "directly readable by
the built-in PyTorch data loaders" (here: :mod:`repro.nn.training`).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..h5 import File

__all__ = ["DataCollector", "load_training_data"]


class _RegionBuffer:
    """Pending chunks for one region, concatenated once at flush.

    Collection rides the application's hot loop, so ``record`` must be
    cheap: it validates and snapshots, and all database work (group
    lookups, dataset appends) happens once per flush rather than once
    per invocation — keeping the Fig. 6 COLLECT_IO share honest.
    """

    __slots__ = ("inner_in", "inner_out", "inputs", "outputs", "times",
                 "invocations")

    def __init__(self, inner_in: tuple, inner_out: tuple):
        self.inner_in = inner_in
        self.inner_out = inner_out
        self.inputs: list = []
        self.outputs: list = []
        self.times: list = []
        self.invocations = 0

    def clear(self) -> None:
        self.inputs.clear()
        self.outputs.clear()
        self.times.clear()
        self.invocations = 0


class DataCollector:
    """Appends (inputs, outputs, region_time) triples per region group."""

    def __init__(self, db_path):
        self.db_path = Path(db_path)
        self._file: File | None = None
        self._buffers: dict[str, _RegionBuffer] = {}

    def _open(self) -> File:
        if self._file is None:
            mode = "a" if self.db_path.exists() else "w"
            self._file = File(self.db_path, mode)
        return self._file

    def record(self, region_name: str, inputs: np.ndarray,
               outputs: np.ndarray, region_time: float) -> None:
        """Buffer one invocation's data (persisted at :meth:`flush`).

        ``inputs``/``outputs`` are batch-major: shape ``(B, *features)``.
        Each invocation contributes its batch entries; ``region_time``
        is replicated per entry so sample-level runtime statistics
        remain available to the ML engineer, as §IV-B prescribes.
        """
        inputs = np.asarray(inputs)
        outputs = np.asarray(outputs)
        if len(inputs) != len(outputs):
            raise ValueError(
                f"inputs ({len(inputs)}) and outputs ({len(outputs)}) "
                "disagree on batch size")
        buf = self._buffers.get(region_name)
        if buf is None:
            # Validate against a pre-existing database now, so a shape
            # mismatch fails at the offending record() call (as the
            # unbuffered collector did) rather than at flush time.
            if self._file is not None or self.db_path.exists():
                fh = self._open()
                if region_name in fh:
                    group = fh[region_name]
                    for ds_name, inner in (("inputs", inputs.shape[1:]),
                                           ("outputs", outputs.shape[1:])):
                        if ds_name in group and \
                                group[ds_name].shape[1:] != inner:
                            raise ValueError(
                                f"record shape {inner} does not match "
                                f"existing dataset inner shape "
                                f"{group[ds_name].shape[1:]} for "
                                f"{region_name}/{ds_name}")
            buf = self._buffers[region_name] = _RegionBuffer(
                inputs.shape[1:], outputs.shape[1:])
        if inputs.shape[1:] != buf.inner_in or \
                outputs.shape[1:] != buf.inner_out:
            raise ValueError(
                f"append shape {inputs.shape[1:]}/{outputs.shape[1:]} does "
                f"not match dataset inner shape {buf.inner_in}/{buf.inner_out}")
        buf.inputs.append(np.array(inputs))       # snapshot: callers reuse
        buf.outputs.append(np.array(outputs))
        buf.times.append(np.full(len(inputs), region_time, dtype=np.float64))
        buf.invocations += 1

    def flush(self) -> None:
        """Concatenate buffered chunks into the database and sync it.

        The database is rewritten only when rows were appended; with
        nothing buffered this is a no-op.
        """
        appended = False
        for region_name, buf in self._buffers.items():
            if not buf.invocations:
                continue
            appended = True
            fh = self._open()
            group = fh.require_group(region_name)
            xs = buf.inputs[0] if len(buf.inputs) == 1 \
                else np.concatenate(buf.inputs, axis=0)
            ys = buf.outputs[0] if len(buf.outputs) == 1 \
                else np.concatenate(buf.outputs, axis=0)
            ts = buf.times[0] if len(buf.times) == 1 \
                else np.concatenate(buf.times, axis=0)
            group.require_dataset("inputs", xs.shape[1:], xs.dtype).append(xs)
            group.require_dataset("outputs", ys.shape[1:], ys.dtype).append(ys)
            group.require_dataset("region_time", (), np.float64).append(ts)
            group.attrs["invocations"] = (group.attrs.get("invocations", 0)
                                          + buf.invocations)
            buf.clear()
        if appended:
            self._file.flush()

    def close(self) -> None:
        try:
            self.flush()
        finally:
            if self._file is not None:
                self._file.close()
                self._file = None

    @property
    def bytes_written(self) -> int:
        self.flush()
        return self.db_path.stat().st_size if self.db_path.exists() else 0


def load_training_data(db_path, region_name: str):
    """Read a region's collected data: ``(inputs, outputs, region_time)``.

    The triple is trimmed to its common row count: after an unclean
    shutdown mid-append the h5 layer recovers a truncated final dataset
    as its intact row prefix (with a warning), which can leave the
    three datasets one partial record apart.
    """
    with File(db_path, "r") as fh:
        group = fh[region_name]
        inputs = group["inputs"].read().copy()
        outputs = group["outputs"].read().copy()
        times = group["region_time"].read().copy()
    rows = min(len(inputs), len(outputs), len(times))
    return inputs[:rows], outputs[:rows], times[:rows]
