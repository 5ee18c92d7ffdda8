"""Transfer cost model and the simulated device itself.

The cost model is the classic latency+bandwidth line: moving ``n`` bytes
costs ``latency + n / bandwidth`` seconds of *simulated* time.  Defaults
approximate a PCIe 4.0 x16 link (the A100 host link in the paper's
platform): ~25 GB/s effective bandwidth, ~10 µs launch latency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clock import VirtualClock
from .memory import DeviceBuffer, MemorySpace

__all__ = ["TransferModel", "Device"]


@dataclass(frozen=True)
class TransferModel:
    """Latency/bandwidth model for host<->device copies."""

    bandwidth_bytes_per_s: float = 25e9
    latency_s: float = 10e-6

    def cost(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s


class Device:
    """A simulated accelerator with its own memory space and clock.

    All explicit movement between spaces goes through :meth:`to_device`
    / :meth:`to_host`, which charge the transfer model onto the clock.
    Compute run via :meth:`launch` is measured in real wall time.

    ``dense_speedup`` models the accelerator's structural advantage on
    dense linear algebra: on the paper's A100, NN inference runs as
    vendor-optimized GEMM at ~47% of peak compute while the scientific
    kernels it replaces reach a few percent via scattered access (paper
    Observation 2: MiniBUDE's kernel at 33.5% compute / 6.1% bandwidth
    vs the model's 47.2% / 31.5%).  Host NumPy has no such gap — both
    sides run at similar efficiency — so the simulator scales *measured*
    dense-op wall time by this factor to recover the device's relative
    economics.  README.md § Substitutions documents the
    calibration.
    """

    def __init__(self, transfer_model: TransferModel | None = None,
                 clock: VirtualClock | None = None, name: str = "sim0",
                 dense_speedup: float = 8.0):
        if dense_speedup <= 0:
            raise ValueError(f"dense_speedup must be positive: {dense_speedup}")
        self.name = name
        self.transfer_model = transfer_model or TransferModel()
        self.clock = clock or VirtualClock()
        self.dense_speedup = dense_speedup
        self.bytes_to_device = 0
        self.bytes_to_host = 0
        self.kernel_launches = 0

    def dense_time(self, wall_seconds: float) -> float:
        """Device-equivalent time of a dense operation measured on host."""
        return wall_seconds / self.dense_speedup

    # -- transfers -------------------------------------------------------
    def to_device(self, array: np.ndarray) -> DeviceBuffer:
        """Copy host data into device memory, charging transfer time."""
        array = np.asarray(array)
        self.clock.advance(self.transfer_model.cost(array.nbytes))
        self.bytes_to_device += array.nbytes
        return DeviceBuffer(array.copy(), MemorySpace.DEVICE)

    def to_host(self, buf: DeviceBuffer) -> np.ndarray:
        """Copy device data back to the host, charging transfer time."""
        data = buf.require(MemorySpace.DEVICE)
        self.clock.advance(self.transfer_model.cost(data.nbytes))
        self.bytes_to_host += data.nbytes
        return data.copy()

    # -- compute ----------------------------------------------------------
    def launch(self, fn, *args, **kwargs):
        """Run ``fn`` as a device kernel, measuring its wall time."""
        self.kernel_launches += 1
        with self.clock.measure():
            return fn(*args, **kwargs)

    def reset_counters(self) -> None:
        self.bytes_to_device = self.bytes_to_host = 0
        self.kernel_launches = 0
        self.clock.reset()

    def __repr__(self):
        return (f"Device({self.name!r}, launches={self.kernel_launches}, "
                f"h2d={self.bytes_to_device}B, d2h={self.bytes_to_host}B)")
