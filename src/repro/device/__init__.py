"""``repro.device`` — simulated accelerator (the GPU substitution).

README.md § Substitutions describes it.
"""

from .clock import VirtualClock
from .memory import MemorySpace, DeviceBuffer, WrongSpaceError
from .transfer import TransferModel, Device

__all__ = ["VirtualClock", "MemorySpace", "DeviceBuffer", "WrongSpaceError",
           "TransferModel", "Device"]
