"""Parameter initializers (Kaiming family)."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["kaiming_uniform", "zeros", "uniform_bias"]


def kaiming_uniform(shape: tuple, fan_in: int, rng: np.random.Generator,
                    a: float = math.sqrt(5.0)) -> np.ndarray:
    """Kaiming-uniform init as used by Torch's Linear/Conv default."""
    gain = math.sqrt(2.0 / (1.0 + a * a))
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def uniform_bias(shape: tuple, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in) if fan_in > 0 else 0.0
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: tuple) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)
