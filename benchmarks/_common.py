"""Scaffolding shared by the JSON benchmarks in this directory.

Bench scripts run as ``python benchmarks/bench_<name>.py`` and are
loaded by file path in the smoke tests, so each one puts this
directory on ``sys.path`` before importing from here.
"""

from __future__ import annotations

import ctypes
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: Input/output feature counts of the Table IV MLP surrogates.
IN_FEATURES = {"minibude": 6, "binomial": 5, "bonds": 5}
OUT_FEATURES = {"minibude": 1, "binomial": 1, "bonds": 2}


def geomean(values) -> float:
    """Geometric mean of the positive ``values`` (0.0 when none)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def time_loop(fn, repeats: int, warmup: int = 5, chunks: int = 5) -> float:
    """Seconds per call: best-of-``chunks`` mean (robust to load spikes)."""
    for _ in range(warmup):
        fn()
    per_chunk = max(1, repeats // chunks)
    best = float("inf")
    for _ in range(chunks):
        start = time.perf_counter()
        for _ in range(per_chunk):
            fn()
        best = min(best, (time.perf_counter() - start) / per_chunk)
    return best


def _bundled_openblas():
    """numpy's bundled scipy-openblas library, or ``None`` if absent."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        if hasattr(lib, "scipy_openblas_set_num_threads64_") and \
                hasattr(lib, "scipy_openblas_get_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            return lib
    return None


@contextmanager
def blas_threads(n: int):
    """Run the block with ``n`` BLAS threads, restoring the old count.

    Yields ``n``, or ``None`` (and changes nothing) when numpy's
    bundled OpenBLAS thread setter is not available.
    """
    lib = _bundled_openblas()
    if lib is None:
        yield None
        return
    old = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(n)
    try:
        yield n
    finally:
        lib.scipy_openblas_set_num_threads64_(old)
