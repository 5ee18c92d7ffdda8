"""Run conditions recorded beside every result (provenance, BLAS mode)."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

#: The BLAS probe's time above which a process is in the slow mode; the
#: fast mode measures well under it.
SLOW_MODE_MS = 1.0


def _openblas():
    """The OpenBLAS library numpy loaded, or None when it is not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}",
                              None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                return threads, config
    return None


def blas_info() -> dict:
    """BLAS library configuration and its current thread count."""
    found = _openblas()
    if found is None:
        return {"library": "unknown", "threads": None}
    threads, config = found
    return {"library": config().decode(errors="replace"),
            "threads": int(threads())}


def blas_probe_ms(repeats: int = 101) -> float:
    """Median time of one (768x48)·(48x24) GEMM, in milliseconds.

    Multithreaded OpenBLAS is bimodal across processes on small boxes
    (about 0.05 ms in one mode, several ms in the other); recording
    this fixed probe beside each run makes the mode visible.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((768, 48))
    b = rng.standard_normal((48, 24))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def cpu_times():
    """``(steal, total)`` jiffies of the whole machine, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def steal_share(start):
    """Share of CPU time the hypervisor stole since ``start``.

    Time stolen by other tenants of the host slows every timed pass;
    recording it beside each run makes a contended run visible.
    """
    end = cpu_times()
    if start is None or end is None or end[1] == start[1]:
        return None
    return (end[0] - start[0]) / (end[1] - start[1])


def _source_digest(root: Path) -> str:
    """BLAKE2b over the program's source files (the checkout may lack git)."""
    h = hashlib.blake2b(digest_size=12)
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha(root: Path):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root: Path, workload: str, seed: int, seconds: int,
               trace: bool) -> dict:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    blas = blas_info()
    probe = blas_probe_ms()
    return {
        "git_sha": _git_sha(root),
        "source_digest": _source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas["library"],
        "blas_threads": blas["threads"],
        "nproc": cores,
        "blas_probe_ms": probe,
        "blas_slow_mode": probe > SLOW_MODE_MS,
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
    }
