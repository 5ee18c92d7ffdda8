"""Common benchmark interface for the five evaluation mini-apps (Table I).

Every app exposes the same surface so the search/benchmark harness can
drive them uniformly:

* ``generate_workload(scale, seed)`` — synthetic stand-in for the
  paper's datasets (README.md § Substitutions);
* ``run_accurate(workload)`` — the original algorithm, returning the
  QoI;
* ``build_region(...)`` — the HPAC-ML-annotated entry point;
* ``qoi_error(pred, ref)`` — the Table I metric (RMSE or MAPE).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..nn.loss import mape, rmse

__all__ = ["BenchmarkInfo", "qoi_error_fn", "REGISTRY", "register"]


@dataclass(frozen=True)
class BenchmarkInfo:
    """Static description of a benchmark (the Table I row)."""

    name: str
    description: str
    qoi: str
    metric: str                      # 'rmse' | 'mape'
    surrogate_family: str            # 'mlp' | 'cnn'
    module: str                      # import path of the app package
    extras: dict = field(default_factory=dict)


def qoi_error_fn(metric: str) -> Callable:
    if metric == "rmse":
        return rmse
    if metric == "mape":
        return mape
    raise ValueError(f"unknown QoI metric {metric!r}")


#: name -> BenchmarkInfo, populated by each app module at import.
REGISTRY: dict[str, BenchmarkInfo] = {}


def register(info: BenchmarkInfo) -> BenchmarkInfo:
    if info.name in REGISTRY:
        raise ValueError(f"benchmark {info.name!r} already registered")
    REGISTRY[info.name] = info
    return info
