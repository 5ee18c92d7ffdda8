"""The benchmark tracer's wrap points exist and are restored.

``perfbench/tracing.py`` wraps layer entry points by name
(``owner.__dict__[attr]``), so renaming or moving one of them breaks
only a traced benchmark run.  Installing and removing the tracer here
turns that into a test failure.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    # Read-only: leave no bytecode cache beside the benchmark's sources.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_wraps_and_remove_restores(tmp_path, monkeypatch):
    tracer = load_tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert owner.__dict__[attr].__wrapped__ is original
        wrapped = {(getattr(owner, "__name__", ""), attr)
                   for owner, attr, _ in patches}
        assert {("repro.runtime.region", "concretize"),
                ("ConcretizedMap", "gather"), ("ConcretizedMap", "scatter"),
                ("ModelCache", "get"), ("InferenceEngine", "infer"),
                ("repro.runtime.infer", "compile_inference"),
                ("CompiledPlan", "__call__"), ("Device", "to_device"),
                ("Device", "to_host"), ("EventLog", "new_record"),
                ("EventLog", "finish")} <= wrapped

        # The wrapped stack still runs: one traced B=1 invocation.
        from repro.api import approx_ml
        from repro.nn import Linear, Sequential, save_model
        save_model(Sequential(Linear(2, 1)), tmp_path / "m.rnm")

        @approx_ml(f"""
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer) in(x) out(y) model("{tmp_path / 'm.rnm'}")
""")
        def region(x, y, N):
            y[:N] = x[:N].sum(axis=1)

        region(np.ones((1, 2)), np.zeros(1), 1)
        calls = tracer.take_window().calls
        for name in ("runtime.region", "bridge.concretize", "bridge.gather",
                     "bridge.scatter", "runtime.infer.model_cache",
                     "nn.plan"):
            assert calls[name] >= 1, name
    finally:
        tracer.remove()
    assert not tracer._patches
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original
