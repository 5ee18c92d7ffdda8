"""Span tracing of the deployment stack, installed from outside ``src/``.

:class:`Tracer` wraps the public entry points of each layer (listed in
:meth:`Tracer.install`) while it is installed, and restores the
originals when it is removed, so an untraced pass runs the program's
own code with no wrapper in the way.

Every wrapped call becomes one span: id, name, start, end, parent span
id (0 at the root) and invocation id (the root span's sequence
number).  A span's *self time*
is its duration minus the durations of its direct children.  Spans stay
in memory; :meth:`Tracer.dump` writes them out when the run ends.

Aggregates are kept per *window* (set-up, one traced deployed pass, one
traced accurate pass) so per-pass layer figures can be reported and
reconciled against the wall time of the same pass.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

import numpy as np

#: What each per-layer metric should move, and on which workload.
#: Written down before measuring, so a later change can state its
#: prediction by name (BENCHMARK.json's schema has no room for it).
PREDICTIONS = {
    "serving": ("invoke_p50_us", "portfolio_b1"),
    "runtime.region": ("invoke_p50_us, deploy_s", "portfolio_b1"),
    "bridge": ("invoke_p50_us", "portfolio_b1, weather_assimilate"),
    "runtime.infer": ("invoke_p50_us", "portfolio_b1 (none on docking_bulk)"),
    "runtime.batch": ("deploy_s, invoke_p99_us", "docking_bulk"),
    "nn.plan": ("deploy_s; invoke_p50_us",
                "docking_bulk; weather_assimilate"),
    "device": ("none (bookkeeping)", "-"),
    "runtime.collect": ("deploy_s, invoke_p99_us; setup_s",
                        "weather_assimilate; all"),
    "h5": ("deploy_s, peak_rss_mb", "weather_assimilate"),
    "apps": ("accurate_s; invoke_p99_us", "all; portfolio_governed"),
    "qos": ("deploy_s, qoi_error", "portfolio_governed"),
    "resilience": ("ok_frac, qoi_error", "portfolio_governed"),
    "runtime.events": ("invoke_p50_us", "portfolio_b1"),
    "nn.training": ("setup_s", "all"),
    "residual": ("none", "-"),
}


def _nbytes(a) -> int:
    return int(getattr(a, "nbytes", 0))


class Window:
    """Per-span-name aggregates for one traced window."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(float)     # bytes, rows, flops, ...

    def add(self, other: "Window") -> None:
        for k, v in other.calls.items():
            self.calls[k] += v
        for k, v in other.self_s.items():
            self.self_s[k] += v
        for k, v in other.incl_s.items():
            self.incl_s[k] += v
        for k, v in other.counts.items():
            self.counts[k] += v


class Tracer:
    """Installs span wrappers on the program's layer entry points."""

    #: Cap on spans kept for the trace file; aggregates never drop.
    MAX_SPANS = 400_000

    def __init__(self, flops_per_row: float = 0.0):
        self.flops_per_row = flops_per_row
        self.window = Window()
        self.spans: list = []
        self.names: dict = {}
        self._stack: list = []   # open spans: [start, child_seconds, id]
        self._next_id = 0
        self._invocation = 0
        self._patches: list = []
        self._pending: dict = defaultdict(list)   # batched engine -> times

    # -- span bookkeeping -------------------------------------------------
    def _enter(self):
        if not self._stack:
            self._invocation += 1
        self._next_id += 1
        frame = [time.perf_counter(), 0.0, self._next_id]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[0]
        self.window.calls[name] += 1
        self.window.self_s[name] += duration - frame[1]
        self.window.incl_s[name] += duration
        parent = 0
        if self._stack:
            self._stack[-1][1] += duration
            parent = self._stack[-1][2]
        if len(self.spans) < self.MAX_SPANS:
            nid = self.names.setdefault(name, len(self.names))
            self.spans.append((frame[2], nid, frame[0], end, parent,
                               self._invocation))

    def take_window(self) -> Window:
        """Return the aggregates since the last call and start afresh."""
        out, self.window = self.window, Window()
        return out

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attr: str, make):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, owner, attr: str, name: str, before=None, after=None):
        tracer = self

        def make(fn):
            def wrapped(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                frame = tracer._enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(name, frame)
                if after is not None:
                    after(args, kwargs, result)
                return result
            wrapped.__wrapped__ = fn
            return wrapped
        self._patch(owner, attr, make)

    def _count(self, owner, attr: str, after):
        def make(fn):
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(args, kwargs, result)
                return result
            wrapped.__wrapped__ = fn
            return wrapped
        self._patch(owner, attr, make)

    def install(self) -> None:
        """Wrap every layer entry point listed below."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.apps.binomial import app as binomial_app
        from repro.apps.minibude import app as minibude_app
        from repro.apps.miniweather import app as miniweather_app
        from repro.bridge import ConcretizedMap
        from repro.device import Device
        from repro.h5.file import File
        from repro.nn.compile import CompiledPlan
        from repro.nn.training import Trainer
        from repro.qos.precision import PrecisionPolicy
        from repro.resilience.primitives import CircuitBreaker
        from repro.runtime import batch, collect, events, infer, region
        from repro.serving.arbiter import QoSArbiter
        from repro.serving.server import RegionServer

        c = self.window_counts
        self._span(RegionServer, "invoke", "serving.invoke")
        self._span(RegionServer, "flush", "serving.flush")
        self._span(region.ApproxRegion, "__call__", "runtime.region")
        self._span(region.ApproxRegion, "flush", "runtime.region")
        self._span(region, "concretize", "bridge.concretize")
        self._span(ConcretizedMap, "gather", "bridge.gather",
                   after=lambda a, k, r: c("bridge.gather.bytes",
                                           _nbytes(r)))
        self._span(ConcretizedMap, "scatter", "bridge.scatter",
                   before=lambda a, k: c("bridge.scatter.bytes",
                                         _nbytes(a[1])))
        self._span(infer.InferenceEngine, "infer", "runtime.infer")
        self._span(batch.BatchedInferenceEngine, "infer", "runtime.infer")
        self._span(infer.ModelCache, "get", "runtime.infer.model_cache")
        self._count(infer, "compile_inference",
                    lambda a, k, r: c("runtime.infer.plan_compiles", 1))
        self._span(batch.BatchedInferenceEngine, "submit",
                   "runtime.batch.submit",
                   after=lambda a, k, r: self._pending[id(a[0])].append(
                       time.perf_counter()))
        self._span(batch.BatchedInferenceEngine, "flush",
                   "runtime.batch.flush", before=self._before_flush)
        self._span(CompiledPlan, "__call__", "nn.plan",
                   before=self._before_plan)
        self._span(Device, "to_device", "device",
                   before=lambda a, k: self._before_transfer(a[0], a[1]))
        self._span(Device, "to_host", "device",
                   before=lambda a, k: self._before_transfer(a[0],
                                                             a[1].array))
        self._span(collect.DataCollector, "record", "runtime.collect.record",
                   before=self._before_record)
        self._span(collect.DataCollector, "flush", "runtime.collect.flush")
        self._span(File, "flush", "h5.flush", after=self._after_h5_flush)
        self._span(binomial_app, "price_american", "apps.kernel")
        self._span(minibude_app, "binding_energies", "apps.kernel")
        self._span(miniweather_app, "step", "apps.kernel")
        self._span(QoSArbiter, "decide", "qos.decide",
                   after=lambda a, k, r: c("qos.infer_decisions",
                                           r.path == "infer"))
        self._span(QoSArbiter, "observe_shadow", "qos.shadow")
        self._span(PrecisionPolicy, "observe", "qos.precision")
        self._count(PrecisionPolicy, "precision_for",
                    lambda a, k, r: (c("qos.precision.decisions", 1),
                                     c("qos.precision.fp32",
                                       r == "float32")))
        self._count(CircuitBreaker, "allow",
                    lambda a, k, r: c("resilience.fallbacks", not r))
        self._count(CircuitBreaker, "record_failure",
                    lambda a, k, r: c("resilience.fallbacks", 1))
        self._span(events.EventLog, "new_record", "runtime.events")
        self._span(events.EventLog, "finish", "runtime.events")
        self._span(Trainer, "fit", "nn.training.fit",
                   after=lambda a, k, r: c("nn.training.epochs",
                                           r.epochs_run))

    def remove(self) -> None:
        """Restore every wrapped entry point (reverse install order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters taken at the same boundaries -----------------------------
    def window_counts(self, key: str, value) -> None:
        self.window.counts[key] += float(value)

    def _before_flush(self, args, kwargs) -> None:
        engine = args[0]
        pending = self._pending.pop(id(engine), [])
        if engine.pending_invocations:
            now = time.perf_counter()
            self.window_counts("runtime.batch.wait_s",
                               sum(now - t for t in pending))
            self.window_counts("runtime.batch.rows", engine.pending_rows)
            self.window_counts("runtime.batch.flushes", 1)

    def _before_plan(self, args, kwargs) -> None:
        x = np.asarray(args[1])
        rows = x.shape[0] if x.ndim else 1
        self.window_counts("nn.plan.rows", rows)
        self.window_counts("nn.plan.flops", rows * self.flops_per_row)

    def _before_transfer(self, device, array) -> None:
        nbytes = _nbytes(array)
        self.window_counts("device.transfers", 1)
        self.window_counts("device.bytes", nbytes)
        self.window_counts("device.modeled_transfer_s",
                           device.transfer_model.cost(nbytes))

    def _before_record(self, args, kwargs) -> None:
        inputs, outputs = np.asarray(args[2]), np.asarray(args[3])
        self.window_counts("runtime.collect.rows", len(inputs))
        # Payload: inputs, outputs and the per-row float64 region time.
        self.window_counts("h5.payload_bytes", inputs.nbytes
                           + outputs.nbytes + 8 * len(inputs))

    def _after_h5_flush(self, args, kwargs, result) -> None:
        fh = args[0]
        if fh.mode != "r":
            self.window_counts("h5.bytes_written", fh.file_size)

    # -- output ----------------------------------------------------------
    def dump(self, path) -> None:
        """Write the kept spans as gzipped JSON lines."""
        names = {v: k for k, v in self.names.items()}
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end",
                                            "parent", "invocation"],
                                 "kept": len(self.spans)}) + "\n")
            for sid, nid, start, end, parent, inv in self.spans:
                fh.write(json.dumps([sid, names[nid], start, end, parent,
                                     inv]) + "\n")


def layer_metrics(deploy: Window, accurate: Window, setup: Window,
                  passes: int, traced_wall: float) -> dict:
    """Per-layer metrics per traced deployed pass.

    ``deploy`` sums ``passes`` traced deployed passes whose wall times
    sum to ``traced_wall``; ``accurate`` sums as many traced accurate
    passes; ``setup`` covers one traced set-up.  Every self time below
    is a per-pass mean, so the ``*.self_s`` values plus
    ``unattributed_s`` add up to ``traced_wall_s``.
    """
    n = max(passes, 1)
    calls = {k: v / n for k, v in deploy.calls.items()}
    self_s = {k: v / n for k, v in deploy.self_s.items()}
    cnt = {k: v / n for k, v in deploy.counts.items()}

    def ratio(a, b):
        return a / b if b else 0.0

    lookups = calls.get("bridge.gather", 0) + calls.get("bridge.scatter", 0)
    plan_s = self_s.get("nn.plan", 0.0)
    m = {
        "serving.invoke.calls": calls.get("serving.invoke", 0),
        "serving.invoke.self_s": self_s.get("serving.invoke", 0.0),
        "serving.flush.self_s": self_s.get("serving.flush", 0.0),
        "runtime.region.calls": calls.get("runtime.region", 0),
        "runtime.region.self_s": self_s.get("runtime.region", 0.0),
        "runtime.region.map_cache_hit_ratio": (
            1.0 - ratio(calls.get("bridge.concretize", 0), lookups)
            if lookups else 0.0),
        "bridge.gather.calls": calls.get("bridge.gather", 0),
        "bridge.gather.self_s": self_s.get("bridge.gather", 0.0),
        "bridge.gather.bytes": cnt.get("bridge.gather.bytes", 0),
        "bridge.scatter.calls": calls.get("bridge.scatter", 0),
        "bridge.scatter.self_s": self_s.get("bridge.scatter", 0.0),
        "bridge.scatter.bytes": cnt.get("bridge.scatter.bytes", 0),
        "bridge.concretize.calls": calls.get("bridge.concretize", 0),
        "bridge.concretize.self_s": self_s.get("bridge.concretize", 0.0),
        "runtime.infer.calls": calls.get("runtime.infer", 0),
        "runtime.infer.self_s": self_s.get("runtime.infer", 0.0),
        "runtime.infer.model_cache.self_s":
            self_s.get("runtime.infer.model_cache", 0.0),
        "runtime.infer.plan_compiles":
            cnt.get("runtime.infer.plan_compiles", 0),
        "runtime.batch.flushes": cnt.get("runtime.batch.flushes", 0),
        "runtime.batch.rows_per_flush": ratio(
            cnt.get("runtime.batch.rows", 0),
            cnt.get("runtime.batch.flushes", 0)),
        "runtime.batch.submit.self_s":
            self_s.get("runtime.batch.submit", 0.0),
        "runtime.batch.flush.self_s": self_s.get("runtime.batch.flush", 0.0),
        "runtime.batch.wait_s": cnt.get("runtime.batch.wait_s", 0.0),
        "nn.plan.calls": calls.get("nn.plan", 0),
        "nn.plan.rows": cnt.get("nn.plan.rows", 0),
        "nn.plan.self_s": plan_s,
        "nn.plan.flops": cnt.get("nn.plan.flops", 0),
        "nn.plan.gflops": ratio(cnt.get("nn.plan.flops", 0), plan_s) / 1e9,
        "device.transfers": cnt.get("device.transfers", 0),
        "device.bytes": cnt.get("device.bytes", 0),
        "device.self_s": self_s.get("device", 0.0),
        "device.modeled_transfer_s":
            cnt.get("device.modeled_transfer_s", 0.0),
        "runtime.collect.record.calls":
            calls.get("runtime.collect.record", 0),
        "runtime.collect.record.self_s":
            self_s.get("runtime.collect.record", 0.0),
        "runtime.collect.rows": cnt.get("runtime.collect.rows", 0),
        "runtime.collect.flush.self_s":
            self_s.get("runtime.collect.flush", 0.0),
        "h5.flush.calls": calls.get("h5.flush", 0),
        "h5.flush.self_s": self_s.get("h5.flush", 0.0),
        "h5.bytes_written": cnt.get("h5.bytes_written", 0),
        "h5.write_amplification": ratio(cnt.get("h5.bytes_written", 0),
                                        cnt.get("h5.payload_bytes", 0)),
        "apps.kernel.calls": calls.get("apps.kernel", 0),
        "apps.kernel.self_s": self_s.get("apps.kernel", 0.0),
        "apps.kernel.accurate_pass.calls":
            accurate.calls.get("apps.kernel", 0) / n,
        "apps.kernel.accurate_pass.self_s":
            accurate.self_s.get("apps.kernel", 0.0) / n,
        "qos.decide.self_s": self_s.get("qos.decide", 0.0),
        "qos.shadow.calls": calls.get("qos.shadow", 0),
        "qos.shadow.self_s": self_s.get("qos.shadow", 0.0),
        "qos.precision.self_s": self_s.get("qos.precision", 0.0),
        "qos.surrogate_share": ratio(cnt.get("qos.infer_decisions", 0),
                                     calls.get("qos.decide", 0)),
        "qos.precision.fp32_share": ratio(
            cnt.get("qos.precision.fp32", 0),
            cnt.get("qos.precision.decisions", 0)),
        "resilience.fallbacks": cnt.get("resilience.fallbacks", 0),
        "runtime.events.self_s": self_s.get("runtime.events", 0.0),
        "nn.training.fit_s": setup.incl_s.get("nn.training.fit", 0.0),
        "nn.training.epochs": setup.counts.get("nn.training.epochs", 0),
    }
    attributed = sum(self_s.values())
    m["traced_wall_s"] = traced_wall / n
    m["unattributed_s"] = traced_wall / n - attributed
    return m
