"""Execution backends: how a :class:`RegionServer` runs invocations.

A backend turns a served region's invocation into actual execution.
Three are provided:

* :class:`SerialBackend` — runs every invocation inline on the
  caller's thread; zero scheduling overhead, so the single-region
  QoS-off latency matches a direct region call.  The default.
* :class:`ThreadPoolBackend` — one dedicated worker thread per region
  (*batched-engine affinity*): a region's invocations, flushes, and
  deferred scatter-backs all execute on its own thread, so the
  per-region :class:`~repro.runtime.batch.BatchedInferenceEngine`
  queue is only ever touched from one thread while distinct regions
  serve concurrently.  Regions scheduled on this backend must not
  share an engine or mutable state with each other.  GIL-bound: plan
  execution still serializes on the interpreter lock.
* :class:`ProcessPoolBackend` — the thread backend's affinity model
  with the forward pass moved into worker **processes**: each worker
  owns a private :class:`~repro.runtime.infer.InferenceEngine` (model
  + compiled-plan caches), tensors cross via shared-memory slab rings
  (:mod:`repro.serving.shm`), and adopted regions' engines are
  swapped for process-aware adapters.  Cross-region parallelism is
  real — distinct regions' plans execute on distinct cores.

The backend contract is three methods plus one hook: ``submit`` (run
one callable for a region), ``drain`` (flush a set of regions and wait
until their queues are empty), ``close`` (idempotent; ``submit`` and
``drain`` afterwards raise ``RuntimeError("backend is closed")``), and
optional ``adopt(served)`` (called by ``RegionServer.register`` so a
backend can take ownership of a region's execution resources).
``drain`` is atomic with respect to a concurrent ``close``: it either
schedules every flush or raises without scheduling any.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from concurrent.futures import Future, ThreadPoolExecutor

from .. import obs
from ..runtime.batch import BatchedInferenceEngine
from .shm import (ProcessBatchedInferenceEngine, ProcessInferenceEngine,
                  RemoteEngineClient, WorkerCrashed, WorkerHandle,
                  WorkerTimeout)

__all__ = ["ExecutionBackend", "SerialBackend", "ThreadPoolBackend",
           "ProcessPoolBackend"]


class ExecutionBackend:
    """Scheduling strategy contract for :class:`RegionServer`."""

    def submit(self, served, fn, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` for ``served``'s region.

        Returns the call's result directly (synchronous backends) or a
        :class:`concurrent.futures.Future` resolving to it.  Raises
        ``RuntimeError`` once the backend is closed.
        """
        raise NotImplementedError

    def drain(self, served_list) -> None:
        """Flush every region in ``served_list`` and wait for quiescence.

        Atomic with a racing :meth:`close`: either every flush is
        scheduled (and close waits for them) or none is and this
        raises ``RuntimeError("backend is closed")``.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (worker threads/processes).

        Idempotent; subsequent :meth:`submit`/:meth:`drain` raise.
        """

    def adopt(self, served) -> None:
        """Optional hook: take ownership of a newly registered region."""


class SerialBackend(ExecutionBackend):
    """Inline execution on the caller's thread (the latency baseline)."""

    def __init__(self):
        self._closed = False

    def submit(self, served, fn, args=(), kwargs=None):
        if self._closed:
            raise RuntimeError("backend is closed")
        return fn(*args, **(kwargs or {}))

    def drain(self, served_list) -> None:
        if self._closed:
            raise RuntimeError("backend is closed")
        for served in served_list:
            served.region.flush()

    def close(self) -> None:
        self._closed = True


class ThreadPoolBackend(ExecutionBackend):
    """One single-thread executor per region: cross-region parallelism
    with strict per-region ordering.

    Affinity is what makes batching sound under concurrency: a region's
    invocation order (and therefore its batched queue and deferred
    scatter-backs) is preserved because all of them run on the same
    worker, while different regions' surrogates execute in parallel.
    ``submit`` returns a :class:`Future`; ``drain`` schedules a flush
    on each region's own worker — behind any queued invocations — and
    blocks until all complete, re-raising the first failure.
    """

    def __init__(self):
        self._executors: dict[str, ThreadPoolExecutor] = {}
        self._lock = threading.Lock()
        self._closed = False

    def _executor_locked(self, name: str) -> ThreadPoolExecutor:
        ex = self._executors.get(name)
        if ex is None:
            ex = self._executors[name] = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"serve-{name}")
        return ex

    def _executor(self, name: str) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("backend is closed")
            return self._executor_locked(name)

    def submit(self, served, fn, args=(), kwargs=None) -> Future:
        return self._executor(served.name).submit(fn, *args, **(kwargs or {}))

    def drain(self, served_list) -> None:
        # Scheduling happens entirely under the lock so drain is atomic
        # with close(): a close that loses the race waits for these
        # flushes (executor shutdown drains queued work); one that wins
        # makes drain raise before *any* flush was scheduled — never a
        # "backend is closed" halfway through the list.
        with self._lock:
            if self._closed:
                raise RuntimeError("backend is closed")
            futures = [self._executor_locked(s.name).submit(s.region.flush)
                       for s in served_list]
        for future in futures:
            future.result()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            executors = list(self._executors.values())
            self._executors.clear()
        for ex in executors:
            ex.shutdown(wait=True)


class _Placement:
    """One adopted region: its worker and the engine it arrived with."""

    __slots__ = ("served", "handle", "client", "engine", "original")

    def __init__(self, served, handle, client, engine, original):
        self.served = served
        self.handle = handle
        self.client = client
        self.engine = engine
        self.original = original


class ProcessPoolBackend(ThreadPoolBackend):
    """Worker processes + shared-memory slabs: parallelism past the GIL.

    Structure: the inherited per-region affinity threads keep ordering
    and batching sound exactly as on :class:`ThreadPoolBackend`, but an
    adopted region's engine is swapped
    (:meth:`~repro.runtime.region.ApproxRegion.swap_engine`) for a
    process adapter whose forward runs in one of ``workers`` worker
    processes — placement is round-robin at adoption, so region groups
    spread across workers.  Tensors cross via a per-region
    :class:`~repro.serving.shm.SlabRing`; messages carry only segment
    names, offsets, and shapes.

    Lifecycle and failure: workers are spawned eagerly (before any
    serving thread exists, keeping fork safe); a crashed or wedged
    worker raises :class:`~repro.serving.shm.WorkerCrashed` /
    :class:`WorkerTimeout` into the invocation, which a region's
    circuit breaker converts into accurate-path fallback and
    eventually quarantine — ``drain`` never hangs on a lost worker.
    :meth:`close` restores every region's original engine, so the pool
    can be detached from a live server.

    Observability: the backend registers as a metrics-registry
    collector; worker-local counters/histograms are pulled at drain
    and snapshot time and folded into the parent registry (a dead
    worker keeps contributing its last-known samples — aggregates stay
    exact).  Hot-swap: a model invalidation broadcasts to every live
    worker and waits for each ack (see
    :class:`~repro.serving.shm._WorkerModelCache`).
    """

    def __init__(self, workers: int = 4, *, start_method: str | None = None,
                 request_timeout: float = 60.0, slab_slots: int = 4,
                 transport: str = "shm", registry=None):
        super().__init__()
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        ctx = mp.get_context(start_method)
        self.request_timeout = request_timeout
        self.slab_slots = slab_slots
        self.transport = transport
        self._handles = [WorkerHandle(i, ctx, request_timeout)
                         for i in range(workers)]
        self._placements: dict[str, _Placement] = {}
        self._adopt_lock = threading.RLock()
        self._registry = registry if registry is not None else obs.metrics()
        self._registry.register_collector(self)

    # -- placement / adoption --------------------------------------------
    @property
    def workers(self) -> int:
        return len(self._handles)

    def worker_for(self, name: str) -> int | None:
        """The worker index serving region ``name`` (None if unadopted)."""
        placement = self._placements.get(name)
        return placement.handle.index if placement is not None else None

    def client_for(self, name: str):
        """Region ``name``'s :class:`RemoteEngineClient` (None if
        unadopted).  Exposes per-region transport stats — request
        count, worker busy CPU seconds, pickle fallbacks — to the
        multiprocess benchmark without touching placement internals."""
        placement = self._placements.get(name)
        return placement.client if placement is not None else None

    def adopt(self, served) -> None:
        """Take over ``served``'s engine execution.  Idempotent.

        Builds a process adapter matching the region's engine kind —
        a batched region keeps deferred delivery (the fused flush
        forward ships to the worker), a non-batched one keeps
        immediate semantics (auto-regressive loops must not gain
        batching) — and swaps it in, remembering the original for
        :meth:`close` to restore.
        """
        with self._adopt_lock:
            if self._closed:
                raise RuntimeError("backend is closed")
            if served.name in self._placements:
                return
            handle = self._handles[len(self._placements)
                                   % len(self._handles)]
            original = served.region.engine
            client = RemoteEngineClient(
                handle, slots=self.slab_slots, transport=self.transport,
                timeout=self.request_timeout,
                invalidate_hook=self.invalidate_model)
            if isinstance(original, BatchedInferenceEngine):
                engine = ProcessBatchedInferenceEngine(
                    client, device=original.device,
                    use_compiled=original.use_compiled,
                    max_batch_rows=original.max_batch_rows)
            else:
                engine = ProcessInferenceEngine(client,
                                                device=original.device)
            served.region.swap_engine(engine)
            self._placements[served.name] = _Placement(
                served, handle, client, engine, original)

    def submit(self, served, fn, args=(), kwargs=None) -> Future:
        if served.name not in self._placements:
            # Lazy adoption: backends assigned to a live server (e.g. a
            # benchmark swapping ``server.backend``) see regions that
            # never went through ``register``.
            self.adopt(served)
        return super().submit(served, fn, args, kwargs)

    # -- hot-swap invalidation protocol ----------------------------------
    def invalidate_model(self, model_path) -> int:
        """Broadcast a model/plan-cache invalidation; await each ack.

        Returns the number of workers that acked.  Dead workers are
        skipped (their caches died with them); the caller — typically
        ``hot_swap_model`` via an adopted engine's cache — therefore
        knows every *live* worker dropped the old weights before the
        arbiter's stats are reset.
        """
        acked = 0
        path = None if model_path is None else str(model_path)
        for handle in self._handles:
            if not handle.alive:
                continue
            try:
                handle.request(("invalidate", path))
                acked += 1
            except (WorkerCrashed, WorkerTimeout):
                continue
        return acked

    # -- draining / lifecycle --------------------------------------------
    def drain(self, served_list) -> None:
        super().drain(served_list)
        # Post-quiescence sample pull: worker counters fold into the
        # parent registry exactly once per drain, with nothing in
        # flight to race them.
        for handle in self._handles:
            handle.pull_samples()

    def close(self) -> None:
        """Restore engines, stop workers, release slabs.  Idempotent."""
        with self._adopt_lock:
            placements = list(self._placements.values())
            self._placements.clear()
            already_closed = self._closed
        if not already_closed:
            # Quiesce the affinity threads first so no invocation is
            # mid-flight while engines are being swapped back.
            super().close()
        for placement in placements:
            try:
                placement.served.region.swap_engine(placement.original)
            except (WorkerCrashed, WorkerTimeout):
                # Dead worker: the flush of queued rows is lost; the
                # original engine is still restored below.
                placement.served.region._engine = placement.original
        for handle in self._handles:
            handle.pull_samples()    # final counter fold (best effort)
        for placement in placements:
            placement.client.close()
        for handle in self._handles:
            handle.close()

    # -- chaos/testing hook ----------------------------------------------
    def kill_worker(self, index: int) -> None:
        """Hard-kill one worker (crash-path testing)."""
        self._handles[index].proc.kill()
        self._handles[index].proc.join(timeout=2.0)

    # -- observability ----------------------------------------------------
    def collect(self) -> list:
        """Registry-collector hook: fold worker-local samples.

        Live workers are scraped on the spot; dead ones contribute
        their last pulled samples, so pool-wide counters never move
        backwards and stay exact across crashes.
        """
        samples = []
        for handle in self._handles:
            if not self._closed:
                handle.pull_samples()
            samples.extend(dict(s) for s in handle.last_samples)
        return samples

    def snapshot(self) -> dict:
        """Worker health + placement (folded into server snapshots)."""
        return {
            "workers": [
                {"index": handle.index, "pid": handle.proc.pid,
                 "alive": handle.alive, "dead_reason": handle.dead,
                 "requests": handle.requests}
                for handle in self._handles],
            "placement": {name: placement.handle.index
                          for name, placement in self._placements.items()},
            "transport": self.transport,
        }

    def __repr__(self):
        alive = sum(1 for h in self._handles if h.alive)
        return (f"ProcessPoolBackend(workers={len(self._handles)}, "
                f"alive={alive}, regions={list(self._placements)})")
