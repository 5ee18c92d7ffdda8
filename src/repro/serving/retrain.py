"""Online retraining: watch the training DB, retrain, hot-swap.

Closes the last gap in the adaptive loop: PR-2's drift-burst policy
refreshes the training database with rows from the drifted
distribution, but retraining stayed offline (``examples/adaptive_qos``
did it by hand).  :class:`RetrainWorker` watches each registered
region's database for growth, retrains a fresh surrogate through the
existing :mod:`repro.nn.training` stack, and **hot-swaps** the model
file — written to a sibling temp path and moved into place with
``os.replace``, so readers only ever see the old file or the new one.
Engines are then told to drop their cached model
(:meth:`~repro.runtime.infer.ModelCache.invalidate`) and re-warm; the
engine's compiled-plan staleness check handles the rebind, so serving
never stops.

The worker runs either synchronously (:meth:`poll`, used by tests and
deterministic benchmarks) or as a daemon thread (:meth:`start` /
:meth:`stop`); ``stop`` performs one final poll so any refresh that
landed during shutdown is still honored.

Retraining rides the serving critical loop (the worker shares the
process, and under the GIL epoch time is serving jitter), so the
:class:`~repro.nn.Trainer` it builds trains through the compiled fast
path (:mod:`repro.nn.compile_train`) by default — pass
``trainer_kwargs=dict(compiled=False)`` to force the graph path.
Optional ``recency_half_life`` weights the refreshed DB toward recent
rows for faster adaptation under sustained drift.
"""

from __future__ import annotations

import contextlib
import logging
import os
import threading
import time
from pathlib import Path

import numpy as np

from ..h5 import File
from ..nn import Trainer, load_model, save_model
from ..nn.training import train_val_split
from ..resilience import faults as _faults
from ..resilience.primitives import RetryPolicy, run_with_timeout

__all__ = ["RetrainSpec", "RetrainEvent", "RetrainWorker", "HotSwapError",
           "hot_swap_model", "db_row_count", "recency_weighted_indices"]

logger = logging.getLogger("repro.serving.retrain")


class HotSwapError(RuntimeError):
    """A candidate model failed verification at hot-swap time; the
    deployed model file was left untouched (rollback)."""


def recency_weighted_indices(indices, n_total: int, half_life: float,
                             rng: np.random.Generator) -> np.ndarray:
    """Bootstrap ``indices`` with age-decayed weights (newest row age 0).

    Rows are stored in insertion order, so after a drift burst the
    newest rows come from the drifted distribution.  ``indices`` are
    row positions in a database of ``n_total`` rows; each row's weight
    halves every ``half_life`` rows of age.  Sampling ``len(indices)``
    of them with replacement yields a partition dominated by recent
    rows while old rows still contribute — faster adaptation under
    sustained drift without forgetting the stationary regime outright.

    Callers must bootstrap the training and validation partitions
    *separately* (after splitting): resampling before the split would
    duplicate rows across both partitions and turn the validation loss
    into a memorization probe.
    """
    if half_life <= 0:
        raise ValueError(f"half_life must be positive: {half_life}")
    indices = np.asarray(indices)
    age = (n_total - 1) - indices
    weights = np.exp2(-age / half_life)
    return rng.choice(indices, size=indices.size, replace=True,
                      p=weights / weights.sum())


def db_row_count(db_path, region_name: str) -> int:
    """Rows currently collected for ``region_name`` (0 when absent)."""
    fault = _faults.fire(_faults.DB_READ, region=region_name)
    if fault is not None:
        # DB_READ fault seam: a stale replica read (report old rows) or
        # an outright failed read.
        if fault.kind == "stale":
            return int(fault.payload.get("rows", 0))
        if fault.kind == "raise":
            raise _faults.InjectedFault(
                f"injected db read failure #{fault.index}")
    db_path = Path(db_path)
    if not db_path.exists():
        return 0
    with File(db_path, "r") as fh:
        if region_name not in fh:
            return 0
        group = fh[region_name]
        if "inputs" not in group:
            return 0
        return int(group["inputs"].shape[0])


def hot_swap_model(model, model_path, engines=(),
                   verify_inputs=None) -> Path:
    """Atomically replace ``model_path`` with ``model``; refresh engines.

    The swap is **verified**: the candidate is serialized to a sibling
    temp file, read back (which checks the format's checksum footer),
    and — when ``verify_inputs`` is given — forward-checked on that
    holdout slice for finite outputs.  Only a candidate that passes
    reaches ``os.replace`` (atomic on POSIX); any verification failure
    deletes the temp file and raises :class:`HotSwapError` with the
    deployed model untouched — rollback is simply not swapping.

    After the replace, every engine's model cache entry for the path is
    invalidated and re-warmed so the next inference runs the new
    weights with a freshly compiled plan.  The engines' cache locks are
    held throughout, so inference through them waits for the swap.
    """
    from .. import obs
    model_path = Path(model_path)
    caches = {id(e.cache): e.cache for e in engines if e is not None}
    with obs.tracer().span("hot_swap", model=model_path.name), \
            contextlib.ExitStack() as held:
        for _, cache in sorted(caches.items()):   # one global lock order
            held.enter_context(cache.lock)
        return _hot_swap_model(model, model_path, engines, verify_inputs)


def _hot_swap_model(model, model_path, engines, verify_inputs) -> Path:
    tmp_path = model_path.with_name(model_path.name + ".swap")
    save_model(model, tmp_path)
    # HOT_SWAP fault seam: the candidate file arrives corrupt/truncated
    # (torn replication, bad disk) between serialize and verify.
    fault = _faults.fire(_faults.HOT_SWAP, path=str(tmp_path))
    if fault is not None:
        _faults.apply_file_fault(fault, tmp_path)
    try:
        candidate = load_model(tmp_path)
        if verify_inputs is not None:
            probe = candidate.forward_compiled(
                np.ascontiguousarray(verify_inputs))
            if not np.all(np.isfinite(probe)):
                raise HotSwapError(
                    f"{model_path}: candidate emitted non-finite outputs "
                    "on the verification slice")
    except HotSwapError:
        tmp_path.unlink(missing_ok=True)
        raise
    except Exception as exc:
        tmp_path.unlink(missing_ok=True)
        raise HotSwapError(
            f"{model_path}: candidate failed verification, keeping "
            f"deployed model ({type(exc).__name__}: {exc})") from exc
    os.replace(tmp_path, model_path)
    seen = set()
    for engine in engines:
        if engine is None or id(engine) in seen:
            continue
        seen.add(id(engine))
        engine.cache.invalidate(model_path)
        engine.warmup(model_path)
    return model_path


class RetrainSpec:
    """How to retrain one region's surrogate.

    ``build(x_train, y_train) -> model`` constructs a fresh model from
    the refreshed training split (harnesses provide this via
    ``make_builder``, which bakes standardization stats from exactly
    that split); ``trainer_kwargs`` parameterize the
    :class:`~repro.nn.Trainer`.
    """

    __slots__ = ("name", "db_path", "model_path", "build", "trainer_kwargs",
                 "min_new_rows", "val_fraction", "engines", "qos",
                 "trained_rows", "recency_half_life", "warm_start",
                 "require_compiled", "opt_state", "compiled_last",
                 "consecutive_failures")

    def __init__(self, name, db_path, model_path, build,
                 trainer_kwargs=None, min_new_rows: int = 32,
                 val_fraction: float = 0.2, engines=(), qos=None,
                 recency_half_life: float | None = None,
                 warm_start: bool = False, require_compiled: bool = False):
        self.name = name
        self.db_path = Path(db_path)
        self.model_path = Path(model_path)
        self.build = build
        self.trainer_kwargs = dict(trainer_kwargs or {})
        self.min_new_rows = min_new_rows
        self.val_fraction = val_fraction
        self.engines = tuple(engines)
        self.qos = qos
        self.trained_rows = 0
        #: When set, retraining bootstraps the DB rows with weights
        #: halving every ``recency_half_life`` rows of age, so a
        #: drift-refreshed tail dominates the next surrogate.
        self.recency_half_life = recency_half_life
        #: Carry fused-optimizer moments from one retrain into the
        #: next (applied only when the rebuilt model's plan fingerprint
        #: matches — a changed architecture starts cold automatically).
        self.warm_start = warm_start
        #: Fail loudly when a retrain silently falls back to the
        #: pure-Python graph path — sequence/conv apps sit on the
        #: serving critical path and must train compiled.
        self.require_compiled = require_compiled
        #: Fused-optimizer state of the last retrain (when warm_start).
        self.opt_state = None
        #: Whether the last retrain ran on the compiled fast path.
        self.compiled_last: bool | None = None
        #: Failed retrain attempts since the last success (drives the
        #: worker's once-per-transition degradation/recovery logging).
        self.consecutive_failures = 0


class RetrainEvent:
    """One completed retrain/hot-swap, for reporting.

    ``compiled`` says whether the trainer ran on the compiled fast path
    (``fallback`` carries the reason when it did not) — the coverage
    signal operators watch now that sequence/conv surrogates lower too.
    """

    __slots__ = ("region", "rows", "new_rows", "val_loss", "seconds",
                 "compiled", "fallback")

    def __init__(self, region, rows, new_rows, val_loss, seconds,
                 compiled=True, fallback=None):
        self.region = region
        self.rows = rows
        self.new_rows = new_rows
        self.val_loss = val_loss
        self.seconds = seconds
        self.compiled = compiled
        self.fallback = fallback

    def as_dict(self) -> dict:
        return {"region": self.region, "rows": self.rows,
                "new_rows": self.new_rows, "val_loss": self.val_loss,
                "seconds": self.seconds, "compiled": self.compiled,
                "fallback": self.fallback}

    def __repr__(self):
        return (f"RetrainEvent({self.region!r}, rows={self.rows}, "
                f"new_rows={self.new_rows}, val_loss={self.val_loss:.3g}, "
                f"compiled={self.compiled})")


class RetrainWorker:
    """Background trainer keyed on training-database growth.

    Register regions with :meth:`watch`; each :meth:`poll` compares the
    database row count against the count at the last (re)train and,
    when at least ``min_new_rows`` fresh rows arrived — a drift burst's
    signature — retrains and hot-swaps.  ``poll`` is safe to call both
    from the daemon thread and directly (a lock serializes cycles).
    """

    #: Default cap on :attr:`errors` (oldest entries dropped first).
    MAX_ERRORS = 100

    def __init__(self, seed: int = 0, retry: RetryPolicy | None = None,
                 job_timeout: float | None = None,
                 max_errors: int | None = None,
                 verify_swap: bool = True):
        self.seed = seed
        #: Backoff policy around each region's train step (``None``:
        #: one attempt).  Transient trainer crashes — injected or
        #: organic — are retried instead of abandoning the refresh.
        self.retry = retry
        #: Watchdog deadline (seconds) on each train step; a hung
        #: trainer is abandoned past it so the poll cycle (and the
        #: worker lock every caller serializes on) stays bounded.
        self.job_timeout = job_timeout
        self.max_errors = self.MAX_ERRORS if max_errors is None \
            else max_errors
        #: Forward-check each retrained candidate on a training-split
        #: holdout slice before the swap (see :func:`hot_swap_model`).
        self.verify_swap = verify_swap
        self._specs: dict[str, RetrainSpec] = {}
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.events: list[RetrainEvent] = []
        #: Errors swallowed by the daemon loop (e.g. a poll that read a
        #: mid-write DB), kept so operators can see the thread is
        #: degraded rather than silently dead.  Bounded to
        #: ``max_errors`` — a region failing every tick for days must
        #: not grow the list without limit.
        self.errors: list[str] = []

    # -- registration ----------------------------------------------------
    def watch(self, name, db_path, model_path, build, *,
              trainer_kwargs=None, min_new_rows: int = 32,
              val_fraction: float = 0.2, engines=(),
              qos=None, recency_half_life: float | None = None,
              warm_start: bool = False,
              require_compiled: bool = False) -> RetrainSpec:
        """Track one region.  The current DB row count becomes the
        baseline, so only *future* refreshes trigger retraining.

        ``qos`` is the controller serving the region (e.g. the server's
        :class:`~repro.serving.QoSArbiter`): after a hot-swap its
        rolling stats for the region are reset, because they estimate
        the error of weights that no longer exist.

        ``recency_half_life`` (rows) enables age-decayed bootstrap
        sampling of the training DB before each retrain: a refreshed
        tail of drifted rows dominates the new surrogate instead of
        being diluted by the full stationary history.

        ``warm_start`` carries the fused optimizer's flat moments from
        each retrain into the next (keyed on the plan fingerprint, so
        an architecture change starts cold); ``require_compiled`` makes
        a silent graph-path fallback an error instead of a slow retrain
        — use it for the sequence/conv apps whose whole reason to
        retrain in-process is the compiled path.
        """
        spec = RetrainSpec(name, db_path, model_path, build,
                           trainer_kwargs=trainer_kwargs,
                           min_new_rows=min_new_rows,
                           val_fraction=val_fraction, engines=engines,
                           qos=qos, recency_half_life=recency_half_life,
                           warm_start=warm_start,
                           require_compiled=require_compiled)
        spec.trained_rows = db_row_count(db_path, name)
        with self._lock:
            self._specs[name] = spec
        return spec

    @property
    def watched(self) -> tuple:
        return tuple(self._specs)

    # -- error bookkeeping -----------------------------------------------
    def _append_error(self, message: str) -> None:
        self.errors.append(message)
        if len(self.errors) > self.max_errors:
            del self.errors[:len(self.errors) - self.max_errors]

    def _record_failure(self, spec: RetrainSpec, exc: BaseException) -> None:
        """One failed retrain attempt for ``spec`` (after retries)."""
        spec.consecutive_failures += 1
        self._append_error(
            f"{spec.name}: {type(exc).__name__}: {exc}")
        if spec.consecutive_failures == 1:
            # Log the healthy -> failing transition once, not per tick.
            logger.warning("retrain for %r failing (%s: %s); serving "
                           "continues on the deployed model", spec.name,
                           type(exc).__name__, exc)

    def _note_success(self, spec: RetrainSpec) -> None:
        if spec.consecutive_failures:
            logger.warning("retrain for %r recovered after %d failed "
                           "attempt(s)", spec.name,
                           spec.consecutive_failures)
            spec.consecutive_failures = 0

    # -- retraining ------------------------------------------------------
    def _train_step(self, spec: RetrainSpec, rng_seed: int):
        """One training attempt: load, split, build, fit.

        This is the retried/watchdogged unit; the TRAINER fault seam
        fires at its start so injected crashes and hangs behave like a
        trainer that died mid-fit (each retry re-fires the seam).
        """
        fault = _faults.fire(_faults.TRAINER, region=spec.name)
        if fault is not None:
            _faults.apply_trainer_fault(fault)
        from ..runtime.collect import load_training_data
        x, y, _t = load_training_data(spec.db_path, spec.name)
        rng = np.random.default_rng(rng_seed)
        if spec.recency_half_life is not None and len(x) > 1:
            # Split on original row indices first, then bootstrap each
            # partition by row age independently — no row can land in
            # both train and validation, and the validation loss that
            # drives early stopping reflects the same recency-weighted
            # regime the surrogate is trained for.
            train_idx, val_idx = train_val_split(
                x, y, spec.val_fraction, rng, return_indices=True)
            n = len(x)
            train_idx = recency_weighted_indices(
                train_idx, n, spec.recency_half_life, rng)
            val_idx = recency_weighted_indices(
                val_idx, n, spec.recency_half_life, rng)
            xt, yt = x[train_idx], y[train_idx]
            xv, yv = x[val_idx], y[val_idx]
        else:
            (xt, yt), (xv, yv) = train_val_split(x, y, spec.val_fraction,
                                                 rng)
        model = spec.build(xt, yt)
        trainer = Trainer(model, seed=rng_seed,
                          warm_start=spec.opt_state if spec.warm_start
                          else None, **spec.trainer_kwargs)
        result = trainer.fit(xt, yt, xv, yv)
        return model, trainer, result, xv

    def _retrain(self, spec: RetrainSpec, rows: int) -> RetrainEvent:
        """One retrain + hot-swap, recorded as a trace span (the
        nested ``hot_swap`` span lands under it)."""
        from .. import obs
        with obs.tracer().span("retrain", region=spec.name) as span:
            event = self._retrain_inner(spec, rows)
            if span is not None:
                span.attrs.update(rows=event.rows, new_rows=event.new_rows,
                                  val_loss=event.val_loss,
                                  compiled=event.compiled)
        if obs.is_enabled():
            obs.metrics().counter("retrains", region=spec.name).inc()
        return event

    def _retrain_inner(self, spec: RetrainSpec, rows: int) -> RetrainEvent:
        start = time.perf_counter()
        rng_seed = self.seed + 31 * (len(self.events) + 1)

        def attempt():
            return run_with_timeout(
                lambda: self._train_step(spec, rng_seed),
                self.job_timeout, name=f"retrain:{spec.name}")

        if self.retry is not None:
            model, trainer, result, xv = self.retry.run(
                attempt,
                on_retry=lambda n, exc: self._append_error(
                    f"{spec.name}: attempt {n} failed "
                    f"({type(exc).__name__}: {exc}); retrying"))
        else:
            model, trainer, result, xv = attempt()
        if spec.warm_start:
            spec.opt_state = trainer.optimizer_state()
        spec.compiled_last = trainer.compiled_active
        verify_inputs = xv[:32] if self.verify_swap and len(xv) else None
        hot_swap_model(model, spec.model_path, spec.engines,
                       verify_inputs=verify_inputs)
        if spec.qos is not None:
            # The rolling error stats describe the replaced weights;
            # drop them so the new model re-enters via warmup probes.
            spec.qos.reset_region(spec.name)
        event = RetrainEvent(spec.name, rows, rows - spec.trained_rows,
                             result.best_val_loss,
                             time.perf_counter() - start,
                             compiled=trainer.compiled_active,
                             fallback=trainer.compile_fallback)
        spec.trained_rows = rows
        self.events.append(event)
        self._note_success(spec)
        if spec.require_compiled and not trainer.compiled_active:
            # The retrained model was still swapped in (the graph path
            # is correct, just slow); surface the coverage break loudly
            # so the operator sees serving-latency jitter coming.
            self._append_error(
                f"{spec.name}: retrain fell back to the graph path "
                f"({trainer.compile_fallback})")
        return event

    def retrain_now(self, name: str) -> RetrainEvent:
        """Force one region's retrain regardless of DB growth.

        Raises when the region requires the compiled path and the
        retrain fell back (the swap still happened — the graph path is
        correct, just slow).
        """
        with self._lock:
            spec = self._specs[name]
            try:
                event = self._retrain(spec, db_row_count(spec.db_path,
                                                         spec.name))
            except Exception as exc:
                self._record_failure(spec, exc)
                raise
        if spec.require_compiled and not event.compiled:
            raise RuntimeError(
                f"{spec.name}: retrain fell back to the graph path "
                f"({event.fallback})")
        return event

    def poll(self) -> list:
        """One watch cycle: retrain every region whose DB grew enough.

        Per-spec failures are contained: one region's crashed DB read or
        exhausted-retries trainer lands in :attr:`errors` (and bumps its
        spec's ``consecutive_failures``) while the other due regions
        still retrain this tick.  ``trained_rows`` only advances on
        success, so a failed refresh is retried next cycle.  A
        ``require_compiled`` coverage break likewise lands in
        :attr:`errors` without aborting the cycle.
        """
        events = []
        with self._lock:
            for spec in self._specs.values():
                try:
                    rows = db_row_count(spec.db_path, spec.name)
                    if rows - spec.trained_rows >= spec.min_new_rows:
                        events.append(self._retrain(spec, rows))
                except Exception as exc:
                    self._record_failure(spec, exc)
        return events

    # -- background thread -----------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self, interval: float = 1.0) -> None:
        """Poll every ``interval`` seconds on a daemon thread.

        A failing cycle — e.g. a poll that catches the training DB
        mid-rewrite, or a transient trainer error — is recorded in
        :attr:`errors` and the loop keeps going; one bad tick must not
        end online retraining for the life of the server.
        """
        if self.running:
            raise RuntimeError("RetrainWorker already running")
        self._stop.clear()

        def loop():
            while not self._stop.wait(interval):
                try:
                    self.poll()
                except Exception as exc:
                    self._append_error(f"{type(exc).__name__}: {exc}")

        self._thread = threading.Thread(target=loop, name="retrain-worker",
                                        daemon=True)
        self._thread.start()

    def stop(self, timeout: float | None = 30.0) -> list:
        """Stop the thread; a final poll catches late DB refreshes.

        The join is bounded by ``timeout``: a retrain hung past the
        watchdog must not hang shutdown too.  When the thread fails to
        join, it is abandoned (daemon — it dies with the process), the
        condition lands in :attr:`errors`, and the final poll is
        skipped: the hung cycle still holds the worker lock.
        """
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout)
            if self._thread.is_alive():
                self._append_error(
                    f"stop: retrain thread failed to join within "
                    f"{timeout:g}s; abandoning it")
                self._thread = None
                return []
            self._thread = None
        return self.poll()

    def snapshot(self) -> dict:
        return {
            "watched": {name: {"trained_rows": spec.trained_rows,
                               "min_new_rows": spec.min_new_rows,
                               "recency_half_life": spec.recency_half_life,
                               "warm_start": spec.warm_start,
                               "require_compiled": spec.require_compiled,
                               "compiled_last": spec.compiled_last,
                               "consecutive_failures":
                                   spec.consecutive_failures,
                               "db_path": str(spec.db_path),
                               "model_path": str(spec.model_path)}
                        for name, spec in self._specs.items()},
            "retrains": [e.as_dict() for e in self.events],
            "errors": list(self.errors),
            "retry": None if self.retry is None else {
                "max_attempts": self.retry.max_attempts,
                "base_delay": self.retry.base_delay,
                "max_delay": self.retry.max_delay},
            "job_timeout": self.job_timeout,
            "running": self.running,
        }
