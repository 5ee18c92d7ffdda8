"""Resilience benchmark: availability and recovery under injected faults.

Runs the scripted fault suite from the resilience subsystem
(:mod:`repro.resilience`) against live serving components and measures
the three headline properties of the self-healing stack:

* **availability** — the fraction of invocations served (finite
  outputs, no exception escaping to the application) while faults are
  firing.  The circuit breaker plus accurate-path fallback must keep
  this at 100%.
* **QoI error held** — the relative L2 error of everything served
  during a fault burst stays bounded by the surrogate's own fault-free
  error (fallbacks serve the *accurate* kernel, which can only help).
* **time to recovery** — how long each component stays degraded after
  the fault clears: breaker re-close latency after a NaN burst,
  retrain wall time after repeated trainer crashes, and swap retry
  latency after a corrupted hot-swap candidate is rolled back.

Scenarios:

* **nan_burst** — a guarded infer region whose surrogate emits NaN for
  a scripted window; the breaker demotes it to the accurate path and
  probes it back to health after the burst.
* **trainer_crashes** — a ``RetrainWorker`` whose trainer crashes three
  times before succeeding; failures are contained per-spec (serving
  continues throughout) and the fourth attempt retrains and hot-swaps.
* **corrupt_swap** — a hot-swap candidate truncated in flight; the
  checksum verifier rejects it, the deployed model keeps serving
  untouched, and a clean retry lands the swap.
* **determinism** — the same seed replays a bit-identical fault
  schedule (the property every test above leans on).

Results land in ``BENCH_resilience.json`` (schema
``bench_resilience/v1``).  Quick mode additionally asserts the
acceptance floor ``availability >= 0.99``.  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_resilience.py
    PYTHONPATH=src python benchmarks/bench_resilience.py --quick
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.api import approx_ml
from repro.nn import Linear, Sequential, save_model
from repro.resilience import (HOT_SWAP, SURROGATE, TRAINER, CircuitBreaker,
                              FaultInjector)
from repro.runtime import DataCollector, EventLog, InferenceEngine
from repro.serving import HotSwapError, RetrainWorker, hot_swap_model

SCHEMA = "bench_resilience/v1"


def _relative(pred: np.ndarray, ref: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64).ravel()
    ref = np.asarray(ref, dtype=np.float64).ravel()
    return float(np.linalg.norm(pred - ref) /
                 (np.linalg.norm(ref) + 1e-12))


def _linear_model(weight: float) -> Sequential:
    model = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
    model[0].weight.data = np.array([[weight, weight]])
    model[0].bias.data = np.array([0.0])
    return model


def _infer_region(workdir: Path, name: str, *, weight: float,
                  scale: float = 1.0):
    """2->1 infer-mode region: surrogate predicts ``weight * row_sum``,
    the accurate kernel computes ``scale * row_sum``."""
    save_model(_linear_model(weight), workdir / f"{name}.rnm")
    src = f"""
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer) in(x) out(y) \\
    db("{workdir}/{name}.rh5") model("{workdir}/{name}.rnm")
"""
    log = EventLog()

    @approx_ml(src, name=name, event_log=log)
    def region(x, y, N):
        y[:N] = x[:N].sum(axis=1) * scale

    return region, log


# ----------------------------------------------------------------------
# Scenario: surrogate NaN burst under a circuit breaker
# ----------------------------------------------------------------------

def scenario_nan_burst(workdir: Path, *, invocations: int,
                       seed: int) -> dict:
    # A near-perfect surrogate (1% off the kernel) so "QoI error held"
    # is a real statement: fallbacks serve the exact kernel, so the
    # under-burst error can only be <= the fault-free surrogate error.
    region, _ = _infer_region(workdir / "burst", "burst", weight=1.01)
    breaker = CircuitBreaker(failure_threshold=2, quarantine_threshold=6,
                             recovery_successes=2, probe_interval=4,
                             cooldown=8, name="burst")
    region.config.breaker = breaker

    # The window indexes surrogate *forwards*, not invocations: once the
    # breaker opens, only probe forwards advance the counter, so a burst
    # of 6 faulted forwards exercises the full demote/quarantine/probe/
    # recover cycle within the invocation budget.
    burst_start = invocations // 4
    burst_stop = burst_start + 6
    injector = FaultInjector(seed=seed)
    injector.script(SURROGATE, "nan", start=burst_start, stop=burst_stop)

    rng = np.random.default_rng(seed)
    chunk = 8
    served = 0
    failures = 0
    states = []
    outputs = []
    refs = []
    t0 = time.perf_counter()
    with injector:
        for _ in range(invocations):
            x = rng.random((chunk, 2)) + 0.5
            y = np.full(chunk, np.nan)
            try:
                region(x, y, chunk)
            except Exception:
                failures += 1
            else:
                if np.all(np.isfinite(y)):
                    served += 1
                else:
                    failures += 1
            states.append(breaker.state)
            outputs.append(y.copy())
            refs.append(x.sum(axis=1))
    wall = time.perf_counter() - t0

    unhealthy = [i for i, s in enumerate(states)
                 if s != CircuitBreaker.HEALTHY]
    degraded_span = (unhealthy[-1] + 1 - unhealthy[0]) if unhealthy else 0
    # Fault-free reference error of this surrogate: weight 1.01 vs 1.0.
    snap = breaker.snapshot()
    return {
        "invocations": invocations,
        "burst_window": [burst_start, burst_stop],
        "availability": served / invocations,
        "unserved": failures,
        "qoi_relative_error": _relative(np.concatenate(outputs),
                                        np.concatenate(refs)),
        "fault_free_relative_error": 0.01,
        "faults_fired": len(injector.fired),
        "fallbacks": snap["fallbacks"],
        "breaker_transitions": [list(t) for t in breaker.transitions],
        "degraded_span_invocations": degraded_span,
        "recovered": states[-1] == CircuitBreaker.HEALTHY,
        "seconds": wall,
    }


# ----------------------------------------------------------------------
# Scenario: trainer crashes x3, recovery on the fourth attempt
# ----------------------------------------------------------------------

def scenario_trainer_crashes(workdir: Path, *, rows: int, epochs: int,
                             seed: int) -> dict:
    workdir = workdir / "trainer"
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    x = rng.random((rows, 2))
    y = (2.0 * x[:, 0] + 3.0 * x[:, 1]).reshape(-1, 1)
    save_model(_linear_model(0.0), workdir / "w.rnm")

    engine = InferenceEngine()
    worker = RetrainWorker(seed=seed)
    spec = worker.watch(
        "w", workdir / "w.rh5", workdir / "w.rnm",
        build=lambda xt, yt: Sequential(
            Linear(2, 1, rng=np.random.default_rng(1))),
        trainer_kwargs=dict(lr=0.1, batch_size=32, max_epochs=epochs,
                            patience=max(epochs // 2, 10)),
        min_new_rows=16, engines=[engine])
    coll = DataCollector(workdir / "w.rh5")
    coll.record("w", x, y, 0.01)
    coll.close()

    injector = FaultInjector(seed=seed)
    injector.script(TRAINER, "raise", at=[0, 1, 2])   # crash x3, then ok

    probe = x[:16]
    serving_ok = 0
    polls = 0
    events = []
    t0 = time.perf_counter()
    with injector:
        while not events and polls < 8:
            events = worker.poll()
            polls += 1
            # Serving rides through every failed retrain attempt: the
            # deployed (stale) model keeps answering.
            out, _ = engine.infer(workdir / "w.rnm", probe)
            if np.all(np.isfinite(out)):
                serving_ok += 1
    recovery_seconds = time.perf_counter() - t0

    pred = engine.infer(workdir / "w.rnm", x)[0].ravel()
    return {
        "rows": rows,
        "crashes_injected": 3,
        "polls_to_recovery": polls,
        "recovered": len(events) == 1,
        "availability": serving_ok / polls,
        "errors_recorded": len(worker.errors),
        "consecutive_failures_after": spec.consecutive_failures,
        "recovery_seconds": recovery_seconds,
        "post_retrain_relative_error": _relative(pred, y),
        "val_loss": events[0].val_loss if events else None,
    }


# ----------------------------------------------------------------------
# Scenario: corrupt candidate at hot-swap time -> rollback -> retry
# ----------------------------------------------------------------------

def scenario_corrupt_swap(workdir: Path, *, seed: int) -> dict:
    workdir = workdir / "swap"
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "m.rnm"
    save_model(_linear_model(1.0), path)
    engine = InferenceEngine()
    x = np.ones((4, 2))
    np.testing.assert_allclose(engine.infer(path, x)[0].ravel(), 2.0)

    injector = FaultInjector(seed=seed)
    injector.script(HOT_SWAP, "truncate", at=[0], keep=0.5)

    rolled_back = False
    served_during = 0
    attempts = 4
    with injector:
        for _ in range(attempts):
            try:
                hot_swap_model(_linear_model(10.0), path, engines=[engine],
                               verify_inputs=x)
            except HotSwapError:
                rolled_back = True
            out = engine.infer(path, x)[0].ravel()
            if np.all(np.isfinite(out)):
                served_during += 1

    # After the faulted attempt the retry landed: new weights serve.
    t0 = time.perf_counter()
    final = engine.infer(path, x)[0].ravel()
    swap_landed = bool(np.allclose(final, 20.0))
    return {
        "attempts": attempts,
        "rolled_back": rolled_back,
        "availability": served_during / attempts,
        "no_tmp_litter": not path.with_name(path.name + ".swap").exists(),
        "swap_landed": swap_landed,
        "retry_seconds": time.perf_counter() - t0,
    }


# ----------------------------------------------------------------------
# Scenario: seeded schedules replay bit-identically
# ----------------------------------------------------------------------

def scenario_determinism(*, seed: int) -> dict:
    def drive():
        injector = FaultInjector(seed=seed)
        injector.script(SURROGATE, "nan", probability=0.25)
        injector.script(TRAINER, "raise", at=[1, 3], )
        injector.script(HOT_SWAP, "corrupt", every=5)
        from repro.resilience import faults as faults_mod
        with injector:
            for _ in range(64):
                faults_mod.fire(SURROGATE)
            for _ in range(6):
                faults_mod.fire(TRAINER)
            for _ in range(15):
                faults_mod.fire(HOT_SWAP)
        return injector.schedule()

    first, second = drive(), drive()
    return {
        "schedule_length": len(first),
        "schedules_identical": first == second,
        "first_entries": [list(e) for e in first[:5]],
    }


# ----------------------------------------------------------------------

def run_benchmark(workdir, *, quick: bool = False) -> dict:
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    invocations = 120 if quick else 400
    rows = 64 if quick else 256
    epochs = 30 if quick else 80
    seed = 0

    nan_burst = scenario_nan_burst(workdir, invocations=invocations,
                                   seed=seed)
    trainer = scenario_trainer_crashes(workdir, rows=rows, epochs=epochs,
                                       seed=seed)
    swap = scenario_corrupt_swap(workdir, seed=seed)
    determinism = scenario_determinism(seed=seed)

    availability = min(nan_burst["availability"], trainer["availability"],
                       swap["availability"])
    results = {
        "schema": SCHEMA,
        "config": {"quick": quick, "invocations": invocations,
                   "rows": rows, "epochs": epochs, "seed": seed},
        "nan_burst": nan_burst,
        "trainer_crashes": trainer,
        "corrupt_swap": swap,
        "determinism": determinism,
        "summary": {
            "availability": availability,
            "availability_floor_met": bool(availability >= 0.99),
            "qoi_error_held": bool(
                nan_burst["qoi_relative_error"]
                <= nan_burst["fault_free_relative_error"] + 1e-9),
            "breaker_recovered": nan_burst["recovered"],
            "trainer_recovered": trainer["recovered"],
            "swap_rolled_back_and_landed": bool(
                swap["rolled_back"] and swap["swap_landed"]),
            "schedules_identical": determinism["schedules_identical"],
        },
    }
    if quick:
        # The acceptance floor the CI lane enforces.
        assert availability >= 0.99, (
            f"availability {availability:.4f} below the 0.99 floor")
    return results


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_resilience.json",
                        help="output JSON path")
    parser.add_argument("--workdir", default=None,
                        help="scratch dir (default: temp dir)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for smoke testing")
    args = parser.parse_args(argv)

    if args.workdir is None:
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            results = run_benchmark(tmp, quick=args.quick)
    else:
        results = run_benchmark(args.workdir, quick=args.quick)

    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    burst = results["nan_burst"]
    print(f"nan_burst: availability {burst['availability']:.4f}, QoI "
          f"error {burst['qoi_relative_error']:.4g} (fault-free "
          f"{burst['fault_free_relative_error']:.4g}), degraded for "
          f"{burst['degraded_span_invocations']} invocations, "
          f"recovered={burst['recovered']}")
    trn = results["trainer_crashes"]
    print(f"trainer_crashes: {trn['crashes_injected']} crashes, recovered "
          f"on poll {trn['polls_to_recovery']} in "
          f"{trn['recovery_seconds']:.2f} s, serving availability "
          f"{trn['availability']:.4f}, post-retrain error "
          f"{trn['post_retrain_relative_error']:.3g}")
    swap = results["corrupt_swap"]
    print(f"corrupt_swap: rolled_back={swap['rolled_back']}, availability "
          f"{swap['availability']:.4f}, retry landed={swap['swap_landed']}")
    summary = results["summary"]
    print(f"summary: availability {summary['availability']:.4f} "
          f"(floor met: {summary['availability_floor_met']}), "
          f"schedules identical: {summary['schedules_identical']}")
    return results


if __name__ == "__main__":
    main()
