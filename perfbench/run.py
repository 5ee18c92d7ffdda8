"""Wall-clock benchmark of HPAC-ML deployments, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload portfolio_b1 --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run, made
in ``PROCESSES`` fresh processes one after another; ``--trace 1``
reports the per-layer metrics of a traced run in this process (see
``tracing.py``).  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each run also appends one row, with its
provenance, to ``perfbench/history.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from envinfo import (SLOW_MODE_MS, blas_probe_ms, cpu_times, provenance,
                     steal_share)
from tracing import PREDICTIONS, Tracer, Window, layer_metrics

#: Fresh processes an untraced run measures in, one after another, each
#: for an equal share of ``--seconds``.  On a shared 2-vCPU host the
#: same passes ran up to 1.5x slower in stretches of a few seconds, and
#: two processes back to back differed by up to 30 %, so one process
#: samples too little; each timing is a trimmed mean over processes
#: (see ``across_processes``).
PROCESSES = 8
#: Seconds a whole untraced run may take before a process is killed.
RUN_LIMIT_S = 160.0
#: Share of a process's measured seconds spent on accurate passes.
ACCURATE_SHARE = 0.3
#: Passes of each kind a process makes even when they overrun its
#: seconds (deployed, accurate).
MIN_PASSES = 3
MIN_ACCURATE_PASSES = 1
#: Invocations per block of the blocked tail percentile.
TAIL_BLOCK = 1000
#: Per-layer metrics printed and kept in the history but left out of the
#: JSON result.  The times read exactly 0 on the workloads where their
#: layer does not run (the modeled transfer time is computed from byte
#: counts, so it repeats exactly), which would pass for a fabricated
#: constant; the qos and resilience layers run only on
#: portfolio_governed, which BENCHMARK.json leaves out (see README).
PRINTED_ONLY = frozenset({
    "qos.shadow.calls", "qos.surrogate_share", "qos.precision.fp32_share",
    "resilience.fallbacks",
    "device.modeled_transfer_s", "bridge.concretize.self_s",
    "runtime.batch.submit.self_s", "runtime.batch.flush.self_s",
    "runtime.batch.wait_s", "runtime.collect.record.self_s",
    "runtime.collect.flush.self_s", "h5.flush.self_s", "apps.kernel.self_s",
    "qos.decide.self_s", "qos.shadow.self_s", "qos.precision.self_s"})


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: measure in this process and write the result to DIR.
    p.add_argument("--child", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def tail_percentile(samples, q=0.99, beyond=10):
    """``(value, percentile)``: the ``q`` quantile, or the highest one
    with at least ``beyond`` samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    q = min(q, max(0.5, 1.0 - beyond / n))
    idx = min(n - 1, int(math.ceil(q * n)) - 1)
    return ordered[idx], q


def blocked_tail(samples, q=0.99):
    """``(value, percentile, blocks)``: the median over blocks of
    consecutive samples (at least ``TAIL_BLOCK`` each) of each block's
    tail percentile.

    A stall from outside the process (another tenant, a descheduled
    BLAS thread) lands in one block and moves this median far less than
    it moves the pooled percentile, which the notes line also reports.
    """
    blocks = max(1, len(samples) // TAIL_BLOCK)
    size = len(samples) / blocks
    values, qs = [], []
    for b in range(blocks):
        value, qb = tail_percentile(
            samples[round(b * size):round((b + 1) * size)], q)
        values.append(value)
        qs.append(qb)
    return statistics.median(values), min(qs), blocks


class Run:
    """Serves passes of one deployment and counts checked invocations."""

    def __init__(self, workload, tracer=None):
        self.w = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        #: The app's own ``run_accurate`` on the same invocation inputs.
        self.reference = workload.reference_accurate()

    def _serve(self, deployed, verify, traced):
        if deployed:
            self.w.prepare()
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.take_window()
            tracer.install()
        try:
            served = self.w.serve(deployed, verify)
        except Exception:                   # an invocation raised
            traceback.print_exc()
            served = None
        finally:
            if tracer is not None:
                tracer.remove()
        window = tracer.take_window() if tracer is not None else None
        if served is None:
            self.attempted += 1
            self.failed += 1
        else:
            self.attempted += served.invocations
        return served, window

    def accurate(self, traced=False):
        """One accurate pass, bitwise against the app's ``run_accurate``."""
        served, window = self._serve(False, False, traced)
        if served is not None and not np.array_equal(served.qoi,
                                                     self.reference):
            self.failed += served.invocations
        return served, window

    def deployed(self, verify=False, traced=False):
        """One deployed pass with its checks and QoI error."""
        served, window = self._serve(True, verify, traced)
        if served is not None:
            failed = self.w.failures(served, verify)
            served.error = self.w.qoi_error(served.qoi, self.reference)
            if not served.error <= self.w.qoi_bound:
                failed = range(served.invocations)
            self.failed += len(failed)
        return served, window


def setup(cls, seed, workdir):
    """Build one deployment, timed from directive parse to ready."""
    start = time.perf_counter()
    dep = cls(seed, workdir)
    return dep, time.perf_counter() - start


def _passes(serve, deadline, minimum=MIN_PASSES):
    """Served passes until ``deadline``, at least ``minimum`` of them
    (``None`` for a pass that raised)."""
    out = []
    while len(out) < minimum or time.perf_counter() < deadline:
        out.append(serve()[0])
    return out


def child(cls, args, workdir):
    """One process's share of an untraced run, written to
    ``workdir/result.json``; ``workdir.parent`` is shared by the run's
    processes."""
    probe = blas_probe_ms()
    dep, setup_s = setup(cls, args.seed, workdir)
    # The first process computes the reference the checks compare
    # against; the others, on the same seed, load it.
    shared = workdir.parent / "reference.npy"
    if shared.exists():
        dep.adopt_reference(np.load(shared))
    run = Run(dep)
    if not shared.exists():
        np.save(shared, run.reference)
    # All accurate passes come first: deployed passes of
    # weather_assimilate write files, and the host's handling of those
    # writes would slow accurate passes interleaved with them.  The
    # set-up's collection has already run the accurate kernel.
    accurate = [r.wall if r else math.nan for r in _passes(
        run.accurate, time.perf_counter() + ACCURATE_SHARE * args.seconds,
        MIN_ACCURATE_PASSES)]
    run.deployed(verify=True)                   # untimed verification
    served = _passes(run.deployed, time.perf_counter()
                     + (1.0 - ACCURATE_SHARE) * args.seconds)
    result = {
        "setup_s": setup_s, "blas_probe_ms": probe,
        "accurate": accurate,
        "deploy": [r.wall if r else math.nan for r in served],
        "latencies": [t for r in served if r for t in r.latencies],
        "errors": [r.error for r in served if r],
        "attempted": run.attempted, "failed": run.failed,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if hasattr(dep, "path_mix"):
        result["path_mix"] = {p: dep.path_mix.count(p)
                              for p in sorted(set(dep.path_mix))}
    dep.close()
    with open(workdir / "result.json", "w") as fh:
        json.dump(result, fh)


def across_processes(values):
    """Mean of the per-process values without the lowest and highest.

    Each process's value is already a median over its passes.  Dropping
    the extremes keeps one process in an unusual state (the slow BLAS
    mode, a long stall) out; the mean of the rest tracks the share of
    the run spent in slow stretches, where a median over processes
    would jump between the fast and the slow level.
    """
    ordered = sorted(values)
    if len(ordered) > 2:
        ordered = ordered[1:-1]
    return statistics.fmean(ordered)


class Totals:
    """Invocation counts of a run whose passes ran in other processes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


def _spawn(args, workdir, seconds, deadline):
    """Run one measuring process; its result, or None when it failed."""
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "0",
           "--child", str(workdir)]
    try:
        # The child's output goes to stderr: stdout ends with our result.
        proc = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:           # killed and reaped
        print("perfbench: a measuring process timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        return None
    with open(workdir / "result.json") as fh:
        return json.load(fh)


def untraced(cls, args, workdir):
    deadline = time.monotonic() + RUN_LIMIT_S
    totals = Totals()
    steal_start = cpu_times()
    results = []
    for k in range(PROCESSES):
        res = _spawn(args, workdir / f"proc{k}", args.seconds / PROCESSES,
                     deadline)
        if res is None:                         # the process failed
            totals.attempted += 1
            totals.failed += 1
            continue
        totals.attempted += res["attempted"]
        totals.failed += res["failed"]
        results.append(res)
    if not results:
        return totals, {}, {}, False
    steal = steal_share(steal_start)

    def per_process(key):
        return across_processes([statistics.median(r[key])
                                 for r in results])

    latencies = [t for r in results for t in r["latencies"]]
    p99, q, blocks = blocked_tail(latencies)
    failed_frac = totals.failed / max(totals.attempted, 1)
    p50s = [statistics.median(r["latencies"]) for r in results]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "deploy_s": (per_process("deploy"), "s"),
        "accurate_s": (per_process("accurate"), "s"),
        "invoke_p50_us": (across_processes(p50s) * 1e6, "us"),
        "qoi_error": (statistics.median(
            e for r in results for e in r["errors"]), "table1_metric"),
        "ok_frac": (1.0 - failed_frac, "ratio"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in results),
                        "MB"),
    }
    metrics = {k: (v, u, "measured", True) for k, (v, u) in metrics.items()}
    # Printed and kept in the history, but not in the JSON result:
    # across runs the tail moves with CPU contention from outside
    # the process (see README).
    metrics["invoke_p99_us"] = (p99 * 1e6, "us", "measured", False)
    metrics["failed_frac"] = (failed_frac, "ratio", "measured", False)
    metrics["speedup_wall"] = (metrics["accurate_s"][0]
                               / metrics["deploy_s"][0], "ratio",
                               "measured", False)
    notes = {
        "processes": len(results),
        "deploy_passes": sum(len(r["deploy"]) for r in results),
        "accurate_passes": sum(len(r["accurate"]) for r in results),
        "latency_samples": len(latencies), "tail_percentile": q,
        "tail_blocks": blocks,
        "pooled_tail_us": tail_percentile(latencies)[0] * 1e6,
        "cpu_steal_share": steal,
        "qoi_metric": cls.metric, "qoi_bound": cls.qoi_bound,
        "setup_runs": [r["setup_s"] for r in results],
        "blas_probe_ms": [r["blas_probe_ms"] for r in results],
        "deploy_medians": [statistics.median(r["deploy"]) for r in results],
        "accurate_medians": [statistics.median(r["accurate"])
                             for r in results],
        "p50_us": [v * 1e6 for v in p50s],
    }
    if "path_mix" in results[0]:
        notes["path_mix"] = [r["path_mix"] for r in results]
    return totals, metrics, notes, None


def traced(cls, args, workdir):
    tracer = Tracer()
    tracer.install()
    try:
        dep, _ = setup(cls, args.seed, workdir / "setup0")
    finally:
        tracer.remove()
    setup_window = tracer.take_window()
    tracer.flops_per_row = dep.flops_per_row
    run = Run(dep, tracer)
    run.accurate()
    run.deployed(verify=True)
    untraced_walls, traced_walls = [], []
    deploy_total, accurate_total = Window(), Window()
    signatures = set()
    perf = time.perf_counter
    steal_start = cpu_times()
    deadline = perf() + args.seconds
    rounds = 0
    while perf() < deadline or rounds < MIN_PASSES:
        rounds += 1
        # Alternate which of the pair goes first, so neither always runs
        # right after the accurate pass.
        for traced_pass in (False, True) if rounds % 2 else (True, False):
            res, window = run.deployed(traced=traced_pass)
            if res is None:
                continue
            if not traced_pass:
                untraced_walls.append(res.wall)
                continue
            traced_walls.append(res.wall)
            deploy_total.add(window)
            signatures.add(_count_signature(window))
        accurate_total.add(run.accurate(traced=True)[1])
    n = len(traced_walls)
    metrics = layer_metrics(deploy_total, accurate_total, setup_window, n,
                            sum(traced_walls))
    metrics["trace_overhead"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls)
        - 1.0 if traced_walls and untraced_walls else math.nan)
    # ``unattributed_s`` is the wall time minus the self time of every
    # span, so this sum matches the wall only when every span's self
    # time is reported.  The accurate-pass kernel time is reported
    # beside them but belongs to another pass.
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s")
                   and ".accurate_pass." not in k)
    checks = {
        "reconciled": math.isclose(self_sum + metrics["unattributed_s"],
                                   metrics["traced_wall_s"],
                                   rel_tol=1e-9, abs_tol=1e-12)
        and metrics["unattributed_s"] >= 0
        and all(v >= 0 for k, v in metrics.items() if k.endswith("self_s")),
        "counts_repeat": len(signatures) == 1,
    }
    notes = {"traced_passes": n, "checks": checks,
             "cpu_steal_share": steal_share(steal_start),
             "unattributed_share": metrics["unattributed_s"]
             / metrics["traced_wall_s"] if n else math.nan}
    dep.close()
    trace_dir = Path("perfbench") / ".traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_dir / f"{args.workload}.jsonl.gz")
    metrics = {k: (v, _layer_unit(k), "modeled" if k ==
                   "device.modeled_transfer_s" else "measured",
                   k not in PRINTED_ONLY)
               for k, v in metrics.items()}
    return run, metrics, notes, all(checks.values())


def _count_signature(window) -> tuple:
    """The counts of one traced pass that must repeat exactly."""
    exact = ("bridge.gather.bytes", "bridge.scatter.bytes", "nn.plan.rows",
             "runtime.batch.rows", "runtime.collect.rows",
             "h5.bytes_written", "h5.payload_bytes", "device.bytes",
             "qos.infer_decisions", "qos.precision.fp32",
             "resilience.fallbacks", "runtime.infer.plan_compiles")
    return (tuple(sorted(window.calls.items())),
            tuple((k, window.counts.get(k, 0)) for k in exact))


def _layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("bytes", "bytes"),
                         ("bytes_written", "bytes"), ("gflops", "GFLOP/s"),
                         ("flops", "flop"), ("rows_per_flush", "rows"),
                         ("rows", "rows"), ("ratio", "ratio"),
                         ("share", "ratio"), ("amplification", "ratio"),
                         ("overhead", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout that holds "
              "src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    if args.child:
        child(cls, args, Path(args.child))
        return 0
    prov = provenance(root, args.workload, args.seed, args.seconds,
                      bool(args.trace))
    workdir = root / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"
    # On SIGTERM, unwind like on ^C: a running measuring process is then
    # killed and reaped, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        mode = traced if args.trace else untraced
        run, metrics, notes, checks_ok = mode(cls, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not metrics:
        print("perfbench: every measuring process failed", file=sys.stderr)
        return 1
    # The slow BLAS mode is a property of a process: flag the run when
    # any process that measured it was in it.
    prov["blas_slow_mode"] = prov["blas_slow_mode"] or any(
        p > SLOW_MODE_MS for p in notes.get("blas_probe_ms", ()))
    correct = run.failed == 0 and checks_ok is not False
    print(f"# provenance {json.dumps(prov)}")
    print(f"# workload {cls.name}: {cls.why}")
    for name, (value, unit, kind, gated) in metrics.items():
        print(f"{name:40s} {value:16.6g} {unit:14s} {kind}"
              + ("" if gated else " (printed only)"))
    print(f"# notes {json.dumps(notes)}")
    if args.trace:
        for layer, (metric, workload) in PREDICTIONS.items():
            print(f"# layer {layer:16s} should move {metric} on {workload}")
    row = {"time": time.time(), "provenance": prov, "correct": correct,
           "attempted": run.attempted, "failed": run.failed, "notes": notes,
           "metrics": {k: {"value": v, "unit": u, "kind": kind,
                           "gated": gated}
                       for k, (v, u, kind, gated) in metrics.items()}}
    with open(root / "perfbench" / "history.jsonl", "a") as fh:
        fh.write(json.dumps(row) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _, gated) in metrics.items() if gated}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
