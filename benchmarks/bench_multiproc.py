"""Multiprocess serving benchmark: slab-ring throughput + IPC overhead.

Measures the :class:`~repro.serving.ProcessPoolBackend` (PR 8) against
the serial baseline on the Table IV MLP shapes:

* **throughput** — four replicas of one app shape served round-robin
  through a ``RegionServer``, ``SerialBackend`` versus
  ``ProcessPoolBackend(workers=4)`` (one region per worker).  Reported
  both ways:

  - *measured*: wall-clock seconds for the same invocation stream;
  - *modeled*: the critical path under perfect overlap,
    ``max(parent CPU seconds, slowest worker's busy CPU seconds)``.
    Parent CPU is ``time.process_time()`` across the serving loop
    (gather/scatter + IPC in the affinity threads); worker busy CPU is
    accounted per forward inside each worker and summed per worker via
    the slab clients.

  On a box with at least ``workers + 1`` cores the measured number is
  authoritative; on a 1-core container (the CI image) the four workers
  time-slice one CPU, so wall clock cannot show the overlap and the
  modeled number is the honest concurrency figure — the same
  simulation methodology the repo's ``Device.dense_speedup`` uses.
  ``summary.mode`` records which basis the 2x target was judged on,
  and ``cores`` is always recorded.

  The hot path must stay zero-copy: the run fails if any invocation
  fell back to pickling an array (``pickle_fallbacks`` must be 0).

* **ipc** — per-invocation transport overhead for one worker:
  round-trip wall minus in-worker forward wall, slab transport versus
  the pickle baseline (``transport="pickle"`` ships arrays through the
  pipe), plus the in-process engine call as a floor.

Results land in ``BENCH_multiproc.json`` (schema ``bench_multiproc/v1``).
Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_multiproc.py
    PYTHONPATH=src python benchmarks/bench_multiproc.py --quick
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import IN_FEATURES, OUT_FEATURES  # noqa: E402
from bench_inference_fastpath import build_shape  # noqa: E402

from repro.api import approx_ml                     # noqa: E402
from repro.nn import save_model                     # noqa: E402
from repro.obs.registry import MetricsRegistry      # noqa: E402
from repro.runtime import InferenceEngine           # noqa: E402
from repro.serving import (ProcessPoolBackend, RegionServer,  # noqa: E402
                           RemoteEngineClient, WorkerHandle)

SCHEMA = "bench_multiproc/v1"

#: Table IV MLP apps exercised by the throughput scenario (>= 2 apps,
#: per the PR-8 acceptance bar); labels mirror bench_inference_fastpath.
APPS = [
    ("binomial-m", "binomial",
     {"hidden1_features": 160, "hidden2_features": 96}),
    ("bonds-m", "bonds",
     {"hidden1_features": 160, "hidden2_features": 96}),
    ("minibude-s", "minibude",
     {"num_hidden_layers": 3, "hidden1_size": 128,
      "feature_multiplier": 0.8}),
]


def make_mlp_region(workdir, benchmark: str, arch: dict, *, name: str,
                    seed: int = 0, auto_batch: bool = False):
    """A served region wrapping one Table IV MLP shape on ``ml(infer)``.

    The model is built with the same builders the NAS spaces deploy,
    saved under ``workdir``, and the region's maps move ``(N, F)``
    inputs / ``(N,)`` or ``(N, K)`` outputs — so every invocation is
    one engine forward of ``N`` rows.  Returns ``(region, n_params)``.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    model = build_shape(benchmark, arch, seed=seed)
    path = workdir / f"{name}.rnm"
    save_model(model, path)
    n_in = IN_FEATURES[benchmark]
    n_out = OUT_FEATURES[benchmark]
    fo = ("fo: [i, 0:1] = ([i])" if n_out == 1
          else f"fo: [i, 0:{n_out}] = ([i, 0:{n_out}])")
    src = f"""
#pragma approx tensor functor(fi: [i, 0:{n_in}] = ([i, 0:{n_in}]))
#pragma approx tensor functor({fo})
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer) in(x) out(y) model("{path}")
"""

    @approx_ml(src, name=name, auto_batch=auto_batch)
    def region(x, y, N):
        y[...] = 0.0          # accurate body unused: ml(infer) always infers

    return region, int(model.num_parameters())


def make_io(benchmark: str, rows: int, seed: int = 0):
    """One ``(rows, F)`` input block and a matching output buffer."""
    rng = np.random.default_rng(seed)
    x = np.ascontiguousarray(rng.normal(size=(rows, IN_FEATURES[benchmark])))
    n_out = OUT_FEATURES[benchmark]
    y = np.zeros(rows) if n_out == 1 else np.zeros((rows, n_out))
    return x, y


# ----------------------------------------------------------------------
# Scenario: aggregate invocation throughput, serial vs 4-worker pool
# ----------------------------------------------------------------------

def _serve_pass(server, names, x, ys, invocations, rows) -> int:
    futures = []
    for _ in range(invocations):
        for name, y in zip(names, ys):
            result = server.invoke(name, x, y, rows)
            if result is not None and hasattr(result, "result"):
                futures.append(result)
    server.drain()
    for future in futures:
        future.result()
    return invocations * len(names) * rows


def _timed_pass(server, names, x, ys, invocations, rows, repeats,
                busy_probe=None):
    """Best-of-``repeats`` (by wall): (wall_s, parent_cpu_s, busy_by_worker)."""
    best = None
    for _ in range(repeats):
        busy0 = busy_probe() if busy_probe is not None else {}
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        _serve_pass(server, names, x, ys, invocations, rows)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        busy = {}
        if busy_probe is not None:
            busy1 = busy_probe()
            busy = {k: busy1[k] - busy0.get(k, 0.0) for k in busy1}
        if best is None or wall < best[0]:
            best = (wall, cpu, busy)
    return best


def scenario_throughput(workdir, *, quick, workers=4, replicas=4) -> dict:
    rows = 32 if quick else 256
    invocations = 4 if quick else 30
    repeats = 1 if quick else 3
    total_rows = replicas * invocations * rows
    cores = os.cpu_count() or 1
    # Wall clock can only exhibit the overlap when the workers and the
    # serving parent all have their own core; otherwise judge on the
    # modeled critical path (see module docstring).
    mode = "measured" if cores > workers else "modeled"

    out = {"workers": workers, "replicas": replicas,
           "rows_per_invocation": rows, "invocations_per_region": invocations,
           "repeats": repeats, "cores": cores, "mode": mode,
           "target": 2.0, "apps": {}}
    for label, benchmark, arch in APPS:
        regions, n_params = [], 0
        names, ys, ys_serial = [], [], []
        x, _ = make_io(benchmark, rows, seed=17)
        for r in range(replicas):
            name = f"{label}-r{r}"
            region, n_params = make_mlp_region(
                workdir / "throughput", benchmark, arch, name=name, seed=r)
            regions.append(region)
            names.append(name)
            ys.append(make_io(benchmark, rows)[1])

        # Serial baseline: every forward runs inline in the parent.
        server = RegionServer()
        for region in regions:
            server.register(region)
        _serve_pass(server, names, x, ys, 1, rows)            # warm plans
        serial_wall, serial_cpu, _ = _timed_pass(
            server, names, x, ys, invocations, rows, repeats)
        ys_serial = [y.copy() for y in ys]

        # Process pool: one region replica per worker, slab transport.
        backend = ProcessPoolBackend(workers=workers, request_timeout=120.0,
                                     registry=MetricsRegistry())
        pserver = RegionServer(backend=backend)
        for region in regions:
            pserver.register(region)

        def busy_probe():
            per_worker = {}
            for name in names:
                widx = backend.worker_for(name)
                client = backend.client_for(name)
                per_worker[widx] = (per_worker.get(widx, 0.0)
                                    + client.busy_seconds)
            return per_worker

        _serve_pass(pserver, names, x, ys, 1, rows)           # warm workers
        proc_wall, proc_cpu, busy = _timed_pass(
            pserver, names, x, ys, invocations, rows, repeats,
            busy_probe=busy_probe)
        max_busy = max(busy.values()) if busy else 0.0
        modeled = max(proc_cpu, max_busy)
        fallbacks = sum(backend.client_for(n).pickle_fallbacks
                        for n in names)
        diff = max(float(np.abs(yp - ysr).max())
                   for yp, ysr in zip(ys, ys_serial))
        pserver.close()                  # restores engines, closes regions
        if fallbacks:
            raise RuntimeError(
                f"{label}: {fallbacks} hot-path forwards pickled arrays — "
                f"the slab ring must carry every tensor")

        speedup_measured = serial_wall / proc_wall
        speedup_modeled = serial_wall / modeled if modeled > 0 else 0.0
        achieved = (speedup_measured if mode == "measured"
                    else speedup_modeled)
        out["apps"][label] = {
            "benchmark": benchmark,
            "arch": arch,
            "n_params": n_params,
            "serial": {
                "seconds": serial_wall,
                "cpu_seconds": serial_cpu,
                "rows": total_rows,
                "rows_per_second": total_rows / serial_wall,
            },
            "process": {
                "seconds": proc_wall,
                "parent_cpu_seconds": proc_cpu,
                "worker_busy_seconds": {str(k): v
                                        for k, v in sorted(busy.items())},
                "max_worker_busy_seconds": max_busy,
                "modeled_seconds": modeled,
                "rows": total_rows,
                "rows_per_second_measured": total_rows / proc_wall,
                "rows_per_second_modeled":
                    total_rows / modeled if modeled > 0 else 0.0,
                "pickle_fallbacks": fallbacks,
            },
            "speedup_measured": speedup_measured,
            "speedup_modeled": speedup_modeled,
            "speedup_achieved": achieved,
            "target_met": bool(achieved >= 2.0),
            "max_abs_diff": diff,
            "outputs_match": bool(diff <= 1e-9),
            "zero_copy": fallbacks == 0,
        }
    apps = out["apps"].values()
    out["apps_meeting_target"] = sum(a["target_met"] for a in apps)
    out["all_outputs_match"] = all(a["outputs_match"] for a in apps)
    out["all_zero_copy"] = all(a["zero_copy"] for a in apps)
    return out


# ----------------------------------------------------------------------
# Scenario: per-invocation IPC overhead, slab vs pickle transport
# ----------------------------------------------------------------------

def scenario_ipc(workdir, *, quick) -> dict:
    rows = 32 if quick else 256
    repeats = 20 if quick else 300
    label, benchmark, arch = APPS[0]
    model = build_shape(benchmark, arch, seed=0)
    path = Path(workdir) / "ipc" / f"{label}.rnm"
    path.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, path)
    x, _ = make_io(benchmark, rows, seed=5)

    out = {"shape": label, "rows": rows, "repeats": repeats,
           "payload_bytes_in": int(x.nbytes),
           "payload_bytes_out": rows * OUT_FEATURES[benchmark] * 8,
           "transports": {}}

    # In-process floor: the engine call the worker itself runs.
    engine = InferenceEngine()
    engine.infer(path, x)                            # warm the plan
    forward_wall = 0.0
    t0 = time.perf_counter()
    for _ in range(repeats):
        _, timing = engine.infer(path, x)
        forward_wall += timing["forward_wall"]
    wall = time.perf_counter() - t0
    out["transports"]["inproc"] = {
        "roundtrip_us": wall / repeats * 1e6,
        "forward_us": forward_wall / repeats * 1e6,
        "overhead_us": (wall - forward_wall) / repeats * 1e6,
    }

    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else methods[0])
    for transport in ("shm", "pickle"):
        handle = WorkerHandle(1000 if transport == "shm" else 1001, ctx,
                              request_timeout=120.0)
        client = RemoteEngineClient(handle, transport=transport,
                                    timeout=120.0)
        try:
            client.infer(path, x)                    # warm worker plan
            forward_wall = 0.0
            t0 = time.perf_counter()
            for _ in range(repeats):
                _, timing = client.infer(path, x)
                forward_wall += timing.get("forward_wall", 0.0)
            wall = time.perf_counter() - t0
            out["transports"][transport] = {
                "roundtrip_us": wall / repeats * 1e6,
                "forward_us": forward_wall / repeats * 1e6,
                "overhead_us": (wall - forward_wall) / repeats * 1e6,
                "pickle_fallbacks": client.pickle_fallbacks,
            }
        finally:
            client.close()
            handle.close()
    shm_over = out["transports"]["shm"]["overhead_us"]
    pickle_over = out["transports"]["pickle"]["overhead_us"]
    out["pickle_vs_shm_overhead"] = (pickle_over / shm_over
                                     if shm_over > 0 else 0.0)
    return out


# ----------------------------------------------------------------------

def run_benchmark(workdir, *, quick: bool = False, workers: int = 4) -> dict:
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    throughput = scenario_throughput(workdir, quick=quick, workers=workers)
    ipc = scenario_ipc(workdir, quick=quick)
    return {
        "schema": SCHEMA,
        "config": {"quick": quick, "workers": workers,
                   "cores": throughput["cores"],
                   "start_method": mp.get_start_method(allow_none=True)
                   or ("fork" if "fork" in mp.get_all_start_methods()
                       else mp.get_all_start_methods()[0])},
        "throughput": throughput,
        "ipc": ipc,
        "summary": {
            "mode": throughput["mode"],
            "cores": throughput["cores"],
            "apps_meeting_target": throughput["apps_meeting_target"],
            "apps_total": len(throughput["apps"]),
            "all_zero_copy": throughput["all_zero_copy"],
            "all_outputs_match": throughput["all_outputs_match"],
            "best_speedup_measured": max(
                a["speedup_measured"] for a in throughput["apps"].values()),
            "best_speedup_modeled": max(
                a["speedup_modeled"] for a in throughput["apps"].values()),
            "ipc_overhead_us_shm":
                ipc["transports"]["shm"]["overhead_us"],
            "ipc_overhead_us_pickle":
                ipc["transports"]["pickle"]["overhead_us"],
            "pickle_vs_shm_overhead": ipc["pickle_vs_shm_overhead"],
        },
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_multiproc.json",
                        help="output JSON path")
    parser.add_argument("--workdir", default=None,
                        help="scratch dir (default: temp dir)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for smoke testing")
    args = parser.parse_args(argv)

    kwargs = dict(quick=args.quick, workers=args.workers)
    if args.workdir is None:
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            results = run_benchmark(tmp, **kwargs)
    else:
        results = run_benchmark(args.workdir, **kwargs)

    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    thr = results["throughput"]
    print(f"throughput mode={thr['mode']} (cores={thr['cores']}, "
          f"workers={thr['workers']})")
    for label, app in thr["apps"].items():
        print(f"  {label}: serial "
              f"{app['serial']['rows_per_second']:,.0f} rows/s | process "
              f"measured {app['speedup_measured']:.2f}x, modeled "
              f"{app['speedup_modeled']:.2f}x | zero_copy="
              f"{app['zero_copy']} diff={app['max_abs_diff']:.2e}")
    ipc = results["ipc"]
    for transport, row in ipc["transports"].items():
        print(f"ipc[{transport}]: roundtrip {row['roundtrip_us']:.1f} us "
              f"(overhead {row['overhead_us']:.1f} us)")
    print(f"ipc overhead pickle/shm: {ipc['pickle_vs_shm_overhead']:.2f}x")
    summ = results["summary"]
    print(f"summary: {summ['apps_meeting_target']}/{summ['apps_total']} "
          f"apps >= 2x ({summ['mode']})")
    return results


if __name__ == "__main__":
    main()
