"""Microbenchmark: compiled inference fast path + invocation batching.

Establishes the perf baseline trajectory for the fast-path work:

* **single-call forward** — graph path (autodiff ``Tensor`` forward
  under ``no_grad``, per-call ``eval()``, exactly what the seed engine
  executed) vs the compiled plan, at batch 1, over the Table IV MLP
  shapes of the three MLP benchmarks (MiniBUDE / Binomial / Bonds);
* **invocation throughput** — per-invocation engine round trips vs the
  :class:`~repro.runtime.BatchedInferenceEngine` coalescing the same
  invocations into ``(B, *features)`` forwards.

Results land in ``BENCH_inference.json`` (schema
``bench_inference_fastpath/v1``).  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_inference_fastpath.py
    PYTHONPATH=src python benchmarks/bench_inference_fastpath.py --quick

Speedups are Python-overhead bound: small/medium Table IV shapes see
the largest wins (the graph path costs ~10 us of Tensor machinery per
layer); very wide layers converge toward the GEMM's memory-bandwidth
floor, which both paths share.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.nn import Tensor, no_grad, compile_inference, save_model
from repro.runtime import BatchedInferenceEngine, InferenceEngine
from repro.search.builders import build_minibude_mlp, build_mlp2

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import (IN_FEATURES, OUT_FEATURES, geomean,  # noqa: E402
                     time_loop)

SCHEMA = "bench_inference_fastpath/v1"

#: Table IV MLP-family shapes (the sizes the NAS spaces deploy; the
#: labels mirror benchmarks/conftest.py MODEL_FAMILIES).
TABLE4_MLP_SHAPES = [
    ("minibude-xs", "minibude",
     {"num_hidden_layers": 2, "hidden1_size": 64, "feature_multiplier": 0.6}),
    ("minibude-s", "minibude",
     {"num_hidden_layers": 3, "hidden1_size": 128, "feature_multiplier": 0.8}),
    ("minibude-m", "minibude",
     {"num_hidden_layers": 3, "hidden1_size": 256, "feature_multiplier": 0.8}),
    ("binomial-xs", "binomial",
     {"hidden1_features": 12, "hidden2_features": 0}),
    ("binomial-s", "binomial",
     {"hidden1_features": 48, "hidden2_features": 24}),
    ("binomial-m", "binomial",
     {"hidden1_features": 160, "hidden2_features": 96}),
    ("bonds-s", "bonds",
     {"hidden1_features": 48, "hidden2_features": 24}),
    ("bonds-m", "bonds",
     {"hidden1_features": 160, "hidden2_features": 96}),
]


def build_shape(benchmark: str, arch: dict, seed: int = 0):
    if benchmark == "minibude":
        return build_minibude_mlp(arch, seed=seed)
    return build_mlp2(arch, IN_FEATURES[benchmark],
                      OUT_FEATURES[benchmark], seed=seed)


def bench_single_call(repeats: int = 3000, seed: int = 0) -> list[dict]:
    """Graph vs compiled forward at batch 1 on the Table IV MLP shapes."""
    rows = []
    rng = np.random.default_rng(seed)
    for label, benchmark, arch in TABLE4_MLP_SHAPES:
        model = build_shape(benchmark, arch, seed=seed)
        model.eval()
        x1 = rng.normal(size=(1, IN_FEATURES[benchmark]))
        plan = compile_inference(model)

        with no_grad():
            ref = model(Tensor(x1)).numpy()
        err = float(np.abs(plan(x1) - ref).max())

        def graph_call():
            model.eval()             # the seed engine re-evals per call
            with no_grad():
                return model(Tensor(x1)).numpy()

        graph_s = time_loop(graph_call, repeats)
        compiled_s = time_loop(lambda: plan(x1), repeats)
        rows.append({
            "shape": label,
            "benchmark": benchmark,
            "arch": arch,
            "n_params": int(model.num_parameters()),
            "graph_us": graph_s * 1e6,
            "compiled_us": compiled_s * 1e6,
            "speedup": graph_s / compiled_s,
            "max_abs_diff": err,
        })
    return rows


def bench_batched_throughput(workdir, n_rows: int = 512,
                             batch_rows: int = 64, repeats: int = 3,
                             seed: int = 0) -> list[dict]:
    """Per-invocation engine calls vs batched submission, rows/second."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rows = []
    rng = np.random.default_rng(seed + 1)
    for label, benchmark, arch in [TABLE4_MLP_SHAPES[1], TABLE4_MLP_SHAPES[4]]:
        model = build_shape(benchmark, arch, seed=seed)
        model.eval()
        path = workdir / f"{label}.rnm"
        save_model(model, path)
        inputs = rng.normal(size=(n_rows, IN_FEATURES[benchmark]))

        unbatched = InferenceEngine()
        unbatched.warmup(path)
        batched = BatchedInferenceEngine(max_batch_rows=batch_rows)
        batched.warmup(path)

        def run_unbatched():
            for i in range(n_rows):
                unbatched.infer(path, inputs[i:i + 1])

        def run_batched():
            for i in range(n_rows):
                batched.submit(path, inputs[i:i + 1])
            batched.flush()

        t_un = min(time_loop(run_unbatched, 1, warmup=1)
                   for _ in range(repeats))
        t_b = min(time_loop(run_batched, 1, warmup=1)
                  for _ in range(repeats))
        rows.append({
            "shape": label,
            "benchmark": benchmark,
            "rows": n_rows,
            "batch_rows": batch_rows,
            "rows_per_s_unbatched": n_rows / t_un,
            "rows_per_s_batched": n_rows / t_b,
            "throughput_gain": t_un / t_b,
        })
    return rows


def run_benchmark(workdir, repeats: int = 3000, n_rows: int = 512,
                  batch_rows: int = 64, seed: int = 0) -> dict:
    single = bench_single_call(repeats=repeats, seed=seed)
    batched = bench_batched_throughput(workdir, n_rows=n_rows,
                                       batch_rows=batch_rows, seed=seed)
    speedups = [r["speedup"] for r in single]
    # Deployment-typical sizes: the xs/s entries, matching the Pareto
    # models the Fig. 5 selection deploys at laptop scale.  The wider
    # m shapes converge toward the shared GEMM bandwidth floor.
    small = [r["speedup"] for r in single
             if r["shape"].endswith(("-xs", "-s"))]
    return {
        "schema": SCHEMA,
        "config": {"repeats": repeats, "n_rows": n_rows,
                   "batch_rows": batch_rows, "seed": seed},
        "single_call": single,
        "batched": batched,
        "summary": {
            "single_call_speedup_geomean": geomean(speedups),
            "single_call_speedup_geomean_deployed": geomean(small),
            "single_call_speedup_best": max(speedups),
            "single_call_max_abs_diff": max(r["max_abs_diff"] for r in single),
            "batched_throughput_gain_geomean": geomean(
                [r["throughput_gain"] for r in batched]),
        },
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_inference.json",
                        help="output JSON path")
    parser.add_argument("--workdir", default=None,
                        help="scratch dir for serialized models "
                             "(default: temp dir)")
    parser.add_argument("--repeats", type=int, default=3000)
    parser.add_argument("--rows", type=int, default=512)
    parser.add_argument("--batch-rows", type=int, default=64)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for smoke testing")
    args = parser.parse_args(argv)

    if args.quick:
        args.repeats = min(args.repeats, 50)
        args.rows = min(args.rows, 32)
        args.batch_rows = min(args.batch_rows, 8)

    if args.workdir is None:
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            results = run_benchmark(tmp, repeats=args.repeats,
                                    n_rows=args.rows,
                                    batch_rows=args.batch_rows)
    else:
        results = run_benchmark(args.workdir, repeats=args.repeats,
                                n_rows=args.rows,
                                batch_rows=args.batch_rows)

    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    print(f"{'shape':14s} {'graph us':>9s} {'compiled us':>12s} "
          f"{'speedup':>8s}")
    for r in results["single_call"]:
        print(f"{r['shape']:14s} {r['graph_us']:9.1f} "
              f"{r['compiled_us']:12.1f} {r['speedup']:7.1f}x")
    for r in results["batched"]:
        print(f"{r['shape']:14s} batched {r['rows_per_s_batched']:,.0f} "
              f"rows/s vs {r['rows_per_s_unbatched']:,.0f} "
              f"({r['throughput_gain']:.1f}x)")
    s = results["summary"]
    print(f"single-call speedup geomean {s['single_call_speedup_geomean']:.2f}x"
          f" (deployed-size {s['single_call_speedup_geomean_deployed']:.2f}x,"
          f" best {s['single_call_speedup_best']:.2f}x); batched gain geomean "
          f"{s['batched_throughput_gain_geomean']:.2f}x")
    return results


if __name__ == "__main__":
    main()
