"""Microbenchmark: compiled training fast path vs the autodiff graph.

Measures the PR-4 perf story end to end:

* **epoch time** — ``Trainer._epoch`` through the graph path (autodiff
  ``Tensor`` minibatches + Python-loop Adam) vs the compiled plan
  (fused forward/backward + vectorized optimizer), over the Table IV
  MLP deployment shapes wrapped harness-style
  (Standardize/Destandardize) at Table V batch sizes 32-128 — the half
  of the batch range where the BO inner loop's Python overhead
  dominates; larger batches converge toward the BLAS floor both paths
  share and are reported as informational ``wide`` rows outside the
  headline geomean;
* **parity** — per-shape gradient parity (<= 1e-10) on a training
  batch and fixed-seed ``Trainer.fit`` equivalence (identical loss
  histories and early-stopping epoch counts);
* **retrain/hot-swap** — end-to-end ``RetrainWorker.retrain_now`` wall
  time (DB load -> train -> serialize -> atomic swap) with the
  compiled trainer vs the graph trainer, the drift-recovery latency
  the serving layer pays in-process.

Results land in ``BENCH_training.json`` (schema
``bench_training_fastpath/v1``).  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_training_fastpath.py
    PYTHONPATH=src python benchmarks/bench_training_fastpath.py --quick
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from repro.nn import (GRU, Conv1d, Destandardize, Flatten, Linear, ReLU,
                      Sequential, Standardize, Tensor, Trainer,
                      compile_training, mse_loss)
from repro.search.builders import build_minibude_mlp, build_mlp2

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import IN_FEATURES, OUT_FEATURES  # noqa: E402

SCHEMA = "bench_training_fastpath/v1"

#: Table IV MLP deployment shapes (same labels as BENCH_inference).
TRAIN_SHAPES = [
    ("minibude-xs", "minibude",
     {"num_hidden_layers": 2, "hidden1_size": 64, "feature_multiplier": 0.6}),
    ("minibude-s", "minibude",
     {"num_hidden_layers": 3, "hidden1_size": 128, "feature_multiplier": 0.8}),
    ("binomial-xs", "binomial",
     {"hidden1_features": 12, "hidden2_features": 0}),
    ("binomial-s", "binomial",
     {"hidden1_features": 48, "hidden2_features": 24}),
    ("bonds-s", "bonds",
     {"hidden1_features": 48, "hidden2_features": 24}),
]
#: Informational rows: wide shape / large batch, GEMM-bound on both
#: paths — excluded from the headline geomean.
WIDE_SHAPES = [
    ("binomial-m", "binomial",
     {"hidden1_features": 160, "hidden2_features": 96}),
]

#: Sequence/conv shapes: the GRU + Conv1d lowerings the plan-IR registry
#: added — these previously fell back to the pure-Python graph for
#: training.  Informational rows (outside the MLP headline geomean);
#: the acceptance bit is >= 2x on at least one recurrent shape and no
#: silent fallback.
SEQ_SHAPES = [
    ("gru-s", "gru",
     {"hidden_size": 16, "seq_len": 8, "features": 6}),
    ("gru-m", "gru",
     {"hidden_size": 32, "seq_len": 16, "features": 6}),
    ("conv1d-s", "conv1d",
     {"channels": 8, "kernel": 3, "length": 32, "in_channels": 4}),
]

#: Table V batch sizes covered by the headline geomean.
BATCH_SIZES = (32, 64, 128)
WIDE_BATCH_SIZES = (128, 256)
SEQ_BATCH_SIZES = (64,)


def build_shape(benchmark: str, arch: dict, seed: int = 0):
    """Harness-style surrogate: Standardize -> Table IV core -> Destandardize
    (what ``RetrainWorker`` and the BO inner loop actually train)."""
    rng = np.random.default_rng(seed)
    if benchmark == "gru":
        fin, hs = arch["features"], arch["hidden_size"]
        return Sequential(Standardize(np.zeros(fin), np.ones(fin)),
                          GRU(fin, hs, rng=rng), Linear(hs, 1, rng=rng),
                          Destandardize(np.zeros(1), np.ones(1)))
    if benchmark == "conv1d":
        cin, c, k = arch["in_channels"], arch["channels"], arch["kernel"]
        out_l = arch["length"] - k + 1
        return Sequential(Conv1d(cin, c, k, rng=rng), ReLU(), Flatten(),
                          Linear(c * out_l, 1, rng=rng))
    fin, fout = IN_FEATURES[benchmark], OUT_FEATURES[benchmark]
    if benchmark == "minibude":
        core = build_minibude_mlp(arch, in_features=fin, out_features=fout,
                                  seed=seed)
    else:
        core = build_mlp2(arch, fin, fout, seed=seed)
    return Sequential(Standardize(np.zeros(fin), np.ones(fin)), *core,
                      Destandardize(np.zeros(fout), np.ones(fout)))


def _train_data(benchmark: str, n_rows: int, seed: int = 0, arch=None):
    rng = np.random.default_rng(seed)
    if benchmark == "gru":
        x = rng.normal(size=(n_rows, arch["seq_len"], arch["features"]))
        return x, rng.normal(size=(n_rows, 1))
    if benchmark == "conv1d":
        x = rng.normal(size=(n_rows, arch["in_channels"], arch["length"]))
        return x, rng.normal(size=(n_rows, 1))
    x = rng.normal(size=(n_rows, IN_FEATURES[benchmark]))
    y = rng.normal(size=(n_rows, OUT_FEATURES[benchmark]))
    return x, y


def _epoch_seconds(model, x, y, batch_size, compiled, repeats):
    trainer = Trainer(model, lr=3e-3, batch_size=batch_size, seed=0,
                      compiled=compiled)
    trainer._epoch(x, y)                  # warm-up (plan compile, buffers)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        trainer._epoch(x, y)
        best = min(best, time.perf_counter() - start)
    return best, trainer.compiled_active, trainer.compile_fallback


def _grad_parity(benchmark, arch, batch_size, seed=0) -> float:
    """Max abs gradient difference, graph vs compiled, on one batch."""
    x, y = _train_data(benchmark, batch_size, seed=7, arch=arch)
    graph = build_shape(benchmark, arch, seed=seed)
    graph.train()
    loss = mse_loss(graph(Tensor(x)), Tensor(y))
    loss.backward()
    plan = compile_training(build_shape(benchmark, arch, seed=seed),
                            mse_loss)
    plan.train_batch(x, y)
    worst = 0.0
    for p, view in zip(graph.parameters(), plan.grad_views):
        worst = max(worst, float(np.abs(p.grad - view).max()))
    return worst


def bench_epochs(n_rows: int, repeats: int, shapes, batch_sizes,
                 headline: bool, category: str = "mlp") -> list[dict]:
    rows = []
    for label, benchmark, arch in shapes:
        x, y = _train_data(benchmark, n_rows, arch=arch)
        for bs in batch_sizes:
            graph_s, _, _ = _epoch_seconds(build_shape(benchmark, arch),
                                           x, y, bs, False, repeats)
            compiled_s, active, fallback = _epoch_seconds(
                build_shape(benchmark, arch), x, y, bs, True, repeats)
            if not active:
                # A shape in this grid silently training on the graph
                # would report a fake 1.0x "speedup" — fail loudly.
                raise RuntimeError(f"{label} fell back to the graph "
                                   f"path: {fallback}")
            rows.append({
                "shape": label,
                "benchmark": benchmark,
                "arch": arch,
                "batch_size": bs,
                "rows": n_rows,
                "graph_ms": graph_s * 1e3,
                "compiled_ms": compiled_s * 1e3,
                "speedup": graph_s / compiled_s,
                "grad_parity_max_abs": _grad_parity(benchmark, arch, bs),
                "headline": headline,
                "category": category,
                "compiled_active": active,
            })
    return rows


def bench_fit_equivalence(n_rows: int, shapes, max_epochs: int = 8) -> list[dict]:
    """Fixed-seed Trainer.fit on both paths: histories must coincide."""
    rows = []
    for label, benchmark, arch in shapes:
        x, y = _train_data(benchmark, n_rows, arch=arch)
        xv, yv = _train_data(benchmark, max(n_rows // 4, 16), seed=5,
                             arch=arch)
        results = []
        for compiled in (False, True):
            model = build_shape(benchmark, arch, seed=3)
            trainer = Trainer(model, lr=3e-3, weight_decay=1e-3,
                              batch_size=64, max_epochs=max_epochs,
                              patience=3, seed=1, compiled=compiled)
            results.append((trainer.fit(x, y, xv, yv), trainer))
        (rg, _), (rc, tc) = results
        max_val = max((abs(a["val"] - b["val"])
                       for a, b in zip(rg.history, rc.history)),
                      default=0.0)
        rows.append({
            "shape": label,
            "compiled_active": tc.compiled_active,
            "epochs_graph": rg.epochs_run,
            "epochs_compiled": rc.epochs_run,
            "epochs_match": rg.epochs_run == rc.epochs_run,
            "max_val_loss_diff": max_val,
        })
    return rows


def bench_retrain_hot_swap(workdir: Path, *, quick: bool,
                           epochs: int) -> dict:
    """End-to-end retrain->hot-swap wall time, compiled vs graph trainer."""
    from repro.apps.harness import harness_for
    from repro.serving import RetrainWorker

    params = dict(n_train=512, n_test=128, n_steps=16) if quick \
        else dict(n_train=2048, n_test=512, n_steps=64)
    harness = harness_for("binomial", workdir / "retrain", seed=0, **params)
    harness.collect()
    (xt, yt), _ = harness.training_arrays()
    arch = {"hidden1_features": 48, "hidden2_features": 24}

    def build(x, y):
        return harness.make_builder(x, y)(arch, seed=11)

    out = {}
    for mode, compiled in (("graph", False), ("compiled", True)):
        worker = RetrainWorker(seed=1)
        worker.watch("binomial", harness.db_path,
                     workdir / f"retrain-{mode}.rnm", build=build,
                     trainer_kwargs=dict(lr=3e-3, batch_size=128,
                                         max_epochs=epochs,
                                         patience=epochs,
                                         compiled=compiled))
        event = worker.retrain_now("binomial")
        out[mode] = {"seconds": event.seconds, "rows": event.rows,
                     "val_loss": event.val_loss}
    out["speedup"] = out["graph"]["seconds"] / out["compiled"]["seconds"]
    out["epochs"] = epochs
    # The two trainers follow identical trajectories, so the retrained
    # surrogates must agree (swap quality is unchanged, only faster).
    out["val_loss_diff"] = abs(out["graph"]["val_loss"]
                               - out["compiled"]["val_loss"])
    return out


def run_benchmark(workdir, *, quick: bool = False, n_rows: int = 2048,
                  repeats: int = 5, retrain_epochs: int = 30) -> dict:
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    shapes = TRAIN_SHAPES[:3] if quick else TRAIN_SHAPES
    batch_sizes = BATCH_SIZES[:2] if quick else BATCH_SIZES
    epochs_rows = bench_epochs(n_rows, repeats, shapes, batch_sizes,
                               headline=True)
    if not quick:
        epochs_rows += bench_epochs(n_rows, repeats, WIDE_SHAPES,
                                    WIDE_BATCH_SIZES, headline=False,
                                    category="wide")
    # Every GRU/Conv1d shape always runs (quick included) so the CI
    # smoke lane catches a silent graph fallback for sequence shapes.
    epochs_rows += bench_epochs(max(n_rows // 2, 256), repeats, SEQ_SHAPES,
                                SEQ_BATCH_SIZES, headline=False,
                                category="sequence")
    equivalence = bench_fit_equivalence(min(n_rows, 512), shapes)
    retrain = bench_retrain_hot_swap(workdir, quick=quick,
                                     epochs=retrain_epochs)

    headline = [r["speedup"] for r in epochs_rows if r["headline"]]
    geomean = math.exp(sum(math.log(s) for s in headline) / len(headline))
    seq_rows = [r for r in epochs_rows if r["category"] == "sequence"]
    recurrent = [r["speedup"] for r in seq_rows if r["benchmark"] == "gru"]
    summary = {
        "epoch_speedup_geomean": geomean,
        "epoch_speedup_best": max(headline),
        "epoch_speedup_worst": min(headline),
        "grad_parity_max_abs": max(r["grad_parity_max_abs"]
                                   for r in epochs_rows),
        "all_compiled_active": all(r["compiled_active"]
                                   for r in equivalence),
        "early_stop_epochs_match": all(r["epochs_match"]
                                       for r in equivalence),
        "max_val_loss_diff": max(r["max_val_loss_diff"]
                                 for r in equivalence),
        "retrain_hot_swap_speedup": retrain["speedup"],
        "sequence_compiled_active": all(r["compiled_active"]
                                        for r in seq_rows),
        "recurrent_epoch_speedup_best": max(recurrent),
        "sequence_epoch_speedup_geomean": math.exp(
            sum(math.log(r["speedup"]) for r in seq_rows) / len(seq_rows)),
    }
    return {
        "schema": SCHEMA,
        "config": {"quick": quick, "n_rows": n_rows, "repeats": repeats,
                   "retrain_epochs": retrain_epochs,
                   "batch_sizes": list(batch_sizes)},
        "epochs": epochs_rows,
        "fit_equivalence": equivalence,
        "retrain_hot_swap": retrain,
        "summary": summary,
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_training.json",
                        help="output JSON path")
    parser.add_argument("--workdir", default=None,
                        help="scratch dir (default: temp dir)")
    parser.add_argument("--rows", type=int, default=2048,
                        help="training rows per epoch measurement")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--retrain-epochs", type=int, default=30)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for smoke testing")
    args = parser.parse_args(argv)

    kwargs = dict(quick=args.quick, repeats=args.repeats,
                  n_rows=512 if args.quick else args.rows,
                  retrain_epochs=4 if args.quick else args.retrain_epochs)
    if args.workdir is None:
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            results = run_benchmark(tmp, **kwargs)
    else:
        results = run_benchmark(args.workdir, **kwargs)

    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    for row in results["epochs"]:
        flag = "" if row["headline"] else f"  [{row['category']}]"
        print(f"epoch {row['shape']:>12} bs={row['batch_size']:<4} "
              f"graph {row['graph_ms']:7.2f} ms  compiled "
              f"{row['compiled_ms']:7.2f} ms  {row['speedup']:4.2f}x{flag}")
    s = results["summary"]
    print(f"geomean epoch speedup (headline): "
          f"{s['epoch_speedup_geomean']:.2f}x "
          f"(best {s['epoch_speedup_best']:.2f}x, worst "
          f"{s['epoch_speedup_worst']:.2f}x)")
    print(f"sequence lowerings: geomean "
          f"{s['sequence_epoch_speedup_geomean']:.2f}x, recurrent best "
          f"{s['recurrent_epoch_speedup_best']:.2f}x, compiled active: "
          f"{s['sequence_compiled_active']}")
    print(f"grad parity max abs: {s['grad_parity_max_abs']:.3g} | "
          f"early-stop epochs match: {s['early_stop_epochs_match']} | "
          f"max val-loss diff: {s['max_val_loss_diff']:.3g}")
    r = results["retrain_hot_swap"]
    print(f"retrain->hot-swap: graph {r['graph']['seconds']:.3f} s, "
          f"compiled {r['compiled']['seconds']:.3f} s "
          f"({r['speedup']:.2f}x, val-loss diff {r['val_loss_diff']:.3g})")
    return results


if __name__ == "__main__":
    main()
