"""Adaptive QoS benchmark: speedup / QoI error / validation overhead.

Measures the online QoS subsystem (:mod:`repro.qos`) across three MLP
benchmarks:

* **shadow sweep** — a well-trained surrogate deployed under
  monitor-only controllers at several shadow rates: how much end-to-end
  speedup survives, and what fraction of serving time goes to
  validation (the cost of knowing your error online);
* **policy runs** — a *broken* surrogate (untrained weights: the
  worst-case stand-in for a model drifted fully off-distribution)
  deployed under a threshold-with-hysteresis policy and an error-budget
  policy at shadow rate 0.1: pure ``infer`` blows the QoI budget, the
  policies must cap the deployed error below it.

Results land in ``BENCH_qos.json`` (schema ``bench_qos_adaptive/v1``).
Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_qos_adaptive.py
    PYTHONPATH=src python benchmarks/bench_qos_adaptive.py --quick
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.apps.harness import harness_for
from repro.nn import Trainer
from repro.qos import ErrorBudgetPolicy, QoSController, ThresholdPolicy

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import geomean  # noqa: E402

SCHEMA = "bench_qos_adaptive/v1"

APPS = ("binomial", "bonds", "minibude")

#: Laptop-scale harness sizes (full vs --quick).
HARNESS_PARAMS = {
    "binomial": dict(n_train=2048, n_test=768, n_steps=64),
    "bonds": dict(n_train=2048, n_test=768),
    "minibude": dict(n_train=2048, n_test=768),
}
QUICK_PARAMS = {
    "binomial": dict(n_train=256, n_test=128, n_steps=16),
    "bonds": dict(n_train=256, n_test=128),
    "minibude": dict(n_train=256, n_test=128),
}

#: One deployment-size architecture per app (Table IV s-sizes).
ARCHS = {
    "binomial": {"hidden1_features": 48, "hidden2_features": 24},
    "bonds": {"hidden1_features": 48, "hidden2_features": 24},
    "minibude": {"num_hidden_layers": 2, "hidden1_size": 64,
                 "feature_multiplier": 0.6},
}

TRAIN_PARAMS = {
    "binomial": dict(lr=3e-3, batch_size=128, patience=15),
    "bonds": dict(lr=3e-3, batch_size=128, patience=15),
    "minibude": dict(lr=2e-3, batch_size=128, patience=20),
}

#: Per-QoI-metric policy parameters: the shadow validator charges
#: invocations in units aligned with the app's own QoI metric (MAPE
#: apps are judged per-row relative, so relative-L2 would under-charge
#: small-denominator rows).
POLICY_PARAMS = {
    "rmse": dict(metric="relative", thr_high=0.1, thr_low=0.04,
                 eb_budget=0.02),
    "mape": dict(metric="mape", thr_high=10.0, thr_low=4.0, eb_budget=2.0),
}


def _qos_row(metrics) -> dict:
    return {
        "speedup": metrics.speedup,
        "error": metrics.qoi_error,
        "validation_overhead": metrics.validation_overhead,
        "shadows": metrics.shadow_invocations,
        "path_counts": metrics.path_counts,
    }


def run_app(name: str, workdir: Path, *, quick: bool, shadow_rates,
            budget_fraction: float, chunk: int, epochs: int,
            seed: int = 0) -> dict:
    params = (QUICK_PARAMS if quick else HARNESS_PARAMS)[name]
    harness = harness_for(name, workdir / name, seed=seed,
                          deploy_chunk=chunk, **params)
    harness.collect()
    (xt, yt), (xv, yv) = harness.training_arrays()
    build = harness.make_builder(xt, yt)

    strong = build(ARCHS[name], seed=0)
    Trainer(strong, max_epochs=epochs, seed=0,
            **TRAIN_PARAMS[name]).fit(xt, yt, xv, yv)
    # Untrained weights: a surrogate that is wrong everywhere — the
    # limit case of a deployment drifted fully off its training set.
    weak = build(ARCHS[name], seed=3)

    base = harness.evaluate(strong, repeats=1)
    row = {
        "benchmark": name,
        "metric": harness.info.metric,
        "accurate_time": base.accurate_time,
        "pure_infer": {"speedup": base.speedup, "error": base.qoi_error},
        "shadow_sweep": [],
    }
    for rate in shadow_rates:
        ctrl = QoSController(shadow_rate=rate, seed=7)
        metrics = harness.deploy_with_qos(strong, ctrl)
        row["shadow_sweep"].append({"rate": rate, **_qos_row(metrics)})

    weak_pure = harness.evaluate(weak, repeats=1)
    qoi_budget = budget_fraction * weak_pure.qoi_error
    pp = POLICY_PARAMS[harness.info.metric]
    thr_policy = ThresholdPolicy(high=pp["thr_high"], low=pp["thr_low"],
                                 probe_interval=8, warmup=1)
    thr_ctrl = QoSController(policy=thr_policy, shadow_rate=0.1, seed=7,
                             metric=pp["metric"])
    thr = harness.deploy_with_qos(weak, thr_ctrl)
    eb_policy = ErrorBudgetPolicy(budget=pp["eb_budget"], headroom=0.9,
                                  warmup=2)
    eb_ctrl = QoSController(policy=eb_policy, shadow_rate=0.1, seed=7,
                            metric=pp["metric"])
    eb = harness.deploy_with_qos(weak, eb_ctrl)
    row["weak_model"] = {
        "pure_error": weak_pure.qoi_error,
        "pure_speedup": weak_pure.speedup,
        "qoi_budget": qoi_budget,
        "pure_exceeds_budget": bool(weak_pure.qoi_error > qoi_budget),
        "threshold": {**_qos_row(thr), "trips": thr_policy.trips,
                      "capped": bool(thr.qoi_error < qoi_budget)},
        "error_budget": {**_qos_row(eb),
                         "capped": bool(eb.qoi_error < qoi_budget)},
    }
    return row


def run_benchmark(workdir, *, quick: bool = False,
                  shadow_rates=(0.05, 0.1, 0.25),
                  budget_fraction: float = 0.25, chunk: int = 16,
                  epochs: int = 40, seed: int = 0) -> dict:
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    apps = [run_app(name, workdir, quick=quick, shadow_rates=shadow_rates,
                    budget_fraction=budget_fraction, chunk=chunk,
                    epochs=epochs, seed=seed)
            for name in APPS]
    mid_rate = shadow_rates[len(shadow_rates) // 2]
    overheads = []
    for row in apps:
        for entry in row["shadow_sweep"]:
            if entry["rate"] == mid_rate:
                overheads.append(entry["validation_overhead"])
    return {
        "schema": SCHEMA,
        "config": {"apps": list(APPS), "quick": quick,
                   "shadow_rates": list(shadow_rates),
                   "budget_fraction": budget_fraction, "chunk": chunk,
                   "epochs": epochs, "seed": seed},
        "apps": apps,
        "summary": {
            "pure_speedup_geomean": geomean(
                [r["pure_infer"]["speedup"] for r in apps]),
            "monitored_speedup_geomean": geomean(
                [e["speedup"] for r in apps for e in r["shadow_sweep"]
                 if e["rate"] == mid_rate]),
            "validation_overhead_mean": (sum(overheads) / len(overheads)
                                         if overheads else 0.0),
            "reference_shadow_rate": mid_rate,
            "threshold_capped_apps": [
                r["benchmark"] for r in apps
                if r["weak_model"]["pure_exceeds_budget"]
                and r["weak_model"]["threshold"]["capped"]],
            "error_budget_capped_apps": [
                r["benchmark"] for r in apps
                if r["weak_model"]["pure_exceeds_budget"]
                and r["weak_model"]["error_budget"]["capped"]],
        },
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_qos.json",
                        help="output JSON path")
    parser.add_argument("--workdir", default=None,
                        help="scratch dir (default: temp dir)")
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--chunk", type=int, default=16,
                        help="deploy-loop invocation chunk (rows)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for smoke testing")
    args = parser.parse_args(argv)

    kwargs = dict(quick=args.quick, chunk=args.chunk,
                  epochs=min(args.epochs, 4) if args.quick else args.epochs)
    if args.quick:
        kwargs["shadow_rates"] = (0.1, 0.25)

    if args.workdir is None:
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            results = run_benchmark(tmp, **kwargs)
    else:
        results = run_benchmark(args.workdir, **kwargs)

    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    for row in results["apps"]:
        pure = row["pure_infer"]
        print(f"{row['benchmark']:14s} pure infer {pure['speedup']:5.1f}x "
              f"err {pure['error']:.3g}")
        for entry in row["shadow_sweep"]:
            print(f"{'':14s} shadow {entry['rate']:.2f}: "
                  f"{entry['speedup']:5.1f}x err {entry['error']:.3g} "
                  f"overhead {entry['validation_overhead'] * 100:5.1f}% "
                  f"({entry['shadows']} shadows)")
        weak = row["weak_model"]
        print(f"{'':14s} weak model: pure err {weak['pure_error']:.3g} "
              f"budget {weak['qoi_budget']:.3g} | threshold err "
              f"{weak['threshold']['error']:.3g} "
              f"(capped={weak['threshold']['capped']}) | error-budget err "
              f"{weak['error_budget']['error']:.3g} "
              f"(capped={weak['error_budget']['capped']})")
    s = results["summary"]
    print(f"geomean speedup: pure {s['pure_speedup_geomean']:.2f}x, "
          f"monitored@{s['reference_shadow_rate']} "
          f"{s['monitored_speedup_geomean']:.2f}x; validation overhead "
          f"{s['validation_overhead_mean'] * 100:.1f}%; threshold capped: "
          f"{s['threshold_capped_apps']}; budget capped: "
          f"{s['error_budget_capped_apps']}")
    return results


if __name__ == "__main__":
    main()
