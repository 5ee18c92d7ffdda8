"""Behaviour oracle: one governed scenario's fixed-seed decision stream.

Every invocation branch the region runtime has — full and
row-subsampled shadow validation under a seeded ``QoSArbiter``, a
``CircuitBreaker`` driven through degraded/probe/recover by a seeded
``FaultInjector`` (NaN outputs and raises), ``precision="auto"`` under
a ``PrecisionPolicy``, one ``auto_batch`` region and ``invoke_fleet``
waves — writes one ``DecisionStream`` record per invocation.  The
stream of this scenario is pinned in ``golden/decision_stream.json``:
codes (``seq``/``digest``/``path``/``reason``/``breaker``/``precision``)
compare exactly, the float columns at ``rtol=1e-9``.

The fixture was captured before the invocation pipeline was rewritten
as one decide → gather → execute → verify → commit → finish path; a
refactor of that path must replay it unchanged.  Never regenerate it to
make a change pass.

Numerics are chosen so the stream does not depend on the BLAS build:
every surrogate is a 1→1 linear map with zero bias, so each output is a
single rounded product in float32 and in float64.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.api import approx_ml
from repro.nn import Linear, Sequential, save_model
from repro.qos import PrecisionPolicy
from repro.resilience import SURROGATE, FaultInjector
from repro.runtime import EventLog
from repro.serving import QoSArbiter, RegionServer

pytestmark = pytest.mark.obs

GOLDEN = Path(__file__).resolve().parent / "golden" / "decision_stream.json"
EXACT = ("seq", "digest", "path", "reason", "breaker", "precision")
FLOATS = ("shadow_error", "spend")


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.set_enabled(True)
    yield
    obs.reset()
    obs.set_enabled(True)


def _region(tmp_path, name, weight, scale, **kw):
    """1-feature row-batched region: surrogate ``weight * x``, kernel
    ``scale * x``."""
    model = Sequential(Linear(1, 1, rng=np.random.default_rng(0)))
    model[0].weight.data = np.array([[weight]])
    model[0].bias.data = np.array([0.0])
    save_model(model, tmp_path / f"{name}.rnm")
    src = f"""
#pragma approx tensor functor(fi: [i, 0:1] = ([i]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer) in(x) out(y) model("{tmp_path}/{name}.rnm")
"""

    @approx_ml(src, name=name, event_log=EventLog(), **kw)
    def region(x, y, N):
        y[:N] = x[:N] * scale

    return region


def run_scenario(tmp_path) -> dict:
    """Drive the governed scenario; return the decoded stream."""
    server = RegionServer()
    server.register(_region(tmp_path, "gov", 1.01, 1.0, precision="auto"))
    server.register(_region(tmp_path, "bat", 0.99, 1.0, auto_batch=True,
                            max_batch_rows=24, precision="float32"))
    server.register(_region(tmp_path, "fa", 1.03, 1.0))
    server.register(_region(tmp_path, "fb", 0.985, 1.0))
    server.enable_fleets(names=["fa", "fb"], min_members=2)
    server.attach_qos(QoSArbiter(
        global_budget=0.02, shadow_rate=0.3, shadow_rows=6, alpha=0.3,
        probe_interval=4, seed=11,
        precision_policy=PrecisionPolicy(high=2e-8, low=1.5e-8,
                                         sample_rate=0.4, warmup=2,
                                         probe_interval=3, seed=5)))
    server.attach_breakers(names=["gov"], failure_threshold=2,
                           quarantine_threshold=5, recovery_successes=2,
                           probe_interval=3, cooldown=4)
    stream_path = tmp_path / "stream.rh5"
    server.attach_stream(stream_path)

    injector = FaultInjector(seed=7)
    injector.script(SURROGATE, "nan", start=14, stop=20)
    injector.script(SURROGATE, "raise", at=[6, 31, 45])

    rng = np.random.default_rng(2024)
    for step in range(48):
        n = 4 if step % 3 == 0 else 16
        x = rng.uniform(0.5, 2.0, n)
        # Faults hit the guarded region only: the others have no
        # breaker, so an injected raise there would abort the run.
        with injector:
            server.invoke("gov", x, np.empty(n), n)
        xb = rng.uniform(0.5, 2.0, 8)
        server.invoke("bat", xb, np.empty(8), 8)
        if step % 4 == 3:
            server.invoke_fleet({
                "fa": (rng.uniform(0.5, 2.0, 6), np.empty(6), 6),
                "fb": (rng.uniform(0.5, 2.0, 5), np.empty(5), 5)})
        if step % 8 == 7:
            server.drain()
    server.close()
    server.stream.close()
    return obs.read_stream(stream_path)


def test_governed_stream_matches_golden(tmp_path):
    got = run_scenario(tmp_path)
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    for region, records in want.items():
        assert len(got[region]) == len(records), region
        for g, w in zip(got[region], records):
            for key in EXACT:
                assert g[key] == w[key], (region, w["seq"], key)
            for key in FLOATS:
                if w[key] is None:
                    assert g[key] is None, (region, w["seq"], key)
                else:
                    assert g[key] == pytest.approx(w[key], rel=1e-9), \
                        (region, w["seq"], key)
