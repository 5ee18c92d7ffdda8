"""The benchmark's four deployments of the HPAC-ML runtime.

Each workload is set up the way an application is: annotated regions
are built from their directives, the accurate kernel fills the training
database, the surrogate is trained (fixed seed and epochs), saved,
loaded and compiled.  It is then served through a
:class:`~repro.serving.RegionServer` by one caller that issues each
invocation inline and waits for it (closed loop, one client).

The training campaign and the input population are fixed; the workload
seed orders the population (and, for the weather march, perturbs the
initial state).  Inputs therefore change with the seed while the
quality metric stays comparable from run to run.
"""

from __future__ import annotations

import importlib.util
import sys
import time

import numpy as np

from repro.apps import binomial, minibude, miniweather
from repro.apps.base import qoi_error_fn
from repro.device import Device
from repro.nn import (Conv2d, CropPad2d, Destandardize, Linear, Sequential,
                      Standardize, Trainer, load_model, save_model)
from repro.nn.compile import compile_inference
from repro.nn.training import train_val_split
from repro.qos import PrecisionPolicy
from repro.runtime import (BatchedInferenceEngine, EventLog, ExecutionPath,
                           InferenceEngine, load_training_data)
from repro.serving import QoSArbiter, RegionServer, db_row_count


def _table4_builders():
    """``repro.search.builders`` without the ``repro.search`` package.

    The package's ``__init__`` imports the whole NAS stack (SciPy), about
    1 s per process; an untraced run starts several measuring processes
    and needs only the Table IV model builders.
    """
    name = "repro.search.builders"
    if name in sys.modules:
        return sys.modules[name]
    import repro
    path = repro.__path__[0] + "/search/builders.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


builder_for = _table4_builders().builder_for

#: Seeds of the fixed parts: the training campaign and input population.
TRAIN_SEED = 11
POPULATION_SEED = 23

def flops_per_row(model, row_shape) -> float:
    """Multiply-add FLOPs of one input row, from the layer shapes."""
    flops, shape = 0.0, tuple(row_shape)
    for layer in model.layers:
        if isinstance(layer, Linear):
            flops += 2.0 * layer.in_features * layer.out_features
        elif isinstance(layer, Conv2d):
            _, h, w = shape
            k, s, p = layer.kernel_size, layer.stride, layer.padding
            h, w = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
            flops += (2.0 * layer.in_channels * k * k * layer.out_channels
                      * h * w)
            shape = (layer.out_channels, h, w)
        elif isinstance(layer, CropPad2d):
            shape = (shape[0], layer.height, layer.width)
    return flops


def _standardized(benchmark, arch, x, y, axes=(0,), **kw) -> Sequential:
    """Table IV model with frozen input/output standardization."""
    def stats(a):
        mean = a.mean(axis=axes, keepdims=True)[0]
        std = a.std(axis=axes, keepdims=True)[0]
        return mean, np.where(std < 1e-8, 1.0, std)
    core = builder_for(benchmark)(arch, seed=TRAIN_SEED, **kw)
    return Sequential(Standardize(*stats(x)), *core,
                      Destandardize(*stats(y)))


class Served:
    """One pass: wall time, per-invocation latencies and the QoI."""

    def __init__(self, wall, latencies, qoi, **detail):
        self.wall = wall
        self.latencies = latencies
        self.qoi = qoi
        self.invocations = len(latencies)
        self.detail = detail


class Workload:
    """Shared set-up; subclasses bind one deployment and its passes.

    A pass is ``prepare()`` (untimed state reset), ``serve()`` (the
    timed pass) and, for deployed passes, ``failures()`` (untimed
    correctness checks).
    """

    name = ""
    why = ""
    #: Table I metric of the app and the bound a deployed pass must meet.
    metric = "rmse"
    qoi_bound = 1.0
    #: Surrogate architecture (Table IV config) and its fixed training.
    arch: dict = {}
    lr, batch_size, epochs = 1e-3, 64, 1

    def __init__(self, seed: int, workdir):
        self.seed = seed
        workdir.mkdir(parents=True, exist_ok=True)
        self.db_path = str(workdir / f"{self.name}.rh5")
        self.model_path = str(workdir / f"{self.name}.rnm")
        self.events = EventLog()
        self.engine = InferenceEngine(device=Device())
        self.error_fn = qoi_error_fn(self.metric)
        self.server = RegionServer()
        self._reference_plans: dict = {}
        self._reference = None
        self.setup()

    # -- subclass hooks ---------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Reset per-pass state so every deployed pass does the same work."""

    def serve(self, deployed: bool, verify: bool = False) -> Served:
        """One pass over the inputs: surrogate-deployed or accurate."""
        raise NotImplementedError

    def failures(self, served: Served, verify: bool) -> set:
        """Indices of the deployed pass's invocations that failed a check."""
        raise NotImplementedError

    def compute_reference(self):
        """The app's own ``run_accurate`` on the same invocation inputs."""
        raise NotImplementedError

    def reference_accurate(self):
        """:meth:`compute_reference`, computed once per process, or the
        one :meth:`adopt_reference` was given."""
        if self._reference is None:
            self._reference = self.compute_reference()
        return self._reference

    def adopt_reference(self, reference) -> None:
        """Use ``reference``, computed by another process from the same
        seed, instead of computing it again."""
        self._reference = reference

    # -- shared ---------------------------------------------------------------
    def train(self, x, y, model) -> None:
        """Fit ``model``, save it, and load + compile it for serving."""
        (xt, yt), (xv, yv) = train_val_split(
            x, y, 0.2, np.random.default_rng(TRAIN_SEED))
        Trainer(model, lr=self.lr, batch_size=self.batch_size,
                max_epochs=self.epochs, patience=self.epochs,
                seed=TRAIN_SEED).fit(xt, yt, xv, yv)
        save_model(model, self.model_path)
        self.model = self.engine.warmup(self.model_path)
        self.flops_per_row = flops_per_row(self.model, x.shape[1:])

    def reference_plan(self, dtype=np.float64):
        """A plan compiled from its own load of the saved model file."""
        dtype = np.dtype(dtype)
        plan = self._reference_plans.get(dtype)
        if plan is None:
            plan = self._reference_plans[dtype] = compile_inference(
                load_model(self.model_path), dtype)
        return plan

    def qoi_error(self, deployed, accurate) -> float:
        return float(self.error_fn(deployed, accurate))

    def close(self) -> None:
        self.server.close()


class _RowWorkload(Workload):
    """Row-batched apps: a pass serves the population in fixed chunks."""

    chunk = 1
    population = 256

    def rows(self) -> np.ndarray:
        """The population in this seed's order (a fresh array)."""
        order = np.random.default_rng(self.seed).permutation(self.population)
        return np.ascontiguousarray(self.pool[order])

    def serve(self, deployed: bool, verify: bool = False) -> Served:
        """Invoke every chunk inline, each row block a fresh view.

        A deferred (auto-batched) invocation's latency runs from its
        submission until the call whose flush delivered it returns.
        """
        server, name, engine = self.server, self.name, self.region.engine
        batched = isinstance(engine, BatchedInferenceEngine)
        rows, chunk = self.inputs, self.chunk
        out = np.empty(len(rows))
        latencies, queued, groups = [], [], []
        first_record = self.events.seen
        perf = time.perf_counter
        start_pass = perf()
        for i, start in enumerate(range(0, len(rows), chunk)):
            block = rows[start:start + chunk]
            n = len(block)
            t0 = perf()
            server.invoke(name, block, out[start:start + n], n,
                          use_model=deployed)
            t1 = perf()
            if not batched:
                latencies.append(t1 - t0)
                continue
            queued.append((i, t0))
            done = len(queued) - engine.pending_invocations
            if done:
                latencies.extend(t1 - t for _, t in queued[:done])
                groups.append([j for j, _ in queued[:done]])
                del queued[:done]
        server.flush(name)
        end_pass = perf()
        latencies.extend(end_pass - t for _, t in queued)
        if queued:
            groups.append([j for j, _ in queued])
        return Served(end_pass - start_pass, latencies, out, groups=groups,
                      first_record=first_record)

    def collect_and_train(self, collect, rows, chunk: int, app: str) -> None:
        """Collect ``rows`` in ``chunk``-row accurate calls, then train,
        save and compile the surrogate on the collected database."""
        for start in range(0, len(rows), chunk):
            block = np.ascontiguousarray(rows[start:start + chunk])
            collect(block, np.empty(len(block)), len(block),
                    use_model=False)
        collect.close()
        x, y, _ = load_training_data(self.db_path, app)
        self.train(x, y, _standardized(app, self.arch, x, y,
                                       in_features=x.shape[1],
                                       out_features=1))

    def _chunks(self):
        for i, start in enumerate(range(0, len(self.inputs), self.chunk)):
            yield i, slice(start, start + self.chunk)

    def failures(self, served: Served, verify: bool) -> set:
        out = served.qoi
        bad = set(np.flatnonzero(~np.isfinite(out)) // self.chunk)
        if verify:
            bad |= self.verify_surrogate(served)
        return bad

    def verify_surrogate(self, served: Served) -> set:
        """Invocations whose outputs differ from a direct fp64 forward.

        The direct forward runs at the same batch composition as the
        served one, so the comparison is bitwise.
        """
        plan = self.reference_plan()
        out, bad = served.qoi, set()
        groups = served.detail["groups"] or [[i] for i, _ in self._chunks()]
        for group in groups:
            lo = group[0] * self.chunk
            hi = min((group[-1] + 1) * self.chunk, len(self.inputs))
            expect = plan(self.inputs[lo:hi])[:, 0]
            for i in group:
                sl = slice(i * self.chunk - lo, (i + 1) * self.chunk - lo)
                if not np.array_equal(out[lo:hi][sl], expect[sl]):
                    bad.add(i)
        return bad


class PortfolioB1(_RowWorkload):
    name = "portfolio_b1"
    why = ("binomial B=1 calls, fresh row views: per-call runtime "
           "overhead dominates and the map cache always misses")
    metric = "rmse"
    qoi_bound = 0.5
    chunk = 1
    population = 256
    n_steps = 128
    #: The "s" binomial MLP, 5 -> 48 -> 24 -> 1.
    arch = {"hidden1_features": 48, "hidden2_features": 24}
    lr, batch_size, epochs = 3e-3, 128, 150

    def build_region(self, mode: str, **kw):
        return binomial.build_region(
            mode=mode, n_steps=self.n_steps, db_path=self.db_path,
            model_path=self.model_path, event_log=self.events,
            engine=self.engine, **kw)

    def setup(self) -> None:
        collect = self.build_region("predicated")
        self.region = self.build_region("infer")
        self.server.register(self.region, name=self.name)
        self.collect_and_train(collect, binomial.generate_workload(
            2048, seed=TRAIN_SEED, n_steps=self.n_steps).options, 1024,
            "binomial")
        self.pool = binomial.generate_workload(
            self.population, seed=POPULATION_SEED).options
        self.inputs = self.rows()

    def compute_reference(self):
        out = np.empty(len(self.inputs))
        for _, sl in self._chunks():
            out[sl] = binomial.run_accurate(binomial.Workload(
                options=self.inputs[sl], n_steps=self.n_steps))
        return out


class DockingBulk(_RowWorkload):
    name = "docking_bulk"
    why = ("minibude 4x512 MLP, 64-row calls auto-batched into 1024-row "
           "forwards: GEMM-bound, per-call overhead should not matter")
    metric = "mape"
    qoi_bound = 10.0
    chunk = 64
    population = 2048
    max_batch_rows = 1024
    #: The "l" minibude MLP: 4 hidden layers from 512, decaying by 0.8.
    arch = {"num_hidden_layers": 4, "hidden1_size": 512,
            "feature_multiplier": 0.8}
    lr, batch_size, epochs = 3e-3, 256, 10

    def setup(self) -> None:
        deck = minibude.kernel.generate_deck(seed=TRAIN_SEED)
        self.deck = deck
        common = dict(deck=deck, db_path=self.db_path,
                      model_path=self.model_path, event_log=self.events,
                      engine=self.engine)
        collect = minibude.build_region(mode="predicated", **common)
        self.region = minibude.build_region(
            mode="infer", auto_batch=True,
            max_batch_rows=self.max_batch_rows, **common)
        self.server.register(self.region, name=self.name)
        self.collect_and_train(collect, minibude.kernel.generate_poses(
            2048, seed=TRAIN_SEED), 512, "minibude")
        self.region.engine.warmup(self.model_path)
        self.pool = minibude.kernel.generate_poses(self.population,
                                                   seed=POPULATION_SEED)
        self.inputs = self.rows()

    def compute_reference(self):
        out = np.empty(len(self.inputs))
        for _, sl in self._chunks():
            out[sl] = minibude.run_accurate(minibude.Workload(
                deck=self.deck, poses=self.inputs[sl]))
        return out


class PortfolioGoverned(PortfolioB1):
    name = "portfolio_governed"
    why = ("binomial 64-row calls under QoSArbiter shadowing, a circuit "
           "breaker and precision=auto: the only qos/resilience path")
    chunk = 64
    population = 4096
    budget = 0.2

    def setup(self) -> None:
        super().setup()
        self.region.config.precision = "auto"
        # A slow error EWMA (alpha 0.05): with the default 0.2 the
        # arbitration denials depend on which rows come first, so the
        # path mix, and the pass time with it, would change with the seed.
        self.arbiter = QoSArbiter(
            global_budget=self.budget, shadow_rate=0.25, shadow_rows=8,
            alpha=0.05, seed=TRAIN_SEED,
            precision_policy=PrecisionPolicy(seed=TRAIN_SEED))
        self.server.attach_qos(self.arbiter)
        self.breaker = self.server.attach_breakers()[self.name]
        self.engine.warmup(self.model_path, dtype=np.float32)

    def prepare(self) -> None:
        # Each pass is one governed episode from a fresh QoS state, so
        # every pass takes the same decisions.
        self.arbiter.reset()
        self.breaker.reset()

    def verify_surrogate(self, served: Served) -> set:
        """Each invocation's outputs against what its path commits."""
        paths = self._paths(self.events.records_since(
            served.detail["first_record"]))
        bad = set()
        for i, sl in self._chunks():
            path, precision, shadowed = paths[i]
            accurate = self.reference_accurate()[sl]
            allowed = [accurate] if path != ExecutionPath.INFER else \
                [self.reference_plan(precision)(self.inputs[sl])[:, 0]]
            if shadowed:
                # A shadowed invocation commits the surrogate's or the
                # kernel's outputs, as the policy's decision says.
                allowed.append(accurate)
            if not any(np.array_equal(served.qoi[sl], a) for a in allowed):
                bad.add(i)
        self.path_mix = [p + ("+shadow" if sh else "") for p, _, sh in paths]
        return bad

    @staticmethod
    def _paths(records) -> list:
        """Per invocation: path, plan precision and whether shadowed.

        A breaker fallback appends an accurate record after the failed
        infer record of the same invocation; the last record wins.
        """
        out = []
        for rec in records:
            notes = rec.notes or {}
            entry = (rec.path, notes.get("precision", "float64"),
                     "shadow" in notes)
            if notes.get("breaker") is not None and out and \
                    rec.path == ExecutionPath.ACCURATE and \
                    out[-1][0] == ExecutionPath.INFER and \
                    notes.get("breaker") != "breaker_open":
                out[-1] = entry
            else:
                out.append(entry)
        return out


class WeatherAssimilate(Workload):
    name = "weather_assimilate"
    why = ("miniweather 64x32 conv march, 1 accurate+collect step per 3 "
           "surrogate steps: DB writes beside reads, map cache hits")
    metric = "rmse"
    qoi_bound = 1.0
    nx, nz = 64, 32
    train_steps = 16
    steps = 64
    cycle = 4                # step i % cycle == 0 runs accurate + collect
    flush_every = 32
    #: The "m" miniweather CNN.
    arch = {"conv1_kernel": 5, "conv1_channels": 8, "conv2_kernel": 3}
    lr, batch_size, epochs = 2e-3, 16, 12

    def setup(self) -> None:
        wl = miniweather.generate_workload(nx=self.nx, nz=self.nz,
                                           amplitude=10.0)
        self.state, self.dt = wl.state, wl.dt
        common = dict(state=wl.state, dt=wl.dt, db_path=self.db_path,
                      model_path=self.model_path, event_log=self.events,
                      engine=self.engine)
        self.region = miniweather.build_region(mode="predicated",
                                               **common).region
        self.accurate_region = miniweather.build_region(mode="infer",
                                                        **common).region
        self.server.register(self.region, name=self.name)
        self.server.register(self.accurate_region, name="accurate")
        u = np.ascontiguousarray(wl.state.q[None].copy())
        for _ in range(self.train_steps):
            self.region(u, self.nz, self.nx, use_model=False)
        self.region.close()
        x, y, _ = load_training_data(self.db_path, "miniweather")
        model = _standardized("miniweather", self.arch, x, y,
                              axes=(0, 2, 3), nz=self.nz, nx=self.nx)
        self.train(x, y, model)
        with open(self.db_path, "rb") as fh:
            self.db_snapshot = fh.read()
        self.db_rows = db_row_count(self.db_path, "miniweather")
        noise = np.random.default_rng(self.seed).standard_normal(
            wl.state.q[3].shape)
        self.u0 = wl.state.q[None].copy()
        self.u0[0, 3] += 1e-3 * np.abs(self.u0[0, 3]).max() * noise
        # One state buffer for the whole run: the application reuses it.
        self.u = np.ascontiguousarray(self.u0.copy())

    def prepare(self) -> None:
        # Every deployed pass restarts from the training database and
        # the initial state, so the database grows the same way each time.
        self.region.close()
        with open(self.db_path, "wb") as fh:
            fh.write(self.db_snapshot)
        self.u[...] = self.u0

    def serve(self, deployed: bool, verify: bool = False) -> Served:
        if not deployed:
            return self._serve_accurate()
        u, server, name = self.u, self.server, self.name
        latencies, captured = [], []
        perf = time.perf_counter
        start_pass = perf()
        for i in range(self.steps):
            use_model = i % self.cycle != 0
            check = verify and i % self.cycle == 1
            if check:
                before = u.copy()
            t0 = perf()
            server.invoke(name, u, self.nz, self.nx, use_model=use_model)
            latencies.append(perf() - t0)
            if check:
                captured.append((i, before, u.copy()))
            if (i + 1) % self.flush_every == 0 and i + 1 < self.steps:
                server.flush(name)
        server.flush(name)
        wall = perf() - start_pass
        return Served(wall, latencies, u[0].copy(), captured=captured)

    def _serve_accurate(self) -> Served:
        u = np.ascontiguousarray(self.u0.copy())
        latencies = []
        perf = time.perf_counter
        start_pass = perf()
        for _ in range(self.steps):
            t0 = perf()
            self.server.invoke("accurate", u, self.nz, self.nx,
                               use_model=False)
            latencies.append(perf() - t0)
        return Served(perf() - start_pass, latencies, u[0].copy())

    def failures(self, served: Served, verify: bool) -> set:
        bad = set()
        if not np.all(np.isfinite(served.qoi)):
            # A non-finite state propagates through every later step.
            bad.update(range(self.steps))
        collected = -(-self.steps // self.cycle)
        if db_row_count(self.db_path, "miniweather") != \
                self.db_rows + collected:
            bad.update(range(0, self.steps, self.cycle))
        plan = self.reference_plan()
        for i, before, after in served.detail.get("captured", ()):
            if not np.array_equal(after, plan(before)):
                bad.add(i)
        return bad

    def compute_reference(self):
        q = self.u0[0].copy()
        for _ in range(self.steps):
            state = miniweather.kernel.WeatherState(
                q=q, hy_dens=self.state.hy_dens,
                hy_dens_theta=self.state.hy_dens_theta,
                config=self.state.config)
            q = miniweather.run_accurate(miniweather.Workload(
                state=state, n_steps=1, dt=self.dt))
        return q


WORKLOADS = {cls.name: cls for cls in (PortfolioB1, DockingBulk,
                                       WeatherAssimilate, PortfolioGoverned)}
