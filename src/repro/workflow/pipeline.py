"""End-to-end search campaign: the A4 artifact's two-step workflow.

``SearchCampaign`` chains the paper's model-training and
benchmark-evaluation steps: collect training data through the annotated
region, run the nested BO neural-architecture search, then deploy every
(or each requested) model back into the application and measure
speedup/error.  The deployment evaluations fan out on the workflow
executor, mirroring the Parsl orchestration of the original artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apps.harness import AppHarness, DeploymentMetrics, harness_for
from ..search import NASResult, NestedSearch, arch_space_for
from .executor import WorkflowExecutor

__all__ = ["SearchCampaign", "CampaignResult", "campaign_for"]


@dataclass
class CampaignResult:
    benchmark: str
    nas: NASResult
    deployments: list = field(default_factory=list)  # [(ModelTrial, DeploymentMetrics)]

    def fastest_deployment(self, error_cutoff: float | None = None):
        pool = self.deployments
        if error_cutoff is not None:
            filtered = [(t, m) for t, m in pool if m.qoi_error < error_cutoff]
            pool = filtered or pool
        return max(pool, key=lambda tm: tm[1].speedup)


class SearchCampaign:
    """Drive collect → NAS → deploy for one benchmark harness."""

    def __init__(self, harness: AppHarness, n_outer: int = 8,
                 n_inner: int = 4, max_epochs: int = 15, seed: int = 0):
        self.harness = harness
        self.n_outer = n_outer
        self.n_inner = n_inner
        self.max_epochs = max_epochs
        self.seed = seed

    def run(self, deploy: str = "pareto",
            executor: WorkflowExecutor | None = None) -> CampaignResult:
        """Execute the full campaign.

        ``deploy`` selects which searched models get embedded back into
        the application: ``"pareto"`` (the front, as Figs. 7/8 plot),
        ``"all"``, or ``"best"`` (lowest validation error only).
        """
        h = self.harness
        h.collect()
        (x_train, y_train), (x_val, y_val) = h.training_arrays()
        build = h.make_builder(x_train, y_train)

        search = NestedSearch(
            arch_space=arch_space_for(h.name), build_model=build,
            x_train=x_train, y_train=y_train, x_val=x_val, y_val=y_val,
            n_inner=self.n_inner, max_epochs=self.max_epochs,
            seed=self.seed)
        nas = search.run(n_outer=self.n_outer)

        if deploy == "all":
            chosen = nas.trials
        elif deploy == "best":
            chosen = [nas.best_by_error()]
        else:
            chosen = nas.pareto_trials()

        deployments = []
        # Deployment measurements share the harness (regions hold state),
        # so they run serially; the executor parallelizes campaigns
        # across benchmarks instead.
        for trial in chosen:
            metrics = h.evaluate(trial.model)
            deployments.append((trial, metrics))
        return CampaignResult(benchmark=h.name, nas=nas,
                              deployments=deployments)


def campaign_for(benchmark: str, workdir, seed: int = 0,
                 harness_kwargs: dict | None = None,
                 **campaign_kwargs) -> SearchCampaign:
    harness = harness_for(benchmark, workdir, seed=seed,
                          **(harness_kwargs or {}))
    return SearchCampaign(harness, seed=seed, **campaign_kwargs)


def run_campaigns(benchmarks: list, workdir, max_workers: int = 2,
                  seed: int = 0, harness_kwargs: dict | None = None,
                  **campaign_kwargs) -> dict:
    """Run several benchmark campaigns concurrently (the Parsl-style
    fan-out of the paper's A4 workflow).

    Each campaign owns a private harness/workdir, so the only shared
    state is the thread pool.  Returns ``{benchmark: CampaignResult}``.
    """
    from pathlib import Path
    results: dict = {}
    with WorkflowExecutor(max_workers=max_workers) as executor:
        futures = {}
        for name in benchmarks:
            campaign = campaign_for(
                name, Path(workdir) / name, seed=seed,
                harness_kwargs=(harness_kwargs or {}).get(name),
                **campaign_kwargs)
            futures[name] = executor.submit(campaign.run,
                                            name=f"campaign[{name}]")
        for name, future in futures.items():
            results[name] = future.result()
    return results
