"""Simulation-study orchestration: run scenario grids, apply exclusion
rules, aggregate bias, MSE, coverage and robustness counts.

Exclusion rules:

* NPPR: a replicate where the restricted event-time set is empty (or every
  entry is dropped) counts as a failure and contributes nothing to the
  NPPR metrics.
* PPR: replicates with |estimated effect| above PPR_EXCLUSION_THRESHOLD (3,
  to screen obvious numerical blow-ups) or a non-converged fit are excluded
  from the PPR metrics. The parametric competitor is only fitted when the
  generating model satisfies the proportional-risk assumption; PPR columns
  are NaN for proportional-hazards scenarios.

Bias and MSE are computed per method over that method's own non-excluded
replicates, against the scenario's nominal effect (for PH scenarios the
nominal log HR is treated as the log RR). For PR scenarios the nominal
effect is not exactly the generated one: the bundled EU scales
(``simulate.EU_ALPHA``, ``EU_THETA1``, ``EU_THETA0``) imply
beta = -alpha*log(theta1/theta0) = 0.5049, 0.2159, -0.2471 and -0.4942 for
the nominal effects 0.5, 0.25, -0.25 and -0.5. So the PR effect-0.25 cells
carry a bias of about -0.034 that no estimator can remove.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .bootstrap import BootstrapConfig, percentile_bootstrap
from .errors import EstimationError
from .models import fit_ppr
from .nppr import nppr_fit
from .simulate import Model, Scenario, simulate_dataset

PPR_EXCLUSION_THRESHOLD = 3.0


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    n_runs: int
    n_nppr_failed: int
    n_ppr_excluded: int
    bias_nppr: float
    bias_ppr: float
    mse_nppr: float
    mse_ppr: float
    coverage_nppr: float
    coverage_ppr: float


def _bootstrap_seed(scenario: Scenario, replicate: int) -> int:
    ss = np.random.SeedSequence(scenario.seed, spawn_key=(replicate, 1))
    return int(ss.generate_state(1)[0])


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else math.nan


def run_scenario(
    scenario: Scenario,
    n_reps: int,
    with_coverage: bool = False,
    bootstrap_config: BootstrapConfig | None = None,
    progress: bool = False,
    fit_competitor: bool | None = None,
) -> ScenarioResult:
    """Simulate ``n_reps`` studies from one scenario and aggregate.

    ``bootstrap_config`` controls the per-replicate NPPR interval when
    ``with_coverage`` is set (its seed field is ignored; every replicate
    derives its own stream from the scenario seed). ``fit_competitor``
    defaults to fitting the parametric competitor exactly for
    proportional-risk scenarios; pass False to skip it. Estimation failures
    are data, not errors.
    """
    if bootstrap_config is None:
        bootstrap_config = BootstrapConfig()
    if fit_competitor is None:
        fit_competitor = scenario.model is Model.PPR_EU
    true_beta = scenario.effect_beta

    nppr_err: list[float] = []
    ppr_err: list[float] = []
    nppr_cover: list[float] = []
    ppr_cover: list[float] = []
    n_nppr_failed = 0
    n_ppr_excluded = 0

    for rep in range(n_reps):
        if progress and rep and rep % 200 == 0:
            print(f"  replicate {rep}/{n_reps}", file=sys.stderr)
        data = simulate_dataset(scenario, rep)

        try:
            beta = nppr_fit(data).estimate.beta
            nppr_err.append(beta - true_beta)
            if with_coverage:
                cfg = replace(bootstrap_config, seed=_bootstrap_seed(scenario, rep))
                try:
                    ci = percentile_bootstrap(data, cfg).ci_beta
                    nppr_cover.append(float(ci.lower <= true_beta <= ci.upper))
                except EstimationError:
                    pass
        except EstimationError:
            n_nppr_failed += 1

        if fit_competitor:
            fit = fit_ppr(data)
            if not fit.converged or abs(fit.beta) > PPR_EXCLUSION_THRESHOLD:
                n_ppr_excluded += 1
            else:
                ppr_err.append(fit.beta - true_beta)
                # the delta interval is undefined for boundary estimates
                if with_coverage and fit.ci_available:
                    ppr_cover.append(
                        float(fit.ci_beta.lower <= true_beta <= fit.ci_beta.upper)
                    )

    err1 = np.asarray(nppr_err)
    err_p = np.asarray(ppr_err)
    return ScenarioResult(
        scenario=scenario,
        n_runs=n_reps,
        n_nppr_failed=n_nppr_failed,
        n_ppr_excluded=n_ppr_excluded if fit_competitor else 0,
        bias_nppr=float(np.mean(err1)) if err1.size else math.nan,
        bias_ppr=float(np.mean(err_p)) if fit_competitor and err_p.size else math.nan,
        mse_nppr=float(np.mean(err1**2)) if err1.size else math.nan,
        mse_ppr=float(np.mean(err_p**2)) if fit_competitor and err_p.size else math.nan,
        coverage_nppr=_mean(nppr_cover) if with_coverage else math.nan,
        coverage_ppr=_mean(ppr_cover) if with_coverage and fit_competitor else math.nan,
    )


_EFFECT_ORDER = {0.0: 0, 0.5: 1, 0.25: 2, -0.25: 3, -0.5: 4}

GRID_COLUMNS = (
    "model",
    "effect",
    "censoring",
    "participants",
    "n_runs",
    "bias_nppr",
    "bias_ppr",
    "mse_nppr",
    "mse_ppr",
    "coverage_nppr",
    "coverage_ppr",
    "n_nppr_failed",
    "n_ppr_excluded",
)


def summarize_grid(results: list[ScenarioResult]) -> list[dict]:
    """Machine-readable grid table in the reference row ordering:
    effect (0, 0.5, 0.25, -0.25, -0.5), then censoring ascending, then
    participants descending, PR model block before PH."""

    def key(r: ScenarioResult):
        s = r.scenario
        return (
            0 if s.model is Model.PPR_EU else 1,
            _EFFECT_ORDER.get(s.effect_beta, len(_EFFECT_ORDER)),
            s.effect_beta,
            s.censor_rate,
            -s.n_participants,
        )

    rows = []
    for r in sorted(results, key=key):
        s = r.scenario
        rows.append(
            {
                "model": s.model.value,
                "effect": s.effect_beta,
                "censoring": s.censor_rate,
                "participants": s.n_participants,
                "n_runs": r.n_runs,
                "bias_nppr": r.bias_nppr,
                "bias_ppr": r.bias_ppr,
                "mse_nppr": r.mse_nppr,
                "mse_ppr": r.mse_ppr,
                "coverage_nppr": r.coverage_nppr,
                "coverage_ppr": r.coverage_ppr,
                "n_nppr_failed": r.n_nppr_failed,
                "n_ppr_excluded": r.n_ppr_excluded,
            }
        )
    return rows
