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

Computation: replicates are fitted in chunks of about CHUNK_ROWS data
rows, which bounds the working set (about 1 MB), not the result. Each
replicate draws from its own stream; the rest is done once per chunk on
its (R, n) arrays, which both fits read: one ``nppr.fit_tables`` call on
the replicates' count tables, zero-padded to a common K (NaN where a
replicate has no estimate), and ``models.fit_ppr_batch``, whose lanes are
bit-identical to ``fit_ppr``. The metrics are computed once, after the
last chunk; only the coverage bootstrap builds Datasets (row views).
tests/test_study.py checks each NPPR beta against ``nppr_fit`` to 1e-12,
with NaN exactly where it raises, and one-replicate chunks against the
default.

The grid table (summarize_grid, and the CSV that ``proprisk study`` writes)
has one row per ScenarioResult, in the order of the results, and the
columns GRID_COLUMNS: the scenario's model, effect, censoring rate and
sample size, then the fields of ScenarioResult.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .bootstrap import BootstrapConfig, percentile_bootstrap
from .errors import EstimationError
from .models import PprFit, fit_ppr_batch
from .nppr import fit_tables
from .simulate import Model, Scenario, simulate_replicates
from .survival import Dataset, cell_codes, count_tables

PPR_EXCLUSION_THRESHOLD = 3.0
# Data rows per chunk of replicates; bounds the working set, not the result.
CHUNK_ROWS = 8192


@dataclass(frozen=True)
class ScenarioResult:
    """One row of the grid table: the scenario, then the metrics in the
    table's column order (GRID_COLUMNS[4:])."""

    scenario: Scenario
    n_runs: int
    bias_nppr: float
    bias_ppr: float
    mse_nppr: float
    mse_ppr: float
    coverage_nppr: float
    coverage_ppr: float
    n_nppr_failed: int
    n_ppr_excluded: int


GRID_COLUMNS = ("model", "effect", "censoring", "participants") + tuple(
    f.name for f in fields(ScenarioResult)[1:]
)


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else math.nan


def _nppr_betas(time, status, group) -> np.ndarray:
    """The NPPR beta of each row of the (R, n) arrays, NaN where ``nppr_fit``
    raises: one ``fit_tables`` call on the rows' count tables, zero-padded to
    a common K. An empty trailing bin is neutral in the kernel: a
    Kaplan-Meier product term of 1.0, a Greenwood term of 0.0, no events."""
    codes = cell_codes(time, status, group)
    width = (int(codes.max()) | 3) + 1  # the widest row's n_cells
    return fit_tables(count_tables(codes, width)).beta


def run_scenario(
    scenario: Scenario,
    n_reps: int,
    with_coverage: bool = False,
    bootstrap_config: BootstrapConfig | None = None,
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

    nppr = np.empty(n_reps)
    fits: list[PprFit] = []
    nppr_cover: list[bool] = []
    chunk = max(1, CHUNK_ROWS // scenario.n_participants)
    for first in range(0, n_reps, chunk):
        reps = range(first, min(first + chunk, n_reps))
        cols = simulate_replicates(scenario, reps)
        nppr[reps.start:reps.stop] = _nppr_betas(*cols)
        if fit_competitor:
            fits += fit_ppr_batch(*cols)
        if not with_coverage:
            continue
        for rep, row in zip(reps, zip(*cols)):
            if math.isnan(nppr[rep]):
                continue
            seed = np.random.SeedSequence(scenario.seed, spawn_key=(rep, 1)).generate_state(1)[0]
            cfg = replace(bootstrap_config, seed=int(seed))
            try:
                ci = percentile_bootstrap(Dataset.from_columns(*row), cfg).ci_beta
            except EstimationError:
                continue
            nppr_cover.append(ci.lower <= true_beta <= ci.upper)

    err1 = nppr[~np.isnan(nppr)] - true_beta
    beta_p = np.array([f.beta for f in fits])
    kept = np.array([f.converged for f in fits], dtype=bool) & ~(np.abs(beta_p) > PPR_EXCLUSION_THRESHOLD)
    err_p = beta_p[kept] - true_beta
    # the delta interval is undefined for boundary estimates
    ppr_cover = [f.ci_beta.lower <= true_beta <= f.ci_beta.upper for f, k in zip(fits, kept) if k and f.ci_available]
    return ScenarioResult(
        scenario=scenario,
        n_runs=n_reps,
        n_nppr_failed=n_reps - err1.shape[0],
        n_ppr_excluded=int(np.count_nonzero(~kept)),
        bias_nppr=_mean(err1),
        bias_ppr=_mean(err_p),
        mse_nppr=_mean(err1**2),
        mse_ppr=_mean(err_p**2),
        coverage_nppr=_mean(nppr_cover),
        coverage_ppr=_mean(ppr_cover) if with_coverage else math.nan,
    )


def summarize_grid(results: list[ScenarioResult]) -> list[dict]:
    """The grid table as dicts keyed by GRID_COLUMNS, one per result, in the
    order given (``default_grid()`` builds the reference order)."""
    rows = []
    for r in results:
        s = r.scenario
        cells = (s.model.value, s.effect_beta, s.censor_rate, s.n_participants)
        cells += tuple(getattr(r, name) for name in GRID_COLUMNS[len(cells):])
        rows.append(dict(zip(GRID_COLUMNS, cells)))
    return rows
