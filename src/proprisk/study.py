"""Simulation-study orchestration: run scenario grids, apply exclusion
rules, aggregate bias, MSE, coverage and robustness counts.

Each method fills one record: per replicate its estimate and interval
ends, NaN where there is none. One rule (``_score``) scores each record:
bias and MSE over the estimates, coverage over the intervals with both
ends finite (NaN without coverage), and a count of the replicates without
an estimate. NPPR has none where the restricted event-time set is empty
or every entry is dropped (``n_nppr_failed``). The EU competitor has none,
and no interval, where its fit did not converge or |beta| is NaN or above
PPR_EXCLUSION_THRESHOLD (3, to screen numerical blow-ups;
``n_ppr_excluded``); its delta interval is undefined on the support bound.
It is fitted only for proportional-risk scenarios: for PH scenarios its
record is empty and the PPR columns are NaN.

Bias and MSE are measured against the scenario's nominal effect (for PH
scenarios the nominal log HR is treated as the log RR). For PR scenarios
the nominal effect is not exactly the generated one: the bundled EU scales
(``simulate.EU_ALPHA``, ``EU_THETA1``, ``EU_THETA0``) imply
beta = -alpha*log(theta1/theta0) = 0.5049, 0.2159, -0.2471 and -0.4942 for
the nominal effects 0.5, 0.25, -0.25 and -0.5. So the PR effect-0.25 cells
carry a bias of about -0.034 that no estimator can remove.

Computation: replicates are simulated in chunks of about CHUNK_ROWS data
rows, which bounds the working set (about 1 MB). Each
replicate draws from its own stream; the rest is done once per chunk on
its (R, n) arrays: one ``nppr.fit_tables`` call on the replicates' count
tables, zero-padded to a common K (NaN where a replicate has no estimate),
and ``models.prepare_lanes`` for the EU competitor. Its lanes are held and
solved together (``models.solve_lanes``) before the next chunk's lanes
would take their censored rows past CHUNK_ROWS, and once more after the
last chunk. A lane's numbers do not depend on the lanes solved with it,
and beta and its interval come from ``models.beta_interval``, the rule of
``fit_ppr``, so each equals ``fit_ppr`` on its replicate, bit for bit; no
PprFit, Dataset or log-likelihood is built per replicate. The metrics are
computed once, after the last chunk; only the coverage bootstrap builds
Datasets (row views). tests/test_study.py checks each NPPR beta against
``nppr_fit`` to 1e-12, with NaN exactly where it raises, the PPR metrics
against ``fit_ppr`` on each replicate, and one-replicate chunks against
the default.

The chunk size can move the last digit of an NPPR beta, and so of the NPPR
metrics: ``nppr.nppr_point_estimate`` takes numpy's pairwise sum over the
zero-padded K, and the padding moves the sum's split points. At PR
0.0/70%/50, seed 11 and 200 replicates, bias_nppr is 0.02829602832305811
at CHUNK_ROWS = 8192 and 0.028296028323058102 at 1, and mse_nppr moves
too. The committed tables in results/ reproduce at 8192.

The grid table (``reporting.write_grid_csv`` writes it from the results)
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
from .models import Lanes, beta_interval, prepare_lanes, solve_lanes
from .nppr import fit_tables
from .simulate import Model, Scenario, simulate_replicates
from .survival import Dataset, cell_codes, count_tables

PPR_EXCLUSION_THRESHOLD = 3.0
# Data rows per chunk of replicates; bounds the working set, and moves the NPPR metrics' last digit.
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


def _score(record: np.ndarray, target: float, with_coverage: bool) -> tuple[float, float, float, int]:
    """Bias, MSE, coverage and the count without an estimate of one
    method's (3, R) record: per replicate its estimate and interval ends,
    NaN where there is none. Bias and MSE are over the estimates, coverage
    (NaN unless ``with_coverage``) over the intervals with both ends finite."""
    estimate, lower, upper = record
    err = estimate[~np.isnan(estimate)] - target
    finite = np.isfinite(lower) & np.isfinite(upper)
    covered = (lower[finite] <= target) & (target <= upper[finite])
    return (_mean(err), _mean(err**2), _mean(covered) if with_coverage else math.nan,
            estimate.shape[0] - err.shape[0])


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

    # one record per method: estimate, lower end, upper end per replicate, NaN where there is none
    nppr = np.full((3, n_reps), math.nan)
    ppr = np.full((3, n_reps if fit_competitor else 0), math.nan)
    pending: list[Lanes] = []

    def solve_pending() -> None:
        lanes = Lanes(*map(np.concatenate, zip(*pending)))
        alpha, theta, _, var_beta = solve_lanes(lanes)
        for rep, a, (t1, t0), v in zip(lanes.rows.tolist(), alpha.tolist(), theta.tolist(), var_beta.tolist()):
            if not math.isnan(a):  # a NaN alpha: the fit did not converge
                estimate = beta_interval(a, t1, t0, v)
                if abs(estimate[0]) <= PPR_EXCLUSION_THRESHOLD:
                    ppr[:, rep] = estimate
        pending.clear()

    chunk = max(1, CHUNK_ROWS // scenario.n_participants)
    for first in range(0, n_reps, chunk):
        reps = range(first, min(first + chunk, n_reps))
        cols = simulate_replicates(scenario, reps)
        nppr[0, reps.start:reps.stop] = _nppr_betas(*cols)
        if fit_competitor:
            lanes = prepare_lanes(*cols)[2]
            # solved before their censored rows would pass CHUNK_ROWS
            if pending and sum(x.r.shape[0] for x in pending) + lanes.r.shape[0] > CHUNK_ROWS:
                solve_pending()
            if lanes.rows.size:
                pending.append(lanes._replace(rows=lanes.rows + first))
        if not with_coverage:
            continue
        for rep, row in zip(reps, zip(*cols)):
            seed = np.random.SeedSequence(scenario.seed, spawn_key=(rep, 1)).generate_state(1)[0]
            cfg = replace(bootstrap_config, seed=int(seed))
            try:
                ci = percentile_bootstrap(Dataset.from_columns(*row), cfg).ci_beta
            except EstimationError:
                continue
            nppr[1:, rep] = ci.lower, ci.upper
    if pending:
        solve_pending()

    # the fields pair the methods: bias, MSE, coverage and count, NPPR then PPR
    scores = zip(_score(nppr, true_beta, with_coverage), _score(ppr, true_beta, with_coverage))
    return ScenarioResult(scenario, n_reps, *(x for pair in scores for x in pair))
