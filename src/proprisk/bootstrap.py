"""Percentile bootstrap confidence intervals for the NPPR estimate.

No closed-form variance of the weighted-mean estimator exists (the
covariances between pointwise estimates at different times are unknown), so
the interval comes from re-estimating on with-replacement resamples of the
pooled rows. Rows travel intact: group and status are never reassigned, and
group sizes vary across resamples.

Quantile rule: plain empirical quantile with ceiling rank, i.e. the
ceil(q*B)-th order statistic. This is exactly reproducible across
languages, unlike interpolating quantile definitions.

Randomness: each resample draws from its own child of
numpy.random.SeedSequence(seed), so results are independent of execution
order and reproducible for a fixed seed.

Computation: the resamples are not refitted one by one. Every row of the
data falls in one cell (event-time bin, group, status) of the grid that
``survival.event_grid`` builds once, so a resample is fully described by
its multinomial counts over those cells (Efron & Tibshirani, An
Introduction to the Bootstrap, 1993). A chunk of resamples is counted into
a (chunk, K + 1, 2, 2) table with one bincount and fitted by
``nppr.fit_tables``, the kernel that ``nppr_fit`` runs on the identity
table. Chunks hold about CHUNK_CELLS table cells, which keeps the working
set small at any B. tests/test_bootstrap.py checks each resample's beta
against a scalar reference fit of the same rows (tests/oracles.py) to
1e-12, with the same failed resamples.

Guard: the interval is meaningless when the point estimate is undefined.
The original data are the resample that takes every row once, so the
guard runs the kernel on the identity table, grid.table()[None], and
raises EstimationError where its beta is NaN, which is exactly where
nppr_fit raises on the data. The caller's own point fit is not repeated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .nppr import fit_tables
from .survival import Dataset, event_grid

# Count-table cells per chunk of resamples; bounds the working set, not the result.
CHUNK_CELLS = 8192


@dataclass(frozen=True)
class BootstrapConfig:
    n_resamples: int = 500
    level: float = 0.95
    seed: int = 0
    min_success_fraction: float = 0.5

    def __post_init__(self):
        if self.n_resamples < 2:
            raise ValueError("n_resamples must be >= 2")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must be in (0, 1)")


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float
    n_effective: int = 0  # resamples in which estimation succeeded; 0 for analytic CIs


def empirical_quantile(sorted_values: np.ndarray, q: float) -> float:
    """Ceiling-rank empirical quantile of an ascending-sorted array."""
    n = sorted_values.shape[0]
    rank = min(max(math.ceil(q * n), 1), n)
    return float(sorted_values[rank - 1])


@dataclass(frozen=True, eq=False)
class BootstrapResult:
    ci_beta: ConfidenceInterval
    ci_rr: ConfidenceInterval
    betas: np.ndarray  # successful resample estimates, in resample order
    n_effective: int
    n_failed: int


def percentile_bootstrap(data: Dataset, config: BootstrapConfig) -> BootstrapResult:
    """Percentile bootstrap interval for beta, with the derived rr interval.

    Resamples where estimation fails (a group without events, an empty
    event-time window, no usable time) are skipped and counted. Raises
    EstimationError when estimation fails on the original data or when
    fewer than ``min_success_fraction`` of the resamples succeed.
    """
    n = len(data)
    grid = event_grid(data)
    chunk = max(1, CHUNK_CELLS // grid.n_cells)
    children = np.random.SeedSequence(config.seed).spawn(config.n_resamples)
    parts = []
    if np.isnan(fit_tables(grid.table()[None]).beta[0]):
        raise EstimationError("NPPR estimate undefined on the original data")
    for start in range(0, config.n_resamples, chunk):
        rows = np.stack(
            [np.random.default_rng(c).integers(0, n, size=n) for c in children[start : start + chunk]]
        )
        parts.append(fit_tables(grid.table(rows)).beta)
    betas = np.concatenate(parts)
    betas = betas[~np.isnan(betas)]
    n_effective = betas.shape[0]
    n_failed = config.n_resamples - n_effective
    if n_effective < config.min_success_fraction * config.n_resamples:
        raise EstimationError(
            f"only {n_effective} of {config.n_resamples} bootstrap resamples "
            "produced an estimate"
        )

    ordered = np.sort(betas)
    alpha = (1.0 - config.level) / 2.0
    lo = empirical_quantile(ordered, alpha)
    hi = empirical_quantile(ordered, 1.0 - alpha)
    ci_beta = ConfidenceInterval(lo, hi, config.level, n_effective)
    ci_rr = ConfidenceInterval(math.exp(-hi), math.exp(-lo), config.level, n_effective)
    return BootstrapResult(
        ci_beta=ci_beta,
        ci_rr=ci_rr,
        betas=betas,
        n_effective=n_effective,
        n_failed=n_failed,
    )
