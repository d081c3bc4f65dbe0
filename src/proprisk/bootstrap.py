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
a (chunk, K + 1, 2, 2) table with one bincount, and Kaplan-Meier,
Greenwood sums, the overlap window, the pointwise beta_t, omega and the
weighted mean all run as array operations over (chunk, K, 2). Chunks hold
about CHUNK_CELLS table cells, which keeps the working set small at any B.

The pointwise values are bit-identical to nppr_fit's. The weighted mean is
not: a tied time with m events enters once, as m times its weight, where
nppr_fit adds m equal terms. So a resample's beta matches the scalar
nppr_fit of the same rows to 1e-12, and the failed resamples are exactly
those where nppr_fit raises; tests/test_bootstrap.py holds that gate, with
nppr_fit kept as the reference path.

Guard: the interval is meaningless when the point estimate is undefined.
The original data are the resample that takes every row once, so the
guard runs the same batched fit on the identity table, grid.table()[None],
and raises EstimationError where its beta is NaN, which is exactly where
nppr_fit raises on the data. The caller's own point fit is not repeated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .survival import Dataset, event_grid, events_at_risk

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


def _resample_betas(table: np.ndarray, weighting: str) -> np.ndarray:
    """NPPR beta of each count table (B, K + 1, 2, 2); NaN where nppr_fit
    raises (a group without events, an empty window, no usable time).

    Every step is nppr_fit's, on (B, K, 2) arrays indexed by the shared
    event times. A column where a group has no event enters its product as
    1.0 and its Greenwood sum as 0.0, so the cumulative products and sums
    carry each step function forward exactly as its right-continuous
    lookup does, and the pointwise values are bit-identical to nppr_fit's.
    Call under np.errstate(divide="ignore", invalid="ignore"): columns
    outside the window hold infinities and NaNs until masked.
    """
    d, n = events_at_risk(table)
    n = np.maximum(n, 1)  # an empty risk set has no event; keeps 1.0 and 0.0 exact
    surv = np.cumprod(1.0 - d / n, axis=1)
    gsum = np.cumsum(d / (n * (n - d)), axis=1)
    var = gsum if weighting == "cumhaz" else surv**2 * gsum
    f = 1.0 - surv
    beta_t = -np.log(f[..., 1] / f[..., 0])
    v = var / f**2
    omega = v[..., 1] + v[..., 0]

    # overlap window: F > 0 in both groups (an event at or before the
    # column) and no later than the earlier of the two last events
    k = d.shape[1]
    last = k - 1 - (d[:, ::-1] > 0).argmax(axis=1)
    last = np.minimum(last[:, 0], last[:, 1])
    m = d[..., 0] + d[..., 1]  # a tied time with m events enters once, weighted m-fold
    usable = (f[..., 1] > 0) & (f[..., 0] > 0) & (np.arange(k) <= last[:, None]) & (m > 0)
    usable &= np.isfinite(omega) & (omega > 0)

    w = 1.0 / omega
    total = np.where(usable, m * w, 0.0).sum(axis=1)
    beta = np.where(usable, m * (w * beta_t), 0.0).sum(axis=1) / total
    return np.where(usable.any(axis=1), beta, math.nan)


def percentile_bootstrap(
    data: Dataset, config: BootstrapConfig, weighting: str = "cumhaz"
) -> BootstrapResult:
    """Percentile bootstrap interval for beta, with the derived rr interval.

    Re-estimates with the same ``weighting`` as the point estimate.
    Resamples where estimation fails (a group without events, an empty
    event-time window, no usable time) are skipped and counted. Raises
    EstimationError when estimation fails on the original data or when
    fewer than ``min_success_fraction`` of the resamples succeed.
    """
    if weighting not in ("cumhaz", "delta"):
        raise ValueError("weighting must be one of ('cumhaz', 'delta')")
    n = len(data)
    grid = event_grid(data)
    chunk = max(1, CHUNK_CELLS // grid.n_cells)
    children = np.random.SeedSequence(config.seed).spawn(config.n_resamples)
    parts = []
    with np.errstate(divide="ignore", invalid="ignore"):
        if np.isnan(_resample_betas(grid.table()[None], weighting)[0]):
            raise EstimationError("NPPR estimate undefined on the original data")
        for start in range(0, config.n_resamples, chunk):
            rows = np.stack(
                [np.random.default_rng(c).integers(0, n, size=n) for c in children[start : start + chunk]]
            )
            parts.append(_resample_betas(grid.table(rows), weighting))
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
