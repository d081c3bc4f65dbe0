"""Non-parametric proportional-risk (NPPR) estimation.

Under the proportional-risk assumption the two groups' CDFs satisfy
F1(t) = exp(-beta) * F0(t) for all t. The estimator evaluates
beta_t = -log(F1(t)/F0(t)) at every event time of either group inside the
overlap window [max of the two first event times, min of the two last event
times] and averages the beta_t with inverse-variance weights. Tied event
times contribute one term per occurrence.

Weighting variants, selected by ``weighting``:

* ``"cumhaz"`` (default): each group's uncertainty term is the variance of
  its log Kaplan-Meier estimate (the bare Greenwood sum, the quantity R's
  survfit reports as std.err squared) divided by F(t)^2. This is the
  convention under which the bundled simulation study reproduces its
  reference results; it down-weights late event times.
* ``"delta"``: the delta-method variance of log F(t), Var(S(t))/F(t)^2.
  Textbook-exact for Var(log F); gives almost all weight to the latest
  event times when follow-up reaches high event probabilities.

The derived absolute measures are the risk difference
RD(t) = (1 - exp(-beta)) * F0(t) and the number needed to treat 1/RD(t).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .survival import (
    Dataset,
    SurvivalCurve,
    cdf_at,
    cumhaz_variance_at,
    kaplan_meier,
    variance_at,
)

WEIGHTINGS = ("cumhaz", "delta")


@dataclass(frozen=True, eq=False)
class EventTimeSet:
    """Restricted event-time multiset of both groups, ties retained.

    ``times`` is sorted ascending and may be empty, which signals that the
    estimator is undefined on this data.
    """

    t_min: float
    t_max: float
    times: np.ndarray

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def is_empty(self) -> bool:
        return self.times.shape[0] == 0


@dataclass(frozen=True, eq=False)
class PointwiseSet:
    """Usable pointwise estimates as parallel arrays, plus the count of
    multiset entries dropped for undefined or zero weighting variance.

    ``var1``/``var0`` are the group uncertainty summands of the selected
    weighting; ``weight_var`` is their sum omega(t), the weighting variance
    of beta_t.
    """

    times: np.ndarray
    beta_t: np.ndarray
    var1: np.ndarray
    var0: np.ndarray
    weight_var: np.ndarray
    n_dropped: int

    def __len__(self) -> int:
        return self.times.shape[0]


@dataclass(frozen=True)
class NpprEstimate:
    """Inverse-variance-weighted summary of the pointwise log-RR values."""

    beta: float
    total_weight: float  # W = sum of 1/omega(t)
    rr: float  # exp(-beta)
    n_times_used: int


@dataclass(frozen=True, eq=False)
class RiskDifferenceCurve:
    """Risk difference and number needed to treat over evaluation times.

    ``nnt`` is NaN where the risk difference is exactly zero.
    """

    times: np.ndarray
    rd: np.ndarray
    nnt: np.ndarray


@dataclass(frozen=True, eq=False)
class NpprResult:
    """Full output of one NPPR fit, kept for reporting and resampling."""

    estimate: NpprEstimate
    points: PointwiseSet
    tset: EventTimeSet
    curve1: SurvivalCurve
    curve0: SurvivalCurve


def build_event_time_set(raw_event_times_1, raw_event_times_0) -> EventTimeSet:
    """Restrict the pooled event-time multiset to the overlap window.

    ``raw_event_times_*`` are each group's event times with multiplicity.
    Returns an empty set when either group has no events or the window is
    empty (all of one group's events precede the other's first event).
    """
    t1 = np.asarray(raw_event_times_1, dtype=float)
    t0 = np.asarray(raw_event_times_0, dtype=float)
    if t1.size == 0 or t0.size == 0:
        return EventTimeSet(math.nan, math.nan, np.empty(0))
    t_min = max(t1.min(), t0.min())
    t_max = min(t1.max(), t0.max())
    if t_min > t_max:
        return EventTimeSet(t_min, t_max, np.empty(0))
    pooled = np.concatenate([t1, t0])
    times = np.sort(pooled[(pooled >= t_min) & (pooled <= t_max)])
    return EventTimeSet(float(t_min), float(t_max), times)


def pointwise_log_rr(
    curve1: SurvivalCurve,
    curve0: SurvivalCurve,
    tset: EventTimeSet,
    weighting: str = "cumhaz",
) -> PointwiseSet:
    """Evaluate beta_t and its weighting variance at every multiset entry.

    Entries where either group's variance term is undefined or infinite, or
    where the summed variance is zero, are dropped and counted; if nothing
    remains the estimate is undefined and an EstimationError is raised.
    """
    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}")
    if tset.is_empty:
        raise EstimationError("event-time set is empty")
    f1 = np.asarray(cdf_at(curve1, tset.times))
    f0 = np.asarray(cdf_at(curve0, tset.times))
    # t >= t_min guarantees at least one event step in each group, so F > 0
    beta_t = -np.log(f1 / f0)
    var_lookup = cumhaz_variance_at if weighting == "cumhaz" else variance_at
    v1 = np.asarray(var_lookup(curve1, tset.times)) / f1**2
    v0 = np.asarray(var_lookup(curve0, tset.times)) / f0**2
    omega = v1 + v0
    usable = np.isfinite(omega) & (omega > 0)
    n_dropped = int(np.size(usable) - np.count_nonzero(usable))
    if not np.any(usable):
        raise EstimationError("all event times dropped (degenerate variances)")
    return PointwiseSet(
        times=tset.times[usable],
        beta_t=beta_t[usable],
        var1=v1[usable],
        var0=v0[usable],
        weight_var=omega[usable],
        n_dropped=n_dropped,
    )


def nppr_point_estimate(points: PointwiseSet) -> NpprEstimate:
    """Weighted mean of the pointwise estimates, weights 1/omega(t).

    Each multiset entry contributes its own term, so a time occurring m
    times adds m identical terms to both sums. Terms are accumulated in
    ascending-time order.
    """
    if len(points) == 0:
        raise EstimationError("no usable pointwise estimates")
    w = 1.0 / points.weight_var
    total = float(np.sum(w))
    beta = float(np.sum(w * points.beta_t) / total)
    return NpprEstimate(beta=beta, total_weight=total, rr=math.exp(-beta), n_times_used=len(points))


def risk_difference_curve(
    estimate: NpprEstimate, curve0: SurvivalCurve, times
) -> RiskDifferenceCurve:
    """RD(t) = (1 - exp(-beta)) * F0(t) and NNT(t) = 1/RD(t) on a time grid."""
    ts = np.sort(np.asarray(times, dtype=float))
    f0 = np.asarray(cdf_at(curve0, ts))
    rd = (1.0 - estimate.rr) * f0
    with np.errstate(divide="ignore"):
        nnt = np.where(rd != 0.0, 1.0 / np.where(rd != 0.0, rd, 1.0), math.nan)
    return RiskDifferenceCurve(times=ts, rd=rd, nnt=nnt)


def nppr_fit(data: Dataset, weighting: str = "cumhaz") -> NpprResult:
    """Run the whole estimation pipeline on a two-group dataset.

    Raises EstimationError when the restricted event-time set is empty or
    every entry is dropped.
    """
    curve1 = kaplan_meier(data, 1)
    curve0 = kaplan_meier(data, 0)
    tset = build_event_time_set(data.event_times(1), data.event_times(0))
    points = pointwise_log_rr(curve1, curve0, tset, weighting=weighting)
    estimate = nppr_point_estimate(points)
    return NpprResult(estimate=estimate, points=points, tset=tset, curve1=curve1, curve0=curve0)
