"""Non-parametric proportional-risk (NPPR) estimation.

Under the proportional-risk assumption the two groups' CDFs satisfy
F1(t) = exp(-beta) * F0(t) for all t. The estimator evaluates
beta_t = -log(F1(t)/F0(t)) at every event time of either group inside the
overlap window [max of the two first event times, min of the two last event
times] and averages the beta_t with inverse-variance weights 1/omega(t).
A time with m tied events counts m times.

Each group's uncertainty term is the variance of its log Kaplan-Meier
estimate, the bare Greenwood sum (the quantity R's survfit reports as
std.err squared), divided by F(t)^2: omega = G1/F1^2 + G0/F0^2. This is
the convention under which the bundled simulation study reproduces its
reference results; it down-weights late event times.

One kernel, ``fit_tables``, computes the estimate for a batch of count
tables (B, K + 1, 2, 2) over a shared event-time grid (see
``survival.EventGrid``): ``nppr_fit`` runs it on the identity table of the
data, the bootstrap on chunks of resample tables. Its stages,
``survival.kaplan_meier``, ``build_event_time_set``, ``pointwise_log_rr``
and ``nppr_point_estimate``, are array operations over (B, K) or (B, K, 2)
that write into the ``survival.Workspace`` they are given; the filled
workspace is the fit.

The derived absolute measures are the risk difference
RD(t) = (1 - exp(-beta)) * F0(t) and the number needed to treat 1/RD(t).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .survival import Dataset, Workspace, event_grid, kaplan_meier


@dataclass(frozen=True, eq=False)
class PointwiseSet:
    """Usable pointwise estimates as parallel arrays, one row per event
    (a time with m tied events appears m times), plus the count of events
    in the window dropped for an undefined or zero omega(t)."""

    times: np.ndarray
    beta_t: np.ndarray
    weight_var: np.ndarray  # omega(t), the variance that sets the weight of beta_t
    n_dropped: int

    def __len__(self) -> int:
        return self.times.shape[0]


@dataclass(frozen=True)
class NpprEstimate:
    """Inverse-variance-weighted summary of the pointwise log-RR values."""

    beta: float
    total_weight: float  # W = sum of m/omega(t)
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
    """Full output of one NPPR fit, kept for reporting.

    ``event_times`` (K,) are the distinct event times of the data and
    ``cdf`` (K, 2) the Kaplan-Meier CDFs of the control (column 0) and
    treatment (column 1) groups there; [t_min, t_max] is the window, RD's too.
    """

    estimate: NpprEstimate
    points: PointwiseSet
    t_min: float
    t_max: float
    event_times: np.ndarray
    cdf: np.ndarray


def build_event_time_set(d: np.ndarray, surv: np.ndarray, work: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """The overlap window of the events d (..., K, 2) and their Kaplan-Meier
    survival ``surv``: a mask (..., K) of the times with an event that lie
    at or after each group's first event and at or before each group's
    last, and the events m (..., K) of both groups, the multiplicity of
    each time. The window is empty when a group has no events or all of one
    group's events precede the other's first.

    A group has an event at or before t exactly where S(t) < 1: a time
    without an event multiplies S by exactly 1.0, one with d >= 1 events
    among n < 2**32 at risk by at most 1 - 2**-32, and no factor exceeds 1."""
    # an event at or before: S < 1; one at or after: a positive suffix sum
    inside = np.less(surv, 1.0, out=work.inside)
    np.cumsum(d[..., ::-1, :], axis=-2, out=work.int_scratch[..., ::-1, :])
    inside &= np.greater(work.int_scratch, 0, out=work.bool_scratch)
    m = np.add(d[..., 0], d[..., 1], out=work.m)  # not .sum(axis=-1): slow over a length-2 axis
    window = np.logical_and(inside[..., 0], inside[..., 1], out=work.window)
    window &= np.greater(m, 0, out=work.flag)
    return window, m


def pointwise_log_rr(surv: np.ndarray, gsum: np.ndarray, window: np.ndarray, work: Workspace):
    """beta_t = -log(F1/F0) and omega = G1/F1^2 + G0/F0^2 at every time from
    the survival and Greenwood sums (..., K, 2), and the mask of usable
    times: in the window with a finite, positive omega. Times outside the
    window hold infinities and NaNs."""
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.subtract(1.0, surv, out=work.float_scratch)
        beta_t = np.divide(f[..., 1], f[..., 0], out=work.beta_t)
        np.negative(np.log(beta_t, out=beta_t), out=beta_t)
        v = np.divide(gsum, np.square(f, out=f), out=f)
        omega = np.add(v[..., 1], v[..., 0], out=work.omega)
    usable = np.logical_and(window, np.isfinite(omega, out=work.usable), out=work.usable)
    usable &= np.greater(omega, 0, out=work.flag)
    return beta_t, omega, usable


def nppr_point_estimate(beta_t, omega, usable, m, work: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean of beta_t over the usable times, weights m/omega, and
    the total weight; the mean is 0/0 = NaN where no time is usable, the
    only place where the total weight is 0."""
    unusable = np.logical_not(usable, out=work.flag)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.divide(1.0, omega, out=work.weight)
        terms = np.multiply(m, w, out=work.terms)
        np.putmask(terms, unusable, 0.0)
        total = terms.sum(axis=-1, out=work.total_weight)
        terms = np.multiply(m, np.multiply(w, beta_t, out=terms), out=terms)
        np.putmask(terms, unusable, 0.0)
        beta = np.divide(terms.sum(axis=-1, out=work.beta), total, out=work.beta)
    return beta, total


def fit_tables(table: np.ndarray, work: Workspace | None = None) -> Workspace:
    """NPPR fit of each count table (B, K + 1, 2, 2): the workspace its
    stages filled, ``work`` (for at least B tables over the same K, see
    ``survival.Workspace``) cut to B tables, or one allocated here. beta is
    NaN where the estimate is undefined (a group without events, an empty
    window, no usable time)."""
    b, k = table.shape[0], table.shape[1] - 1
    work = Workspace.empty((b,), k) if work is None else work.head(b)
    d, surv, gsum = kaplan_meier(table, work)
    window, m = build_event_time_set(d, surv, work)
    beta_t, omega, usable = pointwise_log_rr(surv, gsum, window, work)
    nppr_point_estimate(beta_t, omega, usable, m, work)
    return work


def risk_difference_curve(result: NpprResult) -> RiskDifferenceCurve:
    """RD(t) = (1 - exp(-beta)) * F0(t) and NNT(t) = 1/RD(t) at the fit's
    event times in its window [t_min, t_max], F0 the control group's CDF."""
    window = (result.event_times >= result.t_min) & (result.event_times <= result.t_max)
    rd = (1.0 - result.estimate.rr) * result.cdf[window, 0]
    with np.errstate(divide="ignore"):
        nnt = np.where(rd != 0.0, 1.0 / np.where(rd != 0.0, rd, 1.0), math.nan)
    return RiskDifferenceCurve(times=result.event_times[window], rd=rd, nnt=nnt)


def nppr_fit(data: Dataset) -> NpprResult:
    """Run the estimator on a two-group dataset: ``fit_tables`` on its
    identity table.

    Raises EstimationError when the overlap window is empty or every time
    in it is dropped.
    """
    grid = event_grid(data)
    fit = fit_tables(grid.table()[None])
    window, usable, m = fit.window[0], fit.usable[0], fit.m[0]
    if not window.any():
        raise EstimationError("event-time set is empty")
    if not usable.any():
        raise EstimationError("all event times dropped (degenerate variances)")
    reps = m[usable]
    points = PointwiseSet(
        times=np.repeat(grid.event_times[usable], reps),
        beta_t=np.repeat(fit.beta_t[0, usable], reps),
        weight_var=np.repeat(fit.omega[0, usable], reps),
        n_dropped=int(m[window & ~usable].sum()),
    )
    beta = float(fit.beta[0])
    estimate = NpprEstimate(beta, float(fit.total_weight[0]), math.exp(-beta), len(points))
    t_window = grid.event_times[window]
    return NpprResult(
        estimate, points, float(t_window[0]), float(t_window[-1]), grid.event_times, 1.0 - fit.surv[0]
    )
