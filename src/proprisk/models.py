"""Parametric models: the exponentiated-uniform (EU) family behind the
parametric proportional-risk competitor, the Weibull PH family used for
data generation, censored-data ML fitting with delta-method intervals, and
a one-parameter Cox fit for cross-validation.

EU distribution: F(t) = (theta*t)^alpha on (0, 1/theta], density
alpha * theta^alpha * t^(alpha-1). Two groups sharing alpha with
group-specific theta have exactly proportional CDFs with
RR = (theta1/theta0)^alpha.

Weibull PH: F(t) = 1 - exp(-(t/lambda)^k), shared shape k, group scales.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .survival import ConfidenceInterval, Dataset, Workspace, canonical_order, event_grid, events_at_risk

LEVEL = 0.95  # confidence level of the Wald intervals of the EU and Cox fits
Z = 1.9599639845400536  # their half-width in standard errors, the normal 0.975 quantile


@dataclass(frozen=True)
class EuParams:
    alpha: float
    theta1: float
    theta0: float

    def theta(self, group: int) -> float:
        return self.theta1 if group == 1 else self.theta0


@dataclass(frozen=True)
class WeibullPhParams:
    k: float
    lambda1: float
    lambda0: float

    def scale(self, group: int) -> float:
        return self.lambda1 if group == 1 else self.lambda0


def eu_quantile(params: EuParams, group: int, u):
    """Inverse EU CDF, t = u^(1/alpha) / theta for u in (0, 1)."""
    us = np.asarray(u, dtype=float)
    if np.any(us <= 0.0) or np.any(us >= 1.0):
        raise ValueError("u must be in (0, 1)")
    out = us ** (1.0 / params.alpha) / params.theta(group)
    return out if us.ndim else float(out)


def weibull_ph_quantile(params: WeibullPhParams, group: int, u):
    """Inverse Weibull CDF, t = lambda * (-log(1-u))^(1/k) for u in (0, 1)."""
    us = np.asarray(u, dtype=float)
    if np.any(us <= 0.0) or np.any(us >= 1.0):
        raise ValueError("u must be in (0, 1)")
    out = params.scale(group) * (-np.log1p(-us)) ** (1.0 / params.k)
    return out if us.ndim else float(out)


def eu_log_likelihood(data: Dataset, params: EuParams) -> float:
    """Censored-data log-likelihood of the two-group EU model.

    Events contribute the log density, censored rows the log survival
    probability. Any observed time beyond its group's support boundary
    1/theta makes the likelihood zero, so the log-likelihood is -inf there.
    """
    theta = np.where(data.group == 1, params.theta1, params.theta0)
    x = theta * data.time
    if np.any(x > 1.0):
        return -math.inf
    events = data.status == 1
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = np.count_nonzero(events) * math.log(params.alpha)
        ll += params.alpha * float(np.sum(np.log(theta[events])))
        ll += (params.alpha - 1.0) * float(np.sum(np.log(data.time[events])))
        # a censored row at its support end (x = 1) has survival 0: log 0 = -inf
        cens = x[~events] ** params.alpha
        ll += float(np.sum(np.log1p(-np.minimum(cens, 1.0))))
    return float(ll) if not math.isnan(ll) else -math.inf


@dataclass(frozen=True)
class PprFit:
    """ML fit of the EU model with the delta-method interval for the effect.

    ``beta`` is -log(rr), the same scale the non-parametric estimator uses.
    ``converged`` means the likelihood has a maximum and ``params`` is it
    (``loglik`` is the log-likelihood there); otherwise ``reason`` says why
    no maximum exists, and ``params``, ``beta``, ``rr``, ``loglik`` and the
    interval are NaN. At a maximum the interval can still be unavailable
    (NaN endpoints, ``ci_reason`` "estimate at support boundary") when a
    group's estimate sits on its support bound theta_g = 1/max(t_g), which
    happens routinely for this non-regular likelihood. Off the bound the
    observed information is positive-definite, so the interval always
    exists.
    """

    params: EuParams
    beta: float
    rr: float
    ci_beta: ConfidenceInterval
    converged: bool
    loglik: float
    reason: str = ""
    ci_reason: str = ""

    @property
    def ci_available(self) -> bool:
        return math.isfinite(self.ci_beta.lower) and math.isfinite(self.ci_beta.upper)


def _exp(x: float) -> float:
    """math.exp, +inf where the result overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def beta_interval(alpha: float, theta1: float, theta0: float, var_beta: float) -> tuple[float, float, float]:
    """beta = -alpha*log(theta1/theta0), NaN where the log fails, and the
    endpoints beta -/+ Z*sqrt(var_beta) of its Wald interval. The one rule
    for the fits and the study, so their floats agree bit for bit."""
    try:
        beta = -(alpha * math.log(theta1 / theta0))
    except (ValueError, ZeroDivisionError):
        beta = math.nan
    half = Z * math.sqrt(var_beta)
    return beta, beta - half, beta + half


class Lanes(NamedTuple):
    """EU fits prepared for :func:`solve_lanes`, one lane per fit, and
    two units per lane (its group 1, then its group 0) in the coordinates
    of :func:`_profile`. Lanes of several batches, their rows numbered
    apart, join field by field (np.concatenate)."""

    rows: np.ndarray  # (L,) the batch row of each lane
    bound: np.ndarray  # (L, 2) the support bounds 1/max(t_1) and 1/max(t_0)
    log_ratio: np.ndarray  # (L,) log(max t_1 / max t_0)
    d: np.ndarray  # (2L,) events
    e_rel: np.ndarray  # (2L,) sum of log(t/t_max) over the events
    r_min: np.ndarray  # (2L,) the smallest r, +inf without censored rows
    count: np.ndarray  # (2L,) censored rows
    r: np.ndarray  # (count.sum(),) log(t_max/t) of the censored rows, unit after unit


def _unit_rows(units: Lanes, lanes: np.ndarray):
    """The units of the lanes ``lanes`` (ascending), their censored rows'
    r, the position of each row's unit, and the function that sums values
    (..., rows) over each unit's rows, 0.0 for a unit without rows.

    The sums are np.add.reduceat segments of the flat rows: a segment gets
    the same float whatever else the array holds, so a lane's sums do not
    depend on the rest of its batch (a row sum over zero-padded rows would).
    """
    sel = (2 * lanes[:, None] + np.arange(2)).ravel()
    keep = np.zeros(units.d.shape[0], dtype=bool)
    keep[sel] = True
    count = units.count[sel]
    full = count > 0
    starts = (np.cumsum(count) - count)[full]

    def sums(values: np.ndarray) -> np.ndarray:
        out = np.zeros(values.shape[:-1] + count.shape)
        out[..., full] = np.add.reduceat(values, starts, axis=-1)
        return out

    return sel, units.r[np.repeat(keep, units.count)], np.repeat(np.arange(sel.shape[0]), count), sums


def _profile(units: Lanes, alpha: np.ndarray, lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximize each group's EU log-likelihood over theta at a fixed alpha,
    for the lanes ``lanes`` (ascending) at their alpha (k,).

    In ``w = alpha*log(theta*t_max) <= 0`` a group's log-likelihood is
    ``d*log(alpha) + alpha*e_rel + d*w + sum log(1 - exp(w - alpha*r))`` plus
    a constant, where ``e_rel`` sums log(t/t_max) over the events and ``r``
    holds log(t_max/t) for the censored rows. It is concave in w, and its
    score ``d - sum h`` with ``h = 1/expm1(alpha*r - w)`` is strictly
    decreasing and concave. So the maximum is on the support bound w = 0
    when the score is still non-negative there; otherwise Newton's method,
    started where the score is <= 0, descends monotonically onto the single
    root without leaving the support.

    The groups run Newton in lockstep, each a masked lane over the flat
    censored rows: a group stops at the iteration where its own loop would
    stop and keeps that iteration's h, so its result does not depend on the
    other groups. Only the rows of lanes with a running group are
    evaluated; most groups of a large sample stop at once, on the bound.
    Returns ``(w, dl/dalpha)`` at the maximum, each (k, 2). The bound on w
    does not move with alpha, so the alpha-derivative there is also the
    derivative of the profile log-likelihood (envelope theorem).
    """
    a = np.repeat(alpha, 2)
    sel = (2 * lanes[:, None] + np.arange(2)).ravel()
    d = units.d[sel]
    dl_base = d / a + units.e_rel[sel]
    # sum h >= max h, which reaches d here, so the score is <= 0 at the start;
    # max s is -alpha*r_min, and a group without censored rows starts (and stays) at 0
    w = np.minimum(0.0, np.log(d / (d + 1.0)) - (-a * units.r_min[sel]))
    dl = np.zeros_like(w)
    running = np.ones(w.shape, dtype=bool)
    live = None  # the lanes whose rows are evaluated
    # a stopped group of a live lane keeps being evaluated, at points its own loop never reaches
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(100):
            # drop the lanes without a running group once they are at least half of the live ones
            if live is None or 2 * np.count_nonzero(keep) <= keep.shape[0]:
                live = np.arange(lanes.shape[0]) if live is None else live[keep]
                u = (2 * live[:, None] + np.arange(2)).ravel()
                r, at, sums = _unit_rows(units, lanes[live])[1:]
                s = -a[u][at] * r
                terms = np.empty((3,) + r.shape)  # h, h*(1 + h), r*h
                h = terms[0]
            wu = w[u]
            np.divide(1.0, np.expm1(-(wu[at] + s)), out=h)
            np.multiply(h, 1.0 + h, out=terms[1])
            np.multiply(r, h, out=terms[2])
            sum_h, sum_c, sum_rh = sums(terms)
            score = d[u] - sum_h
            go = running[u]
            dl[u] = np.where(go, dl_base[u] + sum_rh, dl[u])
            go &= ~(score >= 0.0)
            step = score / sum_c
            w[u] = np.where(go, wu + step, wu)
            go &= ~(-step < 1e-13)
            running[u] = go
            if not go.any():
                break
            keep = go.reshape(-1, 2).any(axis=1)
    return w.reshape(-1, 2), dl.reshape(-1, 2)


def _brentq(f, a, b, fa, fb, xtol: float, rtol: float = 4 * np.finfo(float).eps, maxiter: int = 100):
    """Roots of f in the brackets [a, b] by Brent's method (Brent 1973, ch. 4).

    ``a``, ``b``, ``fa`` and ``fb`` are arrays with one entry per lane:
    the bracket and the values of f at its ends, which the caller already
    holds. ``f(x, lanes)`` gives the values at the points x of the lanes
    ``lanes`` (ascending indices). The lanes run in lockstep, each step a
    masked array update of the lanes not yet converged, with one call of f
    for all of them. Every lane follows the common C implementation step
    for step (the bracket swap, the interpolate/extrapolate test, the
    ``delta`` step), so it returns the same float as that implementation
    for the same f, bracket and tolerances; the tests hold it to that.
    Raises ValueError when a value of f is NaN or fa and fb have the same
    sign, and RuntimeError when ``maxiter`` steps do not reach the
    tolerance 2*delta.
    """

    def checked(x: np.ndarray, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if np.isnan(y).any():
            raise ValueError(f"the function value at x={x[np.isnan(y)][0]} is NaN")
        return y

    xpre, xcur = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    fpre, fcur = checked(xpre, fa), checked(xcur, fb)
    root = np.where(fpre == 0.0, xpre, xcur)
    running = (fpre != 0.0) & (fcur != 0.0)
    if np.any(running & ((fpre < 0.0) == (fcur < 0.0))):
        raise ValueError("f(a) and f(b) must have different signs")
    all_lanes = np.arange(xcur.shape[0])
    xblk = fblk = spre = scur = np.zeros_like(xcur)
    # converged lanes keep stepping, unevaluated, until every lane is done
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(maxiter):
            flip = (fpre != 0.0) & (fcur != 0.0) & ((fpre < 0.0) != (fcur < 0.0))
            xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
            spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
            fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
            delta = (xtol + rtol * np.abs(xcur)) / 2.0
            sbis = (xblk - xcur) / 2.0
            done = running & ((fcur == 0.0) | (np.abs(sbis) < delta))
            root = np.where(done, xcur, root)
            running &= ~done
            if not running.any():
                break
            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            stry = np.where(xpre == xblk, interpolate, extrapolate)
            good = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
            good &= 2.0 * np.abs(stry) < np.minimum(np.abs(spre), 3.0 * np.abs(sbis) - delta)
            spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
            lanes = all_lanes[running]
            fcur = fcur.copy()
            fcur[lanes] = checked(xcur[lanes], f(xcur[lanes], lanes))
        else:
            raise RuntimeError(f"brentq did not converge after {maxiter} iterations, value is {xcur[running][0]}")
    return root


def _beta_variance(units: Lanes, alpha: np.ndarray, w: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """Variance of beta from the observed information in (alpha, w_1, w_0)
    at an interior maximum, for the lanes ``lanes``; off the bound every
    group has censored rows."""
    sel, r, at, sums = _unit_rows(units, lanes)
    with np.errstate(over="ignore"):  # 1/expm1(x) is 0.0 where expm1 overflows, its exact limit
        h = 1.0 / np.expm1(np.repeat(alpha, 2)[at] * r - w.ravel()[at])
    c = h * (1.0 + h)
    s_rrc, s_rc, s_c = sums(np.stack((r * r * c, r * c, c))).reshape(3, -1, 2)
    d_a2 = units.d[sel].reshape(-1, 2) / (alpha**2)[:, None]
    info = np.zeros((lanes.shape[0], 3, 3))
    info[:, 0, 0] = (d_a2[:, 0] + s_rrc[:, 0]) + (d_a2[:, 1] + s_rrc[:, 1])
    info[:, 0, 1] = info[:, 1, 0] = -s_rc[:, 0]
    info[:, 0, 2] = info[:, 2, 0] = -s_rc[:, 1]
    info[:, 1, 1], info[:, 2, 2] = s_c[:, 0], s_c[:, 1]
    # beta = w0 - w1 + alpha*log(max t_1/max t_0) is linear in these coordinates
    log_ratio = units.log_ratio[lanes]
    grad = np.stack((log_ratio, -np.ones_like(log_ratio), np.ones_like(log_ratio)), axis=1)
    sol = np.linalg.solve(info, grad[..., None])[..., 0]
    return grad[:, 0] * sol[:, 0] + grad[:, 1] * sol[:, 1] + grad[:, 2] * sol[:, 2]


def prepare_lanes(time, status, group) -> tuple[tuple[np.ndarray, ...], list[tuple[int, str]], Lanes]:
    """The EU fits of the rows of the (R, n) arrays, up to the lockstep solve.

    Returns the columns with each row in :func:`~proprisk.survival.canonical_order`,
    the rows that fail before the solve as (row, reason), and the lanes of
    the other rows, in row order. That order makes each fit exactly
    invariant to its rows' order.
    """
    time, status, group = np.asarray(time), np.asarray(status), np.asarray(group)
    order = canonical_order(time, status, group)
    time, status, group = (np.take_along_axis(c, order, axis=-1) for c in (time, status, group))
    failed, rows, bound, log_ratio, units = [], [], [], [], []
    for i, (t, s, g) in enumerate(zip(time, status, group)):
        # a group's times ascend, so its last is its largest
        (t1, e1), (t0, e0) = ((t[m], s[m] == 1) for m in (g == 1, g == 0))
        if not (t1.size and t0.size):
            failed.append((i, "a group is empty"))
            continue
        events = (np.count_nonzero(e1), np.count_nonzero(e0))
        if not all(events):
            failed.append((i, "a group has no events" if any(events) else "no events"))
            continue
        rows.append(i)
        bound.append((1.0 / float(t1[-1]), 1.0 / float(t0[-1])))
        log_ratio.append(math.log(float(t1[-1]) / float(t0[-1])))
        # kept per group: reduceat sums sequentially where .sum() is pairwise; np.log may differ from math.log
        for tg, eg, d in ((t1, e1, events[0]), (t0, e0, events[1])):
            log_rel = np.log(tg) - math.log(float(tg[-1]))
            r = -log_rel[~eg]
            units.append((d, float(log_rel[eg].sum()), r.min() if r.size else math.inf, r))
    d, e_rel, r_min, r = zip(*units) if units else ((),) * 4
    count = np.array([x.shape[0] for x in r], dtype=np.int64)
    lanes = Lanes(np.array(rows, dtype=np.int64), np.array(bound).reshape(-1, 2), np.array(log_ratio),
                  *(np.array(x, dtype=float) for x in (d, e_rel, r_min)), count, np.concatenate((np.empty(0), *r)))
    return (time, status, group), failed, lanes


def solve_lanes(units: Lanes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The EU maxima of the prepared lanes, in lockstep: per lane alpha
    (NaN where the likelihood still increases at alpha = e^50), theta (L, 2)
    of groups 1 and 0, whether a group's estimate sits on its support
    bound, and the variance of beta (NaN on the bound or without a maximum).

    The profile derivative decreases in alpha. Every lane doubles or halves
    alpha from 1 until its derivative changes sign or is 0, and Brent's
    method refines the bracket; both run in lockstep over the lanes. Each
    profile keeps its w, and a root is always a point already profiled, so
    each lane's w is read there. Every sum over a lane is its own segment
    (:func:`_unit_rows`), so a lane's numbers do not depend on the other
    lanes it is solved with.
    """
    profiled = []  # (lanes, log alpha, w) of every profile

    def dprofile(log_alpha: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        w, dl = _profile(units, np.exp(log_alpha), lanes)
        profiled.append((lanes, log_alpha, w))
        return dl[:, 0] + dl[:, 1]

    every = np.arange(units.d.shape[0] // 2)
    lo, hi = np.zeros(every.shape), np.zeros(every.shape)
    f_lo = dprofile(hi, every)
    f_hi = f_lo.copy()
    step = np.where(f_lo > 0, math.log(2.0), -math.log(2.0))
    searching = f_hi != 0.0
    unbounded = np.zeros(every.shape, dtype=bool)
    while searching.any():
        lo, f_lo = np.where(searching, hi, lo), np.where(searching, f_hi, f_lo)
        hi = np.where(searching, hi + step, hi)
        unbounded |= searching & (np.abs(hi) > 50.0)
        searching &= ~unbounded
        lanes = every[searching]
        f_hi[lanes] = dprofile(hi[lanes], lanes)
        searching &= (f_hi != 0.0) & ((f_hi > 0) == (f_lo > 0))
    log_alpha = np.where(unbounded, math.nan, hi)
    bracketed = every[~unbounded]
    # each bracket runs from its lower end, with the values the search holds; a 0 at an end is its root
    ends = np.where(lo < hi, [lo, hi, f_lo, f_hi], [hi, lo, f_hi, f_lo])[:, bracketed]
    log_alpha[bracketed] = _brentq(lambda x, lanes: dprofile(x, bracketed[lanes]), *ends, xtol=1e-12)
    alpha = np.exp(log_alpha)
    w = np.full((alpha.shape[0], 2), math.nan)
    lane, at, w_at = (np.concatenate(x) for x in zip(*profiled))
    root = at == log_alpha[lane]
    w[lane[root]] = w_at[root]
    # exp(w/alpha) <= 1 keeps theta inside the support; w = 0 gives the bound exactly
    theta = np.exp(w / alpha[:, None]) * units.bound
    on_bound = np.any(w == 0.0, axis=1)
    interior = np.flatnonzero(~np.isnan(log_alpha) & ~on_bound)
    var_beta = np.full(alpha.shape[0], math.nan)
    var_beta[interior] = _beta_variance(units, alpha[interior], w[interior], interior)
    return alpha, theta, on_bound, var_beta


def fit_ppr(data: Dataset) -> PprFit:
    """Exact maximum-likelihood fit of the EU model by profile likelihood.

    With w_g = alpha*log(theta_g*max(t_g)) the log-likelihood is jointly
    concave in (alpha, w_1, w_0) on the support w_g <= 0. Each group's w_g is
    solved exactly at a given alpha (:func:`_profile`), which leaves the
    profile log-likelihood of alpha, also concave. Its derivative is
    bracketed on a doubling grid of alpha around 1 and its root refined by
    Brent's method. A group's estimate lands on its support bound
    theta_g = 1/max(t_g) when its score is still non-negative there, which
    is routine when the group's largest time is an event.

    ``converged`` is True when the maximum exists and was found; the point
    reported is then the maximum of :func:`eu_log_likelihood`. It is False,
    with every estimate NaN, when a group is empty or has no events (its
    theta would go to 0), or when the likelihood still increases as alpha
    grows without bound. The interval for beta = -log RR is the Wald
    interval from the exact observed information in (alpha, w_1, w_0), where
    beta is linear; at an interior maximum this equals the delta method in
    (alpha, theta_1, theta_0). No interval is reported when a group's w_g is
    0, i.e. its estimate sits on the support bound (the information is
    undefined there).

    The fit is one lane of :func:`prepare_lanes` and :func:`solve_lanes`,
    which the study runs over many replicates at once; a lane's numbers do
    not depend on the lanes solved with it.
    """
    columns, failed, lanes = prepare_lanes(data.time[None], data.status[None], data.group[None])
    # a failed row has no lane, and the solve of no lanes returns empty arrays
    alpha, theta, on_bound, var_beta = (x.tolist() for x in solve_lanes(lanes))
    if failed or math.isnan(alpha[0]):
        reason = failed[0][1] if failed else "likelihood still increasing as alpha grows"
        params, loglik, var, ci_reason = EuParams(math.nan, math.nan, math.nan), math.nan, math.nan, ""
    else:
        reason, params = "", EuParams(alpha[0], *theta[0])
        loglik = eu_log_likelihood(Dataset.from_columns(*(c[0] for c in columns)), params)
        # on the bound var_beta is NaN, and so is the interval
        var, ci_reason = var_beta[0], "estimate at support boundary" if on_bound[0] else ""
    beta, lower, upper = beta_interval(params.alpha, params.theta1, params.theta0, var)
    ci = ConfidenceInterval(lower, upper, LEVEL)
    return PprFit(params, beta, _exp(-beta), ci, not reason, loglik, reason=reason, ci_reason=ci_reason)


@dataclass(frozen=True)
class CoxFit:
    """Cox fit of the group indicator. Without a maximum ``converged`` is
    False, ``reason`` says why, and ``log_hr``, ``hr`` and ``ci_hr`` are NaN."""

    log_hr: float
    hr: float
    ci_hr: ConfidenceInterval
    converged: bool
    reason: str = ""


def cox_two_group(data: Dataset) -> CoxFit:
    """Cox partial-likelihood fit of the single group indicator.

    Newton iteration with Breslow tie handling; Wald interval from the
    observed information. A step that lowers the partial likelihood by
    more than rounding is halved until it does not. Monotone likelihoods
    (all of one group's events before any of the other's in risk-set
    terms) do not converge and are reported as such.
    """
    grid = event_grid(data)
    events, at_risk = events_at_risk(grid.table(), Workspace.empty((), grid.event_times.shape[0]))
    d, d1 = events.sum(axis=1), events[:, 1]
    n_at, n1_at = at_risk.sum(axis=1), at_risk[:, 1]
    no_ci = ConfidenceInterval(math.nan, math.nan, LEVEL)
    if d.size == 0 or np.sum(d1) == 0 or np.sum(d1) == np.sum(d):
        return CoxFit(math.nan, math.nan, no_ci, False, "a group has no events")

    n0_at = n_at - n1_at
    with np.errstate(divide="ignore"):
        log_n0, log_n1 = np.log(n0_at), np.log(n1_at)

    def loglik(b: float) -> float:  # less a constant; finite at any finite b
        return float(np.sum(d1 * b - d * np.logaddexp(log_n0, log_n1 + b)))

    b = 0.0
    ll = loglik(b)
    for _ in range(60):
        w1 = n1_at * math.exp(b)
        p = w1 / (n0_at + w1)
        score = float(np.sum(d1 - d * p))
        info = float(np.sum(d * p * (1.0 - p)))
        if info <= 0 or not math.isfinite(info):
            return CoxFit(math.nan, math.nan, no_ci, False, "singular information")
        step = score / info
        while (ll_step := loglik(b + step)) < ll - 1e-12 * abs(ll):
            step /= 2.0
        b, ll = b + step, ll_step
        if abs(b) > 30:
            return CoxFit(math.nan, math.nan, no_ci, False, "monotone likelihood")
        if abs(step) < 1e-12:
            break
    else:
        return CoxFit(math.nan, math.nan, no_ci, False, "did not converge")

    se = 1.0 / math.sqrt(info)
    ci = ConfidenceInterval(_exp(b - Z * se), _exp(b + Z * se), LEVEL)
    return CoxFit(log_hr=b, hr=_exp(b), ci_hr=ci, converged=True)
