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
from statistics import NormalDist

import numpy as np

from .survival import ConfidenceInterval, Dataset, event_grid, events_at_risk


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


def eu_cdf(params: EuParams, group: int, t):
    """(theta*t)^alpha, clamped to [0, 1] outside the support."""
    theta = params.theta(group)
    ts = np.asarray(t, dtype=float)
    out = np.clip(np.where(ts > 0, (theta * np.maximum(ts, 0.0)) ** params.alpha, 0.0), 0.0, 1.0)
    return out if ts.ndim else float(out)


def eu_quantile(params: EuParams, group: int, u):
    """Inverse EU CDF, t = u^(1/alpha) / theta for u in (0, 1)."""
    us = np.asarray(u, dtype=float)
    if np.any(us <= 0.0) or np.any(us >= 1.0):
        raise ValueError("u must be in (0, 1)")
    out = us ** (1.0 / params.alpha) / params.theta(group)
    return out if us.ndim else float(out)


def weibull_ph_cdf(params: WeibullPhParams, group: int, t):
    """1 - exp(-(t/lambda)^k) for t >= 0, 0 for t < 0."""
    lam = params.scale(group)
    ts = np.asarray(t, dtype=float)
    out = np.where(ts >= 0, -np.expm1(-((np.maximum(ts, 0.0) / lam) ** params.k)), 0.0)
    return out if ts.ndim else float(out)


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
    1/theta makes the likelihood zero; -inf is returned so optimizers can
    treat it as an ordinary (terrible) value.
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
        # x**alpha can underflow to 0 for extreme alpha probes; that is fine
        cens = x[~events] ** params.alpha
        ll += float(np.sum(np.log1p(-np.minimum(cens, 1.0))))
    return float(ll) if not math.isnan(ll) else -math.inf


@dataclass(frozen=True)
class PprFit:
    """ML fit of the EU model with the delta-method interval for the effect.

    ``beta`` is -log(rr), the same scale the non-parametric estimator uses.
    ``converged`` means the likelihood has a maximum and ``params`` is it
    (``loglik`` is the log-likelihood there); otherwise ``reason`` says why
    no maximum exists. The interval can still be unavailable (NaN
    endpoints, ``ci_reason`` "estimate at support boundary") when a group's
    estimate sits on its support bound theta_g = 1/max(t_g), which happens
    routinely for this non-regular likelihood. Off the bound the observed
    information is positive-definite, so the interval always exists.
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


def _ppr_fit(
    params: EuParams,
    loglik: float,
    level: float,
    converged: bool,
    reason: str = "",
    ci: ConfidenceInterval | None = None,
    ci_reason: str = "",
) -> PprFit:
    try:
        log_rr = params.alpha * math.log(params.theta1 / params.theta0)
    except (ValueError, ZeroDivisionError):
        log_rr = math.nan
    return PprFit(
        params=params,
        beta=-log_rr,
        rr=math.exp(log_rr),
        ci_beta=ci if ci is not None else ConfidenceInterval(math.nan, math.nan, level),
        converged=converged,
        loglik=loglik,
        reason=reason,
        ci_reason=ci_reason,
    )


def _profile_group(alpha: float, d: int, e_rel: float, r: np.ndarray) -> tuple[float, float]:
    """Maximize one group's EU log-likelihood over theta at a fixed alpha.

    In ``w = alpha*log(theta*t_max) <= 0`` the group's log-likelihood is
    ``d*log(alpha) + alpha*e_rel + d*w + sum log(1 - exp(w - alpha*r))`` plus
    a constant, where ``e_rel`` sums log(t/t_max) over the events and ``r``
    holds log(t_max/t) for the censored rows. It is concave in w, and its
    score ``d - sum h`` with ``h = 1/expm1(alpha*r - w)`` is strictly
    decreasing and concave. So the maximum is on the support bound w = 0
    when the score is still non-negative there; otherwise Newton's method,
    started where the score is <= 0, descends monotonically onto the single
    root without leaving the support.

    Returns ``(w, dl/dalpha)`` at the maximum. The bound on w does not move
    with alpha, so the alpha-derivative there is also the derivative of the
    profile log-likelihood (envelope theorem).
    """
    s = -alpha * r
    # sum h >= max h, which reaches d here, so the score is <= 0 at the start
    w = min(0.0, math.log(d / (d + 1.0)) - float(s.max())) if s.size else 0.0
    for _ in range(100):
        h = 1.0 / np.expm1(-(w + s))
        score = d - float(h.sum())
        if score >= 0.0:
            break
        step = score / float(np.sum(h * (1.0 + h)))
        w += step
        if -step < 1e-13:
            break
    return w, d / alpha + e_rel + float(np.sum(r * h))


def _brentq(f, a: float, b: float, xtol: float, rtol: float = 4 * np.finfo(float).eps, maxiter: int = 100) -> float:
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    It follows the common C implementation step for step (the bracket swap,
    the interpolate/extrapolate test, the ``delta`` step), so it returns the
    same float for the same f, bracket and tolerances; the tests hold it to
    that. Raises ValueError when f returns NaN or f(a) and f(b) have the
    same sign, and RuntimeError when ``maxiter`` steps do not reach the
    tolerance 2*delta.
    """

    def fx(x: float) -> float:
        y = f(x)
        if math.isnan(y):
            raise ValueError(f"the function value at x={x} is NaN")
        return y

    xpre, xcur = float(a), float(b)
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fx(xcur)
    raise RuntimeError(f"brentq did not converge after {maxiter} iterations, value is {xcur}")


def fit_ppr(data: Dataset, level: float = 0.95) -> PprFit:
    """Exact maximum-likelihood fit of the EU model by profile likelihood.

    With w_g = alpha*log(theta_g*max(t_g)) the log-likelihood is jointly
    concave in (alpha, w_1, w_0) on the support w_g <= 0. Each group's w_g is
    solved exactly at a given alpha (:func:`_profile_group`), which leaves
    the profile log-likelihood of alpha, also concave. Its derivative is
    bracketed on a doubling grid of alpha around 1 and its root refined by
    Brent's method. A group's estimate lands on its support bound
    theta_g = 1/max(t_g) when its score is still non-negative there, which
    is routine when the group's largest time is an event.

    ``converged`` is True when the maximum exists and was found; the point
    reported is then the maximum of :func:`eu_log_likelihood`. It is False
    when a group is empty or has no events (its theta would go to 0), or
    when the likelihood still increases as alpha grows without bound. The
    interval for beta = -log RR is the Wald interval from the exact observed
    information in (alpha, w_1, w_0), where beta is linear; at an interior
    maximum this equals the delta method in (alpha, theta_1, theta_0). No
    interval is reported when a group's w_g is 0, i.e. its estimate sits on
    the support bound (the information is undefined there).
    """
    # canonical row order makes the fit exactly invariant to input permutation
    order = np.lexsort((data.status, data.group, data.time))
    data = data.take(order)
    t1, s1 = data.group_arrays(1)
    t0, s0 = data.group_arrays(0)
    if not (t1.size and t0.size):
        return _ppr_fit(EuParams(1.0, 1.0, 1.0), math.nan, level, False, "a group is empty")
    bound1 = 1.0 / float(t1.max())
    bound0 = 1.0 / float(t0.max())
    start = EuParams(1.0, 0.9 * bound1, 0.9 * bound0)
    if not (np.any(s1 == 1) or np.any(s0 == 1)):
        return _ppr_fit(start, math.nan, level, False, "no events")
    if not (np.any(s1 == 1) and np.any(s0 == 1)):
        return _ppr_fit(start, math.nan, level, False, "a group has no events")

    groups = []
    for t, s in ((t1, s1), (t0, s0)):
        log_rel = np.log(t) - math.log(float(t.max()))
        groups.append((int(np.count_nonzero(s == 1)), float(log_rel[s == 1].sum()), -log_rel[s == 0]))

    def dprofile(log_alpha: float) -> float:
        alpha = math.exp(log_alpha)
        return sum(_profile_group(alpha, *g)[1] for g in groups)

    # the derivative decreases in alpha; double or halve alpha from 1 until it changes sign
    lo = hi = 0.0
    f_lo = f_hi = dprofile(0.0)
    step = math.log(2.0) if f_lo > 0 else -math.log(2.0)
    while f_hi != 0.0 and (f_hi > 0) == (f_lo > 0):
        lo, f_lo = hi, f_hi
        hi += step
        if abs(hi) > 50.0:
            return _ppr_fit(start, math.nan, level, False, "likelihood still increasing as alpha grows")
        f_hi = dprofile(hi)
    log_alpha = hi if f_hi == 0.0 else _brentq(dprofile, min(lo, hi), max(lo, hi), xtol=1e-12)
    alpha = math.exp(log_alpha)
    ws = [_profile_group(alpha, *g)[0] for g in groups]
    # exp(w/alpha) <= 1 keeps theta inside the support; w = 0 gives the bound exactly
    theta1, theta0 = (math.exp(w / alpha) * bound for w, bound in zip(ws, (bound1, bound0)))
    params = EuParams(alpha, theta1, theta0)
    loglik = eu_log_likelihood(data, params)
    if 0.0 in ws:
        return _ppr_fit(params, loglik, level, True, ci_reason="estimate at support boundary")

    # observed information in (alpha, w1, w0); off the bound every group has censored rows
    info = np.zeros((3, 3))
    for i, ((d, _, r), w) in enumerate(zip(groups, ws), start=1):
        h = 1.0 / np.expm1(alpha * r - w)
        c = h * (1.0 + h)
        info[0, 0] += d / alpha**2 + float(np.sum(r * r * c))
        info[0, i] = info[i, 0] = -float(np.sum(r * c))
        info[i, i] = float(np.sum(c))
    # beta = w0 - w1 + alpha*log(max t_1/max t_0) is linear in these coordinates
    grad = np.array([math.log(float(t1.max() / t0.max())), -1.0, 1.0])
    var_beta = float(grad @ np.linalg.solve(info, grad))

    beta = -params.alpha * math.log(params.theta1 / params.theta0)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    half = z * math.sqrt(var_beta)
    return _ppr_fit(
        params,
        loglik,
        level,
        True,
        ci=ConfidenceInterval(beta - half, beta + half, level),
    )


@dataclass(frozen=True)
class CoxFit:
    log_hr: float
    hr: float
    ci_hr: ConfidenceInterval
    converged: bool
    reason: str = ""


def cox_two_group(data: Dataset, level: float = 0.95) -> CoxFit:
    """Cox partial-likelihood fit of the single group indicator.

    Newton iteration with Breslow tie handling; Wald interval from the
    observed information. Monotone likelihoods (all of one group's events
    before any of the other's in risk-set terms) do not converge and are
    reported as such.
    """
    events, at_risk = events_at_risk(event_grid(data).table())
    d, d1 = events.sum(axis=1), events[:, 1]
    n_at, n1_at = at_risk.sum(axis=1), at_risk[:, 1]
    if d.size == 0 or np.sum(d1) == 0 or np.sum(d1) == np.sum(d):
        return CoxFit(math.nan, math.nan, ConfidenceInterval(math.nan, math.nan, level), False, "a group has no events")

    n0_at = n_at - n1_at
    b = 0.0
    for _ in range(60):
        w1 = n1_at * math.exp(b)
        p = w1 / (n0_at + w1)
        score = float(np.sum(d1 - d * p))
        info = float(np.sum(d * p * (1.0 - p)))
        if info <= 0 or not math.isfinite(info):
            return CoxFit(b, math.exp(b), ConfidenceInterval(math.nan, math.nan, level), False, "singular information")
        step = score / info
        b += step
        if abs(b) > 30:
            return CoxFit(b, math.exp(b), ConfidenceInterval(math.nan, math.nan, level), False, "monotone likelihood")
        if abs(step) < 1e-12:
            break
    else:
        return CoxFit(b, math.exp(b), ConfidenceInterval(math.nan, math.nan, level), False, "did not converge")

    se = 1.0 / math.sqrt(info)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    ci = ConfidenceInterval(math.exp(b - z * se), math.exp(b + z * se), level)
    return CoxFit(log_hr=b, hr=math.exp(b), ci_hr=ci, converged=True)
