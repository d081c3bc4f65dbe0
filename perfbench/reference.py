"""Independent references the benchmark checks the program's outputs against.

Written from the model definitions, not from the package's code paths:
pure-Python Kaplan-Meier bookkeeping and event-time window for NPPR, a
bisection-in-golden-section profile search for the EU maximum likelihood,
a direct risk-set recount of the Breslow score for Cox, and exact binomial
bands for the Monte-Carlo properties. Nothing here imports ``proprisk``.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# NPPR
# ---------------------------------------------------------------------------

def km_steps(rows):
    """Product-limit steps of one group's [(time, status), ...].

    Returns ``(times, cdf, cumhaz_var)`` per distinct event time, where
    ``cumhaz_var`` is the Greenwood sum sum d/(n(n-d)), +inf from the step
    that empties the risk set onwards. A subject censored at an event time
    is still at risk for that step.
    """
    rows = sorted(rows)
    n_left = len(rows)
    times, cdf, chv = [], [], []
    surv, gsum = 1.0, 0.0
    i = 0
    while i < len(rows):
        t = rows[i][0]
        d = c = 0
        while i < len(rows) and rows[i][0] == t:
            if rows[i][1] == 1:
                d += 1
            else:
                c += 1
            i += 1
        if d:
            surv *= 1.0 - d / n_left
            gsum = math.inf if n_left == d else gsum + d / (n_left * (n_left - d))
            times.append(t)
            cdf.append(1.0 - surv)
            chv.append(gsum)
        n_left -= d + c
    return times, cdf, chv


def _at(steps, t):
    """Right-continuous (F, var) lookup; (0, 0) before the first event."""
    times, cdf, chv = steps
    k = bisect.bisect_right(times, t) - 1
    return (0.0, 0.0) if k < 0 else (cdf[k], chv[k])


@dataclass(frozen=True)
class NpprRef:
    beta: float
    rr: float
    t_min: float
    t_max: float
    n_used: int
    n_dropped: int
    pointwise: list  # [(time, beta_t, weight)] for the usable entries
    rd_times: list  # distinct times of the window
    rd: list
    nnt: list  # None where rd == 0


def nppr_reference(time, status, group) -> NpprRef | None:
    """Inverse-variance weighted mean of -log(F1(t)/F0(t)) over every event
    time (ties kept) inside [max first event time, min last event time],
    with the cumulative-hazard weighting var = Greenwood sum / F(t)^2.
    ``None`` when the estimator is undefined."""
    rows = {0: [], 1: []}
    for t, s, g in zip(time, status, group):
        rows[int(g)].append((float(t), int(s)))
    ev = {g: sorted(t for t, s in rows[g] if s == 1) for g in (0, 1)}
    if not ev[0] or not ev[1]:
        return None
    t_min = max(ev[1][0], ev[0][0])
    t_max = min(ev[1][-1], ev[0][-1])
    window = sorted(t for t in ev[1] + ev[0] if t_min <= t <= t_max)
    if not window:
        return None
    km1, km0 = km_steps(rows[1]), km_steps(rows[0])
    num = den = 0.0
    pointwise = []
    dropped = 0
    for t in window:
        f1, c1 = _at(km1, t)
        f0, c0 = _at(km0, t)
        omega = c1 / f1**2 + c0 / f0**2
        if not math.isfinite(omega) or omega <= 0.0:
            dropped += 1
            continue
        b = -math.log(f1 / f0)
        num += b / omega
        den += 1.0 / omega
        pointwise.append((t, b, 1.0 / omega))
    if not pointwise:
        return None
    beta = num / den
    rr = math.exp(-beta)
    rd_times = sorted(set(window))
    rd = [(1.0 - rr) * _at(km0, t)[0] for t in rd_times]
    nnt = [None if r == 0.0 else 1.0 / r for r in rd]
    return NpprRef(beta, rr, t_min, t_max, len(pointwise), dropped, pointwise, rd_times, rd, nnt)


# ---------------------------------------------------------------------------
# EU (exponentiated-uniform) maximum likelihood
# ---------------------------------------------------------------------------

def eu_loglik(time, status, group, alpha, theta1, theta0) -> float:
    """Censored EU log-likelihood: events log(alpha/t) + alpha*log(theta*t),
    censored rows log(1 - (theta*t)^alpha); -inf outside the support."""
    time = np.asarray(time, dtype=float)
    status = np.asarray(status)
    theta = np.where(np.asarray(group) == 1, theta1, theta0)
    x = theta * time
    if np.any(x > 1.0):
        return -math.inf
    ev = status == 1
    ll = float(np.sum(math.log(alpha) - np.log(time[ev]) + alpha * np.log(x[ev])))
    with np.errstate(divide="ignore"):
        ll += float(np.sum(np.log1p(-np.exp(alpha * np.log(x[~ev])))))
    return ll


def _group_max(alpha, d, log_rho_ev, log_rho_cens):
    """Maximise one group's log-likelihood over v = alpha*log(theta*t_max) <= 0.

    The group's terms are d*v + sum log(1 - exp(v + alpha*log rho)) plus a
    part free of v; the score d - sum q/(1-q), q = exp(v + alpha*log rho), is
    decreasing in v, so its root is found by bisection. Returns (v, value of
    the v-dependent part including alpha*sum log rho over the events).
    """
    a = alpha * log_rho_cens

    def score(v):
        q = np.exp(v + a)
        return d - float(np.sum(q / (1.0 - q)))

    if a.size == 0 or (np.max(a) < 0.0 and score(0.0) >= 0.0):
        v = 0.0
    else:
        lo = -1.0
        while score(lo) <= 0.0:
            lo *= 2.0
        hi = 0.0
        while hi - lo > 1e-15 * max(1.0, -lo):
            mid = 0.5 * (lo + hi)
            if score(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        v = lo
    value = d * v + alpha * float(np.sum(log_rho_ev))
    if a.size:
        value += float(np.sum(np.log1p(-np.exp(v + a))))
    return v, value


@dataclass(frozen=True)
class EuRef:
    alpha: float
    theta1: float
    theta0: float
    loglik: float


def eu_reference(time, status, group, log_alpha_range=(-8.0, 8.0)) -> EuRef | None:
    """Profile-likelihood search: each group's theta maximised exactly at a
    given alpha, then golden section on log(alpha). ``None`` when a group
    has no events (no maximum exists)."""
    time = np.asarray(time, dtype=float)
    status = np.asarray(status)
    group = np.asarray(group)
    parts = []
    for g in (1, 0):
        t, s = time[group == g], status[group == g]
        if not np.any(s == 1):
            return None
        log_rho = np.log(t) - math.log(float(t.max()))
        parts.append((int(np.sum(s == 1)), log_rho[s == 1], log_rho[s == 0], float(t.max())))
    n_ev = sum(p[0] for p in parts)
    sum_log_t_ev = float(np.sum(np.log(time[status == 1])))

    def profile(log_alpha):
        alpha = math.exp(log_alpha)
        total = n_ev * math.log(alpha) - sum_log_t_ev
        vs = []
        for d, ev, cens, _ in parts:
            v, value = _group_max(alpha, d, ev, cens)
            vs.append(v)
            total += value
        return total, vs

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = log_alpha_range
    c, e = b - ratio * (b - a), a + ratio * (b - a)
    fc, fe = profile(c)[0], profile(e)[0]
    while b - a > 1e-10:
        if fc < fe:
            a, c, fc = c, e, fe
            e = a + ratio * (b - a)
            fe = profile(e)[0]
        else:
            b, e, fe = e, c, fc
            c = b - ratio * (b - a)
            fc = profile(c)[0]
    log_alpha = c if fc >= fe else e
    _, vs = profile(log_alpha)
    alpha = math.exp(log_alpha)
    thetas = [math.exp(v / alpha) / p[3] for v, p in zip(vs, parts)]
    thetas = [min(th, 1.0 / p[3]) for th, p in zip(thetas, parts)]
    return EuRef(alpha, thetas[0], thetas[1], eu_loglik(time, status, group, alpha, *thetas))


# ---------------------------------------------------------------------------
# Cox (Breslow ties)
# ---------------------------------------------------------------------------

def breslow_score(time, status, group, b):
    """Score and information of the Breslow partial likelihood at log-HR b,
    from a direct recount of events and risk sets per distinct event time."""
    time = np.asarray(time, dtype=float)
    status = np.asarray(status)
    group = np.asarray(group)
    score = info = 0.0
    for t in np.unique(time[status == 1]):
        at_risk = time >= t
        died = (time == t) & (status == 1)
        d = int(np.sum(died))
        d1 = int(np.sum(died & (group == 1)))
        n1 = int(np.sum(at_risk & (group == 1)))
        n0 = int(np.sum(at_risk & (group == 0)))
        p = n1 * math.exp(b) / (n0 + n1 * math.exp(b))
        score += d1 - d * p
        info += d * p * (1.0 - p)
    return score, info


# ---------------------------------------------------------------------------
# Binomial bands
# ---------------------------------------------------------------------------

def binomial_band(n: int, p: float, tail: float = 1e-9) -> tuple[int, int]:
    """Smallest and largest success counts k with P(X <= k) > tail and
    P(X >= k) > tail for X ~ Binomial(n, p), by exact summation in logs."""
    log_pmf = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + (k * math.log(p) if k else 0.0) + ((n - k) * math.log1p(-p) if n - k else 0.0)
        for k in range(n + 1)
    ]
    pmf = [math.exp(v) for v in log_pmf]
    lo, acc = 0, 0.0
    while acc + pmf[lo] <= tail:
        acc += pmf[lo]
        lo += 1
    hi, acc = n, 0.0
    while acc + pmf[hi] <= tail:
        acc += pmf[hi]
        hi -= 1
    return lo, hi


def normal_band(n_trials: int, p: float, z: float = 6.0) -> tuple[float, float]:
    """p -/+ z standard errors of a share over n_trials Bernoulli(p) draws."""
    half = z * math.sqrt(p * (1.0 - p) / n_trials)
    return p - half, p + half
