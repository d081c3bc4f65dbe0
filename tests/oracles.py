"""Brute-force reference implementations, deliberately independent of the
package's vectorized code paths: pure-Python loops, explicit risk-set
recounts per time, no shared helpers. ``nppr_scalar`` is the exception: a
per-dataset numpy pipeline, fast enough to refit every bootstrap resample.

The generating models' CDFs (``eu_cdf``, ``weibull_ph_cdf``) and the
grid-file form of a scenario (``scenario_to_dict``) are here too: the
package needs only their inverses and the parser, and the tests compare
against them."""
import math
from dataclasses import asdict
from statistics import NormalDist

import numpy as np


def km_oracle(pairs):
    """Product-limit bookkeeping for one group's [(time, status), ...] rows.

    Returns [(t, survival, greenwood_var, cumhaz_var, n_at_risk, d_events)]
    per distinct event time; variances are NaN/inf past risk-set exhaustion.
    """
    event_times = sorted({t for t, s in pairs if s == 1})
    out = []
    surv = 1.0
    gsum = 0.0
    exhausted = False
    for t in event_times:
        n = sum(1 for (u, _) in pairs if u >= t)
        d = sum(1 for (u, s) in pairs if u == t and s == 1)
        surv *= 1.0 - d / n
        if n == d:
            exhausted = True
        else:
            gsum += d / (n * (n - d))
        var = math.nan if exhausted else surv * surv * gsum
        chv = math.inf if exhausted else gsum
        out.append((t, surv, var, chv, n, d))
    return out


def _lookup(table, t, defaults):
    best = None
    for row in table:
        if row[0] <= t:
            best = row
        else:
            break
    return defaults if best is None else best[1:]


def nppr_oracle(time, status, group):
    """First-principles recomputation of the weighted log-RR summary.

    Returns (beta, n_used, n_dropped), or None when the estimator is
    undefined (no overlap window or every entry dropped).
    """
    rows1 = [(t, s) for t, s, g in zip(time, status, group) if g == 1]
    rows0 = [(t, s) for t, s, g in zip(time, status, group) if g == 0]
    km1, km0 = km_oracle(rows1), km_oracle(rows0)
    t1 = sorted(t for t, s in rows1 if s == 1)
    t0 = sorted(t for t, s in rows0 if s == 1)
    if not t1 or not t0:
        return None
    t_min, t_max = max(t1[0], t0[0]), min(t1[-1], t0[-1])
    pooled = sorted(t for t in t1 + t0 if t_min <= t <= t_max)
    if not pooled:
        return None
    defaults = (1.0, 0.0, 0.0, None, None)
    num = den = 0.0
    used = dropped = 0
    for t in pooled:
        s1, _, c1, _, _ = _lookup(km1, t, defaults)
        s0, _, c0, _, _ = _lookup(km0, t, defaults)
        f1, f0 = 1.0 - s1, 1.0 - s0
        omega = c1 / f1**2 + c0 / f0**2
        if not math.isfinite(omega) or omega <= 0:
            dropped += 1
            continue
        w = 1.0 / omega
        num += w * (-math.log(f1 / f0))
        den += w
        used += 1
    if used == 0:
        return None
    return num / den, used, dropped


def _km_steps(times, status):
    """One group's distinct event times, Kaplan-Meier survival and Greenwood
    sums (+inf once the risk set is exhausted), by sorting its rows."""
    order = np.argsort(times, kind="stable")
    t, e = times[order], status[order].astype(np.int64)
    uniq, first = np.unique(t, return_index=True)
    d = np.add.reduceat(e, first)
    n = t.size - first  # rows at or after each distinct time
    keep = d > 0
    d, n = d[keep], n[keep]
    with np.errstate(divide="ignore"):
        return uniq[keep], np.cumprod(1.0 - d / n), np.cumsum(d / (n * (n - d)))


def _step(event_times, values, t, before):
    """Right-continuous step function through (event_times, values) at t."""
    idx = np.searchsorted(event_times, t, side="right") - 1
    return np.where(idx >= 0, values[np.maximum(idx, 0)], before)


def nppr_scalar(time, status, group):
    """NPPR beta of one dataset the scalar way: a Kaplan-Meier step function
    per group, the window's event-time multiset (ties retained), step
    lookups at each entry and a mean over the multiset; None where the
    estimate is undefined."""
    time, status, group = np.asarray(time, dtype=float), np.asarray(status), np.asarray(group)
    ev1 = np.sort(time[(group == 1) & (status == 1)])
    ev0 = np.sort(time[(group == 0) & (status == 1)])
    if ev1.size == 0 or ev0.size == 0:
        return None
    t_min, t_max = max(ev1[0], ev0[0]), min(ev1[-1], ev0[-1])
    pooled = np.sort(np.concatenate([ev1, ev0]))
    times = pooled[(pooled >= t_min) & (pooled <= t_max)]
    f, v = [], []
    for g in (1, 0):
        event_times, surv, gsum = _km_steps(time[group == g], status[group == g])
        f.append(1.0 - _step(event_times, surv, times, 1.0))  # > 0 inside the window
        v.append(_step(event_times, gsum, times, 0.0) / f[-1] ** 2)
    omega = v[0] + v[1]
    usable = np.isfinite(omega) & (omega > 0)
    if not usable.any():
        return None
    w = 1.0 / omega[usable]
    return float(np.sum(w * -np.log(f[0][usable] / f[1][usable])) / np.sum(w))


def simulate_oracle(scenario, replicate):
    """(time, status, group) of one replicate, drawn and transformed on its
    own: the reference for ``simulate_replicates``, which transforms a
    whole chunk at once."""
    from proprisk.models import eu_quantile, weibull_ph_quantile
    from proprisk.simulate import Model

    rng = np.random.default_rng(np.random.SeedSequence(scenario.seed, spawn_key=(replicate, 0)))
    n = scenario.n_participants
    u = rng.random((3, n))
    group = (u[0] > 0.5).astype(np.int64)
    quantile = eu_quantile if scenario.model is Model.PPR_EU else weibull_ph_quantile
    t_event = np.empty(n)
    for g in (0, 1):
        mask = group == g
        if np.any(mask):
            t_event[mask] = quantile(scenario.params, g, u[1][mask])
    t_censor = scenario.censor_cmax * u[2]
    status = (t_event <= t_censor).astype(np.int64)
    return np.minimum(t_event, t_censor), status, group


def event_grid_oracle(time, status, group):
    """(event_times, cell codes) of one dataset by sorting its distinct
    event times and looking each row up with a right-sided searchsorted."""
    time, status, group = np.asarray(time, dtype=float), np.asarray(status), np.asarray(group)
    event_times = np.unique(time[status == 1])
    bins = np.searchsorted(event_times, time, side="right")
    return event_times, (bins * 2 + group) * 2 + status


def cell_codes_lexsort(time, status, group):
    """``survival.cell_codes`` by the two-key np.lexsort it replaced: rows
    sorted by time, events first at ties."""
    order = np.lexsort((1 - status, time), axis=-1)
    t = np.take_along_axis(time, order, axis=-1)
    new = np.take_along_axis(status, order, axis=-1) == 1
    new[..., 1:] &= t[..., 1:] > t[..., :-1]
    bins = np.empty_like(order)
    np.put_along_axis(bins, order, np.cumsum(new, axis=-1), axis=-1)
    return (bins * 2 + group) * 2 + status


def canonical_order_lexsort(time, status, group):
    """The columns in ``survival.canonical_order`` by the three-key np.lexsort
    it replaces: rows sorted by time, then events first, then group."""
    order = np.lexsort((group, 1 - status, time), axis=-1)
    return tuple(np.take_along_axis(c, order, axis=-1) for c in (time, status, group))


def tie_heavy(shape, seed):
    """(time, status, group) of shape (R, n) with integer times from 1 to
    max(3, n // 10): every time is tied many times over."""
    rng = np.random.default_rng(seed)
    time = rng.integers(1, max(3, shape[-1] // 10) + 1, size=shape).astype(float)
    return time, rng.integers(0, 2, size=shape), rng.integers(0, 2, size=shape)


def _cox_counts(time, status, group):
    """(d, d1, n1, n0) at each distinct event time, each a recount over every row."""
    rows = list(zip(time, status, group))
    counts = []
    for t in sorted({u for u, s, _ in rows if s == 1}):
        d = sum(1 for u, s, _ in rows if u == t and s == 1)
        d1 = sum(1 for u, s, g in rows if u == t and s == 1 and g == 1)
        n1 = sum(1 for u, _, g in rows if u >= t and g == 1)
        n0 = sum(1 for u, _, g in rows if u >= t and g == 0)
        counts.append((d, d1, n1, n0))
    return counts


def _cox_loglik_from_counts(counts, b):
    ll = 0.0
    for d, d1, n1, n0 in counts:
        ll += d1 * b - d * math.log(n0 + n1 * math.exp(b))
    return ll


def cox_score_root_oracle(time, status, group, lo=-30.0, hi=30.0):
    """The root of the Breslow score in log-HR by bisection on [lo, hi]; the
    score d1 - d*n1*e^b/(n0 + n1*e^b), summed over the event times,
    decreases in b."""
    counts = _cox_counts(time, status, group)

    def score(b):
        return sum(d1 - d * n1 / (n0 * math.exp(-b) + n1) for d, d1, n1, n0 in counts)

    assert score(lo) > 0.0 > score(hi), "no sign change of the score on [lo, hi]"
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if score(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def cox_partial_loglik(time, status, group, b):
    """Breslow partial log-likelihood of the group indicator at log-HR b."""
    return _cox_loglik_from_counts(_cox_counts(time, status, group), b)


def cox_grid_oracle(time, status, group, lo=-6.0, hi=6.0):
    """Golden-section maximization of the partial likelihood over log-HR.

    The risk-set counts do not depend on b, so they are recounted once and
    every evaluation reads them."""
    counts = _cox_counts(time, status, group)
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc = _cox_loglik_from_counts(counts, c)
    fd = _cox_loglik_from_counts(counts, d)
    for _ in range(200):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = _cox_loglik_from_counts(counts, d)
        else:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = _cox_loglik_from_counts(counts, c)
    return (a + b) / 2.0


def eu_loglik_oracle(time, status, group, alpha, theta1, theta0):
    """Two-group EU censored-data log-likelihood, summed row by row; -inf
    once a time lies beyond its group's support bound 1/theta."""
    terms = []
    for t, s, g in zip(time, status, group):
        theta = theta1 if g == 1 else theta0
        if theta * t > 1.0:
            return -math.inf
        if s == 1:
            terms.append(math.log(alpha) + alpha * math.log(theta) + (alpha - 1.0) * math.log(t))
        else:
            terms.append(math.log1p(-((theta * t) ** alpha)))
    return math.fsum(terms)


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def eu_delta_half_width_oracle(time, status, group, alpha, theta1, theta0, level=0.95, rel_step=1e-4):
    """Half-width of the delta-method interval for beta = -alpha*log(theta1/theta0).

    The Hessian of :func:`eu_loglik_oracle` is taken by central differences
    in (alpha, theta1, theta0), each step ``rel_step`` of its coordinate and
    at most 0.45 of the distance to the group's support bound, so the
    stencil stays inside the support. The 3x3 system is solved by Cramer's
    rule.
    """
    x = [alpha, theta1, theta0]
    bounds = [math.inf] + [1.0 / max(t for t, g2 in zip(time, group) if g2 == g) for g in (1, 0)]
    h = [min(rel_step * abs(v), 0.45 * (b - v)) for v, b in zip(x, bounds)]

    def f(*shifts):
        p = list(x)
        for i, k in shifts:
            p[i] += k * h[i]
        return eu_loglik_oracle(time, status, group, *p)

    neg_hess = [[0.0] * 3 for _ in range(3)]
    for i in range(3):
        neg_hess[i][i] = -(f((i, 1)) - 2.0 * f() + f((i, -1))) / h[i] ** 2
        for j in range(i + 1, 3):
            d = f((i, 1), (j, 1)) - f((i, 1), (j, -1)) - f((i, -1), (j, 1)) + f((i, -1), (j, -1))
            neg_hess[i][j] = neg_hess[j][i] = -d / (4.0 * h[i] * h[j])
    grad = [math.log(theta1 / theta0), alpha / theta1, -alpha / theta0]
    det = _det3(neg_hess)
    var = 0.0
    for i in range(3):
        m = [[grad[r] if c == i else neg_hess[r][c] for c in range(3)] for r in range(3)]
        var += grad[i] * _det3(m) / det
    return NormalDist().inv_cdf(0.5 + level / 2.0) * math.sqrt(var)


def eu_cdf(params, group: int, t):
    """(theta*t)^alpha, clamped to [0, 1] outside the support."""
    theta = params.theta(group)
    ts = np.asarray(t, dtype=float)
    out = np.clip(np.where(ts > 0, (theta * np.maximum(ts, 0.0)) ** params.alpha, 0.0), 0.0, 1.0)
    return out if ts.ndim else float(out)


def weibull_ph_cdf(params, group: int, t):
    """1 - exp(-(t/lambda)^k) for t >= 0, 0 for t < 0."""
    lam = params.scale(group)
    ts = np.asarray(t, dtype=float)
    out = np.where(ts >= 0, -np.expm1(-((np.maximum(ts, 0.0) / lam) ** params.k)), 0.0)
    return out if ts.ndim else float(out)


def scenario_to_dict(scenario) -> dict:
    """A scenario as the JSON object that a grid file holds."""
    return dict(asdict(scenario), model=scenario.model.value)
