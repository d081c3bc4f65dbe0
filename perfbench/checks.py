"""Checks of the program's outputs against the references in
``reference.py``. Each function returns a list of failure messages; an
empty list means the output passed.
"""
from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

import reference as ref

BETA_TOL = 1e-10  # program vs brute-force NPPR
SWAP_TOL = 1e-12  # beta(swapped groups) + beta
LOGLIK_TOL = 1e-9  # EU fit short of the reference maximum
COX_STEP_TOL = 1e-8  # Newton step to the Breslow score root at the reported log HR
CENSOR_Z = 6.0  # half-width of the censoring-share band, in standard errors
COVERAGE_TAIL = 1e-9  # tail probability outside the coverage band


class Failures(list):
    def close(self, what, got, want, tol, rel=False):
        """Record a failure unless |got - want| <= tol (times max(1, |want|) if rel)."""
        if got is None or want is None:
            if got is not want:
                self.append(f"{what}: got {got!r}, want {want!r}")
            return
        scale = max(1.0, abs(want)) if rel else 1.0
        if not abs(got - want) <= tol * scale:
            self.append(f"{what}: got {got!r}, want {want!r} (tol {tol:g})")

    def equal(self, what, got, want):
        if got != want:
            self.append(f"{what}: got {got!r}, want {want!r}")

    def require(self, what, ok):
        if not ok:
            self.append(what)


def ceiling_rank(sorted_values, q):
    n = len(sorted_values)
    return sorted_values[min(max(math.ceil(q * n), 1), n) - 1]


def check_fit_report(report: dict, nref: ref.NpprRef, with_ci: bool) -> list[str]:
    """A ``fit --format structured`` report against the brute-force NPPR."""
    f = Failures()
    f.close("beta", report["beta"], nref.beta, BETA_TOL)
    f.close("rr = exp(-beta)", report["rr"], math.exp(-report["beta"]), 1e-15, rel=True)
    f.equal("n_times_used", report["n_times_used"], nref.n_used)
    f.equal("t_min", report["t_min"], nref.t_min)
    f.equal("t_max", report["t_max"], nref.t_max)
    pw = report["pointwise_series"]
    f.equal("pointwise times", [r[0] for r in pw], [r[0] for r in nref.pointwise])
    if len(pw) == len(nref.pointwise):
        for (t, b, w), (_, rb, rw) in zip(pw, nref.pointwise):
            f.close(f"beta_t at {t}", b, rb, BETA_TOL)
            f.close(f"weight at {t}", w, rw, BETA_TOL, rel=True)
    rd = report["rd_nnt_series"]
    f.equal("rd times", rd["times"], nref.rd_times)
    if len(rd["rd"]) == len(nref.rd):
        for t, r, n, rr_, rn in zip(rd["times"], rd["rd"], rd["nnt"], nref.rd, nref.nnt):
            f.close(f"rd at {t}", r, rr_, BETA_TOL)
            f.close(f"nnt at {t}", n, rn, BETA_TOL, rel=True)
    else:
        f.append("rd series length")
    if with_ci:
        f.require("ci_beta present", report["ci_beta"] is not None and report["ci_rr"] is not None)
    else:
        f.require("no ci without bootstrap", report["ci_beta"] is None and report["ci_rr"] is None)
    return f


def check_interval(ci_beta: dict, ci_rr: dict, betas, n_resamples: int, n_failed: int, level: float) -> list[str]:
    """Percentile interval: ceiling-rank order statistics of the resample
    betas, the rr interval their transform, and the resample bookkeeping."""
    f = Failures()
    ordered = sorted(betas)
    tail = (1.0 - level) / 2.0
    f.equal("n_effective + n_failed", len(betas) + n_failed, n_resamples)
    f.equal("ci_beta.n_effective", ci_beta["n_effective"], len(betas))
    f.equal("ci_beta.level", ci_beta["level"], level)
    f.equal("ci_beta.lower", ci_beta["lower"], ceiling_rank(ordered, tail))
    f.equal("ci_beta.upper", ci_beta["upper"], ceiling_rank(ordered, 1.0 - tail))
    f.close("ci_rr.lower", ci_rr["lower"], math.exp(-ci_beta["upper"]), 1e-15, rel=True)
    f.close("ci_rr.upper", ci_rr["upper"], math.exp(-ci_beta["lower"]), 1e-15, rel=True)
    return f


def check_redrawn(time, status, group, seed: int, n_resamples: int, betas, draws: int) -> list[str]:
    """Redraw the first ``draws`` resamples from their SeedSequence children
    and compare their brute-force NPPR with the program's resample betas
    (which skip failed resamples)."""
    f = Failures()
    time, status, group = np.asarray(time), np.asarray(status), np.asarray(group)
    n = time.shape[0]
    children = np.random.SeedSequence(seed).spawn(n_resamples)
    pos = 0
    for i in range(draws):
        idx = np.random.default_rng(children[i]).integers(0, n, size=n)
        nref = ref.nppr_reference(time[idx], status[idx], group[idx])
        if nref is None:
            continue
        if pos >= len(betas):
            f.append(f"resample {i}: missing beta")
            break
        f.close(f"resample {i} beta", betas[pos], nref.beta, BETA_TOL)
        pos += 1
    return f


def check_swap(beta: float, beta_swapped: float) -> list[str]:
    f = Failures()
    f.close("beta with groups swapped", beta_swapped, -beta, SWAP_TOL)
    return f


def ppr_payload(fit) -> dict:
    """A ``PprFit`` in the shape ``ppr-fit`` prints."""
    return {"alpha": fit.params.alpha, "theta1": fit.params.theta1, "theta0": fit.params.theta0,
            "beta": fit.beta, "rr": fit.rr, "loglik": fit.loglik, "converged": fit.converged,
            "ci_beta": {"lower": fit.ci_beta.lower, "upper": fit.ci_beta.upper} if fit.ci_available else None}


def check_ppr_fit(payload: dict, time, status, group, eref: ref.EuRef) -> list[str]:
    """An EU fit: reaches the reference maximum, stays in the support, and
    reports the log-likelihood and effect of its own parameters."""
    f = Failures()
    a, th1, th0 = payload["alpha"], payload["theta1"], payload["theta0"]
    time, group = np.asarray(time), np.asarray(group)
    f.require("converged", payload["converged"] is True)
    for g, th in ((1, th1), (0, th0)):
        f.require(f"theta{g} <= 1/max t", th * float(time[group == g].max()) <= 1.0)
    own = ref.eu_loglik(time, status, group, a, th1, th0)
    f.close("loglik at reported parameters", payload["loglik"], own, 1e-12, rel=True)
    f.require(
        f"loglik {payload['loglik']!r} short of the reference maximum {eref.loglik!r} by more than {LOGLIK_TOL:g}",
        payload["loglik"] >= eref.loglik - LOGLIK_TOL,
    )
    f.close("beta = -alpha*log(theta1/theta0)", payload["beta"], -a * math.log(th1 / th0), 1e-12, rel=True)
    if "rr" in payload:
        f.close("rr = exp(-beta)", payload["rr"], math.exp(-payload["beta"]), 1e-14, rel=True)
    ci = payload.get("ci_beta")
    if ci is not None:
        f.require("ci_beta brackets beta", ci["lower"] < payload["beta"] < ci["upper"])
    return f


def check_cox(payload: dict, time, status, group, level: float = 0.95) -> list[str]:
    """The Breslow score vanishes at the reported log HR; hr and its Wald
    interval follow from it."""
    f = Failures()
    b = payload["log_hr"]
    f.require("converged", payload["converged"] is True)
    score, info = ref.breslow_score(time, status, group, b)
    f.require(
        f"Breslow score {score!r} does not vanish at the log HR (Newton step {score / info!r})",
        abs(score / info) <= COX_STEP_TOL,
    )
    f.close("hr = exp(log_hr)", payload["hr"], math.exp(b), 1e-15, rel=True)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    se = 1.0 / math.sqrt(info)
    f.close("ci_hr.lower", payload["ci_hr"]["lower"], math.exp(b - z * se), 1e-9, rel=True)
    f.close("ci_hr.upper", payload["ci_hr"]["upper"], math.exp(b + z * se), 1e-9, rel=True)
    return f


def check_cell(result, truth: float, nppr_refs, ppr_fits=None, threshold: float = 3.0,
               level: float = 0.95) -> list[str]:
    """A ``run_scenario`` result against per-replicate recomputation.

    ``nppr_refs`` holds the brute-force NPPR of every replicate (None where
    undefined) and ``ppr_fits`` the ``(converged, beta)`` of every
    replicate's EU fit, or None when the competitor was not fitted.
    """
    f = Failures()
    n_reps = len(nppr_refs)
    f.equal("n_runs", result.n_runs, n_reps)
    errs = np.array([r.beta - truth for r in nppr_refs if r is not None])
    f.equal("n_nppr_failed", result.n_nppr_failed, sum(r is None for r in nppr_refs))
    if errs.size:
        f.close("bias_nppr", result.bias_nppr, float(np.mean(errs)), BETA_TOL)
        f.close("mse_nppr", result.mse_nppr, float(np.mean(errs**2)), BETA_TOL)
    if ppr_fits is None:
        f.require("no PPR columns without the competitor",
                  math.isnan(result.bias_ppr) and result.n_ppr_excluded == 0)
    else:
        kept = np.array([b - truth for ok, b in ppr_fits if ok and abs(b) <= threshold])
        f.equal("n_ppr_excluded", result.n_ppr_excluded, n_reps - kept.size)
        if kept.size:
            f.close("bias_ppr", result.bias_ppr, float(np.mean(kept)), 1e-12)
            f.close("mse_ppr", result.mse_ppr, float(np.mean(kept**2)), 1e-12)
    if not math.isnan(result.coverage_nppr):
        m = n_reps - result.n_nppr_failed
        lo, hi = ref.binomial_band(m, level, COVERAGE_TAIL)
        f.require(
            f"coverage {result.coverage_nppr!r} in binomial band [{lo}/{m}, {hi}/{m}] of {level}",
            lo / m <= result.coverage_nppr <= hi / m,
        )
    return f


def check_censoring(censored: int, total: int, rate: float) -> list[str]:
    f = Failures()
    lo, hi = ref.normal_band(total, rate, CENSOR_Z)
    share = censored / total
    f.require(f"censoring share {share:.4f} in [{lo:.4f}, {hi:.4f}] around {rate}", lo <= share <= hi)
    return f
