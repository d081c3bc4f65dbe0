"""Acceptance suite: reproduces the reference simulation metrics and runs
the oracle-equivalence and property gates at their stated tolerances.

Each check prints one line, ``criterion N (<name>): PASS|FAIL``, so the
whole gate can be audited with ``pytest tests/test_acceptance.py -s``.

Runtime is a few minutes (full Monte-Carlo replication counts). The
coverage check runs 1,000 replicates x 500 bootstrap resamples, the
production default, in each of its two cells (the criterion floor is 500
replicates x 200 resamples).

Criterion 1's parametric-competitor (PPR) checks rest on a brute-force
oracle for the EU maximum-likelihood estimate (_exact_eu_mle): the
package's fit must reach the oracle's maximum on each of 15 replicates
(test_criterion_1_ppr_bias_analysis), and its bias at the (effect 0.5,
30% censoring, n=500) cell must equal the oracle's bias over the same
1,000 replicates (EXACT_MLE_BIAS_EFFECT_CELL) to 1e-4.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

import proprisk as pr
from proprisk.models import EuParams, WeibullPhParams, eu_quantile, weibull_ph_quantile
from proprisk.reporting import read_dataset_csv
from proprisk.simulate import Model
from proprisk.study import run_scenario
from proprisk.survival import Workspace, cell_codes, count_tables, kaplan_meier, validate_dataset

from oracles import cox_grid_oracle, eu_cdf, km_oracle, nppr_oracle, weibull_ph_cdf

SYNTHETIC = str(Path(pr.__file__).parent / "data" / "synthetic_trial.csv")


def check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _cell(model, effect, rate, n=500, seed=20240801, reps=1000, **kw):
    sc = pr.make_scenario(model, effect, rate, n, seed=seed)
    return run_scenario(sc, reps, **kw)


# -----------------------------------------------------------------------
# Criterion 1: PR-scenario bias/MSE subset, 1,000 replicates per cell
# -----------------------------------------------------------------------

@pytest.fixture(scope="module")
def table2_cells():
    return {
        (0.5, 0.3): _cell(Model.PPR_EU, 0.5, 0.3),
        (0.0, 0.5): _cell(Model.PPR_EU, 0.0, 0.5),
    }


def test_criterion_1_nppr_bias_and_mse(table2_cells):
    r1 = table2_cells[(0.5, 0.3)]
    r2 = table2_cells[(0.0, 0.5)]
    check(1, "PR 0.50/30%/500 NPPR bias vs 0.003 +-0.02",
          abs(r1.bias_nppr - 0.003) <= 0.02, f"got {r1.bias_nppr:+.4f}")
    check(1, "PR 0.00/50%/500 NPPR bias vs 0.000 +-0.02",
          abs(r2.bias_nppr - 0.000) <= 0.02, f"got {r2.bias_nppr:+.4f}")
    check(1, "PR 0.50/30%/500 NPPR MSE vs 0.013 +-25%",
          abs(r1.mse_nppr - 0.013) <= 0.25 * 0.013, f"got {r1.mse_nppr:.4f}")
    check(1, "PR 0.00/50%/500 NPPR MSE vs 0.016 +-25%",
          abs(r2.mse_nppr - 0.016) <= 0.25 * 0.016, f"got {r2.mse_nppr:.4f}")


def test_criterion_1_ppr_bias_null_cell(table2_cells):
    r2 = table2_cells[(0.0, 0.5)]
    check(1, "PR 0.00/50%/500 PPR bias vs 0.000 +-0.04",
          abs(r2.bias_ppr - 0.000) <= 0.04, f"got {r2.bias_ppr:+.4f}")


# Bias of the exact EU maximum-likelihood estimate at PR 0.50/30%/500,
# replicates 0-999 of seed 20240801 (Monte-Carlo SE 0.00094), from the
# brute-force oracle below, not from the package's fit:
#   cd tests && PYTHONPATH=../src python -c "import numpy as np, proprisk as pr;
#     from test_acceptance import _exact_eu_mle;
#     sc = pr.make_scenario(pr.Model.PPR_EU, 0.5, 0.3, 500, seed=20240801);
#     print(np.mean([_exact_eu_mle(pr.simulate_dataset(sc, r))[1] - 0.5 for r in range(1000)]))"
EXACT_MLE_BIAS_EFFECT_CELL = 0.0035699


def test_criterion_1_ppr_bias_effect_cell(table2_cells):
    """PPR bias at PR 0.50/30%/500 against the exact-MLE bias over the same
    1,000 replicates.

    The reference table gives 0.204 for this cell. It is not asserted: the
    exact maximum-likelihood estimator of the EU model under the bundled
    generator has bias +0.0036 here, about 200 Monte-Carlo standard errors
    from 0.204. PAPER.md holds only the abstract, so the repository cannot
    tell whether 0.204 belongs to a different PPR implementation, a
    different metric, or is a transcription slip.
    """
    r1 = table2_cells[(0.5, 0.3)]
    check(1, f"PR 0.50/30%/500 PPR bias vs exact MLE {EXACT_MLE_BIAS_EFFECT_CELL:+.4f} +-1e-4",
          abs(r1.bias_ppr - EXACT_MLE_BIAS_EFFECT_CELL) <= 1e-4,
          f"got {r1.bias_ppr:+.6f} ({r1.n_ppr_excluded} replicates excluded)")


def _golden_max(f, a, b, n_iter):
    """Golden-section search for the maximum of a unimodal f on [a, b];
    returns the midpoint of the final bracket."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    c, e = b - golden * (b - a), a + golden * (b - a)
    fc, fe = f(c), f(e)
    for _ in range(n_iter):
        if fc < fe:
            a, c, fc = c, e, fe
            e = a + golden * (b - a)
            fe = f(e)
        else:
            b, e, fe = e, c, fc
            c = b - golden * (b - a)
            fc = f(c)
    return (a + b) / 2.0


def _profile_theta_loglik(times, status, alpha):
    """Exact 1-d maximization of one group's EU likelihood over theta."""
    tmax = times.max()
    ev = status == 1
    d = int(ev.sum())
    const = (alpha - 1.0) * float(np.log(times[ev]).sum()) + d * math.log(alpha)
    tc = times[~ev]

    def ll(theta):
        x = (theta * tc) ** alpha
        if np.any(x >= 1.0):
            return -math.inf
        return const + alpha * d * math.log(theta) + float(np.log1p(-x).sum())

    z = _golden_max(lambda z: ll(math.exp(z)), math.log(1e-4 / tmax), math.log(1.0 / tmax) - 1e-12, 90)
    interior = ll(math.exp(z)), math.exp(z)
    boundary = ll(1.0 / tmax), 1.0 / tmax
    return max(interior, boundary)


def _exact_eu_mle(data):
    """Brute-force EU maximum likelihood: the profile log-likelihood over a
    shape grid (0.55 to 1.63, step 0.02), each theta solved by golden section
    including the support boundary, then golden section over alpha between
    the best grid point's neighbours. Returns (loglik, beta)."""
    (t1, s1), (t0, s0) = ((data.time[data.group == g], data.status[data.group == g]) for g in (1, 0))

    def profile(alpha):
        l1, th1 = _profile_theta_loglik(t1, s1, alpha)
        l0, th0 = _profile_theta_loglik(t0, s0, alpha)
        return l1 + l0, -alpha * math.log(th1 / th0)

    grid = np.arange(0.55, 1.65, 0.02)
    k = int(np.argmax([profile(alpha)[0] for alpha in grid]))
    assert 0 < k < grid.size - 1, "shape optimum outside the oracle grid"
    return profile(_golden_max(lambda alpha: profile(alpha)[0], grid[k - 1], grid[k + 1], 60))


def test_criterion_1_ppr_bias_analysis():
    """Per-replicate gate on the package's EU fit: on each of 15 replicates
    of the PR 0.50/30%/500 cell it must reach the maximum found by the
    brute-force oracle (log-likelihood no lower than the oracle's, less
    1e-9) and give the oracle's beta to 1e-6."""
    sc = pr.make_scenario(Model.PPR_EU, 0.5, 0.3, 500, seed=20240801)
    ok = True
    worst_ll, worst_beta = 0.0, 0.0
    exact_err, fit_err = [], []
    for rep in range(15):
        data = pr.simulate_dataset(sc, rep)
        oracle_ll, oracle_beta = _exact_eu_mle(data)
        fit = pr.fit_ppr(data)
        ok = ok and fit.converged and fit.loglik >= oracle_ll - 1e-9 and abs(fit.beta - oracle_beta) <= 1e-6
        worst_ll = max(worst_ll, oracle_ll - fit.loglik)
        worst_beta = max(worst_beta, abs(fit.beta - oracle_beta))
        exact_err.append(oracle_beta - 0.5)
        fit_err.append(fit.beta - 0.5)
    check(1, "analysis: package EU fit reaches the exact MLE on every replicate", ok,
          f"max loglik shortfall {worst_ll:.1e}, max |dbeta| {worst_beta:.1e}; "
          f"bias exact {np.mean(exact_err):+.4f}, package fit {np.mean(fit_err):+.4f}")


# -----------------------------------------------------------------------
# Criterion 2: PH-scenario subset, 1,000 replicates per cell
# -----------------------------------------------------------------------

def test_criterion_2_table3():
    r1 = _cell(Model.WEIBULL_PH, 0.5, 0.3)
    r2 = _cell(Model.WEIBULL_PH, -0.5, 0.7)
    check(2, "PH 0.50/30%/500 NPPR bias vs -0.158 +-0.03",
          abs(r1.bias_nppr - (-0.158)) <= 0.03, f"got {r1.bias_nppr:+.4f}")
    check(2, "PH -0.50/70%/500 NPPR bias vs 0.097 +-0.03",
          abs(r2.bias_nppr - 0.097) <= 0.03, f"got {r2.bias_nppr:+.4f}")
    check(2, "PH 0.50/30%/500 NPPR MSE vs 0.036 +-25%",
          abs(r1.mse_nppr - 0.036) <= 0.25 * 0.036, f"got {r1.mse_nppr:.4f}")
    check(2, "PH -0.50/70%/500 NPPR MSE vs 0.040 +-25%",
          abs(r2.mse_nppr - 0.040) <= 0.25 * 0.040, f"got {r2.mse_nppr:.4f}")


# -----------------------------------------------------------------------
# Criterion 3: bootstrap coverage band (1,000 reps x 500 resamples)
# -----------------------------------------------------------------------

def test_criterion_3_coverage_band():
    for rate in (0.3, 0.7):
        r = _cell(
            Model.PPR_EU, 0.25, rate, reps=1000, seed=20240803,
            with_coverage=True,
            bootstrap_config=pr.BootstrapConfig(n_resamples=500),
            fit_competitor=False,
        )
        check(3, f"PR 0.25/{rate:.0%}/500 bootstrap coverage in [0.92, 0.99]",
              0.92 <= r.coverage_nppr <= 0.99, f"got {r.coverage_nppr:.4f}")


# -----------------------------------------------------------------------
# Criterion 4: robustness, all PR scenarios at n=500
# -----------------------------------------------------------------------

def test_criterion_4_robustness():
    worst = -1
    worst_cell = None
    for effect in (0.0, 0.5, 0.25, -0.25, -0.5):
        for rate in (0.3, 0.5, 0.7):
            r = _cell(Model.PPR_EU, effect, rate, seed=20240804, fit_competitor=False)
            if r.n_nppr_failed > worst:
                worst, worst_cell = r.n_nppr_failed, (effect, rate)
            assert r.n_runs == 1000
    check(4, "NPPR failures <= 16 per 1,000 runs across all PR n=500 cells",
          worst <= 16, f"worst cell {worst_cell}: {worst} failures")


# -----------------------------------------------------------------------
# Criterion 5 (replacement): full pipeline on the bundled synthetic trial
# -----------------------------------------------------------------------

def test_criterion_5_synthetic_case_study():
    data = read_dataset_csv(SYNTHETIC)
    check(5, "synthetic trial shape 2373/2371",
          len(data) == 4744
          and int(np.sum(data.group == 1)) == 2373
          and int(np.sum(data.group == 0)) == 2371,
          f"rows={len(data)}")

    res = pr.nppr_fit(data)
    oracle = nppr_oracle(data.time, data.status, data.group)
    check(5, "case-study estimate equals brute-force oracle to 1e-10",
          abs(res.estimate.beta - oracle[0]) < 1e-10,
          f"beta={res.estimate.beta:.12f} oracle={oracle[0]:.12f}")
    check(5, "rr = exp(-beta) exactly",
          res.estimate.rr == math.exp(-res.estimate.beta))

    boot = pr.percentile_bootstrap(data, pr.BootstrapConfig(n_resamples=500, seed=7))
    boot2 = pr.percentile_bootstrap(data, pr.BootstrapConfig(n_resamples=500, seed=7))
    check(5, "bootstrap interval deterministic under fixed seed",
          boot.ci_beta == boot2.ci_beta,
          f"ci=[{boot.ci_beta.lower:.4f},{boot.ci_beta.upper:.4f}]")

    cox = pr.cox_two_group(data)
    grid = cox_grid_oracle(list(data.time), list(data.status), list(data.group))
    check(5, "two-group hazard ratio matches grid-search oracle to 1e-6",
          cox.converged and abs(cox.log_hr - grid) < 1e-6,
          f"hr={cox.hr:.6f}")

    from proprisk.cli import main as cli_main
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["fit", "--data", SYNTHETIC, "--bootstrap", "100",
                         "--seed", "7", "--format", "structured"])
    report = json.loads(buf.getvalue())
    check(5, "CLI fit pipeline returns the same estimate",
          code == 0 and report["beta"] == res.estimate.beta,
          f"cli beta={report['beta']:.10f}")


# -----------------------------------------------------------------------
# Criterion 6: oracle equivalence
# -----------------------------------------------------------------------

def test_criterion_6_nppr_oracle_100_random_datasets():
    rng = np.random.default_rng(20240806)
    checked = 0
    worst = 0.0
    while checked < 100:
        n = int(rng.integers(4, 11))
        times = np.round(rng.uniform(0.5, 10.0, n), 1)
        status = rng.integers(0, 2, n)
        group = rng.integers(0, 2, n)
        oracle = nppr_oracle(times, status, group)
        if oracle is None:
            continue
        try:
            res = pr.nppr_fit(pr.Dataset.from_columns(times, status, group))
        except pr.EstimationError:
            continue
        worst = max(worst, abs(res.estimate.beta - oracle[0]))
        checked += 1
    check(6, "100 random small datasets match brute force to 1e-10",
          worst < 1e-10, f"max |diff| = {worst:.2e}")


def test_criterion_6_km_exhaustive_enumeration():
    # every dataset of n <= 8 rows at the times 1..n, as one (4**n, n) batch per n; each count
    # table has n event bins, and a dataset's empty bins after its own K leave S and G unchanged
    worst = 0.0
    n_checked = 0
    for n in range(1, 9):
        times = [float(i) for i in range(1, n + 1)]
        bits = np.arange(4**n)[:, None] >> (2 * np.arange(n))
        status, group = bits & 1, (bits >> 1) & 1
        time = np.broadcast_to(np.array(times), status.shape)
        codes = cell_codes(time, status, group)
        table = count_tables(codes, 4 * (n + 1))
        work = Workspace.empty(table.shape[:1], n)
        events, surv, gsum = kaplan_meier(table, work)
        at_risk = work.at_risk[:, 1:]  # the sizes events_at_risk left there
        # event time j of a dataset, by event_grid's rule: an event's code holds its bin j + 1
        grid_times = np.zeros(status.shape)
        rep, row = np.nonzero(status == 1)
        grid_times[rep, (codes[rep, row] >> 2) - 1] = time[rep, row]
        events, surv, gsum, at_risk, grid_times = (
            x.tolist() for x in (events, surv, gsum, at_risk, grid_times)
        )
        for r, (st, gr) in enumerate(zip(status.tolist(), group.tolist())):
            for g in (0, 1):
                rows = [(t, s) for t, s, gg in zip(times, st, gr) if gg == g]
                expected = km_oracle(rows)
                own = [j for j in range(n) if events[r][j][g]]  # the group's own event times
                assert len(own) == len(expected)
                for j, (t, s, var, _, n_at, d) in zip(own, expected):
                    assert grid_times[r][j] == t
                    assert at_risk[r][j][g] == n_at and events[r][j][g] == d
                    worst = max(worst, abs(surv[r][j][g] - s))
                    if math.isnan(var):  # risk set exhausted
                        assert surv[r][j][g] == 0.0 and math.isinf(gsum[r][j][g])
                    else:
                        worst = max(worst, abs(surv[r][j][g] ** 2 * gsum[r][j][g] - var))
                n_checked += 1
    check(6, "KM matches hand bookkeeping on all <=8-row datasets",
          worst < 1e-12, f"{n_checked} group curves checked, max |diff| = {worst:.2e}")


# -----------------------------------------------------------------------
# Criterion 7: property suite
# -----------------------------------------------------------------------

def test_criterion_7_property_suite():
    sc = pr.make_scenario(Model.PPR_EU, 0.5, 0.3, 80, seed=20240807)
    data = pr.simulate_dataset(sc, 0)
    res = pr.nppr_fit(data)

    swapped = pr.nppr_fit(
        pr.Dataset.from_columns(data.time, data.status, 1 - data.group)
    )
    check(7, "group-swap antisymmetry (exact negation)",
          swapped.estimate.beta == -res.estimate.beta
          or abs(swapped.estimate.beta + res.estimate.beta) < 1e-12,
          f"{res.estimate.beta:+.6f} vs {swapped.estimate.beta:+.6f}")

    dup_rows = [(t, s, g) for g in (0, 1)
                for t, s in zip(data.time.tolist(), data.status.tolist())]
    dup = validate_dataset(dup_rows)
    dup_est = pr.nppr_fit(dup).estimate
    check(7, "null-effect fixed point on duplicated groups",
          dup_est.beta == 0.0 and dup_est.rr == 1.0, f"beta={dup_est.beta}")

    check(7, "convex-combination bound",
          res.points.beta_t.min() - 1e-12 <= res.estimate.beta <= res.points.beta_t.max() + 1e-12)

    eu = EuParams(0.859, 0.005, 0.009)
    wb = WeibullPhParams(0.916, 145.575, 88.296)
    us = np.linspace(0.01, 0.99, 99)
    eu_err = np.max(np.abs(np.asarray(eu_cdf(eu, 1, eu_quantile(eu, 1, us))) - us))
    wb_err = np.max(np.abs(np.asarray(weibull_ph_cdf(wb, 0, weibull_ph_quantile(wb, 0, us))) - us))
    check(7, "quantile/CDF round trips below 1e-12",
          eu_err < 1e-12 and wb_err < 1e-12, f"eu={eu_err:.2e} weibull={wb_err:.2e}")

    rd = pr.risk_difference_curve(res)
    check(7, "|risk difference| non-decreasing over time",
          bool(np.all(np.diff(np.abs(rd.rd)) >= -1e-15)))

    cfg = pr.BootstrapConfig(n_resamples=50, seed=99)
    check(7, "bootstrap deterministic under fixed seed",
          pr.percentile_bootstrap(data, cfg).ci_beta
          == pr.percentile_bootstrap(data, cfg).ci_beta)

    cells_ok = True
    for effect, rate in [(0.5, 0.3), (0.0, 0.7)]:
        r = _cell(Model.PPR_EU, effect, rate, n=60, reps=50, seed=20240808)
        if not (r.mse_nppr >= r.bias_nppr**2 - 1e-15):
            cells_ok = False
        if not math.isnan(r.mse_ppr) and not (r.mse_ppr >= r.bias_ppr**2 - 1e-15):
            cells_ok = False
    check(7, "mse >= bias^2 in every aggregated cell", cells_ok)
