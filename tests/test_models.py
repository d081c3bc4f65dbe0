import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proprisk import Dataset, EstimationError, cox_two_group, fit_ppr, nppr_fit
from proprisk.models import (
    EuParams,
    WeibullPhParams,
    eu_log_likelihood,
    eu_quantile,
    weibull_ph_quantile,
)
from proprisk.survival import validate_dataset
import proprisk.models as models

from oracles import (
    canonical_order_lexsort,
    cox_grid_oracle,
    cox_partial_loglik,
    cox_score_root_oracle,
    eu_cdf,
    eu_delta_half_width_oracle,
    tie_heavy,
    weibull_ph_cdf,
)

EU = EuParams(0.859, 0.005, 0.009)
WEIB = WeibullPhParams(0.916, 145.575, 88.296)


def test_wald_half_width_is_the_normal_quantile():
    # models.Z is written as a literal so that importing proprisk skips statistics
    from statistics import NormalDist

    assert models.Z == NormalDist().inv_cdf(0.5 + models.LEVEL / 2.0)


class TestEuDistribution:
    def test_uniform_special_case(self):
        p = EuParams(1.0, 0.01, 0.01)
        assert eu_cdf(p, 0, 50.0) == pytest.approx(0.5)
        assert eu_quantile(p, 0, 0.25) == pytest.approx(25.0)

    def test_support_boundary(self):
        p = EuParams(1.3, 0.02, 0.01)
        assert eu_cdf(p, 1, 1 / 0.02) == pytest.approx(1.0)
        assert eu_cdf(p, 1, 100.0) == 1.0
        assert eu_cdf(p, 1, -1.0) == 0.0
        assert eu_cdf(p, 1, 0.0) == 0.0

    def test_median(self):
        # 0.5^(1/0.859)/0.009
        assert eu_quantile(EU, 0, 0.5) == pytest.approx(49.580981612821894, rel=1e-12)
        assert eu_cdf(EU, 0, 49.580981612821894) == pytest.approx(0.5, abs=1e-12)

    def test_quantile_domain(self):
        with pytest.raises(ValueError):
            eu_quantile(EU, 0, 0.0)
        with pytest.raises(ValueError):
            eu_quantile(EU, 0, 1.0)

    def test_quantile_near_one_approaches_support_end(self):
        t = eu_quantile(EU, 0, 1 - 1e-12)
        assert t <= 1 / EU.theta0
        assert t == pytest.approx(1 / EU.theta0, rel=1e-9)


class TestWeibullDistribution:
    def test_exponential_special_case(self):
        p = WeibullPhParams(1.0, 10.0, 10.0)
        assert weibull_ph_cdf(p, 0, 10.0) == pytest.approx(1 - math.exp(-1))

    def test_negative_time(self):
        assert weibull_ph_cdf(WEIB, 0, -3.0) == 0.0

    def test_median(self):
        # lambda * (-log 0.5)^(1/k)
        assert weibull_ph_quantile(WEIB, 0, 0.5) == pytest.approx(59.17928296492599, rel=1e-12)

    def test_quantile_domain(self):
        with pytest.raises(ValueError):
            weibull_ph_quantile(WEIB, 0, 1.0)


@pytest.mark.parametrize("u", np.linspace(0.01, 0.99, 25))
def test_roundtrip_eu(u):
    assert eu_cdf(EU, 1, eu_quantile(EU, 1, u)) == pytest.approx(u, abs=1e-12)


@pytest.mark.parametrize("u", np.linspace(0.01, 0.99, 25))
def test_roundtrip_weibull(u):
    assert weibull_ph_cdf(WEIB, 1, weibull_ph_quantile(WEIB, 1, u)) == pytest.approx(u, abs=1e-12)


class TestEuLogLikelihood:
    def test_uniform_event(self):
        d = Dataset.from_columns([50.0], [1], [0])
        p = EuParams(1.0, 0.5, 0.01)
        assert eu_log_likelihood(d, p) == pytest.approx(math.log(0.01))

    def test_uniform_censored(self):
        d = Dataset.from_columns([50.0], [0], [0])
        p = EuParams(1.0, 0.5, 0.01)
        assert eu_log_likelihood(d, p) == pytest.approx(math.log(0.5))

    def test_support_violation(self):
        d = Dataset.from_columns([150.0], [1], [0])
        p = EuParams(1.0, 0.5, 0.01)  # support of group 0 ends at 100
        assert eu_log_likelihood(d, p) == -math.inf

    def test_censored_at_boundary(self):
        d = Dataset.from_columns([100.0], [0], [0])
        p = EuParams(1.0, 0.5, 0.01)
        assert eu_log_likelihood(d, p) == -math.inf

    def test_general_row(self):
        d = Dataset.from_columns([10.0, 20.0], [1, 0], [1, 0])
        p = EuParams(0.9, 0.02, 0.03)
        expected = (
            math.log(0.9) + 0.9 * math.log(0.02) - 0.1 * math.log(10.0)
            + math.log(1 - (0.03 * 20.0) ** 0.9)
        )
        assert eu_log_likelihood(d, p) == pytest.approx(expected, rel=1e-12)

    def test_true_params_beat_perturbed_on_average(self):
        import proprisk

        sc = proprisk.make_scenario(proprisk.Model.PPR_EU, 0.5, 0.3, 200, seed=8)
        rng = np.random.default_rng(0)
        wins = 0
        for rep in range(20):
            d = proprisk.simulate_dataset(sc, rep)
            ll_true = eu_log_likelihood(d, sc.params)
            pert = EuParams(
                sc.params.alpha * math.exp(rng.normal(0, 0.2)),
                sc.params.theta1 * math.exp(rng.normal(0, 0.2)),
                sc.params.theta0 * math.exp(rng.normal(0, 0.2)),
            )
            if ll_true >= eu_log_likelihood(d, pert):
                wins += 1
        assert wins >= 15


def _sim(model_effect=0.5, rate=0.3, n=300, seed=21, rep=0):
    import proprisk

    sc = proprisk.make_scenario(proprisk.Model.PPR_EU, model_effect, rate, n, seed=seed)
    return proprisk.simulate_dataset(sc, rep)


class TestFitPpr:
    def test_identical_groups_rr_near_one(self):
        times = list(np.linspace(1.0, 50.0, 40))
        status = [1, 1, 0, 1] * 10
        rows = [(t, s, 1) for t, s in zip(times, status)] + [
            (t, s, 0) for t, s in zip(times, status)
        ]
        fit = fit_ppr(validate_dataset(rows))
        assert fit.converged
        assert fit.rr == pytest.approx(1.0, abs=0.02)

    def test_table_parameter_rr_value(self):
        # (0.005/0.009)^0.859, the effect implied by the rounded grid scales
        assert (0.005 / 0.009) ** 0.859 == pytest.approx(0.6036, abs=5e-4)

    def test_rr_identity(self):
        fit = fit_ppr(_sim())
        assert fit.converged
        assert fit.rr == pytest.approx(
            (fit.params.theta1 / fit.params.theta0) ** fit.params.alpha, rel=1e-12
        )
        assert fit.beta == pytest.approx(-math.log(fit.rr), rel=1e-9, abs=1e-12)

    def test_row_order_invariance(self):
        data = _sim(n=150)
        rng = np.random.default_rng(1)
        perm = rng.permutation(len(data))
        shuffled = Dataset.from_columns(data.time[perm], data.status[perm], data.group[perm])
        a, b = fit_ppr(data), fit_ppr(shuffled)
        assert a.params == b.params

    def test_group_relabel_inverts_rr(self):
        data = _sim(n=150)
        swapped = Dataset.from_columns(data.time, data.status, 1 - data.group)
        a, b = fit_ppr(data), fit_ppr(swapped)
        assert b.rr == pytest.approx(1.0 / a.rr, rel=1e-5)

    def test_recovers_truth_at_scale(self):
        # large n, mild censoring: the ML estimate of -log RR is near truth
        import proprisk

        sc = proprisk.make_scenario(proprisk.Model.PPR_EU, 0.5, 0.3, 4000, seed=77)
        fit = fit_ppr(proprisk.simulate_dataset(sc, 0))
        assert fit.converged
        true_beta = -0.859 * math.log(0.005 / 0.009)
        assert fit.beta == pytest.approx(true_beta, abs=0.08)

    def test_no_events_flagged(self):
        data = validate_dataset([(1.0, 0, 1), (2.0, 0, 0)])
        fit = fit_ppr(data)
        assert not fit.converged
        assert "events" in fit.reason

    def test_group_without_events_flagged(self):
        # the supremum is approached as the event-free group's theta goes to 0
        data = validate_dataset([(1.0, 0, 1), (2.0, 0, 1), (1.5, 1, 0), (3.0, 0, 0)])
        fit = fit_ppr(data)
        assert not fit.converged
        assert "events" in fit.reason

    def test_no_maximum_in_alpha_flagged(self):
        # every event at its group's largest time: the likelihood rises with alpha forever
        data = validate_dataset([(2.0, 1, 1), (2.0, 1, 1), (3.0, 1, 0)])
        fit = fit_ppr(data)
        assert not fit.converged
        assert "alpha" in fit.reason
        _assert_no_estimate(fit, "likelihood still increasing as alpha grows")

    def test_failed_fit_reports_no_estimate(self):
        # group 0 has no events, so no parameter, beta or rr exists
        fit = fit_ppr(validate_dataset([(1.0, 1, 1), (2.0, 0, 0), (3.0, 1, 1)]))
        _assert_no_estimate(fit, "a group has no events")

    def test_ci_when_interior(self):
        # 70% censoring keeps the estimate off the support boundary
        data = _sim(model_effect=0.0, rate=0.7, n=400)
        fit = fit_ppr(data)
        assert fit.converged
        assert fit.ci_available
        assert fit.ci_beta.lower <= fit.beta <= fit.ci_beta.upper

    @pytest.mark.parametrize("effect, rate, n", [(0.0, 0.7, 500), (0.5, 0.5, 100)])
    def test_interval_matches_delta_method_oracle(self, effect, rate, n):
        # exact information in (alpha, w1, w0) vs central differences in (alpha, theta1, theta0)
        import proprisk

        sc = proprisk.make_scenario(proprisk.Model.PPR_EU, effect, rate, n, seed=20240801)
        interior = 0
        for rep in range(40):
            data = proprisk.simulate_dataset(sc, rep)
            fit = fit_ppr(data)
            assert fit.converged
            p = fit.params
            bounds = [1.0 / float(data.time[data.group == g].max()) for g in (1, 0)]
            at_bound = p.theta1 == bounds[0] or p.theta0 == bounds[1]
            assert fit.ci_available == (not at_bound)
            if at_bound:
                assert fit.ci_reason == "estimate at support boundary"
                continue
            interior += 1
            assert fit.ci_reason == ""
            ref = eu_delta_half_width_oracle(
                list(data.time), list(data.status), list(data.group), p.alpha, p.theta1, p.theta0
            )
            half = (fit.ci_beta.upper - fit.ci_beta.lower) / 2.0
            assert half == pytest.approx(ref, rel=1e-4)
            assert (fit.ci_beta.upper + fit.ci_beta.lower) / 2.0 == pytest.approx(fit.beta, abs=1e-12)
        assert interior >= 10

    def test_one_loglik_evaluation_per_converged_fit(self, monkeypatch):
        import proprisk

        calls = []
        real = models.eu_log_likelihood
        monkeypatch.setattr(models, "eu_log_likelihood", lambda *a: calls.append(1) or real(*a))
        sc = proprisk.make_scenario(proprisk.Model.PPR_EU, 0.5, 0.5, 100, seed=20240801)
        fits = [fit_ppr(proprisk.simulate_dataset(sc, rep)) for rep in range(10)]
        fits.append(fit_ppr(validate_dataset([(1.0, 0, 1), (2.0, 0, 0)])))
        assert any(f.ci_available for f in fits) and not all(f.converged for f in fits)
        assert len(calls) == sum(f.converged for f in fits)


def _chunk(effect, rate, n, reps, seed=20240801):
    """Replicates 0..reps-1 of an EU scenario as (time, status, group), each (reps, n)."""
    import proprisk

    sc = proprisk.make_scenario(proprisk.Model.PPR_EU, effect, rate, n, seed=seed)
    return proprisk.simulate.simulate_replicates(sc, range(reps))


def _rows(*datasets):
    """Datasets of one size n stacked into (time, status, group), each (R, n)."""
    rows = np.array(datasets, dtype=float)
    return rows[..., 0], rows[..., 1].astype(np.int64), rows[..., 2].astype(np.int64)


# the EU fit of these rows has alpha = 765.5 and log RR = 1297.2: RR overflows
OVERFLOW_ROWS = [
    (6.802643264328159, 1, 0), (0.7743490126275611, 0, 0), (1.2494447910629076, 1, 1),
    (0.3712993410902009, 0, 1), (2.5224244808724343, 0, 0), (6.7760360718094095, 1, 0),
]


def _assert_no_estimate(fit, reason):
    """A fit without a maximum: not converged, its reason, and NaN for every
    estimate (of fit_ppr or cox_two_group)."""
    assert not fit.converged and fit.reason == reason != ""
    if isinstance(fit, models.PprFit):
        estimates = (*astuple(fit.params), fit.beta, fit.rr, fit.loglik, fit.ci_beta.lower, fit.ci_beta.upper)
    else:
        estimates = (fit.log_hr, fit.hr, fit.ci_hr.lower, fit.ci_hr.upper)
    assert all(math.isnan(x) for x in estimates), fit


def _solve_rows(cols):
    """Solve the rows of (time, status, group), each (R, n), as the lanes of
    one batch (``prepare_lanes``, ``solve_lanes``), the way the study does,
    and hold every lane to ``fit_ppr`` on its row alone, bit for bit.

    Returns the single fits and, per row, the repr of its lane's outcome:
    the reason of a row that fails before the solve, else
    (alpha, theta, on_bound, var_beta).
    """
    _, failed, lanes = models.prepare_lanes(*cols)
    fits = [fit_ppr(Dataset.from_columns(*row)) for row in zip(*cols)]
    outcomes = [None] * len(fits)
    for i, reason in failed:
        _assert_no_estimate(fits[i], reason)
        outcomes[i] = repr(reason)
    solved = zip(*(x.tolist() for x in models.solve_lanes(lanes)))
    for i, (alpha, theta, on_bound, var_beta) in zip(lanes.rows.tolist(), solved):
        fit = fits[i]
        outcomes[i] = repr((alpha, theta, on_bound, var_beta))
        if math.isnan(alpha):
            _assert_no_estimate(fit, "likelihood still increasing as alpha grows")
            continue
        assert fit.converged and fit.params == EuParams(alpha, *theta)
        # repr round-trips every float, NaN and the sign of zero included
        assert repr(models.beta_interval(alpha, *theta, var_beta)) == repr(
            (fit.beta, fit.ci_beta.lower, fit.ci_beta.upper)
        )
        assert fit.ci_reason == ("estimate at support boundary" if on_bound else "")
    assert None not in outcomes
    return fits, outcomes


class TestSolveLanes:
    """Lanes of one batch against single fits: the same fit, bit for bit."""

    # one n=6 batch holding every reason a fit has no maximum
    FAILURES = _rows(
        [(1.0, 0, 1), (2.0, 0, 0), (1.5, 0, 1), (3.0, 0, 0), (0.5, 0, 1), (2.5, 0, 0)],  # no events
        [(1.0, 0, 1), (2.0, 0, 1), (1.5, 1, 0), (3.0, 0, 0), (0.5, 0, 1), (2.5, 1, 0)],  # a group without events
        [(2.0, 1, 1), (2.0, 1, 1), (1.0, 0, 1), (3.0, 1, 0), (1.5, 0, 0), (3.0, 1, 0)],  # alpha unbounded
        [(1.0, 1, 1), (2.0, 0, 1), (3.0, 1, 1), (4.0, 1, 1), (5.0, 0, 1), (6.0, 1, 1)],  # an empty group
    )

    @staticmethod
    def _batches():
        # the failure lanes sit between lanes that converge
        small = _chunk(0.5, 0.3, 6, 4)
        tiny = tuple(np.concatenate((a[:2], f, a[2:])) for a, f in zip(small, TestSolveLanes.FAILURES))
        return [tiny, _chunk(0.0, 0.7, 50, 12), _chunk(0.5, 0.3, 500, 4)]

    def test_every_lane_equals_its_single_fit(self):
        fits = []
        for cols in self._batches():
            fits += _solve_rows(cols)[0]
        assert [f.reason for f in fits[2:6]] == [
            "no events", "a group has no events", "likelihood still increasing as alpha grows", "a group is empty",
        ]
        assert all(f.converged for f in fits[:2] + fits[6:8])
        assert any(f.ci_available for f in fits)
        assert any(f.ci_reason == "estimate at support boundary" for f in fits)

    def test_lane_order_does_not_matter(self):
        for cols in self._batches():
            forward = _solve_rows(cols)[1]
            backward = _solve_rows(tuple(c[::-1] for c in cols))[1]
            assert forward == backward[::-1]

    def test_row_order_within_lanes_does_not_matter(self):
        cols = _chunk(0.5, 0.5, 100, 40)
        rng = np.random.default_rng(3)
        perm = np.argsort(rng.random(cols[0].shape), axis=-1)  # an independent shuffle of each row
        shuffled = tuple(np.take_along_axis(c, perm, axis=-1) for c in cols)
        assert _solve_rows(cols)[1] == _solve_rows(shuffled)[1]

    def test_overflowing_rr_is_inf_and_keeps_its_batch(self):
        fits = _solve_rows(_rows(OVERFLOW_ROWS, [(t, s, 1 - g) for t, s, g in OVERFLOW_ROWS]))[0]
        assert fits[0].converged and math.isfinite(fits[0].beta) and fits[0].rr == math.inf
        assert fits[1].converged and fits[1].beta == -fits[0].beta and fits[1].rr == 0.0

    @pytest.mark.parametrize("shape", [(50, 30), (5, 400), (1, 4744)])
    def test_canonical_order_matches_lexsort_oracle(self, shape):
        cols = tie_heavy(shape, seed=shape[1])
        for got, want in zip(models.prepare_lanes(*cols)[0], canonical_order_lexsort(*cols)):
            np.testing.assert_array_equal(got, want)

    def test_empty_batch(self):
        cols = (np.empty((0, 5)), np.empty((0, 5), dtype=np.int64), np.empty((0, 5), dtype=np.int64))
        failed, lanes = models.prepare_lanes(*cols)[1:]
        assert failed == [] and lanes.rows.shape == (0,)
        assert [x.shape for x in models.solve_lanes(lanes)] == [(0,), (0, 2), (0,), (0,)]
        assert _solve_rows(cols) == ([], [])

    @pytest.mark.parametrize("effect, rate, n, n_lanes", [(0.5, 0.3, 500, 40), (0.0, 0.7, 50, 39)])
    def test_each_lane_profiles_each_alpha_at_most_once(self, monkeypatch, effect, rate, n, n_lanes):
        # Brent starts from the values the bracket search already holds, and a
        # lane's w is read at its root from the profile that evaluated it there
        pairs = []
        real = models._profile

        def recording(units, alpha, lanes):
            pairs.extend(zip(lanes.tolist(), alpha.tolist()))
            return real(units, alpha, lanes)

        monkeypatch.setattr(models, "_profile", recording)
        alpha = models.solve_lanes(models.prepare_lanes(*_chunk(effect, rate, n, 40))[2])[0]
        by_lane = {}
        for lane, a in pairs:
            by_lane.setdefault(lane, []).append(a)
        assert sorted(by_lane) == list(range(n_lanes)) == list(range(alpha.shape[0]))
        for lane, alphas in by_lane.items():
            assert len(alphas) == len(set(alphas))
            assert alpha[lane] in alphas


def _one_lane_brentq(f, a, b, **kw):
    """The package's Brent root of the scalar function f on [a, b]: one lane
    started from f(a) and f(b)."""
    ends = np.array([[a], [b], [f(a)], [f(b)]])
    return float(models._brentq(lambda x, lanes: np.array([f(float(x[0]))]), *ends, **kw)[0])


class TestBrentq:
    """The package's Brent root against scipy's brentq: the same float."""

    CASES = [
        (lambda x: x * x - 2.0, 0.0, 2.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: math.exp(x) - 5.0, -3.0, 4.0),
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: math.tanh(20.0 * (x - 0.3)), -1.0, 1.0),
        (lambda x: 1e-8 - x**9, 0.0, 10.0),
        (lambda x: math.log(x) + 3.0, 1e-6, 50.0),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("tol", [{"xtol": 1e-12}, {"xtol": 1e-9, "rtol": 1e-12}, {"xtol": 1e-3}])
    def test_matches_scipy_closed_form(self, case, tol):
        from scipy import optimize

        f, a, b = self.CASES[case]
        assert _one_lane_brentq(f, a, b, **tol) == optimize.brentq(f, a, b, **tol)
        assert _one_lane_brentq(f, b, a, **tol) == optimize.brentq(f, b, a, **tol)

    @pytest.mark.parametrize("effect, rate, n", [(0.5, 0.3, 500), (0.0, 0.7, 50)])
    def test_matches_scipy_on_fit_ppr_profile(self, monkeypatch, effect, rate, n):
        import proprisk
        from scipy import optimize

        calls = []
        real = models._brentq

        def recording(f, a, b, fa, fb, **kw):
            root = real(f, a, b, fa, fb, **kw)
            calls.append((f, a, b, fa, fb, kw, root))
            return root

        monkeypatch.setattr(models, "_brentq", recording)
        sc = proprisk.make_scenario(proprisk.Model.PPR_EU, effect, rate, n, seed=20240801)
        for rep in range(20):
            fit_ppr(proprisk.simulate_dataset(sc, rep))
        models.solve_lanes(models.prepare_lanes(*proprisk.simulate.simulate_replicates(sc, range(20, 40)))[2])
        lanes = [
            (f, a[i], b[i], fa[i], fb[i], kw, root[i], i)
            for f, a, b, fa, fb, kw, root in calls
            for i in range(len(a))
        ]
        assert len(calls) >= 16 and len(lanes) >= 30
        for f, a, b, fa, fb, kw, root, i in lanes:
            # one lane's scalar function: the lane evaluated alone
            lane = lambda x: float(f(np.array([x]), np.array([i]))[0])
            assert fa == lane(a) and fb == lane(b)
            assert root == optimize.brentq(lane, a, b, **kw)

    def test_nan_raises(self):
        # NaN at the bracket's end, and at the first interpolated point 0.5
        with pytest.raises(ValueError, match="NaN"):
            _one_lane_brentq(lambda x: math.nan if x > 0.9 else x - 0.7, 0.0, 1.0, xtol=1e-12)
        with pytest.raises(ValueError, match="NaN"):
            _one_lane_brentq(lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, xtol=1e-12)

    def test_bracket_without_sign_change_rejected(self):
        with pytest.raises(ValueError, match="different signs"):
            _one_lane_brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)

    def test_exact_root_at_an_end(self):
        assert _one_lane_brentq(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-12) == 1.0
        assert _one_lane_brentq(lambda x: x - 3.0, 1.0, 3.0, xtol=1e-12) == 3.0

    def test_lane_with_a_root_at_an_end_is_never_evaluated(self):
        evaluated = []

        def f(x, lanes):
            evaluated.extend(lanes.tolist())
            return np.where(lanes == 0, x - 1.0, x * x - 2.0)

        # lane 0: x - 1 on [1, 3], 0 at its lower end; lane 1: x^2 - 2 on [0, 2]
        root = models._brentq(f, [1.0, 0.0], [3.0, 2.0], [0.0, -2.0], [2.0, 2.0], xtol=1e-12)
        assert root[0] == 1.0
        assert root[1] == _one_lane_brentq(lambda x: x * x - 2.0, 0.0, 2.0, xtol=1e-12)
        assert evaluated and set(evaluated) == {1}

    def test_no_lanes(self):
        def f(x, lanes):
            raise AssertionError("f evaluated without lanes")

        root = models._brentq(f, *np.empty((4, 0)), xtol=1e-12)
        assert root.shape == (0,) and root.dtype == float

    def test_maxiter_raises(self):
        from scipy import optimize

        f = lambda x: math.cos(x) - x
        with pytest.raises(RuntimeError):
            optimize.brentq(f, 0.0, 1.0, xtol=1e-12, maxiter=2)
        with pytest.raises(RuntimeError):
            _one_lane_brentq(f, 0.0, 1.0, xtol=1e-12, maxiter=2)


class TestCoxTwoGroup:
    def test_four_row_grid_oracle(self):
        rows = [(1.0, 1, 1), (2.0, 0, 1), (1.5, 1, 0), (3.0, 0, 0)]
        data = validate_dataset(rows)
        fit = cox_two_group(data)
        assert fit.converged
        oracle = cox_grid_oracle([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])
        assert fit.log_hr == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_simulated_grid_oracle(self, seed):
        data = _sim(n=60, seed=seed)
        fit = cox_two_group(data)
        if not fit.converged:
            pytest.skip("monotone likelihood draw")
        rows = (list(data.time), list(data.status), list(data.group))
        assert fit.log_hr == pytest.approx(cox_grid_oracle(*rows), abs=1e-6)
        assert fit.hr == pytest.approx(math.exp(fit.log_hr))
        assert fit.ci_hr.lower < fit.hr < fit.ci_hr.upper

    def test_identical_groups_hr_one(self):
        rows = [(t, 1, g) for g in (0, 1) for t in (1.0, 2.0, 3.0, 5.0)]
        fit = cox_two_group(validate_dataset(rows))
        assert fit.converged
        assert fit.hr == pytest.approx(1.0, abs=1e-9)

    def test_monotone_likelihood_flagged(self):
        # all group-1 events strictly before every group-0 event
        rows = [(1.0, 1, 1), (1.5, 1, 1), (5.0, 1, 0), (6.0, 1, 0)]
        fit = cox_two_group(validate_dataset(rows))
        assert not fit.converged

    def test_monotone_likelihood_reports_no_estimate(self):
        # Newton's iterate runs past |log HR| = 30 towards infinity: it is not an estimate
        fit = cox_two_group(validate_dataset([(1.0, 1, 1), (1.5, 1, 1), (5.0, 1, 0), (6.0, 1, 0)]))
        _assert_no_estimate(fit, "monotone likelihood")

    # Newton overshoots these maxima by far: to -170.2 (reported as a monotone
    # likelihood), and to 116,776 (where exp(b) overflowed)
    FIRST_STEP_OVERSHOOTS = [
        (0.8, 1, 1), (1.0, 0, 1), (1.0, 1, 0), (3.7, 0, 0), (4.1, 1, 0), (4.8, 0, 0), (5.2, 0, 0), (5.5, 1, 0),
        (6.5, 0, 0), (6.6, 0, 0), (7.7, 0, 0), (7.7, 1, 0), (7.8, 1, 0), (8.1, 0, 0), (9.2, 0, 0), (9.9, 1, 0),
    ]

    @pytest.mark.parametrize("extra, root", [([], 2.29248), ([(2.0, 0, 0), (2.5, 1, 0), (3.4, 0, 0)], 2.48664)])
    def test_overshooting_newton_step_is_halved(self, extra, root):
        rows = self.FIRST_STEP_OVERSHOOTS + extra
        fit = cox_two_group(validate_dataset(rows))
        assert fit.converged and fit.reason == ""
        exact = cox_score_root_oracle(*zip(*rows))
        assert exact == pytest.approx(root, abs=1e-5)
        assert abs(fit.log_hr - exact) <= 1e-8
        assert fit.hr == pytest.approx(math.exp(fit.log_hr), rel=1e-15)

    def test_no_events_in_one_group(self):
        rows = [(1.0, 1, 1), (2.0, 0, 0), (3.0, 0, 0)]
        fit = cox_two_group(validate_dataset(rows))
        assert not fit.converged

    def test_breslow_ties(self):
        rows = [(1.0, 1, 1), (1.0, 1, 0), (2.0, 1, 1), (2.0, 0, 0), (3.0, 1, 0)]
        data = validate_dataset(rows)
        fit = cox_two_group(data)
        args = ([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])
        assert fit.log_hr == pytest.approx(cox_grid_oracle(*args), abs=1e-6)
        # the partial likelihood at the fit is no worse than on a fine grid
        best_grid = max(
            cox_partial_loglik(*args, b) for b in np.linspace(-4, 4, 401)
        )
        assert cox_partial_loglik(*args, fit.log_hr) >= best_grid - 1e-9


# ROADMAP aim 3: on any valid input a fit returns or raises EstimationError, never a traceback
_TIED_TIME = st.integers(1, 4).map(float)
_WIDE_TIME = st.floats(-8.0, 8.0).map(lambda x: 10.0**x)  # 1e-8 to 1e8, log-uniform


@st.composite
def _same_size_datasets(draw):
    """One to four datasets of one size n <= 12, each with both groups;
    all of them with tie-heavy integer times or all with times 1e-8 to 1e8."""
    n = draw(st.integers(2, 12))
    times = draw(st.sampled_from([_TIED_TIME, _WIDE_TIME]))
    bits = st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2)
    datasets = []
    for _ in range(draw(st.integers(1, 4))):
        t = draw(st.lists(times, min_size=n, max_size=n))
        s = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        g = draw(st.permutations([0, 1] + draw(bits)))
        datasets.append(list(zip(t, s, g)))
    return datasets


@given(_same_size_datasets())
@settings(max_examples=150, deadline=None)
@example([OVERFLOW_ROWS, [(t, s, 1 - g) for t, s, g in OVERFLOW_ROWS]])
@example([[(0.7724848797851422, 1, 1), (0.7761237321051168, 1, 1), (0.5986276180771464, 0, 1), (4.011751250916558, 1, 0)]])
@example([TestCoxTwoGroup.FIRST_STEP_OVERSHOOTS])
@example([TestCoxTwoGroup.FIRST_STEP_OVERSHOOTS + [(2.0, 0, 0), (2.5, 1, 0), (3.4, 0, 0)]])
# exp(alpha*r - w) overflows in the EU information; 1/expm1 is then its limit 0.0
@example([[(1.0, 0, 0), (1e-05, 0, 0), (1.0, 0, 1), (1.0, 0, 0), (1.0, 1, 0), (10.0 ** 0.015625, 0, 0), (1.0, 1, 1)]])
def test_fits_return_or_raise_estimation_error(datasets):
    for rows in datasets:
        data = validate_dataset(rows)
        try:
            nppr_fit(data)
        except EstimationError:
            pass
        # a fit without a maximum says why and reports no estimate; a fit with one gives no reason
        for fit in (cox_two_group(data), fit_ppr(data)):
            if fit.converged:
                assert fit.reason == ""
            else:
                _assert_no_estimate(fit, fit.reason)
    # fit_ppr on each dataset, and one lane per dataset, each lane the dataset's own fit
    _solve_rows(_rows(*datasets))
