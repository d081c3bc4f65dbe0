import json
import math

import numpy as np
import pytest
from scipy import integrate, special, stats

import proprisk as pr
from proprisk.models import EuParams, WeibullPhParams, eu_quantile, weibull_ph_quantile
from proprisk.simulate import (
    EFFECTS,
    Model,
    CENSOR_RATES,
    SAMPLE_SIZES,
    _gammainc,
    calibrate_censoring,
    censoring_probability,
    default_grid,
    load_grid,
    reseed,
    scenario_from_dict,
    simulate_replicates,
    standard_params,
)

from oracles import eu_cdf, scenario_to_dict, simulate_oracle, weibull_ph_cdf


def _quad_censoring_probability(model, p, c):
    """(1/c) * integral_0^c S_mix by adaptive quadrature, breaking at the EU
    support ends, at a tolerance far below the closed form's gate."""
    cdf = eu_cdf if model is Model.PPR_EU else weibull_ph_cdf
    points = None
    if model is Model.PPR_EU:
        points = [e for e in (1.0 / p.theta1, 1.0 / p.theta0) if 0.0 < e < c] or None
    value, _ = integrate.quad(
        lambda u: 1.0 - 0.5 * (cdf(p, 1, u) + cdf(p, 0, u)),
        0.0, c, points=points, limit=200, epsabs=0.0, epsrel=1e-13,
    )
    return value / c


# c_max of each (model, effect, rate) as the grid shipped it when it was a
# precomputed JSON file, calibrated by numerical quadrature and brentq.
PINNED_CMAX = {
    ("ppr_eu", 0.0, 0.3): 171.1394019087708,
    ("ppr_eu", 0.0, 0.5): 102.04581580084391,
    ("ppr_eu", 0.0, 0.7): 56.302960673815214,
    ("ppr_eu", 0.5, 0.3): 239.5951626720791,
    ("ppr_eu", 0.5, 0.5): 134.34028058319444,
    ("ppr_eu", 0.5, 0.7): 72.81562857050633,
    ("ppr_eu", 0.25, 0.3): 195.5878878955802,
    ("ppr_eu", 0.25, 0.5): 114.99631836566198,
    ("ppr_eu", 0.25, 0.7): 63.41090006998798,
    ("ppr_eu", -0.25, 0.3): 149.74697667005358,
    ("ppr_eu", -0.25, 0.5): 87.70883809395067,
    ("ppr_eu", -0.25, 0.7): 48.32950023845354,
    ("ppr_eu", -0.5, 0.3): 133.70265774111922,
    ("ppr_eu", -0.5, 0.5): 75.13388762892174,
    ("ppr_eu", -0.5, 0.7): 40.76709291194723,
    ("weibull_ph", 0.0, 0.3): 287.75808520585394,
    ("weibull_ph", 0.0, 0.5): 137.5679818564321,
    ("weibull_ph", 0.0, 0.7): 62.056323047858314,
    ("weibull_ph", 0.5, 0.3): 374.52580842934157,
    ("weibull_ph", 0.5, 0.5): 176.06088653206197,
    ("weibull_ph", 0.5, 0.7): 78.46042945324206,
    ("weibull_ph", 0.25, 0.3): 327.17059857900193,
    ("weibull_ph", 0.25, 0.5): 155.7559806977376,
    ("weibull_ph", 0.25, 0.7): 70.04793464087595,
    ("weibull_ph", -0.25, 0.3): 254.80109398709135,
    ("weibull_ph", -0.25, 0.5): 121.30304784603405,
    ("weibull_ph", -0.25, 0.7): 54.55345846919584,
    ("weibull_ph", -0.5, 0.3): 227.16137600541177,
    ("weibull_ph", -0.5, 0.5): 106.78626542340594,
    ("weibull_ph", -0.5, 0.7): 47.58861132280317,
}


class TestCalibration:
    def test_uniform_closed_form(self):
        # iid U(0,100): P(C < T) = 1/2, so calibrate(0.5) must return 100
        p = EuParams(1.0, 0.01, 0.01)
        assert censoring_probability(Model.PPR_EU, p, 100.0) == pytest.approx(0.5, abs=1e-10)
        assert calibrate_censoring(Model.PPR_EU, p, 0.5) == pytest.approx(100.0, abs=1e-4)

    def test_monotone_in_cmax(self):
        p = standard_params(Model.PPR_EU, 0.5)
        probs = [censoring_probability(Model.PPR_EU, p, c) for c in (20, 60, 150, 400)]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_achieves_target(self):
        for model in (Model.PPR_EU, Model.WEIBULL_PH):
            p = standard_params(model, 0.25)
            c = calibrate_censoring(model, p, 0.3)
            assert censoring_probability(model, p, c) == pytest.approx(0.3, abs=1e-4)

    def test_monte_carlo_oracle(self):
        # 1e6 draws from the null-scenario mixture reproduce the calibrated rate
        p = standard_params(Model.PPR_EU, 0.0)
        c = calibrate_censoring(Model.PPR_EU, p, 0.30)
        rng = np.random.default_rng(314159)
        u = rng.random((2, 1_000_000))
        grp = (rng.random(1_000_000) > 0.5).astype(int)
        t = np.where(grp == 1, eu_quantile(p, 1, u[0]), eu_quantile(p, 0, u[0]))
        censored = (c * u[1]) < t
        assert censored.mean() == pytest.approx(0.30, abs=0.005 * 0.30 + 3e-3)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            calibrate_censoring(Model.PPR_EU, standard_params(Model.PPR_EU, 0.0), 1.5)

    def test_unreachable_target(self):
        # support end 1/theta = 1e13: every c_max up to 1e12 censors about 95%
        with pytest.raises(ValueError, match="censoring target unreachable"):
            calibrate_censoring(Model.PPR_EU, EuParams(1.0, 1e-13, 1e-13), 0.3)

    def test_target_above_the_lower_bracket_end(self):
        # even c_max = 1e-8 censors less than this target
        with pytest.raises(ValueError, match="censoring target unreachable"):
            calibrate_censoring(Model.PPR_EU, standard_params(Model.PPR_EU, 0.0), 0.999999999999)

    @pytest.mark.parametrize("params", [
        EuParams(-1.0, 0.005, 0.009),
        EuParams(0.859, 0.0, 0.009),
        EuParams(0.859, 0.005, math.inf),
        WeibullPhParams(0.916, 0.0, 88.296),
        WeibullPhParams(-0.916, 145.575, 88.296),
        WeibullPhParams(0.916, 145.575, math.nan),
    ])
    def test_non_positive_parameter_rejected(self, params):
        model = Model.PPR_EU if isinstance(params, EuParams) else Model.WEIBULL_PH
        with pytest.raises(ValueError, match="must be positive and finite"):
            calibrate_censoring(model, params, 0.3)

    def test_closed_form_matches_quadrature(self):
        # c from 0.1x to 20x each grid c_max: both sides of every EU support
        # end, and both branches (series, continued fraction) of P(1/k, x)
        cells = {(s.model, s.effect_beta, s.censor_rate): (s.params, s.censor_cmax) for s in default_grid()}
        assert len(cells) == 30
        sides, branches = set(), set()
        for (model, _, _), (p, c_max) in cells.items():
            for c in c_max * np.geomspace(0.1, 20.0, 15):
                got = censoring_probability(model, p, c)
                assert got == pytest.approx(_quad_censoring_probability(model, p, c), rel=0, abs=1e-13)
                if model is Model.PPR_EU:
                    sides.update((g, c > 1.0 / p.theta(g)) for g in (0, 1))
                else:
                    branches.update((c / p.scale(g)) ** p.k < 1.0 / p.k + 1.0 for g in (0, 1))
        assert sides == {(g, beyond) for g in (0, 1) for beyond in (False, True)}
        assert branches == {False, True}

    def test_gammainc_matches_scipy(self):
        for a in (0.2, 1.0 / 0.916, 5.0, 30.0):
            for x in np.geomspace(1e-6, 1e3, 40):
                assert _gammainc(a, x) == pytest.approx(special.gammainc(a, x), rel=1e-13, abs=1e-15)
        assert _gammainc(2.0, 0.0) == 0.0
        assert _gammainc(2.0, math.inf) == 1.0


class TestSimulateDataset:
    def test_deterministic(self):
        sc = pr.make_scenario(Model.PPR_EU, 0.5, 0.3, 50, seed=9)
        a = pr.simulate_dataset(sc, 3)
        b = pr.simulate_dataset(sc, 3)
        np.testing.assert_array_equal(a.time, b.time)
        np.testing.assert_array_equal(a.status, b.status)
        np.testing.assert_array_equal(a.group, b.group)
        assert len(a) == 50

    def test_replicates_differ(self):
        sc = pr.make_scenario(Model.PPR_EU, 0.5, 0.3, 50, seed=9)
        a, b = pr.simulate_dataset(sc, 0), pr.simulate_dataset(sc, 1)
        assert not np.array_equal(a.time, b.time)

    def test_all_times_positive(self):
        sc = pr.make_scenario(Model.WEIBULL_PH, -0.5, 0.7, 200, seed=2)
        d = pr.simulate_dataset(sc, 0)
        assert np.all(d.time > 0)
        assert set(np.unique(d.status)) <= {0, 1}

    def test_censoring_fraction_matches_target(self):
        for model, rate in [(Model.PPR_EU, 0.3), (Model.PPR_EU, 0.7), (Model.WEIBULL_PH, 0.5)]:
            sc = pr.make_scenario(model, 0.0, rate, 500, seed=4)
            frac = np.mean([1 - pr.simulate_dataset(sc, r).status.mean() for r in range(60)])
            # binomial noise over 30k draws
            assert frac == pytest.approx(rate, abs=0.01)

    def test_group_proportion_half(self):
        sc = pr.make_scenario(Model.PPR_EU, 0.0, 0.3, 500, seed=11)
        prop = np.mean([pr.simulate_dataset(sc, r).group.mean() for r in range(60)])
        se = math.sqrt(0.25 / (500 * 60))
        assert abs(prop - 0.5) < 3 * se + 1e-9

    def test_inverse_transform_ks(self):
        # one million uncensored draws against the model CDF
        for model in (Model.PPR_EU, Model.WEIBULL_PH):
            p = standard_params(model, 0.5)
            rng = np.random.default_rng(271828)
            u = rng.random(1_000_000)
            if model is Model.PPR_EU:
                draws = eu_quantile(p, 1, u)
                cdf = lambda x: eu_cdf(p, 1, x)
            else:
                draws = weibull_ph_quantile(p, 1, u)
                cdf = lambda x: weibull_ph_cdf(p, 1, x)
            ks = stats.kstest(draws, cdf).statistic
            assert ks < 0.002

    def test_weibull_group1_gof(self):
        # group-1 event times under effect 0.5 follow the lambda1=145.575 model
        sc = pr.make_scenario(Model.WEIBULL_PH, 0.5, 0.3, 500, seed=6)
        p = sc.params
        draws = []
        for rep in range(100):
            d = pr.simulate_dataset(sc, rep)
            rng = np.random.default_rng(
                np.random.SeedSequence(sc.seed, spawn_key=(rep, 0))
            )
            u = rng.random((3, sc.n_participants))
            grp = (u[0] > 0.5).astype(int)
            draws.append(weibull_ph_quantile(p, 1, u[1][grp == 1]))
        draws = np.concatenate(draws)
        pv = stats.kstest(draws, lambda x: weibull_ph_cdf(p, 1, x)).pvalue
        assert pv > 0.01

    @pytest.mark.parametrize("model", [Model.PPR_EU, Model.WEIBULL_PH])
    def test_status_is_event_indicator(self, model):
        sc = pr.make_scenario(model, 0.5, 0.5, 300, seed=13)
        d = pr.simulate_dataset(sc, 0)
        rng = np.random.default_rng(np.random.SeedSequence(sc.seed, spawn_key=(0, 0)))
        u = rng.random((3, 300))
        grp = (u[0] > 0.5).astype(int)
        quantile = eu_quantile if model is Model.PPR_EU else weibull_ph_quantile
        t = np.where(grp == 1, quantile(sc.params, 1, u[1]), quantile(sc.params, 0, u[1]))
        c = sc.censor_cmax * u[2]
        np.testing.assert_array_equal(d.status, (t <= c).astype(int))
        np.testing.assert_array_equal(d.time, np.minimum(t, c))


class TestSimulateReplicates:
    """A chunk of replicates is simulated as one array; each row is the
    replicate drawn and transformed on its own, byte for byte."""

    @pytest.mark.parametrize("reps", [[0, 1, 2], [5, 2, 9]])
    def test_rows_equal_per_replicate_oracle(self, reps):
        for sc in reseed(default_grid(), 20240101):
            cols = simulate_replicates(sc, reps)
            for i, rep in enumerate(reps):
                for got, want in zip(cols, simulate_oracle(sc, rep)):
                    assert got.dtype == want.dtype
                    assert got[i].tobytes() == want.tobytes()


class TestMakeScenario:
    """make_scenario checks every field, for the API and grid files alike."""

    def test_effect_without_bundled_parameters(self):
        with pytest.raises(ValueError, match=r"no bundled parameters for effect_beta 0\.3; .*EFFECTS"):
            pr.make_scenario(Model.PPR_EU, 0.3, 0.5, 100)
        sc = pr.make_scenario(Model.PPR_EU, 0.3, 0.5, 100, params=EuParams(0.859, 0.006, 0.009))
        assert sc.effect_beta == 0.3

    @pytest.mark.parametrize("n, message", [
        (0, "at least 1"), (-3, "at least 1"),
        (2**32, r"at least 1 and below 2\*\*32"), (1e30, r"at least 1 and below 2\*\*32"),
        (2.7, "a whole number"), (math.inf, "a whole number"), (math.nan, "a whole number"),
    ])
    def test_rejects_bad_n_participants(self, n, message):
        with pytest.raises(ValueError, match=f"n_participants must be {message}"):
            pr.make_scenario(Model.PPR_EU, 0.5, 0.3, n)
        obj = dict(scenario_to_dict(pr.make_scenario(Model.PPR_EU, 0.5, 0.3, 60)), n_participants=n)
        with pytest.raises(ValueError, match=f"n_participants must be {message}"):
            scenario_from_dict(obj)

    def test_largest_n_participants_and_whole_floats_accepted(self):
        # only the Scenario is built: nothing is simulated at this size
        assert pr.make_scenario(Model.PPR_EU, 0.5, 0.3, 2**32 - 1).n_participants == 2**32 - 1
        sc = pr.make_scenario(Model.PPR_EU, 0.5, 0.3, 100.0)
        assert type(sc.n_participants) is int and sc == pr.make_scenario(Model.PPR_EU, 0.5, 0.3, 100)

    @pytest.mark.parametrize("change, message", [
        ({"censor_rate": 0.0}, "censor_rate must be in"),
        ({"censor_rate": 1.5}, "censor_rate must be in"),
        ({"effect_beta": math.nan, "params": EuParams(0.859, 0.005, 0.009)}, "effect_beta must be finite"),
        ({"effect_beta": math.inf, "params": EuParams(0.859, 0.005, 0.009)}, "effect_beta must be finite"),
        ({"censor_cmax": 0.0}, "censor_cmax must be positive"),
        ({"censor_cmax": math.inf}, "censor_cmax must be positive"),
        ({"censor_cmax": math.nan}, "censor_cmax must be positive"),
        ({"params": EuParams(0.859, -0.005, 0.009), "censor_cmax": 50.0}, "model parameter theta1 must be positive"),
    ])
    def test_rejects_bad_fields(self, change, message):
        kwargs = dict(model=Model.PPR_EU, effect_beta=0.5, censor_rate=0.3, n_participants=100)
        kwargs.update(change)
        with pytest.raises(ValueError, match=message):
            pr.make_scenario(**kwargs)

    def test_load_grid_rejects_n_beyond_float_range(self, tmp_path):
        obj = json.dumps(scenario_to_dict(pr.make_scenario(Model.PPR_EU, 0.5, 0.3, 60)))
        path = tmp_path / "bad.json"
        path.write_text(obj.replace('"n_participants": 60', '"n_participants": 1' + "0" * 400))
        with pytest.raises(pr.ValidationError, match=r"bad\.json: "):
            load_grid(path)


class TestGridSerialization:
    def test_scenario_round_trip(self):
        for sc in [pr.make_scenario(Model.WEIBULL_PH, -0.25, 0.5, 100, seed=5), *default_grid()]:
            back = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(sc))))
            assert back == sc

    def test_load_grid_round_trip_and_bad_file(self, tmp_path):
        sc = pr.make_scenario(Model.PPR_EU, 0.5, 0.3, 60, seed=2)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps([scenario_to_dict(sc)]))
        assert load_grid(path) == [sc]
        obj = dict(scenario_to_dict(sc), n_participants=0)
        path.write_text(json.dumps(obj))
        with pytest.raises(pr.ValidationError, match=r"grid\.json: n_participants must be at least 1"):
            load_grid(path)

    @pytest.mark.parametrize("change, message", [
        ({"params": {"alpha": -1.0}}, "model parameter alpha must be positive"),
        ({"params": {"theta0": 0.0}}, "model parameter theta0 must be positive"),
        ({"censor_cmax": -5.0}, "censor_cmax must be positive"),
        ({"censor_cmax": 0.0}, "censor_cmax must be positive"),
        ({"n_participants": 2.7}, "n_participants must be a whole number"),
    ])
    def test_load_grid_rejects_bad_eu_scenario(self, tmp_path, change, message):
        obj = scenario_to_dict(pr.make_scenario(Model.PPR_EU, 0.5, 0.3, 60, seed=2))
        for key, value in change.items():
            obj[key] = dict(obj[key], **value) if isinstance(value, dict) else value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([obj]))
        with pytest.raises(pr.ValidationError, match=rf"bad\.json: {message}"):
            load_grid(path)

    def test_load_grid_rejects_zero_weibull_scale(self, tmp_path):
        obj = scenario_to_dict(pr.make_scenario(Model.WEIBULL_PH, 0.5, 0.3, 60, seed=2))
        obj["params"]["lambda1"] = 0.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(pr.ValidationError, match=r"bad\.json: model parameter lambda1 must be positive"):
            load_grid(path)

    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid) == 90
        assert {s.model for s in grid} == {Model.PPR_EU, Model.WEIBULL_PH}
        assert {s.effect_beta for s in grid} == set(EFFECTS)
        assert {s.n_participants for s in grid} == {50, 100, 500}

    def test_default_grid_matches_pinned_calibration(self):
        grid = default_grid()
        keys = [(s.model.value, s.effect_beta, s.censor_rate, s.n_participants) for s in grid]
        assert keys == [
            (m, e, c, n)
            for m in ("ppr_eu", "weibull_ph")
            for e in EFFECTS
            for c in CENSOR_RATES
            for n in SAMPLE_SIZES
        ]
        for s in grid:
            assert s.params == standard_params(s.model, s.effect_beta)
            assert s.seed == 0
            pinned = PINNED_CMAX[(s.model.value, s.effect_beta, s.censor_rate)]
            assert s.censor_cmax == pytest.approx(pinned, rel=1e-11)

    def test_default_grid_table_parameters(self):
        grid = default_grid()
        eu = {s.effect_beta: s.params for s in grid if s.model is Model.PPR_EU}
        assert eu[0.5] == EuParams(0.859, 0.005, 0.009)
        assert eu[-0.5] == EuParams(0.859, 0.016, 0.009)
        wb = {s.effect_beta: s.params for s in grid if s.model is Model.WEIBULL_PH}
        assert wb[0.25] == WeibullPhParams(0.916, 113.374, 88.296)

    def test_reseed_distinct_and_deterministic(self):
        grid = default_grid()[:5]
        a = reseed(grid, 42)
        b = reseed(grid, 42)
        assert [s.seed for s in a] == [s.seed for s in b]
        assert len({s.seed for s in a}) == 5
