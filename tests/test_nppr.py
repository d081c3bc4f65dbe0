import math

import numpy as np
import pytest

from proprisk import (
    Dataset,
    EstimationError,
    PointwiseSet,
    build_event_time_set,
    km_from_arrays,
    nppr_fit,
    nppr_point_estimate,
    pointwise_log_rr,
    risk_difference_curve,
    validate_dataset,
)

from oracles import nppr_oracle


class TestEventTimeSet:
    def test_overlap_window(self):
        ts = build_event_time_set([2, 5], [3, 7])
        assert (ts.t_min, ts.t_max) == (3.0, 5.0)
        np.testing.assert_allclose(ts.times, [3.0, 5.0])

    def test_full_tie_retention(self):
        ts = build_event_time_set([1, 2, 3], [1, 2, 3])
        np.testing.assert_allclose(ts.times, [1, 1, 2, 2, 3, 3])

    def test_disjoint_windows_empty(self):
        ts = build_event_time_set([1, 2], [5, 6])
        assert ts.is_empty
        assert ts.t_min == 5.0 and ts.t_max == 2.0

    def test_no_events_empty(self):
        assert build_event_time_set([], [1, 2]).is_empty
        assert build_event_time_set([1, 2], []).is_empty


def _curve(times, status):
    return km_from_arrays(np.asarray(times, dtype=float), np.asarray(status))


class TestPointwise:
    def test_forced_ratio(self):
        # construct curves with F1(t)=0.2, F0(t)=0.4 at t=1: one event among
        # 5 subjects vs 2 events among 5
        c1 = _curve([1, 2, 2, 2, 2], [1, 0, 0, 0, 0])
        c0 = _curve([1, 1, 2, 2, 2], [1, 1, 0, 0, 0])
        ts = build_event_time_set([1.0], [1.0, 1.0])
        pts = pointwise_log_rr(c1, c0, ts)
        np.testing.assert_allclose(pts.beta_t, math.log(2.0))

    def test_delta_weight_formula(self):
        # with F1=F0=0.3 and Var(S)=0.0009 each, omega = 2*(0.0009/0.09) = 0.02
        class FakeCurve:
            event_times = np.array([1.0])
            survival = np.array([0.7])
            greenwood_var = np.array([0.0009])
            cumhaz_var = np.array([0.0009 / 0.49])

        ts = build_event_time_set([1.0], [1.0])
        pts = pointwise_log_rr(FakeCurve(), FakeCurve(), ts, weighting="delta")
        np.testing.assert_allclose(pts.weight_var, [0.02, 0.02])
        np.testing.assert_allclose(pts.beta_t, [0.0, 0.0])

    def test_cumhaz_weight_formula(self):
        class FakeCurve:
            event_times = np.array([1.0])
            survival = np.array([0.7])
            greenwood_var = np.array([0.0009])
            cumhaz_var = np.array([0.0009 / 0.49])

        ts = build_event_time_set([1.0], [1.0])
        pts = pointwise_log_rr(FakeCurve(), FakeCurve(), ts, weighting="cumhaz")
        np.testing.assert_allclose(pts.weight_var, [2 * 0.0009 / 0.49 / 0.09] * 2)

    def test_degenerate_variance_dropped(self):
        # group 0 survival hits zero at t=2: undefined variance, time dropped
        c1 = _curve([1, 2, 3], [1, 1, 0])
        c0 = _curve([1, 2], [1, 1])
        ts = build_event_time_set([1.0, 2.0], [1.0, 2.0])
        pts = pointwise_log_rr(c1, c0, ts)
        assert pts.n_dropped == 2  # t=2 from both groups' multisets
        np.testing.assert_allclose(pts.times, [1.0, 1.0])

    def test_all_dropped_raises(self):
        c1 = _curve([1, 1], [1, 1])
        c0 = _curve([1, 1], [1, 1])
        ts = build_event_time_set([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(EstimationError, match="dropped"):
            pointwise_log_rr(c1, c0, ts)

    def test_empty_set_raises(self):
        c = _curve([1], [1])
        with pytest.raises(EstimationError, match="empty"):
            pointwise_log_rr(c, c, build_event_time_set([], []))

    def test_rows_view(self):
        c1 = _curve([1, 2], [1, 1])
        c0 = _curve([1, 3], [1, 1])
        ts = build_event_time_set([1.0, 2.0], [1.0, 3.0])
        pts = pointwise_log_rr(c1, c0, ts)
        assert pts.times[0] == 1.0
        np.testing.assert_array_equal(pts.weight_var, pts.var1 + pts.var0)


class TestPointEstimate:
    def test_hand_weighted_mean(self):
        pts = PointwiseSet(
            times=np.array([1.0, 2.0]),
            beta_t=np.array([0.5, 1.0]),
            var1=np.zeros(2),
            var0=np.zeros(2),
            weight_var=np.array([0.25, 0.5]),
            n_dropped=0,
        )
        est = nppr_point_estimate(pts)
        assert est.beta == pytest.approx(2.0 / 3.0)
        assert est.total_weight == pytest.approx(6.0)
        assert est.rr == math.exp(-est.beta)
        assert est.n_times_used == 2

    def test_null_effect(self):
        pts = PointwiseSet(
            times=np.array([1.0, 2.0]),
            beta_t=np.zeros(2),
            var1=np.zeros(2),
            var0=np.zeros(2),
            weight_var=np.array([0.1, 0.4]),
            n_dropped=0,
        )
        est = nppr_point_estimate(pts)
        assert est.beta == 0.0
        assert est.rr == 1.0


class TestRiskDifference:
    def test_reference_nnt(self):
        # with beta=0.320, F0 chosen so that NNT(10) = 28.120
        beta = 0.320
        f0_at_10 = 1.0 / 28.120 / (1.0 - math.exp(-beta))
        c0 = _curve([10.0] + [20.0] * 99, [1] + [0] * 99)
        # single event among 100 gives F0 = 0.01; rescale via a fake curve
        class FakeCurve:
            event_times = np.array([10.0])
            survival = np.array([1.0 - f0_at_10])
            greenwood_var = np.array([1e-6])
            cumhaz_var = np.array([1e-6])

        est = nppr_point_estimate(
            PointwiseSet(np.array([10.0]), np.array([beta]), np.zeros(1), np.zeros(1), np.ones(1), 0)
        )
        rd = risk_difference_curve(est, FakeCurve(), [10.0])
        assert rd.nnt[0] == pytest.approx(28.120, rel=1e-12)
        assert rd.rd[0] == pytest.approx(1.0 / 28.120, rel=1e-12)

    def test_direct_formula(self):
        class FakeCurve:
            event_times = np.array([5.0])
            survival = np.array([0.9])
            greenwood_var = np.array([1e-6])
            cumhaz_var = np.array([1e-6])

        est = nppr_point_estimate(
            PointwiseSet(np.array([5.0]), np.array([0.320]), np.zeros(1), np.zeros(1), np.ones(1), 0)
        )
        rd = risk_difference_curve(est, FakeCurve(), [5.0])
        assert rd.rd[0] == pytest.approx((1 - math.exp(-0.32)) * 0.1, rel=1e-12)
        assert rd.nnt[0] == pytest.approx(36.5167, abs=5e-4)

    def test_null_effect_undefined_nnt(self):
        c0 = _curve([1, 2, 3], [1, 1, 0])
        est = nppr_point_estimate(
            PointwiseSet(np.array([1.0]), np.array([0.0]), np.zeros(1), np.zeros(1), np.ones(1), 0)
        )
        rd = risk_difference_curve(est, c0, [1.0, 2.0])
        assert np.all(rd.rd == 0.0)
        assert np.all(np.isnan(rd.nnt))

    def test_rd_magnitude_nondecreasing(self):
        data = _simulated(seed=5, n=80)
        res = nppr_fit(data)
        grid = np.unique(res.tset.times)
        rd = risk_difference_curve(res.estimate, res.curve0, grid)
        assert np.all(np.diff(np.abs(rd.rd)) >= -1e-15)
        assert np.all(np.sign(rd.rd[rd.rd != 0]) == np.sign(1 - res.estimate.rr))


def _simulated(seed, n=40, rate=0.3):
    import proprisk

    sc = proprisk.make_scenario(proprisk.Model.PPR_EU, 0.5, rate, n, seed=seed)
    return proprisk.simulate_dataset(sc, 0)


def _swap_groups(data: Dataset) -> Dataset:
    return Dataset.from_columns(data.time, data.status, 1 - data.group)


@pytest.mark.parametrize("weighting", ["cumhaz", "delta"])
@pytest.mark.parametrize("seed", range(6))
def test_group_swap_negates_beta(weighting, seed):
    data = _simulated(seed)
    try:
        est = nppr_fit(data, weighting).estimate
    except EstimationError:
        pytest.skip("estimator undefined on this draw")
    swapped = nppr_fit(_swap_groups(data), weighting).estimate
    assert swapped.beta == pytest.approx(-est.beta, abs=1e-12)
    assert swapped.rr == pytest.approx(1.0 / est.rr, rel=1e-12)


@pytest.mark.parametrize("weighting", ["cumhaz", "delta"])
def test_identical_groups_null_fixed_point(weighting):
    # duplicate one group's rows into both labels: beta must be exactly 0
    times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    status = [1, 0, 1, 1, 0, 1]
    rows = [(t, s, 1) for t, s in zip(times, status)] + [
        (t, s, 0) for t, s in zip(times, status)
    ]
    est = nppr_fit(validate_dataset(rows), weighting).estimate
    assert est.beta == 0.0
    assert est.rr == 1.0


@pytest.mark.parametrize("seed", range(6))
def test_convexity_bound(seed):
    data = _simulated(seed, n=60)
    try:
        res = nppr_fit(data)
    except EstimationError:
        pytest.skip("estimator undefined on this draw")
    assert res.points.beta_t.min() - 1e-12 <= res.estimate.beta <= res.points.beta_t.max() + 1e-12


def test_tie_multiplicity_adds_terms_to_both_sums():
    # fixed curves; a time occurring m times in the multiset contributes m
    # identical terms to the numerator and denominator of the weighted mean
    c1 = _curve([1.0, 2.0, 3.0, 6.0], [1, 1, 1, 0])
    c0 = _curve([1.5, 2.0, 4.0, 7.0], [1, 1, 1, 0])
    single = build_event_time_set([2.0, 3.0], [2.0, 4.0])
    extra = build_event_time_set([2.0, 2.0, 3.0], [2.0, 2.0, 4.0])  # 2.0 twice per group

    pts = pointwise_log_rr(c1, c0, single)
    w = 1.0 / pts.weight_var
    dup = pts.times == 2.0  # one entry per group in `single`, two more in `extra`
    predicted = float(
        (np.sum(w * pts.beta_t) + np.sum(w[dup] * pts.beta_t[dup]))
        / (np.sum(w) + np.sum(w[dup]))
    )

    est = nppr_point_estimate(pointwise_log_rr(c1, c0, extra))
    assert est.beta == pytest.approx(predicted, abs=1e-14)
    assert est.n_times_used == len(pts) + 2


@pytest.mark.parametrize("weighting", ["cumhaz", "delta"])
def test_matches_oracle_small_instances(weighting):
    rng = np.random.default_rng(2024)
    checked = 0
    trials = 0
    while checked < 40 and trials < 4000:
        trials += 1
        n = int(rng.integers(4, 11))
        times = np.round(rng.uniform(0.5, 10.0, n), 1)
        status = rng.integers(0, 2, n)
        group = rng.integers(0, 2, n)
        data = Dataset.from_columns(times, status, group)
        oracle = nppr_oracle(times, status, group, weighting)
        try:
            res = nppr_fit(data, weighting)
        except EstimationError:
            assert oracle is None or oracle[1] == 0
            continue
        assert oracle is not None
        beta, used, dropped = oracle
        assert res.estimate.beta == pytest.approx(beta, abs=1e-12)
        assert res.estimate.n_times_used == used
        assert res.points.n_dropped == dropped
        checked += 1
    assert checked == 40
