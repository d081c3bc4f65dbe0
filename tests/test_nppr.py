import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proprisk import Dataset, EstimationError, nppr_fit, risk_difference_curve
from proprisk.nppr import (
    NpprEstimate,
    NpprResult,
    build_event_time_set,
    nppr_point_estimate,
    pointwise_log_rr,
)
from proprisk.survival import Workspace, kaplan_meier, validate_dataset

from oracles import nppr_oracle


def _data(rows1, rows0):
    """Dataset from each group's (time, status) rows."""
    rows = [(t, s, 1) for t, s in rows1] + [(t, s, 0) for t, s in rows0]
    return Dataset.from_columns(*zip(*rows))


def _events(*columns):
    """The events (B, K, 2) of per-table lists of (d0, d1), their
    Kaplan-Meier survival and a fresh workspace, the arguments of
    build_event_time_set. Each group has one more row, censored at the last
    event time, so no risk set runs out."""
    table = np.zeros((len(columns), len(columns[0]) + 1, 2, 2), dtype=np.int64)
    table[:, 1:, :, 1] = columns
    table[:, -1, :, 0] = 1
    b, k = len(columns), len(columns[0])
    d, surv, _ = kaplan_meier(table, Workspace.empty((b,), k))
    return d, surv, Workspace.empty((b,), k)


class TestEventTimeSet:
    def test_overlap_window(self):
        # group 1 events at 2 and 5, group 0 at 3 and 7: the window is [3, 5]
        window, m = build_event_time_set(*_events([(0, 1), (1, 0), (0, 1), (1, 0)]))
        np.testing.assert_array_equal(window, [[False, True, True, False]])
        res = nppr_fit(_data([(2, 1), (5, 1)], [(3, 1), (7, 1)]))
        assert (res.t_min, res.t_max) == (3.0, 5.0)

    def test_full_tie_retention(self):
        window, m = build_event_time_set(*_events([(1, 1), (1, 1), (1, 1)]))
        assert window.all()
        np.testing.assert_array_equal(np.repeat([1.0, 2.0, 3.0], m[0]), [1, 1, 2, 2, 3, 3])

    def test_disjoint_windows_empty(self):
        # group 1 events at 1 and 2, group 0 at 5 and 6
        window, _ = build_event_time_set(*_events([(0, 1), (0, 1), (1, 0), (1, 0)]))
        assert not window.any()
        with pytest.raises(EstimationError, match="empty"):
            nppr_fit(_data([(1, 1), (2, 1)], [(5, 1), (6, 1)]))

    def test_no_events_empty(self):
        # one table per group without events, in one batch; a censoring-only
        # column (0, 0) is never in the window
        window, m = build_event_time_set(*_events([(1, 0), (0, 0), (1, 0)], [(0, 1), (0, 0), (0, 1)]))
        assert window.shape == (2, 3) and not window.any()
        np.testing.assert_array_equal(m, [[1, 0, 1], [1, 0, 1]])


def _surv(*pairs):
    """(1, K, 2) survival or Greenwood arrays from (group 0, group 1) pairs."""
    return np.array([pairs], dtype=float)


class TestPointwise:
    def test_forced_ratio(self):
        # F1(1) = 0.2: one event among 5 subjects; F0(1) = 0.4: 2 among 5
        res = nppr_fit(_data([(1, 1)] + [(2, 0)] * 4, [(1, 1)] * 2 + [(2, 0)] * 3))
        np.testing.assert_allclose(res.points.beta_t, [math.log(2.0)] * 3)

    def test_cumhaz_weight_formula(self):
        # F1 = F0 = 0.3 and a Greenwood sum of 0.0009/0.49 in each group
        g = 0.0009 / 0.49
        beta_t, omega, usable = pointwise_log_rr(
            _surv((0.7, 0.7)), _surv((g, g)), np.array([[True]]), Workspace.empty((1,), 1)
        )
        np.testing.assert_allclose(omega, [[2 * g / 0.09]])
        np.testing.assert_array_equal(beta_t, [[0.0]])
        assert usable.all()

    def test_degenerate_variance_dropped(self):
        # group 0 survival hits zero at t=2: undefined variance, time dropped
        res = nppr_fit(_data([(1, 1), (2, 1), (3, 0)], [(1, 1), (2, 1)]))
        assert res.points.n_dropped == 2  # t=2 carries one event of each group
        np.testing.assert_allclose(res.points.times, [1.0, 1.0])

    def test_all_dropped_raises(self):
        with pytest.raises(EstimationError, match="dropped"):
            nppr_fit(_data([(1, 1), (1, 1)], [(1, 1), (1, 1)]))

    def test_empty_set_raises(self):
        with pytest.raises(EstimationError, match="empty"):
            nppr_fit(_data([(1, 1)], [(2, 0)]))

    def test_rows_view(self):
        # one row per event: t=1 twice; t=2 is dropped (group 1 exhausted)
        res = nppr_fit(_data([(1, 1), (2, 1)], [(1, 1), (3, 1)]))
        pts = res.points
        np.testing.assert_array_equal(pts.times, [1.0, 1.0])
        assert len(pts.beta_t) == len(pts.weight_var) == len(pts) == res.estimate.n_times_used
        assert pts.weight_var[0] == pts.weight_var[1] and pts.n_dropped == 1


class TestPointEstimate:
    def test_hand_weighted_mean(self):
        # a batch of three: single events, a 2-fold tie at the first time,
        # and no usable time
        beta_t = np.array([[0.5, 1.0]] * 3)
        omega = np.array([[0.25, 0.5]] * 3)
        usable = np.array([[True, True], [True, True], [False, False]])
        m = np.array([[1, 1], [2, 1], [1, 1]])
        beta, total = nppr_point_estimate(beta_t, omega, usable, m, Workspace.empty((3,), 2))
        assert beta[0] == pytest.approx(2.0 / 3.0) and total[0] == pytest.approx(6.0)
        assert beta[1] == pytest.approx(0.6) and total[1] == pytest.approx(10.0)
        assert math.isnan(beta[2]) and total[2] == 0.0

    def test_null_effect(self):
        beta, _ = nppr_point_estimate(
            np.zeros((1, 2)),
            np.array([[0.1, 0.4]]),
            np.ones((1, 2), dtype=bool),
            np.ones((1, 2)),
            Workspace.empty((1,), 2),
        )
        assert beta[0] == 0.0


def _result(beta, times, f0):
    """An NpprResult by hand: estimate beta, the control CDF f0 at the event
    times, and the window from the first time to the last."""
    times, f0 = np.array(times), np.array(f0)
    cdf = np.stack((f0, math.exp(-beta) * f0), axis=1)
    estimate = NpprEstimate(beta, 1.0, math.exp(-beta), 1)
    # risk_difference_curve reads no pointwise estimates
    return NpprResult(estimate, None, times[0], times[-1], times, cdf)


class TestRiskDifference:
    def test_reference_nnt(self):
        # with beta=0.320, F0 chosen so that NNT(10) = 28.120
        beta = 0.320
        f0_at_10 = 1.0 / 28.120 / (1.0 - math.exp(-beta))
        rd = risk_difference_curve(_result(beta, [10.0], [f0_at_10]))
        assert rd.nnt[0] == pytest.approx(28.120, rel=1e-12)
        assert rd.rd[0] == pytest.approx(1.0 / 28.120, rel=1e-12)

    def test_direct_formula(self):
        rd = risk_difference_curve(_result(0.320, [5.0], [0.1]))
        assert rd.rd[0] == pytest.approx((1 - math.exp(-0.32)) * 0.1, rel=1e-12)
        assert rd.nnt[0] == pytest.approx(36.5167, abs=5e-4)

    def test_null_effect_undefined_nnt(self):
        rd = risk_difference_curve(_result(0.0, [1.0, 2.0], [1.0 / 3.0, 2.0 / 3.0]))
        assert np.all(rd.rd == 0.0)
        assert np.all(np.isnan(rd.nnt))

    def test_evaluated_in_the_window(self):
        res = replace(_result(0.320, [1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4]), t_min=2.0, t_max=3.0)
        rd = risk_difference_curve(res)
        np.testing.assert_array_equal(rd.times, [2.0, 3.0])
        np.testing.assert_array_equal(rd.rd, (1 - math.exp(-0.32)) * np.array([0.2, 0.3]))

    def test_rd_magnitude_nondecreasing(self):
        data = _simulated(seed=5, n=80)
        res = nppr_fit(data)
        rd = risk_difference_curve(res)
        assert rd.times[0] == res.t_min and rd.times[-1] == res.t_max
        assert np.all(np.diff(np.abs(rd.rd)) >= -1e-15)
        assert np.all(np.sign(rd.rd[rd.rd != 0]) == np.sign(1 - res.estimate.rr))


def _simulated(seed, n=40, rate=0.3):
    import proprisk

    sc = proprisk.make_scenario(proprisk.Model.PPR_EU, 0.5, rate, n, seed=seed)
    return proprisk.simulate_dataset(sc, 0)


def _swap_groups(data: Dataset) -> Dataset:
    return Dataset.from_columns(data.time, data.status, 1 - data.group)


# the ids name the variance behind the inverse-variance weights
@pytest.mark.parametrize("seed", range(6), ids=lambda seed: f"{seed}-cumhaz")
def test_group_swap_negates_beta(seed):
    data = _simulated(seed)
    try:
        est = nppr_fit(data).estimate
    except EstimationError:
        pytest.skip("estimator undefined on this draw")
    swapped = nppr_fit(_swap_groups(data)).estimate
    assert swapped.beta == pytest.approx(-est.beta, abs=1e-12)
    assert swapped.rr == pytest.approx(1.0 / est.rr, rel=1e-12)


def test_identical_groups_null_fixed_point():
    # duplicate one group's rows into both labels: beta must be exactly 0
    times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    status = [1, 0, 1, 1, 0, 1]
    rows = [(t, s, 1) for t, s in zip(times, status)] + [
        (t, s, 0) for t, s in zip(times, status)
    ]
    est = nppr_fit(validate_dataset(rows)).estimate
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
    # t=2 carries three events: it enters the weighted mean as three
    # identical terms in the numerator and the denominator
    res = nppr_fit(_data([(1, 1), (2, 1), (2, 1), (3, 1), (6, 0)], [(1.5, 1), (2, 1), (4, 1), (7, 0)]))
    pts = res.points
    assert np.count_nonzero(pts.times == 2.0) == 3
    w = 1.0 / pts.weight_var
    assert res.estimate.beta == pytest.approx(np.sum(w * pts.beta_t) / np.sum(w), abs=1e-14)
    assert res.estimate.total_weight == pytest.approx(np.sum(w), rel=1e-14)
    assert res.estimate.n_times_used == len(pts)


def test_matches_oracle_small_instances():
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
        oracle = nppr_oracle(times, status, group)
        try:
            res = nppr_fit(data)
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


MONOTONE_TRANSFORMS = {
    "exp": np.exp,
    "cube_plus_one": lambda t: t**3 + 1.0,
    "log1p": np.log1p,
    "affine": lambda t: 7.0 * t + 0.25,
}


@given(
    st.lists(
        st.tuples(st.sampled_from([0.5, 1.0, 2.0, 2.5, 3.0, 5.0, 8.0, 13.0]), st.integers(0, 1), st.integers(0, 1)),
        min_size=2,
        max_size=40,
    ),
    st.sampled_from(sorted(MONOTONE_TRANSFORMS)),
)
@settings(max_examples=200, deadline=None)
def test_strictly_increasing_time_transform(rows, name):
    # the estimator reads times only through their order: under a strictly
    # increasing transform beta is bit-identical, it fails on the same data,
    # and the window's ends map through the transform
    times, status, group = (np.array(c) for c in zip(*rows))
    moved = MONOTONE_TRANSFORMS[name](times)
    assert np.all(np.diff(np.unique(moved)) > 0) and np.unique(moved).size == np.unique(times).size
    fits = []
    for t in (times, moved):
        try:
            fits.append(nppr_fit(Dataset.from_columns(t, status, group)))
        except EstimationError as exc:
            fits.append(str(exc))
    a, b = fits
    if isinstance(a, str):
        assert a == b
        return
    image = dict(zip(times.tolist(), moved.tolist()))
    assert b.estimate.beta == a.estimate.beta
    assert (b.t_min, b.t_max) == (image[a.t_min], image[a.t_max])
    np.testing.assert_array_equal(b.points.beta_t, a.points.beta_t)
    assert b.points.n_dropped == a.points.n_dropped
    np.testing.assert_array_equal(b.cdf, a.cdf)
