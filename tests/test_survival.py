import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

from proprisk import Dataset, Model, ValidationError, make_scenario, simulate_dataset
from proprisk.survival import (
    Workspace,
    canonical_order,
    cell_codes,
    count_tables,
    event_grid,
    events_at_risk,
    kaplan_meier,
    validate_dataset,
)

from oracles import canonical_order_lexsort, cell_codes_lexsort, event_grid_oracle, km_int_counts, km_oracle, tie_heavy


class TestValidateDataset:
    def test_minimal_valid(self):
        data = validate_dataset([(2.0, 1, 1), (3.0, 0, 0)])
        assert len(data) == 2
        assert data.time[0] == 2.0

    def test_nonpositive_time(self):
        with pytest.raises(ValidationError, match="nonpositive time at row 1"):
            validate_dataset([(-1.0, 1, 1)])

    def test_zero_time(self):
        with pytest.raises(ValidationError, match="nonpositive time at row 2"):
            validate_dataset([(1.0, 1, 1), (0.0, 0, 0)])

    def test_nonfinite_time(self):
        with pytest.raises(ValidationError, match="nonfinite time at row 1"):
            validate_dataset([(math.inf, 1, 1)])

    def test_bad_status(self):
        with pytest.raises(ValidationError, match="status must be 0 or 1"):
            validate_dataset([(2.0, 2, 0)])

    def test_bad_group(self):
        with pytest.raises(ValidationError, match="group must be 0 or 1"):
            validate_dataset([(2.0, 1, 7)])

    def test_empty(self):
        with pytest.raises(ValidationError, match="empty"):
            validate_dataset([])

    def test_empty_group(self):
        with pytest.raises(ValidationError, match="group 0 has no observations"):
            validate_dataset([(1.0, 1, 1), (2.0, 0, 1)])

    def test_unparsable(self):
        with pytest.raises(ValidationError, match="row 2"):
            validate_dataset([(1.0, 1, 1), ("abc", 0, 0)])

    def test_unparsable_status(self):
        with pytest.raises(ValidationError, match="unparsable status/group at row 2"):
            validate_dataset([(1.0, 1, 1), (2.0, "x", 0)])

    def test_short_record(self):
        with pytest.raises(ValidationError, match=r"expected \(time, status, group\) at row 1"):
            validate_dataset([(1.0, 1)])


def _km(data, group=1):
    """One group's Kaplan-Meier curve on the dataset's shared event times."""
    grid = event_grid(data)
    table = grid.table()[None]
    k = grid.event_times.shape[0]
    d, surv, gsum = kaplan_meier(table, Workspace.empty((1,), k))
    return SimpleNamespace(
        event_times=grid.event_times,
        events=d[0, :, group],
        at_risk=events_at_risk(table, Workspace.empty((1,), k))[1][0, :, group],
        survival=surv[0, :, group],
        cumhaz_var=gsum[0, :, group],
    )


def _curve(times, status):
    """Kaplan-Meier curve of a single group's rows."""
    return _km(Dataset.from_columns(times, status, [1] * len(times)))


class TestKaplanMeier:
    def test_hand_computed_curve(self):
        # times/status (2,1),(4,0),(5,1),(6,0): S(2)=3/4, S(5)=3/8
        c = _curve([2.0, 4.0, 5.0, 6.0], [1, 0, 1, 0])
        np.testing.assert_allclose(c.event_times, [2.0, 5.0])
        np.testing.assert_allclose(c.survival, [0.75, 0.375])
        np.testing.assert_allclose(c.survival**2 * c.cumhaz_var, [0.046875, 0.08203125])
        np.testing.assert_array_equal(c.at_risk, [4, 2])
        np.testing.assert_array_equal(c.events, [1, 1])

    def test_tied_events_single_step(self):
        c = _curve([1.0, 1.0], [1, 1])
        assert len(c.event_times) == 1
        assert c.survival[0] == 0.0
        assert math.isinf(c.cumhaz_var[0])

    def test_all_censored_empty_curve(self):
        # no event times in the data: an empty grid; a group without events
        # in a grid of the other group's events stays at S = 1
        assert _curve([1.0, 2.0], [0, 0]).survival.shape == (0,)
        data = Dataset.from_columns([1.0, 2.0, 3.0], [0, 0, 1], [1, 1, 0])
        np.testing.assert_array_equal(_km(data, 1).survival, [1.0])
        np.testing.assert_array_equal(_km(data, 1).cumhaz_var, [0.0])

    def test_event_before_censoring_at_tie(self):
        # censored subject at t=2 is still at risk for the event at t=2
        c = _curve([2.0, 2.0], [1, 0])
        assert c.at_risk[0] == 2
        np.testing.assert_allclose(c.survival, [0.5])

    def test_group_selection(self):
        data = validate_dataset([(2.0, 1, 1), (3.0, 1, 0), (4.0, 0, 1)])
        c1, c0 = _km(data, 1), _km(data, 0)
        np.testing.assert_array_equal(c1.events, [1, 0])
        np.testing.assert_array_equal(c0.events, [0, 1])
        np.testing.assert_allclose(c1.survival, [0.5, 0.5])
        np.testing.assert_allclose(c0.survival, [1.0, 0.0])

    def test_cdf_lookup(self):
        # group 1 as in test_hand_computed_curve; group 0's events at 0.5, 3
        # and 100 read group 1's CDF between and after its own steps
        data = Dataset.from_columns(
            [2.0, 4.0, 5.0, 6.0, 0.5, 3.0, 100.0], [1, 0, 1, 0, 1, 1, 1], [1, 1, 1, 1, 0, 0, 0]
        )
        c = _km(data, 1)
        np.testing.assert_array_equal(c.event_times, [0.5, 2.0, 3.0, 5.0, 100.0])
        np.testing.assert_allclose(1.0 - c.survival, [0.0, 0.25, 0.25, 0.625, 0.625])

    def test_variance_carried_forward(self):
        data = Dataset.from_columns([2.0, 4.0, 5.0, 6.0, 1.0, 3.0], [1, 0, 1, 0, 1, 1], [1, 1, 1, 1, 0, 0])
        c = _km(data, 1)
        np.testing.assert_array_equal(c.event_times, [1.0, 2.0, 3.0, 5.0])
        assert c.cumhaz_var[0] == 0.0
        assert c.cumhaz_var[2] == pytest.approx(1.0 / 12.0)
        assert c.survival[2] ** 2 * c.cumhaz_var[2] == pytest.approx(0.046875)


def _enumerate_patterns(times, limit=None):
    n = len(times)
    count = 0
    for mask in range(4**n):
        status, group = [], []
        m = mask
        for _ in range(n):
            status.append(m & 1)
            group.append((m >> 1) & 1)
            m >>= 2
        yield status, group
        count += 1
        if limit and count >= limit:
            return


@pytest.mark.parametrize("times", [
    [1.0, 2.0, 3.0, 4.0],
    [1.0, 1.0, 2.0, 2.0],  # ties, including event/censoring collisions
    [1.0, 2.0, 2.0, 3.0, 3.0],
])
def test_km_matches_oracle_exhaustively(times):
    for status, group in _enumerate_patterns(times):
        for g in (0, 1):
            rows = [(t, s) for t, s, gg in zip(times, status, group) if gg == g]
            expected = km_oracle(rows)
            curve = _km(Dataset.from_columns(times, status, group), g)
            own = np.flatnonzero(curve.events)  # the group's own event times
            assert len(own) == len(expected)
            for j, (t, surv, var, chv, n, d) in zip(own, expected):
                assert curve.event_times[j] == t
                assert curve.survival[j] == pytest.approx(surv, abs=1e-14)
                if math.isnan(var):
                    assert math.isinf(curve.cumhaz_var[j])
                else:
                    assert curve.survival[j] ** 2 * curve.cumhaz_var[j] == pytest.approx(var, abs=1e-14)
                    assert curve.cumhaz_var[j] == pytest.approx(chv, abs=1e-14)
                assert curve.at_risk[j] == n
                assert curve.events[j] == d


@st.composite
def group_rows(draw, min_size=1, max_size=12):
    n = draw(st.integers(min_size, max_size))
    times = draw(st.lists(st.sampled_from([1.0, 2.0, 2.5, 3.0, 5.0, 8.0]), min_size=n, max_size=n))
    status = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return times, status

@given(group_rows())
@settings(max_examples=200, deadline=None)
def test_km_permutation_invariant(rows):
    times, status = rows
    base = _curve(times, status)
    order = np.arange(len(times))[::-1]
    perm = _curve(np.array(times)[order], np.array(status)[order])
    np.testing.assert_array_equal(base.event_times, perm.event_times)
    np.testing.assert_array_equal(base.survival, perm.survival)
    np.testing.assert_array_equal(base.cumhaz_var, perm.cumhaz_var)


@given(group_rows())
@settings(max_examples=200, deadline=None)
def test_km_structural_invariants(rows):
    times, status = rows
    c = _curve(times, status)
    assert np.all(np.diff(c.event_times) > 0)
    assert np.all((c.survival >= 0) & (c.survival <= 1))
    assert np.all(np.diff(c.survival) <= 1e-15)
    assert np.all(np.diff(c.at_risk) <= 0)
    assert np.all((c.events >= 1) & (c.events <= c.at_risk))
    # while defined, the variance is strictly positive (an event has occurred
    # and the risk set is not yet exhausted); it is never negative
    finite = np.isfinite(c.cumhaz_var)
    assert np.all(c.cumhaz_var[finite] > 0)
    # undefined exactly from the step where survival hits zero
    np.testing.assert_array_equal(finite, c.survival > 0)


@given(group_rows(min_size=2))
@settings(max_examples=150, deadline=None)
def test_km_no_censoring_matches_empirical_cdf(rows):
    times, _ = rows
    t = np.array(times)
    c = _curve(t, np.ones(len(times), dtype=int))
    for u, s in zip(c.event_times, c.survival):
        assert 1.0 - s == pytest.approx(np.mean(t <= u), abs=1e-12)


def _study_tables(shape, seed):
    """Count tables of tie-heavy datasets (R, n), zero-padded to a common K
    as the study counts them."""
    codes = cell_codes(*tie_heavy(shape, seed))
    return count_tables(codes, (int(codes.max()) | 3) + 1)


def _resample_tables():
    """Count tables of 30 resamples of a simulated PR 0.5, 30% cell at n=300."""
    data = simulate_dataset(make_scenario(Model.PPR_EU, 0.5, 0.3, 300, seed=4), 0)
    return event_grid(data).table(np.random.default_rng(4).integers(0, 300, size=(30, 300)))


KM_TABLES = {
    "tiny_tied": lambda: _study_tables((300, 6), 1),  # times 1..3: exhausted and empty groups
    "study_padded": lambda: _study_tables((40, 400), 2),
    "resamples": _resample_tables,
}


class TestKaplanMeierBits:
    """kaplan_meier on float counts, with both groups' Greenwood sums in one
    complex cumsum, against the int-count arithmetic it replaced, byte for
    byte, infinities included; and the window's left edge S < 1 against a
    cumulative event count."""

    @pytest.mark.parametrize("lead", ["scalar", "one", "batch", "reused_workspace"])
    @pytest.mark.parametrize("case", list(KM_TABLES))
    def test_equals_int_count_arithmetic(self, case, lead):
        tables = KM_TABLES[case]()
        table = tables[0] if lead == "scalar" else tables[:1] if lead == "one" else tables
        work = Workspace.empty(table.shape[:-3], table.shape[-3] - 1)
        if lead == "reused_workspace":  # buffers left holding another batch's stages
            kaplan_meier(tables[::-1].copy(), work)
        d, surv, gsum = kaplan_meier(table, work)
        want_surv, want_gsum = km_int_counts(table)
        assert surv.shape == gsum.shape == want_surv.shape == table.shape[:-3] + (table.shape[-3] - 1, 2)
        assert surv.tobytes() == want_surv.tobytes() and gsum.tobytes() == want_gsum.tobytes()
        np.testing.assert_array_equal(surv < 1.0, np.cumsum(d, axis=-2) > 0)

    def test_cases_cover_exhaustion_padding_and_no_events(self):
        tiny, padded = KM_TABLES["tiny_tied"](), KM_TABLES["study_padded"]()
        _, surv, gsum = kaplan_meier(tiny, Workspace.empty(tiny.shape[:1], tiny.shape[1] - 1))
        assert np.isinf(gsum).any() and (surv == 0.0).any()  # risk sets run out
        assert (surv[:, -1, :] == 1.0).any()  # a group without events
        rows = padded.sum(axis=(-1, -2))
        assert (rows[:, -1] == 0).any() and (rows[:, -1] > 0).any()  # some tables padded, some not


@given(group_rows(), group_rows())
@settings(max_examples=200, deadline=None)
def test_event_grid_counts_match_km(rows1, rows0):
    # the shared table's events and risk sets, read at a group's own event
    # times, are the oracle's per-group tie aggregation, for the data and
    # for resamples of it counted into the same grid
    (t1, s1), (t0, s0) = rows1, rows0
    data = Dataset.from_columns(t1 + t0, s1 + s0, [1] * len(t1) + [0] * len(t0))
    grid = event_grid(data)
    np.testing.assert_array_equal(grid.event_times, np.unique(data.time[data.status == 1]))
    rows = np.random.default_rng(len(data)).integers(0, len(data), size=(3, len(data)))
    resamples = [Dataset.from_columns(data.time[r], data.status[r], data.group[r]) for r in rows]
    tables = [(data, grid.table())] + list(zip(resamples, grid.table(rows)))
    for sample, table in tables:
        events, at_risk = events_at_risk(table, Workspace.empty((), grid.event_times.shape[0]))
        assert events.sum() == sample.status.sum()
        for g in (0, 1):
            expected = km_oracle(list(zip(sample.time[sample.group == g], sample.status[sample.group == g])))
            cols = np.searchsorted(grid.event_times, [row[0] for row in expected])
            np.testing.assert_array_equal(events[cols, g], [row[5] for row in expected])
            np.testing.assert_array_equal(at_risk[cols, g], [row[4] for row in expected])
            brute = [np.sum((sample.group == g) & (sample.time >= t)) for t in grid.event_times]
            np.testing.assert_array_equal(at_risk[:, g], brute)


@st.composite
def tied_batches(draw):
    """A (R, n) batch of datasets on integer times 1..4: ties everywhere,
    often all-censored rows, n down to 1."""
    n = draw(st.integers(1, 10))
    cells = st.lists(st.integers(1, 4), min_size=n, max_size=n)
    flags = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    r = draw(st.integers(1, 4))
    return tuple(np.array(draw(st.lists(x, min_size=r, max_size=r))) for x in (cells, flags, flags))


@given(tied_batches())
@example((np.array([[2, 2, 1]]), np.array([[0, 0, 0]]), np.array([[1, 0, 1]])))  # all censored
@example((np.array([[3], [1]]), np.array([[1], [0]]), np.array([[0], [1]])))  # single rows
@settings(max_examples=300, deadline=None)
def test_cell_codes_match_searchsorted_oracle(batch):
    time, status, group = batch
    time = time.astype(float)
    codes = cell_codes(time, status, group)
    for i in range(time.shape[0]):
        event_times, expected = event_grid_oracle(time[i], status[i], group[i])
        grid = event_grid(Dataset.from_columns(time[i], status[i], group[i]))
        np.testing.assert_array_equal(grid.event_times, event_times)
        np.testing.assert_array_equal(grid.cell, expected)
        np.testing.assert_array_equal(codes[i], expected)


@pytest.mark.parametrize("shape", [(50, 30), (5, 400), (1, 4744)])
def test_cell_codes_match_lexsort_oracle(shape):
    time, status, group = tie_heavy(shape, seed=shape[1])
    np.testing.assert_array_equal(cell_codes(time, status, group), cell_codes_lexsort(time, status, group))


@pytest.mark.parametrize("shape", [(50, 30), (5, 400), (1, 4744)])
def test_canonical_order_matches_lexsort_oracle(shape):
    cols = tie_heavy(shape, seed=shape[1])
    order = canonical_order(*cols)
    for got, want in zip((np.take_along_axis(c, order, axis=-1) for c in cols), canonical_order_lexsort(*cols)):
        np.testing.assert_array_equal(got, want)
