import math
from pathlib import Path

import numpy as np
import pytest

import proprisk
from proprisk import (
    BootstrapConfig,
    EstimationError,
    Model,
    make_scenario,
    nppr_fit,
    percentile_bootstrap,
    read_dataset_csv,
    simulate_dataset,
)
from proprisk.bootstrap import empirical_quantile, resample_rows
from proprisk.nppr import fit_tables
from proprisk.survival import Workspace, event_grid, validate_dataset

from oracles import nppr_scalar


@pytest.fixture()
def any_success(monkeypatch):
    """A bootstrap with any successful resample gives an interval."""
    monkeypatch.setattr("proprisk.bootstrap.MIN_SUCCESS_FRACTION", 0.0)


def _two_arm_data(seed=3, n=120):
    import proprisk

    sc = proprisk.make_scenario(proprisk.Model.PPR_EU, 0.5, 0.3, n, seed=seed)
    return proprisk.simulate_dataset(sc, 0)


class TestEmpiricalQuantile:
    def test_ceiling_rank(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        # ceil(0.5*4) = 2nd order statistic, not an interpolation
        assert empirical_quantile(x, 0.5) == 2.0
        assert empirical_quantile(x, 0.025) == 1.0
        assert empirical_quantile(x, 0.975) == 4.0
        assert empirical_quantile(x, 0.75) == 3.0

    def test_b500_ranks(self):
        x = np.arange(1.0, 501.0)
        assert empirical_quantile(x, 0.025) == 13.0  # ceil(12.5)
        assert empirical_quantile(x, 0.975) == 488.0  # ceil(487.5)


class TestConfig:
    def test_rejects_tiny_b(self):
        with pytest.raises(ValueError):
            BootstrapConfig(n_resamples=1)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            BootstrapConfig(level=1.0)

    @pytest.mark.parametrize("field", ["n_resamples", "seed"])
    @pytest.mark.parametrize("value", [2.5, 4.0])
    def test_rejects_non_integer_count_and_seed(self, field, value):
        # rejected here, not later inside the bootstrap with a TypeError
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            BootstrapConfig(**{field: value})

    def test_rejects_more_resamples_than_child_indices(self):
        BootstrapConfig(n_resamples=2**32)  # the last child index, 2**32 - 1, is one uint32 word
        with pytest.raises(ValueError, match=r"n_resamples must be at most 2\*\*32"):
            BootstrapConfig(n_resamples=2**32 + 1)

    def test_accepts_numpy_integers(self):
        data = _two_arm_data()
        a = percentile_bootstrap(data, BootstrapConfig(n_resamples=np.int64(20), seed=np.uint32(7)))
        b = percentile_bootstrap(data, BootstrapConfig(n_resamples=20, seed=7))
        np.testing.assert_array_equal(a.betas, b.betas)


def _oracle_rows(seed, n_resamples, n):
    """Each resample's rows from its own SeedSequence child and generator."""
    return np.stack([
        np.random.default_rng(child).integers(0, n, size=n)
        for child in np.random.SeedSequence(seed).spawn(n_resamples)
    ])


class TestResampleRows:
    """The rows computed from bulk-seeded PCG64 streams against one
    default_rng per SeedSequence child."""

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 500, 501, 4744])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**130])
    def test_rows_equal_default_rng_of_each_child(self, seed, n):
        chunks = list(resample_rows(seed, n, 20, 7))
        assert [c.shape for c in chunks] == [(7, n), (7, n), (6, n)]
        np.testing.assert_array_equal(np.concatenate(chunks), _oracle_rows(seed, 20, n))

    def test_rejected_draw_is_redrawn(self):
        # Lemire's map of a child's first n 32-bit draws is its rows unless a
        # draw is rejected; with seed 3 at n=4744 exactly resample 471 has one
        seed, n, n_resamples = 3, 4744, 500
        oracle = _oracle_rows(seed, n_resamples, n)
        mapped = np.stack([
            (np.random.PCG64(child).random_raw(n // 2).astype("<u8").view("<u4") * np.uint64(n)) >> 32
            for child in np.random.SeedSequence(seed).spawn(n_resamples)
        ])
        assert np.flatnonzero((mapped != oracle).any(axis=1)).tolist() == [471]
        rows = np.concatenate(list(resample_rows(seed, n, n_resamples, 2)))
        np.testing.assert_array_equal(rows, oracle)

    def test_rows_across_child_blocks(self):
        # at chunk 7 the child seeds are hashed 1,022 at a time (146 chunks),
        # so the chunk at 1,022 starts the second block; with seed 0 at
        # n=2050 exactly resample 1,497, in that block, has a rejected draw.
        # Compared chunk by chunk: all 1,600 resamples at once take 26 MB.
        seed, n, n_resamples, chunk = 0, 2050, 1600, 7
        assert proprisk.bootstrap.CHILD_BLOCK // chunk * chunk == 1022
        children = np.random.SeedSequence(seed).spawn(n_resamples)
        starts, redrawn = [], []
        for start, rows in zip(range(0, n_resamples, chunk), resample_rows(seed, n, n_resamples, chunk)):
            starts.append(start)
            for i, (got, child) in enumerate(zip(rows, children[start:start + chunk]), start):
                want = np.random.default_rng(child).integers(0, n, size=n)
                np.testing.assert_array_equal(got, want)
                mapped = (np.random.PCG64(child).random_raw(n // 2).astype("<u8").view("<u4") * np.uint64(n)) >> 32
                if (mapped != want).any():
                    redrawn.append(i)
        assert redrawn == [1497]
        assert 1022 in starts and starts[-1] == 1596

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            next(resample_rows(-1, 5, 4, 2))
        with pytest.raises(ValueError, match="seed"):
            BootstrapConfig(n_resamples=4, seed=-1)


def _cumhaz_ids(names):
    # test ids name the variance behind the inverse-variance weights
    return [f"{name}-cumhaz" for name in names]


class TestPercentileBootstrap:
    def test_deterministic(self):
        data = _two_arm_data()
        cfg = BootstrapConfig(n_resamples=50, seed=99)
        a = percentile_bootstrap(data, cfg)
        b = percentile_bootstrap(data, cfg)
        assert a.ci_beta == b.ci_beta
        np.testing.assert_array_equal(a.betas, b.betas)

    def test_seed_changes_interval(self):
        data = _two_arm_data()
        a = percentile_bootstrap(data, BootstrapConfig(n_resamples=50, seed=1))
        b = percentile_bootstrap(data, BootstrapConfig(n_resamples=50, seed=2))
        assert a.ci_beta != b.ci_beta

    def test_b2_gives_min_max(self):
        data = _two_arm_data()
        r = percentile_bootstrap(data, BootstrapConfig(n_resamples=2, seed=5))
        assert r.ci_beta.lower == min(r.betas)
        assert r.ci_beta.upper == max(r.betas)

    def test_rr_interval_is_transformed_beta_interval(self):
        data = _two_arm_data()
        r = percentile_bootstrap(data, BootstrapConfig(n_resamples=40, seed=7))
        assert r.ci_rr.lower == pytest.approx(math.exp(-r.ci_beta.upper))
        assert r.ci_rr.upper == pytest.approx(math.exp(-r.ci_beta.lower))
        assert r.ci_beta.lower <= r.ci_beta.upper

    def test_level_monotonicity(self):
        data = _two_arm_data()
        wide = percentile_bootstrap(data, BootstrapConfig(n_resamples=80, seed=11, level=0.95))
        narrow = percentile_bootstrap(data, BootstrapConfig(n_resamples=80, seed=11, level=0.90))
        assert wide.ci_beta.lower <= narrow.ci_beta.lower
        assert narrow.ci_beta.upper <= wide.ci_beta.upper

    def test_identical_groups_interval_contains_zero(self):
        rows = [(t, s, g) for g in (0, 1) for t, s in
                [(1.0, 1), (2.0, 0), (3.0, 1), (4.0, 1), (5.0, 0), (6.0, 1), (7.0, 1)]]
        data = validate_dataset(rows)
        r = percentile_bootstrap(data, BootstrapConfig(n_resamples=100, seed=13))
        assert r.ci_beta.lower <= 0.0 <= r.ci_beta.upper

    def test_failed_resamples_counted(self, any_success):
        # tiny dataset: many resamples lack one group's events entirely
        data = validate_dataset(
            [(1.0, 1, 1), (1.5, 1, 0), (2.0, 1, 1), (2.5, 1, 0), (3.0, 0, 1)]
        )
        r = percentile_bootstrap(data, BootstrapConfig(n_resamples=60, seed=17))
        assert r.n_effective + r.n_failed == 60
        assert r.n_failed > 0
        assert r.ci_beta.n_effective == r.n_effective

    def test_no_successful_resample_raises(self):
        # the point estimate exists, but neither resample has a usable time
        data = validate_dataset([(1.0, 1, 0), (2.0, 1, 1), (3.0, 1, 0), (4.0, 0, 1)])
        nppr_fit(data)
        with pytest.raises(EstimationError, match="only 0 of 2"):
            percentile_bootstrap(data, BootstrapConfig(n_resamples=2, seed=0))

    def test_too_few_successes_raises(self):
        # 9 of these 60 resamples succeed (test_failed_resamples_counted)
        data = validate_dataset(
            [(1.0, 1, 1), (1.5, 1, 0), (2.0, 1, 1), (2.5, 1, 0), (3.0, 0, 1)]
        )
        with pytest.raises(EstimationError, match="only 9 of 60"):
            percentile_bootstrap(data, BootstrapConfig(n_resamples=60, seed=17))

    @pytest.mark.parametrize(
        "rows",
        [
            [(1.0, 1, 1), (2.0, 0, 0)],  # group 0 has no events
            [(1.0, 1, 1), (2.0, 1, 1), (5.0, 1, 0), (6.0, 1, 0)],  # empty window
            [(1.0, 1, 1), (1.0, 1, 0)],  # every time dropped: both risk sets exhausted
        ],
        ids=_cumhaz_ids(["no_events_in_group0", "empty_window", "all_dropped"]),
    )
    def test_undefined_point_estimate_raises(self, rows):
        data = validate_dataset(rows)
        with pytest.raises(EstimationError):
            nppr_fit(data)
        # no resample succeeds either; the guard raises before any is drawn
        with pytest.raises(EstimationError, match="original data"):
            percentile_bootstrap(data, BootstrapConfig(n_resamples=10, seed=1))


def _scalar_resamples(data, cfg):
    """The reference path: each resample redrawn from its SeedSequence child
    and fitted by the scalar nppr_scalar. Returns (betas, failed indices)."""
    n = len(data)
    betas, failed = [], []
    for i, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.n_resamples)):
        idx = np.random.default_rng(child).integers(0, n, size=n)
        beta = nppr_scalar(data.time[idx], data.status[idx], data.group[idx])
        if beta is None:
            failed.append(i)
        else:
            betas.append(beta)
    return np.asarray(betas), failed


def _batched_failed(data, cfg):
    """Indices of the resamples the batched fit marks as failed."""
    rows = _oracle_rows(cfg.seed, cfg.n_resamples, len(data))
    return np.flatnonzero(np.isnan(fit_tables(event_grid(data).table(rows)).beta)).tolist()


def _tied_data():
    # event times shared by both groups, several events per tie, and
    # censorings tied with events
    rng = np.random.default_rng(5)
    time = rng.integers(1, 13, size=80).astype(float)
    status = (rng.random(80) < 0.7).astype(int)
    group = np.arange(80) % 2
    return validate_dataset(list(zip(time, status, group)))


def _five_rows():
    return validate_dataset([(1.0, 1, 1), (1.5, 1, 0), (2.0, 1, 1), (2.5, 1, 0), (3.0, 0, 1)])


def _replicate(effect, censoring, n, rep):
    sc = make_scenario(Model.PPR_EU, effect, censoring, n, seed=20240801)
    return simulate_dataset(sc, rep)


EQUIVALENCE_CASES = {
    "five_rows": (_five_rows, 60, 17),
    "tied_times": (_tied_data, 200, 3),
    "pr00_c70_n50_rep0": (lambda: _replicate(0.0, 0.7, 50, 0), 250, 100),
    "pr00_c70_n50_rep1": (lambda: _replicate(0.0, 0.7, 50, 1), 250, 101),
    "pr00_c70_n50_rep2": (lambda: _replicate(0.0, 0.7, 50, 2), 250, 102),
    "pr025_c30_n500": (lambda: _replicate(0.25, 0.3, 500, 0), 250, 7),
    "trial": (lambda: read_dataset_csv(Path(proprisk.__file__).parent / "data" / "synthetic_trial.csv"), 500, 0),
}


class TestBatchedEqualsScalar:
    """The batched resample fit against one scalar reference fit per
    resample: |dbeta| <= 1e-12 and the same failed resamples."""

    @pytest.mark.parametrize("case", list(EQUIVALENCE_CASES), ids=_cumhaz_ids(EQUIVALENCE_CASES))
    def test_equivalence_gate(self, case, any_success):
        make, n_resamples, seed = EQUIVALENCE_CASES[case]
        data = make()
        cfg = BootstrapConfig(n_resamples=n_resamples, seed=seed)
        ref_betas, ref_failed = _scalar_resamples(data, cfg)
        r = percentile_bootstrap(data, cfg)
        assert _batched_failed(data, cfg) == ref_failed
        assert r.n_failed == len(ref_failed)
        assert r.betas.shape == ref_betas.shape
        assert np.max(np.abs(r.betas - ref_betas), initial=0.0) <= 1e-12
        point = nppr_scalar(data.time, data.status, data.group)
        assert abs(nppr_fit(data).estimate.beta - point) <= 1e-12

    def test_gate_cases_exercise_failures_and_ties(self):
        cfg = BootstrapConfig(n_resamples=250, seed=100)
        assert _scalar_resamples(_replicate(0.0, 0.7, 50, 0), cfg)[1]
        assert _scalar_resamples(_five_rows(), cfg)[1]
        tied = _tied_data()
        events = tied.time[tied.status == 1]
        t1 = set(events[tied.group[tied.status == 1] == 1])
        t0 = set(events[tied.group[tied.status == 1] == 0])
        assert len(t1 & t0) >= 5 and np.unique(events).size < events.size


def _ties12():
    # 12 rows on 4 distinct times: ties within and across groups, censorings tied with events
    return validate_dataset([(1, 1, 0), (1, 1, 1), (1, 0, 0), (2, 1, 0), (2, 1, 0), (2, 1, 1),
                             (2, 0, 1), (3, 1, 1), (3, 1, 0), (3, 0, 0), (4, 1, 1), (4, 0, 1)])


def _trial():
    return read_dataset_csv(Path(proprisk.__file__).parent / "data" / "synthetic_trial.csv")


# name -> (data, B, seed); each B is not a multiple of the data's default chunk
WORKSPACE_CASES = {
    "pr025_c30_n500": (lambda: _replicate(0.25, 0.3, 500, 0), 100, 5),
    "ph05_c50_n100": (lambda: simulate_dataset(make_scenario(Model.WEIBULL_PH, 0.5, 0.5, 100, seed=20240801), 0), 250, 6),
    "ties_n12": (_ties12, 1000, 7),
    "trial": (_trial, 12, 8),
}


class TestWorkspacePipeline:
    """percentile_bootstrap's draw, count-table and kernel pipeline, writing
    into one workspace per call, against fit_tables on each resample's own
    table: every beta byte for byte, NaN where a resample fails. The cases
    run back to back, so each call meets a different K."""

    @pytest.mark.parametrize("budget", ["one_resample", "default", "all_in_one"])
    def test_each_beta_equals_its_own_table_fit(self, budget, monkeypatch, any_success):
        for name, (make, n_resamples, seed) in WORKSPACE_CASES.items():
            data = make()
            grid = event_grid(data)
            default_chunk = proprisk.bootstrap.CHUNK_CELLS // grid.n_cells
            assert 1 < default_chunk and n_resamples % default_chunk, name
            rows = _oracle_rows(seed, n_resamples, len(data))
            own = np.array([fit_tables(grid.table(r[None])).beta[0] for r in rows])
            cells = {"one_resample": 1, "default": proprisk.bootstrap.CHUNK_CELLS,
                     "all_in_one": n_resamples * grid.n_cells}[budget]
            chunk_betas = []

            def recording(table, work=None, fit=proprisk.bootstrap.fit_tables):
                result = fit(table, work)
                chunk_betas.append(result.beta.copy())
                return result

            with monkeypatch.context() as m:
                m.setattr("proprisk.bootstrap.CHUNK_CELLS", cells)
                m.setattr("proprisk.bootstrap.fit_tables", recording)
                r = percentile_bootstrap(data, BootstrapConfig(n_resamples=n_resamples, seed=seed))
            _guard, *chunks = chunk_betas  # the guard's identity table comes first
            chunk = max(1, cells // grid.n_cells)
            assert [len(c) for c in chunks] == [min(chunk, n_resamples - s) for s in range(0, n_resamples, chunk)]
            assert np.concatenate(chunks).tobytes() == own.tobytes(), name
            assert r.betas.tobytes() == own[~np.isnan(own)].tobytes(), name
            assert r.n_failed == np.isnan(own).sum(), name

    def test_cases_fail_some_resamples(self):
        data = _ties12()
        own = fit_tables(event_grid(data).table(_oracle_rows(7, 1000, len(data)))).beta
        assert 0 < np.isnan(own).sum() < 500


class TestOneWorkspace:
    """One workspace per bootstrap call: the guard's identity-table fit and
    every chunk write into it, and the kernel's fit is that workspace."""

    def test_one_allocation_per_call(self, monkeypatch):
        calls = []
        empty = Workspace.empty

        def counting(lead, k):
            calls.append((lead, k))
            return empty(lead, k)

        monkeypatch.setattr(proprisk.survival.Workspace, "empty", counting)
        r = percentile_bootstrap(_trial(), BootstrapConfig())
        assert r.n_effective > 0 and len(calls) == 1

    def test_fit_is_the_workspace_it_filled(self):
        data = _trial()
        grid = event_grid(data)
        work = Workspace.empty((4,), grid.event_times.shape[0])
        table = grid.table(_oracle_rows(0, 3, len(data)))
        fit = fit_tables(table, work)
        assert isinstance(fit, Workspace) and np.shares_memory(fit.beta, work.beta)
        assert fit.beta.tobytes() == fit_tables(table).beta.tobytes()
