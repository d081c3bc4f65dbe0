import math

import numpy as np
import pytest

from proprisk import (
    BootstrapConfig,
    EstimationError,
    Model,
    empirical_quantile,
    make_scenario,
    nppr_fit,
    percentile_bootstrap,
    read_dataset_csv,
    simulate_dataset,
    validate_dataset,
)
from proprisk.nppr import fit_tables
from proprisk.simulate import default_grid_path
from proprisk.survival import event_grid

from oracles import nppr_scalar


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

    def test_failed_resamples_counted(self):
        # tiny dataset: many resamples lack one group's events entirely
        data = validate_dataset(
            [(1.0, 1, 1), (1.5, 1, 0), (2.0, 1, 1), (2.5, 1, 0), (3.0, 0, 1)]
        )
        r = percentile_bootstrap(
            data, BootstrapConfig(n_resamples=60, seed=17, min_success_fraction=0.0)
        )
        assert r.n_effective + r.n_failed == 60
        assert r.n_failed > 0
        assert r.ci_beta.n_effective == r.n_effective

    def test_too_few_successes_raises(self):
        data = validate_dataset(
            [(1.0, 1, 1), (1.5, 1, 0), (2.0, 1, 1), (2.5, 1, 0), (3.0, 0, 1)]
        )
        with pytest.raises(EstimationError, match="resamples"):
            percentile_bootstrap(
                data, BootstrapConfig(n_resamples=60, seed=17, min_success_fraction=0.99)
            )

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
        # no resample succeeds either; min_success_fraction=0 leaves the raise to the guard
        with pytest.raises(EstimationError, match="original data"):
            percentile_bootstrap(data, BootstrapConfig(n_resamples=10, seed=1, min_success_fraction=0.0))


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
    n = len(data)
    rows = np.stack([
        np.random.default_rng(c).integers(0, n, size=n)
        for c in np.random.SeedSequence(cfg.seed).spawn(cfg.n_resamples)
    ])
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
    "trial": (lambda: read_dataset_csv(default_grid_path().parent / "synthetic_trial.csv"), 500, 0),
}


class TestBatchedEqualsScalar:
    """The batched resample fit against one scalar reference fit per
    resample: |dbeta| <= 1e-12 and the same failed resamples."""

    @pytest.mark.parametrize("case", list(EQUIVALENCE_CASES), ids=_cumhaz_ids(EQUIVALENCE_CASES))
    def test_equivalence_gate(self, case):
        make, n_resamples, seed = EQUIVALENCE_CASES[case]
        data = make()
        cfg = BootstrapConfig(n_resamples=n_resamples, seed=seed, min_success_fraction=0.0)
        ref_betas, ref_failed = _scalar_resamples(data, cfg)
        r = percentile_bootstrap(data, cfg)
        assert _batched_failed(data, cfg) == ref_failed
        assert r.n_failed == len(ref_failed)
        assert r.betas.shape == ref_betas.shape
        assert np.max(np.abs(r.betas - ref_betas), initial=0.0) <= 1e-12
        point = nppr_scalar(data.time, data.status, data.group)
        assert abs(nppr_fit(data).estimate.beta - point) <= 1e-12

    def test_gate_cases_exercise_failures_and_ties(self):
        cfg = BootstrapConfig(n_resamples=250, seed=100, min_success_fraction=0.0)
        assert _scalar_resamples(_replicate(0.0, 0.7, 50, 0), cfg)[1]
        assert _scalar_resamples(_five_rows(), cfg)[1]
        tied = _tied_data()
        events = tied.time[tied.status == 1]
        t1 = set(events[tied.group[tied.status == 1] == 1])
        t0 = set(events[tied.group[tied.status == 1] == 0])
        assert len(t1 & t0) >= 5 and np.unique(events).size < events.size
