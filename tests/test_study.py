import csv
import io
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import proprisk as pr
from proprisk.simulate import Model, default_grid, reseed, simulate_replicates
from proprisk import models, study
from proprisk.reporting import write_grid_csv
from proprisk.study import GRID_COLUMNS, run_scenario


def _scenario(model=Model.PPR_EU, effect=0.5, rate=0.3, n=60, seed=1):
    return pr.make_scenario(model, effect, rate, n, seed=seed)


class TestRunScenario:
    def test_bit_identical_reruns(self):
        sc = _scenario()
        a = run_scenario(sc, 40)
        b = run_scenario(sc, 40)
        assert a == b

    def test_exclusion_accounting(self):
        sc = _scenario(n=30, rate=0.7, seed=3)
        r = run_scenario(sc, 120)
        assert r.n_runs == 120
        assert 0 <= r.n_nppr_failed <= 120
        # bias/MSE computed over the non-failed runs only; identity holds via
        # reconstruction
        errs = []
        for rep in range(120):
            d = pr.simulate_dataset(sc, rep)
            try:
                errs.append(pr.nppr_fit(d).estimate.beta - sc.effect_beta)
            except pr.EstimationError:
                pass
        assert len(errs) == r.n_runs - r.n_nppr_failed
        assert r.bias_nppr == pytest.approx(float(np.mean(errs)))
        assert r.mse_nppr == pytest.approx(float(np.mean(np.square(errs))))

    def test_mse_geq_bias_squared(self):
        for seed in range(3):
            r = run_scenario(_scenario(seed=seed), 60)
            assert r.mse_nppr >= r.bias_nppr**2 - 1e-15
            if not math.isnan(r.mse_ppr):
                assert r.mse_ppr >= r.bias_ppr**2 - 1e-15

    def test_forced_nppr_failure(self):
        # identical-parameter scenario, n=6, 70% censoring: replicate 0 has no
        # group-0 events and replicate 2 has disjoint event windows
        sc = pr.make_scenario(Model.PPR_EU, 0.0, 0.7, 6, seed=0)
        r = run_scenario(sc, 1)
        assert r.n_nppr_failed == 1
        assert math.isnan(r.bias_nppr)
        with pytest.raises(pr.EstimationError):
            pr.nppr_fit(pr.simulate_dataset(sc, 2))

    def test_weibull_skips_competitor(self):
        r = run_scenario(_scenario(model=Model.WEIBULL_PH), 20)
        assert math.isnan(r.bias_ppr) and math.isnan(r.mse_ppr)
        assert r.n_ppr_excluded == 0

    def test_ppr_threshold_excludes(self, monkeypatch):
        monkeypatch.setattr("proprisk.study.PPR_EXCLUSION_THRESHOLD", 1e-9)
        sc = _scenario(n=40, rate=0.5, seed=7)
        strict = run_scenario(sc, 60)
        assert strict.n_ppr_excluded > 0
        assert math.isnan(strict.bias_ppr) or strict.n_ppr_excluded < 60

    def test_coverage_fields(self):
        sc = _scenario(n=80, seed=5)
        r = run_scenario(sc, 10, with_coverage=True,
                         bootstrap_config=pr.BootstrapConfig(n_resamples=30))
        assert 0.0 <= r.coverage_nppr <= 1.0
        off = run_scenario(sc, 10)
        assert math.isnan(off.coverage_nppr)


class TestScore:
    """One rule scores every method's record: rows estimate, lower end,
    upper end; NaN where there is none."""

    NAN, INF = math.nan, math.inf
    # replicate 1: no estimate but a finite interval; 2: a NaN end; 3: an infinite end;
    # 5: neither estimate nor interval
    RECORD = np.array([
        [0.4, NAN, 0.7, 0.2, 0.55, NAN],
        [0.1, 0.3, NAN, 0.1, 0.6, NAN],
        [0.9, 0.8, 0.9, INF, 1.0, NAN],
    ])

    def test_against_a_direct_computation(self):
        target = 0.5
        bias, mse, coverage, failed = study._score(self.RECORD, target, True)
        err = np.array([0.4, 0.7, 0.2, 0.55]) - target
        assert bias == np.mean(err)
        assert mse == np.mean(err**2)
        # the intervals with both ends finite: replicates 0, 1 and 4
        assert coverage == np.mean([0.1 <= target <= 0.9, 0.3 <= target <= 0.8, 0.6 <= target <= 1.0])
        assert failed == 2

    def test_without_coverage(self):
        with_ci = study._score(self.RECORD, 0.5, True)
        bias, mse, coverage, failed = study._score(self.RECORD, 0.5, False)
        assert math.isnan(coverage)
        assert (bias, mse, failed) == (with_ci[0], with_ci[1], with_ci[3])

    def test_empty_record(self):
        # no competitor fitted: no replicate, so nothing failed and no metric
        bias, mse, coverage, failed = study._score(np.empty((3, 0)), 0.5, True)
        assert math.isnan(bias) and math.isnan(mse) and math.isnan(coverage)
        assert failed == 0


class TestChunkedReplicates:
    """The study fits replicates in chunks; each replicate's numbers are
    those of its own fit."""

    SCENARIOS = [
        (Model.PPR_EU, 0.0, 0.7, 6, 0, 12),  # forced failures: no group-0 events, disjoint windows
        (Model.PPR_EU, 0.0, 0.7, 30, 3, 40),
        (Model.PPR_EU, 0.5, 0.3, 500, 1, 6),
        (Model.WEIBULL_PH, -0.5, 0.5, 50, 2, 30),
    ]

    @pytest.mark.parametrize("model, effect, rate, n, seed, reps", SCENARIOS)
    def test_nppr_betas_match_nppr_fit(self, model, effect, rate, n, seed, reps):
        sc = pr.make_scenario(model, effect, rate, n, seed=seed)
        cols = simulate_replicates(sc, range(reps))
        data = [pr.Dataset.from_columns(*row) for row in zip(*cols)]
        betas = study._nppr_betas(*cols)
        failed = []
        for rep, d in enumerate(data):
            try:
                beta = pr.nppr_fit(d).estimate.beta
            except pr.EstimationError:
                failed.append(rep)
                continue
            assert abs(betas[rep] - beta) <= 1e-12
        assert np.flatnonzero(np.isnan(betas)).tolist() == failed
        if n == 6:
            assert {0, 2} <= set(failed)

    def test_coverage_counts_each_replicate_with_an_interval(self):
        # replicates without an NPPR estimate reach the bootstrap, which raises and is skipped
        sc = pr.make_scenario(Model.PPR_EU, 0.0, 0.7, 30, seed=3)
        r = run_scenario(sc, 40, with_coverage=True, bootstrap_config=pr.BootstrapConfig(n_resamples=20))
        cover = []
        for rep in range(40):
            seed = int(np.random.SeedSequence(sc.seed, spawn_key=(rep, 1)).generate_state(1)[0])
            try:
                ci = pr.percentile_bootstrap(pr.simulate_dataset(sc, rep), pr.BootstrapConfig(20, seed=seed)).ci_beta
            except pr.EstimationError:
                continue
            cover.append(ci.lower <= sc.effect_beta <= ci.upper)
        assert r.n_nppr_failed > 0 and cover
        assert r.coverage_nppr == float(np.mean(cover))

    @pytest.mark.parametrize("model, effect, rate, n, seed, reps", SCENARIOS)
    def test_one_replicate_chunks_agree(self, monkeypatch, model, effect, rate, n, seed, reps):
        sc = pr.make_scenario(model, effect, rate, n, seed=seed)
        chunked = run_scenario(sc, reps)
        monkeypatch.setattr(study, "CHUNK_ROWS", 1)
        single = run_scenario(sc, reps)
        for f in fields(chunked):
            a, b = getattr(chunked, f.name), getattr(single, f.name)
            if f.name == "scenario" or f.name.startswith("n_"):
                assert a == b
            else:
                assert a == pytest.approx(b, abs=1e-12, nan_ok=True)


class TestEuCompetitor:
    """The study reads the EU fits' beta, convergence and interval from the
    lockstep solve, without a PprFit or a log-likelihood per replicate."""

    def test_no_loglik_evaluations(self, monkeypatch):
        calls = []
        real = models.eu_log_likelihood
        monkeypatch.setattr(models, "eu_log_likelihood", lambda *a: calls.append(1) or real(*a))
        r = run_scenario(_scenario(rate=0.5, n=100, seed=20240801), 40)
        assert r.n_ppr_excluded < 40
        assert calls == []

    # n=12 at 70% censoring: fits without events, one over the threshold, intervals
    @pytest.mark.parametrize("chunk_rows", [1, 23])
    def test_metrics_match_fit_ppr_per_replicate(self, monkeypatch, chunk_rows):
        sc = _scenario(rate=0.7, n=12, seed=2)
        reps = 24
        solves = []
        real = study.solve_lanes
        monkeypatch.setattr(study, "solve_lanes", lambda lanes: solves.append(lanes.rows.tolist()) or real(lanes))
        monkeypatch.setattr(study, "CHUNK_ROWS", chunk_rows)
        r = run_scenario(sc, reps, with_coverage=True, bootstrap_config=pr.BootstrapConfig(n_resamples=20))

        fits = [pr.fit_ppr(pr.simulate_dataset(sc, rep)) for rep in range(reps)]
        beta = np.array([f.beta for f in fits])
        kept = np.array([f.converged for f in fits]) & (np.abs(beta) <= study.PPR_EXCLUSION_THRESHOLD)
        err = beta[kept] - sc.effect_beta
        cover = [f.ci_beta.lower <= sc.effect_beta <= f.ci_beta.upper for f, k in zip(fits, kept) if k and f.ci_available]
        assert cover and not kept.all()
        assert r.n_ppr_excluded == np.count_nonzero(~kept)
        assert r.bias_ppr == float(np.mean(err))
        assert r.mse_ppr == float(np.mean(err**2))
        assert r.coverage_ppr == float(np.mean(cover))

        # each lane is solved once, in replicate order, over several solves
        assert sum(solves, []) == sorted(sum(solves, [])) and len(solves) > 1
        chunk = max(1, chunk_rows // sc.n_participants)
        assert any(len({rep // chunk for rep in lanes}) > 1 for lanes in solves) == (chunk_rows > 1)


class TestCommittedStudyTable:
    """Three cells of the committed 1,000-replicate study table, rerun."""

    TABLE = Path(__file__).resolve().parents[1] / "results" / "study_default.csv"

    @pytest.mark.parametrize("key", [
        ("ppr_eu", 0.5, 0.7, 50),
        ("ppr_eu", 0.5, 0.3, 500),  # fits on the bound; 1,000 lanes over many solves
        ("weibull_ph", -0.5, 0.5, 100),
    ])
    def test_rows_reproduce(self, key):
        grid = reseed(default_grid(), 20240101)
        sc = next(s for s in grid if (s.model.value, s.effect_beta, s.censor_rate, s.n_participants) == key)
        out = io.StringIO()
        write_grid_csv([run_scenario(sc, 1000)], out)
        header, row = out.getvalue().splitlines()
        table = self.TABLE.read_text().splitlines()
        assert header == table[0]
        assert row in table


def _grid_rows(results):
    """The study table that write_grid_csv writes, as lists of cells."""
    out = io.StringIO()
    write_grid_csv(results, out)
    return list(csv.reader(out.getvalue().splitlines()))


class TestGridTable:
    def test_empty(self):
        assert _grid_rows([]) == [list(GRID_COLUMNS)]

    def test_single_row_pass_through(self):
        r = run_scenario(_scenario(), 10)
        header, *rows = _grid_rows([r])
        assert header == list(GRID_COLUMNS)
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["bias_nppr"] == repr(r.bias_nppr)
        assert [row[c] for c in GRID_COLUMNS[:4]] == ["ppr_eu", "0.5", "0.3", "60"]
        assert row["n_runs"] == "10"
        # the columns after the scenario's four are the result's own fields, in order
        result = {f.name: getattr(r, f.name) for f in fields(r)[1:]}
        assert GRID_COLUMNS[4:] == tuple(result)
        np.testing.assert_equal({c: float(row[c]) if row[c] else math.nan for c in result}, result)

    def test_rows_keep_the_given_order(self):
        scenarios = [
            pr.make_scenario(model, effect, rate, n, seed=0)
            for model, effect, rate, n in [
                (Model.WEIBULL_PH, -0.5, 0.7, 50),
                (Model.PPR_EU, 0.25, 0.3, 500),
                (Model.PPR_EU, 0.0, 0.7, 50),
            ]
        ]
        results = [run_scenario(s, 2) for s in scenarios]
        forward = _grid_rows(results)[1:]
        keys = [[s.model.value, repr(s.effect_beta), repr(s.censor_rate), str(s.n_participants)] for s in scenarios]
        assert [r[:4] for r in forward] == keys
        assert _grid_rows(results[::-1])[1:] == forward[::-1]

    def test_default_grid_is_in_reference_order(self):
        # PR block first; effects 0, 0.5, 0.25, -0.25, -0.5; censoring
        # ascending; participants descending
        effect_order = {0.0: 0, 0.5: 1, 0.25: 2, -0.25: 3, -0.5: 4}

        def key(s):
            return (
                0 if s.model is Model.PPR_EU else 1,
                effect_order[s.effect_beta],
                s.censor_rate,
                -s.n_participants,
            )

        keys = [key(s) for s in default_grid()]
        assert len(keys) == len(set(keys)) == 90
        assert keys == sorted(keys)
