import csv
import io
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import proprisk as pr
from proprisk.simulate import Model, default_grid, reseed, simulate_replicates
from proprisk import study
from proprisk.reporting import _csv_cell
from proprisk.study import GRID_COLUMNS, run_scenario, summarize_grid


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


class TestCommittedStudyTable:
    """Two cells of the committed 1,000-replicate study table, rerun."""

    TABLE = Path(__file__).resolve().parents[1] / "results" / "study_default.csv"

    @pytest.mark.parametrize("key", [
        ("ppr_eu", 0.5, 0.7, 50),
        ("weibull_ph", -0.5, 0.5, 100),
    ])
    def test_rows_reproduce(self, key):
        grid = reseed(default_grid(), 20240101)
        sc = next(s for s in grid if (s.model.value, s.effect_beta, s.censor_rate, s.n_participants) == key)
        row = summarize_grid([run_scenario(sc, 1000)])[0]
        out = io.StringIO()
        csv.writer(out).writerow([_csv_cell(row[c]) for c in GRID_COLUMNS])
        assert out.getvalue().rstrip("\r\n") in self.TABLE.read_text().splitlines()


class TestSummarizeGrid:
    def test_empty(self):
        assert summarize_grid([]) == []

    def test_single_row_pass_through(self):
        r = run_scenario(_scenario(), 10)
        rows = summarize_grid([r])
        assert len(rows) == 1
        row = rows[0]
        assert list(row) == list(GRID_COLUMNS)
        assert row["bias_nppr"] == r.bias_nppr
        assert row["participants"] == 60
        # the columns after the scenario's four are the result's own fields
        result = {f.name: getattr(r, f.name) for f in fields(r)[1:]}
        assert set(GRID_COLUMNS[4:]) == set(result)
        np.testing.assert_equal({c: row[c] for c in result}, result)

    def test_reference_row_ordering(self):
        scenarios = []
        for model in (Model.WEIBULL_PH, Model.PPR_EU):
            for effect in (-0.5, 0.25, 0.0):
                for rate in (0.7, 0.3):
                    for n in (50, 500):
                        scenarios.append(pr.make_scenario(model, effect, rate, n, seed=0))
        results = [run_scenario(s, 2) for s in scenarios]
        rows = summarize_grid(results)
        keys = [(r["model"], r["effect"], r["censoring"], r["participants"]) for r in rows]
        # PR block first; effects in reference order 0, 0.25, -0.5;
        # censoring ascending; participants descending
        assert keys[0] == ("ppr_eu", 0.0, 0.3, 500)
        assert keys[1] == ("ppr_eu", 0.0, 0.3, 50)
        assert keys[2] == ("ppr_eu", 0.0, 0.7, 500)
        assert keys[4] == ("ppr_eu", 0.25, 0.3, 500)
        assert keys[8] == ("ppr_eu", -0.5, 0.3, 500)
        assert keys[12][0] == "weibull_ph"
