"""The benchmark's checks accept the program's outputs and reject outputs
perturbed by less than any real fault would move them.

    python3 -m pytest perfbench -q
"""
import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import proprisk  # noqa: E402
import reference as ref  # noqa: E402

TRIAL = HERE.parent / "src" / "proprisk" / "data" / "synthetic_trial.csv"
SEED = 7


@pytest.fixture(scope="module")
def trial():
    d = proprisk.read_dataset_csv(TRIAL)
    return d, (d.time.tolist(), d.status.tolist(), d.group.tolist())


@pytest.fixture(scope="module")
def fit_payload(trial):
    d, _ = trial
    boot = proprisk.percentile_bootstrap(d, proprisk.BootstrapConfig(n_resamples=50, seed=SEED))
    report = proprisk.build_report(proprisk.nppr_fit(d), boot)
    return json.loads(proprisk.report_to_json(report)), boot


def test_fit_report_accepted(trial, fit_payload):
    payload, _ = fit_payload
    assert checks.check_fit_report(payload, ref.nppr_reference(*trial[1]), with_ci=True) == []


@pytest.mark.parametrize("field", ["beta", "rd", "nnt", "beta_t"])
def test_fit_report_off_by_1e6_rejected(trial, fit_payload, field):
    payload = json.loads(json.dumps(fit_payload[0]))
    if field == "beta":
        payload["beta"] += 1e-6
        payload["rr"] = math.exp(-payload["beta"])
    elif field == "rd":
        payload["rd_nnt_series"]["rd"][100] += 1e-6
    elif field == "nnt":
        payload["rd_nnt_series"]["nnt"][100] *= 1 + 1e-6
    else:
        payload["pointwise_series"][10][1] += 1e-6
    assert checks.check_fit_report(payload, ref.nppr_reference(*trial[1]), with_ci=True)


def test_rr_not_exp_minus_beta_rejected(trial, fit_payload):
    payload = dict(fit_payload[0], rr=math.exp(fit_payload[0]["beta"]))
    assert checks.check_fit_report(payload, ref.nppr_reference(*trial[1]), with_ci=True)


def test_interval_accepted_and_swapped_endpoints_rejected(fit_payload):
    payload, boot = fit_payload
    betas = boot.betas.tolist()
    ok = checks.check_interval(payload["ci_beta"], payload["ci_rr"], betas, 50, boot.n_failed, 0.95)
    assert ok == []
    ci = payload["ci_beta"]
    swapped = dict(ci, lower=ci["upper"], upper=ci["lower"])
    assert checks.check_interval(swapped, payload["ci_rr"], betas, 50, boot.n_failed, 0.95)
    ordered = sorted(betas)
    neighbour = dict(ci, upper=ordered[ordered.index(ci["upper"]) - 1])
    assert checks.check_interval(neighbour, payload["ci_rr"], betas, 50, boot.n_failed, 0.95)


def test_redrawn_resamples(trial, fit_payload):
    _, boot = fit_payload
    betas = boot.betas.tolist()
    assert checks.check_redrawn(*trial[1], SEED, 50, betas, 2) == []
    assert checks.check_redrawn(*trial[1], SEED, 50, [betas[0] + 1e-6] + betas[1:], 2)
    assert checks.check_redrawn(*trial[1], SEED + 1, 50, betas, 2)


def test_swap(trial):
    d, _ = trial
    beta = proprisk.nppr_fit(d).estimate.beta
    swapped = proprisk.nppr_fit(proprisk.Dataset.from_columns(d.time, d.status, 1 - d.group)).estimate.beta
    assert checks.check_swap(beta, swapped) == []
    assert checks.check_swap(beta, swapped + 1e-9)


@pytest.fixture(scope="module")
def eu(trial):
    d, cols = trial
    return checks.ppr_payload(proprisk.fit_ppr(d)), ref.eu_reference(*cols)


def test_ppr_fit_accepted(trial, eu):
    payload, eref = eu
    assert checks.check_ppr_fit(payload, *trial[1], eref) == []


def test_ppr_loglik_short_of_maximum_rejected(trial, eu):
    payload, eref = eu
    a = payload["alpha"] * (1 + 1e-4)
    short = dict(payload, alpha=a, beta=-a * math.log(payload["theta1"] / payload["theta0"]))
    short["rr"] = math.exp(-short["beta"])
    short["loglik"] = ref.eu_loglik(*trial[1], a, payload["theta1"], payload["theta0"])
    assert eref.loglik - short["loglik"] < 1e-3  # short, but only just
    msgs = checks.check_ppr_fit(short, *trial[1], eref)
    assert len(msgs) == 1 and "short of the reference maximum" in msgs[0]


def test_ppr_misreported_loglik_or_support_rejected(trial, eu):
    payload, eref = eu
    assert checks.check_ppr_fit(dict(payload, loglik=payload["loglik"] + 1e-6), *trial[1], eref)
    t1_max = max(t for t, g in zip(trial[1][0], trial[1][2]) if g == 1)
    assert checks.check_ppr_fit(dict(payload, theta1=1.001 / t1_max), *trial[1], eref)


def test_cox(trial):
    d, cols = trial
    fit = proprisk.cox_two_group(d)
    payload = {"log_hr": fit.log_hr, "hr": fit.hr, "converged": fit.converged,
               "ci_hr": {"lower": fit.ci_hr.lower, "upper": fit.ci_hr.upper}}
    assert checks.check_cox(payload, *cols) == []
    off = dict(payload, log_hr=fit.log_hr + 1e-6, hr=math.exp(fit.log_hr + 1e-6))
    assert any("Breslow score" in m for m in checks.check_cox(off, *cols))


@pytest.fixture(scope="module")
def cell():
    sc = next(s for s in proprisk.default_grid()
              if (s.model.value, s.effect_beta, s.censor_rate, s.n_participants) == ("ppr_eu", 0.25, 0.7, 100))
    sc = dataclasses.replace(sc, seed=SEED)
    reps = [proprisk.simulate_dataset(sc, r) for r in range(20)]
    nrefs = [ref.nppr_reference(d.time.tolist(), d.status.tolist(), d.group.tolist()) for d in reps]
    fits = [proprisk.fit_ppr(d) for d in reps]
    return sc, reps, nrefs, [(f.converged, f.beta) for f in fits]


def test_cell_accepted_and_perturbed_rejected(cell):
    sc, reps, nrefs, fits = cell
    res = proprisk.run_scenario(sc, 20)
    assert checks.check_cell(res, sc.effect_beta, nrefs, fits) == []
    for change in ({"bias_nppr": res.bias_nppr + 1e-6}, {"bias_ppr": res.bias_ppr + 1e-6},
                   {"n_nppr_failed": res.n_nppr_failed + 1}, {"n_ppr_excluded": res.n_ppr_excluded + 1}):
        bad = dataclasses.replace(res, **change)
        assert checks.check_cell(bad, sc.effect_beta, nrefs, fits), change


def test_coverage_band(cell):
    sc, reps, nrefs, _ = cell
    res = proprisk.run_scenario(sc, 20, with_coverage=True, fit_competitor=False,
                                bootstrap_config=proprisk.BootstrapConfig(n_resamples=50))
    assert checks.check_cell(res, sc.effect_beta, nrefs) == []
    assert checks.check_cell(dataclasses.replace(res, coverage_nppr=0.0), sc.effect_beta, nrefs)


def test_censoring_band(cell):
    sc, reps, _, _ = cell
    censored = sum(int((d.status == 0).sum()) for d in reps)
    assert checks.check_censoring(censored, 2000, sc.censor_rate) == []
    assert checks.check_censoring(censored, 2000, sc.censor_rate - 0.2)


def test_binomial_band_tails():
    lo, hi = ref.binomial_band(200, 0.95, 1e-9)
    assert lo < 190 <= hi <= 200
    p_below = sum(math.comb(200, k) * 0.95**k * 0.05 ** (200 - k) for k in range(lo))
    assert p_below <= 1e-9 < p_below + math.comb(200, lo) * 0.95**lo * 0.05 ** (200 - lo)


def test_trial_cli_rejects_tampered_output(tmp_path):
    import workloads

    wl = workloads.TrialCli(HERE.parent, SEED, tmp_path)
    wl.write_inputs()
    wl.load()
    code, text = wl._replay(wl.argv["fit_point"])
    assert wl.check("fit_point", (code, text)) == []
    payload = json.loads(text)
    payload["beta"] += 1e-6
    assert wl.check("fit_point", (0, json.dumps(payload)))
    assert wl.check("fit_point", (3, text)) == ["exit code 3"]


def test_benchmark_json_lists_the_reported_metrics():
    import run
    import workloads

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == run.LAYER_METRICS
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
