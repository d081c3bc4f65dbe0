import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import proprisk as pr
from oracles import km_oracle, scenario_to_dict
from proprisk import cli
from proprisk.cli import main
from proprisk.reporting import write_dataset_csv
from proprisk.survival import validate_dataset

TRIAL = str(Path(pr.__file__).parent / "data" / "synthetic_trial.csv")


@pytest.fixture()
def data_csv(tmp_path):
    sc = pr.make_scenario(pr.Model.PPR_EU, 0.5, 0.3, 120, seed=31)
    path = tmp_path / "trial.csv"
    write_dataset_csv(pr.simulate_dataset(sc, 0), path)
    return str(path)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestFit:
    def test_structured_output(self, data_csv):
        code, out = run_cli("fit", "--data", data_csv, "--bootstrap", "30", "--seed", "1",
                            "--format", "structured")
        assert code == 0
        report = json.loads(out)
        assert report["ci_beta"] is not None
        assert report["ci_beta"]["level"] == 0.95

    def test_table_default(self, data_csv):
        code, out = run_cli("fit", "--data", data_csv, "--bootstrap", "0")
        assert code == 0
        assert "relative risk" in out

    def test_no_bootstrap_skips_ci(self, data_csv):
        code, out = run_cli("fit", "--data", data_csv, "--bootstrap", "0",
                            "--format", "structured")
        assert json.loads(out)["ci_beta"] is None

    def test_deterministic_given_seed(self, data_csv):
        _, a = run_cli("fit", "--data", data_csv, "--bootstrap", "20", "--seed", "5",
                       "--format", "structured")
        _, b = run_cli("fit", "--data", data_csv, "--bootstrap", "20", "--seed", "5",
                       "--format", "structured")
        assert a == b

    def test_level_flag(self, data_csv):
        _, out = run_cli("fit", "--data", data_csv, "--bootstrap", "20", "--level", "0.9",
                         "--format", "structured")
        assert json.loads(out)["ci_beta"]["level"] == 0.9

    def test_validation_exit_code(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,status,group\n-1.0,1,1\n")
        code, _ = run_cli("fit", "--data", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"time,status,group\n1.0,1,1\n2.0\xff,1,0\n", "{path} is not UTF-8"),
            ("time,status,group\n1.0,1,1\n2.0,1,0\n".encode("utf-16"), "{path} is not UTF-8"),
            (b"time,status,group,time\n1.0,1,1,5.0\n2.0,1,0,6.0\n", "repeated column(s): time"),
            (b"time,status,group\n1.0,1,1\n1e309,1,0\n", "nonfinite time at row 2"),
            (b"time,status,group\n1.0,1,1\n2.0,x,0\n", "unparsable status/group at row 2"),
            (b"time,status,group\n1.0,1,1\n2.0,1\n", "2 fields where the header has 3 at row 2"),
            (b"time,status,group\n1.0,1,1\n\n2.0,1,0,9\n", "4 fields where the header has 3 at row 2"),
            (b"time,status,group\n", "dataset is empty"),
            (b"time,status,group\n1.0,1,1\n" + b"1" * (csv.field_size_limit() + 1) + b",1,0\n",
             f"{{path}}: field larger than field limit ({csv.field_size_limit()}) at row 2"),
        ],
        ids=["stray_0xff", "utf16", "repeated_time", "overflow_time", "unparsable_status", "short_record",
             "surplus_field", "header_only", "field_over_limit"],
    )
    def test_unreadable_csv_exit_code(self, tmp_path, raw, message, capsys):
        path = tmp_path / "odd.csv"
        path.write_bytes(raw)
        code, out = run_cli("fit", "--data", str(path), "--bootstrap", "0")
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: " + message.format(path=path))

    @pytest.mark.parametrize(
        "quirk",
        [
            lambda lines: [lines[0]] + [line + "\n" for line in lines[1:]],
            lambda lines: [line + ",extra" for line in lines],
            lambda lines: [lines[0]] + [line.replace(",1", ",1.0").replace(",0", ",0.0") for line in lines[1:]],
        ],
        ids=["blank_lines", "extra_column", "float_status_group"],
    )
    def test_quirky_csv_fits_like_plain(self, data_csv, tmp_path, quirk):
        lines = open(data_csv).read().splitlines()
        path = tmp_path / "quirky.csv"
        path.write_text("\n".join(quirk(lines)) + "\n")
        _, plain = run_cli("fit", "--data", data_csv, "--bootstrap", "0", "--format", "structured")
        code, quirky = run_cli("fit", "--data", str(path), "--bootstrap", "0", "--format", "structured")
        assert code == 0
        assert quirky == plain

    def test_estimation_failure_exit_code(self, tmp_path):
        path = tmp_path / "nofit.csv"
        path.write_text("time,status,group\n1.0,1,1\n2.0,0,0\n")
        code, _ = run_cli("fit", "--data", str(path), "--bootstrap", "0")
        assert code == 3

    @pytest.mark.parametrize(
        "flags",
        [
            ("--bootstrap", "1"),
            ("--bootstrap", "-5"),
            ("--level", "1.5"),
            ("--level", "0"),
            ("--level", "1.5", "--bootstrap", "0"),
            ("--seed", "-1"),
            ("--seed", "-1", "--bootstrap", "0"),
            ("--bootstrap", "4294967297"),
        ],
    )
    def test_bad_bootstrap_flags_exit_code(self, data_csv, flags, capsys):
        code, out = run_cli("fit", "--data", data_csv, *flags)
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: --")

    def test_bootstrap_above_2_32_rejected_before_reading_data(self, tmp_path, capsys):
        code, out = run_cli("fit", "--data", str(tmp_path / "missing.csv"), "--bootstrap", str(2**32 + 1))
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: --bootstrap")


class TestParametricCommands:
    def test_ppr_fit(self, data_csv):
        code, out = run_cli("ppr-fit", "--data", data_csv)
        payload = json.loads(out)
        assert code == 0
        assert payload["converged"]
        assert payload["rr"] == pytest.approx(
            (payload["theta1"] / payload["theta0"]) ** payload["alpha"], rel=1e-9
        )

    @pytest.mark.parametrize(
        "effect, rate, ci_reason", [(0.0, 0.7, ""), (0.5, 0.3, "estimate at support boundary")]
    )
    def test_ppr_fit_ci_reason(self, tmp_path, effect, rate, ci_reason):
        sc = pr.make_scenario(pr.Model.PPR_EU, effect, rate, 120, seed=31)
        path = tmp_path / "trial.csv"
        write_dataset_csv(pr.simulate_dataset(sc, 0), path)
        code, out = run_cli("ppr-fit", "--data", str(path))
        payload = json.loads(out)
        assert code == 0
        assert payload["ci_reason"] == ci_reason
        assert (payload["ci_beta"] is None) == bool(ci_reason)

    def test_ppr_fit_overflowing_rr_is_null(self, tmp_path):
        # alpha = 765.5 and log RR = 1297.2: RR overflows a float
        path = tmp_path / "steep.csv"
        path.write_text(
            "time,status,group\n6.802643264328159,1,0\n0.7743490126275611,0,0\n1.2494447910629076,1,1\n"
            "0.3712993410902009,0,1\n2.5224244808724343,0,0\n6.7760360718094095,1,0\n"
        )
        code, out = run_cli("ppr-fit", "--data", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] and math.isfinite(payload["beta"])
        assert payload["rr"] is None

    def test_cox(self, data_csv):
        code, out = run_cli("cox", "--data", data_csv)
        payload = json.loads(out)
        assert code == 0
        assert payload["converged"]
        assert payload["ci_hr"]["lower"] < payload["hr"] < payload["ci_hr"]["upper"]

    def test_cox_nonconvergence_exit_code(self, tmp_path):
        path = tmp_path / "mono.csv"
        path.write_text(
            "time,status,group\n1.0,1,1\n1.5,1,1\n5.0,1,0\n6.0,1,0\n"
        )
        code, out = run_cli("cox", "--data", str(path))
        assert code == 4
        assert not json.loads(out)["converged"]

    def test_cox_monotone_likelihood_prints_no_estimate(self, tmp_path):
        # the last Newton iterate is not printed as a log HR
        path = tmp_path / "mono.csv"
        path.write_text("time,status,group\n1.0,1,1\n1.5,1,1\n5.0,1,0\n6.0,1,0\n")
        code, out = run_cli("cox", "--data", str(path))
        assert code == 4
        payload = json.loads(out)
        assert payload["reason"] == "monotone likelihood"
        assert payload["log_hr"] is None and payload["hr"] is None and payload["ci_hr"] is None

    @pytest.mark.parametrize(
        "command, target, key", [("ppr-fit", "fit_ppr", "ci_beta"), ("cox", "cox_two_group", "ci_hr")]
    )
    def test_infinite_interval_end_is_null(self, data_csv, monkeypatch, command, target, key):
        # both commands write their interval under fit's rule: an infinite end is null
        real = getattr(cli, target)
        def fit_with_infinite_upper(data):
            fit = real(data)
            return replace(fit, **{key: pr.ConfidenceInterval(0.5, math.inf, 0.95)})
        monkeypatch.setattr(cli, target, fit_with_infinite_upper)
        code, out = run_cli(command, "--data", data_csv)
        assert code == 0
        assert json.loads(out)[key] == {"lower": 0.5, "upper": None, "level": 0.95}

    @pytest.mark.parametrize(
        "command, nulls",
        [
            ("ppr-fit", ("alpha", "theta1", "theta0", "beta", "rr", "ci_beta", "loglik")),
            ("cox", ("log_hr", "hr", "ci_hr")),
        ],
    )
    def test_nonconvergence_output_is_strict_json(self, tmp_path, command, nulls):
        path = tmp_path / "noevents0.csv"  # group 0 has no events
        path.write_text("time,status,group\n1.0,1,1\n2.0,0,0\n3.0,1,1\n")
        code, out = run_cli(command, "--data", str(path))
        assert code == 4
        def reject(name):
            raise ValueError(f"non-finite number {name} in output")
        payload = json.loads(out, parse_constant=reject)
        assert not payload["converged"]
        assert payload["reason"] == "a group has no events"
        for key in nulls:
            assert payload[key] is None, key


# a string or a boolean where a grid file's number goes, which float() and
# operator.index would coerce: kind -> (field, value); alpha is in params
WRONG_TYPES = {
    "string_participants": ("n_participants", "50"),
    "string_effect": ("effect_beta", "0.5"),
    "string_rate": ("censor_rate", "0.3"),
    "bool_participants": ("n_participants", True),
    "bool_seed": ("seed", True),
    "bool_effect": ("effect_beta", True),
    "bool_alpha": ("alpha", True),
    "bool_cmax": ("censor_cmax", True),
}


# a grid file whose JSON is not a list of scenario objects: kind -> file text
NOT_OBJECTS = {
    "number_file": "5",
    "number_scenario": "[5]",
    "string_file": '"x"',
}


def _grid_file(tmp_path, kind):
    """A one-scenario grid file: valid, or broken in the way ``kind`` names."""

    path = tmp_path / f"{kind}.json"
    obj = scenario_to_dict(pr.default_grid()[2])  # a PR (EU) cell
    weibull = scenario_to_dict(pr.default_grid()[47])
    if kind == "valid":
        path.write_text(json.dumps([obj]))
    elif kind == "invalid_json":
        path.write_text("[{")
    elif kind == "unknown_model":
        path.write_text(json.dumps([dict(obj, model="lognormal")]))
    elif kind == "no_participants":
        path.write_text(json.dumps([dict(obj, n_participants=-3)]))
    elif kind == "huge_participants":
        # rejected before anything is allocated
        path.write_text(json.dumps([dict(obj, n_participants=1e30)]))
    elif kind == "fractional_participants":
        path.write_text(json.dumps([dict(obj, n_participants=2.7)]))
    elif kind == "negative_alpha":
        path.write_text(json.dumps([dict(obj, params=dict(obj["params"], alpha=-1.0))]))
    elif kind == "zero_lambda":
        path.write_text(json.dumps([dict(weibull, params=dict(weibull["params"], lambda1=0.0))]))
    elif kind == "negative_cmax":
        path.write_text(json.dumps([dict(obj, censor_cmax=-5.0)]))
    elif kind == "censor_rate_above_one":
        path.write_text(json.dumps([dict(obj, censor_rate=1.5)]))
    elif kind == "censor_rate_zero":
        path.write_text(json.dumps([dict(obj, censor_rate=0.0)]))
    elif kind == "nan_effect":
        path.write_text(json.dumps([dict(obj, effect_beta=float("nan"))]))
    elif kind == "censoring_above_floor":
        # even c_max = 1e-8 censors only 1 - 1.3e-9 of this cell's subjects
        del obj["censor_cmax"]
        path.write_text(json.dumps([dict(obj, censor_rate=0.999999999999)]))
    elif kind == "censoring_unreachable":
        del obj["censor_cmax"]
        path.write_text(json.dumps([dict(obj, params={"alpha": 1.0, "theta1": 1e-13, "theta0": 1e-13})]))
    elif kind == "negative_seed":
        path.write_text(json.dumps([dict(obj, seed=-1)]))
    elif kind == "fractional_seed":
        path.write_text(json.dumps([dict(obj, seed=1.5)]))
    elif kind == "negative_fractional_seed":
        # int() would truncate it to 0, past the negative-seed check
        path.write_text(json.dumps([dict(obj, seed=-0.5)]))
    elif kind == "missing_field":
        del obj["censor_rate"]
        path.write_text(json.dumps([obj]))
    elif kind == "second_missing_field":
        del weibull["censor_rate"]
        path.write_text(json.dumps([obj, weibull]))
    elif kind in NOT_OBJECTS:
        path.write_text(NOT_OBJECTS[kind])
    elif kind == "array_params":
        path.write_text(json.dumps([dict(obj, params=[1, 2, 3])]))
    elif kind == "unknown_field":
        # a misspelled optional field would otherwise be ignored, here a calibrated c_max
        path.write_text(json.dumps([dict(obj, extra=2)]))
    elif kind == "unknown_param":
        path.write_text(json.dumps([dict(obj, params=dict(obj["params"], k=2.0))]))
    elif kind in WRONG_TYPES:
        field, value = WRONG_TYPES[kind]
        (obj["params"] if field == "alpha" else obj)[field] = value
        path.write_text(json.dumps([obj]))
    elif kind == "zero_times":
        # the Weibull quantile runs from 0.0 to inf: simulated times of 0.0, which `fit` rejects
        params = {"k": 1e-3, "lambda1": 1e300, "lambda0": 1e-300}
        path.write_text(json.dumps([dict(weibull, effect_beta=0.0, params=params, censor_cmax=1e300)]))
    return str(path)


BAD_GRID_KINDS = [
    "missing",
    "invalid_json",
    "unknown_model",
    "no_participants",
    "huge_participants",
    "fractional_participants",
    "negative_alpha",
    "zero_lambda",
    "negative_cmax",
    "censor_rate_above_one",
    "censor_rate_zero",
    "nan_effect",
    "censoring_unreachable",
    "censoring_above_floor",
    "negative_seed",
    "fractional_seed",
    "negative_fractional_seed",
    "zero_times",
    "missing_field",
    *WRONG_TYPES,
    *NOT_OBJECTS,
    "array_params",
    "unknown_field",
    "unknown_param",
]


class TestSimulateCommand:
    def test_writes_replicates(self, tmp_path):
        grid = pr.default_grid()
        sc = [s for s in grid if s.n_participants == 50][0]
        path = tmp_path / "scenario.json"

        path.write_text(json.dumps([scenario_to_dict(sc)]))
        out_dir = tmp_path / "out"
        code, _ = run_cli("simulate", "--scenario", str(path), "--reps", "3",
                          "--seed", "9", "--out", str(out_dir))
        assert code == 0
        files = sorted(out_dir.glob("replicate_*.csv"))
        assert len(files) == 3
        data = pr.read_dataset_csv(files[0])
        assert len(data) == 50

    @pytest.mark.parametrize("flags", [("--reps", "0"), ("--reps", "-1"), ("--seed", "-1")])
    def test_bad_run_flags_exit_code(self, tmp_path, flags, capsys):
        path = _grid_file(tmp_path, "valid")
        argv = {"--reps": "1", "--seed": "1"}
        argv.update([flags])
        code, _ = run_cli("simulate", "--scenario", path, "--out", str(tmp_path / "o"),
                          *(x for kv in argv.items() for x in kv))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {flags[0]}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", BAD_GRID_KINDS)
    def test_bad_scenario_file_exit_code(self, tmp_path, kind, capsys):
        path = _grid_file(tmp_path, kind)
        code, _ = run_cli("simulate", "--scenario", path, "--reps", "1", "--seed", "1",
                          "--out", str(tmp_path / "o"))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("taken", ["out", "out/replicate_0000.csv"])
    def test_unwritable_out_exit_code(self, tmp_path, taken, capsys):
        # a file where the directory goes, or a directory where a CSV goes
        path = _grid_file(tmp_path, "valid")
        out = tmp_path / "out"
        if taken == "out":
            out.write_text("a file, not a directory\n")
        else:
            (tmp_path / taken).mkdir(parents=True)
        code, _ = run_cli("simulate", "--scenario", path, "--reps", "1", "--seed", "1", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_rejects_multi_scenario_file(self, tmp_path):

        grid = pr.default_grid()[:2]
        path = tmp_path / "two.json"
        path.write_text(json.dumps([scenario_to_dict(s) for s in grid]))
        code, _ = run_cli("simulate", "--scenario", str(path), "--reps", "1",
                          "--seed", "1", "--out", str(tmp_path / "o"))
        assert code == 2


class TestStudyCommand:
    def test_bad_bootstrap_exit_code(self, capsys):
        code, out = run_cli("study", "--grid", "default", "--reps", "1", "--bootstrap", "1", "--seed", "1")
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: --bootstrap")

    def test_bootstrap_above_2_32_rejected_before_any_scenario(self, capsys):
        argv = ("--grid", "default", "--reps", "1", "--coverage", "--bootstrap", str(2**32 + 1), "--seed", "1")
        code, out = run_cli("study", *argv)
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: --bootstrap")

    @pytest.mark.parametrize("flags", [("--reps", "0"), ("--reps", "-2"), ("--seed", "-5")])
    def test_bad_run_flags_exit_code(self, flags, capsys):
        argv = {"--reps": "1", "--seed": "1"}
        argv.update([flags])
        code, out = run_cli("study", "--grid", "default", *(x for kv in argv.items() for x in kv))
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith(f"error: {flags[0]}")

    @pytest.mark.parametrize("kind", BAD_GRID_KINDS)
    def test_bad_grid_file_exit_code(self, tmp_path, kind, capsys):
        path = _grid_file(tmp_path, kind)
        code, out = run_cli("study", "--grid", path, "--reps", "1", "--seed", "1")
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    # For the kinds whose field check fails inside a scenario, the message is
    # the check's own and the index is the scenario's: load_grid writes
    # "scenario i: " before it.
    FIELD_ERROR_SCENARIO = {"missing_field": 0, "second_missing_field": 1,
                            "string_participants": 0, "bool_alpha": 0,
                            "unknown_field": 0, "unknown_param": 0}

    @pytest.mark.parametrize("kind, message", [
        ("missing_field", "missing field 'censor_rate'"),
        ("second_missing_field", "missing field 'censor_rate'"),
        ("string_participants", "n_participants must be a number, got '50'"),
        ("bool_alpha", "model parameter alpha must be a number, got True"),
        ("number_file", "expected a scenario object or a list of them, got a number"),
        ("number_scenario", "scenario 0 must be an object, got a number"),
        ("array_params", "scenario 0: params must be an object, got an array"),
        ("unknown_field", "unknown field 'extra'"),
        ("unknown_param", "unknown field 'k' in ppr_eu params"),
    ])
    def test_grid_file_error_names_the_field(self, tmp_path, kind, message, capsys):
        if kind in self.FIELD_ERROR_SCENARIO:
            message = f"scenario {self.FIELD_ERROR_SCENARIO[kind]}: {message}"
        path = _grid_file(tmp_path, kind)
        code, out = run_cli("study", "--grid", path, "--reps", "1", "--seed", "1")
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_small_grid(self, tmp_path):

        grid = [pr.make_scenario(pr.Model.PPR_EU, 0.0, 0.5, 40, seed=0),
                pr.make_scenario(pr.Model.WEIBULL_PH, 0.5, 0.3, 40, seed=0)]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps([scenario_to_dict(s) for s in grid]))
        code, out = run_cli("study", "--grid", str(path), "--reps", "5", "--seed", "2")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "model"
        assert len(rows) == 3
        assert rows[1][0] == "ppr_eu"
        assert rows[2][0] == "weibull_ph"

    def test_deterministic(self, tmp_path):

        grid = [pr.make_scenario(pr.Model.PPR_EU, 0.25, 0.3, 30, seed=0)]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps([scenario_to_dict(s) for s in grid]))
        _, a = run_cli("study", "--grid", str(path), "--reps", "4", "--seed", "3")
        _, b = run_cli("study", "--grid", str(path), "--reps", "4", "--seed", "3")
        assert a == b


class TestPlotData:
    @pytest.mark.parametrize("series,header", [
        ("cdf", ["time", "cdf_treatment", "cdf_control"]),
        ("beta_t", ["time", "beta_t"]),
        ("weights", ["time", "weight"]),
        ("nnt", ["time", "rd", "nnt"]),
    ])
    def test_series(self, data_csv, series, header):
        code, out = run_cli("plotdata", "--data", data_csv, "--series", series)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == header
        assert len(rows) > 2
        float(rows[1][0])  # parses as numbers

    @pytest.mark.parametrize("which", ["trial", "equal_risk"])
    def test_series_match_fit_report(self, tmp_path, which):
        """plotdata's rows are columns of the fit report, in its delimited
        and its structured form (equal risk: every NNT is null)."""
        if which == "trial":
            path = TRIAL
        else:
            path = str(tmp_path / "equal.csv")
            write_dataset_csv(validate_dataset(
                [(t, s, g) for g in (1, 0) for t, s in [(1.0, 1), (2.0, 1), (3.0, 0)]]), path)
        _, delimited = run_cli("fit", "--data", path, "--bootstrap", "0", "--format", "delimited")
        _, structured = run_cli("fit", "--data", path, "--bootstrap", "0", "--format", "structured")
        _, pointwise, rd_nnt = (list(csv.reader(io.StringIO(b))) for b in delimited.split("\n\n"))
        plot = {}
        for series in ("beta_t", "weights", "nnt"):
            code, out = run_cli("plotdata", "--data", path, "--series", series)
            assert code == 0
            plot[series] = list(csv.reader(io.StringIO(out)))
        assert plot["beta_t"] == [[t, b] for t, b, _ in pointwise]
        assert plot["weights"] == [[t, w] for t, _, w in pointwise]
        assert plot["nnt"] == rd_nnt

        doc = json.loads(structured)
        number = lambda cell: float(cell) if cell else None
        assert [[float(t), float(b)] for t, b in plot["beta_t"][1:]] == [r[:2] for r in doc["pointwise_series"]]
        assert [[float(t), float(w)] for t, w in plot["weights"][1:]] == [r[::2] for r in doc["pointwise_series"]]
        rd = doc["rd_nnt_series"]
        assert [[float(t), float(r), number(n)] for t, r, n in plot["nnt"][1:]] == [
            list(row) for row in zip(rd["times"], rd["rd"], rd["nnt"])
        ]
        if which == "equal_risk":
            assert rd["nnt"] == [None] * len(rd["times"]) and all(row[2] == "" for row in rd_nnt[1:])
        else:
            assert None not in rd["nnt"]

    def test_cdf_values_match_api(self, data_csv):
        data = pr.read_dataset_csv(data_csv)
        res = pr.nppr_fit(data)
        _, out = run_cli("plotdata", "--data", data_csv, "--series", "cdf")
        # floats are written as their repr, so every row round-trips exactly
        table = np.array([[float(v) for v in row] for row in list(csv.reader(io.StringIO(out)))[1:]])
        assert table.shape == (res.event_times.shape[0], 3)
        assert table[:, 0].tobytes() == res.event_times.tobytes()
        assert table[:, 1].tobytes() == res.cdf[:, 1].tobytes()
        assert table[:, 2].tobytes() == res.cdf[:, 0].tobytes()

    def test_cdf_needs_no_nppr_window(self, tmp_path):
        # treatment's events all precede control's: the NPPR window is empty,
        # but the Kaplan-Meier CDFs exist
        rows = [(1.0, 1, 1), (2.0, 1, 1), (3.0, 0, 1), (4.0, 1, 0), (5.0, 1, 0), (6.0, 0, 0)]
        path = str(tmp_path / "disjoint.csv")
        write_dataset_csv(validate_dataset(rows), path)
        assert run_cli("fit", "--data", path, "--bootstrap", "0")[0] == 3
        code, out = run_cli("plotdata", "--data", path, "--series", "cdf")
        assert code == 0
        table = [[float(v) for v in row] for row in list(csv.reader(io.StringIO(out)))[1:]]
        assert [row[0] for row in table] == [1.0, 2.0, 4.0, 5.0]
        for col, g in ((1, 1), (2, 0)):
            km = km_oracle([(t, s) for t, s, grp in rows if grp == g])
            expected = [1.0 - next((k[1] for k in reversed(km) if k[0] <= t), 1.0) for t, *_ in table]
            assert [row[col] for row in table] == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("argv", [
    ("plotdata", "--data", TRIAL, "--series", "beta_t"),
    ("cox", "--data", TRIAL),
])
def test_closed_stdout_exits_without_traceback(argv):
    """A reader that closes stdout early (`| head -1`) ends the command with
    exit code 1 and a quiet stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(pr.__file__).resolve().parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "proprisk.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
