import csv
import io
import json
import math

import numpy as np
import pytest

import proprisk as pr
from proprisk.reporting import (
    build_report,
    emit_report,
    read_dataset_csv,
    report_to_json,
    write_dataset_csv,
)
from proprisk.survival import validate_dataset


def _dataset():
    rows = [(1.0, 1, 1), (1.5, 1, 0), (2.0, 1, 1), (2.5, 1, 0),
            (3.0, 0, 1), (4.0, 1, 0), (5.0, 1, 1), (6.0, 0, 0)]
    return validate_dataset(rows)


def _report(with_ci=True):
    data = _dataset()
    result = pr.nppr_fit(data)
    boot = pr.percentile_bootstrap(data, pr.BootstrapConfig(n_resamples=25, seed=3)) if with_ci else None
    return build_report(result, boot)


class TestCsvIO:
    def test_round_trip(self, tmp_path):
        data = _dataset()
        path = tmp_path / "d.csv"
        write_dataset_csv(data, path)
        back = read_dataset_csv(path)
        np.testing.assert_array_equal(back.time, data.time)
        np.testing.assert_array_equal(back.status, data.status)
        np.testing.assert_array_equal(back.group, data.group)

    def test_reads_simple_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status,group\n2.0,1,1\n3.5,0,0\n")
        data = read_dataset_csv(path)
        assert len(data) == 2

    def test_reads_byte_order_mark(self, tmp_path):
        text = b"time,status,group\n1.0,1,1\n2.0,1,0\n3.0,1,1\n4.0,1,0\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text)
        bom.write_bytes(b"\xef\xbb\xbf" + text)
        data = read_dataset_csv(bom)
        assert len(data) == 4
        assert pr.nppr_fit(data).estimate == pr.nppr_fit(read_dataset_csv(plain)).estimate

    def test_column_order_free(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("group,time,status\n1,2.0,1\n0,3.5,0\n")
        data = read_dataset_csv(path)
        assert data.time[0] == 2.0

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status\n2.0,1\n")
        with pytest.raises(pr.ValidationError, match="group"):
            read_dataset_csv(path)

    def test_bad_value_reports_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status,group\n2.0,1,1\nx,0,0\n")
        with pytest.raises(pr.ValidationError, match="row 2"):
            read_dataset_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(pr.ValidationError, match="cannot read"):
            read_dataset_csv(tmp_path / "nope.csv")


class TestReportSerialization:
    def test_json_round_trip(self):
        report = _report()
        assert json.loads(report_to_json(report)) == report

    def test_json_round_trip_without_ci(self):
        report = _report(with_ci=False)
        back = json.loads(report_to_json(report))
        assert back == report
        assert back["ci_beta"] is None

    def test_nan_nnt_serializes_as_null(self):
        rows = [(t, s, 1) for t, s in [(1.0, 1), (2.0, 1), (3.0, 0)]]
        rows += [(t, s, 0) for t, s in [(1.0, 1), (2.0, 1), (3.0, 0)]]
        data = validate_dataset(rows)
        report = build_report(pr.nppr_fit(data), None)
        assert report["rd_nnt_series"]["rd"][0] == 0.0
        assert report["rd_nnt_series"]["nnt"][0] is None
        text = report_to_json(report)
        assert "NaN" not in text
        assert json.loads(text) == report

    def test_structured_full_precision(self):
        report = _report(with_ci=False)
        back = json.loads(report_to_json(report))
        assert back["beta"] == report["beta"]  # bit-exact, not approximately

    def test_rr_consistency(self):
        report = _report(with_ci=False)
        assert report["rr"] == pytest.approx(math.exp(-report["beta"]), rel=1e-15)


class TestEmitFormats:
    def test_table_format(self):
        text = emit_report(_report(), "table")
        assert "relative risk" in text
        assert "CI" in text

    def test_delimited_blocks(self):
        text = emit_report(_report(), "delimited")
        blocks = text.strip().split("\n\n")
        assert len(blocks) == 3
        head = list(csv.reader(io.StringIO(blocks[0])))
        assert head[0] == ["key", "value"]
        keys = {row[0] for row in head[1:]}
        assert {"beta", "rr", "n_times_used"} <= keys
        series = list(csv.reader(io.StringIO(blocks[1])))
        assert series[0] == ["time", "beta_t", "weight"]
        rdnnt = list(csv.reader(io.StringIO(blocks[2])))
        assert rdnnt[0] == ["time", "rd", "nnt"]

    def test_delimited_round_trip_values(self):
        report = _report(with_ci=False)
        text = emit_report(report, "delimited")
        head = dict(
            row for row in csv.reader(io.StringIO(text.split("\n\n")[0])) if row[0] != "key"
        )
        assert float(head["beta"]) == report["beta"]

    def test_structured_text(self):
        text = emit_report(_report(), "structured")
        assert text == report_to_json(_report()) + "\n"
        assert json.loads(text) == _report()

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(_report(), "yaml")

    def test_deterministic(self):
        assert emit_report(_report(), "structured") == emit_report(_report(), "structured")

    def test_series_times_within_window(self):
        report = _report()
        times = report["rd_nnt_series"]["times"] + [t for t, _, _ in report["pointwise_series"]]
        assert all(report["t_min"] <= t <= report["t_max"] for t in times)

    def test_null_effect_rr_one_in_all_formats(self):
        rows = [(t, s, g) for g in (0, 1) for t, s in
                [(1.0, 1), (2.0, 1), (3.0, 0), (4.0, 1)]]
        report = build_report(pr.nppr_fit(validate_dataset(rows)), None)
        assert json.loads(report_to_json(report))["rr"] == 1.0
        rr_line = [l for l in emit_report(report, "table").splitlines() if "exp(-beta)" in l][0]
        assert rr_line.split(":")[1].strip().split()[0] == "1"
        delim = emit_report(report, "delimited")
        head = dict(row for row in csv.reader(io.StringIO(delim.split("\n\n")[0]))
                    if row[0] != "key")
        assert float(head["rr"]) == 1.0
