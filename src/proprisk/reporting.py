"""File formats and report serialization.

Input CSV schema (fixed): header ``time,status,group`` with status 1 =
event / 0 = right-censored and group 1 = treatment / 0 = control. Column
order is free and extra columns are ignored; every record has as many
fields as the header, and blank lines are skipped.

Report formats: ``table`` is a human summary, ``delimited`` emits CSV
blocks (summary, pointwise series, risk-difference series), ``structured``
is JSON and round-trips losslessly; undefined numbers (e.g. NNT at zero
risk difference) serialize as null. Machine formats keep full float
precision.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import BootstrapResult
from .errors import ValidationError
from .nppr import NpprResult, RiskDifferenceCurve, risk_difference_curve
from .survival import ConfidenceInterval, Dataset, validate_dataset

REQUIRED_COLUMNS = ("time", "status", "group")


def read_dataset_csv(path) -> Dataset:
    """Parse and validate a per-subject CSV file."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            fields = next(reader, [])
            missing = [c for c in REQUIRED_COLUMNS if c not in fields]
            if missing:
                raise ValidationError(f"missing column(s): {', '.join(missing)}")
            repeated = [c for c in REQUIRED_COLUMNS if fields.count(c) > 1]
            if repeated:
                raise ValidationError(f"repeated column(s): {', '.join(repeated)}")
            cols = [fields.index(c) for c in REQUIRED_COLUMNS]
            rows = []
            # blank lines are skipped, so row i is the i-th data record
            for i, rec in enumerate(filter(None, reader), start=1):
                if len(rec) != len(fields):
                    raise ValidationError(f"{len(rec)} fields where the header has {len(fields)} at row {i}")
                rows.append([rec[j] for j in cols])
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None
    return validate_dataset(rows)


def write_dataset_csv(data: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REQUIRED_COLUMNS)
        for t, s, g in zip(data.time, data.status, data.group):
            writer.writerow([repr(float(t)), int(s), int(g)])


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Everything the ``fit`` analysis produces for one dataset."""

    beta: float
    rr: float
    ci_beta: ConfidenceInterval | None
    ci_rr: ConfidenceInterval | None
    n_times_used: int
    t_min: float
    t_max: float
    rd_nnt_series: RiskDifferenceCurve
    pointwise_series: list[tuple[float, float, float]]  # (time, beta_t, weight)


def build_report(result: NpprResult, bootstrap: BootstrapResult | None) -> AnalysisReport:
    est = result.estimate
    window = (result.event_times >= result.t_min) & (result.event_times <= result.t_max)
    rd = risk_difference_curve(est, result.event_times[window], result.cdf[window, 0])
    pointwise = [
        (float(t), float(b), float(1.0 / w))
        for t, b, w in zip(result.points.times, result.points.beta_t, result.points.weight_var)
    ]
    return AnalysisReport(
        beta=est.beta,
        rr=est.rr,
        ci_beta=bootstrap.ci_beta if bootstrap else None,
        ci_rr=bootstrap.ci_rr if bootstrap else None,
        n_times_used=est.n_times_used,
        t_min=result.t_min,
        t_max=result.t_max,
        rd_nnt_series=rd,
        pointwise_series=pointwise,
    )


def _finite(x):
    """x, or None (JSON null) where it is NaN or infinite."""
    return x if math.isfinite(x) else None


def _csv_cell(v):
    """A CSV cell: a float as its repr, empty where it is NaN; anything else as is."""
    if isinstance(v, float):
        return "" if math.isnan(v) else repr(float(v))
    return v


def _ci_to_dict(ci: ConfidenceInterval | None):
    if ci is None:
        return None
    return {
        "lower": _finite(ci.lower),
        "upper": _finite(ci.upper),
        "level": ci.level,
        "n_effective": ci.n_effective,
    }


def _ci_from_dict(obj) -> ConfidenceInterval | None:
    if obj is None:
        return None
    nan = lambda v: math.nan if v is None else float(v)
    return ConfidenceInterval(nan(obj["lower"]), nan(obj["upper"]), obj["level"], obj["n_effective"])


def report_to_json(report: AnalysisReport) -> str:
    rd = report.rd_nnt_series
    payload = {
        "beta": report.beta,
        "rr": report.rr,
        "ci_beta": _ci_to_dict(report.ci_beta),
        "ci_rr": _ci_to_dict(report.ci_rr),
        "n_times_used": report.n_times_used,
        "t_min": report.t_min,
        "t_max": report.t_max,
        "rd_nnt_series": {
            "times": [float(t) for t in rd.times],
            "rd": [float(v) for v in rd.rd],
            "nnt": [_finite(float(v)) for v in rd.nnt],
        },
        "pointwise_series": [[t, b, w] for t, b, w in report.pointwise_series],
    }
    return json.dumps(payload, allow_nan=False, indent=1)


def report_from_json(text: str) -> AnalysisReport:
    obj = json.loads(text)
    rd = obj["rd_nnt_series"]
    series = RiskDifferenceCurve(
        times=np.asarray(rd["times"], dtype=float),
        rd=np.asarray(rd["rd"], dtype=float),
        nnt=np.asarray([math.nan if v is None else v for v in rd["nnt"]], dtype=float),
    )
    return AnalysisReport(
        beta=obj["beta"],
        rr=obj["rr"],
        ci_beta=_ci_from_dict(obj["ci_beta"]),
        ci_rr=_ci_from_dict(obj["ci_rr"]),
        n_times_used=obj["n_times_used"],
        t_min=obj["t_min"],
        t_max=obj["t_max"],
        rd_nnt_series=series,
        pointwise_series=[(r[0], r[1], r[2]) for r in obj["pointwise_series"]],
    )


def reports_equal(a: AnalysisReport, b: AnalysisReport) -> bool:
    """Field-by-field equality treating NaN == NaN (round-trip checks)."""

    def eq(x, y):
        if isinstance(x, float) and isinstance(y, float):
            return (math.isnan(x) and math.isnan(y)) or x == y
        return x == y

    simple = all(
        eq(getattr(a, f), getattr(b, f))
        for f in ("beta", "rr", "n_times_used", "t_min", "t_max", "ci_beta", "ci_rr")
    )
    series = (
        np.array_equal(a.rd_nnt_series.times, b.rd_nnt_series.times)
        and np.array_equal(a.rd_nnt_series.rd, b.rd_nnt_series.rd)
        and np.array_equal(a.rd_nnt_series.nnt, b.rd_nnt_series.nnt, equal_nan=True)
        and a.pointwise_series == b.pointwise_series
    )
    return simple and series


def _fmt(x: float | None, digits: int = 6) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "NA"
    return f"{x:.{digits}g}"


def _ci_text(ci: ConfidenceInterval | None) -> str:
    if ci is None:
        return "not computed"
    pct = f"{100 * ci.level:g}%"
    return f"{pct} CI [{_fmt(ci.lower)}, {_fmt(ci.upper)}] (n_effective={ci.n_effective})"


def emit_report(report: AnalysisReport, fmt: str = "table", stream=None) -> str:
    """Serialize an AnalysisReport; returns the text and writes it to
    ``stream`` when one is given."""
    if fmt == "structured":
        text = report_to_json(report) + "\n"
    elif fmt == "table":
        lines = [
            "Two-group proportional-risk analysis",
            f"  log relative risk (beta) : {_fmt(report.beta)}    {_ci_text(report.ci_beta)}",
            f"  relative risk exp(-beta) : {_fmt(report.rr)}    {_ci_text(report.ci_rr)}",
            f"  event times used         : {report.n_times_used} "
            f"in [{_fmt(report.t_min)}, {_fmt(report.t_max)}]",
            f"  risk-difference grid     : {report.rd_nnt_series.times.shape[0]} time points "
            "(use plotdata or the structured format for the series)",
        ]
        text = "\n".join(lines) + "\n"
    elif fmt == "delimited":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        writer.writerow(["beta", repr(report.beta)])
        writer.writerow(["rr", repr(report.rr)])
        for name, ci in (("beta", report.ci_beta), ("rr", report.ci_rr)):
            if ci is not None:
                writer.writerow([f"ci_{name}_lower", repr(ci.lower)])
                writer.writerow([f"ci_{name}_upper", repr(ci.upper)])
                writer.writerow([f"ci_{name}_level", repr(ci.level)])
                writer.writerow([f"ci_{name}_n_effective", ci.n_effective])
        writer.writerow(["n_times_used", report.n_times_used])
        writer.writerow(["t_min", repr(report.t_min)])
        writer.writerow(["t_max", repr(report.t_max)])
        buf.write("\n")
        writer.writerow(["time", "beta_t", "weight"])
        for t, b, w in report.pointwise_series:
            writer.writerow([repr(t), repr(b), repr(w)])
        buf.write("\n")
        writer.writerow(["time", "rd", "nnt"])
        rd = report.rd_nnt_series
        for t, r, nnt in zip(rd.times, rd.rd, rd.nnt):
            writer.writerow([repr(float(t)), repr(float(r)), _csv_cell(nnt)])
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")

    if stream is not None:
        stream.write(text)
    return text
