"""File formats, report serialization and the study table (:func:`write_grid_csv`).

Input CSV schema (fixed): header ``time,status,group`` with status 1 =
event / 0 = right-censored and group 1 = treatment / 0 = control. Column
order is free and extra columns are ignored; every record has as many
fields as the header, and blank lines are skipped.

The documents of ``fit``, ``ppr-fit`` and ``cox`` are JSON-ready dicts
(:func:`build_report`, :func:`ppr_report`, :func:`cox_report`) with one
interval rule and None for undefined numbers, so
``json.loads(report_to_json(doc)) == doc``. Every ``fit`` format writes its
dict: ``table`` is a human summary, ``delimited`` emits CSV blocks (summary,
pointwise series, risk-difference series) with None as an empty cell, and
``structured`` is its JSON. Machine formats keep full float precision.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from .bootstrap import BootstrapResult
from .errors import ValidationError
from .models import CoxFit, PprFit
from .nppr import NpprResult, risk_difference_curve
from .study import GRID_COLUMNS, ScenarioResult
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
        fields, rows = None, []
        try:
            fields = next(reader, [])
            missing = [c for c in REQUIRED_COLUMNS if c not in fields]
            if missing:
                raise ValidationError(f"missing column(s): {', '.join(missing)}")
            repeated = [c for c in REQUIRED_COLUMNS if fields.count(c) > 1]
            if repeated:
                raise ValidationError(f"repeated column(s): {', '.join(repeated)}")
            cols = [fields.index(c) for c in REQUIRED_COLUMNS]
            # blank lines are skipped, so row i is the i-th data record
            for i, rec in enumerate(filter(None, reader), start=1):
                if len(rec) != len(fields):
                    raise ValidationError(f"{len(rec)} fields where the header has {len(fields)} at row {i}")
                rows.append([rec[j] for j in cols])
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            where = "the header" if fields is None else f"row {len(rows) + 1}"
            raise ValidationError(f"{path}: {exc} at {where}") from None
    return validate_dataset(rows)


def write_dataset_csv(data: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REQUIRED_COLUMNS)
        for t, s, g in zip(data.time, data.status, data.group):
            writer.writerow([repr(float(t)), int(s), int(g)])


def build_report(result: NpprResult, bootstrap: BootstrapResult | None) -> dict:
    """The ``fit`` report: the JSON document that every format writes.

    Its numbers are Python floats; a CI end or NNT that is NaN or infinite
    (NNT where the risk difference is 0) is None. ``pointwise_series``
    holds ``[time, beta_t, weight]`` rows with weight = 1/omega(t).
    """
    est, pts = result.estimate, result.points
    rd = risk_difference_curve(result)
    return {
        "beta": est.beta,
        "rr": est.rr,
        "ci_beta": _ci_to_dict(bootstrap.ci_beta) if bootstrap else None,
        "ci_rr": _ci_to_dict(bootstrap.ci_rr) if bootstrap else None,
        "n_times_used": est.n_times_used,
        "t_min": result.t_min,
        "t_max": result.t_max,
        "rd_nnt_series": {
            "times": rd.times.tolist(),
            "rd": rd.rd.tolist(),
            "nnt": [_finite(v) for v in rd.nnt.tolist()],
        },
        "pointwise_series": np.stack((pts.times, pts.beta_t, 1.0 / pts.weight_var), axis=1).tolist(),
    }


def _finite(x):
    """x, or None (JSON null) where it is NaN or infinite."""
    return x if math.isfinite(x) else None


def _csv_cell(v):
    """A CSV cell: a float as its repr, empty where it is NaN; anything else as is."""
    if isinstance(v, float):
        return "" if math.isnan(v) else repr(float(v))
    return v


def _ci_to_dict(ci: ConfidenceInterval) -> dict | None:
    """An interval's JSON: None without one (NaN ends), an infinite end None, its n_effective if non-zero."""
    if math.isnan(ci.lower):
        return None
    doc = {"lower": _finite(ci.lower), "upper": _finite(ci.upper), "level": ci.level}
    return dict(doc, n_effective=ci.n_effective) if ci.n_effective else doc


def ppr_report(fit: PprFit) -> dict:
    """The ``ppr-fit`` document: the EU fit, None where a number is undefined."""
    p = fit.params
    return {"alpha": _finite(p.alpha), "theta1": _finite(p.theta1), "theta0": _finite(p.theta0),
            "beta": _finite(fit.beta), "rr": _finite(fit.rr), "ci_beta": _ci_to_dict(fit.ci_beta),
            "loglik": _finite(fit.loglik), "converged": fit.converged,
            "reason": fit.reason, "ci_reason": fit.ci_reason}


def cox_report(fit: CoxFit) -> dict:
    """The ``cox`` document: the Cox fit, None where a number is undefined."""
    return {"log_hr": _finite(fit.log_hr), "hr": _finite(fit.hr), "ci_hr": _ci_to_dict(fit.ci_hr),
            "converged": fit.converged, "reason": fit.reason}


def write_grid_csv(results: list[ScenarioResult], fh) -> None:
    """Write the study table: the header GRID_COLUMNS, then per result its scenario's cells and fields, by _csv_cell."""
    writer = csv.writer(fh)
    writer.writerow(GRID_COLUMNS)
    for r in results:
        s = r.scenario
        cells = (s.model.value, s.effect_beta, s.censor_rate, s.n_participants)
        writer.writerow([_csv_cell(v) for v in cells + tuple(getattr(r, c) for c in GRID_COLUMNS[4:])])


def report_to_json(doc: dict) -> str:
    """The JSON text of a document; ``json.loads`` gives the document back."""
    return json.dumps(doc, allow_nan=False, indent=1)


def _fmt(x: float | None, digits: int = 6) -> str:
    return "NA" if x is None else f"{x:.{digits}g}"


def _ci_text(ci: dict | None) -> str:
    if ci is None:
        return "not computed"
    pct = f"{100 * ci['level']:g}%"
    return f"{pct} CI [{_fmt(ci['lower'])}, {_fmt(ci['upper'])}] (n_effective={ci['n_effective']})"


def emit_report(doc: dict, fmt: str = "table") -> str:
    """The text of a :func:`build_report` document in format ``fmt``."""
    if fmt == "structured":
        return report_to_json(doc) + "\n"
    rd = doc["rd_nnt_series"]
    if fmt == "table":
        lines = [
            "Two-group proportional-risk analysis",
            f"  log relative risk (beta) : {_fmt(doc['beta'])}    {_ci_text(doc['ci_beta'])}",
            f"  relative risk exp(-beta) : {_fmt(doc['rr'])}    {_ci_text(doc['ci_rr'])}",
            f"  event times used         : {doc['n_times_used']} "
            f"in [{_fmt(doc['t_min'])}, {_fmt(doc['t_max'])}]",
            f"  risk-difference grid     : {len(rd['times'])} time points "
            "(use plotdata or the structured format for the series)",
        ]
        return "\n".join(lines) + "\n"
    if fmt != "delimited":
        raise ValueError(f"unknown format {fmt!r}")
    # csv.writer writes a float as its repr and None as an empty cell
    summary = [("beta", doc["beta"]), ("rr", doc["rr"])]
    for name in ("beta", "rr"):
        summary += [(f"ci_{name}_{k}", v) for k, v in (doc[f"ci_{name}"] or {}).items()]
    summary += [(k, doc[k]) for k in ("n_times_used", "t_min", "t_max")]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])
    writer.writerows(summary)
    buf.write("\n")
    writer.writerow(["time", "beta_t", "weight"])
    writer.writerows(doc["pointwise_series"])
    buf.write("\n")
    writer.writerow(["time", "rd", "nnt"])
    writer.writerows(zip(rd["times"], rd["rd"], rd["nnt"]))
    return buf.getvalue()
