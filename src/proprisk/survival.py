"""Two-group right-censored survival data and Kaplan-Meier estimation.

Conventions fixed here and relied on everywhere else:

* status 1 = event, 0 = right-censored; group 1 = treatment, 0 = control.
* At tied times, events are processed before censorings: a subject censored
  at t is still at risk for the event step at t.
* Step functions are right-continuous; the step at an event time is included
  when evaluating at exactly that time.
* The Greenwood variance is marked undefined (NaN) from the first step where
  the risk set is exhausted (n_j == d_j, survival hits zero) onwards.
* Times are compared exactly; tied times in real data are recorded
  identically, no epsilon games.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Dataset:
    """Column store of observations with a stable row order.

    Rows are immutable after construction; stable order is what makes
    bootstrap resampling reproducible.
    """

    time: np.ndarray
    status: np.ndarray
    group: np.ndarray

    @classmethod
    def from_columns(cls, time, status, group) -> "Dataset":
        return cls(
            _frozen(np.asarray(time, dtype=float)),
            _frozen(np.asarray(status, dtype=np.int64)),
            _frozen(np.asarray(group, dtype=np.int64)),
        )

    def __len__(self) -> int:
        return self.time.shape[0]

    def group_arrays(self, group: int) -> tuple[np.ndarray, np.ndarray]:
        """(times, status) of one group, in row order."""
        mask = self.group == group
        return self.time[mask], self.status[mask]

    def event_times(self, group: int) -> np.ndarray:
        """Event times of one group as a multiset (ties retained), sorted."""
        mask = (self.group == group) & (self.status == 1)
        return np.sort(self.time[mask])

    def take(self, indices) -> "Dataset":
        """Row subset/resample by index, without re-validation."""
        idx = np.asarray(indices)
        return Dataset.from_columns(self.time[idx], self.status[idx], self.group[idx])


def validate_dataset(rows: Iterable[Sequence]) -> Dataset:
    """Build a Dataset from raw (time, status, group) records.

    Rejects nonpositive or nonfinite times, status/group outside {0, 1},
    empty input and empty groups; error messages carry the 1-based row
    number of the first offending record.
    """
    times: list[float] = []
    status: list[int] = []
    groups: list[int] = []
    for i, row in enumerate(rows, start=1):
        try:
            t_raw, s_raw, g_raw = row[0], row[1], row[2]
        except (IndexError, KeyError, TypeError):
            raise ValidationError(f"expected (time, status, group) at row {i}") from None
        try:
            t = float(t_raw)
        except (TypeError, ValueError):
            raise ValidationError(f"unparsable time {t_raw!r} at row {i}") from None
        if not math.isfinite(t):
            raise ValidationError(f"nonfinite time at row {i}")
        if t <= 0:
            raise ValidationError(f"nonpositive time at row {i}")
        try:
            s = float(s_raw)
            g = float(g_raw)
        except (TypeError, ValueError):
            raise ValidationError(f"unparsable status/group at row {i}") from None
        if s not in (0.0, 1.0):
            raise ValidationError(f"status must be 0 or 1 at row {i}")
        if g not in (0.0, 1.0):
            raise ValidationError(f"group must be 0 or 1 at row {i}")
        times.append(t)
        status.append(int(s))
        groups.append(int(g))

    if not times:
        raise ValidationError("dataset is empty")
    data = Dataset.from_columns(times, status, groups)
    for g in (0, 1):
        if not np.any(data.group == g):
            raise ValidationError(f"group {g} has no observations")
    return data


@dataclass(frozen=True, eq=False)
class SurvivalCurve:
    """Kaplan-Meier step function of one group with Greenwood variances.

    All arrays are indexed by the distinct event times. ``greenwood_var`` is
    Var(S(t)), NaN where undefined (risk set exhausted); ``cumhaz_var`` is
    the bare Greenwood sum, the variance of log S(t) on the cumulative-hazard
    scale, +inf where the risk set is exhausted. Empty arrays mean the group
    had no events; the curve is then identically 1.
    """

    event_times: np.ndarray
    survival: np.ndarray
    greenwood_var: np.ndarray
    cumhaz_var: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray

    def __len__(self) -> int:
        return self.event_times.shape[0]


def km_from_arrays(times: np.ndarray, status: np.ndarray) -> SurvivalCurve:
    """Product-limit estimate from one group's raw (times, status) arrays."""
    times = np.asarray(times, dtype=float)
    status = np.asarray(status)
    n = times.shape[0]
    if n == 0 or not np.any(status == 1):
        empty = _frozen(np.empty(0))
        empty_i = _frozen(np.empty(0, dtype=np.int64))
        return SurvivalCurve(
            empty, _frozen(np.empty(0)), _frozen(np.empty(0)), _frozen(np.empty(0)), empty_i, empty_i
        )

    order = np.argsort(times, kind="stable")
    t = times[order]
    e = np.asarray(status, dtype=np.int64)[order]

    uniq, first_idx = np.unique(t, return_index=True)
    d = np.add.reduceat(e, first_idx)
    # sorted ascending, so #\{time >= uniq[k]\} = n - first occurrence index
    at_risk = n - first_idx

    has_event = d > 0
    event_times = uniq[has_event]
    d_j = d[has_event]
    n_j = at_risk[has_event]

    surv = np.cumprod(1.0 - d_j / n_j)
    with np.errstate(divide="ignore", invalid="ignore"):
        greenwood_sum = np.cumsum(d_j / (n_j * (n_j - d_j)))
        var = surv**2 * greenwood_sum  # 0 * inf -> NaN where n_j == d_j
    return SurvivalCurve(
        _frozen(event_times),
        _frozen(surv),
        _frozen(var),
        _frozen(greenwood_sum),
        _frozen(n_j.astype(np.int64)),
        _frozen(d_j.astype(np.int64)),
    )


@dataclass(frozen=True, eq=False)
class EventGrid:
    """The distinct event times of a dataset and each row's cell in them.

    A row's cell code is ``(bin * 2 + group) * 2 + status`` with
    ``bin = searchsorted(event_times, time, side="right")``: bin 0 holds
    the times before the first event, and event time j sits in bin j + 1
    together with the censorings after it and before the next event time.
    Any row subset or resample counts into the same (K + 1, 2, 2) table, so
    ties are aggregated here once for every consumer.
    """

    event_times: np.ndarray
    cell: np.ndarray

    @property
    def n_cells(self) -> int:
        """Cells of one count table, 4 * (K + 1)."""
        return 4 * (self.event_times.shape[0] + 1)

    def table(self, rows=None) -> np.ndarray:
        """Count table (bin, group, status) of the whole dataset, or one
        table per row of ``rows``, a (B, n) array of row indices: shape
        (K + 1, 2, 2) or (B, K + 1, 2, 2)."""
        if rows is None:
            return np.bincount(self.cell, minlength=self.n_cells).reshape(-1, 2, 2)
        b = rows.shape[0]
        codes = self.cell[rows] + self.n_cells * np.arange(b)[:, None]
        return np.bincount(codes.ravel(), minlength=b * self.n_cells).reshape(b, -1, 2, 2)


def event_grid(data: Dataset) -> EventGrid:
    """The shared event-time grid of a dataset (see ``EventGrid``)."""
    event_times = np.unique(data.time[data.status == 1])
    bins = np.searchsorted(event_times, data.time, side="right")
    return EventGrid(_frozen(event_times), _frozen((bins * 2 + data.group) * 2 + data.status))


def events_at_risk(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Events and at-risk sizes per event time and group of a count table
    (..., K + 1, 2, 2), both (..., K, 2). A row censored at an event time
    is still at risk there."""
    rows = table[..., 0] + table[..., 1]  # not .sum(axis=-1): slow over a length-2 axis
    at_risk = np.cumsum(rows[..., ::-1, :], axis=-2)[..., ::-1, :]
    return table[..., 1:, :, 1], at_risk[..., 1:, :]


def kaplan_meier(data: Dataset, group: int) -> SurvivalCurve:
    """Kaplan-Meier curve of one group of a Dataset."""
    times, status = data.group_arrays(group)
    return km_from_arrays(times, status)


def _step_values(curve: SurvivalCurve, values: np.ndarray, t, before):
    """Right-continuous step lookup of per-event-time values at times t."""
    ts = np.asarray(t, dtype=float)
    if values.shape[0] == 0:
        out = np.full(ts.shape, before)
        return out if ts.ndim else float(before)
    idx = np.searchsorted(curve.event_times, ts, side="right") - 1
    out = np.where(idx >= 0, values[np.maximum(idx, 0)], before)
    return out if ts.ndim else float(out)


def survival_at(curve: SurvivalCurve, t):
    """S(t) as a right-continuous step function; 1 before the first event."""
    return _step_values(curve, curve.survival, t, 1.0)


def variance_at(curve: SurvivalCurve, t):
    """Greenwood Var(S(t)), carried forward between event times; 0 before
    the first event; NaN where undefined."""
    return _step_values(curve, curve.greenwood_var, t, 0.0)


def cumhaz_variance_at(curve: SurvivalCurve, t):
    """Var(log S(t)), the bare Greenwood sum, carried forward between event
    times; 0 before the first event; +inf where the risk set is exhausted."""
    return _step_values(curve, curve.cumhaz_var, t, 0.0)


def cdf_at(curve: SurvivalCurve, t):
    """F(t) = 1 - S(t), right-continuous; 0 before the first event time."""
    ts = np.asarray(t, dtype=float)
    out = 1.0 - np.asarray(survival_at(curve, ts))
    return out if ts.ndim else float(out)
