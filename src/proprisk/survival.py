"""Two-group right-censored survival data and Kaplan-Meier estimation.

Conventions fixed here and relied on everywhere else:

* status 1 = event, 0 = right-censored; group 1 = treatment, 0 = control.
* At tied times, events are processed before censorings: a subject censored
  at t is still at risk for the event step at t.
* Kaplan-Meier curves live on the shared grid of distinct event times and
  are right-continuous: the step at an event time is included there.
* The Greenwood sum is +inf from the first step where a group's risk set
  is exhausted (n_j == d_j, survival hits zero) onwards.
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
    # not np.unique: its first call imports numpy.ma (about 10 ms and 1.5 MB)
    times = np.sort(data.time[data.status == 1])
    event_times = times[np.diff(times, prepend=-np.inf) > 0]
    bins = np.searchsorted(event_times, data.time, side="right")
    return EventGrid(_frozen(event_times), _frozen((bins * 2 + data.group) * 2 + data.status))


def events_at_risk(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Events and at-risk sizes per event time and group of a count table
    (..., K + 1, 2, 2), both (..., K, 2). A row censored at an event time
    is still at risk there."""
    rows = table[..., 0] + table[..., 1]  # not .sum(axis=-1): slow over a length-2 axis
    at_risk = np.cumsum(rows[..., ::-1, :], axis=-2)[..., ::-1, :]
    return table[..., 1:, :, 1], at_risk[..., 1:, :]


def kaplan_meier(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kaplan-Meier estimate of both groups of count tables (..., K + 1, 2, 2).

    Returns the events d, the survival S and the Greenwood sum
    G = sum d/(n(n - d)), the variance of log S, each (..., K, 2) over the
    shared event times. A column where a group has no event enters its
    product as 1.0 and its sum as 0.0, so S and G are carried forward
    exactly as right-continuous step functions; G is +inf from the step
    where the group's risk set is exhausted.
    """
    d, n = events_at_risk(table)
    n = np.maximum(n, 1)  # an empty risk set has no event; keeps 1.0 and 0.0 exact
    with np.errstate(divide="ignore"):
        return d, np.cumprod(1.0 - d / n, axis=-2), np.cumsum(d / (n * (n - d)), axis=-2)
