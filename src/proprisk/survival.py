"""Two-group right-censored survival data and Kaplan-Meier estimation.

Conventions fixed here and relied on everywhere else:

* status 1 = event, 0 = right-censored; group 1 = treatment, 0 = control.
* At tied times, events are processed before censorings: a subject censored
  at t is still at risk for the event step at t.
* One row order serves every fit that sorts its rows (``canonical_order``):
  by time, then events before censorings, then group.
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
from typing import Iterable, NamedTuple, Sequence

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


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float
    n_effective: int = 0  # resamples in which estimation succeeded; 0 for analytic CIs


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

    A row's cell code is ``(bin * 2 + group) * 2 + status``; its bin counts
    the distinct event times up to its time, in rows sorted by time with
    events first at ties. Bin 0 holds the times before the first event, and
    event time j sits in bin j + 1 with the censorings after it and before
    the next event time. Any row subset or resample counts into the same
    (K + 1, 2, 2) table, so ties are aggregated here once for every consumer.
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
        tables = count_tables(self.cell[None if rows is None else rows], self.n_cells)
        return tables[0] if rows is None else tables


def count_tables(codes: np.ndarray, n_cells: int) -> np.ndarray:
    """The count tables (R, n_cells / 4, 2, 2) of the rows of cell codes
    (R, n) below ``n_cells``, offset into disjoint ranges for one bincount."""
    reps = codes.shape[0]
    codes = codes + n_cells * np.arange(reps)[:, None]
    return np.bincount(codes.ravel(), minlength=reps * n_cells).reshape(reps, n_cells // 4, 2, 2)


def canonical_order(time, status, group) -> np.ndarray:
    """The one row order of datasets (..., n): by time, then events before
    censorings, then group. One argsort on time, then one on the integer key
    ``4 * tie + 2 * (1 - status) + group``, where ``tie`` numbers the
    distinct times. Rows with equal keys agree in every column, so the
    sorted columns are those of np.lexsort((group, 1 - status, time)),
    several times slower."""
    by_time = np.argsort(time, axis=-1)
    t = np.take_along_axis(time, by_time, axis=-1)
    tie = np.zeros(t.shape, dtype=np.int64)
    np.cumsum(t[..., 1:] != t[..., :-1], axis=-1, out=tie[..., 1:])
    key = 4 * tie + np.take_along_axis(2 * (1 - status) + group, by_time, axis=-1)
    return np.take_along_axis(by_time, np.argsort(key, axis=-1), axis=-1)


def cell_codes(time, status, group) -> np.ndarray:
    """The ``EventGrid`` cell codes of datasets (..., n), counted in
    :func:`canonical_order`; only its events-first rule at ties moves a bin."""
    order = canonical_order(time, status, group)
    t = np.take_along_axis(time, order, axis=-1)
    new = np.take_along_axis(status, order, axis=-1) == 1
    # events first at ties: an event at the previous row's time is not new
    new[..., 1:] &= t[..., 1:] > t[..., :-1]
    bins = np.empty_like(order)
    np.put_along_axis(bins, order, np.cumsum(new, axis=-1), axis=-1)
    return (bins * 2 + group) * 2 + status


def event_grid(data: Dataset) -> EventGrid:
    """The shared event-time grid of a dataset (see ``EventGrid``)."""
    cell = cell_codes(data.time, data.status, data.group)
    events = data.status == 1
    event_times = np.empty(cell.max(initial=0) >> 2)
    event_times[(cell[events] >> 2) - 1] = data.time[events]
    return EventGrid(_frozen(event_times), _frozen(cell))


class Workspace(NamedTuple):
    """The buffers of the NPPR kernel's stages (``kaplan_meier``,
    ``events_at_risk`` and the stages in ``nppr``) for count tables
    (..., K + 1, 2, 2). Each stage writes its outputs, and its temporaries
    into the scratch buffers, through numpy's ``out=`` arguments, so a
    caller that fits chunk after chunk of tables allocates them once. After
    ``nppr.fit_tables`` the workspace is the fit: ``surv``, ``gsum``, ``m``,
    ``window``, ``beta_t``, ``omega``, ``usable``, ``beta`` and
    ``total_weight``. ``kaplan_meier`` keeps its float counts in buffers
    that are free while it runs: the events in ``int_scratch`` seen as
    float64, until the window's suffix sum overwrites them, and the at-risk
    sizes in ``gsum``, until the Greenwood sums do."""

    at_risk: np.ndarray  # rows per bin, then the at-risk sizes
    int_scratch: np.ndarray
    float_scratch: np.ndarray
    surv: np.ndarray
    gsum: np.ndarray
    inside: np.ndarray
    bool_scratch: np.ndarray
    m: np.ndarray
    window: np.ndarray
    usable: np.ndarray
    flag: np.ndarray  # bool scratch
    beta_t: np.ndarray
    omega: np.ndarray
    weight: np.ndarray  # 1/omega
    terms: np.ndarray  # the summands of the weighted mean
    beta: np.ndarray
    total_weight: np.ndarray

    @classmethod
    def empty(cls, lead: tuple, k: int) -> "Workspace":
        """Uninitialised buffers for tables of leading shape ``lead`` over K
        event times, carved at 64-byte offsets from one allocation. Freeing
        one block that glibc had to map raises its mmap and trim thresholds
        to the block's size, so the next workspace of that size reuses the
        heap; separate buffers were handed back and faulted in on every call."""
        i, f, b = np.int64, np.float64, np.bool_
        pair, one = (k, 2), (k,)
        layout = dict(
            at_risk=((k + 1, 2), i), int_scratch=(pair, i), float_scratch=(pair, f), surv=(pair, f),
            gsum=(pair, f), inside=(pair, b), bool_scratch=(pair, b), m=(one, i), window=(one, b),
            usable=(one, b), flag=(one, b), beta_t=(one, f), omega=(one, f), weight=(one, f),
            terms=(one, f), beta=((), f), total_weight=((), f),
        )
        offsets, size = [], 0
        for tail, dtype in layout.values():
            offsets.append(size)
            size += -(-math.prod(lead + tail) * np.dtype(dtype).itemsize // 64) * 64
        block = np.empty(size, np.uint8)
        return cls(**{name: np.ndarray(lead + tail, dtype, block, offset)
                      for (name, (tail, dtype)), offset in zip(layout.items(), offsets)})

    def head(self, b: int) -> "Workspace":
        """Views of the buffers of the first b tables."""
        return self if b == self.beta.shape[0] else self._make(a[:b] for a in self)


def events_at_risk(table: np.ndarray, work: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Events and at-risk sizes per event time and group of a count table
    (..., K + 1, 2, 2), both (..., K, 2). A row censored at an event time
    is still at risk there."""
    rows = np.add(table[..., 0], table[..., 1], out=work.at_risk)  # not .sum(axis=-1): slow over a length-2 axis
    np.cumsum(rows[..., ::-1, :], axis=-2, out=rows[..., ::-1, :])
    return table[..., 1:, :, 1], rows[..., 1:, :]


def kaplan_meier(table: np.ndarray, work: Workspace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kaplan-Meier estimate of both groups of count tables (..., K + 1, 2, 2).

    Returns the events d, the survival S and the Greenwood sum
    G = sum d/(n(n - d)), the variance of log S, each (..., K, 2) over the
    shared event times. A column where a group has no event enters its
    product as 1.0 and its sum as 0.0, so S and G are carried forward
    exactly as right-continuous step functions; G is +inf from the step
    where the group's risk set is exhausted.

    The divisions run on float copies of the counts (see ``Workspace``),
    with the bits of integer-count arithmetic: the counts and n - d are
    exact in float64, and the float n(n - d) is the correctly rounded exact
    product, which the int64 product gave after its cast (and overflowed
    from n of about 3.04e9). Both groups' Greenwood sums run as one cumsum
    over the (..., K) complex128 view of their (..., K, 2) terms: a complex
    add is the two groups' float adds, in the same order.
    """
    d, n = events_at_risk(table, work)
    fd, fn = work.int_scratch.view(np.float64), work.gsum
    np.copyto(fd, d)
    np.copyto(fn, n)
    np.maximum(fn, 1.0, out=fn)  # an empty risk set has no event; keeps 1.0 and 0.0 exact
    with np.errstate(divide="ignore"):
        q = np.divide(fd, fn, out=work.float_scratch)
        surv = np.cumprod(np.subtract(1.0, q, out=q), axis=-2, out=work.surv)
        nd = np.multiply(fn, np.subtract(fn, fd, out=q), out=q)
        terms = np.divide(fd, nd, out=q).view(np.complex128)[..., 0]
        np.cumsum(terms, axis=-1, out=work.gsum.view(np.complex128)[..., 0])
    return d, surv, work.gsum
