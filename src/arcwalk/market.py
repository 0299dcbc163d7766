"""Return-distribution statistics and the metro-housing correlation pipeline."""

from __future__ import annotations

import csv
import logging
import math
import re
from dataclasses import dataclass
from datetime import date
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .sim import ConfigError

logger = logging.getLogger(__name__)

_MONTH_RE = re.compile(r"[0-9]{4}-(0[1-9]|1[0-2])")

PRICE_COLUMNS = ("date", "close")
METRO_COLUMNS = ("metro", "month", "sales_count", "sale_to_list_ratio")


class TooShortError(ValueError):
    """Not enough observations for the requested statistic."""


class DegenerateVarianceError(ValueError):
    """A constant input has no spread to normalize by."""


class LengthMismatchError(ValueError):
    """Paired inputs of different lengths."""


class SchemaError(ValueError):
    """An input file is missing required columns."""


class ParseError(ValueError):
    """An input row could not be parsed; carries the 1-based row number."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"{message} (row {row})")
        self.row = row


@dataclass(frozen=True)
class PriceSeries:
    """Date-ordered closing prices."""

    points: tuple[tuple[date, float], ...]

    def closes(self) -> np.ndarray:
        return np.array([c for _, c in self.points], dtype=float)

    def __len__(self) -> int:
        return len(self.points)


class MetroMonthlyRecord(NamedTuple):
    metro: str
    month: str
    sales_count: int
    sale_to_list_ratio: float


@dataclass(frozen=True)
class MetroCorrelation:
    metro: str
    pearson_r: float
    months_used: int


@dataclass
class CorrelationReport:
    """Per-metro sales/ratio correlations plus their histogram over [-1, 1]."""

    per_metro: dict[str, MetroCorrelation]
    skipped: list[str]
    bin_edges: list[float]
    bin_counts: list[int]


def relative_changes(series: PriceSeries) -> np.ndarray:
    """Per-period relative price changes: (p[t+1] - p[t]) / p[t]."""
    if len(series) < 2:
        raise TooShortError(f"need at least 2 prices, got {len(series)}")
    closes = series.closes()
    return np.diff(closes) / closes[:-1]


def fit_normal(xs) -> tuple[float, float]:
    """Sample mean and unbiased (n-1) standard deviation."""
    arr = np.asarray(xs, dtype=float)
    if arr.size < 2:
        raise TooShortError(f"need at least 2 values, got {arr.size}")
    return float(arr.mean()), float(arr.std(ddof=1))


def excess_kurtosis(xs) -> float:
    """Fourth standardized sample moment minus 3 (population-moment form)."""
    arr = np.asarray(xs, dtype=float)
    if arr.size < 4:
        raise TooShortError(f"need at least 4 values, got {arr.size}")
    dev = arr - arr.mean()
    m2 = float(np.mean(dev**2))
    if m2 <= 0.0:
        raise DegenerateVarianceError("constant input has undefined kurtosis")
    m4 = float(np.mean(dev**4))
    return m4 / (m2 * m2) - 3.0


def pearson(xs, ys) -> float:
    """Product-moment correlation, clamped to [-1, 1] against rounding spill."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size:
        raise LengthMismatchError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise TooShortError(f"need at least 2 pairs, got {x.size}")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.sum(dx * dx))
    syy = float(np.sum(dy * dy))
    if sxx <= 0.0 or syy <= 0.0:
        raise DegenerateVarianceError("correlation of a constant sequence is undefined")
    r = float(np.sum(dx * dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def housing_correlations(
    records: list[MetroMonthlyRecord],
    bins: int = 20,
) -> CorrelationReport:
    """Correlate monthly sales counts with sale-to-list ratios per metro.

    Months with a ratio above 1 are dropped before correlating. Metros left
    with fewer than two usable months, or with a constant column, are listed
    as skipped. The histogram spans [-1, 1] in ``bins`` uniform bins.
    """
    if bins < 1:
        raise ConfigError(f"bins must be positive, got {bins}")
    groups: dict[str, list[MetroMonthlyRecord]] = {}
    for rec in records:
        groups.setdefault(rec.metro, []).append(rec)
    per_metro: dict[str, MetroCorrelation] = {}
    skipped: list[str] = []
    for metro in sorted(groups):
        usable = sorted(
            (r for r in groups[metro] if r.sale_to_list_ratio <= 1.0),
            key=lambda r: r.month,
        )
        xs = [r.sales_count for r in usable]
        ys = [r.sale_to_list_ratio for r in usable]
        if len(usable) < 2 or len(set(xs)) < 2 or len(set(ys)) < 2:
            skipped.append(metro)
            continue
        per_metro[metro] = MetroCorrelation(metro, pearson(xs, ys), len(usable))
    values = [c.pearson_r for c in per_metro.values()]
    counts, edges = np.histogram(values, bins=bins, range=(-1.0, 1.0))
    return CorrelationReport(
        per_metro=per_metro,
        skipped=skipped,
        bin_edges=[float(e) for e in edges],
        bin_counts=[int(c) for c in counts],
    )


def _column_positions(reader, required, path: str) -> tuple[list[int], int]:
    """Read the header row; return each required column's position and the row
    length that holds them all. A repeated name resolves to its last position."""
    where = {name: i for i, name in enumerate(next(reader, None) or ())}
    missing = [c for c in required if c not in where]
    if missing:
        raise SchemaError(f"{path} is missing column(s) {missing}; need {list(required)}")
    cols = [where[name] for name in required]
    return cols, max(cols) + 1


def ingest_prices(path: str) -> PriceSeries:
    """Read a ``date,close`` CSV of ``YYYY-MM-DD`` dates and positive ASCII prices.

    Out-of-order rows are sorted ascending with a logged warning count;
    duplicate dates are rejected.
    """
    points: list[tuple[date, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        cols, width = _column_positions(reader, PRICE_COLUMNS, path)
        fields = itemgetter(*cols)
        # Blank lines are skipped and not counted: row 2 is the first record.
        for row_num, row in enumerate(filter(None, reader), start=2):
            if len(row) < width:
                row += [""] * (width - len(row))
            raw_date, raw_close = map(str.strip, fields(row))
            try:
                # fromisoformat also takes YYYYMMDD and week dates from Python 3.11 on
                if len(raw_date) != 10 or raw_date[4] != "-" or raw_date[7] != "-":
                    raise ValueError
                day = date.fromisoformat(raw_date)
            except ValueError:
                raise ParseError(f"bad ISO date {raw_date!r}", row=row_num) from None
            try:
                if not raw_close.isascii():  # float also reads other scripts' digits
                    raise ValueError
                close = float(raw_close)
            except ValueError:
                raise ParseError(f"bad price {raw_close!r}", row=row_num) from None
            if not math.isfinite(close) or close <= 0.0:
                raise ParseError(f"price must be positive, got {raw_close}", row=row_num)
            points.append((day, close))
    seen: set[date] = set()
    for i, (day, _) in enumerate(points):
        if day in seen:
            raise ParseError(f"duplicate date {day.isoformat()}", row=i + 2)
        seen.add(day)
    inversions = sum(1 for a, b in zip(points, points[1:]) if b[0] < a[0])
    if inversions:
        logger.warning("%s: %d out-of-order date row(s); sorted ascending", path, inversions)
        points.sort(key=lambda p: p[0])
    return PriceSeries(tuple(points))


def ingest_metro(path: str) -> list[MetroMonthlyRecord]:
    """Read a ``metro,month,sales_count,sale_to_list_ratio`` CSV.

    Months must be YYYY-MM, sales counts nonnegative integers, ratios
    positive, all in ASCII digits. Records come back sorted by (metro, month).
    """
    records: list[MetroMonthlyRecord] = []
    months: set[str] = set()  # months that passed _MONTH_RE; a file repeats few of them
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        cols, width = _column_positions(reader, METRO_COLUMNS, path)
        fields = itemgetter(*cols)
        for row_num, row in enumerate(filter(None, reader), start=2):
            if len(row) < width:
                row += [""] * (width - len(row))
            metro, month, raw_sales, raw_ratio = map(str.strip, fields(row))
            if not metro:
                raise ParseError("empty metro name", row=row_num)
            if month not in months:
                if not _MONTH_RE.fullmatch(month):
                    raise ParseError(f"bad month {month!r}; expected YYYY-MM", row=row_num)
                months.add(month)
            try:
                if not raw_sales.isascii():  # int also reads other scripts' digits
                    raise ValueError
                sales = int(raw_sales)
            except ValueError:
                raise ParseError(f"bad sales count {raw_sales!r}", row=row_num) from None
            if sales < 0:
                raise ParseError(f"sales count must be nonnegative, got {sales}", row=row_num)
            try:
                if not raw_ratio.isascii():
                    raise ValueError
                ratio = float(raw_ratio)
            except ValueError:
                raise ParseError(f"bad ratio {raw_ratio!r}", row=row_num) from None
            if not math.isfinite(ratio) or ratio <= 0.0:
                raise ParseError(f"ratio must be positive, got {raw_ratio}", row=row_num)
            records.append(MetroMonthlyRecord(metro, month, sales, ratio))
    records.sort(key=itemgetter(0, 1))
    return records
