"""Return-distribution statistics and the metro-housing correlation pipeline."""

from __future__ import annotations

import csv
import logging
import math
import re
from array import array
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


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Date-ordered closing prices as columns: int64 day ordinals
    (``date.toordinal``) and float64 closes."""

    days: np.ndarray
    prices: np.ndarray

    def closes(self) -> np.ndarray:
        return self.prices

    def __len__(self) -> int:
        return len(self.days)


class MetroMonthlyRecord(NamedTuple):
    metro: str
    month: str
    sales_count: int
    sale_to_list_ratio: float


@dataclass(frozen=True, eq=False)
class MetroPanel:
    """Metro rows as columns, sorted by (metro, month) with file order kept for
    duplicates. ``metro`` and ``month`` are int64 codes into the sorted
    ``metro_names`` and ``month_names``; ``sales_count`` is int64 and
    ``sale_to_list_ratio`` float64. Indexing or iterating yields records."""

    metro_names: tuple[str, ...]
    month_names: tuple[str, ...]
    metro: np.ndarray
    month: np.ndarray
    sales_count: np.ndarray
    sale_to_list_ratio: np.ndarray

    @classmethod
    def from_records(cls, records) -> MetroPanel:
        """Code and sort ``(metro, month, sales_count, sale_to_list_ratio)`` rows."""
        metro_codes: dict[str, int] = {}
        month_codes: dict[str, int] = {}
        metro, month, sales, ratio = array("q"), array("q"), array("q"), array("d")
        for name, mon, count, r in records:
            metro.append(metro_codes.setdefault(name, len(metro_codes)))
            month.append(month_codes.setdefault(mon, len(month_codes)))
            sales.append(count)
            ratio.append(r)
        metro_names, month_names = sorted(metro_codes), sorted(month_codes)
        # argsort of the codes in name order maps each code to its name's rank
        metro_col = np.argsort([metro_codes[n] for n in metro_names])[np.frombuffer(metro, "q")]
        month_col = np.argsort([month_codes[n] for n in month_names])[np.frombuffer(month, "q")]
        order = np.argsort(metro_col * len(month_names) + month_col, kind="stable")
        cols = metro_col, month_col, np.frombuffer(sales, "q"), np.frombuffer(ratio, "d")
        return cls(tuple(metro_names), tuple(month_names), *(col[order] for col in cols))

    def __len__(self) -> int:
        return len(self.metro)

    def __getitem__(self, i: int) -> MetroMonthlyRecord:
        metro, month = self.metro_names[self.metro[i]], self.month_names[self.month[i]]
        sales, ratio = int(self.sales_count[i]), float(self.sale_to_list_ratio[i])
        return MetroMonthlyRecord(metro, month, sales, ratio)


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


def housing_correlations(panel: MetroPanel, bins: int = 20) -> CorrelationReport:
    """Correlate monthly sales counts with sale-to-list ratios per metro.

    Months with a ratio above 1 are dropped before correlating. Metros left
    with fewer than two usable months, or with a column that is constant as
    float64, are listed as skipped. The histogram spans [-1, 1] in ``bins``
    uniform bins.
    """
    if bins < 1:
        raise ConfigError(f"bins must be positive, got {bins}")
    per_metro: dict[str, MetroCorrelation] = {}
    skipped: list[str] = []
    ends = np.searchsorted(panel.metro, np.arange(len(panel.metro_names)), side="right")
    start = 0
    for metro, end in zip(panel.metro_names, ends.tolist()):
        ratios = panel.sale_to_list_ratio[start:end]
        usable = ratios <= 1.0
        xs = panel.sales_count[start:end][usable].astype(float)
        ys = ratios[usable]
        start = end
        if xs.size < 2 or xs.min() == xs.max() or ys.min() == ys.max():
            skipped.append(metro)
            continue
        per_metro[metro] = MetroCorrelation(metro, pearson(xs, ys), int(xs.size))
    values = [c.pearson_r for c in per_metro.values()]
    counts, edges = np.histogram(values, bins=bins, range=(-1.0, 1.0))
    return CorrelationReport(
        per_metro=per_metro,
        skipped=skipped,
        bin_edges=[float(e) for e in edges],
        bin_counts=[int(c) for c in counts],
    )


def _records(path: str, required: tuple[str, ...]):
    """Yield each record's row number and stripped ``required`` fields, found by header
    name (the last of a repeated name). Blank lines are skipped: row 2 is the first record."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        where = {name: i for i, name in enumerate(next(reader, None) or ())}
        missing = [c for c in required if c not in where]
        if missing:
            raise SchemaError(f"{path} is missing column(s) {missing}; need {list(required)}")
        cols = [where[name] for name in required]
        fields, width = itemgetter(*cols), max(cols) + 1
        for row_num, row in enumerate(filter(None, reader), start=2):
            if len(row) < width:
                row += [""] * (width - len(row))
            yield row_num, map(str.strip, fields(row))


def _field(convert, raw: str, what: str, row: int):
    """``convert(raw)`` or a ParseError. A non-ASCII field converts as "" and fails,
    since int and float also read other scripts' digits."""
    try:
        return convert(raw if raw.isascii() else "")
    except ValueError:
        raise ParseError(f"bad {what} {raw!r}", row=row) from None


def ingest_prices(path: str) -> PriceSeries:
    """Read a ``date,close`` CSV of ``YYYY-MM-DD`` dates and positive ASCII prices.

    Out-of-order rows are sorted ascending with a logged warning count;
    duplicate dates are rejected.
    """
    days, closes = array("q"), array("d")
    for row_num, (raw_date, raw_close) in _records(path, PRICE_COLUMNS):
        # fromisoformat also takes YYYYMMDD and week dates from Python 3.11 on
        if len(raw_date) != 10 or raw_date[4] != "-" or raw_date[7] != "-":
            raise ParseError(f"bad ISO date {raw_date!r}", row=row_num)
        day = _field(date.fromisoformat, raw_date, "ISO date", row_num)
        close = _field(float, raw_close, "price", row_num)
        if not math.isfinite(close) or close <= 0.0:
            raise ParseError(f"price must be positive, got {raw_close}", row=row_num)
        days.append(day.toordinal())
        closes.append(close)
    day_col, close_col = np.frombuffer(days, "q"), np.frombuffer(closes, "d")
    order = np.argsort(day_col, kind="stable")
    ordered = day_col[order]
    # A stable sort keeps equal days in file order: each run's later members repeat.
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    if repeats.size:
        first = int(repeats.min())
        raise ParseError(f"duplicate date {date.fromordinal(day_col[first])}", row=first + 2)
    inversions = int(np.count_nonzero(day_col[1:] < day_col[:-1]))
    if inversions:
        logger.warning("%s: %d out-of-order date row(s); sorted ascending", path, inversions)
        day_col, close_col = ordered, close_col[order]
    return PriceSeries(day_col, close_col)


def ingest_metro(path: str) -> MetroPanel:
    """Read a ``metro,month,sales_count,sale_to_list_ratio`` CSV.

    Months must be YYYY-MM, sales counts integers in [0, 2**63), ratios
    positive, all in ASCII digits. The panel is sorted by (metro, month).
    """
    return MetroPanel.from_records(_metro_rows(path))


def _metro_rows(path: str):
    """Yield each record of a metro CSV as a validated 4-tuple."""
    months: set[str] = set()  # months that passed _MONTH_RE; a file repeats few of them
    for row_num, (metro, month, raw_sales, raw_ratio) in _records(path, METRO_COLUMNS):
        if not metro:
            raise ParseError("empty metro name", row=row_num)
        if month not in months:
            if not _MONTH_RE.fullmatch(month):
                raise ParseError(f"bad month {month!r}; expected YYYY-MM", row=row_num)
            months.add(month)
        sales = _field(int, raw_sales, "sales count", row_num)
        if not 0 <= sales < 2**63:
            raise ParseError(f"sales count must be in [0, 2**63), got {sales}", row=row_num)
        ratio = _field(float, raw_ratio, "ratio", row_num)
        if not math.isfinite(ratio) or ratio <= 0.0:
            raise ParseError(f"ratio must be positive, got {raw_ratio}", row=row_num)
        yield metro, month, sales, ratio
