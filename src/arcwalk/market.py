"""Return-distribution statistics and the metro-housing correlation pipeline."""

from __future__ import annotations

import csv
import logging
import math
import re
from array import array
from dataclasses import dataclass
from datetime import date
from itertools import count, islice
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .sim import ConfigError

logger = logging.getLogger(__name__)

_MONTH_RE = re.compile(r"[0-9]{4}-(0[1-9]|1[0-2])")
_DATE_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9]  # YYYY-MM-DD positions that hold digits
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_DAYS_BEFORE = np.cumsum(_MONTH_DAYS) - _MONTH_DAYS  # days of the year before month m

# Records per block of an ingest: each block is checked and converted column by column.
BLOCK_RECORDS = 2**9

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
        names, months, sales, ratios = tuple(zip(*records)) or ((),) * 4
        metro_codes: dict[str, int] = {}
        month_codes: dict[str, int] = {}
        metro, month = _code(metro_codes, names), _code(month_codes, months)
        return cls._from_codes(
            metro_codes, month_codes, metro, month, array("q", sales), array("d", ratios)
        )

    @classmethod
    def _from_codes(cls, metro_codes, month_codes, metro, month, sales, ratio) -> MetroPanel:
        """Rank the ``array('q')`` codes by name and sort all four columns."""
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


def _code(codes: dict[str, int], names) -> array:
    """Each name's code in ``codes``, which gains the names it did not hold."""
    for name in set(names).difference(codes):
        codes[name] = len(codes)
    return array("q", map(codes.__getitem__, names))


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
    with fewer than two usable months, with a column that is constant as
    float64, or with a column whose squared deviations sum to 0 (``pearson``
    raises DegenerateVarianceError) are listed as skipped. The histogram spans
    [-1, 1] in ``bins`` uniform bins.
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
        try:
            r = pearson(xs, ys)
        except DegenerateVarianceError:  # deviations too small to square, such as 5e-324
            skipped.append(metro)
            continue
        per_metro[metro] = MetroCorrelation(metro, r, int(xs.size))
    values = [c.pearson_r for c in per_metro.values()]
    counts, edges = np.histogram(values, bins=bins, range=(-1.0, 1.0))
    return CorrelationReport(
        per_metro=per_metro,
        skipped=skipped,
        bin_edges=[float(e) for e in edges],
        bin_counts=[int(c) for c in counts],
    )


def _blocks(path: str, required: tuple[str, ...]):
    """Yield, per block of at most ``BLOCK_RECORDS`` records, the row number of its
    first record and its stripped ``required`` columns, found by header name (the
    last of a repeated name). Short rows are padded with "". Blank lines are
    skipped: row 2 is the first record."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        where = {name: i for i, name in enumerate(next(reader, None) or ())}
        missing = [c for c in required if c not in where]
        if missing:
            raise SchemaError(f"{path} is missing column(s) {missing}; need {list(required)}")
        cols = [where[name] for name in required]
        width = max(cols) + 1
        records, row = filter(None, reader), 2
        while block := list(islice(records, BLOCK_RECORDS)):
            if min(map(len, block)) < width:
                block = [r + [""] * (width - len(r)) for r in block]
            yield row, [list(map(str.strip, map(itemgetter(c), block))) for c in cols]
            row += len(block)


def _field(convert, raw: str, what: str, row: int):
    """``convert(raw)`` or a ParseError. A non-ASCII field converts as "" and fails,
    since int and float also read other scripts' digits."""
    try:
        return convert(raw if raw.isascii() else "")
    except ValueError:
        raise ParseError(f"bad {what} {raw!r}", row=row) from None


def _iso_days(dates: list[str]) -> np.ndarray | None:
    """``date.fromisoformat(d).toordinal()`` of each ASCII ``YYYY-MM-DD`` string, or
    None if any string is not such a date. The strings are checked as one ``(n, 10)``
    byte matrix; the arithmetic runs in int64, since uint8 digit sums overflow."""
    text = "".join(dates)
    if set(map(len, dates)) != {10} or not text.isascii():
        return None
    raw = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 10)
    digits = raw[:, _DATE_DIGITS].astype(np.int64) - ord("0")
    if not ((digits >= 0) & (digits <= 9)).all() or not (raw[:, [4, 7]] == ord("-")).all():
        return None
    year = digits[:, :4] @ np.array([1000, 100, 10, 1])
    month = digits[:, 4] * 10 + digits[:, 5]
    day = digits[:, 6] * 10 + digits[:, 7]
    if not ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)).all():
        return None
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    if not (day <= _MONTH_DAYS[month] + (leap & (month == 2))).all():
        return None
    y = year - 1
    return y * 365 + y // 4 - y // 100 + y // 400 + _DAYS_BEFORE[month] + (leap & (month > 2)) + day


def _price_block(dates: list[str], closes: list[str]):
    """The block's day ordinals and closes, or None if a column check fails."""
    days = _iso_days(dates)
    if days is None or not "".join(closes).isascii():
        return None
    try:
        values = np.fromiter(map(float, closes), float, len(closes))
    except ValueError:
        return None
    if not ((values > 0.0).all() and np.isfinite(values).all()):
        return None
    return days, values


def _price_records(row: int, dates: list[str], closes: list[str]):
    """Check a block record by record from row ``row`` on: raise the first bad
    record's ParseError, or return what ``_price_block`` returns."""
    days, values = [], []
    for row_num, raw_date, raw_close in zip(count(row), dates, closes):
        # fromisoformat also takes YYYYMMDD and week dates from Python 3.11 on
        if len(raw_date) != 10 or raw_date[4] != "-" or raw_date[7] != "-":
            raise ParseError(f"bad ISO date {raw_date!r}", row=row_num)
        days.append(_field(date.fromisoformat, raw_date, "ISO date", row_num).toordinal())
        close = _field(float, raw_close, "price", row_num)
        if not math.isfinite(close) or close <= 0.0:
            raise ParseError(f"price must be positive, got {raw_close}", row=row_num)
        values.append(close)
    return np.array(days, np.int64), np.array(values, float)


def ingest_prices(path: str) -> PriceSeries:
    """Read a ``date,close`` CSV of ``YYYY-MM-DD`` dates and positive ASCII prices.

    Out-of-order rows are sorted ascending with a logged warning count;
    duplicate dates are rejected.
    """
    days, closes = array("q"), array("d")
    for row, (dates, raw) in _blocks(path, PRICE_COLUMNS):
        block_days, block_closes = _price_block(dates, raw) or _price_records(row, dates, raw)
        days.frombytes(block_days.tobytes())
        closes.frombytes(block_closes.tobytes())
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


def _metro_block(names, months, sales, ratios, seen):
    """The block's sales counts and ratios, or None if a column check fails.
    Months in ``seen`` have passed ``_MONTH_RE`` already."""
    if not all(names) or not all(map(_MONTH_RE.fullmatch, set(months).difference(seen))):
        return None
    if not ("".join(sales).isascii() and "".join(ratios).isascii()):
        return None
    try:
        counts = np.fromiter(map(int, sales), np.int64, len(sales))
        values = np.fromiter(map(float, ratios), float, len(ratios))
    except (ValueError, OverflowError):
        return None
    if not ((counts >= 0).all() and (values > 0.0).all() and np.isfinite(values).all()):
        return None
    return counts, values


def _metro_records(row: int, *cols: list[str]):
    """Check a block record by record from row ``row`` on: raise the first bad
    record's ParseError, or return what ``_metro_block`` returns."""
    counts, values = [], []
    for row_num, metro, month, raw_sales, raw_ratio in zip(count(row), *cols):
        if not metro:
            raise ParseError("empty metro name", row=row_num)
        if not _MONTH_RE.fullmatch(month):
            raise ParseError(f"bad month {month!r}; expected YYYY-MM", row=row_num)
        sales = _field(int, raw_sales, "sales count", row_num)
        if not 0 <= sales < 2**63:
            raise ParseError(f"sales count must be in [0, 2**63), got {sales}", row=row_num)
        ratio = _field(float, raw_ratio, "ratio", row_num)
        if not math.isfinite(ratio) or ratio <= 0.0:
            raise ParseError(f"ratio must be positive, got {raw_ratio}", row=row_num)
        counts.append(sales)
        values.append(ratio)
    return np.array(counts, np.int64), np.array(values, float)


def ingest_metro(path: str) -> MetroPanel:
    """Read a ``metro,month,sales_count,sale_to_list_ratio`` CSV.

    Months must be YYYY-MM, sales counts integers in [0, 2**63), ratios
    positive, all in ASCII digits. The panel is sorted by (metro, month).
    """
    metro_codes: dict[str, int] = {}
    month_codes: dict[str, int] = {}
    metro, month, sales, ratio = array("q"), array("q"), array("q"), array("d")
    for row, cols in _blocks(path, METRO_COLUMNS):
        counts, values = _metro_block(*cols, month_codes) or _metro_records(row, *cols)
        metro += _code(metro_codes, cols[0])
        month += _code(month_codes, cols[1])
        sales.frombytes(counts.tobytes())
        ratio.frombytes(values.tobytes())
    return MetroPanel._from_codes(metro_codes, month_codes, metro, month, sales, ratio)
