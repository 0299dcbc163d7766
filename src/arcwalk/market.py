"""Return-distribution statistics and the metro-housing correlation pipeline."""

from __future__ import annotations

import csv
import logging
import re
from array import array
from dataclasses import dataclass
from datetime import date
from itertools import islice
from operator import itemgetter, not_
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


def _correlate(x: np.ndarray, y: np.ndarray, counts: np.ndarray):
    """Clamped r of each run of ``counts`` float64 ``x`` and ``y`` rows (end to end, by
    non-decreasing count), and masks of the runs whose sums overflow and of those with no
    spread as float64. Each sum is an ``np.add.reduce`` along axis 1 of a C-contiguous
    ``(runs, count)`` block: numpy's pairwise sum of a run's rows in order, as ``np.sum``."""
    bounds = np.append(0, np.cumsum(counts)).tolist()  # run i is rows bounds[i]:bounds[i + 1]
    cuts = np.flatnonzero(np.diff(counts, prepend=-1)).tolist() + [len(counts)]

    def sums(values: np.ndarray) -> np.ndarray:
        out = np.empty(len(counts))
        for a, b in zip(cuts, cuts[1:]):  # runs a to b share one count
            np.add.reduce(values[bounds[a] : bounds[b]].reshape(b - a, -1), axis=1, out=out[a:b])
        return out

    with np.errstate(all="ignore"):  # overflow is reported in a mask instead
        dx = x - np.repeat(sums(x) / counts, counts)
        dy = y - np.repeat(sums(y) / counts, counts)
        sxy, spread = sums(dx * dy), sums(dx * dx) * sums(dy * dy)
        r = np.clip(sxy / np.sqrt(spread), -1.0, 1.0)
    flat = spread == 0.0
    for col in (x, y):
        flat |= np.minimum.reduceat(col, bounds[:-1]) == np.maximum.reduceat(col, bounds[:-1])
    return r, ~(np.isfinite(sxy) & np.isfinite(spread)), flat


def pearson(xs, ys) -> float:
    """Product-moment correlation, clamped to [-1, 1] against rounding spill: the
    one-run case of the kernel that ``housing_correlations`` runs on every metro."""
    x, y = np.asarray(xs, dtype=float).ravel(), np.asarray(ys, dtype=float).ravel()
    if x.size != y.size:
        raise LengthMismatchError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise TooShortError(f"need at least 2 pairs, got {x.size}")
    r, overflow, flat = _correlate(x, y, np.array([x.size]))
    if overflow[0] or flat[0]:
        raise DegenerateVarianceError("sums of squares or products overflow float64"
                                      if overflow[0] else "no spread as float64 to correlate")
    return float(r[0])


def housing_correlations(panel: MetroPanel, bins: int = 20) -> CorrelationReport:
    """Correlate monthly sales counts with sale-to-list ratios per metro.

    Months with a ratio above 1 are dropped. Metros left with under two months, or
    for which ``pearson`` raises DegenerateVarianceError, are skipped. The histogram
    spans [-1, 1] in ``bins`` bins. ``pearson``'s kernel runs one reduction pass per
    distinct usable-month count, not per metro, bit-identical to ``pearson`` per metro.
    """
    if bins < 1:
        raise ConfigError(f"bins must be positive, got {bins}")
    usable = np.flatnonzero(panel.sale_to_list_ratio <= 1.0)  # sorted by metro, as the panel
    ends = np.searchsorted(panel.metro[usable], np.arange(len(panel.metro_names)), "right")
    months = np.diff(ends, prepend=0)
    # Metros of 2+ months by (count, metro), each one's rows shifted from ``usable`` to its run.
    ranked = np.argsort(months, kind="stable")[np.count_nonzero(months < 2) :]
    counts = months[ranked]
    rows = usable[np.repeat(ends[ranked] - np.cumsum(counts), counts) + np.arange(counts.sum())]
    r, overflow, flat = _correlate(panel.sales_count[rows].astype(float),
                                   panel.sale_to_list_ratio[rows], counts)
    ok, pearson_r = np.zeros(len(months), bool), np.zeros(len(months))
    ok[ranked[~(overflow | flat)]], pearson_r[ranked] = True, r
    names = panel.metro_names
    per_metro = {names[i]: MetroCorrelation(names[i], pearson_r[i].item(), months[i].item())
                 for i in np.flatnonzero(ok).tolist()}
    counts, edges = np.histogram(pearson_r[ok], bins=bins, range=(-1.0, 1.0))
    skipped = [names[i] for i in np.flatnonzero(~ok).tolist()]
    return CorrelationReport(per_metro, skipped, edges.tolist(), counts.tolist())


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


def _iso_days(dates: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``date.fromisoformat(d).toordinal()`` of each ASCII ``YYYY-MM-DD`` string, and a
    mask of the strings that are not such dates, whose ordinals mean nothing. The strings
    are checked as one ``(n, 10)`` byte matrix, in which a placeholder stands for each
    string of another length or not ASCII. The arithmetic runs in int64, since uint8
    digit sums overflow."""
    text, bad = "".join(dates), np.zeros(len(dates), bool)
    if set(map(len, dates)) != {10} or not text.isascii():
        bad = np.fromiter((len(d) != 10 or not d.isascii() for d in dates), bool, len(dates))
        text = "".join("0000-00-00" if b else d for d, b in zip(dates, bad.tolist()))
    raw = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 10)
    digits = raw[:, _DATE_DIGITS].astype(np.int64) - ord("0")
    year = digits[:, :4] @ np.array([1000, 100, 10, 1])
    month = digits[:, 4] * 10 + digits[:, 5]
    day = digits[:, 6] * 10 + digits[:, 7]
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    bad |= ((digits < 0) | (digits > 9)).any(axis=1) | (raw[:, [4, 7]] != ord("-")).any(axis=1)
    bad |= (year < 1) | (month < 1) | (month > 12) | (day < 1)
    # mode="clip" clips the month to 0-12 first, since bad rows are summed too
    bad |= day > _MONTH_DAYS.take(month, mode="clip") + (leap & (month == 2))
    y = year - 1
    before = _DAYS_BEFORE.take(month, mode="clip") + (leap & (month > 2))
    return y * 365 + y // 4 - y // 100 + y // 400 + before + day, bad


def _numbers(col: list[str], convert, dtype) -> tuple[np.ndarray, np.ndarray]:
    """``col`` converted by ``convert`` (``float`` or ``int``) into ``dtype``, and a mask
    of the fields it rejects, which hold 0. A non-ASCII field is rejected, since int and
    float also read other scripts' digits. An int past int64 holds -1, so that it fails
    the sales count range check."""
    try:
        if "".join(col).isascii():
            return np.fromiter(map(convert, col), dtype, len(col)), np.zeros(len(col), bool)
    except (ValueError, OverflowError):
        pass
    values, bad = np.zeros(len(col), dtype), np.zeros(len(col), bool)
    for i, raw in enumerate(col):
        try:
            values[i] = convert(raw if raw.isascii() else "")
        except ValueError:
            bad[i] = True
        except OverflowError:
            values[i] = -1
    return values, bad


def _reject(row: int, checks) -> None:
    """Raise the ParseError of the first rejected record of a block that starts at
    row ``row``. ``checks`` lists, in field order, each check's mask of rejected
    records and the function that gives a record's message from its index."""
    hits = np.array([mask for mask, _ in checks])
    if hits.any():
        i = int(hits.any(axis=0).argmax())
        raise ParseError(checks[int(hits[:, i].argmax())][1](i), row=row + i)


def _price_block(row: int, dates: list[str], closes: list[str]):
    """The day ordinals and closes of a block that starts at row ``row``."""
    days, bad_date = _iso_days(dates)
    values, bad_close = _numbers(closes, float, np.float64)
    _reject(row, [
        (bad_date, lambda i: f"bad ISO date {dates[i]!r}"),
        (bad_close, lambda i: f"bad price {closes[i]!r}"),
        (~((values > 0.0) & np.isfinite(values)),
         lambda i: f"price must be positive, got {closes[i]}"),
    ])
    return days, values


def ingest_prices(path: str) -> PriceSeries:
    """Read a ``date,close`` CSV of ``YYYY-MM-DD`` dates and positive ASCII prices.

    Out-of-order rows are sorted ascending with a logged warning count;
    duplicate dates are rejected.
    """
    days, closes = array("q"), array("d")
    for row, (dates, raw) in _blocks(path, PRICE_COLUMNS):
        block_days, block_closes = _price_block(row, dates, raw)
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


def _metro_block(row: int, names, months, sales, ratios, seen):
    """The sales counts and ratios of a block that starts at row ``row``. Months in
    ``seen`` have passed ``_MONTH_RE`` already."""
    n = len(names)
    bad_months = {m for m in set(months).difference(seen) if not _MONTH_RE.fullmatch(m)}
    counts, bad_count = _numbers(sales, int, np.int64)
    values, bad_ratio = _numbers(ratios, float, np.float64)
    _reject(row, [
        (np.fromiter(map(not_, names), bool, n), lambda i: "empty metro name"),
        (np.fromiter(map(bad_months.__contains__, months), bool, n) if bad_months
         else np.zeros(n, bool), lambda i: f"bad month {months[i]!r}; expected YYYY-MM"),
        (bad_count, lambda i: f"bad sales count {sales[i]!r}"),
        (counts < 0, lambda i: f"sales count must be in [0, 2**63), got {int(sales[i])}"),
        (bad_ratio, lambda i: f"bad ratio {ratios[i]!r}"),
        (~((values > 0.0) & np.isfinite(values)),
         lambda i: f"ratio must be positive, got {ratios[i]}"),
    ])
    return counts, values


def ingest_metro(path: str) -> MetroPanel:
    """Read a ``metro,month,sales_count,sale_to_list_ratio`` CSV.

    Months must be YYYY-MM, sales counts integers in [0, 2**63), ratios
    positive, all in ASCII digits. The panel is sorted by (metro, month).
    """
    metro_codes: dict[str, int] = {}
    month_codes: dict[str, int] = {}
    metro, month, sales, ratio = array("q"), array("q"), array("q"), array("d")
    for row, cols in _blocks(path, METRO_COLUMNS):
        counts, values = _metro_block(row, *cols, month_codes)
        metro += _code(metro_codes, cols[0])
        month += _code(month_codes, cols[1])
        sales.frombytes(counts.tobytes())
        ratio.frombytes(values.tobytes())
    return MetroPanel._from_codes(metro_codes, month_codes, metro, month, sales, ratio)
