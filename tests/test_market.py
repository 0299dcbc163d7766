"""Return statistics, correlation report, and CSV ingestion."""

import csv
import inspect
import logging
import math
import re
import tracemalloc
from datetime import date, timedelta
from itertools import count

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from arcwalk import market
from arcwalk import (
    ConfigError,
    DegenerateVarianceError,
    LengthMismatchError,
    MetroMonthlyRecord,
    MetroPanel,
    ParseError,
    PriceSeries,
    SchemaError,
    TooShortError,
    excess_kurtosis,
    fit_normal,
    housing_correlations,
    ingest_metro,
    ingest_prices,
    pearson,
    relative_changes,
)
from reference import reference_housing, reference_pearson
from synthdata import make_housing_records


def series(*closes: float) -> PriceSeries:
    days = date(2024, 1, 1).toordinal() + np.arange(len(closes))
    return PriceSeries(days, np.array(closes, dtype=float))


class TestRelativeChanges:
    def test_basic(self):
        got = relative_changes(series(100.0, 110.0, 99.0))
        assert got == pytest.approx([0.1, -0.1])

    def test_scale_invariant(self):
        a = relative_changes(series(50.0, 55.0, 60.5))
        b = relative_changes(series(500.0, 550.0, 605.0))
        assert a == pytest.approx(b, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            relative_changes(series(100.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_change_is_inf_without_a_warning(self):
        got = relative_changes(series(1e-200, 1e200, 1e-200, 1e200, 1.0))
        assert got.tolist() == [math.inf, -1.0, math.inf, -1.0]


class TestFitNormal:
    def test_two_points(self):
        mu, sd = fit_normal([1.0, 3.0])
        assert mu == 2.0
        assert sd == pytest.approx(math.sqrt(2.0))

    def test_recovers_standard_normal(self):
        xs = np.random.default_rng(42).standard_normal(100_000)
        mu, sd = fit_normal(xs)
        assert abs(mu) < 0.013
        assert 0.99 < sd < 1.01

    def test_too_short(self):
        with pytest.raises(TooShortError):
            fit_normal([5.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("xs", [
        [1e300, -1e300, 1.7e308],  # the squared deviations overflow: std was inf
        [1.7e308] * 3,  # the sum overflows: both were inf
    ])
    def test_overflow_raises(self, xs):
        with pytest.raises(DegenerateVarianceError, match="overflows float64"):
            fit_normal(xs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=40))
    def test_finite_fit_keeps_numpy_bits(self, xs):
        arr = np.array(xs)
        with np.errstate(all="ignore"):
            want = arr.mean(), arr.std(ddof=1)
        if np.isfinite(want).all():
            assert fit_normal(xs) == (float(want[0]), float(want[1]))
        else:
            with pytest.raises(DegenerateVarianceError):
                fit_normal(xs)


class TestExcessKurtosis:
    def test_two_point_distribution(self):
        assert excess_kurtosis([-1.0, -1.0, 1.0, 1.0]) == pytest.approx(-2.0)

    def test_normal_sample_near_zero(self):
        xs = np.random.default_rng(2).standard_normal(100_000)
        assert abs(excess_kurtosis(xs)) < 0.1

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        xs = rng.standard_normal(500)
        shuffled = rng.permutation(xs)
        assert excess_kurtosis(xs) == pytest.approx(excess_kurtosis(shuffled), abs=1e-9)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            excess_kurtosis([1.0, 2.0, 3.0])

    def test_constant_rejected(self):
        with pytest.raises(DegenerateVarianceError, match="constant input"):
            excess_kurtosis([2.0, 2.0, 2.0, 2.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("xs", [
        [1e80, -1e80, 2e80, 3e80],  # m2 * m2 and m4 overflow: the result was nan
        [0.0, 1e-160, 2e-160, 3e-160],  # m2 * m2 underflows to 0: it raised ZeroDivisionError
        [0.0, 5e-324, 0.0, 0.0],  # m2 underflows to 0: it was called constant
    ])
    def test_moments_out_of_range_raise(self, xs):
        with pytest.raises(DegenerateVarianceError, match="moments overflow or underflow float64"):
            excess_kurtosis(xs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e60, 1e60), min_size=4, max_size=40))
    def test_finite_kurtosis_keeps_its_bits(self, xs):
        # The float arithmetic of the form before the range check.
        dev = np.array(xs) - np.array(xs).mean()
        m2, m4 = float(np.mean(dev**2)), float(np.mean(dev**4))
        assume(m2 * m2 > 0.0)
        assert excess_kurtosis(xs).hex() == (m4 / (m2 * m2) - 3.0).hex()


# Usable-month counts around numpy's pairwise sum: it adds 8 accumulators, and splits
# blocks of more than 128 values in two.
USABLE_COUNTS = [0, 1, *range(2, 10), 16, 127, 128, 129, 256, 257]
SAMPLE_FLOATS = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-323, 2.0**60, 1e200, -1e200]),
)
SALES = {
    "random": lambda rng, k: rng.integers(0, 1000, k),
    "constant": lambda rng, k: np.full(k, 500),
    "2**60": lambda rng, k: 2**60 + rng.integers(0, 2, k),  # equal as float64
    "wide": lambda rng, k: rng.integers(0, 2**63 - 1, k),
}
RATIOS = {
    "random": lambda rng, k: rng.uniform(0.5, 1.0, k),
    "constant": lambda rng, k: np.full(k, 0.97),
    "subnormal": lambda rng, k: rng.choice([5e-324, 1e-323], k),
    "overflowing": lambda rng, k: rng.choice([-1e300, 0.5], k),
}
FIXED_METROS = [
    # Not constant, but the deviations square to 0.
    (np.array([1, 2, 3]), np.array([5e-324, 1e-323, 1e-323])),
    # The deviations are (-1, 0) and (0, -2**-53), so both cross products are -0.0.
    (np.array([2**52 + 1, 2**52 + 2]), np.array([0.5 + 2**-52, 0.5 + 2**-53])),
]


@st.composite
def metro_specs(draw):
    """One metro's usable (sales, ratios) columns and its count of over-asking months."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fixed = draw(st.sampled_from([None, *range(len(FIXED_METROS))]))
    if fixed is None:
        k = draw(st.sampled_from(USABLE_COUNTS))
        sales = SALES[draw(st.sampled_from(sorted(SALES)))](rng, k)
        ratios = RATIOS[draw(st.sampled_from(sorted(RATIOS)))](rng, k)
    else:
        sales, ratios = FIXED_METROS[fixed]
    return sales, ratios, draw(st.integers(0 if len(sales) else 1, 3))


def metro_panel(specs, seed: int = 0) -> MetroPanel:
    """A panel of one metro per ``(sales, ratios, over_asking)`` spec, the over-asking
    months (ratio above 1) placed at random among the usable ones."""
    rng = np.random.default_rng(seed)
    columns = []
    for sales, ratios, over in specs:
        sales = np.concatenate([sales, rng.integers(0, 1000, over)]).astype(np.int64)
        ratios = np.concatenate([ratios, rng.uniform(1.01, 1.2, over)])
        order = rng.permutation(len(sales))
        columns.append((sales[order], ratios[order]))
    lengths = [len(sales) for sales, _ in columns]
    span = max(lengths, default=0)
    return MetroPanel(
        tuple(f"metro{m:04d}" for m in range(len(specs))),
        tuple(f"{2000 + t // 12}-{t % 12 + 1:02d}" for t in range(span)),
        np.repeat(np.arange(len(specs)), lengths),
        np.concatenate([np.arange(n) for n in lengths] or [np.zeros(0, int)]),
        np.concatenate([sales for sales, _ in columns] or [np.zeros(0, np.int64)]),
        np.concatenate([ratios for _, ratios in columns] or [np.zeros(0)]),
    )


def assert_matches_reference(panel: MetroPanel, bins: int = 20) -> None:
    """``housing_correlations`` gives the per-metro reference's r (by float.hex),
    months used, skipped metros in order and histogram counts."""
    report = housing_correlations(panel, bins=bins)
    correlated, skipped, counts = reference_housing(panel, bins)
    got = [(m, c.pearson_r.hex(), c.months_used) for m, c in report.per_metro.items()]
    assert got == [(m, r.hex(), n) for m, r, n in correlated]
    assert report.skipped == skipped
    assert report.bin_counts == counts


class TestPearson:
    def test_perfect_line(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anticorrelation(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, [-3 * x for x in xs]) == pytest.approx(-1.0, abs=1e-12)

    def test_self_correlation(self):
        xs = np.random.default_rng(4).standard_normal(50)
        assert pearson(xs, xs) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_triple(self):
        got = pearson((822, 785, 803), (0.98, 0.96, 0.97))
        assert got == pytest.approx(0.9998782788626737, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(11)
        xs = rng.standard_normal(80)
        ys = 0.4 * xs + rng.standard_normal(80)
        base = pearson(xs, ys)
        assert pearson(3.0 * xs + 7.0, 0.5 * ys - 2.0) == pytest.approx(base, abs=1e-9)
        assert pearson(xs, -ys) == pytest.approx(-base, abs=1e-9)

    def test_clamped_to_unit_interval(self):
        xs = np.linspace(0.0, 1.0, 200)
        assert -1.0 <= pearson(xs, xs * 1e-8 + 5.0) <= 1.0

    def test_errors(self):
        with pytest.raises(LengthMismatchError):
            pearson([1.0, 2.0], [1.0])
        with pytest.raises(TooShortError):
            pearson([1.0], [2.0])
        with pytest.raises(DegenerateVarianceError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateVarianceError):  # constant, but the mean is not 0.1
            pearson([0.1, 0.1, 0.1], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("xs, ys", [
        ([1e200, 2e200, 3e200], [1.0, 2.0, 3.0]),  # sxx overflows: r was 0.0
        ([-1e200, 1e200, 2e200], [1e200, -3e200, 2e200]),  # all three overflow: r was 1.0
        ([0.0, 1e100, 2e100], [0.0, 1e100, 3e100]),  # sxx * syy overflows: r was 0.0
    ])
    def test_overflow_raises(self, xs, ys):
        with pytest.raises(DegenerateVarianceError, match="overflow"):
            pearson(xs, ys)

    def test_spread_too_small_to_multiply_raises(self):
        # sxx and syy are about 2e-200 each, and their product underflows to 0.
        with pytest.raises(DegenerateVarianceError, match="no spread"):
            pearson([0.0, 1e-100, 2e-100], [0.0, 1e-100, 3e-100])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.one_of(st.sampled_from(USABLE_COUNTS[2:]), st.integers(2, 20)))
    def test_bit_identical_to_reference(self, data, n):
        values = st.lists(SAMPLE_FLOATS, min_size=n, max_size=n)
        x, y = np.array(data.draw(values)), np.array(data.draw(values))
        want = reference_pearson(x, y)
        if want is None:
            with pytest.raises(DegenerateVarianceError):
                pearson(x, y)
        else:
            assert pearson(x, y).hex() == want.hex()


class TestHousingCorrelations:
    def test_correlated_fixture(self):
        report = housing_correlations(make_housing_records(metros=10, months=24, rho=0.9, seed=77))
        assert len(report.per_metro) == 10
        assert report.skipped == []
        for corr in report.per_metro.values():
            assert corr.pearson_r > 0.5
            assert corr.months_used == 24

    def test_over_asking_months_dropped(self):
        # the fixture plants 3 ratio>1 months per metro; months_used == 24
        # proves they never reach the correlation
        report = housing_correlations(make_housing_records(metros=3, months=24, seed=1))
        assert all(c.months_used == 24 for c in report.per_metro.values())

    def test_metro_with_no_usable_months_is_skipped(self):
        records = [
            MetroMonthlyRecord("allover", f"2024-{m:02d}", 100 + m, 1.02) for m in range(1, 6)
        ]
        records += make_housing_records(metros=1, months=12, seed=3)
        report = housing_correlations(MetroPanel.from_records(records))
        assert report.skipped == ["allover"]
        assert "allover" not in report.per_metro

    def test_constant_column_is_skipped(self):
        records = [
            MetroMonthlyRecord("flat", f"2024-{m:02d}", 100, 0.9 + 0.001 * m) for m in range(1, 6)
        ]
        report = housing_correlations(MetroPanel.from_records(records))
        assert report.skipped == ["flat"]

    def test_sales_counts_equal_as_float64_are_constant(self):
        # 2**60 and 2**60 + 1 differ as integers, but pearson sees them as one float64.
        records = [
            MetroMonthlyRecord("big", f"2024-{m:02d}", 2**60 + m % 2, 0.9 + 0.01 * m)
            for m in range(1, 6)
        ]
        records += make_housing_records(metros=1, months=12, seed=3)
        report = housing_correlations(MetroPanel.from_records(records))
        assert report.skipped == ["big"]
        assert list(report.per_metro) == ["metro000"]

    def test_histogram_covers_unit_interval(self):
        report = housing_correlations(make_housing_records(metros=8, months=18, seed=5), bins=10)
        assert len(report.bin_edges) == 11
        assert report.bin_edges[0] == -1.0
        assert report.bin_edges[-1] == 1.0
        assert sum(report.bin_counts) == len(report.per_metro)
        assert all(-1.0 <= c.pearson_r <= 1.0 for c in report.per_metro.values())

    def test_metros_sorted(self):
        report = housing_correlations(make_housing_records(metros=5, months=12, seed=8))
        names = list(report.per_metro)
        assert names == sorted(names)

    def test_bins_validated(self):
        with pytest.raises(ConfigError):
            housing_correlations(MetroPanel.from_records([]), bins=0)

    def test_overflowing_metro_is_skipped(self):
        records = [
            MetroMonthlyRecord("huge", f"2024-{m:02d}", m, -1e300 * m) for m in range(1, 6)
        ]
        records += make_housing_records(metros=1, months=12, seed=3)
        report = housing_correlations(MetroPanel.from_records(records))
        assert report.skipped == ["huge"]
        assert list(report.per_metro) == ["metro000"]

    def test_one_metro_per_count_matches_reference(self):
        rng = np.random.default_rng(9)
        specs = [(SALES["random"](rng, k), RATIOS["random"](rng, k), 2) for k in USABLE_COUNTS]
        assert_matches_reference(metro_panel(specs[::-1] + [(*m, 1) for m in FIXED_METROS]))

    @settings(max_examples=150, deadline=None)
    @given(specs=st.lists(metro_specs(), max_size=12), bins=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_reference(self, specs, bins, seed):
        assert_matches_reference(metro_panel(specs, seed), bins)

    @settings(max_examples=15, deadline=None)
    @given(k=st.sampled_from(USABLE_COUNTS), metros=st.integers(100, 400),
           seed=st.integers(0, 2**32 - 1))
    def test_many_metros_sharing_a_count_match_reference(self, k, metros, seed):
        rng = np.random.default_rng(seed)
        specs = [(SALES["random"](rng, k), RATIOS["random"](rng, k), 1) for _ in range(metros)]
        assert_matches_reference(metro_panel(specs, seed))


class TestIngestPrices:
    def test_basic(self, tmp_path):
        f = tmp_path / "prices.csv"
        f.write_text("date,close\n2024-01-02,101.5\n2024-01-03,102.25\n")
        got = ingest_prices(str(f))
        assert len(got) == 2
        assert (date.fromordinal(got.days[0]), got.closes()[0]) == (date(2024, 1, 2), 101.5)
        assert got.closes() == pytest.approx([101.5, 102.25])

    def test_extra_columns_tolerated(self, tmp_path):
        f = tmp_path / "prices.csv"
        f.write_text("date,close,volume\n2024-01-02,100.0,5\n2024-01-03,99.0,6\n")
        assert len(ingest_prices(str(f))) == 2

    def test_missing_column_rejected(self, tmp_path):
        f = tmp_path / "prices.csv"
        f.write_text("date,price\n2024-01-02,100.0\n")
        with pytest.raises(SchemaError):
            ingest_prices(str(f))

    def test_bad_date_reports_row(self, tmp_path):
        f = tmp_path / "prices.csv"
        f.write_text("date,close\n2024-01-02,100.0\n02/01/2024,101.0\n")
        with pytest.raises(ParseError) as info:
            ingest_prices(str(f))
        assert info.value.row == 3
        assert "row 3" in str(info.value)

    @pytest.mark.parametrize("spelling", ["20240102", "2024-W01-1"])
    def test_only_dashed_dates_accepted(self, tmp_path, spelling):
        # Python 3.11's date.fromisoformat reads both of these; 3.10 rejects them.
        f = tmp_path / "prices.csv"
        f.write_text(f"date,close\n{spelling},100.0\n")
        with pytest.raises(ParseError, match="bad ISO date") as info:
            ingest_prices(str(f))
        assert info.value.row == 2

    def test_nonpositive_price_reports_row(self, tmp_path):
        f = tmp_path / "prices.csv"
        f.write_text("date,close\n2024-01-02,-5.0\n")
        with pytest.raises(ParseError) as info:
            ingest_prices(str(f))
        assert info.value.row == 2

    def test_duplicate_date_rejected(self, tmp_path):
        f = tmp_path / "prices.csv"
        f.write_text("date,close\n2024-01-02,100.0\n2024-01-02,101.0\n")
        with pytest.raises(ParseError, match="duplicate"):
            ingest_prices(str(f))

    @pytest.mark.parametrize(
        "days,repeat,row",
        [
            (["2024-01-03", "2024-01-01", "2024-01-02", "2024-01-01"], "2024-01-01", 5),
            # the first repeat in file order, not the earliest repeated date
            (["2024-01-05", "2024-01-05", "2024-01-01", "2024-01-01"], "2024-01-05", 3),
        ],
    )
    def test_duplicate_reports_first_repeat_in_file_order(self, tmp_path, days, repeat, row):
        f = tmp_path / "prices.csv"
        f.write_text("date,close\n" + "".join(f"{d},1.0\n" for d in days))
        with pytest.raises(ParseError, match=f"duplicate date {repeat}") as info:
            ingest_prices(str(f))
        assert info.value.row == row

    def test_warning_counts_adjacent_inversions(self, tmp_path, caplog):
        # 5 1 4 2 3 holds 6 inverted pairs but 2 adjacent inversions (5>1, 4>2).
        f = tmp_path / "prices.csv"
        f.write_text("date,close\n" + "".join(f"2024-01-0{d},{d}.0\n" for d in (5, 1, 4, 2, 3)))
        with caplog.at_level(logging.WARNING, logger="arcwalk.market"):
            got = ingest_prices(str(f))
        assert [r.getMessage().split(": ", 1)[1] for r in caplog.records] == [
            "2 out-of-order date row(s); sorted ascending"
        ]
        assert [date.fromordinal(d).day for d in got.days] == [1, 2, 3, 4, 5]
        assert got.closes().tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_out_of_order_sorted_with_warning(self, tmp_path, caplog):
        f = tmp_path / "prices.csv"
        f.write_text("date,close\n2024-01-03,101.0\n2024-01-02,100.0\n")
        with caplog.at_level(logging.WARNING, logger="arcwalk.market"):
            got = ingest_prices(str(f))
        assert [date.fromordinal(d) for d in got.days] == [date(2024, 1, 2), date(2024, 1, 3)]
        assert any("out-of-order" in r.message for r in caplog.records)


class TestIngestMetro:
    def test_round_trip_sorted(self, tmp_path):
        f = tmp_path / "metro.csv"
        f.write_text(
            "metro,month,sales_count,sale_to_list_ratio\n"
            "bside,2024-02,90,0.97\n"
            "aside,2024-01,120,0.95\n"
            "aside,2024-02,130,0.96\n"
        )
        got = ingest_metro(str(f))
        assert [(r.metro, r.month) for r in got] == [
            ("aside", "2024-01"),
            ("aside", "2024-02"),
            ("bside", "2024-02"),
        ]
        assert got[0].sales_count == 120
        assert got[0].sale_to_list_ratio == 0.95

    @pytest.mark.parametrize(
        "row,fragment",
        [
            (",2024-01,100,0.95", "metro"),
            ("town,2024-13,100,0.95", "month"),
            ("town,202401,100,0.95", "month"),
            ("town,２０２４-01,100,0.95", "month"),
            ("town,2024-01,many,0.95", "sales"),
            ("town,2024-01,-3,0.95", "sales"),
            ("town,2024-01,100,zero", "ratio"),
            ("town,2024-01,100,0.0", "ratio"),
        ],
    )
    def test_bad_rows_rejected(self, tmp_path, row, fragment):
        f = tmp_path / "metro.csv"
        f.write_text(f"metro,month,sales_count,sale_to_list_ratio\n{row}\n")
        with pytest.raises(ParseError, match=fragment) as info:
            ingest_metro(str(f))
        assert info.value.row == 2

    def test_sales_count_must_fit_int64(self, tmp_path):
        f = tmp_path / "metro.csv"
        f.write_text(f"{METRO_HEADER}x,2024-01,{2**63 - 1},0.9\n")
        assert ingest_metro(str(f))[0].sales_count == 2**63 - 1
        f.write_text(f"{METRO_HEADER}x,2024-01,{2**63 - 1},0.9\nx,2024-02,{2**63},0.9\n")
        with pytest.raises(ParseError, match="sales count") as info:
            ingest_metro(str(f))
        assert info.value.row == 3

    def test_missing_column_rejected(self, tmp_path):
        f = tmp_path / "metro.csv"
        f.write_text("metro,month,sales\nx,2024-01,5\n")
        with pytest.raises(SchemaError):
            ingest_metro(str(f))


def _ingested(ingest, path):
    if ingest is ingest_prices:
        got = ingest(path)
        return list(zip(map(date.fromordinal, got.days.tolist()), got.closes().tolist()))
    return [(r.metro, r.month, r.sales_count, r.sale_to_list_ratio) for r in ingest(path)]


METRO_HEADER = "metro,month,sales_count,sale_to_list_ratio\n"


class TestIngestContract:
    """Row numbering, column lookup and field handling that both ingest functions keep."""

    @pytest.mark.parametrize(
        "ingest,text,expected",
        [
            (ingest_prices, "close,date\n101.5,2024-01-02\n", [(date(2024, 1, 2), 101.5)]),
            (ingest_prices, "date,close,close\n2024-01-02,1.0,2.0\n", [(date(2024, 1, 2), 2.0)]),
            (ingest_prices, "date,close\n", []),
            (ingest_prices, "date,close\n 2024-01-02 , 101.5 \n", [(date(2024, 1, 2), 101.5)]),
            (ingest_prices, "date,close\n2024-01-02,1_0\n", [(date(2024, 1, 2), 10.0)]),
            (
                ingest_metro,
                METRO_HEADER + "town,2024-01,5,0.9\ntown,2024-01,3,0.8\n",
                [("town", "2024-01", 5, 0.9), ("town", "2024-01", 3, 0.8)],
            ),
            (
                ingest_metro,
                METRO_HEADER + " town , 2024-01 , 5 , 0.9 \n",
                [("town", "2024-01", 5, 0.9)],
            ),
            # a spreadsheet's UTF-8 byte order mark is not part of the first column's name
            (ingest_prices, "\ufeffdate,close\n2024-01-02,1.0\n", [(date(2024, 1, 2), 1.0)]),
            (
                ingest_metro,
                "\ufeff" + METRO_HEADER + "town,2024-01,5,0.9\n",
                [("town", "2024-01", 5, 0.9)],
            ),
        ],
    )
    def test_loads(self, tmp_path, ingest, text, expected):
        f = tmp_path / "in.csv"
        f.write_text(text)
        assert _ingested(ingest, str(f)) == expected

    @pytest.mark.parametrize(
        "ingest,text,error,fragment,row",
        [
            (
                ingest_prices,
                "date,close\n2024-01-02,1.0\n\nbad,1.0\n",
                ParseError,
                "bad ISO date",
                3,
            ),
            (ingest_prices, "date,close\n2024-01-02\n", ParseError, "bad price ''", 2),
            (ingest_prices, "", SchemaError, "missing column", None),
            (
                ingest_prices,
                "date,close\n2024-01-02,1.0\n2024-01-03,1.0\n2024-01-02,1.0\n",
                ParseError,
                "duplicate date 2024-01-02",
                4,
            ),
            (
                ingest_metro,
                METRO_HEADER + '"new\nyork",2024-01,5,0.9\ntown,2024,5,0.9\n',
                ParseError,
                "bad month",
                3,
            ),
            (ingest_prices, "date,close\n2024-01-02,１０１.５\n", ParseError, "bad price", 2),
            (ingest_metro, METRO_HEADER + "x,2024-01,５,0.9\n", ParseError, "bad sales count", 2),
            (ingest_metro, METRO_HEADER + "x,2024-01,5,０.９\n", ParseError, "bad ratio", 2),
        ],
    )
    def test_rejects(self, tmp_path, ingest, text, error, fragment, row):
        f = tmp_path / "in.csv"
        f.write_text(text)
        with pytest.raises(error, match=fragment) as info:
            ingest(str(f))
        assert getattr(info.value, "row", None) == row


def _outcome(ingest, path):
    """An ingest's columns as bytes, or its ParseError's text and row."""
    try:
        got = ingest(path)
    except ParseError as err:
        return str(err), err.row
    if ingest is ingest_prices:
        return [col.tobytes() for col in (got.days, got.prices)]
    cols = got.metro, got.month, got.sales_count, got.sale_to_list_ratio
    return got.metro_names, got.month_names, [(c.dtype.str, c.tobytes()) for c in cols]


def _field(convert, raw: str, what: str, row: int):
    """``convert(raw)`` or a ParseError. A non-ASCII field converts as "" and fails,
    since int and float also read other scripts' digits."""
    try:
        return convert(raw if raw.isascii() else "")
    except ValueError:
        raise ParseError(f"bad {what} {raw!r}", row=row) from None


def _price_records(row: int, dates: list[str], closes: list[str]):
    """Check a block record by record from row ``row`` on: raise the first bad
    record's ParseError, or return the block's day ordinals and closes."""
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


MONTH_RE = re.compile(r"[0-9]{4}-(0[1-9]|1[0-2])")


def _metro_records(row: int, *cols: list[str]):
    """Check a block record by record from row ``row`` on: raise the first bad
    record's ParseError, or return the block's sales counts and ratios."""
    counts, values = [], []
    for row_num, metro, month, raw_sales, raw_ratio in zip(count(row), *cols):
        if not metro:
            raise ParseError("empty metro name", row=row_num)
        if not MONTH_RE.fullmatch(month):
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


def _by_record(monkeypatch, ingest, path):
    """``_outcome`` with every block checked by the per-record oracle above in place
    of the column checks, and none read by the plain-block reader."""
    with monkeypatch.context() as m:
        m.setattr(market, "_typed_prices", lambda lines, cols: None)
        m.setattr(market, "_typed_metro", lambda lines, cols, *codes: None)
        m.setattr(market, "_price_block", _price_records)
        m.setattr(market, "_metro_block", lambda row, *cols: _metro_records(row, *cols[:4]))
        return _outcome(ingest, path)


# A header and nine valid records per file kind.
HEADERS = {ingest_prices: "date,close", ingest_metro: METRO_HEADER.strip()}
GOOD = {
    ingest_prices: [f"2024-01-{d:02d},{d}.5" for d in range(1, 10)],
    ingest_metro: [f"m{d % 2},2024-{d:02d},{d},0.9{d}" for d in range(1, 10)],
}


class TestIngestBlocks:
    """Files that span several blocks parse, and fail, as one block would."""

    @pytest.mark.parametrize("ingest,bad", [
        (ingest_prices, "2024-02-30,1.0"),
        (ingest_prices, "2024-02-03,nan"),
        (ingest_metro, "m0,2024-13,5,0.9"),
        (ingest_metro, f"m0,2024-10,{2**63},0.9"),
    ])
    @pytest.mark.parametrize("at", [2, 3])  # the last record of block 1, the first of block 2
    def test_bad_field_at_block_edge(self, tmp_path, monkeypatch, ingest, bad, at):
        rows = GOOD[ingest][:at] + [bad] + GOOD[ingest][at:]
        f = tmp_path / "in.csv"
        # blank lines before the bad record are not counted
        f.write_text("\n".join([HEADERS[ingest], *rows[:at], "", "", *rows[at:]]) + "\n")
        default = _outcome(ingest, str(f))
        monkeypatch.setattr(market, "BLOCK_RECORDS", 3)
        assert _outcome(ingest, str(f)) == default
        assert default[1] == at + 2

    @pytest.mark.parametrize("ingest,text,expected", [
        (
            ingest_prices,
            "date,close,date\r\nx,1.5,2024-01-01\r\ny,2.5,2024-01-02\r\n"
            "z,3.5,2024-01-03\r\n\r\nw,4.5,2024-01-04\r\n",
            [(date(2024, 1, d), d + 0.5) for d in range(1, 5)],
        ),
        (
            ingest_prices,
            "date,close,note\n2024-01-01,1.0\n2024-01-02\n2024-01-03,3.0,\"a,b\"\n",
            "bad price ''",
        ),
        (
            ingest_metro,
            METRO_HEADER + 'a,2024-01,1,0.5\n"b,c",2024-01,2,0.6\n"b,c",2024-02,3\n'
            '"d\r\ne",2024-01,4,0.7\r\n',
            "bad ratio ''",
        ),
        (
            ingest_metro,
            "sales_count,metro,month,sale_to_list_ratio,x\r\n1,a,2024-01,0.5\r\n"
            '2,"b,c",2024-01,0.6,\r\n3,"b,c",2024-02,0.7\r\n4,"d\r\ne",2024-01,0.8\r\n',
            [("a", "2024-01", 1, 0.5), ("b,c", "2024-01", 2, 0.6), ("b,c", "2024-02", 3, 0.7),
             ("d\r\ne", "2024-01", 4, 0.8)],
        ),
    ])
    def test_rows_straddling_block_edges(self, tmp_path, monkeypatch, ingest, text, expected):
        f = tmp_path / "in.csv"
        f.write_bytes(text.encode())
        default = _outcome(ingest, str(f))
        for size in (1, 2, 3):
            monkeypatch.setattr(market, "BLOCK_RECORDS", size)
            assert _outcome(ingest, str(f)) == default
        if isinstance(expected, str):
            with pytest.raises(ParseError, match=expected):
                ingest(str(f))
        else:
            assert _ingested(ingest, str(f)) == expected


# Field spellings the column checks must treat as the per-record checks do.
MUTATIONS = [
    "１０", "1_0", "nan", "inf", "-inf", "0", "-0", "-1", "+5", "1e3", " ", "", str(2**63),
    str(2**63 - 1), str(2**64), str(-(2**63) - 1), "0000-01-01", "1900-02-29", "2000-02-29",
    "2024-02-30", "2024-13", "2024-1-01", "2024-00", "２０２４-01", "2024/01/02", "10000-01-01",
    "1.0", "1.5e0",  # an int written as a float, which numpy 1.x's reader parses
    "2024-01-011", "2024-01-0111", "2024-011",  # fill or overflow a plain block's byte fields
]


@st.composite
def _mutated_file(draw, ingest):
    """Valid records with up to three fields, in any rows and columns, replaced by a
    ``MUTATIONS`` spelling."""
    n = draw(st.integers(1, 12))
    if ingest is ingest_prices:
        first = draw(st.integers(date(1899, 12, 25).toordinal(), date(2101, 1, 5).toordinal()))
        days = draw(st.permutations(range(first, first + n)))
        closes = draw(st.lists(st.floats(1e-300, 1e300), min_size=n, max_size=n))
        rows = [[str(date.fromordinal(d)), repr(c)] for d, c in zip(days, closes)]
    else:
        rows = [
            [draw(st.sampled_from(["a", "b", "c d"])),
             f"{draw(st.integers(1, 9999)):04d}-{draw(st.integers(1, 12)):02d}",
             str(draw(st.integers(0, 2**63 - 1))), repr(draw(st.floats(1e-300, 2.0)))]
            for _ in range(n)
        ]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, n - 1))
        rows[row][draw(st.integers(0, len(rows[row]) - 1))] = draw(st.sampled_from(MUTATIONS))
    return "\n".join([HEADERS[ingest], *map(",".join, rows)]) + "\n"


class TestIngestEquivalence:
    """The column checks give the per-record oracle's columns or ParseError, bit for bit."""

    @pytest.mark.parametrize("ingest", [ingest_prices, ingest_metro])
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), block=st.sampled_from([1, 2, 5, 512]))
    def test_matches_per_record_checks(self, tmp_path, monkeypatch, ingest, data, block):
        f = tmp_path / "in.csv"
        f.write_text(data.draw(_mutated_file(ingest)), encoding="utf-8")
        with monkeypatch.context() as m:
            m.setattr(market, "BLOCK_RECORDS", block)
            assert _outcome(ingest, str(f)) == _by_record(monkeypatch, ingest, str(f))

    @pytest.mark.parametrize("ingest", [ingest_prices, ingest_metro])
    @pytest.mark.parametrize("mutation", MUTATIONS, ids=ascii)
    def test_each_mutation_in_each_column(self, tmp_path, monkeypatch, ingest, mutation):
        monkeypatch.setattr(market, "BLOCK_RECORDS", 3)
        f = tmp_path / "in.csv"
        for at in (0, 2, 4):  # first and last of block 1, middle of block 2
            for col in range(HEADERS[ingest].count(",") + 1):
                fields = [row.split(",") for row in GOOD[ingest][:6]]
                fields[at][col] = mutation
                f.write_text("\n".join([HEADERS[ingest], *map(",".join, fields)]) + "\n")
                assert _outcome(ingest, str(f)) == _by_record(monkeypatch, ingest, str(f))

    @pytest.mark.parametrize("ingest,text,error,row", [
        # a later column fails on an earlier row than an earlier column does
        (ingest_prices, "2024-01-01,abc\nbad,1.0", "bad price 'abc'", 2),
        (ingest_prices, "2024-01-01,1.0\n2024-01-02,-2\n2024-13-01,1.0",
         "price must be positive, got -2", 3),
        (ingest_metro, "x,2024-01,5,zero\n,2024-02,5,0.9", "bad ratio 'zero'", 2),
        (ingest_metro, f"x,2024-01,{2**64},0.9\nx,2024-00,5,0.9",
         f"sales count must be in [0, 2**63), got {2**64}", 2),
        # on one row, the first failing check in field order
        (ingest_prices, "bad,abc", "bad ISO date 'bad'", 2),
        (ingest_metro, "x,2024-01,5,0.9\n,2024-13,many,0", "empty metro name", 3),
        (ingest_metro, "x,2024-13,many,0", "bad month '2024-13'", 2),
        (ingest_metro, "x,2024-01,-1,zero", "sales count must be in [0, 2**63), got -1", 2),
    ])
    @pytest.mark.parametrize("block", [1, 3, 512])
    def test_first_rejected_row_wins(self, tmp_path, monkeypatch, ingest, text, error, row, block):
        monkeypatch.setattr(market, "BLOCK_RECORDS", block)
        f = tmp_path / "in.csv"
        f.write_text(f"{HEADERS[ingest]}\n{text}\n")
        assert _outcome(ingest, str(f)) == _by_record(monkeypatch, ingest, str(f))
        with pytest.raises(ParseError, match=re.escape(error)) as info:
            ingest(str(f))
        assert info.value.row == row

    def test_every_day_gives_its_ordinal(self):
        first, last = date(1899, 12, 25), date(2101, 1, 5)
        days = [first + timedelta(d) for d in range((last - first).days + 1)]
        got, bad = market._iso_days([d.isoformat() for d in days])
        assert got.dtype == np.int64
        assert not bad.any()
        assert got.tolist() == [d.toordinal() for d in days]

    @pytest.mark.parametrize("year", [0, 1, 4, 100, 1900, 1999, 2000, 2023, 2024, 2100, 9999])
    def test_each_month_and_day_field_as_fromisoformat(self, year):
        # months 00-13 and days 00-99: every impossible day of every month is rejected
        texts = [f"{year:04d}-{month:02d}-{day:02d}" for month in range(14) for day in range(100)]
        got, bad = market._iso_days(texts)
        for text, ordinal, rejected in zip(texts, got.tolist(), bad.tolist()):
            try:
                expected = date.fromisoformat(text).toordinal()
            except ValueError:
                expected = None
            assert (None if rejected else ordinal) == expected, text

    def test_bad_dates_among_good_ones(self):
        good = [date(1999, 12, 31), date(2000, 2, 29), date(2024, 1, 1), date(2024, 12, 31)]
        texts = [good[0].isoformat(), "2024-1-01", good[1].isoformat(), "２０２４-01-01",
                 "2024-02-30", good[2].isoformat(), "2024-13-01", good[3].isoformat()]
        got, bad = market._iso_days(texts)
        assert bad.tolist() == [False, True, False, True, True, False, True, False]
        assert got[~bad].tolist() == [d.toordinal() for d in good]


# Per ingest, its plain-block converter and its csv-path block check.
PATHS = {ingest_prices: ("_typed_prices", "_price_block"),
         ingest_metro: ("_typed_metro", "_metro_block")}


def _spy(monkeypatch, ingest) -> dict[str, int]:
    """Counts, kept up to date, of the blocks that ``ingest`` converts on the plain path
    and of those that it checks on the csv path."""
    calls = {"plain": 0, "csv": 0}
    typed, block = (getattr(market, name) for name in PATHS[ingest])

    def typed_spy(*args):
        got = typed(*args)
        calls["plain"] += got is not None
        return got

    def block_spy(*args):
        calls["csv"] += 1
        return block(*args)

    monkeypatch.setattr(market, PATHS[ingest][0], typed_spy)
    monkeypatch.setattr(market, PATHS[ingest][1], block_spy)
    return calls


def _benchmark_csv(ingest, n: int) -> str:
    """``n`` records spelled as the benchmark writes them: daily dates and ``repr``
    closes, or metros of 100 months each with ``repr`` ratios."""
    rng = np.random.default_rng(3)
    if ingest is ingest_prices:
        closes = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_t(4, n)))
        rows = [f"{date(1800, 1, 1) + timedelta(i)},{c!r}" for i, c in enumerate(closes.tolist())]
    else:
        sales, ratios = rng.integers(0, 800, n).tolist(), rng.uniform(0.93, 1.01, n).tolist()
        rows = [f"metro{i // 100:04d},{2000 + i % 100 // 12}-{i % 100 % 12 + 1:02d},{k},{r!r}"
                for i, (k, r) in enumerate(zip(sales, ratios))]
    return "\n".join([HEADERS[ingest], *rows]) + "\n"


class TestIngestPaths:
    """Which blocks numpy's reader converts, and which take the csv path."""

    @pytest.mark.parametrize("ingest", [ingest_prices, ingest_metro])
    def test_benchmark_shape_stays_plain(self, tmp_path, monkeypatch, ingest):
        f = tmp_path / "in.csv"
        f.write_text(_benchmark_csv(ingest, 5000))
        calls = _spy(monkeypatch, ingest)
        got = _outcome(ingest, str(f))
        assert calls == {"plain": math.ceil(5000 / (4 * market.BLOCK_RECORDS)), "csv": 0}
        assert got == _by_record(monkeypatch, ingest, str(f))

    @pytest.mark.parametrize("ingest,odd", [
        (ingest_metro, "m0,2024-05, 5 ,0.95"),
        (ingest_prices, "2024-02-01,\t5.5"),
        (ingest_prices, "2024-02-01,5.5\r"),  # the line ends in CR LF
        (ingest_metro, "Zürich,2024-05,5,0.95"),
        (ingest_prices, "2024-02-01,1_0"),
        (ingest_metro, "m" * 32 + ",2024-05,5,0.95"),  # fills the 32-byte name field
        (ingest_metro, "m" * 40 + ",2024-05,5,0.95"),  # and is cut short in it
        (ingest_prices, "2024-02-01"),
    ], ids=["space-padded", "tab", "crlf", "non-ascii-name", "underscore", "name-fills-field",
            "name-cut-short", "short-row"])
    def test_odd_record_takes_csv_path(self, tmp_path, monkeypatch, ingest, odd):
        # Four lines per plain block: the odd record opens block 2.
        monkeypatch.setattr(market, "BLOCK_RECORDS", 1)
        f = tmp_path / "in.csv"
        rows = [HEADERS[ingest], *GOOD[ingest][:4], odd, *GOOD[ingest][4:]]
        f.write_bytes(("\n".join(rows) + "\n").encode())
        calls = _spy(monkeypatch, ingest)
        got = _outcome(ingest, str(f))
        assert calls["plain"] >= 1 and calls["csv"] >= 1
        assert got == _by_record(monkeypatch, ingest, str(f))

    def test_name_one_byte_short_of_its_field_stays_plain(self, tmp_path, monkeypatch):
        f = tmp_path / "in.csv"
        f.write_text(f"{METRO_HEADER}{'m' * 31},2024-05,5,0.95\n")
        calls = _spy(monkeypatch, ingest_metro)
        assert ingest_metro(str(f))[0].metro == "m" * 31
        assert calls == {"plain": 1, "csv": 0}

    def test_blank_block_counts_no_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(market, "BLOCK_RECORDS", 1)
        rows = [*GOOD[ingest_prices][:4], "", "", "", "", "2024-02-30,1.0"]
        f = tmp_path / "in.csv"
        f.write_text("\n".join([HEADERS[ingest_prices], *rows]) + "\n")
        assert _outcome(ingest_prices, str(f)) == ("bad ISO date '2024-02-30' (row 6)", 6)

    def test_field_past_csv_limit_still_raises(self, tmp_path):
        # numpy would skip the unread column; csv refuses the field, as before.
        f = tmp_path / "in.csv"
        f.write_text("date,close,note\n2024-01-02,1.0," + "x" * (csv.field_size_limit() + 1))
        with pytest.raises(csv.Error, match="field limit"):
            ingest_prices(str(f))

    def test_quoted_field_in_block_two_continues_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(market, "BLOCK_RECORDS", 1)
        rows = [*GOOD[ingest_metro][:4], '"m1",2024-05,5,0.95', *GOOD[ingest_metro][4:8],
                "m0,2024-13,5,0.9"]
        f = tmp_path / "in.csv"
        f.write_text("\n".join([HEADERS[ingest_metro], *rows]) + "\n")
        calls = _spy(monkeypatch, ingest_metro)
        got = _outcome(ingest_metro, str(f))
        assert calls == {"plain": 1, "csv": 6}  # csv reads the rest a record per block
        assert got == _by_record(monkeypatch, ingest_metro, str(f))
        assert got == ("bad month '2024-13'; expected YYYY-MM (row 11)", 11)


def _price_csv(n: int) -> str:
    days = [date(1900, 1, 1).toordinal() + i for i in range(n)]
    days[::100], days[1::100] = days[1::100], days[::100]  # out of order, so the sort runs
    return "date,close\n" + "".join(f"{date.fromordinal(d)},{100 + d % 97}.25\n" for d in days)


def _metro_csv(n: int) -> str:
    rows = []
    for i in range(n):  # 100 months for each metro, then the next metro
        month = f"{2000 + i % 100 // 12}-{i % 100 % 12 + 1:02d}"
        rows.append(f"metro{i // 100:04d},{month},{400 + i % 37},0.9{i % 89}\n")
    return METRO_HEADER + "".join(rows)


class TestIngestMemory:
    """Peak traced bytes per row while ingesting 20,000 rows. Row objects (a date
    and float tuple per price, a record per metro row) take about 250 and 320 B,
    so the bounds fail on them; typed columns take about 41 and 91 B."""

    ROWS = 20_000

    @pytest.mark.parametrize(
        "ingest,make_csv,bound", [(ingest_prices, _price_csv, 60), (ingest_metro, _metro_csv, 150)]
    )
    def test_peak_bytes_per_row(self, tmp_path, ingest, make_csv, bound):
        f = tmp_path / "in.csv"
        f.write_text(make_csv(self.ROWS))
        tracemalloc.start()
        try:
            got = ingest(str(f))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == self.ROWS
        assert peak / self.ROWS < bound

    @pytest.mark.parametrize(
        "ingest,make_csv", [(ingest_prices, _price_csv), (ingest_metro, _metro_csv)]
    )
    def test_one_wide_record(self, tmp_path, ingest, make_csv):
        """A record of 10**5 extra fields costs about its own 0.8 MB of field pointers. A
        block transposed out to its widest record holds 10**5 tuples of 100 fields, 86 MB.
        A metro name of 10**5 characters, which csv accepts, costs about its own size; a
        string field sized by the longest line would hold 100 such widths, 10 MB."""
        lines = make_csv(100).splitlines(keepends=True)
        wide = [lines[50].rstrip("\n") + "," * 10**5 + "\n"]
        if ingest is ingest_metro:
            wide.append("m" * 10**5 + lines[50][lines[50].index(",") :])
        f = tmp_path / "in.csv"
        for line in wide:
            lines[50] = line
            f.write_text("".join(lines))
            tracemalloc.start()
            try:
                got = ingest(str(f))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(got) == 100
            assert peak < 4 * 10**6


class TestMetroMonthlyRecord:
    def test_fields_in_order(self):
        params = list(inspect.signature(MetroMonthlyRecord).parameters)
        assert params == ["metro", "month", "sales_count", "sale_to_list_ratio"]

    def test_keyword_construction_and_attributes(self):
        rec = MetroMonthlyRecord(
            month="2024-01", metro="town", sale_to_list_ratio=0.9, sales_count=5
        )
        assert rec == MetroMonthlyRecord("town", "2024-01", 5, 0.9)
        assert rec.metro == "town" and rec.month == "2024-01"
        assert rec.sales_count == 5 and rec.sale_to_list_ratio == 0.9

    def test_immutable(self):
        rec = MetroMonthlyRecord("town", "2024-01", 5, 0.9)
        with pytest.raises(AttributeError):
            rec.sales_count = 6
