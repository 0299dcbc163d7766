"""Seeded synthetic fixtures shared by the market and CLI tests."""

from __future__ import annotations

import math

import numpy as np

from arcwalk import MetroMonthlyRecord, MetroPanel


def make_housing_records(
    metros: int = 50,
    months: int = 24,
    rho: float = 0.9,
    seed: int = 0,
    over_asking: int = 3,
) -> MetroPanel:
    """A panel of per-metro (sales, ratio) pairs drawn at generative correlation ``rho``.

    Each metro also gets ``over_asking`` months with ratio > 1 that the
    pipeline must drop; their sales counts are deliberately extreme so
    including them would visibly distort the correlation.
    """
    rng = np.random.default_rng(seed)
    records: list[MetroMonthlyRecord] = []
    for m in range(metros):
        name = f"metro{m:03d}"
        z1 = rng.standard_normal(months)
        z2 = rho * z1 + math.sqrt(1.0 - rho * rho) * rng.standard_normal(months)
        sales = np.maximum(0, np.round(500 + 120 * z1)).astype(int)
        ratio = np.clip(0.96 + 0.015 * z2, 0.90, 0.999)
        for t in range(months):
            month = f"20{10 + t // 12:02d}-{t % 12 + 1:02d}"
            records.append(MetroMonthlyRecord(name, month, int(sales[t]), float(ratio[t])))
        for j in range(over_asking):
            records.append(
                MetroMonthlyRecord(name, f"2015-{j + 1:02d}", 900 + 50 * j, 1.05 + 0.01 * j)
            )
    return MetroPanel.from_records(records)


def records_to_csv(records) -> str:
    lines = ["metro,month,sales_count,sale_to_list_ratio"]
    for r in records:
        lines.append(f"{r.metro},{r.month},{r.sales_count},{r.sale_to_list_ratio!r}")
    return "\n".join(lines) + "\n"


def make_price_csv(n_days: int = 260, seed: int = 0, drift: float = 0.0003, vol: float = 0.012) -> str:
    """Geometric random-walk closing prices as a ``date,close`` CSV."""
    rng = np.random.default_rng(seed)
    price = 100.0
    lines = ["date,close"]
    day = np.datetime64("2023-01-02")
    for _ in range(n_days):
        lines.append(f"{day},{price!r}")
        price *= math.exp(drift + vol * rng.standard_normal())
        day += np.timedelta64(1, "D")
    return "\n".join(lines) + "\n"
