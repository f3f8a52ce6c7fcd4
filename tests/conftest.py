import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest

from mkteff import AlignedPanel, PriceSeries


def make_dates(T, start=date(2020, 1, 1)):
    return tuple(start + timedelta(days=t) for t in range(T))


def make_panel(values, kind="returns", asset_ids=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1 and values.shape[1] > values.shape[0]:
        values = values.T
    n = values.shape[1]
    ids = tuple(asset_ids) if asset_ids else tuple(f"A{i}" for i in range(n))
    return AlignedPanel(make_dates(values.shape[0]), values, ids, kind)


def make_series(asset_id, dates, prices):
    return PriceSeries(asset_id=asset_id, dates=tuple(dates), prices=np.asarray(prices, float))


def traced_peak(fn, *args) -> int:
    """Peak bytes traced while fn(*args) runs, above what was held when it started."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
