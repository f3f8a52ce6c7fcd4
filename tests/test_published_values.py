"""Data-conditional comparison harness against the published table values.

The original daily price files are not redistributable, so these checks run
only when ``MKTEFF_SOURCE_DATA`` points to a directory containing::

    sp500.csv     bitcoin.csv     gold.csv

each with a header row and (date, price) columns, daily closes from
2014-09-14 through 2021-08-31 from the same source feed. Summary statistics
are compared at 4 printed decimals; test statistics carry looser tolerances
because bandwidth and holiday-calendar details of the source feed are not
fully recoverable. CI acceptance never depends on this module.
"""

import os

import numpy as np
import pytest

from mkteff import (
    CsvFormat,
    adf_gls_test,
    align,
    describe,
    fit_var_ols,
    granger_causality,
    hansen_lc,
    load_price_series,
    log_returns,
    select_lag_bic,
)

DATA_DIR = os.environ.get("MKTEFF_SOURCE_DATA", "")

pytestmark = pytest.mark.skipif(
    not DATA_DIR or not os.path.isdir(DATA_DIR),
    reason="set MKTEFF_SOURCE_DATA to the directory with sp500/bitcoin/gold CSVs",
)

EXPECTED_STATS = {
    # asset: (mean, sd, min, max) at 4 printed decimals
    "SP500": (0.0005, 0.0115, -0.1277, 0.0897),
    "BTC": (0.0027, 0.0472, -0.4647, 0.2251),
    "GOLD": (0.0002, 0.0091, -0.0526, 0.0513),
}
EXPECTED_ADF = {"SP500": -10.5354, "BTC": -4.1933, "GOLD": -4.4568}
EXPECTED_N = 1685
EXPECTED_LC = 163.5671
EXPECTED_GRANGER_SP500 = 2.2812


@pytest.fixture(scope="module")
def returns_panel():
    series = []
    for fname, asset in (("sp500.csv", "SP500"), ("bitcoin.csv", "BTC"), ("gold.csv", "GOLD")):
        series.append(load_price_series(os.path.join(DATA_DIR, fname), asset, CsvFormat()))
    panel = align(series)
    from datetime import date

    panel = panel.window(date(2014, 9, 12), date(2021, 8, 31))
    return log_returns(panel)


def test_observation_count(returns_panel):
    assert returns_panel.n_periods == EXPECTED_N


def test_descriptive_statistics(returns_panel):
    stats = describe(returns_panel)
    for i, asset in enumerate(stats.asset_ids):
        mean, sd, mn, mx = EXPECTED_STATS[asset]
        assert round(float(stats.mean[i]), 4) == mean
        assert round(float(stats.sd[i]), 4) == sd
        assert round(float(stats.minimum[i]), 4) == mn
        assert round(float(stats.maximum[i]), 4) == mx


def test_unit_root_statistics(returns_panel):
    for asset, expected in EXPECTED_ADF.items():
        res = adf_gls_test(returns_panel.column(asset))
        assert res.rejects_at(0.01)
        assert res.statistic == pytest.approx(expected, abs=0.5)


def test_var_order_and_preliminary_table(returns_panel):
    assert select_lag_bic(returns_panel, 8) == 1
    est = fit_var_ols(returns_panel, 1)
    np.testing.assert_allclose(est.nu, [0.0006, 0.0028, 0.0003], atol=5e-4)
    assert est.A[0, 0, 0] == pytest.approx(-0.1910, abs=0.02)
    # robust errors depend on the unstated bandwidth; compare loosely
    assert est.robust_se[0, 1] == pytest.approx(0.0820, abs=0.02)


def test_causality_and_constancy(returns_panel):
    est = fit_var_ols(returns_panel, 1)
    g = granger_causality(est, "SP500")
    assert g.f_statistic == pytest.approx(EXPECTED_GRANGER_SP500, rel=0.15)
    assert g.p_value < 0.10
    lc = hansen_lc(est)
    assert lc.rejects_at(0.01)
    assert lc.lc_statistic == pytest.approx(EXPECTED_LC, rel=0.15)
