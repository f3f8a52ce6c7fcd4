"""Time-varying joint market efficiency across asset return series.

Pipeline: load and align daily prices, difference to log returns, gate on a
GLS-detrended unit-root test, fit a constant VAR (order selection, robust
errors, causality, parameter-constancy), then estimate per-period coefficient
paths by penalized least squares, map them to the spectral deviation of the
long-run response from identity, and attach residual-bootstrap bands under the
no-predictability null.
"""

from .errors import ConfigError, DataError, MktEffError, NumericalError
from .market_data import (
    AlignedPanel,
    CsvFormat,
    DescriptiveStats,
    PriceSeries,
    align,
    describe,
    load_price_series,
    log_returns,
)
from .unit_root import AdfGlsResult, adf_gls_test, gls_detrend
from .var_base import (
    GrangerResult,
    HansenLcResult,
    VarEstimate,
    fit_var_ols,
    granger_causality,
    hansen_lc,
    select_lag_bic,
)
from .tv_var import (
    TvVarConfig,
    TvVarEstimate,
    export_coefficient_paths,
    fit_tv_var,
)
from .efficiency import BandPath, EfficiencyPath, efficiency_path
from .bootstrap import BootstrapConfig, bootstrap_bands
from .synth import DgpSpec, DgpTruth, simulate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MktEffError", "DataError", "ConfigError", "NumericalError",
    "PriceSeries", "AlignedPanel", "DescriptiveStats", "CsvFormat",
    "load_price_series", "align", "log_returns", "describe",
    "AdfGlsResult", "gls_detrend", "adf_gls_test",
    "VarEstimate", "GrangerResult", "HansenLcResult",
    "fit_var_ols", "select_lag_bic",
    "granger_causality", "hansen_lc",
    "TvVarConfig", "TvVarEstimate",
    "fit_tv_var", "export_coefficient_paths",
    "EfficiencyPath", "efficiency_path",
    "BootstrapConfig", "BandPath", "bootstrap_bands",
    "DgpSpec", "DgpTruth", "simulate",
]
