"""Unit-root testing on quasi-differenced (GLS-detrended) series.

The test regresses the first difference of the detrended series on its lagged
level plus lagged differences, with the lag count chosen by BIC on a common
estimation sample so the criteria are comparable across candidates. The final
statistic is the t-ratio on the lagged-level coefficient, refit on the full
sample available for the chosen lag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .var_base import _nested_rss

__all__ = [
    "DETREND_CONSTANT",
    "DETREND_TREND",
    "CRITICAL_VALUES",
    "CONDITION_LIMIT",
    "AdfGlsResult",
    "gls_detrend",
    "adf_gls_test",
    "default_max_lag",
]

DETREND_CONSTANT = "constant"
DETREND_TREND = "constant+trend"

# Quasi-differencing constants for the two deterministic models.
_CBAR = {DETREND_CONSTANT: -7.0, DETREND_TREND: -13.5}

# Asymptotic rejection thresholds. The trend 1% value is pinned to the
# stricter OLS-detrending convention (the quasi-differenced asymptote would be
# -3.48); the constant model uses the no-deterministics limit, the correct
# reference after mean-removal by quasi-differencing.
CRITICAL_VALUES = {
    DETREND_TREND: {0.01: -3.96, 0.05: -3.41, 0.10: -3.13},
    DETREND_CONSTANT: {0.01: -2.58, 0.05: -1.94, 0.10: -1.62},
}

# Largest cond(X'X) of the final regression whose t-ratio is taken: inv(X'X) loses
# about log10(cond(X'X)) of float64's 16 digits, so past 1e12 fewer than 4 are left
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class AdfGlsResult:
    """Outcome of the detrended unit-root regression.

    ``statistic`` is the t-ratio on the lagged level, ``chosen_lag`` the BIC
    pick, ``phi_hat`` the implied sum of level-AR coefficients (1 plus the
    lagged-level coefficient), and ``n_obs`` the rows in the final regression.
    """

    statistic: float
    chosen_lag: int
    phi_hat: float
    detrend_model: str
    n_obs: int

    def critical_value(self, level: float = 0.01) -> float:
        return CRITICAL_VALUES[self.detrend_model][level]

    def rejects_at(self, level: float = 0.01) -> bool:
        return self.statistic < self.critical_value(level)

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "lag": self.chosen_lag,
            "phi_hat": self.phi_hat,
            "model": self.detrend_model,
            "n_obs": self.n_obs,
        }


def default_max_lag(n_obs: int) -> int:
    """Common rule of thumb: floor(12 * (T/100)^(1/4))."""
    return int(math.floor(12.0 * (n_obs / 100.0) ** 0.25))


def gls_detrend(y: np.ndarray, model: str = DETREND_TREND) -> np.ndarray:
    """Remove the deterministic component fitted on quasi-differenced data.

    With abar = 1 + cbar/T (cbar = -7 constant, -13.5 trend), both the series
    and the deterministic regressors are transformed as
    (z_1, z_2 - abar*z_1, ..., z_T - abar*z_{T-1}); the OLS coefficients from
    that transformed regression define the component subtracted from ``y``.
    """
    y = np.asarray(y, dtype=float)
    T = y.shape[0]
    if model not in _CBAR:
        raise DataError(f"unknown detrend model {model!r}")
    if T < 10:
        raise DataError("detrending needs at least 10 observations")
    abar = 1.0 + _CBAR[model] / T
    if model == DETREND_TREND:
        Zd = np.column_stack([np.ones(T), np.arange(1, T + 1, dtype=float)])
    else:
        Zd = np.ones((T, 1))
    ya = np.concatenate([y[:1], y[1:] - abar * y[:-1]])
    Za = np.vstack([Zd[:1], Zd[1:] - abar * Zd[:-1]])
    delta, _, rank, _ = np.linalg.lstsq(Za, ya, rcond=None)
    assert rank == Zd.shape[1], "deterministic regressors cannot be collinear for T >= 3"
    return y - Zd @ delta


def _adf_columns(yt: np.ndarray, dy: np.ndarray, k: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """Target and regressors for the lag-k difference regression.

    ``first`` is the first usable index into ``dy`` (max_lag for the common
    BIC sample, k for the final fit).
    """
    target = dy[first:]
    cols = [yt[first:-1]]
    for j in range(1, k + 1):
        cols.append(dy[first - j : len(dy) - j])
    return target, np.column_stack(cols)


def _lag_bics(yt: np.ndarray, dy: np.ndarray, max_lag: int) -> list[float]:
    """BIC of lag counts 0..max_lag, all on the common sample defined by max_lag."""
    target, X = _adf_columns(yt, dy, max_lag, max_lag)
    nobs = len(target)
    bics = []
    for k, (cross, _) in enumerate(_nested_rss(np.column_stack([X, target]), max_lag + 1, range(1, max_lag + 2))):
        rss = float(cross[0, 0])
        bics.append(-np.inf if rss <= 0.0 else math.log(rss / nobs) + (k + 1) * math.log(nobs) / nobs)
    return bics


def adf_gls_test(y: np.ndarray, max_lag: int | None = None, model: str = DETREND_TREND) -> AdfGlsResult:
    """Unit-root t-test on the GLS-detrended series with BIC lag selection.

    BIC compares lag counts 0..max_lag on the sample defined by max_lag; the
    chosen regression is then refit on its own full sample to produce the
    statistic.
    """
    y = np.asarray(y, dtype=float)
    T = y.shape[0]
    if max_lag is None:
        max_lag = default_max_lag(T)
    if max_lag < 0:
        raise DataError("max_lag must be non-negative")
    if T <= max_lag + 10:
        raise DataError(f"need more than max_lag + 10 = {max_lag + 10} observations, got {T}")
    if float(np.var(y)) == 0.0:
        raise DataError("degenerate regression: series has zero variance")

    yt = gls_detrend(y, model)
    dy = np.diff(yt)
    best_k = int(np.argmin(_lag_bics(yt, dy, max_lag)))

    target, X = _adf_columns(yt, dy, best_k, best_k)
    beta, _, rank, sv = np.linalg.lstsq(X, target, rcond=None)
    # cond(X'X) = (sv[0] / sv[-1])**2, so inv(X'X) loses its digits long before lstsq loses rank
    if rank < X.shape[1] or sv[0] > math.sqrt(CONDITION_LIMIT) * sv[-1]:
        raise DataError(f"degenerate regression: collinear lag structure (cond(X'X) above {CONDITION_LIMIT:g})")
    resid = target - X @ beta
    dof = len(target) - X.shape[1]
    s2 = float(resid @ resid) / dof
    se = math.sqrt(s2 * np.linalg.inv(X.T @ X)[0, 0])
    statistic = float(beta[0] / se)
    return AdfGlsResult(
        statistic=statistic,
        chosen_lag=best_k,
        phi_hat=float(1.0 + beta[0]),
        detrend_model=model,
        n_obs=len(target),
    )
