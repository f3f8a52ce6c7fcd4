"""Constant-coefficient VAR estimation and its diagnostic battery.

Equation-by-equation OLS (identical regressors make it the efficient system
estimator), BIC order selection on a common sample, Bartlett-kernel HAC
standard errors, a joint predictive-causality F test, and a cumulative-score
parameter-constancy test against random-walk drift.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
from scipy.special import fdtrc

from .errors import DataError, NumericalError
from .market_data import AlignedPanel

__all__ = [
    "VarEstimate",
    "GrangerResult",
    "HansenLcResult",
    "HANSEN_LC_CRITICAL",
    "fit_var_ols",
    "select_lag_bic",
    "granger_causality",
    "hansen_lc",
]

# Cumulative-score constancy test: asymptotic critical values indexed by the
# number of jointly tested parameters (coefficients plus variances), at the
# 10/5/1 percent levels. Hansen (1992), parameter counts 1..20.
HANSEN_LC_CRITICAL: dict[int, tuple[float, float, float]] = {
    1: (0.353, 0.470, 0.748),
    2: (0.610, 0.749, 1.07),
    3: (0.846, 1.01, 1.35),
    4: (1.07, 1.24, 1.60),
    5: (1.28, 1.47, 1.88),
    6: (1.49, 1.68, 2.12),
    7: (1.69, 1.90, 2.35),
    8: (1.89, 2.11, 2.59),
    9: (2.10, 2.32, 2.82),
    10: (2.29, 2.54, 3.05),
    11: (2.49, 2.75, 3.27),
    12: (2.69, 2.96, 3.51),
    13: (2.89, 3.15, 3.69),
    14: (3.08, 3.34, 3.90),
    15: (3.26, 3.54, 4.07),
    16: (3.46, 3.75, 4.30),
    17: (3.64, 3.95, 4.51),
    18: (3.83, 4.14, 4.73),
    19: (4.03, 4.33, 4.92),
    20: (4.22, 4.52, 5.13),
}

# Columns of the running score sums that ``hansen_lc`` solves against V at once
_SOLVE_BLOCK = 256


@dataclass(frozen=True, eq=False)
class VarEstimate:
    """Fitted VAR(p): intercepts, lag matrices, residuals, and diagnostics.

    ``coefficients`` stacks the per-equation parameter vectors as columns with
    row 0 the intercept and row 1 + (l-1)*n + j the lag-l weight on asset j.
    ``sigma`` uses the maximum-likelihood 1/T_eff scaling (what BIC needs);
    ``robust_se`` holds HAC standard errors in the same layout as
    ``coefficients``, transposed to one row per equation.
    """

    p: int
    asset_ids: tuple[str, ...]
    nu: np.ndarray  # (n,)
    A: np.ndarray  # (p, n, n); A[l-1][i, j] multiplies asset j at lag l in equation i
    coefficients: np.ndarray  # (k, n), k = 1 + n*p
    residuals: np.ndarray  # (T_eff, n)
    regressors: np.ndarray  # (T_eff, k)
    sigma: np.ndarray  # (n, n)
    robust_se: np.ndarray  # (n, k)
    bic: float
    adj_r2: np.ndarray  # (n,)
    nobs: int

    @property
    def n_assets(self) -> int:
        return len(self.asset_ids)


@dataclass(frozen=True)
class GrangerResult:
    """Joint F test that one asset's lags predict the other equations."""

    source_asset: str
    f_statistic: float
    df_num: int
    df_den: int
    p_value: float

    def to_dict(self) -> dict:
        return {
            "source": self.source_asset,
            "f": self.f_statistic,
            "df": [self.df_num, self.df_den],
            "p_value": self.p_value,
        }


@dataclass(frozen=True)
class HansenLcResult:
    """Joint parameter-constancy statistic over coefficients and variances."""

    lc_statistic: float
    n_params: int
    thresholds: dict  # level -> critical value

    def rejects_at(self, level: float = 0.05) -> bool:
        return self.lc_statistic > self.thresholds[level]

    def to_dict(self) -> dict:
        return {
            "lc": self.lc_statistic,
            "n_params": self.n_params,
            "thresholds": {str(k): v for k, v in self.thresholds.items()},
        }


def _design_columns(values: np.ndarray, p: int, sample_start: int) -> list[np.ndarray]:
    """The [1, lags 1..p] regressor columns for targets starting at row sample_start."""
    T = values.shape[0]
    return [np.ones(T - sample_start)] + [values[sample_start - l : T - l] for l in range(1, p + 1)]


def _hac_cov(X: np.ndarray, resid: np.ndarray, bandwidth: int) -> np.ndarray:
    """Bartlett-kernel sandwich covariance per equation; bandwidth 0 is White."""
    T, k = X.shape
    n = resid.shape[1]
    xtx_inv = np.linalg.inv(X.T @ X)
    covs = np.empty((n, k, k))
    for i in range(n):
        u = X * resid[:, i : i + 1]  # (T, k) score rows
        meat = u.T @ u
        for j in range(1, bandwidth + 1):
            w = 1.0 - j / (bandwidth + 1.0)
            gamma = u[j:].T @ u[:-j]
            meat += w * (gamma + gamma.T)
        covs[i] = xtx_inv @ meat @ xtx_inv
    return covs


def _auto_bandwidth(T: int) -> int:
    return int(math.floor(4.0 * (T / 100.0) ** (2.0 / 9.0)))


def _check_rows(T: int, start: int, k: int) -> None:
    if T - start <= k:
        raise DataError(f"too few rows: need more than {k + start}, got {T}")


def _bic(sigma: np.ndarray, teff: int, k: int) -> float:
    """Gaussian BIC of an n-equation fit with k regressors per equation."""
    sign, logdet = np.linalg.slogdet(sigma)
    return float((logdet if sign > 0 else -np.inf) + (sigma.shape[0] * k) * math.log(teff) / teff)


def _ols(
    values: np.ndarray, p: int, start: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """OLS core of the fit.

    Returns targets, regressors, coefficients, residuals, the ML residual
    covariance and BIC, for targets starting at row ``start``.
    """
    if p < 1:
        raise DataError("lag order must be at least 1")
    T, n = values.shape
    k = 1 + n * p
    _check_rows(T, start, k)
    Y, X = values[start:], np.column_stack(_design_columns(values, p, start))
    beta, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)
    if rank < k:
        raise NumericalError("rank-deficient regressor matrix")
    resid = Y - X @ beta
    teff = Y.shape[0]
    sigma = resid.T @ resid / teff
    return Y, X, beta, resid, sigma, _bic(sigma, teff, k)


def _nested_rss(XY: np.ndarray, K: int, ks: Iterable[int]) -> Iterator[tuple[np.ndarray, int]]:
    """Residual cross products and ranks of regressing Y on each column prefix X[:, :k].

    XY is [X | Y] with X its first K columns. One R-only QR of XY leaves
    C = R[:K, K:] and E = R[K:, K:]; the prefix fit's residual cross product is
    E'E + r'r with r = C - R[:K, :k] b, b the least-squares solution of that
    K x k problem. The cutoff matches what lstsq applies to the tall design, so
    a rank-deficient prefix is treated as a direct fit would treat it. Yields
    (cross product, rank) per k.
    """
    T = XY.shape[0]
    R = np.linalg.qr(XY, mode="r")
    C, E = R[:K, K:], R[K:, K:]
    base = E.T @ E
    eps = np.finfo(float).eps
    for k in ks:
        Rk = R[:K, :k]
        b, _, rank, _ = np.linalg.lstsq(Rk, C, rcond=eps * max(T, k))
        r = C - Rk @ b
        yield base + r.T @ r, rank


def fit_var_ols(panel: AlignedPanel, p: int) -> VarEstimate:
    """Fit a VAR(p) with intercepts by per-equation OLS, targets from row ``p`` on.

    Parameters
    ----------
    panel : AlignedPanel
        Returns panel, T x n.
    p : int
        Lag order, at least 1.

    Returns
    -------
    VarEstimate
        With residuals, ML residual covariance, BIC, adjusted R-squared, and
        HAC standard errors at the automatic bandwidth.
    """
    Y, X, beta, resid, sigma, bic = _ols(panel.values, p, p)
    teff, k = X.shape
    n = panel.n_assets
    tss = ((Y - Y.mean(axis=0)) ** 2).sum(axis=0)
    rss = (resid**2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        adj_r2 = 1.0 - (rss / max(teff - k, 1)) / (tss / (teff - 1))
    covs = _hac_cov(X, resid, _auto_bandwidth(teff))
    robust_se = np.sqrt(np.maximum(np.diagonal(covs, axis1=1, axis2=2), 0.0))
    A = np.stack([beta[1 + l * n : 1 + (l + 1) * n].T for l in range(p)])
    return VarEstimate(
        p=p,
        asset_ids=panel.asset_ids,
        nu=beta[0].copy(),
        A=A,
        coefficients=beta,
        residuals=resid,
        regressors=X,
        sigma=sigma,
        robust_se=robust_se,
        bic=bic,
        adj_r2=np.asarray(adj_r2, dtype=float),
        nobs=teff,
    )


def _bic_path(values: np.ndarray, p_max: int) -> list[float]:
    """BIC of lag orders 1..p_max, all fit on the rows after p_max.

    Candidates are checked in ascending order, and the first that has too few
    rows or a rank-deficient design ends the search with its error.
    """
    if p_max < 1:
        raise DataError("p_max must be at least 1")
    T, n = values.shape
    p_fit = min(p_max, max(0, (T - p_max - 2) // n))  # the largest order with enough rows
    bics = []
    if p_fit:
        # [1, lags 1..p_fit | targets] built once, the one design the QR copies
        XY = np.column_stack([*_design_columns(values, p_fit, p_max), values[p_max:]])
        teff = XY.shape[0]
        ks = [1 + n * p for p in range(1, p_fit + 1)]
        for k, (cross, rank) in zip(ks, _nested_rss(XY, ks[-1], ks)):
            if rank < k:
                raise NumericalError("rank-deficient regressor matrix")
            bics.append(_bic(cross / teff, teff, k))
    if p_fit < p_max:
        _check_rows(T, p_max, 1 + n * (p_fit + 1))
    return bics


def select_lag_bic(panel: AlignedPanel, p_max: int) -> int:
    """Smallest-BIC lag order over 1..p_max, all fit on the rows after p_max."""
    return 1 + int(np.argmin(_bic_path(panel.values, p_max)))


def _stacked_rss(Y: np.ndarray, X: np.ndarray, drop_cols: dict[int, list[int]]) -> float:
    """Total RSS over equations, dropping the given columns per equation."""
    total = 0.0
    for i in range(Y.shape[1]):
        drop = drop_cols.get(i, [])
        keep = [c for c in range(X.shape[1]) if c not in drop]
        Xi = X[:, keep]
        beta, _, rank, _ = np.linalg.lstsq(Xi, Y[:, i], rcond=None)
        if rank < len(keep):
            raise NumericalError("singular restricted system")
        r = Y[:, i] - Xi @ beta
        total += float(r @ r)
    return total


def granger_causality(est: VarEstimate, source: str) -> GrangerResult:
    """Test whether the source asset's lags predict all other equations of the fit jointly.

    The unrestricted model stacks the n OLS equations into one block-diagonal
    system; the restriction zeroes the source's lag coefficients in every other
    equation (p*(n-1) restrictions). The classical F comes from the restricted
    and unrestricted residual sums.
    """
    n, p = est.n_assets, est.p
    k = est.coefficients.shape[0]
    if source not in est.asset_ids:
        raise DataError(f"unknown source asset {source!r}; the fit has {', '.join(map(repr, est.asset_ids))}")
    src = est.asset_ids.index(source)
    src_cols = [1 + l * n + src for l in range(p)]
    others = [i for i in range(n) if i != src]
    r = p * (n - 1)
    df_den = n * est.nobs - n * k
    Y = est.regressors @ est.coefficients + est.residuals
    rss_u = float((est.residuals**2).sum())
    rss_r = _stacked_rss(Y, est.regressors, {i: src_cols for i in others})
    f_stat = ((rss_r - rss_u) / r) / (rss_u / df_den)
    return GrangerResult(
        source_asset=source,
        f_statistic=float(f_stat),
        df_num=r,
        df_den=df_den,
        p_value=_f_pvalue(f_stat, r, df_den),
    )


def _f_pvalue(f_stat: float, df_num: int, df_den: int) -> float:
    """Upper tail of the F(df_num, df_den) law; 1 for a negative statistic."""
    return float(fdtrc(df_num, df_den, max(f_stat, 0.0)))


def hansen_lc(est: VarEstimate) -> HansenLcResult:
    """Cumulative-score constancy statistic over all coefficients and variances of the fit.

    Per equation the score rows are the regressor-weighted residuals plus the
    centered squared residual; stacking across equations gives f_t, and the
    statistic is (1/T) * sum_t S_t' V^{-1} S_t with S_t the running score sum
    and V the outer-product sum. Large values indicate parameters drifting
    like a random walk.
    """
    X = est.regressors
    resid = np.ascontiguousarray(est.residuals)  # sig2 sums in memory order too
    teff, k = X.shape
    n = resid.shape[1]
    sig2 = (resid**2).mean(axis=0)
    m = n * (k + 1)
    # one score matrix, Fortran order whatever X's: the einsum below sums in memory order
    F = np.empty((teff, m), order="F")
    for i in range(n):
        np.multiply(X, resid[:, i : i + 1], out=F[:, i * (k + 1) : i * (k + 1) + k])
        np.subtract(resid[:, i] ** 2, sig2[i], out=F[:, i * (k + 1) + k])
    V = F.T @ F
    S = np.cumsum(F, axis=0, out=F)  # F becomes the running score sums
    # V^-1 S' a block of columns at a time, so LAPACK's working copies stay one
    # block wide; a one-column tail joins the block before it, because a
    # one-column solve takes another BLAS path and differs in the last ulps
    VinvS = np.empty((m, teff))
    edges = [*range(0, max(teff - 1, 1), _SOLVE_BLOCK), teff]
    try:
        for a, b in zip(edges, edges[1:]):
            VinvS[:, a:b] = np.linalg.solve(V, S[a:b].T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("score covariance singular: collinear scores") from exc
    lc = float(np.einsum("tm,mt->", S, VinvS) / teff)
    if m in HANSEN_LC_CRITICAL:
        row = HANSEN_LC_CRITICAL[m]
    else:
        warnings.warn(
            f"{m} parameters exceeds the tabulated range; using the 20-parameter thresholds",
            stacklevel=2,
        )
        row = HANSEN_LC_CRITICAL[20]
    return HansenLcResult(
        lc_statistic=lc,
        n_params=m,
        thresholds={0.10: row[0], 0.05: row[1], 0.01: row[2]},
    )
