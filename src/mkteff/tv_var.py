"""Per-period VAR coefficients as one penalized least-squares problem.

The model lets every lag matrix drift from period to period while the
intercept stays fixed. Estimation minimizes

    sum_t ||x_t - nu - sum_l A_{l,t} x_{t-l}||^2
        + lam * sum_t ||vec(A_{.,t}) - vec(A_{.,t-1})||^2

over (nu, {A_{l,t}}), where lam is the ratio of the observation noise variance
to the coefficient-increment variance. There is no penalty row ahead of the
first period (diffuse start), so the earliest coefficients are tied down only
by data and the forward smoothness rows.

With a scalar observation covariance the problem separates by equation: each
equation shares the same banded normal-equation matrix (block tridiagonal in
time, bandwidth n*q) plus a one-column border for its intercept. The banded
solver factors that matrix once with a banded Cholesky and eliminates the
border by a Schur complement, giving O(T) solve time. The test suite checks
it against a dense lstsq solve of the full stacked design (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import ConfigError, DataError, NumericalError
from .market_data import AlignedPanel

__all__ = [
    "TvVarConfig",
    "TvVarEstimate",
    "fit_tv_var",
    "export_coefficient_paths",
]

_RIDGE_JITTER = 1e-10
# Cap on the cells (n*q + 1) * (T - q) * n*q of the banded normal equations:
# 2**26 float64 cells are 512 MB, which the factor overwrites in place
MAX_BAND_CELLS = 2**26
_LAMBDA_FLOOR, _LAMBDA_CAP = 1e-8, 1e12

SOLVER_BANDED = "banded-cholesky"
LAMBDA_MODES = ("fixed", "two-pass")


@dataclass(frozen=True)
class TvVarConfig:
    """Estimation settings.

    ``lam`` is the smoothing ratio (observation variance over coefficient
    increment variance); larger values give smoother paths, and the limit
    reproduces the constant-coefficient OLS fit. ``lambda_mode="two-pass"``
    re-estimates the ratio from first-pass residuals and increments. The
    intercept is always held fixed over time.
    """

    q: int = 1
    lam: float = 1.0
    lambda_mode: str = "fixed"  # one of LAMBDA_MODES

    def __post_init__(self):
        if self.q < 1:
            raise ConfigError("q must be at least 1")
        if not self.lam > 0:
            raise ConfigError("lam must be positive")
        if self.lambda_mode not in LAMBDA_MODES:
            raise ConfigError(f"unknown lambda_mode {self.lambda_mode!r}")


@dataclass(frozen=True, eq=False)
class TvVarEstimate:
    """Fitted per-period coefficients.

    ``A_path[s, l-1]`` is the lag-l matrix for the (q+1+s)-th panel row, whose
    date is ``dates[s]``. ``lambda_effective`` is the smoothing ratio actually
    used and ``ridge_jitter`` the ridge added to a degenerate system (0.0 when
    none was needed). ``intercept_pivot`` is the intercept's Schur complement
    over the period count; fits below 1e-10 are refused as unidentified.
    """

    dates: tuple[date, ...]
    asset_ids: tuple[str, ...]
    nu: np.ndarray  # (n,)
    A_path: np.ndarray  # (S, q, n, n)
    residuals: np.ndarray  # (S, n)
    config: TvVarConfig
    effective_obs: int
    lambda_effective: float
    ridge_jitter: float
    intercept_pivot: float


def _lagged_design(values: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Targets (S, n) and shared lag regressors (S, n*q) for rows q..T-1."""
    T = values.shape[0]
    Y = values[q:]
    Z = np.concatenate([values[q - l : T - l] for l in range(1, q + 1)], axis=1)
    return Y, Z


def _normal_band(Z: np.ndarray, lam: float) -> np.ndarray:
    """The banded normal-equation matrix in lower band storage (row d the d-th
    subdiagonal, row m the coupling), in a new array ``dpbtrf`` factors in place."""
    S, m = Z.shape
    ab = np.zeros((m + 1, S * m), order="F")
    border = Z.ravel()
    pen = np.full(S, 2.0 * lam)
    pen[0] -= lam
    pen[-1] -= lam
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported by the caller
        diag = np.multiply(Z, Z, out=ab[0].reshape(S, m))
        diag += pen[:, None]
        # row d holds the d-th subdiagonal of each period's outer product Z[s] Z[s]':
        # one product along the flattened regressors, then the d cells per period
        # that pair two periods are put back to zero
        for d in range(1, m):
            np.multiply(border[:-d], border[d:], out=ab[d, :-d])
            ab[d].reshape(S, m)[:, m - d :] = 0.0
    ab[m, :-m] = -lam  # coupling between consecutive periods, same coefficient
    return ab


def _factor_banded(Z: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
    """Lower-band Cholesky of ``_normal_band`` with a one-shot ridge fallback;
    returns the factor L in lower band storage, in the band's own array, and the ridge used."""
    for jitter in (0.0, _RIDGE_JITTER):
        ab = _normal_band(Z, lam)  # afresh for the fallback: a failed factor overwrote the band
        if not np.isfinite(ab).all():
            raise NumericalError("normal equations are not finite; rescale the returns")
        if jitter:
            ab[0] += jitter
        cb, info = dpbtrf(ab, lower=1, overwrite_ab=1)
        if info == 0:  # otherwise (info > 0) a leading minor is not positive definite
            return cb, jitter
    raise NumericalError(
        "normal equations numerically singular "
        f"(smallest diagonal {_normal_band(Z, lam)[0].min():.3e}); try a larger lam than {lam:g}"
    )


class _PathSolver:
    """Workspace for the normal equations of S periods, n equations and q lags.

    It owns the right-hand sides ``B``, which every ``solve`` refills in place
    and LAPACK overwrites with the solution, so a bootstrap worker refits on one
    workspace. Each solve assembles the band into a new array, factors it in
    place and frees it before the paths are allocated; the ridge fallback
    bumps a band assembled afresh, so no solve leaves state behind for the next.
    """

    def __init__(self, S: int, n: int, q: int):
        self.B = np.empty((S * n * q, n + 1), order="F")  # LAPACK's layout, so dpbtrs solves it in place

    def solve(self, Y: np.ndarray, Z: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Solve all equations against one shared factorization.

        Returns (nu (n,), paths (S, n, m), jitter_used, intercept_pivot). The
        intercept border is eliminated by a Schur complement: with D the banded
        coefficient block, b the border column and c its diagonal, solving
        D [u V] = [b R] gives nu_i = (sum_t y_ti - b'V_i) / (c - b'u) and the path
        V_i - nu_i * u; the pivot is (c - b'u) / S.
        """
        S, n = Y.shape
        m = Z.shape[1]
        B = self.B
        border = Z.ravel()
        B[:, 0] = border
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported just below
            for i in range(n):
                np.multiply(Z, Y[:, i, None], out=B[:, 1 + i].reshape(S, m))
        if not np.isfinite(B).all():
            raise NumericalError("normal equations are not finite; rescale the returns")
        cb, jitter = _factor_banded(Z, lam)
        sol, _ = dpbtrs(cb, B, lower=1, overwrite_b=1)
        del cb  # the factor is the band itself; free it before the paths
        u = sol[:, 0]
        # the border products are summed by einsum, in an order fixed by numpy: BLAS
        # ddot splits a long dot product across threads, so its last bits vary with them
        schur = S - np.einsum("i,i->", border, u)
        # the intercept is unidentified when every period can absorb it into its
        # own coefficients (happens once per-period unknowns reach the period count)
        if not schur > 1e-10 * S:
            raise NumericalError(
                f"intercept pivot {schur:.3e} is numerically singular; try a larger lam"
            )
        nu = np.empty(n)
        paths = np.empty((S, n, m))
        for i in range(n):
            v = sol[:, 1 + i]
            nu[i] = (Y[:, i].sum() - np.einsum("i,i->", border, v)) / schur
            np.subtract(v.reshape(S, m), (nu[i] * u).reshape(S, m), out=paths[:, i, :])
        return nu, paths, jitter, schur / S


def _fit_paths(
    Y: np.ndarray, Z: np.ndarray, config: TvVarConfig, solver: _PathSolver
) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    """Solve at ``config.lam``; in two-pass mode re-estimate the ratio from the
    first pass's residuals and increments and solve again.

    Returns (nu, paths, lambda_effective, jitter_used, intercept_pivot).
    """
    lam_eff = config.lam
    nu, paths, jitter, pivot = solver.solve(Y, Z, lam_eff)
    if config.lambda_mode == "two-pass":
        resid = Y - nu[None, :] - np.einsum("sic,sc->si", paths, Z)
        sigma_e2 = float((resid**2).mean())
        increments = np.diff(paths, axis=0)
        sigma_v2 = float((increments**2).mean()) if increments.size else 0.0
        if sigma_v2 > 0 and sigma_e2 > 0:
            lam_eff = min(max(sigma_e2 / sigma_v2, _LAMBDA_FLOOR), _LAMBDA_CAP)
        else:
            lam_eff = _LAMBDA_CAP
        nu, paths, jitter, pivot = solver.solve(Y, Z, lam_eff)
    return nu, paths, lam_eff, jitter, pivot


def _check_panel(panel: AlignedPanel, q: int) -> None:
    if panel.kind != "returns":
        raise DataError("time-varying fit expects a returns panel")
    if panel.n_periods - q < 3:
        raise DataError(f"need at least q + 3 = {q + 3} rows, got {panel.n_periods}")
    m = panel.values.shape[1] * q
    cells = (m + 1) * (panel.n_periods - q) * m
    if cells > MAX_BAND_CELLS:
        raise ConfigError(
            f"tv.q = {q} needs {cells} banded normal-equation cells on this panel, "
            f"more than MAX_BAND_CELLS = 2**26; choose a smaller tv.q"
        )


def _lag_matrices(paths: np.ndarray, q: int) -> np.ndarray:
    """(S, n, n*q) equation-major coefficients as a (S, q, n, n) view of lag matrices."""
    S, n, _ = paths.shape
    return paths.reshape(S, n, q, n).transpose(0, 2, 1, 3)


def fit_tv_var(panel: AlignedPanel, config: TvVarConfig | None = None) -> TvVarEstimate:
    """Estimate the per-period coefficient paths.

    Parameters
    ----------
    panel : AlignedPanel
        Returns panel with at least q + 3 rows.
    config : TvVarConfig
        Lag order and smoothing ratio.

    Returns
    -------
    TvVarEstimate
        Paths for the T - q fitted periods, the fixed intercept, and residuals
        that reproduce x_t - nu - sum_l A_{l,t} x_{t-l} exactly.
    """
    config = config or TvVarConfig()
    _check_panel(panel, config.q)
    values = panel.values
    n = values.shape[1]
    q = config.q
    Y, Z = _lagged_design(values, q)
    nu, paths, lam_eff, jitter, pivot = _fit_paths(Y, Z, config, _PathSolver(Y.shape[0], n, q))
    resid = Y - nu[None, :] - np.einsum("sic,sc->si", paths, Z)
    return TvVarEstimate(
        dates=panel.dates[q:],
        asset_ids=panel.asset_ids,
        nu=nu,
        # for q = 1 the transpose only moves a unit axis, and the view is already C-ordered
        A_path=np.ascontiguousarray(_lag_matrices(paths, q)),
        residuals=resid,
        config=config,
        effective_obs=Y.shape[0],
        lambda_effective=lam_eff,
        ridge_jitter=jitter,
        intercept_pivot=pivot,
    )


def export_coefficient_paths(estimate: TvVarEstimate, path) -> None:
    """Write the path in long form: date, lag, row, col, value."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,lag,row,col,value\n")
        S, q, n, _ = estimate.A_path.shape
        cells = [f",{l + 1},{i},{j}," for l in range(q) for i in range(n) for j in range(n)]
        for d, row in zip(estimate.dates, estimate.A_path.reshape(S, -1).tolist()):
            day = d.isoformat()
            fh.write("".join(f"{day}{cell}{v!r}\n" for cell, v in zip(cells, row)))
