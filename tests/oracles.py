"""Independent reference computations the test suite checks the package against.

None of these run in the pipeline. The dense time-varying solver materializes
the full stacked design and calls lstsq (the banded Cholesky must agree with
it); the penalized objective evaluates the fit-plus-smoothness criterion at
any parameters, so a fitted path can be checked for optimality. The package
takes the Granger F from the unrestricted fit alone, through the R factor of
the design with the source's lags moved last; its restriction-matrix (Wald)
form inverts X'X, and its refit form refits every restricted equation with
lstsq and takes the rise in the residual sum. The pairwise Granger test
restricts a single target equation. The two lag searches refit every
candidate from scratch with lstsq on its own tall design, where the package
reads all candidates off one factorization. A bootstrap replication is run
the long way, through a null panel built as a new array and the public fit
and degree-path functions, where the package solves the lagged design and
takes the degrees of a view of its paths, building none of the public
objects; its rows are picked by
``numpy.random``, and the same picks are also generated one 32-bit word at a
time in Python integers, where the package computes a block of PCG64 states
at once from constant tables. The Hansen statistic is built
from a list of per-equation score blocks, where the package fills one score
matrix in place, and the banded normal equations are assembled and
factored and solved in upper band storage, where the package factors and
solves them in lower storage, so the two agree to rounding. A price file is
parsed row by row, with each date kept in a set, and series are joined on
sets of dates and per-series lookups, where the package parses a whole column
at a time and joins on day numbers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from datetime import date, datetime
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy import stats
from scipy.linalg.lapack import dpbtrf, dpbtrs

from mkteff.bootstrap import BootstrapConfig
from mkteff.efficiency import efficiency_path
from mkteff.errors import DataError, NumericalError
from mkteff.market_data import AlignedPanel, CsvFormat, PriceSeries
from mkteff.tv_var import (
    _RIDGE_JITTER, TvVarConfig, TvVarEstimate, _check_panel, _lag_matrices, _lagged_design, fit_tv_var,
)
from mkteff.unit_root import _adf_columns
from mkteff.var_base import GrangerResult, VarEstimate


@dataclass(frozen=True, eq=False)
class StackedSystem:
    """Sparse design of the stacked observation-plus-smoothness regression.

    Column layout: the n intercepts first, then per period s, per equation i,
    the n*q lag coefficients (lag-major, then source asset). Observation rows
    come first (period-major, equation-minor), then the scaled smoothness rows.
    """

    design: sp.csr_matrix
    rhs: np.ndarray
    n_obs_rows: int
    n_smooth_rows: int
    n_unknowns: int
    n_intercepts: int
    lam: float
    n: int
    q: int
    periods: int


def build_stacked_system(panel: AlignedPanel, q: int, lam: float) -> StackedSystem:
    """Materialize the full sparse design: observation rows plus sqrt(lam)-scaled
    smoothness rows, over the intercepts and every per-period coefficient."""
    _check_panel(panel, q)
    n = panel.n_assets
    Y, Z = _lagged_design(panel.values, q)
    S = Y.shape[0]
    m = n * q
    n_obs = S * n
    n_smooth = m * n * (S - 1)
    ncols = n + S * n * m
    sq = math.sqrt(lam)

    # observation rows: row (s, i) has 1 in the intercept column i and Z[s]
    # in that equation's coefficient block
    obs_rows = np.arange(n_obs)
    s_idx = obs_rows // n
    i_idx = obs_rows % n
    base = n + s_idx * n * m + i_idx * m
    ccols = base[:, None] + np.arange(m)[None, :]
    rows = np.concatenate([obs_rows, np.repeat(obs_rows, m)])
    cols = np.concatenate([i_idx, ccols.ravel()])
    vals = np.concatenate([np.ones(n_obs), Z[s_idx].ravel()])

    # smoothness rows: +sqrt(lam) on period s, -sqrt(lam) on period s-1
    if S > 1:
        k = n * m
        sm_rows = n_obs + np.arange(n_smooth)
        cur = n + np.repeat(np.arange(1, S), k) * k + np.tile(np.arange(k), S - 1)
        rows = np.concatenate([rows, sm_rows, sm_rows])
        cols = np.concatenate([cols, cur, cur - k])
        vals = np.concatenate([vals, np.full(n_smooth, sq), np.full(n_smooth, -sq)])

    design = sp.csr_matrix((vals, (rows, cols)), shape=(n_obs + n_smooth, ncols))
    rhs = np.concatenate([Y.ravel(), np.zeros(n_smooth)])
    return StackedSystem(
        design=design, rhs=rhs, n_obs_rows=n_obs, n_smooth_rows=n_smooth,
        n_unknowns=ncols, n_intercepts=n, lam=lam, n=n, q=q, periods=S,
    )


def solve_dense(panel: AlignedPanel, q: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Intercepts (n,) and lag matrices (S, q, n, n) from a dense lstsq solve."""
    system = build_stacked_system(panel, q, lam)
    sol = np.linalg.lstsq(system.design.toarray(), system.rhs, rcond=None)[0]
    n, S = system.n, system.periods
    return sol[:n], _lag_matrices(sol[n:].reshape(S, n, n * q), q)


def _A_to_paths(A_path: np.ndarray) -> np.ndarray:
    """(S, q, n, n) lag matrices to (S, n, n*q) equation-major coefficients."""
    S, q, n, _ = A_path.shape
    return A_path.transpose(0, 2, 1, 3).reshape(S, n, q * n)


def penalized_objective(
    panel: AlignedPanel, q: int, lam: float, nu: np.ndarray, A_path: np.ndarray
) -> float:
    """Value of the fit-plus-smoothness objective at the given parameters."""
    Y, Z = _lagged_design(panel.values, q)
    paths = _A_to_paths(np.asarray(A_path, dtype=float))
    resid = Y - np.asarray(nu, dtype=float)[None, :] - np.einsum("sic,sc->si", paths, Z)
    rough = float((np.diff(paths, axis=0) ** 2).sum())
    return float((resid**2).sum()) + lam * rough


def granger_wald_f(est: VarEstimate, source: str) -> float:
    """Restriction-matrix form of ``granger_causality``'s F statistic."""
    n, p = est.n_assets, est.p
    k = est.coefficients.shape[0]
    src = est.asset_ids.index(source)
    src_cols = [1 + l * n + src for l in range(p)]
    s2 = float((est.residuals**2).sum()) / (n * est.nobs - n * k)
    X = est.regressors
    sub = np.linalg.inv(X.T @ X)[np.ix_(src_cols, src_cols)]
    wald = 0.0
    for i in range(n):
        if i != src:
            b = est.coefficients[src_cols, i]
            wald += float(b @ np.linalg.solve(sub, b)) / s2
    return wald / (p * (n - 1))


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


def granger_refit_f(est: VarEstimate, source: str) -> float:
    """Refit form of ``granger_causality``'s F statistic: every other equation is
    refit without the source's lags, and F is taken from the rise in the stacked
    residual sum, ``rss_r - rss_u``."""
    n, p = est.n_assets, est.p
    k = est.coefficients.shape[0]
    src = est.asset_ids.index(source)
    src_cols = [1 + l * n + src for l in range(p)]
    Y = est.regressors @ est.coefficients + est.residuals
    rss_u = float((est.residuals**2).sum())
    rss_r = _stacked_rss(Y, est.regressors, {i: src_cols for i in range(n) if i != src})
    return ((rss_r - rss_u) / (p * (n - 1))) / (rss_u / (n * est.nobs - n * k))


def granger_causality_pairwise(est: VarEstimate, source: str, target: str) -> GrangerResult:
    """Single-equation variant: source lags tested in one target equation only."""
    n, p = est.n_assets, est.p
    src, tgt = est.asset_ids.index(source), est.asset_ids.index(target)
    if src == tgt:
        raise DataError("source and target must differ")
    src_cols = [1 + l * n + src for l in range(p)]
    Y = est.regressors @ est.coefficients + est.residuals
    k = est.regressors.shape[1]
    rss_u = float((est.residuals[:, tgt] ** 2).sum())
    rss_r = _stacked_rss(Y[:, [tgt]], est.regressors, {0: src_cols})
    df_den = est.nobs - k
    f_stat = ((rss_r - rss_u) / p) / (rss_u / df_den)
    return GrangerResult(
        source_asset=source,
        f_statistic=float(f_stat),
        df_num=p,
        df_den=df_den,
        p_value=float(stats.f.sf(f_stat, p, df_den)),
    )


def adf_lag_search(yt: np.ndarray, dy: np.ndarray, max_lag: int) -> tuple[int, list[float], list[float]]:
    """BIC lag pick of ``adf_gls_test`` on the detrended series ``yt`` and its
    differences ``dy``, by one lstsq per candidate: (lag, RSS, BIC)."""
    nobs = len(dy) - max_lag
    best_k, best_bic = 0, np.inf
    rsss, bics = [], []
    for k in range(max_lag + 1):
        target, X = _adf_columns(yt, dy, k, max_lag)
        beta = np.linalg.lstsq(X, target, rcond=None)[0]
        rss = float(((target - X @ beta) ** 2).sum())
        bic = -np.inf if rss <= 0.0 else math.log(rss / nobs) + (k + 1) * math.log(nobs) / nobs
        rsss.append(rss)
        bics.append(bic)
        if bic < best_bic:
            best_k, best_bic = k, bic
    return best_k, rsss, bics


def var_lag_search(panel: AlignedPanel, p_max: int) -> tuple[int, list[float]]:
    """BIC order pick of ``select_lag_bic`` by one lstsq per candidate: (order, BIC).

    Each candidate p regresses the rows after p_max on a constant and lags 1..p,
    and scores log det of the ML residual covariance (-inf if not positive) plus
    n k log(T') / T'. Too few rows, or a rank-deficient design, ends the search
    with the package's error.
    """
    if p_max < 1:
        raise DataError("p_max must be at least 1")
    values = panel.values
    T, n = values.shape
    best_p, best_bic = 1, np.inf
    bics = []
    for p in range(1, p_max + 1):
        k = 1 + n * p
        if T - p_max <= k:
            raise DataError(f"too few rows: need more than {k + p_max}, got {T}")
        Y = values[p_max:]
        X = np.hstack([np.ones((T - p_max, 1))] + [values[p_max - l : T - l] for l in range(1, p + 1)])
        beta, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)
        if rank < k:
            raise NumericalError("rank-deficient regressor matrix")
        resid = Y - X @ beta
        sign, logdet = np.linalg.slogdet(resid.T @ resid / (T - p_max))
        bic = (logdet if sign > 0 else -np.inf) + n * k * math.log(T - p_max) / (T - p_max)
        bics.append(bic)
        if bic < best_bic:
            best_p, best_bic = p, bic
    return best_p, bics


def naive_replication(
    panel: AlignedPanel, fit: TvVarEstimate, tv_config: TvVarConfig, master_seed: int, b: int
) -> np.ndarray:
    """Degree path of bootstrap replication b: a null panel of the intercept plus
    centered residual rows drawn with replacement, a fresh fit and its degree path;
    all NaN where the refit fails."""
    resid = fit.residuals
    gen = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(b,)))
    picks = gen.integers(0, len(resid), size=panel.n_periods)
    values = fit.nu + (resid - resid.mean(axis=0))[picks]
    sample = AlignedPanel(panel.dates, values, panel.asset_ids, "returns")
    try:
        return efficiency_path(fit_tv_var(sample, tv_config)).zeta
    except NumericalError:
        return np.full(panel.n_periods - tv_config.q, np.nan)


def naive_spawned_integers(master_seed: int, b: int, n: int, size: int) -> list[int]:
    """``default_rng(SeedSequence(master_seed, spawn_key=(b,))).integers(0, n, size)``
    for 1 <= n <= 2**32, one Python integer at a time, as numpy's code runs: the
    SeedSequence entropy mix and ``generate_state``, ``pcg64_set_seed``, one
    128-bit LCG step and XSL-RR output per 64 bits, the high half kept for the
    next 32-bit call, and ``buffered_bounded_lemire_uint32``."""
    m32, m128 = 2**32 - 1, 2**128 - 1

    def words(v):
        out = [v & m32]
        while v >> 32:
            v >>= 32
            out.append(v & m32)
        return out

    def hashmix(value, hc):
        value ^= hc[0]
        hc[0] = hc[0] * 0x931E8875 & m32
        value = value * hc[0] & m32
        return value ^ (value >> 16)

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & m32
        return r ^ (r >> 16)

    run = words(master_seed)
    entropy = run + [0] * max(0, 4 - len(run)) + words(b)
    pool, hc = [0] * 4, [0x43B0D7E5]
    for i in range(4):
        pool[i] = hashmix(entropy[i], hc)
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src], hc))
    for i_src in range(4, len(entropy)):
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[i_src], hc))
    state32, hc = [], 0x8B51F9DD
    for i in range(8):
        v = pool[i % 4] ^ hc
        hc = hc * 0x58F38DED & m32
        v = v * hc & m32
        state32.append(v ^ (v >> 16))
    seed64 = [state32[2 * i] | state32[2 * i + 1] << 32 for i in range(4)]
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    inc = ((seed64[2] << 64 | seed64[3]) << 1 | 1) & m128
    state = inc  # one step from zero
    state = (state + (seed64[0] << 64 | seed64[1])) & m128
    state = (state * mult + inc) & m128
    high = None

    def next32():
        nonlocal state, high
        if high is not None:
            out, high = high, None
            return out
        state = (state * mult + inc) & m128
        x, rot = (state >> 64) ^ (state & (2**64 - 1)), state >> 122
        out64 = ((x >> rot) | (x << (64 - rot))) & (2**64 - 1)
        high = out64 >> 32
        return out64 & m32

    picks = []
    for _ in range(size):
        m = next32() * n
        if (m & m32) < n:
            threshold = (m32 - (n - 1)) % n
            while (m & m32) < threshold:
                m = next32() * n
        picks.append(m >> 32)
    return picks


def naive_bands(
    panel: AlignedPanel, fit: TvVarEstimate, tv_config: TvVarConfig, boot_config: BootstrapConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, upper, flagged counts) of ``bootstrap_bands`` by NaN-ignoring quantiles
    of the naive replications."""
    zstar = np.array([
        naive_replication(panel, fit, tv_config, boot_config.master_seed, b)
        for b in range(1, boot_config.replications + 1)
    ])
    zstar[~np.isfinite(zstar)] = np.nan
    lo = (1.0 - boot_config.coverage) / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN dates stay NaN
        lower, upper = np.nanquantile(zstar, [lo, 1.0 - lo], axis=0)
    return lower, upper, np.isnan(zstar).sum(axis=0)


def naive_hansen_lc(estimate: VarEstimate) -> float:
    """Lc statistic of ``hansen_lc`` from per-equation score blocks joined by
    ``concatenate``, the running sums taken into a new array."""
    X, resid = estimate.regressors, estimate.residuals
    sig2 = (resid**2).mean(axis=0)
    blocks = [
        np.column_stack([X * resid[:, i : i + 1], resid[:, i] ** 2 - sig2[i]])
        for i in range(resid.shape[1])
    ]
    F = np.concatenate(blocks, axis=1)
    S = F.cumsum(axis=0)
    V = F.T @ F
    return float(np.einsum("tm,mt->", S, np.linalg.solve(V, S.T)) / X.shape[0])


def upper_band_solve(Y: np.ndarray, Z: np.ndarray, lam: float):
    """``tv_var._solve`` with the normal equations assembled and factored in upper
    band storage: row m holds the diagonal, row m - d the d-th superdiagonal and
    row 0 the coupling. Same contract, so a test can put it in ``_solve``'s place."""
    S, n = Y.shape
    m = Z.shape[1]
    border = Z.ravel()
    ab = np.zeros((m + 1, S * m))
    pen = np.full(S, 2.0 * lam)
    pen[0] -= lam
    pen[-1] -= lam
    ab[m] = (Z * Z + pen[:, None]).ravel()
    for d in range(1, m):
        ab[m - d, d:] = border[:-d] * border[d:]
        ab[m - d].reshape(S, m)[:, :d] = 0.0
    ab[0, m:] = -lam
    B = np.empty((S * m, n + 1), order="F")
    B[:, 0] = border
    for i in range(n):
        B[:, 1 + i] = (Z * Y[:, i, None]).ravel()
    cb, info = dpbtrf(ab)
    jitter = 0.0
    if info:
        ab[m] += _RIDGE_JITTER
        cb, info = dpbtrf(ab)
        jitter = _RIDGE_JITTER
    if info:
        raise NumericalError("normal equations numerically singular")
    sol, _ = dpbtrs(cb, B, overwrite_b=1)
    u = sol[:, 0]
    schur = S - border @ u
    nu = np.array([(Y[:, i].sum() - border @ sol[:, 1 + i]) / schur for i in range(n)])
    paths = np.stack([(sol[:, 1 + i] - nu[i] * u).reshape(S, m) for i in range(n)], axis=1)
    return nu, paths, jitter, schur / S


def _parse_date(fmt: CsvFormat, text: str) -> date:
    if fmt.date_format == "iso":
        return date.fromisoformat(text.strip())
    return datetime.strptime(text.strip(), fmt.date_format).date()


def naive_load_price_series(path, asset_id: str, format_options: CsvFormat | None = None) -> PriceSeries:
    """``load_price_series`` one row at a time, through a text-mode file with
    universal newlines: the same rows, errors and messages."""
    fmt = format_options or CsvFormat()
    dates: list[date] = []
    prices: list[float] = []
    seen: set[date] = set()
    ncol = max(fmt.date_column, fmt.price_column) + 1
    with open(path, "r", encoding="utf-8") as stream:
        for lineno, raw in enumerate(stream, start=1):
            if lineno == 1:
                continue  # header
            line = raw.strip()
            if not line:
                continue
            parts = line.split(fmt.delimiter)
            if len(parts) < ncol:
                if fmt.skip_bad_rows:
                    continue
                raise DataError(f"{asset_id}: line {lineno}: expected at least {ncol} columns, got {len(parts)}")
            try:
                d = _parse_date(fmt, parts[fmt.date_column])
            except ValueError as exc:
                if fmt.skip_bad_rows:
                    continue
                raise DataError(f"{asset_id}: line {lineno}: bad date {parts[fmt.date_column]!r}: {exc}") from exc
            try:
                p = float(parts[fmt.price_column])
            except ValueError as exc:
                if fmt.skip_bad_rows:
                    continue
                raise DataError(f"{asset_id}: line {lineno}: bad price {parts[fmt.price_column]!r}") from exc
            if not math.isfinite(p):
                if fmt.skip_bad_rows:
                    continue
                raise DataError(f"{asset_id}: line {lineno}: non-finite price {parts[fmt.price_column]!r}")
            if p <= 0:
                raise DataError(f"{asset_id}: non-positive price {p} on {d} (line {lineno})")
            if d in seen:
                raise DataError(f"{asset_id}: duplicate date {d} (line {lineno})")
            seen.add(d)
            dates.append(d)
            prices.append(p)
    if not dates:
        raise DataError(f"{asset_id}: no data rows")
    order = sorted(range(len(dates)), key=dates.__getitem__)
    return PriceSeries(
        asset_id=asset_id,
        days=np.array([dates[i].toordinal() for i in order], dtype=np.int64),
        prices=np.array([prices[i] for i in order]),
    )


def naive_align(series: Sequence[PriceSeries]) -> AlignedPanel:
    """``align`` through sets of dates and a per-series lookup."""
    if len(series) < 2:
        raise DataError("alignment requires at least 2 series")
    for s in series:
        if len(s) == 0:
            raise DataError(f"{s.asset_id}: empty series")
    common = set(series[0].dates)
    for s in series[1:]:
        common &= set(s.dates)
    if not common:
        raise DataError("no common dates across series " + ", ".join(s.asset_id for s in series))
    dates = tuple(sorted(common))
    cols = []
    for s in series:
        lookup = dict(zip(s.dates, s.prices))
        cols.append([lookup[d] for d in dates])
    return AlignedPanel(
        dates=dates,
        values=np.array(cols, dtype=float).T,
        asset_ids=tuple(s.asset_id for s in series),
        kind="prices",
    )
