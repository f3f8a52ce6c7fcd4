"""Residual bootstrap of the efficiency degree under the no-predictability null.

Null samples are built as x*_t = nu_hat + e*_t, with e*_t whole rows drawn
with replacement from the centered fitted residuals (rows are drawn jointly so
contemporaneous cross-asset correlation survives; the lag coefficients are
zeroed, the intercept is kept). Each replication refits the time-varying model
with the same configuration and records its degree path; the bands are
pointwise empirical quantiles across replications, read off one in-place
sort of the replication-by-date matrix.

Each process (the caller, or each pool worker) builds one workspace and reuses
it for every replication it runs: the refit's banded normal equations and
right-hand sides, and one (T, n) draw buffer: about 0.5 MB at paper scale
(n=3, T=1686, q=1), the factor LAPACK writes on each solve included. A replication
runs the arithmetic of ``resample_null_panel``, ``fit_tv_var`` and
``efficiency_path`` on those buffers, so its degrees equal theirs bit for bit.

Every replication b derives its generator from
``numpy.random.SeedSequence(master_seed, spawn_key=(b,))`` , a fixed, documented
splittable-counter hash that is stable across platforms, so results are
identical for any worker count or execution order.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import date
from functools import partial

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .market_data import AlignedPanel
from .efficiency import _degrees, efficiency_path  # noqa: F401 (perfbench/tracer.py wraps this name)
from .synth import synthetic_dates
from .tv_var import TvVarConfig, TvVarEstimate, _fit_paths, _lagged_design, _PathSolver, fit_tv_var

__all__ = [
    "BootstrapConfig",
    "BandPath",
    "resample_null_panel",
    "replication_seed",
    "bootstrap_bands",
]

# Replications per ``--dump-replications`` file
DUMP_CHUNK = 1000


@dataclass(frozen=True)
class BootstrapConfig:
    """Replication count (0 for no bands, else at least 100), band coverage,
    and the master seed."""

    replications: int = 10_000
    coverage: float = 0.95
    master_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.coverage < 1.0:
            raise ConfigError("coverage must be strictly between 0 and 1")
        if self.replications < 0 or 0 < self.replications < 100:
            raise ConfigError(f"replications must be 0 or at least 100, got {self.replications}")


@dataclass(frozen=True, eq=False)
class BandPath:
    """Pointwise null-distribution quantiles of the degree, per date."""

    dates: tuple[date, ...]
    lower: np.ndarray
    upper: np.ndarray
    coverage: float
    replications: int
    flagged_counts: np.ndarray  # singular/failed replications excluded per date

    def __post_init__(self):
        both = np.isfinite(self.lower) & np.isfinite(self.upper)
        if np.any(self.lower[both] > self.upper[both]):
            raise ValueError("lower band exceeds upper band")


def replication_seed(master_seed: int, b: int) -> np.random.SeedSequence:
    """Derived seed for replication b; independent of execution order."""
    return np.random.SeedSequence(master_seed, spawn_key=(b,))


def _null_rows(residual_source, nu) -> np.ndarray:
    """The rows a null sample draws from: ``nu`` plus each row of the centered residuals."""
    resid = np.asarray(residual_source, dtype=float)
    if resid.ndim != 2 or resid.shape[0] < 10:
        raise ConfigError("residual source must be a matrix with at least 10 rows")
    return (resid - resid.mean(axis=0)) + np.asarray(nu, dtype=float)


def _draw(rows: np.ndarray, seed, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (T, n) with T of ``rows`` drawn with replacement."""
    picks = np.random.default_rng(seed).integers(0, rows.shape[0], size=out.shape[0])
    return np.take(rows, picks, axis=0, out=out)


def resample_null_panel(
    residual_source: np.ndarray,
    nu: np.ndarray,
    seed,
    n_rows: int | None = None,
    dates: tuple[date, ...] | None = None,
    asset_ids: tuple[str, ...] | None = None,
) -> AlignedPanel:
    """Null returns panel: intercept plus rows resampled from centered residuals.

    ``seed`` may be an integer or a ``SeedSequence``. ``n_rows`` defaults to the
    residual row count; pass the original panel length to give a refit the same
    number of fitted periods.
    """
    rows = _null_rows(residual_source, nu)
    T = rows.shape[0] if n_rows is None else int(n_rows)
    values = _draw(rows, seed, np.empty((T, rows.shape[1])))
    if dates is None:
        dates = synthetic_dates(T)
    if asset_ids is None:
        asset_ids = tuple(f"asset{i}" for i in range(rows.shape[1]))
    return AlignedPanel(dates=dates, values=values, asset_ids=asset_ids, kind="returns")


def _workspace(payload: dict) -> dict:
    """The payload plus the solver and draw buffer that every replication of a process reuses."""
    T, n, q = payload["n_rows"], payload["rows"].shape[1], payload["tv_config"].q
    return {**payload, "solver": _PathSolver(T - q, n, q), "draws": np.empty((T, n))}


# Worker-side workspace for process pools, set once per worker by the initializer.
_WORK: dict = {}


def _init_worker(payload: dict) -> None:
    _WORK.update(_workspace(payload))


def _run_replication(b: int, work: dict | None = None) -> tuple[int, np.ndarray]:
    """Replication b's degree path, all NaN if the refit fails; a pool worker reads ``_WORK``."""
    w = _WORK if work is None else work
    config = w["tv_config"]
    x = _draw(w["rows"], replication_seed(w["master_seed"], b), w["draws"])
    if not np.isfinite(x).all():
        raise DataError("panel contains missing or non-finite cells")
    Y, Z = _lagged_design(x, config.q)
    S, n = Y.shape
    try:
        paths = _fit_paths(Y, Z, config, w["solver"])[1]
    except NumericalError:
        return b, np.full(S, np.nan)
    # the lag sum of the (S, q, n, n) lag matrices, read off the equation-major paths
    return b, _degrees(np.eye(n) - paths.reshape(S, n, config.q, n).sum(axis=2))


def _dump_chunks(dump_dir: str, dates, zstar: np.ndarray) -> None:
    """Write ``zstar`` (NaN as a blank cell) in files of ``DUMP_CHUNK`` replications."""
    os.makedirs(dump_dir, exist_ok=True)
    B = zstar.shape[0]
    days = [f",{d.isoformat()}," for d in dates]
    for start in range(0, B, DUMP_CHUNK):
        stop = min(start + DUMP_CHUNK, B)
        name = os.path.join(dump_dir, f"replications_{start + 1:06d}_{stop:06d}.csv")
        with open(name, "w", encoding="utf-8") as fh:
            fh.write("replication,date,zeta\n")
            for b in range(start, stop):
                cells = [repr(z) if z == z else "" for z in zstar[b].tolist()]
                fh.write("".join(f"{b + 1}{day}{cell}\n" for day, cell in zip(days, cells)))


def _sorted_quantiles(z: np.ndarray, k: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Levels ``q`` of each column's first ``k`` cells of the column-sorted ``z``, (len(q), S).

    The arithmetic is numpy's default (``linear``) quantile step for step, so
    the result equals numpy's NaN-ignoring quantile of the unsorted array bit
    for bit when ``k`` counts each column's non-NaN cells. A column with ``k = 0``
    reads its last (NaN) row and stays NaN.
    """
    vi = (k - 1) * q[:, None]  # virtual index into each column's k valid cells
    f = np.floor(vi)
    last = vi >= k - 1  # numpy clamps to the last valid cell and takes gamma = vi + 1
    f[last] = -1.0
    gamma = vi - f
    i = np.where(last, k - 1, f).astype(np.intp)
    j = np.where(last, k - 1, f + 1).astype(np.intp)
    cols = np.arange(z.shape[1])
    a, b = z[i, cols], z[j, cols]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def bootstrap_bands(
    panel: AlignedPanel,
    tv_config: TvVarConfig,
    boot_config: BootstrapConfig,
    estimate: TvVarEstimate | None = None,
    n_jobs: int = 1,
    dump_dir: str | None = None,
) -> BandPath:
    """Pointwise confidence bands for the degree under the null.

    Parameters
    ----------
    panel : AlignedPanel
        The observed returns panel; its fit supplies the intercept and the
        residual pool (pass ``estimate`` to reuse an existing fit).
    tv_config : TvVarConfig
        Refit configuration, applied identically to every replication.
    boot_config : BootstrapConfig
        Replication count (at least 100), coverage, master seed.
    n_jobs : int
        Worker processes. Output is identical for any value.
    dump_dir : str, optional
        If set, replication-level degree paths are written there in files of
        ``DUMP_CHUNK`` replications for audit.

    Returns
    -------
    BandPath
        Per-date lower/upper quantiles at (1 +/- coverage)/2, with the count of
        excluded (singular or failed) replications per date.
    """
    B = boot_config.replications
    if B < 100:
        raise ConfigError("band estimation needs at least 100 replications")
    fit = estimate if estimate is not None else fit_tv_var(panel, tv_config)
    S = fit.effective_obs
    payload = {
        "rows": _null_rows(fit.residuals, fit.nu),
        "master_seed": boot_config.master_seed,
        "n_rows": panel.n_periods,
        "tv_config": tv_config,
    }
    zstar = np.empty((B, S))
    reps = range(1, B + 1)
    pool = ProcessPoolExecutor(n_jobs, initializer=_init_worker, initargs=(payload,)) if n_jobs > 1 else None
    with pool or nullcontext():
        if pool is None:
            results = map(partial(_run_replication, work=_workspace(payload)), reps)
        else:  # about four chunks per worker, so the last ones even out the load
            results = pool.map(_run_replication, reps, chunksize=max(1, min(64, -(-B // (4 * n_jobs)))))
        for b, z in results:
            zstar[b - 1] = z

    zstar[~np.isfinite(zstar)] = np.nan  # any non-finite degree is a flagged cell
    flagged_counts = np.isnan(zstar).sum(axis=0)
    if S and np.all(flagged_counts == B):
        msg = f"all {B} bootstrap replications failed or were flagged at every date; the bands are empty"
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    if dump_dir is not None:  # before the sort, while rows are replications
        _dump_chunks(dump_dir, fit.dates, zstar)
    zstar.sort(axis=0)  # in place; NaN sorts last
    lo_q = (1.0 - boot_config.coverage) / 2.0
    lower, upper = _sorted_quantiles(zstar, B - flagged_counts, np.array([lo_q, 1.0 - lo_q]))
    return BandPath(
        dates=fit.dates,
        lower=lower,
        upper=upper,
        coverage=boot_config.coverage,
        replications=B,
        flagged_counts=flagged_counts,
    )
