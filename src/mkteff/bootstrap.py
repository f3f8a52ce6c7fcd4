"""Residual bootstrap of the efficiency degree under the no-predictability null.

Null samples are built as x*_t = nu_hat + e*_t, with e*_t whole rows drawn
with replacement from the centered fitted residuals (rows are drawn jointly so
contemporaneous cross-asset correlation survives; the lag coefficients are
zeroed, the intercept is kept). Each replication refits the time-varying model
with the same configuration and records its degree path; the bands are
pointwise empirical quantiles across replications, read off each date's K
smallest and K largest degrees as the paths arrive (``_fold_extremes``).

Each process (the caller, or each pool worker) builds one workspace and reuses
it for every replication it runs: the refit's right-hand sides and one (T, n)
draw buffer, about 0.2 MB at paper scale (n=3, T=1686, q=1). Each solve
assembles its banded normal equations (0.16 MB there) into a new array, factors
it in place and frees it before the paths. A replication runs the arithmetic of
a null draw and ``fit_tv_var`` on those buffers and takes the degrees of a lag
matrix view of its paths as ``efficiency_path`` does, ``DEGREE_CHUNK`` dates at
a time: its degrees equal theirs bit for bit, with temporaries one chunk wide.

Every replication b derives its generator from
``numpy.random.SeedSequence(master_seed, spawn_key=(b,))`` , a fixed, documented
splittable-counter hash that is stable across platforms, so results are
identical for any worker count or execution order.
"""

from __future__ import annotations

import os
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import date
from functools import partial

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .efficiency import _path_degrees
from .tv_var import TvVarEstimate, _fit_paths, _lag_matrices, _lagged_design, _PathSolver

__all__ = [
    "BootstrapConfig",
    "BandPath",
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


def _null_rows(resid: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """The rows a null sample draws from: ``nu`` plus each row of the centered
    residuals, all finite, so that every draw of whole rows is finite."""
    if len(resid) < 10:
        raise DataError(f"too few fitted periods for bands ({len(resid)} < 10); use a longer panel or replications: 0")
    rows = (resid - resid.mean(axis=0)) + nu
    if not np.isfinite(rows).all():
        raise DataError("panel contains missing or non-finite cells")
    return rows


def _draw(rows: np.ndarray, seed, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (T, n) with T of ``rows`` drawn with replacement."""
    picks = np.random.default_rng(seed).integers(0, rows.shape[0], size=out.shape[0])
    return np.take(rows, picks, axis=0, out=out)


def _workspace(payload: dict) -> dict:
    """The payload plus the solver and draw buffer that every replication of a process reuses."""
    (S, n), q = payload["rows"].shape, payload["tv_config"].q  # the null panel has S + q rows
    return {**payload, "solver": _PathSolver(S, n, q), "draws": np.empty((S + q, n))}


# Worker-side workspace for process pools, set once per worker by the initializer.
_WORK: dict = {}


def _init_worker(payload: dict) -> None:
    _WORK.update(_workspace(payload))


def _run_replication(b: int, work: dict | None = None) -> np.ndarray:
    """Replication b's degree path, all NaN if the refit fails; a pool worker reads ``_WORK``."""
    w = _WORK if work is None else work
    config = w["tv_config"]
    x = _draw(w["rows"], replication_seed(w["master_seed"], b), w["draws"])
    Y, Z = _lagged_design(x, config.q)
    try:
        paths = _fit_paths(Y, Z, config, w["solver"])[1]
    except NumericalError:
        return np.full(Y.shape[0], np.nan)
    return _path_degrees(_lag_matrices(paths, config.q))[0]


def _dump_rows(dump_dir: str, days: list[str], B: int, done: int, rows: np.ndarray) -> None:
    """Write replications ``done + 1``.. (NaN as a blank cell) to their files of ``DUMP_CHUNK``."""
    os.makedirs(dump_dir, exist_ok=True)
    for b, z in enumerate(rows.tolist(), done):
        start = b - b % DUMP_CHUNK
        name = os.path.join(dump_dir, f"replications_{start + 1:06d}_{min(start + DUMP_CHUNK, B):06d}.csv")
        with open(name, "a" if b > start else "w", encoding="utf-8") as fh:
            fh.write("" if b > start else "replication,date,zeta\n")
            fh.write("".join(f"{b + 1}{day}{repr(v) if v == v else ''}\n" for day, v in zip(days, z)))


def _fold_extremes(results, B: int, S: int, K: int, C: int, dump=None) -> tuple[np.ndarray, np.ndarray]:
    """Fold the B degree rows the iterator ``results`` yields into ``(ext, flagged)``.

    Column s of ``ext`` (K, 2S) holds date s's K smallest finite degrees, column
    S + s its K largest negated, both ascending, NaN last; ``flagged`` counts the
    non-finite ones. Each chunk of C rows, cleaned to NaN and dumped, goes below
    the K kept rows, and one partition keeps the K smallest of each column.
    """
    buf = np.full((K + C, 2 * S), np.nan)
    flagged = np.zeros(S, dtype=np.intp)
    for done in range(0, B, C):
        new = buf[K:K + min(C, B - done), :S]
        for row, z in zip(new, results):
            row[:] = z
        bad = ~np.isfinite(new)
        new[bad] = np.nan
        flagged += bad.sum(axis=0)
        if dump is not None:
            dump(done, new)
        np.negative(new, out=buf[K:K + len(new), S:])
        buf[:K + len(new)].partition(K - 1, axis=0)
    buf[:K].sort(axis=0)
    return buf[:K], flagged


def _sorted_quantiles(ext: np.ndarray, k: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Levels ``q`` of each date's ``k`` finite degrees, read off ``_fold_extremes``' ``ext``, (len(q), S).

    The arithmetic is numpy's default (``linear``) quantile step for step, so it
    equals numpy's NaN-ignoring quantile of the unsorted degrees bit for bit.
    Sorted position p reads the K smallest at p if p < K, else the K largest at
    k - 1 - p; a date with ``k = 0`` reads a NaN and stays NaN.
    """
    K, S = ext.shape[0], ext.shape[1] // 2
    vi = (k - 1) * q[:, None]  # virtual index into each date's k valid cells
    f = np.floor(vi)
    last = vi >= k - 1  # numpy clamps to the last valid cell and takes gamma = vi + 1
    f[last] = -1.0
    gamma = vi - f
    p = np.stack([np.where(last, k - 1, f), np.where(last, k - 1, f + 1)]).astype(np.intp)
    low = p < K  # the levels read nothing deeper than floor(lo*(B-1)) + 1 from either end
    ab = ext[np.where(low, p, k - 1 - p), np.where(low, np.arange(S), np.arange(S, 2 * S))]
    a, b = np.negative(ab, out=ab, where=~low)
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def bootstrap_bands(
    fit: TvVarEstimate,
    boot_config: BootstrapConfig,
    n_jobs: int = 1,
    dump_dir: str | None = None,
) -> BandPath:
    """Pointwise confidence bands for the degree under the null.

    Parameters
    ----------
    fit : TvVarEstimate
        The observed panel's fit. It supplies the intercept and the residual
        pool, and every replication is refit with ``fit.config`` on a null
        panel of the observed length, ``fit.effective_obs + fit.config.q`` rows.
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
    S = fit.effective_obs
    rows = _null_rows(fit.residuals, fit.nu)
    payload = {"rows": rows, "master_seed": boot_config.master_seed, "tv_config": fit.config}
    lo_q = (1.0 - boot_config.coverage) / 2.0
    K = min(B, int(np.floor(lo_q * (B - 1))) + 3)  # one row more than the deepest read, for rounding
    dump = None if dump_dir is None else partial(_dump_rows, dump_dir, [f",{d.isoformat()}," for d in fit.dates], B)
    reps = range(1, B + 1)
    pool = None
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: a serial run never loads multiprocessing
        pool = ProcessPoolExecutor(n_jobs, initializer=_init_worker, initargs=(payload,))
    with pool or nullcontext():
        if pool is None:
            results = map(partial(_run_replication, work=_workspace(payload)), reps)
        else:  # about four chunks per worker, so the last ones even out the load
            results = pool.map(_run_replication, reps, chunksize=max(1, min(64, -(-B // (4 * n_jobs)))))
        # chunks of 2K rows keep the partitions' cost per replication flat in B
        ext, flagged_counts = _fold_extremes(results, B, S, K, max(32, 2 * K), dump)

    if S and np.all(flagged_counts == B):
        msg = f"all {B} bootstrap replications failed or were flagged at every date; the bands are empty"
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    lower, upper = _sorted_quantiles(ext, B - flagged_counts, np.array([lo_q, 1.0 - lo_q]))
    return BandPath(
        dates=fit.dates,
        lower=lower,
        upper=upper,
        coverage=boot_config.coverage,
        replications=B,
        flagged_counts=flagged_counts,
    )
