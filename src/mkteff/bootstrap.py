"""Residual bootstrap of the efficiency degree under the no-predictability null.

Null samples are built as x*_t = nu_hat + e*_t, with e*_t whole rows drawn
with replacement from the centered fitted residuals (rows are drawn jointly so
contemporaneous cross-asset correlation survives; the lag coefficients are
zeroed, the intercept is kept). Each replication refits the time-varying model
with the same configuration and records its degree path; the bands are
pointwise empirical quantiles across replications, read off each date's K
smallest and K largest degrees as the paths arrive (``_fold_extremes``).

A replication keeps nothing between calls: it draws its null panel into a new
(T, n) array, and each solve of its refit allocates the right-hand sides and
the banded normal equations (0.16 MB each at paper scale, n=3, T=1686, q=1),
factors the band in place and frees it before the paths. So the pool's workers
run the function the caller runs, on the same bound arguments, with no
initializer. A replication runs the arithmetic of a null draw and
``fit_tv_var`` and takes the degrees of a lag matrix view of its paths as
``efficiency_path`` does, ``DEGREE_CHUNK`` dates at a time: its degrees equal
theirs bit for bit, with temporaries one chunk wide.

Replication b draws its rows with the picks
``numpy.random.default_rng(numpy.random.SeedSequence(master_seed, spawn_key=(b,)))
.integers(0, n, size=T)`` would give, computed by ``pcg64.SpawnedIntegers``
without importing ``numpy.random``; the test suite checks them against numpy's
bit for bit. The stream depends only on the master seed and b, so results are
identical for any worker count or execution order, on any platform and numpy
version.
"""

from __future__ import annotations

import os
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import date
from functools import partial
from itertools import repeat

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .efficiency import BandPath, _path_degrees
from .market_data import csv_lines, float_cells
from .pcg64 import SpawnedIntegers
from .tv_var import TvVarConfig, TvVarEstimate, _fit_paths, _lag_matrices, _lagged_design

__all__ = [
    "BootstrapConfig",
    "bootstrap_bands",
]

# Replications per ``--dump-replications`` file
DUMP_CHUNK = 1000


@dataclass(frozen=True)
class BootstrapConfig:
    """Replication count (0 for no bands, else at least 100), band coverage,
    and the master seed, a non-negative integer."""

    replications: int = 10_000
    coverage: float = 0.95
    master_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.coverage < 1.0:
            raise ConfigError("coverage must be strictly between 0 and 1")
        if self.replications < 0 or 0 < self.replications < 100:
            raise ConfigError(f"replications must be 0 or at least 100, got {self.replications}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be non-negative, got {self.master_seed}")


def _null_rows(resid: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """The rows a null sample draws from: ``nu`` plus each row of the centered
    residuals, all finite, so that every draw of whole rows is finite."""
    if len(resid) < 10:
        raise DataError(f"too few fitted periods for bands ({len(resid)} < 10); use a longer panel or replications: 0")
    rows = (resid - resid.mean(axis=0)) + nu
    if not np.isfinite(rows).all():
        raise DataError("panel contains missing or non-finite cells")
    return rows


def _run_replication(rows: np.ndarray, picks: SpawnedIntegers, config: TvVarConfig, b: int) -> np.ndarray:
    """Replication b's degree path, all NaN if the refit fails; its null panel is
    the rows ``picks(b)`` of ``rows``, the observed length (``config.q`` more)."""
    Y, Z = _lagged_design(np.take(rows, picks(b), axis=0), config.q)
    try:
        paths = _fit_paths(Y, Z, config)[1]
    except NumericalError:
        return np.full(Y.shape[0], np.nan)
    return _path_degrees(_lag_matrices(paths, config.q))[0]


def _dumped(results, dump_dir: str, dates: tuple[date, ...], B: int):
    """Yield the B degree rows of ``results`` as they arrive, each first written to its
    file of ``DUMP_CHUNK`` replications in ``dump_dir``, a non-finite degree as a blank
    cell. Each file is opened once and closed before its last row is yielded, so every
    file is complete once the B-th row is."""
    os.makedirs(dump_dir, exist_ok=True)
    days = [d.isoformat() for d in dates]
    for start in range(0, B, DUMP_CHUNK):
        end = min(start + DUMP_CHUNK, B)
        with open(os.path.join(dump_dir, f"replications_{start + 1:06d}_{end:06d}.csv"), "w", encoding="utf-8") as fh:
            fh.writelines(csv_lines([("replication", "date", "zeta")]))
            for b, z in zip(range(start + 1, end + 1), results):
                fh.writelines(csv_lines(zip(repeat(str(b)), days, float_cells(z))))
                if b == end:
                    break
                yield z
        yield z  # the file's last row, once the file is closed


def _fold_extremes(results, B: int, S: int, K: int, C: int) -> tuple[np.ndarray, np.ndarray]:
    """Fold the B degree rows the iterator ``results`` yields into ``(ext, flagged)``.

    Column s of ``ext`` (K, 2S) holds date s's K smallest finite degrees, column
    S + s its K largest negated, both ascending, NaN last; ``flagged`` counts the
    non-finite ones. Each chunk of C rows, cleaned to NaN, goes below the K kept
    rows, and one partition keeps the K smallest of each column.
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
        panel of the observed length, ``len(fit.dates) + fit.config.q`` rows.
    boot_config : BootstrapConfig
        Replication count (at least 100), coverage, master seed.
    n_jobs : int
        Worker processes, at most one per CPU this process may run on; at one the
        replications run in this process. Output is identical for any value.
    dump_dir : str, optional
        If set, replication-level degree paths are written there in files of
        ``DUMP_CHUNK`` replications for audit. Files an earlier, larger dump left
        there stay (``mkteff --dump-replications`` replaces the directory whole).

    Returns
    -------
    BandPath
        Per-date lower/upper quantiles at (1 +/- coverage)/2, with the count of
        excluded (singular or failed) replications per date.
    """
    B = boot_config.replications
    if B < 100:
        raise ConfigError("band estimation needs at least 100 replications")
    rows = _null_rows(fit.residuals, fit.nu)
    lo_q = (1.0 - boot_config.coverage) / 2.0
    K = min(B, int(np.floor(lo_q * (B - 1))) + 3)  # one row more than the deepest read, for rounding
    # the master seed's hash and the stream's state tables, once for every replication
    picks = SpawnedIntegers(boot_config.master_seed, len(rows), len(rows) + fit.config.q)
    run = partial(_run_replication, rows, picks, fit.config)
    reps = range(1, B + 1)
    # at most one worker per CPU this process may run on (macOS and Windows have no affinity call)
    jobs = min(n_jobs, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: a serial run never loads multiprocessing
    with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        # about four chunks per worker, so the last ones even out the load
        results = map(run, reps) if pool is None else pool.map(run, reps, chunksize=max(1, min(64, -(-B // (4 * jobs)))))
        if dump_dir is not None:
            results = _dumped(results, dump_dir, fit.dates, B)
        # chunks of 2K rows keep the partitions' cost per replication flat in B
        ext, flagged_counts = _fold_extremes(results, B, len(fit.dates), K, max(32, 2 * K))

    if np.all(flagged_counts == B):
        msg = f"all {B} bootstrap replications failed or were flagged at every date; the bands are empty"
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    lower, upper = _sorted_quantiles(ext, B - flagged_counts, np.array([lo_q, 1.0 - lo_q]))
    return BandPath(
        dates=fit.dates,
        lower=lower,
        upper=upper,
        replications=B,
        flagged_counts=flagged_counts,
    )
