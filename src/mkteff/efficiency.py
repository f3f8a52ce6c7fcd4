"""Long-run response multiplier and the joint efficiency degree.

The multiplier (I - A_1 - ... - A_q)^{-1} equals the identity exactly when all
lag matrices vanish, i.e. when returns are unpredictable. The degree is the
spectral norm of its deviation from the identity: zero in the efficient
market, growing as predictability accumulates, and undefined where the lag
sum approaches a unit root (flagged, not dropped).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .market_data import csv_lines, float_cells
from .tv_var import TvVarEstimate

__all__ = [
    "BandPath",
    "CONDITION_LIMIT",
    "EfficiencyPath",
    "efficiency_path",
]

CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class BandPath:
    """Pointwise null-distribution quantiles of the degree per date of the fit, as ``bootstrap_bands`` returns them."""

    dates: tuple[date, ...]  # fit.dates; kept, with replications, for perfbench/tracer.py
    lower: np.ndarray
    upper: np.ndarray
    replications: int
    flagged_counts: np.ndarray  # singular/failed replications excluded per date


@dataclass(frozen=True, eq=False)
class EfficiencyPath:
    """Per-date degree with optional band values; a non-finite degree marks a flagged date."""

    dates: tuple[date, ...]
    zeta: np.ndarray
    band_low: np.ndarray | None = None
    band_high: np.ndarray | None = None
    # the largest ||M||_F ||M^-1||_F of the lag sum M over unflagged dates, between
    # kappa_2 and n kappa_2; None when every date is flagged
    max_frobenius_bound: float | None = None
    singular: np.ndarray = field(init=False)  # bool per date: zeta is not finite

    def __post_init__(self):
        zeta = np.asarray(self.zeta, dtype=float)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "singular", ~np.isfinite(zeta))
        if len(self.dates) != zeta.shape[0]:
            raise ValueError("dates and zeta must align")
        if any(band is not None and len(band) != len(self.dates) for band in (self.band_low, self.band_high)):
            raise ValueError("band_low and band_high must have one value per date")
        if np.any(zeta[~self.singular] < 0):
            raise ValueError("degree must be non-negative where defined")
        if self.band_low is not None and self.band_high is not None:
            both = np.isfinite(self.band_low) & np.isfinite(self.band_high)
            if np.any(self.band_low[both] > self.band_high[both]):
                raise ValueError("band_low must not exceed band_high")

    def write_csv(self, path) -> None:
        """Columns: date, zeta, band_low, band_high, singular (0/1); blanks where not finite."""
        blank = [""] * len(self.dates)
        low, high = (blank if band is None else float_cells(band) for band in (self.band_low, self.band_high))
        rows = zip([d.isoformat() for d in self.dates], float_cells(self.zeta), low, high,
                   ["1" if flag else "0" for flag in self.singular.tolist()])
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(csv_lines([("date", "zeta", "band_low", "band_high", "singular"), *rows]))


# Dates per batch of ``_path_degrees``: no date's degree depends on the other
# dates of its batch, so batches only bound the temporaries; a paper-scale path
# is one batch
DEGREE_CHUNK = 2048

# Frobenius bound up to which a 3x3 block keeps its cofactor inverse; at this
# conditioning it agrees with LU to about 1e-14. It must stay at most half of
# CONDITION_LIMIT, so that the screen never clears a date the guard would flag
COFACTOR_BOUND = 1e2
# A 3x3 block within the bound has |det| >= ||M||_F^3 / (3 sqrt(3) COFACTOR_BOUND^2),
# about 1.9e-5 ||M||_F^3. A determinant under this floor times ||M||_F^3 is rounding
# noise (a numerically rank-1 block), whose noise cofactors can fake a small bound.
DET_FLOOR = 1e-6
# 1 + r below this marks a near-double top eigenvalue, where the cubic's root is ill-conditioned
DOUBLE_TOP_GAP = 1e-4


def _frobenius_norm(x: np.ndarray) -> np.ndarray:
    """||x||_F per block of a stack (S, n, n), with no full-size temporaries."""
    return np.sqrt(np.einsum("sij,sij->s", x, x))


def _frobenius_bound(M: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """||M||_F ||M^-1||_F per date: between kappa_2 and n kappa_2 (NaN or inf if phi is void)."""
    return _frobenius_norm(M) * _frobenius_norm(phi)


def _lapack_inverse(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched LU inverses, flags and Frobenius bounds; only dates the bound puts over
    half the limit (the half absorbs rounding in the inverse) get the exact
    ``np.linalg.cond``."""
    try:
        phi = np.linalg.inv(M)
    except np.linalg.LinAlgError:  # an exactly singular date stops the batched LU
        phi = np.full(M.shape, np.nan)
    bound = _frobenius_bound(M, phi)
    exact = ~(bound <= 0.5 * CONDITION_LIMIT)
    singular = exact & ~np.isfinite(M).all(axis=(1, 2))
    checked = exact & ~singular
    singular[checked] = ~(np.linalg.cond(M[checked]) <= CONDITION_LIMIT)
    cleared = checked & ~singular
    phi[cleared] = np.linalg.inv(M[cleared])
    bound[cleared] = _frobenius_bound(M[cleared], phi[cleared])
    return phi, singular, bound


def _cofactor_inverse(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjugate over determinant of each block of a stack (S, 3, 3), and the
    determinants; the inverse is void where det = 0."""
    m = M.transpose(1, 2, 0)  # m[i, j] is entry (i, j) across the stack
    adj = np.empty(m.shape)  # adj[j, i] is the (i, j) cofactor; entry-major like m's view
    for i in range(3):  # cyclic indices carry the cofactor sign
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            adj[j, i] = m[i1, j1] * m[i2, j2] - m[i1, j2] * m[i2, j1]
    det = (m[0] * adj[:, 0]).sum(axis=0)  # along the first row
    adj /= det
    return adj.transpose(2, 0, 1), det


def _guarded_inverse(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverses of a stack (S, n, n), flagged where kappa_2 exceeds the limit or is
    undefined, and the Frobenius bound of each date's inverse.

    For n = 3 dates whose Frobenius bound is at most ``COFACTOR_BOUND`` and whose
    determinant clears ``DET_FLOOR`` keep the cofactor inverse; every other date,
    and every date for n != 3, takes the LAPACK route. The inverses of flagged
    dates are void.
    """
    if M.shape[-1] != 3:
        return _lapack_inverse(M)
    with np.errstate(all="ignore"):  # det = 0 and non-finite entries void the bound
        phi, det = _cofactor_inverse(M)
        size = _frobenius_norm(M)
        bound = size * _frobenius_norm(phi)
        keep = bound <= COFACTOR_BOUND
        keep &= np.abs(det) >= DET_FLOOR * size**3
    rest = ~keep
    singular = np.zeros(M.shape[0], dtype=bool)
    if rest.any():
        phi[rest], singular[rest], bound[rest] = _lapack_inverse(M[rest])
    return phi, singular, bound


def _top_eigenvalue_gram(D: np.ndarray) -> np.ndarray:
    """Top eigenvalue of D'D for each block of a stack (S, n, n), from LAPACK."""
    return np.linalg.eigvalsh(np.swapaxes(D, -1, -2) @ D)[:, -1]


def _top_eigenvalue_gram3(D: np.ndarray) -> np.ndarray:
    """Top eigenvalue of G = D'D for a stack (S, 3, 3), by Smith's trigonometric root
    of the characteristic cubic: lam = q + 2p cos(arccos(r) / 3) with q = tr G / 3,
    p^2 = ||G - qI||_F^2 / 6 and r = det(G - qI) / (2 p^3). Where the top two
    eigenvalues nearly coincide (r near -1) the root is ill-conditioned; those
    dates, and any whose r is undefined, go to ``np.linalg.eigvalsh``."""
    d = D.transpose(1, 2, 0)
    g = {(j, k): (d[:, j] * d[:, k]).sum(axis=0) for j in range(3) for k in range(j, 3)}
    q = (g[0, 0] + g[1, 1] + g[2, 2]) / 3
    b00, b11, b22 = g[0, 0] - q, g[1, 1] - q, g[2, 2] - q
    b01, b02, b12 = g[0, 1], g[0, 2], g[1, 2]
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22 + 2 * (b01 * b01 + b02 * b02 + b12 * b12)) / 6)
    det = b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02) + b02 * (b01 * b12 - b11 * b02)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(p > 0, det / (2 * p * p * p), 1.0)
    r = np.clip(r, -1.0, 1.0)
    lam = q + 2 * p * np.cos(np.arccos(r) / 3)
    close = ~(1.0 + r >= DOUBLE_TOP_GAP)
    if close.any():
        lam[close] = _top_eigenvalue_gram(D[close])
    return lam


def _spectral_norm(D: np.ndarray) -> np.ndarray:
    """Largest singular value of each block of a stack (S, n, n): the root of the
    top eigenvalue of D'D, in closed form for n = 3."""
    lam = _top_eigenvalue_gram3(D) if D.shape[-1] == 3 else _top_eigenvalue_gram(D)
    return np.sqrt(np.maximum(lam, 0.0))


def _degrees(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Degree and Frobenius bound per date of a stack M = I - sum_l A_l (S, n, n);
    both NaN on flagged dates."""
    dev, singular, bound = _guarded_inverse(M)
    dev -= np.eye(M.shape[-1])
    dev[singular] = 0.0  # keeps void inverses out of the eigensolver
    zeta = _spectral_norm(dev)
    flagged = singular | ~np.isfinite(zeta)
    zeta[flagged] = np.nan
    bound[flagged] = np.nan
    return zeta, bound


def _path_degrees(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Degree and Frobenius bound per date of a lag-matrix path A (S, q, n, n), any
    strides, taken ``DEGREE_CHUNK`` dates at a time; both NaN on flagged dates."""
    eye = np.eye(A.shape[-1])
    zeta, bound = np.empty(A.shape[0]), np.empty(A.shape[0])
    for s in range(0, A.shape[0], DEGREE_CHUNK):
        chunk = slice(s, s + DEGREE_CHUNK)
        zeta[chunk], bound[chunk] = _degrees(eye - A[chunk].sum(axis=1))
    return zeta, bound


def efficiency_path(estimate: TvVarEstimate, bands: BandPath | None = None) -> EfficiencyPath:
    """Per-date degree along a fitted coefficient path, with the band values of
    ``bands`` (``bootstrap_bands`` of the same fit) if given.

    Dates where the lag sum is within ``CONDITION_LIMIT`` of singular are
    flagged and carry NaN instead of a clipped value.
    """
    zeta, bound = _path_degrees(estimate.A_path)
    bound = bound[np.isfinite(bound)]
    return EfficiencyPath(dates=estimate.dates, zeta=zeta,
                          band_low=None if bands is None else bands.lower,
                          band_high=None if bands is None else bands.upper,
                          max_frobenius_bound=float(bound.max()) if bound.size else None)
