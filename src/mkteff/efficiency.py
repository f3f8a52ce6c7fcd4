"""Long-run response multiplier and the joint efficiency degree.

The multiplier (I - A_1 - ... - A_q)^{-1} equals the identity exactly when all
lag matrices vanish, i.e. when returns are unpredictable. The degree is the
spectral norm of its deviation from the identity: zero in the efficient
market, growing as predictability accumulates, and undefined where the lag
sum approaches a unit root (flagged, not dropped).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from datetime import date

import numpy as np

from .tv_var import TvVarEstimate

__all__ = [
    "CONDITION_LIMIT",
    "EfficiencyPath",
    "efficiency_path",
]

CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class EfficiencyPath:
    """Per-date degree with optional band values; a non-finite degree marks a flagged date."""

    dates: tuple[date, ...]
    zeta: np.ndarray
    band_low: np.ndarray | None = None
    band_high: np.ndarray | None = None
    singular: np.ndarray = field(init=False)  # bool per date: zeta is not finite

    def __post_init__(self):
        zeta = np.asarray(self.zeta, dtype=float)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "singular", ~np.isfinite(zeta))
        if len(self.dates) != zeta.shape[0]:
            raise ValueError("dates and zeta must align")
        if np.any(zeta[~self.singular] < 0):
            raise ValueError("degree must be non-negative where defined")
        if self.band_low is not None and self.band_high is not None:
            both = np.isfinite(self.band_low) & np.isfinite(self.band_high)
            if np.any(self.band_low[both] > self.band_high[both]):
                raise ValueError("band_low must not exceed band_high")

    def with_bands(self, band_low: np.ndarray, band_high: np.ndarray) -> "EfficiencyPath":
        return replace(
            self,
            band_low=np.asarray(band_low, dtype=float),
            band_high=np.asarray(band_high, dtype=float),
        )

    def write_csv(self, path) -> None:
        """Columns: date, zeta, band_low, band_high, singular (0/1); blanks for NaN."""

        def cells(values) -> list[str]:
            if values is None:
                return [""] * len(self.dates)
            return [repr(x) if math.isfinite(x) else "" for x in np.asarray(values, dtype=float).tolist()]

        with open(path, "w", encoding="utf-8") as fh:
            fh.write("date,zeta,band_low,band_high,singular\n")
            fh.writelines(
                f"{d.isoformat()},{z},{lo},{hi},{int(flag)}\n"
                for d, z, lo, hi, flag in zip(
                    self.dates, cells(self.zeta), cells(self.band_low), cells(self.band_high),
                    self.singular.tolist(),
                )
            )


# Dates per batch of ``_path_degrees``: no date's degree depends on the other
# dates of its batch, so batches only bound the temporaries; a paper-scale path
# is one batch
DEGREE_CHUNK = 2048

# Frobenius bound up to which a 3x3 block keeps its cofactor inverse; at this
# conditioning it agrees with LU to about 1e-14
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


def _lapack_inverse(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched LU inverses; only dates the Frobenius bound puts over half the limit
    (the half absorbs rounding in the inverse) get the exact ``np.linalg.cond``."""
    try:
        phi = np.linalg.inv(M)
    except np.linalg.LinAlgError:  # an exactly singular date stops the batched LU
        phi = np.full(M.shape, np.nan)
    exact = ~(_frobenius_bound(M, phi) <= 0.5 * CONDITION_LIMIT)
    singular = exact & ~np.isfinite(M).all(axis=(1, 2))
    checked = exact & ~singular
    singular[checked] = ~(np.linalg.cond(M[checked]) <= CONDITION_LIMIT)
    cleared = checked & ~singular
    phi[cleared] = np.linalg.inv(M[cleared])
    return phi, singular


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


def _guarded_inverse(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack (S, n, n), flagged where kappa_2 exceeds the limit or is undefined.

    For n = 3 dates whose Frobenius bound is at most ``COFACTOR_BOUND`` (or half a
    smaller limit, so the screen never clears a date the guard would flag) and whose
    determinant clears ``DET_FLOOR`` keep the cofactor inverse; every other date,
    and every date for n != 3, takes the LAPACK route. The inverses of flagged
    dates are void.
    """
    if M.shape[-1] != 3:
        return _lapack_inverse(M)
    with np.errstate(all="ignore"):  # det = 0 and non-finite entries void the bound
        phi, det = _cofactor_inverse(M)
        size = _frobenius_norm(M)
        keep = size * _frobenius_norm(phi) <= min(COFACTOR_BOUND, 0.5 * CONDITION_LIMIT)
        keep &= np.abs(det) >= DET_FLOOR * size**3
    rest = ~keep
    singular = np.zeros(M.shape[0], dtype=bool)
    if rest.any():
        phi[rest], singular[rest] = _lapack_inverse(M[rest])
    return phi, singular


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


def _degrees(M: np.ndarray) -> np.ndarray:
    """Degree per date of a stack M = I - sum_l A_l (S, n, n); NaN on flagged dates."""
    dev, singular = _guarded_inverse(M)
    dev -= np.eye(M.shape[-1])
    dev[singular] = 0.0  # keeps void inverses out of the eigensolver
    zeta = _spectral_norm(dev)
    zeta[singular | ~np.isfinite(zeta)] = np.nan
    return zeta


def _path_degrees(A: np.ndarray) -> np.ndarray:
    """Degree per date of a lag-matrix path A (S, q, n, n), any strides, taken
    ``DEGREE_CHUNK`` dates at a time; NaN on flagged dates."""
    eye = np.eye(A.shape[-1])
    zeta = np.empty(A.shape[0])
    for s in range(0, A.shape[0], DEGREE_CHUNK):
        zeta[s : s + DEGREE_CHUNK] = _degrees(eye - A[s : s + DEGREE_CHUNK].sum(axis=1))
    return zeta


def efficiency_path(estimate: TvVarEstimate) -> EfficiencyPath:
    """Per-date degree along a fitted coefficient path.

    Dates where the lag sum is within ``CONDITION_LIMIT`` of singular are
    flagged and carry NaN instead of a clipped value.
    """
    return EfficiencyPath(dates=estimate.dates, zeta=_path_degrees(estimate.A_path))
