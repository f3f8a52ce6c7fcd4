"""Long-run response multiplier and the joint efficiency degree.

The multiplier (I - A_1 - ... - A_q)^{-1} equals the identity exactly when all
lag matrices vanish, i.e. when returns are unpredictable. The degree is the
spectral norm of its deviation from the identity: zero in the efficient
market, growing as predictability accumulates, and undefined where the lag
sum approaches a unit root (flagged, not dropped).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date
from typing import IO, Sequence

import numpy as np

from .errors import NumericalError
from .tv_var import TvVarEstimate

__all__ = [
    "CONDITION_LIMIT",
    "EfficiencyPath",
    "cumulative_multiplier",
    "joint_degree",
    "efficiency_path",
]

CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class EfficiencyPath:
    """Per-date degree with optional band values; NaN marks flagged dates."""

    dates: tuple[date, ...]
    zeta: np.ndarray
    singular: np.ndarray  # bool per date
    band_low: np.ndarray | None = None
    band_high: np.ndarray | None = None

    def __post_init__(self):
        zeta = np.asarray(self.zeta, dtype=float)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "singular", np.asarray(self.singular, dtype=bool))
        if len(self.dates) != zeta.shape[0] or zeta.shape[0] != self.singular.shape[0]:
            raise ValueError("dates, zeta, and singular flags must align")
        good = ~self.singular
        if np.any(zeta[good] < 0):
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

    def write_csv(self, dest) -> None:
        """Columns: date, zeta, band_low, band_high, singular (0/1); blanks for NaN."""
        own = not hasattr(dest, "write")
        fh: IO[str] = open(dest, "w", encoding="utf-8") if own else dest

        def cell(x) -> str:
            return "" if x is None or not np.isfinite(x) else repr(float(x))

        try:
            fh.write("date,zeta,band_low,band_high,singular\n")
            for i, d in enumerate(self.dates):
                lo = self.band_low[i] if self.band_low is not None else None
                hi = self.band_high[i] if self.band_high is not None else None
                fh.write(
                    f"{d.isoformat()},{cell(self.zeta[i])},{cell(lo)},{cell(hi)},"
                    f"{int(self.singular[i])}\n"
                )
        finally:
            if own:
                fh.close()


def _guarded_inverse(M: np.ndarray, condition_limit: float) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack (S, n, n), flagged where kappa_2 exceeds the limit or is undefined.

    ||M||_F ||M^-1||_F lies in [kappa_2, n kappa_2], so only dates it puts over half the
    limit (the half absorbs rounding in the inverse) get the exact ``np.linalg.cond``.
    The inverses of flagged dates are void.
    """
    try:
        phi = np.linalg.inv(M)
    except np.linalg.LinAlgError:  # an exactly singular date stops the batched LU
        phi = np.full(M.shape, np.nan)
    exact = ~(np.linalg.norm(M, axis=(1, 2)) * np.linalg.norm(phi, axis=(1, 2)) <= 0.5 * condition_limit)
    singular = exact & ~np.isfinite(M).all(axis=(1, 2))
    checked = exact & ~singular
    singular[checked] = ~(np.linalg.cond(M[checked]) <= condition_limit)
    cleared = checked & ~singular
    phi[cleared] = np.linalg.inv(M[cleared])
    return phi, singular


def _spectral_norm(D: np.ndarray) -> np.ndarray:
    """Largest singular value of each D: the root of the top eigenvalue of D'D."""
    return np.sqrt(np.maximum(np.linalg.eigvalsh(np.swapaxes(D, -1, -2) @ D)[..., -1], 0.0))


def _degrees(M: np.ndarray, condition_limit: float = CONDITION_LIMIT) -> tuple[np.ndarray, np.ndarray]:
    """Degree and singular flag per date of a stack M = I - sum_l A_l (S, n, n)."""
    dev, singular = _guarded_inverse(M, condition_limit)
    dev -= np.eye(M.shape[-1])
    dev[singular] = 0.0  # keeps void inverses out of the eigensolver
    zeta = _spectral_norm(dev)
    zeta[singular] = np.nan
    return zeta, singular


def cumulative_multiplier(A: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Invert I minus the summed lag matrices; refuse near-singular systems."""
    A = np.asarray(A, dtype=float)
    M = np.eye(A.shape[-1]) - (A if A.ndim == 2 else A.sum(axis=0))
    phi, singular = _guarded_inverse(M[None], CONDITION_LIMIT)
    if singular[0]:
        raise NumericalError("lag sum too close to a unit root; multiplier undefined")
    return phi[0]


def joint_degree(phi1: np.ndarray) -> float:
    """Deviation of the multiplier from identity: the spectral norm of phi1 - I."""
    return float(_spectral_norm(np.asarray(phi1, dtype=float) - np.eye(len(phi1))))


def efficiency_path(estimate: TvVarEstimate, condition_limit: float = CONDITION_LIMIT) -> EfficiencyPath:
    """Per-date degree along a fitted coefficient path.

    Dates where the lag sum is within ``condition_limit`` of singular are
    flagged and carry NaN instead of a clipped value.
    """
    n = estimate.A_path.shape[-1]
    zeta, singular = _degrees(np.eye(n) - estimate.A_path.sum(axis=1), condition_limit)
    return EfficiencyPath(dates=estimate.dates, zeta=zeta, singular=singular)
