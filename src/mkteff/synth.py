"""Synthetic data generators with known ground truth.

Every estimator in the pipeline is verified against panels produced here:
unpredictable returns, pure random walks (for the unit-root size check),
stable constant-coefficient systems, and two time-varying designs whose true
coefficient paths are returned next to the data. Gaussian innovations only;
stationary kinds discard a 200-period burn-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from typing import get_type_hints

import numpy as np

from .efficiency import _path_degrees
from .errors import ConfigError, typed
from .market_data import AlignedPanel

__all__ = ["DGP_KINDS", "DgpSpec", "DgpTruth", "simulate", "synthetic_dates"]

DGP_KINDS = (
    "white-noise",
    "random-walk",
    "constant-var",
    "tv-var-linear-drift",
    "tv-var-random-walk-coeffs",
)

BURN_IN = 200
_RADIUS_CAP = 0.97


def synthetic_dates(T: int) -> tuple[date, ...]:
    start = date(2000, 1, 1)
    return tuple(start + timedelta(days=t) for t in range(T))


def _companion_radius(A: np.ndarray) -> float:
    """Spectral radius of the companion matrix of lag matrices (q, n, n)."""
    q, n, _ = A.shape
    comp = np.zeros((n * q, n * q))
    comp[:n] = np.concatenate(list(A), axis=1)
    comp[n:, : n * (q - 1)] = np.eye(n * (q - 1))
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def _as_lag_matrices(value, n: int, q: int, name: str) -> np.ndarray:
    """Accept a scalar, an (n, n) matrix, or a full (q, n, n) stack."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        out = np.zeros((q, n, n))
        out[0] = arr * np.eye(n)
        return out
    if arr.ndim == 2:
        if arr.shape != (n, n):
            raise ConfigError(f"{name} must be {n}x{n}")
        out = np.zeros((q, n, n))
        out[0] = arr
        return out
    if arr.shape != (q, n, n):
        raise ConfigError(f"{name} must have shape ({q}, {n}, {n})")
    return arr.copy()


@dataclass(frozen=True)
class DgpSpec:
    """Declarative description of a data-generating process.

    ``coefficients`` is the constant lag stack for ``constant-var``, the start
    point for the drifting kinds; ``coefficients_end`` the drift target;
    ``coef_innovation_sd`` the per-step coefficient noise for the random-walk
    kind. Scalars broadcast onto lag 1 times the identity.
    """

    kind: str
    n: int = 1
    T: int = 500
    q: int = 1
    seed: int = 0
    intercept: tuple = ()
    innovation_sd: float = 1.0
    coefficients: object = None
    coefficients_end: object = None
    coef_innovation_sd: float = 0.0

    def __post_init__(self):
        if self.kind not in DGP_KINDS:
            raise ConfigError(f"unknown DGP kind {self.kind!r}")
        if self.n < 1 or self.T < 2 or self.q < 1:
            raise ConfigError("n, T must be positive and q at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.innovation_sd < np.inf:
            raise ConfigError(f"innovation_sd must be positive and finite, got {self.innovation_sd!r}")
        if not 0.0 <= self.coef_innovation_sd < np.inf:
            raise ConfigError(f"coef_innovation_sd must be non-negative and finite, got {self.coef_innovation_sd!r}")
        for name in ("intercept", "coefficients", "coefficients_end"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(np.asarray(value, dtype=float))):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.kind == "constant-var":
            if self.coefficients is None:
                raise ConfigError("constant-var needs coefficients")
            A = _as_lag_matrices(self.coefficients, self.n, self.q, "coefficients")
            radius = _companion_radius(A)
            if radius >= 1.0:
                raise ConfigError(f"unstable constant-var spec: companion radius {radius:.3f} >= 1")
        if self.kind == "tv-var-linear-drift" and self.coefficients_end is None:
            raise ConfigError("tv-var-linear-drift needs coefficients_end")
        if self.kind == "tv-var-random-walk-coeffs" and not self.coef_innovation_sd > 0:
            raise ConfigError("tv-var-random-walk-coeffs needs coef_innovation_sd > 0")

    def intercept_vector(self) -> np.ndarray:
        if not self.intercept:
            return np.zeros(self.n)
        nu = np.asarray(self.intercept, dtype=float)
        if nu.shape != (self.n,):
            raise ConfigError(f"intercept must have length {self.n}")
        return nu

    @classmethod
    def from_dict(cls, doc: dict) -> "DgpSpec":
        kinds = get_type_hints(cls)
        unknown = set(doc) - set(kinds)
        if unknown:
            raise ConfigError(f"unknown DGP spec field(s): {', '.join(sorted(unknown))}")
        if "kind" not in doc:
            raise ConfigError("DGP spec needs a 'kind' field")
        args = {k: typed(v, kinds[k], k) if kinds[k] in (str, int, float) else v for k, v in doc.items()}
        for k in ("coefficients", "coefficients_end"):  # a number or a regular nested list of numbers
            cells = np.asarray(args.get(k, 0.0), dtype=object).ravel()  # a ragged list keeps list cells
            if args.get(k) is not None and not all(type(x) in (int, float) for x in cells):
                raise ConfigError(f"{k} must be a number or a nested list of numbers, got {args[k]!r}")
        if args.get("intercept") is not None:
            intercept = typed(args["intercept"], list, "intercept")
            args["intercept"] = tuple(typed(v, float, "intercept") for v in intercept)
        return cls(**args)


@dataclass(frozen=True, eq=False)
class DgpTruth:
    """Ground truth aligned with the panel rows.

    ``A_path[t]`` is the lag stack that generated row t (rows before q carry
    the initial stack); ``zeta`` is the degree implied by each stack, NaN where
    the lag sum is effectively singular.
    """

    nu: np.ndarray
    A_path: np.ndarray  # (T, q, n, n)
    zeta: np.ndarray  # (T,)


def _panel_and_truth(nu, values, A_path) -> tuple[AlignedPanel, DgpTruth]:
    """Returns panel plus ground truth, with the degree implied by each lag stack."""
    panel = AlignedPanel(synthetic_dates(values.shape[0]), values, _ids(A_path.shape[-1]), "returns")
    return panel, DgpTruth(nu=nu, A_path=A_path, zeta=_path_degrees(A_path)[0])


def _recur(nu, A_path_full, eps, q):
    """x_t = nu + sum_l A_{l,t} x_{t-l} + eps_t over the full horizon."""
    total, n = eps.shape
    x = np.zeros((total, n))
    for t in range(total):
        acc = nu + eps[t]
        for l in range(1, q + 1):
            if t - l >= 0:
                acc = acc + A_path_full[t, l - 1] @ x[t - l]
        x[t] = acc
    return x


def simulate(spec: DgpSpec) -> tuple[AlignedPanel, DgpTruth]:
    """Generate a returns panel and its ground truth, deterministically in seed."""
    rng = np.random.default_rng(spec.seed)
    n, T, q = spec.n, spec.T, spec.q
    nu = spec.intercept_vector()

    if spec.kind == "random-walk":
        steps = rng.normal(0.0, spec.innovation_sd, size=(T, n)) + nu
        values = np.cumsum(steps, axis=0)
        return _panel_and_truth(nu, values, np.zeros((T, q, n, n)))

    total = BURN_IN + T
    eps = rng.normal(0.0, spec.innovation_sd, size=(total, n))

    if spec.kind == "white-noise":  # every lag matrix is zero: the recursion adds only zeros
        return _panel_and_truth(nu, nu + eps[BURN_IN:], np.zeros((T, q, n, n)))
    if spec.kind == "constant-var":
        A = _as_lag_matrices(spec.coefficients, n, q, "coefficients")
        A_full = np.broadcast_to(A, (total, q, n, n)).copy()
    elif spec.kind == "tv-var-linear-drift":
        A0 = _as_lag_matrices(
            0.0 if spec.coefficients is None else spec.coefficients, n, q, "coefficients"
        )
        A1 = _as_lag_matrices(spec.coefficients_end, n, q, "coefficients_end")
        w = np.linspace(0.0, 1.0, T)
        A_out = (1.0 - w)[:, None, None, None] * A0 + w[:, None, None, None] * A1
        A_full = np.concatenate([np.broadcast_to(A0, (BURN_IN, q, n, n)), A_out])
    else:  # tv-var-random-walk-coeffs
        A = _as_lag_matrices(
            0.0 if spec.coefficients is None else spec.coefficients, n, q, "coefficients"
        )
        A_full = np.empty((total, q, n, n))
        A_full[:BURN_IN] = A
        cur = A.copy()
        for t in range(BURN_IN, total):
            cur = cur + rng.normal(0.0, spec.coef_innovation_sd, size=(q, n, n))
            radius = _companion_radius(cur)
            if radius > _RADIUS_CAP:  # rescale to keep the simulation stable
                cur = cur * (_RADIUS_CAP / radius)
            A_full[t] = cur

    x = _recur(nu, A_full, eps, q)
    return _panel_and_truth(nu, x[BURN_IN:], A_full[BURN_IN:])


def _ids(n: int) -> tuple[str, ...]:
    return tuple(f"asset{i + 1}" for i in range(n))
