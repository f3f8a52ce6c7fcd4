from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mkteff.efficiency
from mkteff import TvVarConfig, efficiency_path, fit_tv_var
from mkteff.efficiency import (
    COFACTOR_BOUND,
    CONDITION_LIMIT,
    DEGREE_CHUNK,
    EfficiencyPath,
    _cofactor_inverse,
    _degrees,
    _frobenius_bound,
    _guarded_inverse,
    _spectral_norm,
)

from conftest import make_dates, make_panel


def make_estimate(A_path):
    """Wrap a coefficient path in a minimal fitted-estimate stand-in."""
    from mkteff.tv_var import TvVarEstimate, TvVarConfig

    A_path = np.asarray(A_path, dtype=float)
    S, q, n, _ = A_path.shape
    return TvVarEstimate(
        dates=make_dates(S),
        asset_ids=tuple(f"A{i}" for i in range(n)),
        nu=np.zeros(n),
        A_path=A_path,
        residuals=np.zeros((S, n)),
        config=TvVarConfig(q=q),
        effective_obs=S,
        lambda_effective=1.0,
        ridge_jitter=0.0,
        intercept_pivot=1.0,
    )


def degree(M):
    """The kernel's degree of one lag sum M = I - sum_l A_l: the spectral norm of M^-1 - I."""
    return _degrees(np.asarray(M, dtype=float)[None])[0]


class TestMultiplier:
    """The multiplier M^-1 of a lag sum M = I - sum_l A_l, from the guarded inverse."""

    def test_zero_coefficients_give_identity(self):
        for n in (1, 2, 3):
            phi, singular = _guarded_inverse(np.eye(n)[None])
            np.testing.assert_array_equal(phi[0], np.eye(n))
            assert not singular[0]

    def test_scalar_geometric_sum(self):
        assert _guarded_inverse(np.array([[[0.5]]]))[0][0, 0, 0] == pytest.approx(2.0, rel=1e-15)

    def test_two_by_two_hand_inverse(self):
        A = np.array([[0.2, 0.1], [0.0, 0.3]])
        # (I - A) = [[0.8, -0.1], [0, 0.7]], det 0.56
        expected = np.array([[0.7 / 0.56, 0.1 / 0.56], [0.0, 0.8 / 0.56]])
        np.testing.assert_allclose(_guarded_inverse((np.eye(2) - A)[None])[0][0], expected, rtol=1e-12)

    def test_multiple_lags_summed(self):
        A = np.array([[[[0.2]], [[0.3]]]])  # one date, two lags: M^-1 = 1 / (1 - 0.5) = 2
        assert efficiency_path(make_estimate(A)).zeta[0] == pytest.approx(1.0, rel=1e-15)

    def test_near_singular_raises(self):
        # a unit root leaves no multiplier: the date is flagged, its degree NaN
        assert _guarded_inverse(np.array([[[0.0]]]))[1][0]
        assert np.isnan(degree([[0.0]]))


class TestJointDegree:
    def test_identity_is_zero(self):
        assert degree(np.eye(4)) == 0.0

    def test_scalar_case(self):
        # M^-1 = 1/2: the degree is the absolute deviation from 1
        assert degree([[2.0]]) == pytest.approx(0.5, rel=1e-15)

    def test_rank_one_column(self):
        # M^-1 - I = [[0, 3], [0, 4]]: the largest singular value of a rank-1
        # matrix is its column norm, 5
        M = np.linalg.inv(np.eye(2) + np.array([[0.0, 3.0], [0.0, 4.0]]))
        assert degree(M) == pytest.approx(5.0, rel=1e-12)

    def test_matches_independent_eigensolver(self, rng):
        for _ in range(20):
            M = rng.standard_normal((3, 3))
            dev = np.linalg.inv(M) - np.eye(3)
            oracle = float(np.sqrt(np.linalg.eigvalsh(dev.T @ dev).max()))
            assert degree(M) == pytest.approx(oracle, rel=1e-10)

    def test_scalar_grid_formula(self):
        # one asset: M^-1 = 1 / (1 - a), and the degree is |a / (1 - a)|
        for a in np.arange(-0.9, 0.95, 0.1):
            assert degree([[1.0 - a]]) == pytest.approx(abs(a / (1.0 - a)), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_orthogonal_conjugation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((3, 3))
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert degree(Q @ M @ Q.T) == pytest.approx(degree(M), rel=1e-8)


class TestPath:
    def test_zero_path(self):
        path = efficiency_path(make_estimate(np.zeros((5, 1, 2, 2))))
        assert np.all(path.zeta == 0.0)
        assert not path.singular.any()

    def test_constant_scalar_path(self):
        path = efficiency_path(make_estimate(np.full((7, 1, 1, 1), 0.5)))
        np.testing.assert_allclose(path.zeta, 1.0, rtol=1e-12)

    def test_matches_dense_recomputation(self, rng):
        panel = make_panel(rng.standard_normal((60, 2)) * 0.01)
        fit = fit_tv_var(panel, TvVarConfig(q=1, lam=1.0))
        path = efficiency_path(fit)
        for s in range(fit.effective_obs):
            M = np.eye(2) - fit.A_path[s].sum(axis=0)
            oracle = np.sqrt(
                np.linalg.eigvalsh((np.linalg.inv(M) - np.eye(2)).T @ (np.linalg.inv(M) - np.eye(2))).max()
            )
            assert path.zeta[s] == pytest.approx(oracle, abs=1e-10)

    def test_singular_dates_flagged_not_dropped(self):
        A = np.zeros((3, 1, 1, 1))
        A[1, 0, 0, 0] = 1.0  # unit root at the middle date
        path = efficiency_path(make_estimate(A))
        assert path.singular.tolist() == [False, True, False]
        assert np.isnan(path.zeta[1])
        assert path.zeta[0] == 0.0
        assert len(path.dates) == 3

    @pytest.mark.parametrize("n", [3, 8])
    def test_chunks_match_the_whole_stack(self, n):
        # three batches of dates: an exactly singular date in the first stops its
        # batched LU (and the whole stack's), a NaN date sits in the second
        S = 2 * DEGREE_CHUNK + 300
        gen = np.random.default_rng(n)
        A = (0.4 / n) * gen.standard_normal((S, 2, n, n))
        A[100] = 0.0
        A[100, 0, 0, 0] = 1.0  # row 0 of the lag sum is exactly zero
        A[DEGREE_CHUNK + 50, 1, n - 1, 0] = np.nan
        M = np.eye(n) - A.sum(axis=1)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(M[:DEGREE_CHUNK])
        zeta = efficiency_path(make_estimate(A)).zeta
        assert np.isnan(zeta).nonzero()[0].tolist() == [100, DEGREE_CHUNK + 50]
        assert zeta.tobytes() == _degrees(M).tobytes()

    def test_csv_round_trip(self, tmp_path):
        path = efficiency_path(make_estimate(np.full((3, 1, 1, 1), 0.5)))
        path = path.with_bands(np.array([0.1, 0.1, np.nan]), np.array([0.4, 0.5, np.nan]))
        path.write_csv(tmp_path / "efficiency.csv")
        lines = (tmp_path / "efficiency.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "date,zeta,band_low,band_high,singular"
        assert len(lines) == 4
        assert lines[1].endswith(",0")
        assert lines[3].split(",")[2] == ""  # NaN band renders blank

    def test_csv_exact_text(self, tmp_path):
        dest = tmp_path / "efficiency.csv"
        dates = make_dates(4, start=date(2021, 3, 1))
        path = EfficiencyPath(dates=dates, zeta=np.array([0.25, np.nan, 1 / 3, 2.0]))
        path.write_csv(dest)
        assert dest.read_bytes().decode("utf-8") == (
            "date,zeta,band_low,band_high,singular\n"
            "2021-03-01,0.25,,,0\n"
            "2021-03-02,,,,1\n"
            "2021-03-03,0.3333333333333333,,,0\n"
            "2021-03-04,2.0,,,0\n"
        )
        banded = path.with_bands(np.array([0.1, np.nan, 0.2, 1e-17]), np.array([0.5, 0.7, np.nan, 3.0]))
        banded.write_csv(dest)
        assert dest.read_bytes().decode("utf-8") == (
            "date,zeta,band_low,band_high,singular\n"
            "2021-03-01,0.25,0.1,0.5,0\n"
            "2021-03-02,,,0.7,1\n"
            "2021-03-03,0.3333333333333333,0.2,,0\n"
            "2021-03-04,2.0,1e-17,3.0,0\n"
        )

    def test_singular_is_derived_from_zeta(self):
        path = EfficiencyPath(dates=make_dates(3), zeta=np.array([0.1, np.nan, np.inf]))
        assert path.singular.tolist() == [False, True, True]
        with pytest.raises(TypeError):
            EfficiencyPath(dates=make_dates(1), zeta=np.zeros(1), singular=np.zeros(1, dtype=bool))

    def test_band_order_validated(self):
        with pytest.raises(ValueError):
            EfficiencyPath(
                dates=make_dates(2),
                zeta=np.array([0.1, 0.2]),
                band_low=np.array([0.5, 0.5]),
                band_high=np.array([0.1, 0.6]),
            )


def svd_oracle(M):
    """Degree and flags the way the kernel replaces: exact cond, then an SVD."""
    S, n, _ = M.shape
    singular = ~(np.linalg.cond(M) <= CONDITION_LIMIT)
    zeta = np.full(S, np.nan)
    good = ~singular
    if good.any():
        zeta[good] = np.linalg.svd(np.linalg.inv(M[good]) - np.eye(n), compute_uv=False)[:, 0]
    return zeta, singular


def stack_with_condition(rng, S, n, kappas):
    """Random (S, n, n) stack whose date s has 2-norm condition number kappas[s]."""
    M = np.empty((S, n, n))
    for s in range(S):
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        sv = np.geomspace(1.0, 1.0 / kappas[s], n) * rng.uniform(0.2, 3.0)
        M[s] = (U * sv) @ V.T
    return M


def stack_with_double_top(rng, S, gaps):
    """(S, 3, 3) lag-sum stack whose date s has Phi - I with its top two singular
    values a relative gaps[s] apart (0 for an exact double)."""
    D = np.empty((S, 3, 3))
    for s in range(S):
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        top = rng.uniform(0.2, 3.0)
        D[s] = (U * [top, top * (1.0 - gaps[s]), top * rng.uniform(0.0, 0.9)]) @ V.T
    return np.linalg.inv(D + np.eye(3))


def matrix_with_frobenius_bound(rng, target):
    """3x3 matrix whose ||M||_F ||M^-1||_F is mathematically ``target``: singular
    values 1, 1/2 and t, with t^2 the small root of 5u^2 - (target^2 - 7.25)u + 1.25."""
    c = target**2 - 7.25
    t = np.sqrt((c - np.sqrt(c * c - 25.0)) / 10.0)
    U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return (U * [1.0, 0.5, t]) @ V.T


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=6),
        S=st.integers(min_value=1, max_value=40),
        exact_zero=st.booleans(),
    )
    def test_matches_cond_and_svd(self, seed, n, S, exact_zero):
        rng = np.random.default_rng(seed)
        # conditions from benign to numerically singular, most well inside the guard
        kappas = 10.0 ** rng.uniform(0.0, 17.0, S) if n > 1 else np.ones(S)
        M = stack_with_condition(rng, S, n, kappas)
        if exact_zero:
            M[rng.integers(S)] = 0.0  # stops the batched LU
        zeta = _degrees(M)
        want_zeta, want_singular = svd_oracle(M)
        np.testing.assert_array_equal(np.isnan(zeta), want_singular)
        np.testing.assert_allclose(zeta, want_zeta, rtol=1e-12, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        S=st.integers(min_value=1, max_value=40),
    )
    def test_near_double_top_matches_svd(self, seed, S):
        # the cubic's root is ill-conditioned where the top two eigenvalues of
        # (Phi - I)'(Phi - I) meet; these dates must still match the SVD
        rng = np.random.default_rng(seed)
        gaps = np.where(rng.random(S) < 0.2, 0.0, 10.0 ** rng.uniform(-12.0, -2.0, S))
        M = stack_with_double_top(rng, S, gaps)
        zeta = _degrees(M)
        want_zeta, want_singular = svd_oracle(M)
        np.testing.assert_array_equal(np.isnan(zeta), want_singular)
        np.testing.assert_allclose(zeta, want_zeta, rtol=1e-12, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        S=st.integers(min_value=1, max_value=40),
    )
    def test_numerically_rank_one_dates_match_svd(self, seed, S):
        # two unit roots at once: the cofactors and the determinant are rounding
        # noise, and their ratio can fake a small Frobenius bound
        rng = np.random.default_rng(seed)
        M = stack_with_condition(rng, S, 3, 10.0 ** rng.uniform(0.0, 2.0, S))
        for s in np.flatnonzero(rng.random(S) < 0.5):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            if rng.random() < 0.5:
                Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
                M[s] = (Q * [scale, 0.0, 0.0]) @ Q.T
            else:
                M[s] = scale * np.outer(rng.standard_normal(3), rng.standard_normal(3))
        zeta = _degrees(M)
        want_zeta, want_singular = svd_oracle(M)
        np.testing.assert_array_equal(np.isnan(zeta), want_singular)
        np.testing.assert_allclose(zeta, want_zeta, rtol=1e-12, atol=0.0)

    def test_rank_one_lag_sum_has_no_multiplier(self, rng):
        M = np.stack([np.outer(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(20)])
        assert np.isnan(_degrees(M)).all()

    def test_frobenius_bound_splits_cofactor_and_lapack_routes(self):
        rng = np.random.default_rng(3)
        under = matrix_with_frobenius_bound(rng, COFACTOR_BOUND * (1.0 - 1e-9))
        over = matrix_with_frobenius_bound(rng, COFACTOR_BOUND * (1.0 + 1e-9))
        M = np.stack([under, over])
        cofactor, _ = _cofactor_inverse(M)
        lapack = np.linalg.inv(M)
        bound = _frobenius_bound(M, cofactor)
        assert bound[0] <= COFACTOR_BOUND < bound[1]
        assert not np.array_equal(cofactor[1], lapack[1])  # the routes are told apart
        phi, singular = _guarded_inverse(M)
        assert not singular.any()
        np.testing.assert_array_equal(phi[0], cofactor[0])
        np.testing.assert_array_equal(phi[1], lapack[1])
        zeta = _degrees(M)
        assert zeta[1] == _spectral_norm(lapack[1:] - np.eye(3))[0]

    def test_guard_boundary_is_exact_two_norm(self):
        under = np.diag([1.0, 1.0, 1.0 / 0.9e12])
        over = np.diag([1.0, 1.0, 1.0 / 1.1e12])
        frobenius = np.linalg.norm(under) * np.linalg.norm(np.linalg.inv(under))
        assert frobenius > CONDITION_LIMIT  # the screen alone would flag it
        zeta = _degrees(np.stack([under, over]))
        assert np.isnan(zeta).tolist() == [False, True]
        assert zeta[0] == pytest.approx(0.9e12 - 1.0, rel=1e-12)

    def test_limit_below_cofactor_bound_still_flags(self, monkeypatch):
        # a limit under COFACTOR_BOUND caps the cofactor screen too
        M = np.diag([1.0, 1.0, 1.0 / 20.0])
        assert not np.isnan(_degrees(M[None])[0])
        monkeypatch.setattr(mkteff.efficiency, "CONDITION_LIMIT", 10.0)
        assert np.isnan(_degrees(M[None])[0])

    def test_rounding_at_the_limit_follows_cond(self):
        # kappa_2 within rounding of the limit: the computed Frobenius bound lands
        # just under it, np.linalg.cond just over it
        M = np.array([[0.46496026515031164, 0.2997095266784889], [0.7001977356422369, 0.4513416471488002]])
        assert np.isnan(_degrees(M[None])[0]) == (not np.linalg.cond(M) <= CONDITION_LIMIT)

    def test_exactly_singular_date_in_long_batch(self, rng):
        M = stack_with_condition(rng, 500, 3, 10.0 ** rng.uniform(0.0, 3.0, 500))
        M[250] = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(M)
        zeta = _degrees(M)
        assert np.isnan(zeta).tolist() == [s == 250 for s in range(500)]
        rest = np.delete(np.arange(500), 250)
        alone = _degrees(M[rest])
        np.testing.assert_array_equal(zeta[rest], alone)

    def test_nan_lag_sum_is_flagged(self):
        A = np.full((4, 1, 2, 2), 0.1)
        A[2, 0, 0, 1] = np.nan
        path = efficiency_path(make_estimate(A))
        assert path.singular.tolist() == [False, False, True, False]
        assert np.isnan(path.zeta[2])
        assert np.all(np.isfinite(path.zeta[[0, 1, 3]]))
