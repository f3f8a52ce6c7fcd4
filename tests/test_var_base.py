import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mkteff import (
    fit_var_ols,
    granger_causality,
    hansen_lc,
    select_lag_bic,
)
from mkteff.errors import DataError, MktEffError, NumericalError
from mkteff.var_base import (
    HANSEN_LC_CRITICAL, _auto_bandwidth, _bic, _bic_path, _f_pvalue, _hac_cov, _nested_rss, _ols,
)

from conftest import make_panel, traced_peak
from oracles import granger_causality_pairwise, granger_wald_f, naive_hansen_lc, var_lag_search


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def simulate_var(rng, A, T, sd=1.0, nu=None, burn=200):
    A = np.asarray(A, dtype=float)
    if A.ndim == 2:
        A = A[None]
    q, n, _ = A.shape
    nu = np.zeros(n) if nu is None else np.asarray(nu, float)
    x = np.zeros((burn + T, n))
    eps = rng.normal(0.0, sd, size=(burn + T, n))
    for t in range(burn + T):
        acc = nu + eps[t]
        for l in range(1, q + 1):
            if t - l >= 0:
                acc = acc + A[l - 1] @ x[t - l]
        x[t] = acc
    return make_panel(x[burn:])


class TestFit:
    def test_exact_autoregression(self):
        x = 0.5 ** np.arange(40)
        est = fit_var_ols(make_panel(x[:, None]), 1)
        assert est.A[0, 0, 0] == pytest.approx(0.5, abs=1e-12)
        assert est.nu[0] == pytest.approx(0.0, abs=1e-12)

    def test_residual_means_vanish(self, rng):
        panel = simulate_var(rng, 0.3 * np.eye(3), 300)
        est = fit_var_ols(panel, 2)
        assert np.max(np.abs(est.residuals.mean(axis=0))) < 1e-10

    def test_sigma_symmetric_psd(self, rng):
        est = fit_var_ols(simulate_var(rng, 0.2 * np.eye(2), 250), 1)
        assert np.allclose(est.sigma, est.sigma.T)
        assert np.all(np.linalg.eigvalsh(est.sigma) > -1e-14)

    def test_white_noise_coefficients_near_zero(self):
        rng = np.random.default_rng(2024)
        panel = simulate_var(rng, np.zeros((3, 3)), 2000)
        est = fit_var_ols(panel, 1)
        cov = _hac_cov(est.regressors, est.residuals, 0)
        se = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))  # (n, k)
        lag_block = np.abs(est.coefficients[1:])  # (n*p, n)
        assert np.all(lag_block.T < 3.0 * se[:, 1:])

    def test_equation_ols_equals_stacked_system(self, rng):
        panel = simulate_var(rng, [[0.3, 0.1], [0.0, 0.4]], 150)
        est = fit_var_ols(panel, 1)
        X = est.regressors
        n, k = 2, X.shape[1]
        # independent oracle: one block-diagonal least-squares solve
        X_sys = np.kron(np.eye(n), X)
        Y = X @ est.coefficients + est.residuals
        y_sys = Y.T.ravel()
        beta_sys = np.linalg.lstsq(X_sys, y_sys, rcond=None)[0].reshape(n, k).T
        np.testing.assert_allclose(beta_sys, est.coefficients, atol=1e-10)

    def test_rank_deficiency_raises(self):
        values = np.column_stack([np.zeros(60), np.zeros(60)])
        with pytest.raises(Exception):
            fit_var_ols(make_panel(values), 1)

    def test_too_few_rows(self):
        with pytest.raises(DataError):
            fit_var_ols(make_panel(np.ones((4, 3))), 1)

    def test_rotation_equivariance(self, rng):
        panel = simulate_var(rng, 0.4 * np.eye(3) + 0.1, 400)
        Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
        rotated = make_panel(panel.values @ Q.T)
        est = fit_var_ols(panel, 1)
        est_rot = fit_var_ols(rotated, 1)
        np.testing.assert_allclose(est_rot.A[0], Q @ est.A[0] @ Q.T, atol=1e-8)


class TestLagSelection:
    def test_white_noise_prefers_one(self):
        votes = 0
        for seed in range(15):
            rng = np.random.default_rng(seed)
            panel = simulate_var(rng, np.zeros((2, 2)), 400)
            votes += select_lag_bic(panel, 4) == 1
        assert votes >= 12

    def test_strong_var2_detected(self):
        votes = 0
        A = np.zeros((2, 2, 2))
        A[0] = [[0.2, 0.0], [0.0, 0.2]]
        A[1] = [[0.5, 0.0], [0.1, 0.45]]
        for seed in range(15):
            rng = np.random.default_rng(100 + seed)
            panel = simulate_var(rng, A, 500)
            votes += select_lag_bic(panel, 4) == 2
        assert votes >= 12

    def test_equals_argmin_of_full_fits(self, rng):
        A = np.zeros((2, 3, 3))
        A[0] = 0.2 * np.eye(3)
        A[1] = 0.3 * np.eye(3)
        for panel in (simulate_var(rng, A, 300), simulate_var(rng, np.zeros((3, 3)), 300)):
            assert select_lag_bic(panel, 5) == var_lag_search(panel, 5)[0]

    def test_invalid_p_max(self):
        with pytest.raises(DataError):
            select_lag_bic(make_panel(np.ones((50, 2))), 0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        T=st.integers(5, 300),
        p_max=st.integers(1, 8),
        decimals=st.sampled_from([None, 0, 1]),
    )
    def test_matches_oracle(self, seed, n, T, p_max, decimals):
        # the order, or the error, of one lstsq fit per candidate; rounded
        # returns take few distinct values and are tie-prone. Too few rows for
        # p_max is an error; otherwise every candidate keeps 5n residual degrees
        # of freedom, since an exact fit's log-determinant is rounding noise
        k_max = 1 + n * p_max
        assume(T - p_max <= k_max or T - p_max - k_max >= 5 * n)
        values = np.random.default_rng(seed).standard_normal((T, n))
        if decimals is not None:
            values = np.round(values, decimals)
        panel = make_panel(values)

        def outcome(search):
            try:
                return search()
            except MktEffError as exc:
                return type(exc), str(exc)

        got = outcome(lambda: select_lag_bic(panel, p_max))
        want = outcome(lambda: var_lag_search(panel, p_max)[0])
        assert got == want
        if isinstance(got, int):
            assert _bic_path(values, p_max) == pytest.approx(var_lag_search(panel, p_max)[1], rel=1e-10, abs=1e-10)

    def test_bits_of_the_separate_design(self, rng):
        # the one [1, lags | targets] array holds the design of the full fit
        values = rng.standard_normal((400, 3))
        p_max = 4
        Y, X = _ols(values, p_max, p_max)[:2]
        ks = [1 + 3 * p for p in range(1, p_max + 1)]
        nested = _nested_rss(np.column_stack([X, Y]), ks[-1], ks)
        want = [_bic(c / Y.shape[0], Y.shape[0], k) for k, (c, _) in zip(ks, nested)]
        assert np.array_equal(bits(_bic_path(values, p_max)), bits(want))

    def test_peak_memory(self):
        # the design is built once; the QR holds the only copy
        values = np.random.default_rng(5).standard_normal((3000, 8))
        p_max = 4
        xy_bytes = (3000 - p_max) * (1 + 8 * p_max + 8) * 8
        assert traced_peak(_bic_path, values, p_max) <= 2.5 * xy_bytes

    def test_rank_deficient_panel_is_a_numerical_error(self, rng):
        x = rng.standard_normal(200)
        with pytest.raises(NumericalError, match="rank-deficient regressor matrix"):
            select_lag_bic(make_panel(np.column_stack([x, x])), 4)
        # the first failing candidate decides: order 1 is rank-deficient before order 2 runs out of rows
        with pytest.raises(NumericalError):
            select_lag_bic(make_panel(np.column_stack([x, x])[:12]), 4)

    def test_too_few_rows_message(self, rng):
        # n=3, p_max=4 leaves 12 rows: orders 1-3 fit, order 4 needs 13 regressors
        with pytest.raises(DataError, match=re.escape("too few rows: need more than 17, got 16")):
            select_lag_bic(make_panel(rng.standard_normal((16, 3))), 4)
        with pytest.raises(DataError, match=re.escape("too few rows: need more than 8, got 8")):
            select_lag_bic(make_panel(rng.standard_normal((8, 3))), 4)


class TestNeweyWest:
    def test_bandwidth_zero_equals_white(self, rng):
        panel = simulate_var(rng, 0.3 * np.eye(2), 200)
        est = fit_var_ols(panel, 1)
        X, E = est.regressors, est.residuals
        got = _hac_cov(X, E, 0)
        xtx_inv = np.linalg.inv(X.T @ X)
        for i in range(2):
            meat = (X * E[:, i : i + 1]).T @ (X * E[:, i : i + 1])
            np.testing.assert_allclose(got[i], xtx_inv @ meat @ xtx_inv, atol=1e-14)

    def test_iid_hac_close_to_classical(self):
        rng = np.random.default_rng(77)
        panel = simulate_var(rng, 0.2 * np.eye(2), 3000)
        est = fit_var_ols(panel, 1)  # robust_se: the automatic bandwidth
        X, E = est.regressors, est.residuals
        xtx_inv = np.linalg.inv(X.T @ X)
        for i in range(2):
            s2 = float(E[:, i] @ E[:, i]) / (E.shape[0] - X.shape[1])
            classical = np.sqrt(np.diag(s2 * xtx_inv))
            ratio = est.robust_se[i] / classical
            assert np.all(ratio > 0.85) and np.all(ratio < 1.15)

    def test_auto_bandwidth_rule(self):
        assert _auto_bandwidth(100) == 4
        assert _auto_bandwidth(1684) == 7


class TestGranger:
    def test_rss_equals_wald(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            panel = simulate_var(rng, 0.2 * np.eye(3), 180)
            est = fit_var_ols(panel, 1)
            for src in panel.asset_ids:
                assert granger_causality(est, src).f_statistic == pytest.approx(granger_wald_f(est, src), abs=1e-8)

    def test_detects_feedback(self):
        rng = np.random.default_rng(3)
        A = np.array([[0.2, 0.0], [0.5, 0.1]])  # asset 0 drives asset 1
        panel = simulate_var(rng, A, 1500)
        est = fit_var_ols(panel, 1)
        res = granger_causality(est, "A0")
        assert res.p_value < 0.01
        assert res.df_num == 1
        quiet = granger_causality(est, "A1")
        assert quiet.p_value > res.p_value

    def test_unknown_source_names_the_ids(self, rng):
        est = fit_var_ols(simulate_var(rng, 0.2 * np.eye(2), 120), 1)
        with pytest.raises(DataError, match=re.escape("unknown source asset 'nope'; the fit has 'A0', 'A1'")):
            granger_causality(est, "nope")

    def test_p_value_is_the_f_upper_tail(self, rng):
        from scipy import stats

        panel = simulate_var(rng, 0.2 * np.eye(3), 200)
        for p in (1, 2):
            est = fit_var_ols(panel, p)
            for src in panel.asset_ids:
                res = granger_causality(est, src)
                assert res.p_value == stats.f.sf(res.f_statistic, res.df_num, res.df_den)
        for f in (-1e-12, -3.0, 0.0, 0.7, 40.0):
            assert _f_pvalue(f, 2, 150) == stats.f.sf(f, 2, 150)
        assert _f_pvalue(-1e-12, 2, 150) == 1.0

    def test_source_by_label(self, rng):
        panel = simulate_var(rng, 0.1 * np.eye(2), 200)
        res = granger_causality(fit_var_ols(panel, 1), "A0")
        assert res.source_asset == "A0"

    def test_pairwise_variant(self, rng):
        panel = simulate_var(rng, 0.2 * np.eye(3), 300)
        est = fit_var_ols(panel, 1)
        res = granger_causality_pairwise(est, "A0", "A1")
        assert res.df_num == 1
        assert 0.0 <= res.p_value <= 1.0
        with pytest.raises(DataError):
            granger_causality_pairwise(est, "A0", "A0")

    def test_degrees_of_freedom(self, rng):
        panel = simulate_var(rng, 0.1 * np.eye(3), 200)
        res = granger_causality(fit_var_ols(panel, 2), "A0")
        teff = 200 - 2
        assert res.df_num == 2 * (3 - 1)
        assert res.df_den == 3 * teff - 3 * (1 + 3 * 2)


class TestHansenLc:
    def test_parameter_count(self, rng):
        panel = simulate_var(rng, 0.2 * np.eye(3), 300)
        res = hansen_lc(fit_var_ols(panel, 1))
        assert res.n_params == 3 * (1 + 3 + 1)
        assert res.thresholds[0.01] > res.thresholds[0.05] > res.thresholds[0.10]

    def test_constant_parameters_accepted(self):
        rng = np.random.default_rng(42)
        panel = simulate_var(rng, 0.3 * np.eye(2), 400)
        res = hansen_lc(fit_var_ols(panel, 1))
        assert not res.rejects_at(0.01)

    def test_drifting_parameters_rejected(self):
        rng = np.random.default_rng(9)
        T = 400
        x = np.zeros((T, 1))
        a = np.linspace(-0.5, 0.7, T)  # strong deterministic drift
        eps = rng.standard_normal((T, 1))
        for t in range(1, T):
            x[t] = a[t] * x[t - 1] + eps[t]
        res = hansen_lc(fit_var_ols(make_panel(x), 1))
        assert res.rejects_at(0.01)

    def test_beyond_table_warns(self, rng):
        panel = simulate_var(rng, 0.1 * np.eye(4), 400)
        with pytest.warns(UserWarning):
            res = hansen_lc(fit_var_ols(panel, 1))  # 4 * (1 + 4 + 1) = 24 > 20
        assert res.thresholds[0.05] == HANSEN_LC_CRITICAL[20][1]

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n, p", [(1, 3), (2, 1), (3, 2), (8, 1)])
    def test_bits_of_the_block_oracle(self, order, n, p):
        # same memory order as the regressors, so the Lc sum runs in the oracle's order
        values = np.random.default_rng(10 * n + p).standard_normal((1200, n))
        panel = make_panel(np.asarray(values, order=order))
        est = fit_var_ols(panel, p)
        assert est.regressors.flags.f_contiguous == (order == "F" and n > 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # past the table at n=8
            lc = hansen_lc(est).lc_statistic
        assert bits(lc) == bits(naive_hansen_lc(est))

    def test_peak_memory(self):
        # one score matrix, turned into its running sums in place
        panel = make_panel(np.random.default_rng(6).standard_normal((3000, 8)))
        est = fit_var_ols(panel, 1)
        score_bytes = est.nobs * 8 * (est.coefficients.shape[0] + 1) * 8
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert traced_peak(hansen_lc, est) <= 2.5 * score_bytes

    def test_table_monotone(self):
        rows = [HANSEN_LC_CRITICAL[m] for m in range(1, 21)]
        for a, b in zip(rows, rows[1:]):
            assert all(x < y for x, y in zip(a, b))
