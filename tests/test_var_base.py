import dataclasses
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
from mkteff import var_base
from mkteff.errors import DataError, MktEffError, NumericalError
from mkteff.var_base import (
    _SOLVE_BLOCK, HANSEN_LC_CRITICAL, _auto_bandwidth, _bic, _bic_path, _design_columns, _f_pvalue, _hac_cov,
    _nested_rss,
)

from conftest import make_panel, traced_peak
from oracles import (
    granger_causality_pairwise, granger_refit_f, granger_wald_f, naive_hansen_lc, var_lag_search,
)


# The F(df_num, df_den) upper tail at the exact binary value of F, to 40
# significant digits. Computed once with mpmath at 60 digits by the incomplete
# beta's continued fraction, and agreeing with mpmath.betainc to 1e-47 or better.
# Rows: both benchmark workloads' df, (2, 5043) and (7, 60032), and df_num 1-60
# against df_den 12-1e6, at p from about 1e-300 to 1 - 1.2e-9.
F_TAIL_REFERENCE = [
    (2, 5043, 794.422, "1.200442048619502455808459361445959335786e-300"),
    (2, 5043, 505.252, "1.000004585614563356410130340231588276551e-200"),
    (2, 5043, 117.798, "1.000060501367068773376345338956475273745e-50"),
    (2, 5043, 23.1313, "1.000005443926482384623610207027775278132e-10"),
    (2, 5043, 4.60938, "9.999981032482579967858911867567646727305e-3"),
    (2, 5043, 0.693242, "5.000002302168920405982990884875099352496e-1"),
    (2, 5043, 1.2e-09, "9.999999988000000007202855520106665754204e-1"),
    (7, 60032, 204.036, "1.20172211123132083061531047132287582476e-300"),
    (7, 60032, 136.709, "1.00058194095294082963647167273503890909e-200"),
    (7, 60032, 36.0855, "1.000120007191451561176605029231711966565e-50"),
    (7, 60032, 8.70336, "1.000015195327867727241088696458599760681e-10"),
    (7, 60032, 2.63963, "9.99988835103980539176764665454596567837e-3"),
    (7, 60032, 0.906555, "4.999996979786489443733688106104530007765e-1"),
    (7, 60032, 0.00162978, "9.999999987999983536916426399817204469094e-1"),
    (1, 12, 9.08245e+50, "1.200000440185578808425416495313300293714e-300"),
    (1, 12, 4.34577e+17, "9.999978684256910021528752029639497245285e-101"),
    (1, 12, 4.74723, "4.999990439939037857520513546508023398148e-2"),
    (1, 12, 0.0164731, "8.99999849610971374024680081715049724781e-1"),
    (1, 12, 2.35807e-18, "9.999999988000006996633662506191390784141e-1"),
    (60, 12, 2.10326e+50, "1.20000631346418791869598305911613980979e-300"),
    (60, 12, 1.00637e+17, "9.999889801845093510232141305964680884383e-101"),
    (60, 12, 2.38417, "4.999965750341106910600385166772084007213e-2"),
    (60, 12, 0.603344, "9.000001490318201322556165104788589321378e-1"),
    (60, 12, 0.1097, "9.999999988000839781755188973568332987852e-1"),
    (3, 100, 34625700.0, "1.199951726058180101764710650396384896139e-300"),
    (3, 100, 3441.56, "9.999706542524992105669333788820294434676e-101"),
    (3, 100, 2.69553, "5.000026594276687360305881280483099709906e-2"),
    (3, 100, 0.194391, "9.000002988478754971493320489719681343036e-1"),
    (3, 100, 9.05656e-07, "9.999999988000010033396144101970821914224e-1"),
    (56, 59401, 26.4657, "2.001249526508862076221215201681020289481e-269"),
    (56, 59401, 16.026, "1.001259855225892816271238239170862197871e-150"),
    (56, 59401, 1.0899, "2.9999236821487953074986627353464937118e-1"),
    (30, 100000, 50.9284, "1.199913317722801110589984352872334549179e-300"),
    (30, 100000, 18.9989, "9.996232971959058967319979872293891801783e-101"),
    (30, 100000, 1.45921, "5.000128504007699496286794915712487618086e-2"),
    (30, 100000, 0.686616, "8.999997796322515094653440524192427492849e-1"),
    (30, 100000, 0.122013, "9.999999988000518860286493736087362390706e-1"),
    (1, 1000000, 1374.45, "1.201581057778343678530034695312975120249e-300"),
    (1, 1000000, 454.046, "1.000178855189840551277319812360524322815e-100"),
    (1, 1000000, 3.84147, "4.999994393501295542999791581023424967535e-2"),
    (1, 1000000, 0.0157908, "8.999999436615906757199198068117589055792e-1"),
    (1, 1000000, 2.26195e-18, "9.999999987999994274559767344527373319838e-1"),
    (60, 1000000, 27.1453, "1.1989869582888579802129511035929204696e-300"),
    (60, 1000000, 10.9034, "9.987261247223706962533557109684892929793e-101"),
    (60, 1000000, 1.31805, "4.999826003480041144209166146663801540884e-2"),
    (60, 1000000, 0.77431, "9.000003843596799592798135829752935969743e-1"),
    (60, 1000000, 0.260077, "9.999999987999623983772958818607652679414e-1"),
]


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def oracle_lc(est) -> float:
    """``naive_hansen_lc`` on a Fortran-order copy of the regressors: the oracle's
    scores take their order, and ``hansen_lc`` sums Fortran-order scores."""
    return naive_hansen_lc(dataclasses.replace(est, regressors=np.asfortranarray(est.regressors)))


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
        Y, X = values[p_max:], np.column_stack(_design_columns(values, p_max, p_max))
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
        from scipy.special import fdtrc

        for d1, d2, f, ref in F_TAIL_REFERENCE:
            p, exact = _f_pvalue(f, d1, d2), float(ref)
            assert abs(p - exact) <= (1e-11 if d2 <= 100_000 else 1e-10) * exact, (d1, d2, f)
            if exact >= 1e-200:
                assert abs(p - fdtrc(d1, d2, f)) <= 2e-10 * exact, (d1, d2, f)
        panel = simulate_var(rng, 0.2 * np.eye(3), 200)
        for lag in (1, 2):
            est = fit_var_ols(panel, lag)
            for src in panel.asset_ids:
                res = granger_causality(est, src)
                assert res.p_value == _f_pvalue(res.f_statistic, res.df_num, res.df_den)
                assert res.p_value == pytest.approx(fdtrc(res.df_num, res.df_den, res.f_statistic), rel=2e-10)
        for f in (0.0, -0.0, -1e-12, -3.0, -np.inf):
            assert _f_pvalue(f, 2, 150) == 1.0
        assert np.isnan(_f_pvalue(np.nan, 2, 150))
        assert _f_pvalue(np.inf, 2, 150) == 0.0
        assert _f_pvalue(1e308, 60, 12) == 0.0  # df_num * F overflows

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

    def test_one_asset_fit_is_refused(self, rng):
        est = fit_var_ols(make_panel(rng.standard_normal((200, 1))), 1)
        with pytest.raises(DataError, match="needs at least 2 assets"):
            granger_causality(est, "A0")

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_agrees_with_the_wald_and_refit_oracles(self, n, p):
        values = np.random.default_rng(10 * n + p).standard_normal((300, n))
        est = fit_var_ols(make_panel(values), p)
        for src in est.asset_ids:
            f = granger_causality(est, src).f_statistic
            assert f == pytest.approx(granger_wald_f(est, src), rel=1e-13, abs=0)
            assert f == pytest.approx(granger_refit_f(est, src), rel=1e-10, abs=0)
        # a near-null source: its fitted lag terms are taken out of the other
        # assets once, which leaves F below 0.03 (down to 8e-5) on these panels
        for i in range(1, n):
            for l in range(p):
                values[p:, i] -= est.coefficients[1 + l * n, i] * values[p - 1 - l : -1 - l, 0]
        null = fit_var_ols(make_panel(values), p)
        res = granger_causality(null, "A0")
        f, wald, refit = res.f_statistic, granger_wald_f(null, "A0"), granger_refit_f(null, "A0")
        assert f < 0.05
        assert f == pytest.approx(wald, rel=1e-13, abs=0)
        assert abs(f - wald) <= abs(refit - wald)
        # the refit form's rss_r - rss_u carries rounding of order eps * rss_u;
        # 1e-14 * rss_u is 1e-14 * df_den / df_num in F
        assert abs(f - refit) <= 1e-10 * refit + 1e-14 * res.df_den / res.df_num

    def test_refits_nothing(self, rng, monkeypatch):
        est = fit_var_ols(simulate_var(rng, 0.2 * np.eye(3), 300), 2)

        def refused(*args, **kwargs):
            raise AssertionError("lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", refused)
        for src in est.asset_ids:
            granger_causality(est, src)

    def test_peak_memory_is_two_designs(self, rng):
        est = fit_var_ols(simulate_var(rng, 0.1 * np.eye(4), 4000), 3)
        for src in est.asset_ids:
            assert traced_peak(granger_causality, est, src) <= 2.2 * est.regressors.nbytes


class TestGrangerInvariance:
    # F below 1 is compared to 1e-12 absolute: the fitted lag weights of a
    # near-null source sit at their own rounding level
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), log_c=st.floats(-3.0, 3.0), p=st.integers(1, 2))
    def test_scaling_returns_changes_nothing(self, seed, log_c, p):
        values = np.random.default_rng(seed).standard_normal((150, 3))
        base = fit_var_ols(make_panel(values), p)
        scaled = fit_var_ols(make_panel(10.0**log_c * values), p)
        for src in base.asset_ids:
            a, b = granger_causality(base, src), granger_causality(scaled, src)
            assert abs(b.f_statistic - a.f_statistic) <= 1e-12 * max(a.f_statistic, 1.0)
            assert abs(b.p_value - a.p_value) <= 1e-12 * a.p_value

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), perm=st.permutations(range(1, 4)), p=st.integers(1, 2))
    def test_permuting_the_other_assets_changes_nothing(self, seed, perm, p):
        values = np.random.default_rng(seed).standard_normal((150, 4))
        base = fit_var_ols(make_panel(values), p)
        moved = fit_var_ols(make_panel(values[:, [0, *perm]]), p)
        a, b = granger_causality(base, "A0"), granger_causality(moved, "A0")
        assert abs(b.f_statistic - a.f_statistic) <= 1e-12 * max(a.f_statistic, 1.0)
        assert abs(b.p_value - a.p_value) <= 1e-12 * a.p_value


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
        # C-ordered panels too are checked against the oracle on Fortran-order regressors
        values = np.random.default_rng(10 * n + p).standard_normal((1200, n))
        panel = make_panel(np.asarray(values, order=order))
        est = fit_var_ols(panel, p)
        assert est.regressors.flags.f_contiguous == (order == "F" and n > 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # past the table at n=8
            lc = hansen_lc(est).lc_statistic
        assert bits(lc) == bits(oracle_lc(est))

    @pytest.mark.parametrize("n, p", [(2, 1), (3, 2), (8, 1)])
    def test_bits_do_not_depend_on_memory_order(self, n, p):
        # C- and Fortran-order copies of one panel, and of the fit's regressors and
        # residuals, give one Lc bit for bit
        values = np.random.default_rng(10 * n + p).standard_normal((1200, n))
        fits = [fit_var_ols(make_panel(np.asarray(values, order=order)), p) for order in "CF"]
        X, resid = fits[0].regressors, fits[0].residuals
        fits += [
            dataclasses.replace(fits[0], regressors=np.asarray(X, order=x), residuals=np.asarray(resid, order=r))
            for x in "CF" for r in "CF"
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # past the table at n=8
            lcs = {bits(hansen_lc(est).lc_statistic).item() for est in fits}
        assert len(lcs) == 1

    @staticmethod
    def recorded_solves(monkeypatch, est):
        """Lc of ``hansen_lc`` and the (V, right-hand side, solution) of each solve it made."""
        calls, solve = [], np.linalg.solve

        def recording(a, b):
            calls.append((a, b, solve(a, b)))
            return calls[-1][2]

        monkeypatch.setattr(var_base.np.linalg, "solve", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # past the table at n=8
            lc = hansen_lc(est).lc_statistic
        monkeypatch.undo()
        return lc, calls

    # below one block, an exact multiple of it, and one column past a multiple
    @pytest.mark.parametrize("teff", [_SOLVE_BLOCK // 2, 2 * _SOLVE_BLOCK, 2 * _SOLVE_BLOCK + 1])
    @pytest.mark.parametrize("n", [3, 8])
    def test_blocked_solve_matches_one_solve(self, monkeypatch, n, teff):
        est = fit_var_ols(make_panel(np.random.default_rng(teff + n).standard_normal((teff + 1, n))), 1)
        assert est.nobs == teff
        lc, calls = self.recorded_solves(monkeypatch, est)
        assert bits(lc) == bits(oracle_lc(est))
        V = calls[0][0]
        whole = np.linalg.solve(V, np.concatenate([b for _, b, _ in calls], axis=1))
        assert np.array_equal(bits(np.concatenate([x for _, _, x in calls], axis=1)), bits(whole))

    def test_no_solve_exceeds_one_block(self, monkeypatch):
        # tracemalloc cannot see numpy.linalg's working copies, so the bound on
        # them is checked on the calls: every solve is at most one block (plus a
        # merged one-column tail) wide, and none is one column wide
        teff = 3 * _SOLVE_BLOCK + 1
        est = fit_var_ols(make_panel(np.random.default_rng(8).standard_normal((teff + 1, 8))), 1)
        widths = [b.shape[1] for _, b, _ in self.recorded_solves(monkeypatch, est)[1]]
        assert sum(widths) == teff
        assert max(widths) <= _SOLVE_BLOCK + 1
        assert min(widths) >= 2

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
