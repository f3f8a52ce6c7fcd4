from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mkteff import adf_gls_test, gls_detrend
from mkteff import unit_root
from mkteff.errors import DataError
from mkteff.unit_root import (
    CONDITION_LIMIT,
    CRITICAL_VALUES,
    DETREND_CONSTANT,
    DETREND_TREND,
    _adf_columns,
    _lag_bics,
    default_max_lag,
)
from mkteff.var_base import _nested_rss

from oracles import adf_lag_search


def dickey_fuller_t_oracle(y_detrended):
    """Brute-force OLS t-ratio for the no-lag difference regression."""
    dy = np.diff(y_detrended)
    x = y_detrended[:-1]
    alpha = float(x @ dy) / float(x @ x)
    resid = dy - alpha * x
    s2 = float(resid @ resid) / (len(dy) - 1)
    se = np.sqrt(s2 / float(x @ x))
    return alpha / se


class TestDetrend:
    def test_constant_absorbed(self):
        y = np.full(50, 5.0)
        out = gls_detrend(y, DETREND_CONSTANT)
        assert np.max(np.abs(out)) < 1e-12

    def test_linear_trend_absorbed(self):
        t = np.arange(1, 81, dtype=float)
        y = 2.0 * t + 3.0
        out = gls_detrend(y, DETREND_TREND)
        assert np.max(np.abs(out)) < 1e-8

    def test_random_walk_keeps_stochastic_trend(self):
        # oracle: averaged over seeds, a detrended random walk keeps O(T)-scale
        # dispersion (unit innovations would give variance about 1) and the
        # start-anchored detrending leaves the later half more dispersed
        first, second, total = [], [], []
        for seed in range(40):
            gen = np.random.default_rng(seed)
            out = gls_detrend(np.cumsum(gen.standard_normal(500)), DETREND_TREND)
            first.append(np.var(out[:250]))
            second.append(np.var(out[250:]))
            total.append(np.var(out))
        assert np.mean(total) > 10.0
        assert np.mean(second) > 1.5 * np.mean(first)

    def test_unknown_model(self):
        with pytest.raises(DataError):
            gls_detrend(np.arange(20.0), "quadratic")

    def test_short_series(self):
        with pytest.raises(DataError):
            gls_detrend(np.arange(5.0), DETREND_CONSTANT)


class TestAdfGls:
    def test_stationary_series_rejects(self, rng):
        y = rng.standard_normal(400)
        res = adf_gls_test(y, max_lag=4, model=DETREND_TREND)
        assert res.rejects_at(0.01)
        assert res.chosen_lag <= 4
        assert np.isfinite(res.statistic)

    def test_random_walk_does_not_reject(self):
        rng = np.random.default_rng(11)
        y = np.cumsum(rng.standard_normal(600))
        res = adf_gls_test(y, max_lag=4, model=DETREND_TREND)
        assert not res.rejects_at(0.01)

    def test_matches_brute_force_oracle_at_lag_zero(self, rng):
        y = rng.standard_normal(300).cumsum() + 0.05 * np.arange(300)
        res = adf_gls_test(y, max_lag=0, model=DETREND_TREND)
        oracle = dickey_fuller_t_oracle(gls_detrend(y, DETREND_TREND))
        assert res.statistic == pytest.approx(oracle, abs=1e-10)
        assert res.chosen_lag == 0

    def test_phi_hat_is_one_plus_level_coefficient(self, rng):
        y = rng.standard_normal(200)
        res = adf_gls_test(y, max_lag=0, model=DETREND_CONSTANT)
        # for white noise the level coefficient is near -1, so phi_hat near 0
        assert -0.6 < res.phi_hat < 0.6

    def test_bic_choice_deterministic(self, rng):
        y = rng.standard_normal(250)
        r1 = adf_gls_test(y, max_lag=6)
        r2 = adf_gls_test(y.copy(), max_lag=6)
        assert r1.chosen_lag == r2.chosen_lag
        assert r1.statistic == r2.statistic

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(min_value=-5, max_value=5).filter(lambda v: abs(v) > 1e-3),
        b=st.floats(min_value=-10, max_value=10),
    )
    def test_affine_invariance(self, a, b):
        rng = np.random.default_rng(7)
        y = np.cumsum(rng.standard_normal(150))
        r0 = adf_gls_test(y, max_lag=3, model=DETREND_TREND)
        r1 = adf_gls_test(a * y + b, max_lag=3, model=DETREND_TREND)
        assert r1.statistic == pytest.approx(r0.statistic, abs=1e-8)
        assert r1.chosen_lag == r0.chosen_lag

    def test_zero_variance_rejected(self):
        with pytest.raises(DataError):
            adf_gls_test(np.full(100, 3.0), max_lag=2)

    def test_singular_refit_is_a_data_error(self):
        # a linear trend with one kink detrends to rounding noise: lstsq keeps full
        # rank, but the refit's X'X is exactly singular
        y = np.cumsum(np.r_[np.full(60, -3.0), -4.0])
        with pytest.raises(DataError, match="collinear lag structure"):
            adf_gls_test(y, 5, DETREND_TREND)

    @pytest.mark.parametrize(
        "freq, noise, refused",
        [(0.01, 1e-9, True), (0.1, 1e-6, False)],
        ids=["past-the-limit", "under-the-limit"],
    )
    def test_ill_conditioned_refit_is_a_data_error(self, freq, noise, refused):
        # a slow sine with a trace of noise: the lagged differences are nearly
        # collinear, and lstsq keeps full rank. Past the limit (cond(X'X) 1.3e17),
        # inv(X'X) gives a finite t-ratio (-0.06) with no accurate digit
        t = np.arange(200)
        y = np.sin(freq * t) + noise * np.random.default_rng(0).standard_normal(200)
        yt = gls_detrend(y, DETREND_CONSTANT)
        dy = np.diff(yt)
        k = int(np.argmin(_lag_bics(yt, dy, 3)))
        _, X = _adf_columns(yt, dy, k, k)
        sv = np.linalg.svd(X, compute_uv=False)
        assert k == 3 and np.linalg.matrix_rank(X) == X.shape[1]
        assert ((sv[0] / sv[-1]) ** 2 > CONDITION_LIMIT) == refused
        if refused:
            with pytest.raises(DataError, match=r"collinear lag structure \(cond\(X'X\) above 1e\+12\)"):
                adf_gls_test(y, 3, DETREND_CONSTANT)
        else:
            assert np.isfinite(adf_gls_test(y, 3, DETREND_CONSTANT).statistic)

    def test_needs_enough_observations(self):
        with pytest.raises(DataError):
            adf_gls_test(np.arange(12.0), max_lag=4)

    def test_default_max_lag_rule(self):
        assert default_max_lag(100) == 12
        assert default_max_lag(1685) == 24

    def test_critical_value_table_shape(self):
        for model in (DETREND_CONSTANT, DETREND_TREND):
            row = CRITICAL_VALUES[model]
            assert row[0.01] < row[0.05] < row[0.10] < 0

    def test_serialization(self, rng):
        res = adf_gls_test(rng.standard_normal(120), max_lag=2)
        doc = res.to_dict()
        assert set(doc) == {"statistic", "lag", "phi_hat", "model", "n_obs"}


def adf_outcome(y, max_lag, model):
    """Chosen lag and statistic, or the DataError message."""
    try:
        res = adf_gls_test(y, max_lag=max_lag, model=model)
    except DataError as exc:
        return str(exc)
    return res.chosen_lag, res.statistic


def oracle_outcome(y, max_lag, model):
    """The same test with the lag picked by one lstsq per candidate."""
    with mock.patch.object(unit_root, "_lag_bics", lambda yt, dy, k: adf_lag_search(yt, dy, k)[2]):
        return adf_outcome(y, max_lag, model)


models = st.sampled_from([DETREND_CONSTANT, DETREND_TREND])


class TestLagSearchOracle:
    """The one-factorization lag search against a fresh lstsq fit per candidate."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(12, 400),
        max_lag=st.integers(0, 12),
        model=models,
        walk=st.booleans(),
        decimals=st.sampled_from([None, 0, 1]),
    )
    def test_random_series(self, seed, T, max_lag, model, walk, decimals):
        # too short a series is a DataError; otherwise keep more rows than
        # regressors, since an exact fit's RSS is rounding noise in either method
        assume(T <= max_lag + 10 or T - 1 - max_lag > max_lag + 2)
        gen = np.random.default_rng(seed)
        y = gen.standard_normal(T)
        if walk:
            y = y.cumsum()
        if decimals is not None:  # rounded levels: few distinct differences, tie-prone
            y = np.round(y, decimals)
        assert adf_outcome(y, max_lag, model) == oracle_outcome(y, max_lag, model)
        if T <= max_lag + 10 or np.var(y) == 0.0:
            return
        yt = gls_detrend(y, model)
        dy = np.diff(yt)
        _, rss, bics = adf_lag_search(yt, dy, max_lag)
        target, X = _adf_columns(yt, dy, max_lag, max_lag)
        XY = np.column_stack([X, target])
        got = [float(c[0, 0]) for c, _ in _nested_rss(XY, X.shape[1], range(1, max_lag + 2))]
        assert got == pytest.approx(rss, rel=1e-10)
        assert _lag_bics(yt, dy, max_lag) == pytest.approx(bics, rel=1e-10, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        pattern=st.lists(st.integers(-3, 3), min_size=2, max_size=6).filter(lambda v: len(set(v)) > 1),
        T=st.integers(60, 400),
        max_lag=st.integers(0, 12),
        model=models,
        kink=st.sampled_from([-2.0, -1.0, 1.0, 2.0]),
    )
    def test_periodic_differences(self, pattern, T, max_lag, model, kink):
        # the differences repeat with period P, so lag columns j and j + P coincide
        # once max_lag > P; a kink in the last difference, which no lag column
        # holds, keeps the fit from being exact (a zero RSS ranks by rounding alone)
        dy = np.resize(np.asarray(pattern, dtype=float), T)
        dy[-1] += kink
        y = dy.cumsum()
        assert adf_outcome(y, max_lag, model) == oracle_outcome(y, max_lag, model)

    def test_short_series_error_is_unchanged(self):
        y = np.random.default_rng(3).standard_normal(22)
        assert adf_outcome(y, 12, DETREND_TREND) == "need more than max_lag + 10 = 22 observations, got 22"
        assert oracle_outcome(y, 12, DETREND_TREND) == adf_outcome(y, 12, DETREND_TREND)
