import numpy as np
import pytest

from mkteff import DgpSpec, adf_gls_test, fit_var_ols, simulate
from mkteff.efficiency import DEGREE_CHUNK, _degrees
from mkteff.errors import ConfigError
from mkteff.var_base import _hac_cov


class TestSpec:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            DgpSpec(kind="garch")

    def test_unstable_constant_var_rejected(self):
        with pytest.raises(ConfigError, match="unstable"):
            DgpSpec(kind="constant-var", n=1, T=100, coefficients=1.05)

    def test_stable_boundary_accepted(self):
        DgpSpec(kind="constant-var", n=2, T=100, coefficients=0.9)

    def test_constant_var_needs_coefficients(self):
        with pytest.raises(ConfigError, match="coefficients"):
            DgpSpec(kind="constant-var", n=1, T=30)

    def test_drift_needs_endpoint(self):
        with pytest.raises(ConfigError):
            DgpSpec(kind="tv-var-linear-drift", n=1, T=100)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="volatility"):
            DgpSpec.from_dict({"kind": "white-noise", "volatility": 2})

    def test_from_dict_roundtrip(self):
        spec = DgpSpec.from_dict(
            {"kind": "constant-var", "n": 1, "T": 50, "coefficients": 0.5, "seed": 3}
        )
        assert spec.T == 50


class TestSimulate:
    def test_seed_determinism(self):
        spec = DgpSpec(kind="white-noise", n=3, T=100, seed=44)
        p1, t1 = simulate(spec)
        p2, t2 = simulate(spec)
        assert np.array_equal(p1.values, p2.values)
        assert np.array_equal(t1.zeta, t2.zeta)

    def test_shapes_and_dates(self):
        panel, truth = simulate(DgpSpec(kind="white-noise", n=2, T=64, q=2, seed=1))
        assert panel.values.shape == (64, 2)
        assert truth.A_path.shape == (64, 2, 2, 2)
        assert truth.zeta.shape == (64,)
        assert len(panel.dates) == 64

    def test_constant_var_truth_zeta(self):
        _, truth = simulate(DgpSpec(kind="constant-var", n=1, T=50, coefficients=0.5, seed=0))
        np.testing.assert_allclose(truth.zeta, 1.0, rtol=1e-12)

    def test_truth_past_one_degree_chunk(self):
        # the truth's degrees are taken a chunk of dates at a time, with one call's bits
        spec = DgpSpec(kind="tv-var-random-walk-coeffs", n=3, T=DEGREE_CHUNK + 300, q=2, seed=7,
                       coef_innovation_sd=0.02)
        _, truth = simulate(spec)
        whole = _degrees(np.eye(3) - truth.A_path.sum(axis=1))
        assert truth.zeta.tobytes() == whole.tobytes()

    def test_linear_drift_truth_path(self):
        spec = DgpSpec(
            kind="tv-var-linear-drift", n=1, T=101, seed=5, coefficients=0.0, coefficients_end=0.8
        )
        _, truth = simulate(spec)
        a = np.linspace(0.0, 0.8, 101)
        np.testing.assert_allclose(truth.zeta, np.abs(a / (1 - a)), rtol=1e-10)
        assert truth.zeta[0] == 0.0
        assert truth.zeta[-1] == pytest.approx(4.0, rel=1e-12)

    def test_random_walk_coeffs_stay_stable(self):
        spec = DgpSpec(
            kind="tv-var-random-walk-coeffs", n=2, T=300, seed=8,
            coefficients=0.2, coef_innovation_sd=0.05,
        )
        panel, truth = simulate(spec)
        assert np.all(np.isfinite(panel.values))
        # the drifting path must actually move
        assert np.abs(np.diff(truth.A_path, axis=0)).max() > 0.0

    def test_white_noise_var_coefficients_small(self):
        hits = 0
        for seed in range(10):
            panel, _ = simulate(DgpSpec(kind="white-noise", n=3, T=1000, seed=seed))
            est = fit_var_ols(panel, 1)
            cov = _hac_cov(est.regressors, est.residuals, 0)
            se = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
            hits += bool(np.all(np.abs(est.coefficients[1:]).T < 3.0 * se[:, 1:]))
        assert hits >= 8

    def test_random_walk_kind_is_nonstationary(self):
        rejections = 0
        for seed in range(20):
            panel, truth = simulate(DgpSpec(kind="random-walk", n=1, T=500, seed=seed))
            res = adf_gls_test(panel.values[:, 0], max_lag=4)
            rejections += res.rejects_at(0.01)
        assert rejections <= 2
        assert np.all(truth.A_path == 0.0)

    def test_stationary_kind_passes_gate(self):
        rejections = 0
        for seed in range(20):
            panel, _ = simulate(DgpSpec(kind="constant-var", n=1, T=500, coefficients=0.4, seed=seed))
            rejections += adf_gls_test(panel.values[:, 0], max_lag=4).rejects_at(0.01)
        assert rejections >= 19

    def test_intercept_applied(self):
        panel, truth = simulate(
            DgpSpec(kind="white-noise", n=2, T=4000, seed=2, intercept=(0.5, -0.5), innovation_sd=0.01)
        )
        np.testing.assert_allclose(panel.values.mean(axis=0), [0.5, -0.5], atol=0.001)
        np.testing.assert_array_equal(truth.nu, [0.5, -0.5])
