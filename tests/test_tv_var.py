import importlib.machinery
import importlib.util
import os
import re
import subprocess
import sys
import warnings
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkteff import (
    TvVarConfig, TvVarEstimate, efficiency_path, export_coefficient_paths, fit_tv_var, fit_var_ols,
)
from mkteff.errors import ConfigError, DataError, NumericalError
from mkteff import tv_var
from mkteff.tv_var import MAX_BAND_CELLS, _check_panel, _fit_paths, _load_flapack, _solve

from conftest import make_panel
from oracles import build_stacked_system, penalized_objective, solve_dense, upper_band_solve
from test_var_base import bits, simulate_var, traced_peak


class TestStackedSystem:
    def test_dimensions_at_scale(self, rng):
        panel = make_panel(rng.standard_normal((1685, 3)))
        system = build_stacked_system(panel, 1, 1.0)
        assert system.n_unknowns - system.n_intercepts == 15_156
        assert system.n_intercepts == 3
        assert system.n_obs_rows == 5_052
        assert system.n_smooth_rows == 15_147
        assert system.design.shape == (5_052 + 15_147, 3 + 15_156)

    def test_smallest_case_by_hand(self, rng):
        panel = make_panel(rng.standard_normal((4, 1)))
        system = build_stacked_system(panel, 1, 1.0)
        assert system.n_unknowns == 1 + 3
        assert system.n_obs_rows == 3
        assert system.n_smooth_rows == 2

    def test_rhs_layout(self, rng):
        values = rng.standard_normal((6, 2))
        panel = make_panel(values)
        system = build_stacked_system(panel, 1, 1.0)
        np.testing.assert_array_equal(system.rhs[: system.n_obs_rows], values[1:].ravel())
        assert np.all(system.rhs[system.n_obs_rows :] == 0.0)


class TestFit:
    def test_lambda_inf_matches_constant_ols(self, rng):
        panel = simulate_var(rng, 0.3 * np.eye(3), 80)
        fit = fit_tv_var(panel, TvVarConfig(q=1, lam=1e8))
        ols = fit_var_ols(panel, 1)
        err = np.abs(fit.A_path - ols.A[None]).max()
        assert err < 1e-4
        assert np.abs(fit.nu - ols.nu).max() < 1e-4

    def test_lambda_inf_multilag_layout(self, rng):
        A = np.zeros((2, 2, 2))
        A[0] = [[0.3, 0.1], [0.0, 0.2]]
        A[1] = [[0.2, 0.0], [0.1, 0.25]]
        panel = simulate_var(rng, A, 300)
        fit = fit_tv_var(panel, TvVarConfig(q=2, lam=1e8))
        ols = fit_var_ols(panel, 2)
        # per-lag matrices must land in the right slots
        assert np.abs(fit.A_path - ols.A[None]).max() < 1e-4

    def test_banded_equals_dense_reference(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 4))
            q = int(rng.integers(1, 3))
            # keep periods above the per-period unknown count so the
            # intercept stays identified
            T = int(rng.integers(n * q + q + 5, 50))
            lam = float(10 ** rng.uniform(-1, 1))
            panel = make_panel(rng.standard_normal((T, n)))
            # two-pass refits the same design at the re-estimated ratio
            for mode in ("fixed", "two-pass"):
                banded = fit_tv_var(panel, TvVarConfig(q=q, lam=lam, lambda_mode=mode))
                dense_nu, dense_A = solve_dense(panel, q, banded.lambda_effective)
                np.testing.assert_allclose(banded.A_path, dense_A, atol=1e-8)
                np.testing.assert_allclose(banded.nu, dense_nu, atol=1e-8)

    def test_constant_coefficient_recovery(self):
        # returns-scale data; at this scale the default smoothing is strong
        errs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            panel = simulate_var(rng, 0.5 * np.eye(2), 500, sd=0.01)
            fit = fit_tv_var(panel, TvVarConfig(q=1, lam=1.0))
            errs.append(np.linalg.norm(fit.A_path[:, 0] - 0.5 * np.eye(2), axis=(1, 2)).mean())
        assert np.mean(errs) < 0.15

    def test_zero_panel_gives_zero_fit(self):
        panel = make_panel(np.zeros((30, 2)))
        fit = fit_tv_var(panel, TvVarConfig(q=1, lam=1.0))
        assert np.all(fit.A_path == 0.0)
        assert np.all(fit.nu == 0.0)
        assert fit.ridge_jitter > 0.0

    def test_residual_internal_consistency(self, rng):
        panel = simulate_var(rng, 0.4 * np.eye(2), 120)
        fit = fit_tv_var(panel, TvVarConfig(q=1, lam=2.0))
        values = panel.values
        for s in range(len(fit.dates)):
            t = 1 + s
            pred = fit.nu + fit.A_path[s, 0] @ values[t - 1]
            np.testing.assert_allclose(values[t] - pred, fit.residuals[s], atol=1e-10)

    def test_effective_obs_and_dates(self, rng):
        panel = make_panel(rng.standard_normal((50, 2)))
        fit = fit_tv_var(panel, TvVarConfig(q=3))
        assert len(fit.dates) == 47
        assert fit.A_path.shape == (47, 3, 2, 2)
        assert fit.dates == panel.dates[3:]

    def test_objective_optimality(self, rng):
        panel = make_panel(rng.standard_normal((40, 2)))
        cfg = TvVarConfig(q=1, lam=0.5)
        fit = fit_tv_var(panel, cfg)
        base = penalized_objective(panel, 1, 0.5, fit.nu, fit.A_path)
        gen = np.random.default_rng(0)
        for _ in range(100):
            d_nu = gen.standard_normal(fit.nu.shape) * 1e-4
            d_A = gen.standard_normal(fit.A_path.shape) * 1e-4
            perturbed = penalized_objective(panel, 1, 0.5, fit.nu + d_nu, fit.A_path + d_A)
            assert perturbed >= base - 1e-12

    def test_time_reversal_of_observation_sequence(self, rng):
        # the penalty is symmetric in the observation index: reversing the
        # (target, regressor) pairs jointly reverses the fitted path and keeps
        # the constant
        S = 60
        Z = rng.standard_normal((S, 1))
        y = 0.2 + 0.5 * Z[:, 0] + 0.1 * rng.standard_normal(S)
        c, path, _, _ = _solve(y[:, None], Z, 1.0)
        c_rev, path_rev, _, _ = _solve(y[::-1, None], Z[::-1], 1.0)
        np.testing.assert_allclose(path_rev, path[::-1], atol=1e-6)
        assert c_rev[0] == pytest.approx(c[0], abs=1e-6)

    def test_two_pass_mode_records_lambda(self, rng):
        panel = simulate_var(rng, 0.3 * np.eye(2), 200, sd=0.01)
        fit = fit_tv_var(panel, TvVarConfig(q=1, lam=1.0, lambda_mode="two-pass"))
        assert fit.lambda_effective != 1.0
        assert fit.config.lambda_mode == "two-pass"

    def test_rejects_price_panel(self, rng):
        panel = make_panel(np.abs(rng.standard_normal((30, 2))) + 1.0, kind="prices")
        with pytest.raises(DataError):
            fit_tv_var(panel, TvVarConfig())

    def test_too_short(self, rng):
        with pytest.raises(DataError):
            fit_tv_var(make_panel(rng.standard_normal((3, 2))), TvVarConfig(q=1))

    def test_band_size_cap_names_q(self):
        # (n*q + 1) * (T - q) * n*q cells: n=8, q=8 on T=7500 fits, q=238 on n=3, T=1686 does not
        _check_panel(make_panel(np.zeros((7500, 8))), 8)
        assert 65 * 7492 * 64 <= MAX_BAND_CELLS == 2**26
        with pytest.raises(ConfigError, match="tv.q = 238"):
            _check_panel(make_panel(np.zeros((1686, 3))), 238)

    @pytest.mark.parametrize("case", ["all-scaled", "last-row"])
    def test_non_finite_normal_equations_are_numerical_errors(self, rng, case):
        values = rng.standard_normal((40, 2))
        if case == "all-scaled":  # the squares overflow
            values *= 1e160
        else:  # the squares stay finite, only a right-hand side overflows
            values *= 1e150
            values[-1] *= 1e10
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the NumericalError is the only report
            with pytest.raises(NumericalError, match="not finite"):
                fit_tv_var(make_panel(values), TvVarConfig(q=1))

    def test_intercept_pivot(self, rng):
        # schur / S in (0, 1]; as lam grows it tends to the constant-OLS pivot 1 - zbar'(Z'Z/S)^-1 zbar
        values = rng.standard_normal((300, 2)) * 0.01 + 0.001
        Z = values[:-1]
        zbar = Z.mean(axis=0)
        ols = 1.0 - zbar @ np.linalg.solve(Z.T @ Z / len(Z), zbar)
        rough = fit_tv_var(make_panel(values), TvVarConfig(q=1, lam=1.0))
        smooth = fit_tv_var(make_panel(values), TvVarConfig(q=1, lam=1e6))
        assert 0.0 < rough.intercept_pivot < ols <= 1.0
        assert smooth.intercept_pivot == pytest.approx(ols, rel=1e-6)


def assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(bits(a), bits(b))


def assert_close(got, want, rtol):
    """Each output within ``rtol`` of the largest magnitude of its counterpart."""
    for a, b in zip(got, want, strict=True):
        a, b = np.asarray(a, float), np.asarray(b, float)
        assert np.abs(a - b).max() <= rtol * np.abs(b).max()


# The lower-storage solve against the upper-storage one runs its substitutions in
# another order. Over test_same_bits' cases (0.01-scale data, lam = 0.7) the gap
# was at most 8.3e-15 relative at the fixed lam; in two-pass mode, whose
# re-estimated lam of 600-2000 makes the band far worse conditioned, 1.5e-9
UPPER_BAND_RTOL = {"fixed": 1e-13, "two-pass": 1e-8}


class TestUpperBandOracle:
    # m = n*q >= 33 takes LAPACK's blocked path; a fit repeated gives its bits, and
    # the upper-storage oracle put in _solve's place agrees with it
    @pytest.mark.parametrize("n", range(1, 9))
    def test_same_bits(self, n, monkeypatch):
        for q in range(1, 6):
            gen = np.random.default_rng(10 * n + q)
            S = 3 * n * q + 20
            Y, Z = 0.01 * gen.standard_normal((S, n)), 0.01 * gen.standard_normal((S, n * q))
            for mode in ("fixed", "two-pass"):
                cfg = TvVarConfig(q=q, lam=0.7, lambda_mode=mode)
                got = _fit_paths(Y, Z, cfg)
                assert_same_bits(got, _fit_paths(Y, Z, cfg))
                with monkeypatch.context() as patch:
                    patch.setattr(tv_var, "_solve", upper_band_solve)
                    want = _fit_paths(Y, Z, cfg)
                assert_close(got, want, UPPER_BAND_RTOL[mode])

    def test_factor_freed_before_the_paths(self, rng):
        # a solve holds the right-hand sides, then the band (factored in place), then
        # the paths; a factor copy or a band kept next to the paths would each add
        # about one band
        S, n = 3000, 8
        Y, Z = 0.01 * rng.standard_normal((S, n)), 0.01 * rng.standard_normal((S, n))
        band_bytes = (n + 1) * S * n * 8
        rhs_bytes = S * n * (n + 1) * 8
        peak = traced_peak(_solve, Y, Z, 1.0)
        assert peak - rhs_bytes <= 1.3 * band_bytes

    def test_back_to_back_solves_leave_no_state(self):
        # every solve allocates its own buffers: what an earlier solve or its ridge
        # fallback left behind changes no bit of the next, so the four solves,
        # repeated in reverse order, give their bits again
        gen = np.random.default_rng(5)
        S, n, q = 40, 2, 2
        x = gen.standard_normal(S)
        singular = np.column_stack([x, x, x, x])  # equal regressors: the ridge fallback
        runs = []
        for Z, lam in [(gen.standard_normal((S, n * q)), 0.5), (singular, 1.0),
                       (gen.standard_normal((S, n * q)), 2.0), (singular, 1.0)]:
            Y = gen.standard_normal((S, n))
            runs.append(((Y, Z, lam), _solve(Y, Z, lam)))
        for args, got in reversed(runs):
            assert_same_bits(got, _solve(*args))
        assert [got[2] > 0.0 for _, got in runs] == [False, True, False, True]

    def test_ridge_fallback(self):
        # two equal regressors with equal and opposite constant coefficients fit
        # nothing and pay no penalty: the normal equations are singular
        gen = np.random.default_rng(2)
        x, Y = gen.standard_normal(40), gen.standard_normal((40, 2))
        Z = np.column_stack([x, x])
        got = _solve(Y, Z, 1.0)
        assert got[2] > 0.0
        want = upper_band_solve(Y, Z, 1.0)
        # only the ridge splits the coefficient between the equal regressors, so the
        # paths agree less closely than nu, jitter and pivot: 3.9e-8 against 2.1e-16
        assert_close([got[i] for i in (0, 2, 3)], [want[i] for i in (0, 2, 3)], 1e-13)
        assert_close(got[1:2], want[1:2], 1e-6)

    def test_ridge_fallback_that_fails_names_the_unbumped_diagonal(self):
        # at this scale the ridge is below the diagonal's rounding, so the bumped
        # band fails too; the message reads the band as assembled, not the factor
        gen = np.random.default_rng(2)
        x, Y = 1e6 * gen.standard_normal(40), gen.standard_normal((40, 2))
        Z = np.column_stack([x, x])
        pen = np.full(40, 2.0)
        pen[[0, -1]] = 1.0
        want = re.escape(f"smallest diagonal {(Z * Z + pen[:, None]).min():.3e}")
        with pytest.raises(NumericalError, match=want):
            _solve(Y, Z, 1.0)

    def test_same_bits_on_one_blas_thread_and_on_two(self):
        # S*n*q = 24 000 border terms: past the 10 000 at which OpenBLAS splits a
        # dot product across its threads
        import mkteff

        code = (
            "import hashlib, numpy as np\n"
            "from mkteff.tv_var import _solve\n"
            "gen = np.random.default_rng(3)\n"
            "Y, Z = 0.01 * gen.standard_normal((3000, 8)), 0.01 * gen.standard_normal((3000, 8))\n"
            "nu, paths, _, _ = _solve(Y, Z, 1.0)\n"
            "print(hashlib.sha256(nu.tobytes() + paths.tobytes()).hexdigest())"
        )
        src = os.path.dirname(os.path.dirname(mkteff.__file__))
        digests = [
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
                           env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)).stdout
            for threads in ("1", "2")
        ]
        assert digests[0] == digests[1] != ""

    @pytest.mark.parametrize("scipy_first", [False, True])
    def test_same_bits_as_scipy_linalg_lapack(self, scipy_first):
        # tv_var loads scipy's LAPACK extension from its file; the factor and the
        # solve give the bits of scipy.linalg.lapack's dpbtrf/dpbtrs, on a band
        # that factors and on one that takes the ridge fallback (info > 0), whether
        # scipy.linalg was imported before the package or after it
        import mkteff

        code = (
            "import sys\n"
            "import numpy as np\n"
            f"if {scipy_first}: import scipy.linalg\n"
            "from mkteff import tv_var\n"
            f"assert ('scipy.linalg' in sys.modules) == {scipy_first}\n"
            "from scipy.linalg.lapack import dpbtrf, dpbtrs\n"
            "S, n, q = 30, 3, 2\n"
            "def calls(Y, Z, lam):\n"
            "    return [*tv_var._factor_banded(Z, lam), *tv_var._solve(Y, Z, lam)]\n"
            "gen = np.random.default_rng(4)\n"
            "x = gen.standard_normal(S)\n"
            "jitters = []\n"
            "for Z, lam in [(gen.standard_normal((S, n * q)), 0.7), (np.column_stack([x] * (n * q)), 1.0)]:\n"
            "    Y = gen.standard_normal((S, n))\n"
            "    ours = calls(Y, Z, lam)\n"
            "    own = tv_var.dpbtrf, tv_var.dpbtrs\n"
            "    tv_var.dpbtrf, tv_var.dpbtrs = dpbtrf, dpbtrs\n"
            "    scipys = calls(Y, Z, lam)\n"
            "    tv_var.dpbtrf, tv_var.dpbtrs = own\n"
            "    for a, b in zip(ours, scipys, strict=True):\n"
            "        a, b = np.asarray(a, float), np.asarray(b, float)\n"
            "        assert np.array_equal(a.view(np.int64), b.view(np.int64))\n"
            "    jitters.append(ours[1])\n"
            "    ab = tv_var._normal_band(Z, lam)\n"
            "    assert tv_var.dpbtrf(ab, lower=1, overwrite_ab=1)[0] is ab  # factored in place\n"
            "print(jitters)"
        )
        src = os.path.dirname(os.path.dirname(mkteff.__file__))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0.0, 1e-10]"

    def test_missing_lapack_extension_names_the_directory(self, tmp_path, monkeypatch):
        scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        scipy.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy)
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
            _load_flapack()


class TestInvariance:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        log_c=st.floats(-2.0, 2.0),
        lam=st.floats(0.1, 100.0),
    )
    def test_scaling_returns_scales_lambda_by_c_squared(self, seed, log_c, lam):
        # the data term scales by c^2, so the smoothness penalty must too
        values = np.random.default_rng(seed).standard_normal((60, 2))
        c = 10.0**log_c
        base = fit_tv_var(make_panel(values), TvVarConfig(q=1, lam=lam))
        scaled = fit_tv_var(make_panel(c * values), TvVarConfig(q=1, lam=lam * c**2))
        assert np.abs(scaled.A_path - base.A_path).max() <= 1e-10 * np.abs(base.A_path).max()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), perm=st.permutations(range(3)), q=st.integers(1, 2))
    def test_permuting_assets_conjugates_the_path(self, seed, perm, q):
        values = np.random.default_rng(seed).standard_normal((60, 3))
        base = fit_tv_var(make_panel(values), TvVarConfig(q=q, lam=1.0))
        moved = fit_tv_var(make_panel(values[:, perm]), TvVarConfig(q=q, lam=1.0))
        P = np.eye(3)[perm]  # P @ x == x[perm]
        expected = P @ base.A_path @ P.T
        assert np.abs(moved.A_path - expected).max() <= 1e-10 * np.abs(expected).max()
        np.testing.assert_allclose(efficiency_path(moved).zeta, efficiency_path(base).zeta, rtol=1e-10, atol=0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TvVarConfig(q=0)
        with pytest.raises(ConfigError):
            TvVarConfig(lam=0.0)
        with pytest.raises(ConfigError):
            TvVarConfig(lambda_mode="adaptive")


def _rss_and_roughness(fit):
    """Residual sum of squares and summed squared coefficient increments."""
    return float((fit.residuals**2).sum()), float((np.diff(fit.A_path, axis=0) ** 2).sum())


class TestSmoothingProfile:
    def test_rss_monotone_in_lambda(self, rng):
        panel = make_panel(rng.standard_normal((120, 2)))
        fits = [fit_tv_var(panel, TvVarConfig(q=1, lam=lam)) for lam in (0.1, 1.0, 10.0)]
        rss = [_rss_and_roughness(fit)[0] for fit in fits]
        assert rss[0] <= rss[1] <= rss[2]

    def test_huge_lambda_flattens_path(self, rng):
        panel = make_panel(rng.standard_normal((80, 2)))
        _, roughness = _rss_and_roughness(fit_tv_var(panel, TvVarConfig(q=1, lam=1e8)))
        assert roughness < 1e-8

    def test_tiny_lambda_interpolates(self, rng):
        panel = make_panel(rng.standard_normal((25, 1)))
        rss, _ = _rss_and_roughness(fit_tv_var(panel, TvVarConfig(q=1, lam=1e-6)))
        assert rss < 1e-6  # interpolation regime; residuals shrink with lam


class TestExport:
    def test_long_format(self, rng, tmp_path):
        panel = make_panel(rng.standard_normal((10, 2)))
        fit = fit_tv_var(panel, TvVarConfig(q=1))
        export_coefficient_paths(fit, tmp_path / "coefficients.csv")
        lines = (tmp_path / "coefficients.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "date,lag,row,col,value"
        assert len(lines) == 1 + len(fit.dates) * 1 * 2 * 2
        first = lines[1].split(",")
        assert first[0] == fit.dates[0].isoformat()
        assert float(first[4]) == fit.A_path[0, 0, 0, 0]

    def test_exact_text(self, tmp_path):
        # lag-major, then row, then column; repr of each float, -0.0 kept
        A = np.array([[[[0.5, -0.0], [1e-300, -2.25]], [[3.0, 0.1], [-1.5e17, 7.0]]],
                      [[[0.0, 1 / 3], [-0.125, 2.0]], [[1e-5, -4.0], [0.2, 123456.789]]]])
        est = TvVarEstimate(
            dates=(date(2021, 3, 1), date(2021, 3, 2)), nu=np.zeros(2),
            A_path=A, residuals=np.zeros((2, 2)), config=TvVarConfig(q=2),
            lambda_effective=1.0, ridge_jitter=0.0, intercept_pivot=1.0,
        )
        export_coefficient_paths(est, tmp_path / "coefficients.csv")
        assert (tmp_path / "coefficients.csv").read_bytes().decode("utf-8") == (
            "date,lag,row,col,value\n"
            "2021-03-01,1,0,0,0.5\n"
            "2021-03-01,1,0,1,-0.0\n"
            "2021-03-01,1,1,0,1e-300\n"
            "2021-03-01,1,1,1,-2.25\n"
            "2021-03-01,2,0,0,3.0\n"
            "2021-03-01,2,0,1,0.1\n"
            "2021-03-01,2,1,0,-1.5e+17\n"
            "2021-03-01,2,1,1,7.0\n"
            "2021-03-02,1,0,0,0.0\n"
            "2021-03-02,1,0,1,0.3333333333333333\n"
            "2021-03-02,1,1,0,-0.125\n"
            "2021-03-02,1,1,1,2.0\n"
            "2021-03-02,2,0,0,1e-05\n"
            "2021-03-02,2,0,1,-4.0\n"
            "2021-03-02,2,1,0,0.2\n"
            "2021-03-02,2,1,1,123456.789\n"
        )
