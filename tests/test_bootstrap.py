import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mkteff.bootstrap
import mkteff.efficiency
from mkteff import (
    BootstrapConfig,
    TvVarConfig,
    bootstrap_bands,
    fit_tv_var,
    simulate,
    DgpSpec,
)
from mkteff.bootstrap import (
    _draw, _fold_extremes, _null_rows, _run_replication, _sorted_quantiles, _workspace, replication_seed,
)
from mkteff.errors import ConfigError, DataError, NumericalError

from conftest import traced_peak
from oracles import naive_bands, naive_replication


def null_panel(seed=0, T=200, n=2):
    panel, _ = simulate(DgpSpec(kind="white-noise", n=n, T=T, seed=seed, innovation_sd=0.01))
    return panel


def null_draw(resid, nu, seed, T):
    """T rows drawn by the kernel from ``nu`` plus the centered residuals."""
    return _draw(_null_rows(resid, nu), seed, np.empty((T, len(nu))))


class TestResample:
    def test_seed_determinism(self, rng):
        resid = rng.standard_normal((50, 3))
        nu = np.array([0.1, 0.0, -0.2])
        a = null_draw(resid, nu, 42, 50)
        b = null_draw(resid, nu, 42, 50)
        assert np.array_equal(a, b)
        c = null_draw(resid, nu, 43, 50)
        assert not np.array_equal(a, c)

    def test_rows_are_intercept_plus_centered_draws(self, rng):
        # bit for bit: nu + (e_k - mean e), with k from the seed's generator
        resid = rng.standard_normal((50, 3)) * 0.01 + 0.3
        nu = np.array([1e-3, -2e-4, 5.0])
        picks = np.random.default_rng(replication_seed(4, 2)).integers(0, 50, size=80)
        expected = nu + (resid - resid.mean(axis=0))[picks]
        got = null_draw(resid, nu, replication_seed(4, 2), 80)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_zero_residuals_reproduce_intercept(self):
        nu = np.array([0.3, -0.1])
        np.testing.assert_array_equal(null_draw(np.zeros((20, 2)), nu, 1, 15), np.tile(nu, (15, 1)))

    def test_large_sample_column_means(self, rng):
        resid = rng.standard_normal((400, 2)) * 0.02
        values = null_draw(resid, np.zeros(2), 7, 10_000)
        sd = resid.std(axis=0)
        assert np.all(np.abs(values.mean(axis=0)) < 3.0 * sd / np.sqrt(10_000))

    def test_rows_drawn_jointly(self, rng):
        # strongly correlated residual columns must stay correlated
        z = rng.standard_normal(300)
        resid = np.column_stack([z, z + 0.01 * rng.standard_normal(300)])
        corr = np.corrcoef(null_draw(resid, np.zeros(2), 3, 5000).T)[0, 1]
        assert corr > 0.99

    def test_needs_enough_rows(self):
        with pytest.raises(DataError, match=r"too few fitted periods for bands \(5 < 10\)"):
            _null_rows(np.zeros((5, 2)), np.zeros(2))

    def test_non_finite_pool_refused_before_any_refit(self, monkeypatch):
        # every draw takes whole rows of the pool, so the pool is checked once, up front
        fit = fit_tv_var(null_panel(seed=4, T=120), TvVarConfig(q=1, lam=1.0))
        resid = fit.residuals.copy()
        resid[17, 1] = np.nan
        refits = []
        monkeypatch.setattr(mkteff.bootstrap, "_fit_paths", lambda *args: refits.append(args))
        with pytest.raises(DataError, match="panel contains missing or non-finite cells"):
            bootstrap_bands(dataclasses.replace(fit, residuals=resid), BootstrapConfig(replications=100))
        assert refits == []


class TestBands:
    def test_master_seed_determinism(self):
        panel = null_panel()
        tv = TvVarConfig(q=1, lam=1.0)
        cfg = BootstrapConfig(replications=120, coverage=0.95, master_seed=11)
        b1 = bootstrap_bands(fit_tv_var(panel, tv), cfg)
        b2 = bootstrap_bands(fit_tv_var(panel, tv), cfg)
        assert np.array_equal(b1.lower, b2.lower)
        assert np.array_equal(b1.upper, b2.upper)

    def test_worker_count_invariance(self):
        panel = null_panel(seed=5, T=120)
        fit = fit_tv_var(panel, TvVarConfig(q=1, lam=1.0))
        # 101 replications on 2 workers: chunks of 13, the last one short
        for B in (100, 101):
            cfg = BootstrapConfig(replications=B, coverage=0.9, master_seed=21)
            serial = bootstrap_bands(fit, cfg, n_jobs=1)
            parallel = bootstrap_bands(fit, cfg, n_jobs=2)
            assert np.array_equal(serial.lower, parallel.lower)
            assert np.array_equal(serial.upper, parallel.upper)
            assert np.array_equal(serial.flagged_counts, parallel.flagged_counts)

    def test_all_failed_replications_warn(self, monkeypatch):
        import mkteff.bootstrap as boot_mod

        panel = null_panel(seed=6, T=120)
        tv = TvVarConfig(q=1, lam=1.0)
        fit = fit_tv_var(panel, tv)

        def fail(*args, **kwargs):
            raise NumericalError("refit failed")

        monkeypatch.setattr(boot_mod, "_fit_paths", fail)
        cfg = BootstrapConfig(replications=100, coverage=0.95, master_seed=3)
        with pytest.warns(RuntimeWarning, match="all 100 bootstrap replications"):
            bands = bootstrap_bands(fit, cfg)
        assert np.all(np.isnan(bands.lower)) and np.all(np.isnan(bands.upper))
        assert np.all(bands.flagged_counts == 100)

    def test_quantile_nesting(self):
        panel = null_panel(seed=2, T=150)
        tv = TvVarConfig(q=1, lam=1.0)
        fit = fit_tv_var(panel, tv)
        wide = bootstrap_bands(fit, BootstrapConfig(replications=150, coverage=0.95, master_seed=4))
        narrow = bootstrap_bands(fit, BootstrapConfig(replications=150, coverage=0.80, master_seed=4))
        assert np.all(narrow.lower >= wide.lower - 1e-15)
        assert np.all(narrow.upper <= wide.upper + 1e-15)

    def test_band_shapes_and_sanity(self):
        panel = null_panel(seed=9, T=140)
        fit = fit_tv_var(panel, TvVarConfig(q=1, lam=1.0))
        bands = bootstrap_bands(fit, BootstrapConfig(replications=100, coverage=0.95, master_seed=1))
        assert bands.lower.shape == (139,)
        assert np.all(np.isfinite(bands.upper))
        assert np.all(bands.lower <= bands.upper)
        assert np.all(bands.lower >= 0.0)
        assert bands.flagged_counts.sum() == 0

    def test_replication_floor(self):
        panel = null_panel(seed=1, T=120)
        with pytest.raises(ConfigError):
            bootstrap_bands(fit_tv_var(panel, TvVarConfig()), BootstrapConfig(replications=0))

    def test_dump_files(self, tmp_path, monkeypatch):
        # the dumped cells are exactly the replications the bands were taken over
        import mkteff.bootstrap as boot_mod

        panel = null_panel(seed=3, T=120)
        tv = TvVarConfig(q=1, lam=1.0)
        fit = fit_tv_var(panel, tv)
        monkeypatch.setattr(boot_mod, "DUMP_CHUNK", 40)
        for refit in ("ok", "failed"):
            if refit == "failed":  # every cell blank
                def fail(*args, **kwargs):
                    raise NumericalError("refit failed")

                monkeypatch.setattr(boot_mod, "_fit_paths", fail)
            out = tmp_path / refit
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # the all-failed case warns
                bands = bootstrap_bands(
                    fit, BootstrapConfig(replications=100, coverage=0.95, master_seed=2), dump_dir=str(out)
                )
            files = sorted(p.name for p in out.iterdir())
            assert files == [
                "replications_000001_000040.csv",
                "replications_000041_000080.csv",
                "replications_000081_000100.csv",
            ]
            position = {d.isoformat(): s for s, d in enumerate(bands.dates)}
            zstar = np.full((100, 119), -1.0)
            for name in files:
                lines = (out / name).read_text().splitlines()
                assert lines[0] == "replication,date,zeta"
                for line in lines[1:]:
                    rep, day, cell = line.split(",")
                    zstar[int(rep) - 1, position[day]] = float(cell) if cell else np.nan
            assert len((out / files[0]).read_text().splitlines()) == 1 + 40 * 119
            assert np.all(zstar != -1.0)  # every (replication, date) cell was written
            blank = np.isnan(zstar)
            assert blank.all() if refit == "failed" else not blank.any()
            np.testing.assert_array_equal(blank.sum(axis=0), bands.flagged_counts)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN dates stay NaN
                lo = (1.0 - 0.95) / 2.0  # the levels as bootstrap_bands computes them
                lower, upper = np.nanquantile(zstar, [lo, 1.0 - lo], axis=0)
            np.testing.assert_array_equal(lower, bands.lower)  # NaN matches NaN
            np.testing.assert_array_equal(upper, bands.upper)

    def test_dump_rerun_rewrites_the_files(self, tmp_path):
        # a dump into a directory that holds an earlier one replaces its files, not appends
        fit = fit_tv_var(null_panel(seed=4, T=120), TvVarConfig(q=1, lam=1.0))
        cfg = BootstrapConfig(replications=100, coverage=0.95, master_seed=8)
        bootstrap_bands(fit, cfg, dump_dir=str(tmp_path))
        first = (tmp_path / "replications_000001_000100.csv").read_bytes()
        bootstrap_bands(fit, cfg, dump_dir=str(tmp_path))
        assert (tmp_path / "replications_000001_000100.csv").read_bytes() == first

    def test_dump_keeps_replication_order(self, tmp_path):
        # the dump is written as replications arrive, in order: row b is replication b's own path
        panel = null_panel(seed=4, T=120)
        tv = TvVarConfig(q=1, lam=1.0)
        fit = fit_tv_var(panel, tv)
        cfg = BootstrapConfig(replications=100, coverage=0.95, master_seed=8)
        bootstrap_bands(fit, cfg, dump_dir=str(tmp_path))
        rows: dict[int, list[float]] = {}
        for line in (tmp_path / "replications_000001_000100.csv").read_text().splitlines()[1:]:
            rep, _, cell = line.split(",")
            rows.setdefault(int(rep), []).append(float(cell) if cell else np.nan)
        for b in (1, 37, 100):
            expected = naive_replication(panel, fit, tv, cfg.master_seed, b)
            np.testing.assert_array_equal(np.array(rows[b]).view(np.int64), expected.view(np.int64))

    def test_memory_stays_far_below_the_replication_matrix(self):
        # the band step keeps each date's extreme order statistics, not a B x S matrix
        fit = fit_tv_var(null_panel(seed=16, T=400), TvVarConfig(q=1, lam=1.0))
        cfg = BootstrapConfig(replications=2000, coverage=0.95, master_seed=5)
        zstar_bytes = 2000 * fit.effective_obs * 8
        assert traced_peak(bootstrap_bands, fit, cfg) <= zstar_bytes / 3

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            BootstrapConfig(coverage=1.2)
        with pytest.raises(ConfigError):
            BootstrapConfig(replications=-1)


def same_bits(a, b):
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))


def workspace(fit, tv, master_seed):
    return _workspace({"rows": _null_rows(fit.residuals, fit.nu), "master_seed": master_seed, "tv_config": tv})


REFITS = {
    "q1-fixed": TvVarConfig(q=1, lam=1.0),
    "q2-two-pass": TvVarConfig(q=2, lam=1.0, lambda_mode="two-pass"),
}


class TestReplicationOracle:
    """The workspace kernel against a null panel -> fit_tv_var -> efficiency_path."""

    @pytest.mark.parametrize("refit", sorted(REFITS))
    def test_replications_match_the_naive_path(self, refit):
        panel = null_panel(seed=12, T=150, n=3)
        tv = REFITS[refit]
        fit = fit_tv_var(panel, tv)
        work = workspace(fit, tv, 8)  # one workspace for every replication
        for b in range(1, 31):
            assert same_bits(_run_replication(b, work), naive_replication(panel, fit, tv, 8, b))

    @pytest.mark.parametrize("refit", sorted(REFITS))
    def test_chunked_degrees_match_the_naive_path(self, refit, monkeypatch):
        # a degree chunk of 32 dates splits each replication's S = 148 or 149 dates in five
        panel = null_panel(seed=13, T=150, n=3)
        tv = REFITS[refit]
        fit = fit_tv_var(panel, tv)
        work = workspace(fit, tv, 5)
        widths, degrees = [], mkteff.efficiency._degrees
        monkeypatch.setattr(mkteff.efficiency, "DEGREE_CHUNK", 32)
        monkeypatch.setattr(mkteff.efficiency, "_degrees", lambda M: widths.append(len(M)) or degrees(M))
        for b in range(1, 11):
            widths.clear()
            z = _run_replication(b, work)
            assert widths == [32] * 4 + [fit.effective_obs - 128]
            assert same_bits(z, naive_replication(panel, fit, tv, 5, b))

    def test_degree_temporaries_stay_one_chunk_wide(self, monkeypatch):
        # n = 8, S = 3000: the banded normal equations (9/8 of an S x n x n stack), then
        # the paths (one stack) are held. Degree temporaries one chunk of 256 dates wide
        # add well under a stack to the paths; all S dates at once add about three
        panel = null_panel(seed=17, T=3001, n=8)
        fit = fit_tv_var(panel, TvVarConfig(q=1, lam=1.0))
        work = workspace(fit, fit.config, 3)
        _run_replication(1, work)
        monkeypatch.setattr(mkteff.efficiency, "DEGREE_CHUNK", 256)
        stack = fit.effective_obs * 8 * 8 * 8
        assert traced_peak(_run_replication, 2, work) <= 1.6 * stack

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("refit", sorted(REFITS))
    def test_bands_match_the_naive_path(self, refit, n_jobs):
        panel = null_panel(seed=14, T=120, n=2)
        tv = REFITS[refit]
        fit = fit_tv_var(panel, tv)
        cfg = BootstrapConfig(replications=101, coverage=0.9, master_seed=6)
        bands = bootstrap_bands(fit, cfg, n_jobs=n_jobs)
        lower, upper, flagged = naive_bands(panel, fit, tv, cfg)
        assert same_bits(bands.lower, lower) and same_bits(bands.upper, upper)
        np.testing.assert_array_equal(bands.flagged_counts, flagged)

    def test_failed_replications_leave_no_state(self):
        # residual rows of +-1e160 overflow the normal equations of every replication
        # that draws one (a NumericalError); the others must not see its buffers
        panel = null_panel(seed=15, T=120, n=2)
        tv = TvVarConfig(q=1, lam=1.0)
        fit = fit_tv_var(panel, tv)
        resid = fit.residuals.copy()
        resid[30], resid[70] = 1e160, -1e160
        fit = dataclasses.replace(fit, residuals=resid)
        work = workspace(fit, tv, 9)
        failed = []
        for b in range(1, 41):
            z = _run_replication(b, work)
            assert same_bits(z, naive_replication(panel, fit, tv, 9, b))
            failed.append(bool(np.isnan(z).all()))
        assert any(failed[b] and not failed[b + 1] for b in range(39))  # a fit right after a failure
        cfg = BootstrapConfig(replications=100, coverage=0.95, master_seed=9)
        lower, upper, flagged = naive_bands(panel, fit, tv, cfg)
        assert 0 < flagged.min() and flagged.max() < 100
        for n_jobs in (1, 2):
            bands = bootstrap_bands(fit, cfg, n_jobs=n_jobs)
            assert same_bits(bands.lower, lower) and same_bits(bands.upper, upper)
            np.testing.assert_array_equal(bands.flagged_counts, flagged)


class TestSortedQuantiles:
    """The fold into each date's extremes, read through the position map, against numpy."""

    @settings(max_examples=300, deadline=None)
    @given(
        B=st.integers(1, 2500),
        S=st.integers(1, 6),
        coverage=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        chunk=st.integers(1, 300),
        nan_rate=st.sampled_from([0.0, 0.01, 0.3, 0.9, 1.0]),
        ties=st.booleans(),
        empty_date=st.booleans(),
        sparse_date=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_nanquantile_of_the_unsorted_array(
        self, B, S, coverage, chunk, nan_rate, ties, empty_date, sparse_date, seed
    ):
        gen = np.random.default_rng(seed)
        z = np.abs(gen.standard_normal((B, S)))  # degrees: no -0.0, whose order against 0.0 a sort leaves open
        if ties:
            z = np.round(z, 1)  # ties, and exact zeros
        bad = gen.random((B, S)) < nan_rate
        z[bad] = gen.choice([np.nan, np.inf, -np.inf], size=bad.sum())
        lo = (1.0 - coverage) / 2.0
        K = min(B, int(np.floor(lo * (B - 1))) + 3)
        if empty_date:
            z[:, gen.integers(S)] = np.nan
        if sparse_date:  # fewer than K finite degrees
            z[gen.permutation(B)[gen.integers(K):], gen.integers(S)] = np.inf
        levels = np.array([lo, 1.0 - lo])
        finite = np.where(np.isfinite(z), z, np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN dates stay NaN
            expected = np.nanquantile(finite, levels, axis=0)
        dumped = []
        ext, flagged = _fold_extremes(iter(z), B, S, K, chunk, lambda done, rows: dumped.append((done, rows.copy())))
        np.testing.assert_array_equal(flagged, (~np.isfinite(z)).sum(axis=0))
        assert same_bits(_sorted_quantiles(ext, B - flagged, levels), expected)
        # the dump sees every row once, in replication order, non-finite cells as NaN
        assert [done for done, _ in dumped] == np.cumsum([0] + [len(rows) for _, rows in dumped[:-1]]).tolist()
        assert same_bits(np.concatenate([rows for _, rows in dumped]), finite)


class TestSeeds:
    def test_replication_seed_is_spawn_key(self):
        s = replication_seed(123, 7)
        assert s.entropy == 123
        assert s.spawn_key == (7,)
        # distinct replications give distinct streams
        a = np.random.default_rng(replication_seed(9, 1)).integers(0, 100, 5)
        b = np.random.default_rng(replication_seed(9, 2)).integers(0, 100, 5)
        assert not np.array_equal(a, b)
