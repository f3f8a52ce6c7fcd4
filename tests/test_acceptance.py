"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. Monte Carlo seeds are fixed, so every number here is reproducible.
The data-conditional comparison against published table values lives in
test_published_values.py and is skipped unless source data is supplied.
"""

import json
import time

import numpy as np

from mkteff import (
    BootstrapConfig,
    DgpSpec,
    TvVarConfig,
    adf_gls_test,
    bootstrap_bands,
    efficiency_path,
    fit_tv_var,
    fit_var_ols,
    granger_causality,
    hansen_lc,
    simulate,
)
from mkteff.cli import EXIT_OK, main
from mkteff.efficiency import _degrees

from conftest import make_panel
from oracles import granger_wald_f, solve_dense


def check(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_scalar_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for a in (-0.9, -0.5, 0.0, 0.5, 0.9):
        got = _degrees(np.array([[[1.0 - a]]]))[0][0]  # the lag sum I - A = 1 - a
        worst = max(worst, abs(got - abs(a / (1.0 - a))))
    elapsed = time.perf_counter() - t0
    check(
        "criterion 1 scalar zeta identity",
        worst < 1e-10 and elapsed < 1.0,
        f"max error {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_lambda_limit_matches_ols():
    t0 = time.perf_counter()
    panel, _ = simulate(
        DgpSpec(kind="constant-var", n=3, T=300, seed=7, coefficients=0.3, innovation_sd=0.01)
    )
    fit = fit_tv_var(panel, TvVarConfig(q=1, lam=1e8))
    ols = fit_var_ols(panel, 1)
    err = float(np.abs(fit.A_path - ols.A[None]).max())
    elapsed = time.perf_counter() - t0
    check(
        "criterion 2 lambda->inf equals constant OLS",
        err < 1e-4 and elapsed < 10.0,
        f"max coefficient error {err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_banded_vs_dense_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    gen = np.random.default_rng(321)
    for _ in range(50):
        n = int(gen.integers(1, 4))
        q = int(gen.integers(1, 3))
        low = n * q + q + 4  # keep the intercept identified
        T = int(gen.integers(low, 61))
        lam = float(10 ** gen.uniform(-0.3, 0.7))
        panel = make_panel(gen.standard_normal((T, n)))
        banded = fit_tv_var(panel, TvVarConfig(q=q, lam=lam))
        dense_nu, dense_A = solve_dense(panel, q, lam)
        worst = max(
            worst,
            float(np.abs(banded.A_path - dense_A).max()),
            float(np.abs(banded.nu - dense_nu).max()),
        )
    elapsed = time.perf_counter() - t0
    check(
        "criterion 3 banded vs dense (50 instances)",
        worst < 1e-8 and elapsed < 30.0,
        f"max elementwise gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_null_coverage():
    t0 = time.perf_counter()
    n_panels, B, T = 200, 300, 300
    tv = TvVarConfig(q=1, lam=1.0)
    tails = {"upper": [], "lower": []}  # per panel: (dates outside the band, dates with a band)
    for i in range(n_panels):
        panel, _ = simulate(
            DgpSpec(kind="white-noise", n=3, T=T, seed=40_000 + i, innovation_sd=0.01)
        )
        fit = fit_tv_var(panel, tv)
        zhat = efficiency_path(fit).zeta
        boot = BootstrapConfig(replications=B, coverage=0.95, master_seed=50_000 + i)
        bands = bootstrap_bands(fit, boot, n_jobs=2)  # bands are the same for any worker count
        for name, band, outside in (("upper", bands.upper, np.greater), ("lower", bands.lower, np.less)):
            ok = np.isfinite(zhat) & np.isfinite(band)
            tails[name].append((int(outside(zhat[ok], band[ok]).sum()), int(ok.sum())))
    exceed, total = np.array(tails["upper"]).sum(axis=0)
    rate = exceed / total  # the check is on the upper tail
    elapsed = time.perf_counter() - t0
    # dates within a panel are strongly dependent, so each tail's sampling error
    # is read off the spread of the independent panels' rates
    spread, pooled, stderr = [], {}, {}
    for name, counts in tails.items():
        hits, dates = np.array(counts).sum(axis=0)
        per_panel = np.array([h / d for h, d in counts if d])
        sd = per_panel.std(ddof=1)
        pooled[name], stderr[name] = hits / dates, sd / np.sqrt(len(per_panel))
        spread.append(
            f"{name} tail pooled {pooled[name]:.4f}, per-panel rates sd {sd:.4f} "
            f"(standard error {stderr[name]:.4f}), "
            f"{(per_panel > 0).mean():.2f} of panels with any, max {per_panel.max():.4f}"
        )
    check(
        "criterion 4 null band coverage",
        0.005 <= rate <= 0.06,
        f"pooled exceedance {rate:.4f} over {total} dates; {'; '.join(spread)}; {elapsed:.0f}s",
    )
    # the lower tail's nominal share is 0.025 too; it is checked within 4 standard
    # errors read off the panels' spread
    lo, hi = 0.025 - 4 * stderr["lower"], 0.025 + 4 * stderr["lower"]
    check(
        "criterion 4 null band lower tail",
        lo <= pooled["lower"] <= hi,
        f"pooled {pooled['lower']:.4f}; interval 0.025 +/- 4 x {stderr['lower']:.4f} = [{lo:.4f}, {hi:.4f}]",
    )


def test_criterion_5_linear_drift_recovery():
    t0 = time.perf_counter()
    cors = []
    for seed in range(100):
        panel, truth = simulate(
            DgpSpec(
                kind="tv-var-linear-drift", n=1, T=800, seed=seed,
                coefficients=0.0, coefficients_end=0.8,
            )
        )
        fit = fit_tv_var(panel, TvVarConfig(q=1, lam=1e4))
        path = efficiency_path(fit)
        true_zeta = truth.zeta[1:]  # align with fitted periods
        ok = np.isfinite(path.zeta)
        cors.append(float(np.corrcoef(path.zeta[ok], true_zeta[ok])[0, 1]))
    mean_corr = float(np.mean(cors))
    elapsed = time.perf_counter() - t0
    check(
        "criterion 5 drifting-coefficient recovery",
        mean_corr > 0.8,
        f"mean corr {mean_corr:.3f} over 100 seeds, {elapsed:.0f}s",
    )


def test_criterion_6_granger_exactness_and_size():
    t0 = time.perf_counter()
    worst = 0.0
    gen = np.random.default_rng(11)
    for _ in range(20):
        n = int(gen.integers(2, 4))
        values = gen.standard_normal((int(gen.integers(80, 200)), n))
        panel = make_panel(values)
        src = panel.asset_ids[int(gen.integers(0, n))]
        est = fit_var_ols(panel, 1)
        f_rss = granger_causality(est, src).f_statistic
        f_wald = granger_wald_f(est, src)
        worst = max(worst, abs(f_rss - f_wald))
    rejections = 0
    reps = 500
    for seed in range(reps):
        panel, _ = simulate(DgpSpec(kind="white-noise", n=3, T=200, seed=60_000 + seed))
        rejections += granger_causality(fit_var_ols(panel, 1), panel.asset_ids[0]).p_value < 0.10
    rate = rejections / reps
    elapsed = time.perf_counter() - t0
    check(
        "criterion 6 Granger F exactness + size",
        worst < 1e-8 and 0.06 <= rate <= 0.14,
        f"max |rss-wald| {worst:.2e}, size {rate:.3f} at 10%, {elapsed:.0f}s",
    )


def test_criterion_7_adf_gls_calibration():
    t0 = time.perf_counter()
    reps, T, max_lag = 500, 1000, 4
    rej_stationary = 0
    rej_unit_root = 0
    for seed in range(reps):
        panel_wn, _ = simulate(DgpSpec(kind="white-noise", n=1, T=T, seed=70_000 + seed))
        panel_rw, _ = simulate(DgpSpec(kind="random-walk", n=1, T=T, seed=80_000 + seed))
        rej_stationary += adf_gls_test(panel_wn.values[:, 0], max_lag).rejects_at(0.01)
        rej_unit_root += adf_gls_test(panel_rw.values[:, 0], max_lag).rejects_at(0.01)
    power = rej_stationary / reps
    size = rej_unit_root / reps
    elapsed = time.perf_counter() - t0
    check(
        "criterion 7 unit-root test calibration",
        power > 0.95 and size < 0.05,
        f"white-noise rejection {power:.3f}, random-walk rejection {size:.3f}, {elapsed:.0f}s",
    )


def test_criterion_8_constancy_test_size_and_power():
    t0 = time.perf_counter()
    reps = 300
    rejections = 0
    for seed in range(reps):
        panel, _ = simulate(
            DgpSpec(kind="constant-var", n=3, T=300, seed=90_000 + seed, coefficients=0.3)
        )
        rejections += hansen_lc(fit_var_ols(panel, 1)).rejects_at(0.05)
    size = rejections / reps
    power_hits = 0
    power_reps = 100
    for seed in range(power_reps):
        panel, _ = simulate(
            DgpSpec(
                kind="tv-var-random-walk-coeffs", n=3, T=300, seed=95_000 + seed,
                coefficients=0.2, coef_innovation_sd=0.03,
            )
        )
        power_hits += hansen_lc(fit_var_ols(panel, 1)).rejects_at(0.05)
    power = power_hits / power_reps
    elapsed = time.perf_counter() - t0
    check(
        "criterion 8 constancy test size/power",
        0.02 <= size <= 0.09 and power > 0.9,
        f"size {size:.3f} at 5%, power {power:.2f}, {elapsed:.0f}s",
    )


def test_criterion_9_published_values_are_data_conditional():
    # the comparison harness ships in test_published_values.py and runs only
    # when the original source data is supplied; nothing to assert here beyond
    # the harness existing
    import importlib.util

    spec = importlib.util.find_spec("test_published_values")
    found = spec is not None
    if not found:
        import os.path

        found = os.path.exists(os.path.join(os.path.dirname(__file__), "test_published_values.py"))
    check("criterion 9 data-conditional harness ships", found, "tests/test_published_values.py")


def test_criterion_10_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    import math
    from datetime import date, timedelta

    gen = np.random.default_rng(1234)
    files = []
    for name in ("left", "right"):
        returns = gen.normal(0.0, 0.01, 150)
        price = 100.0
        lines = ["date,price", f"2020-01-01,{price}"]
        for t, r in enumerate(returns, start=1):
            price *= math.exp(r)
            lines.append(f"{(date(2020, 1, 1) + timedelta(days=t)).isoformat()},{price}")
        p = tmp_path / f"{name}.csv"
        p.write_text("\n".join(lines) + "\n")
        files.append((str(p), name))

    blobs = []
    for run, jobs in ((0, 1), (1, 1), (2, 2)):
        out = tmp_path / f"out{run}"
        doc = {
            "inputs": [{"path": p, "asset_id": a} for p, a in files],
            "tv": {"q": 1, "lambda": 1.0},
            "bootstrap": {"replications": 100, "master_seed": 99, "n_jobs": jobs},
            "output_dir": str(out),
        }
        cfg = tmp_path / f"cfg{run}.json"
        cfg.write_text(json.dumps(doc))
        assert main(["efficiency", "--config", str(cfg)]) == EXIT_OK
        blobs.append((out / "efficiency.csv").read_bytes())
    identical = blobs[0] == blobs[1] == blobs[2]
    elapsed = time.perf_counter() - t0
    check(
        "criterion 10 determinism across runs and worker counts",
        identical,
        f"3 runs byte-identical, {elapsed:.0f}s",
    )


def test_criterion_11_bands_detect_a_drift():
    # the paper's shape (n=3, T=1686, q=1, B=300); every own-lag coefficient
    # drifts from 0 to 0.5, so the true degree rises from 0 to 1
    t0 = time.perf_counter()
    shares, cors = [], []
    for seed in range(3):
        panel, truth = simulate(
            DgpSpec(kind="tv-var-linear-drift", n=3, T=1686, q=1, seed=110_000 + seed,
                    innovation_sd=0.01, coefficients=0.0, coefficients_end=0.5)
        )
        fit = fit_tv_var(panel, TvVarConfig(q=1, lam=1.0))
        zhat = efficiency_path(fit).zeta
        bands = bootstrap_bands(fit, BootstrapConfig(replications=300, coverage=0.95, master_seed=seed))
        above = zhat > bands.upper  # NaN compares False: a flagged date is not above
        third = len(zhat) // 3
        shares.append((above[:third].mean(), above[-third:].mean()))
        cors.append(float(np.corrcoef(zhat, truth.zeta[1:])[0, 1]))
    elapsed = time.perf_counter() - t0
    check(
        "criterion 11 bands detect a drifting coefficient",
        all(last > first for first, last in shares) and min(cors) > 0.8,
        "share above the upper band, first/last third: "
        + ", ".join(f"{first:.3f}/{last:.3f}" for first, last in shares)
        + f"; corr with the true degree {', '.join(f'{c:.3f}' for c in cors)}; {elapsed:.1f}s",
    )
