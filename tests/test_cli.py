import argparse
import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkteff import DgpSpec, simulate
from mkteff.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, build_config, load_returns_panel, main, run, var_table_text
from mkteff.var_base import fit_var_ols, granger_causality, hansen_lc


def write_price_csv(path, start_price, returns, start="2020-01-01"):
    """Geometric price path from a return sequence, ISO dates, no weekends skipped."""
    from datetime import date, timedelta

    d0 = date.fromisoformat(start)
    price = start_price
    lines = ["date,price", f"{d0.isoformat()},{price}"]
    for t, r in enumerate(returns, start=1):
        price *= math.exp(r)
        lines.append(f"{(d0 + timedelta(days=t)).isoformat()},{price}")
    path.write_text("\n".join(lines) + "\n")


NON_UTF8_CSV = b"date,close\n2020-01-02,100\n2020-01-03,10\xff1\n"


@pytest.fixture
def market_files(tmp_path):
    rng = np.random.default_rng(314)
    T = 160
    paths = []
    for i, name in enumerate(("alpha", "beta")):
        p = tmp_path / f"{name}.csv"
        write_price_csv(p, 100.0 * (i + 1), rng.normal(0, 0.01, T))
        paths.append((str(p), name.upper()))
    return paths


def config_file(tmp_path, files, **extra):
    doc = {
        "inputs": [{"path": p, "asset_id": a} for p, a in files],
        "unit_root": {"max_lag": 4},
        "var": {"p_max": 3},
        "tv": {"q": 1, "lambda": 1.0},
        "bootstrap": {"replications": 0, "master_seed": 7},
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(extra)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


class TestDescribe:
    def test_writes_reports(self, tmp_path, market_files):
        cfg = config_file(tmp_path, market_files)
        assert main(["describe", "--config", cfg]) == EXIT_OK
        out = tmp_path / "out"
        assert (out / "summary.txt").exists()
        assert (out / "summary.csv").exists()
        doc = json.loads((out / "summary.json").read_text())
        assert set(doc["assets"]) == {"ALPHA", "BETA"}
        assert "unit_root" in doc
        assert (out / "manifest.json").exists()

    def test_single_asset_is_data_error(self, tmp_path, market_files):
        cfg = config_file(tmp_path, market_files[:1])
        assert main(["describe", "--config", cfg]) == EXIT_DATA

    def test_empty_date_range(self, tmp_path, market_files):
        cfg = config_file(tmp_path, market_files, date_range={"start": "2031-01-01", "end": None})
        assert main(["describe", "--config", cfg]) == EXIT_DATA

    def test_nonstationary_gate(self, tmp_path):
        rng = np.random.default_rng(5)
        # random-walk log prices: returns are white, but build a trending
        # price whose returns are a random walk to trip the gate
        steps = np.cumsum(rng.normal(0, 0.002, 200))
        files = []
        for name in ("one", "two"):
            p = tmp_path / f"{name}.csv"
            write_price_csv(p, 50.0, steps)
            files.append((str(p), name))
        cfg = config_file(tmp_path, files)
        assert main(["describe", "--config", cfg]) == EXIT_DATA
        assert main(["describe", "--config", cfg, "--allow-nonstationary"]) == EXIT_OK


class TestVar:
    def test_report_contents(self, tmp_path, market_files):
        cfg = config_file(tmp_path, market_files)
        assert main(["var", "--config", cfg]) == EXIT_OK
        doc = json.loads((tmp_path / "out" / "var_report.json").read_text())
        assert doc["selected_p"] >= 1
        assert set(doc["granger"]) == {"ALPHA", "BETA"}
        assert "lc" in doc["hansen_lc"]
        text = (tmp_path / "out" / "var_report.txt").read_text()
        assert "granger_F" in text and "Lc" in text

    def test_zero_p_max_is_config_error(self, tmp_path, market_files):
        cfg = config_file(tmp_path, market_files, var={"p_max": 0})
        assert main(["var", "--config", cfg]) == EXIT_CONFIG

    def test_lc_cell_stars_each_level_it_rejects_at(self, tmp_path, market_files):
        # one star per level whose threshold the statistic exceeds: none at or below
        # the 10% threshold, three above the 1% one
        with open(config_file(tmp_path, market_files), encoding="utf-8") as fh:
            returns = load_returns_panel(build_config(json.load(fh), argparse.Namespace()))
        est = fit_var_ols(returns, 1)
        granger = {a: granger_causality(est, a) for a in returns.asset_ids}
        lc = hansen_lc(est)
        t10, t05, t01 = (lc.thresholds[level] for level in (0.10, 0.05, 0.01))
        for stat, stars in [(0.5 * t10, ""), (t10, ""), ((t10 + t05) / 2, "*"), (t05, "*"),
                            ((t05 + t01) / 2, "**"), (t01, "**"), (t01 + 1.0, "***"), (math.nan, "")]:
            text = var_table_text(est, granger, dataclasses.replace(lc, lc_statistic=stat))
            assert text.splitlines()[-1].split() == ["Lc", f"{stat:.4f}{stars}"]


class TestEfficiency:
    def test_zeta_without_bands(self, tmp_path, market_files):
        cfg = config_file(tmp_path, market_files)
        assert main(["efficiency", "--config", cfg]) == EXIT_OK
        out = tmp_path / "out"
        lines = (out / "efficiency.csv").read_text().splitlines()
        assert lines[0] == "date,zeta,band_low,band_high,singular"
        assert len(lines) == 160  # T - q data rows + header
        assert all(line.split(",")[2] == "" for line in lines[1:])  # no bands
        assert (out / "efficiency.svg").read_text().startswith("<svg")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["bands"] is False
        assert manifest["lambda_effective"] == 1.0
        assert 0.0 < manifest["intercept_pivot"] <= 1.0
        assert manifest["singular_dates"] == 0
        assert 1.0 <= manifest["max_frobenius_bound"] < 1e3
        assert "bootstrap_flagged_cells" not in manifest

    def test_bands_and_event_marker(self, tmp_path, market_files):
        cfg = config_file(
            tmp_path, market_files,
            bootstrap={"replications": 100, "master_seed": 9},
            event_date="2020-03-11",
        )
        assert main(
            ["efficiency", "--config", cfg, "--export-coefficients", "--dump-replications"]
        ) == EXIT_OK
        out = tmp_path / "out"
        lines = (out / "efficiency.csv").read_text().splitlines()
        cells = lines[1].split(",")
        assert cells[2] != "" and cells[3] != ""
        svg = (out / "efficiency.svg").read_text()
        assert "stroke-dasharray" in svg  # dashed bands and dotted marker
        assert "2020-03-11" in svg
        assert (out / "coefficients.csv").read_text().startswith("date,lag,row,col,value")
        dumps = list((out / "replications").iterdir())
        assert dumps and all(p.name.startswith("replications_") for p in dumps)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["bands"] is True
        assert manifest["singular_dates"] == 0
        assert manifest["bootstrap_flagged_cells"] == 0
        assert manifest["bootstrap_flagged_max_per_date"] == 0

    def test_byte_identical_reruns_and_worker_counts(self, tmp_path, market_files):
        outputs, manifests = [], []
        # run 4 sets two workers by --n-jobs over a one-worker config
        for run, jobs, flags in ((1, 1, []), (2, 1, []), (3, 2, []), (4, 1, ["--n-jobs", "2"])):
            out_dir = str(tmp_path / f"out{run}")
            cfg = config_file(
                tmp_path, market_files,
                bootstrap={"replications": 100, "master_seed": 33, "n_jobs": jobs},
                output_dir=out_dir,
            )
            assert main(["efficiency", "--config", cfg, *flags]) == EXIT_OK
            outputs.append((tmp_path / f"out{run}" / "efficiency.csv").read_bytes())
            manifest = json.loads((tmp_path / f"out{run}" / "manifest.json").read_text())
            manifests.append({k: v for k, v in manifest.items() if k != "config"})
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
        assert manifests[0] == manifests[1] == manifests[2] == manifests[3]  # flag counts included

    def test_partial_outputs_removed_on_failure(self, tmp_path, market_files, monkeypatch):
        import mkteff.cli as cli_mod
        from mkteff.errors import NumericalError

        def boom(*args, **kwargs):
            raise NumericalError("plot stage failure")

        monkeypatch.setattr(cli_mod, "render_line_plot", boom)
        cfg = config_file(tmp_path, market_files)
        assert main(["efficiency", "--config", cfg]) == 4
        assert not (tmp_path / "out" / "efficiency.csv").exists()

    def test_panel_too_short_for_bands_is_data_error(self, tmp_path, capsys):
        # 11 prices give 10 returns and, with q = 1, 9 fitted periods: too few to resample
        rng = np.random.default_rng(17)
        files = []
        for name in ("one", "two"):
            p = tmp_path / f"{name}.csv"
            write_price_csv(p, 50.0, rng.normal(0, 0.01, 10))
            files.append((str(p), name))
        cfg = config_file(tmp_path, files)
        out = tmp_path / "out"
        out.mkdir()
        (out / "efficiency.csv").write_text("an earlier run\n")
        before = _snapshot(out)
        assert main(["efficiency", "--config", cfg, "--q", "1", "--replications", "100"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "too few fitted periods for bands (9 < 10); use a longer panel or replications: 0" in err
        assert _snapshot(out) == before

    def test_flag_overrides_beat_config(self, tmp_path, market_files):
        cfg = config_file(tmp_path, market_files)
        out2 = str(tmp_path / "other")
        assert main(["efficiency", "--config", cfg, "--output-dir", out2, "--lambda", "5.0"]) == EXIT_OK
        manifest = json.loads((tmp_path / "other" / "manifest.json").read_text())
        assert manifest["config"]["tv"]["lambda"] == 5.0
        assert manifest["lambda_effective"] == 5.0


class TestSimulate:
    def spec_file(self, tmp_path, doc):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_writes_panel_and_truth(self, tmp_path):
        spec = self.spec_file(
            tmp_path, {"kind": "white-noise", "n": 2, "T": 40, "seed": 5}
        )
        out = str(tmp_path / "sim")
        assert main(["simulate", "--spec", spec, "--output-dir", out]) == EXIT_OK
        panel_lines = (tmp_path / "sim" / "panel.csv").read_text().splitlines()
        truth_lines = (tmp_path / "sim" / "truth.csv").read_text().splitlines()
        assert len(panel_lines) == 41 and len(truth_lines) == 41
        assert panel_lines[0] == "date,asset1,asset2"
        assert truth_lines[0].startswith("date,zeta,a1_0_0")

    def test_bad_kind_names_field(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path, {"kind": "fractal", "n": 1, "T": 10})
        assert main(["simulate", "--spec", spec, "--output-dir", str(tmp_path / "s")]) == EXIT_CONFIG
        assert "kind" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("n", "2"), ("T", "40"), ("seed", "x"), ("n", 2.5), ("intercept", 5), ("innovation_sd", "a"),
         ("coefficients", "abc"), ("coefficients_end", [[1.0], [2.0, 3.0]]), ("seed", -1)],
    )
    def test_mistyped_field_is_config_error(self, tmp_path, capsys, field, value):
        spec = self.spec_file(tmp_path, {"kind": "white-noise", "n": 1, "T": 40, field: value})
        assert main(["simulate", "--spec", spec, "--output-dir", str(tmp_path / "s")]) == EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_constant_var_without_coefficients_is_config_error(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path, {"kind": "constant-var", "n": 1, "T": 30})
        assert main(["simulate", "--spec", spec, "--output-dir", str(tmp_path / "s")]) == EXIT_CONFIG
        assert "coefficients" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_output_dir_defaults_to_out_and_must_not_be_empty(self, tmp_path, monkeypatch):
        spec = self.spec_file(tmp_path, {"kind": "white-noise", "n": 2, "T": 30})
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--spec", spec, "--output-dir", ""]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        assert main(["simulate", "--spec", spec]) == EXIT_OK
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json", "panel.csv", "truth.csv"]

    @pytest.mark.parametrize(
        "kind, field, value",
        [("white-noise", "innovation_sd", math.inf), ("white-noise", "intercept", [math.inf, 0.0]),
         ("constant-var", "coefficients", math.inf), ("tv-var-random-walk-coeffs", "coef_innovation_sd", math.inf),
         ("tv-var-linear-drift", "coefficients_end", math.nan)],
        ids=["innovation_sd", "intercept", "coefficients", "coef_innovation_sd", "coefficients_end"],
    )
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, kind, field, value):
        spec = self.spec_file(tmp_path, {"kind": kind, "n": 2, "T": 30, field: value})
        assert main(["simulate", "--spec", spec, "--output-dir", str(tmp_path / "s")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {field} must be ")
        assert not (tmp_path / "s").exists()

    def test_rerun_byte_identical(self, tmp_path):
        spec = self.spec_file(tmp_path, {"kind": "constant-var", "n": 1, "T": 30, "coefficients": 0.3, "seed": 12})
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--spec", spec, "--output-dir", a]) == EXIT_OK
        assert main(["simulate", "--spec", spec, "--output-dir", b]) == EXIT_OK
        assert (tmp_path / "a" / "panel.csv").read_bytes() == (tmp_path / "b" / "panel.csv").read_bytes()
        assert (tmp_path / "a" / "truth.csv").read_bytes() == (tmp_path / "b" / "truth.csv").read_bytes()


class TestEntryPoint:
    """``run``, the program's entry, freezes the heap once ``main`` has ended, however
    it ended; ``main`` never freezes. ``gc.freeze`` is replaced here, so the test
    process's own heap is never frozen."""

    # what run() adds after main ends: nothing when the tests themselves run under -X dev
    AFTER_MAIN = ["main ended"] + ([] if sys.flags.dev_mode else ["freeze"])

    @pytest.fixture
    def events(self, monkeypatch):
        import mkteff.cli as cli_mod

        events, real_main = [], cli_mod.main

        def traced_main(argv=None):
            try:
                return real_main(argv)
            finally:
                events.append("main ended")

        monkeypatch.setattr(cli_mod, "main", traced_main)
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        return events

    @pytest.mark.parametrize("argv, code", [
        (["--version"], EXIT_OK),  # argparse's SystemExit
        (["describe", "--config", "nope.json"], EXIT_CONFIG),
        (["all", "--input", "ghost.csv:G", "--input", "g2.csv:H"], EXIT_DATA),
    ])
    def test_freezes_once_main_has_ended(self, events, argv, code, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        try:
            got = run(argv)
        except SystemExit as exc:
            got = exc.code
        assert got == code
        assert events == self.AFTER_MAIN

    def test_freezes_after_an_unexpected_exception(self, events, monkeypatch):
        import mkteff.cli as cli_mod

        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_mod, "build_config", broken)
        with pytest.raises(RuntimeError, match="boom"):
            run(["describe"])
        assert events == self.AFTER_MAIN

    def test_main_never_freezes(self, tmp_path, market_files, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        frozen = gc.get_freeze_count()
        cfg = config_file(tmp_path, market_files, bootstrap={"replications": 100, "master_seed": 1})
        assert main(["all", "--config", cfg]) == EXIT_OK
        assert calls == [] and gc.get_freeze_count() == frozen

    def test_console_script_is_run(self):
        root = os.path.join(os.path.dirname(__file__), "..")
        with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
            pyproject = fh.read()  # a string match: Python 3.10 has no tomllib
        assert '\nmkteff = "mkteff.cli:run"\n' in pyproject

    @pytest.mark.parametrize("dev_mode", [False, True])
    def test_dev_mode_keeps_the_heap_unfrozen(self, dev_mode):
        # a frozen heap would silence the ResourceWarning of a handle open at exit
        import mkteff

        src = os.path.dirname(os.path.dirname(mkteff.__file__))
        code = (
            "import gc, mkteff.cli\n"
            "try:\n    mkteff.cli.run(['--version'])\nexcept SystemExit:\n    pass\n"
            "print(gc.get_freeze_count() > 0)"
        )
        argv = [sys.executable, *(["-X", "dev"] if dev_mode else []), "-c", code]
        proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                              check=True, timeout=120)
        assert proc.stdout.splitlines()[-1] == str(not dev_mode)

    def test_module_run_prints_the_version(self):
        import mkteff

        src = os.path.dirname(os.path.dirname(mkteff.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "mkteff.cli", "--version"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout == f"mkteff {mkteff.__version__}\n"


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["describe", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: config file not found: {tmp_path / 'nope.json'}\n"

    @pytest.mark.parametrize("command", ["all", "simulate"])
    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, kind, command):
        path = tmp_path / "config"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"output_dir": "caf\xe9"}')
        argv = ["all", "--config"] if command == "all" else ["simulate", "--spec"]
        assert main([*argv, str(path), "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"error: cannot read config file {path}: " in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["config"]

    @pytest.mark.parametrize("command", ["all", "simulate"])
    @pytest.mark.parametrize("where", ["file", "below-a-file"])
    def test_output_dir_that_cannot_be_made_is_config_error(self, tmp_path, market_files, capsys, where, command):
        if command == "all":
            argv = ["all", "--config", config_file(tmp_path, market_files)]
        else:
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"kind": "white-noise", "n": 2, "T": 30}))
            argv = ["simulate", "--spec", str(spec)]
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        before = sorted(os.listdir(tmp_path))
        out = taken if where == "file" else taken / "out"
        assert main([*argv, "--output-dir", str(out)]) == EXIT_CONFIG
        assert f"error: cannot write to output directory {out}: " in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before and taken.read_text() == "kept\n"

    def test_non_object_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        assert main(["describe", "--config", str(bad)]) == EXIT_CONFIG

    def test_unknown_config_field(self, tmp_path, market_files):
        cfg = config_file(tmp_path, market_files, plotting={"dpi": 300})
        assert main(["describe", "--config", cfg]) == EXIT_CONFIG

    def test_missing_input_file(self, tmp_path, market_files, capsys):
        # a path that does not exist, and one that is a directory
        (tmp_path / "folder.csv").mkdir()
        for path in (tmp_path / "ghost.csv", tmp_path / "folder.csv"):
            cfg = config_file(tmp_path, [market_files[0], (str(path), "G")])
            assert main(["describe", "--config", cfg]) == EXIT_DATA
            assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")
            assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("source", ["json", "flags"])
    def test_reversed_date_range_is_config_error(self, tmp_path, capsys, source):
        # the input paths do not exist, so exit 2 here shows that no input was read
        files = [(str(tmp_path / "a.csv"), "A"), (str(tmp_path / "b.csv"), "B")]
        reversed_range = {"start": "2020-01-01", "end": "2010-01-01"}
        if source == "json":
            argv = ["all", "--config", config_file(tmp_path, files, date_range=reversed_range)]
        else:
            argv = ["all", "--config", config_file(tmp_path, files),
                    "--date-start", reversed_range["start"], "--date-end", reversed_range["end"]]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: date_range.start 2020-01-01 is after date_range.end 2010-01-01\n"
        assert not (tmp_path / "out").exists()

    def test_equal_csv_columns_are_config_error(self, tmp_path, capsys):
        # the input paths do not exist, so exit 2 here shows that no input was read
        files = [(str(tmp_path / "a.csv"), "A"), (str(tmp_path / "b.csv"), "B")]
        cfg = config_file(tmp_path, files, csv={"date_column": 1, "price_column": 1})
        assert main(["all", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: csv.date_column and csv.price_column must differ, both are 1\n"
        assert not (tmp_path / "out").exists()

    def test_one_day_date_range_is_valid(self):
        cfg = build_config({"date_range": {"start": "2020-01-01", "end": "2020-01-01"}}, argparse.Namespace())
        assert cfg.date_start == cfg.date_end == date(2020, 1, 1)

    def test_input_flag_format(self, tmp_path):
        assert main(["describe", "--input", "justapath"]) == EXIT_CONFIG

    def test_non_utf8_input_is_data_error(self, tmp_path, market_files, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(NON_UTF8_CSV)
        cfg = config_file(tmp_path, [market_files[0], (str(bad), "BAD")])
        assert main(["describe", "--config", cfg]) == EXIT_DATA
        assert "BAD: line 3 is not valid UTF-8" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_bad_row_names_the_asset(self, tmp_path, market_files, capsys):
        bad = tmp_path / "a.csv"
        bad.write_text("date,close\n2020-01-02,100\n2020-01-03,oops\n2020-01-04,101\n")
        argv = ["describe", "--input", f"{bad}:A", "--input", f"{market_files[1][0]}:B",
                "--output-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == "error: A: line 3: bad price 'oops'\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_all_runs_pipeline(self, tmp_path, market_files):
        cfg = config_file(tmp_path, market_files)
        assert main(["all", "--config", cfg]) == EXIT_OK
        out = tmp_path / "out"
        for name in ("summary.txt", "var_report.txt", "efficiency.csv", "efficiency.svg"):
            assert (out / name).exists()

    def test_solver_accepts_only_banded(self, tmp_path, market_files, capsys):
        cfg = config_file(tmp_path, market_files, tv={"q": 1, "solver": "banded-cholesky"})
        assert main(["efficiency", "--config", cfg]) == EXIT_OK
        cfg = config_file(tmp_path, market_files, tv={"q": 1, "solver": "dense-reference"})
        assert main(["efficiency", "--config", cfg]) == EXIT_CONFIG
        assert "test oracle" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, name",
        [
            pytest.param({"csv": {"delimiter": ""}}, "csv.delimiter", id="empty-delimiter"),
            pytest.param({"csv": {"delimiter": 5}}, "csv.delimiter", id="non-string-delimiter"),
            pytest.param({"csv": {"date_column": -1}}, "csv.date_column", id="negative-date-column"),
            pytest.param({"csv": {"price_column": -1}}, "csv.price_column", id="negative-price-column"),
            pytest.param({"unit_root": {"max_lag": -1}}, "unit_root.max_lag", id="negative-max-lag"),
            pytest.param({"var": {"p_max": "abc"}}, "var.p_max", id="string-p-max"),
            pytest.param({"var": {"p_max": "3"}}, "var.p_max", id="numeric-string-p-max"),
            pytest.param({"var": {"p_max": 2.9}}, "var.p_max", id="float-p-max"),
            pytest.param({"var": {"p_max": True}}, "var.p_max", id="bool-p-max"),
            pytest.param({"bootstrap": {"coverage": [1]}}, "bootstrap.coverage", id="list-coverage"),
            pytest.param({"csv": []}, "csv", id="non-object-section"),
            pytest.param({"tv": {"q": 1, "lambda": "x"}}, "tv.lambda", id="string-lambda"),
            pytest.param({"tv": {"q": 1, "lambda": math.inf}}, "lam must be positive and finite, got inf",
                         id="infinite-lambda"),
            pytest.param({"unit_root": {"max_lag": "z"}}, "unit_root.max_lag", id="string-max-lag"),
            pytest.param({"date_range": {"start": 20200101}}, "date_range.start", id="int-date"),
            pytest.param({"event_date": 5}, "event_date", id="int-event-date"),
            pytest.param({"output_dir": 5}, "output_dir", id="int-output-dir"),
            pytest.param({"output_dir": ""}, "output_dir", id="empty-output-dir"),
            pytest.param({"csv": {"date_format": 5}}, "csv.date_format", id="int-date-format"),
            pytest.param({"allow_nonstationary": "false"}, "allow_nonstationary", id="string-bool"),
            pytest.param({"csv": {"skip_bad_rows": "no"}}, "csv.skip_bad_rows", id="string-skip-bad-rows"),
            # checked before any input is read, so the paths need not exist
            pytest.param({"inputs": [{"path": "a.csv", "asset_id": "A"}, {"path": "b.csv", "asset_id": "A"}]},
                         "inputs.asset_id", id="duplicate-asset-id"),
            pytest.param({"inputs": [{"path": "a.csv", "asset_id": "A"}, {"path": "b.csv", "asset_id": ""}]},
                         "inputs.asset_id", id="empty-asset-id"),
        ],
    )
    def test_invalid_value_is_config_error(self, tmp_path, market_files, extra, name, capsys):
        cfg = config_file(tmp_path, market_files, **extra)
        assert main(["all", "--config", cfg]) == EXIT_CONFIG
        out = tmp_path / "out"
        assert not out.exists() or list(out.rglob("*")) == []
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [["--lambda", "-1"], ["--lambda", "inf"], ["--coverage", "7"], ["--replications", "50"], ["--output-dir", ""],
         ["--input", "a.csv:A", "--input", "b.csv:A", "--input", "c.csv:C"], ["--input", "a.csv:", "--input", "b.csv:B"],
         ["--master-seed", "-1"]],
        ids=["lambda", "lambda-inf", "coverage", "replications", "output-dir", "duplicate-input-id", "empty-input-id",
             "master-seed"],
    )
    def test_out_of_range_flag_is_config_error(self, tmp_path, market_files, flag):
        cfg = config_file(tmp_path, market_files)
        assert main(["describe", "--config", cfg, *flag]) == EXIT_CONFIG
        out = tmp_path / "out"
        assert not out.exists() or list(out.rglob("*")) == []

    def test_readme_config_echoes_with_defaults(self):
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        block = readme.split("`config.json`:\n\n```json\n", 1)[1].split("```", 1)[0]
        doc = json.loads(block)
        expected = json.loads(block)
        del expected["tv"]["solver"]
        expected["csv"]["skip_bad_rows"] = False
        expected["allow_nonstationary"] = False
        assert build_config(doc, argparse.Namespace()).echo() == expected


def unwanted_modules(tmp_path, files, replications):
    """The modules of numpy.random, secrets, hashlib and multiprocessing a one-job
    ``mkteff all`` with ``replications`` loads, in a new interpreter."""
    import mkteff

    src = os.path.dirname(os.path.dirname(mkteff.__file__))
    unwanted = ("numpy.random", "secrets", "hashlib", "multiprocessing")
    argv = ["all", "--config", config_file(tmp_path, files), "--replications", replications, "--n-jobs", "1"]
    code = (
        f"import json, sys; from mkteff.cli import main; assert main({argv!r}) == 0; "
        f"print(json.dumps(sorted(m for m in sys.modules if (m + '.').startswith(tuple(u + '.' for u in {unwanted!r})))))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


class TestAll:
    def test_import_loads_no_heavy_scipy_modules(self):
        import mkteff

        src = os.path.dirname(os.path.dirname(mkteff.__file__))
        # scipy's LAPACK extension is loaded from its file: no scipy package init, and
        # none of the numpy submodules scipy.linalg's array-API layer imports
        heavy = ("scipy", "numpy.f2py", "numpy.testing", "unittest", "multiprocessing", "concurrent.futures.process")
        code = (
            f"import sys, mkteff.cli; heavy = {heavy!r}; flapack = 'scipy.linalg._flapack'; "
            "print(sorted(m for m in sys.modules if (m + '.').startswith(tuple(h + '.' for h in heavy)) "
            "and m != flapack), flapack in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[] True"

    def test_run_without_bands_loads_no_random_or_pool_modules(self, tmp_path, market_files):
        assert unwanted_modules(tmp_path, market_files, "0") == []
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["bands"] is False

    def test_run_with_bands_loads_no_random_or_pool_modules(self, tmp_path, market_files):
        # the picks are drawn without numpy.random, which would load secrets and hashlib
        assert unwanted_modules(tmp_path, market_files, "100") == []
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["bands"] is True

    def test_loads_and_selects_once(self, tmp_path, market_files, monkeypatch):
        import mkteff.cli as cli_mod

        calls = {"load_returns_panel": 0, "select_lag_bic": 0}
        for name in calls:
            def counted(*args, _fn=getattr(cli_mod, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cli_mod, name, counted)
        cfg = config_file(tmp_path, market_files, tv={"q": None, "lambda": 1.0})
        assert main(["all", "--config", cfg]) == EXIT_OK
        assert calls == {"load_returns_panel": 1, "select_lag_bic": 1}

    def test_same_bytes_as_the_three_stages(self, tmp_path, market_files):
        # each subcommand commits into its own directory: a commit keeps only its own run's outputs
        tv = {"q": None, "lambda": 1.0}
        bootstrap = {"replications": 100, "master_seed": 5}
        files = {}
        for command in ("all", "describe", "var", "efficiency"):
            cfg = config_file(tmp_path, market_files, tv=tv, bootstrap=bootstrap, output_dir=str(tmp_path / command))
            assert main([command, "--config", cfg]) == EXIT_OK
            files[command] = {p.name: p.read_bytes() for p in (tmp_path / command).iterdir() if p.name != "manifest.json"}
        three = {**files["describe"], **files["var"], **files["efficiency"]}
        assert len(three) == sum(len(files[c]) for c in ("describe", "var", "efficiency"))
        assert files["all"] == three
        manifest = json.loads((tmp_path / "all" / "manifest.json").read_text())
        report = json.loads(files["all"]["var_report.json"])
        assert manifest["command"] == "all"
        assert manifest["n_obs"] == 160
        assert manifest["selected_var_order"] == report["selected_p"] == manifest["tv_order"]
        assert manifest["bands"] is True and "bootstrap_flagged_cells" in manifest

    def test_date_range_keeping_every_date_changes_nothing(self, tmp_path, market_files):
        # the first and last price dates of market_files
        span = {"start": "2020-01-01", "end": (date(2020, 1, 1) + timedelta(days=160)).isoformat()}
        bootstrap = {"replications": 100, "master_seed": 5}
        for name, extra in (("plain", {}), ("span", {"date_range": span})):
            cfg = config_file(tmp_path, market_files, bootstrap=bootstrap, output_dir=str(tmp_path / name), **extra)
            assert main(["all", "--config", cfg]) == EXIT_OK
        for name in ("efficiency.csv", "var_report.json", "summary.json"):
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "span" / name).read_bytes(), name

    def test_plot_failure_leaves_no_outputs(self, tmp_path, market_files, monkeypatch):
        import mkteff.cli as cli_mod
        from mkteff.errors import NumericalError

        def boom(*args, **kwargs):
            raise NumericalError("plot stage failure")

        monkeypatch.setattr(cli_mod, "render_line_plot", boom)
        cfg = config_file(tmp_path, market_files, bootstrap={"replications": 100, "master_seed": 1})
        assert main(["all", "--config", cfg, "--dump-replications", "--export-coefficients"]) == 4
        out = tmp_path / "out"
        assert list(out.rglob("*")) == []

    def test_failed_rerun_leaves_earlier_outputs(self, tmp_path, market_files):
        def snapshot(out):
            return {str(p.relative_to(out)): p.read_bytes() if p.is_file() else None for p in out.rglob("*")}

        cfg = config_file(tmp_path, market_files, bootstrap={"replications": 100, "master_seed": 1})
        assert main(["all", "--config", cfg, "--dump-replications"]) == EXIT_OK
        out = tmp_path / "out"
        before = snapshot(out)
        assert sorted(before) == [
            "efficiency.csv", "efficiency.svg", "manifest.json", "replications",
            "replications/replications_000001_000100.csv", "summary.csv", "summary.json", "summary.txt",
            "var_report.json", "var_report.txt",
        ]
        # q leaves fewer than q + 3 rows: the efficiency stage fails after describe and var wrote
        assert main(["all", "--config", cfg, "--dump-replications", "--q", "158"]) == EXIT_DATA
        assert snapshot(out) == before

    @pytest.mark.parametrize("blocker", ["replications-file", "summary-directory"])
    def test_blocked_destination_leaves_earlier_outputs(self, tmp_path, market_files, capsys, blocker):
        cfg = config_file(tmp_path, market_files, bootstrap={"replications": 100, "master_seed": 1})
        out = tmp_path / "out"
        if blocker == "replications-file":
            assert main(["all", "--config", cfg]) == EXIT_OK
            (out / "replications").write_text("kept\n")
            expected = f"error: cannot write to output directory {out}: "
        else:
            assert main(["all", "--config", cfg, "--dump-replications"]) == EXIT_OK
            (out / "summary.txt").unlink()
            (out / "summary.txt").mkdir()
            expected = f"error: cannot write to output directory {out}: summary.txt is a directory\n"
        before = _snapshot(out)
        assert "manifest.json" in before
        assert main(["all", "--config", cfg, "--dump-replications"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(expected)
        assert _snapshot(out) == before

    def test_smaller_dump_rerun_leaves_only_its_own_files(self, tmp_path, market_files, monkeypatch):
        # the rerun's replications/ replaces the earlier one whole: no file of the larger dump stays
        import mkteff.bootstrap

        monkeypatch.setattr(mkteff.bootstrap, "DUMP_CHUNK", 100)

        def dump(name, replications):
            cfg = config_file(tmp_path, market_files, bootstrap={"replications": replications, "master_seed": 1},
                              output_dir=str(tmp_path / name))
            assert main(["all", "--config", cfg, "--dump-replications"]) == EXIT_OK
            files = _snapshot(tmp_path / name)
            del files["manifest.json"]  # its config names the output directory
            return files

        assert "replications/replications_000101_000200.csv" in dump("rerun", 200)
        rerun = dump("rerun", 100)
        assert sorted(p for p in rerun if p.startswith("replications")) == [
            "replications", "replications/replications_000001_000100.csv",
        ]
        assert rerun == dump("fresh", 100)

    def test_rerun_without_the_opt_in_outputs_removes_them(self, tmp_path, market_files):
        # the manifest records neither flag, so their outputs must not outlive the run that made them
        cfg = config_file(tmp_path, market_files, bootstrap={"replications": 100, "master_seed": 1})
        out = tmp_path / "out"
        assert main(["all", "--config", cfg, "--dump-replications", "--export-coefficients"]) == EXIT_OK
        assert (out / "replications").is_dir() and (out / "coefficients.csv").is_file()
        assert main(["all", "--config", cfg, "--replications", "0"]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "efficiency.csv", "efficiency.svg", "manifest.json", "summary.csv", "summary.json", "summary.txt",
            "var_report.json", "var_report.txt",
        ]
        assert json.loads((out / "manifest.json").read_text())["bands"] is False
        assert main(["all", "--config", cfg, "--export-coefficients"]) == EXIT_OK
        assert (out / "coefficients.csv").is_file() and not (out / "replications").exists()

    def test_interrupted_commit_leaves_no_manifest(self, tmp_path, market_files, monkeypatch):
        # the old manifest goes before the first rename and the new one comes last,
        # so a commit that stops part way leaves a directory without a manifest
        import mkteff.cli as cli_mod

        cfg = config_file(tmp_path, market_files, bootstrap={"replications": 100, "master_seed": 1})
        assert main(["all", "--config", cfg, "--dump-replications"]) == EXIT_OK
        out = tmp_path / "out"
        renamed = []

        def replace(src, dst):
            if len(renamed) == 3:
                raise OSError("disk gone")
            renamed.append(os.path.basename(dst))
            os.rename(src, dst)

        monkeypatch.setattr(cli_mod.os, "replace", replace)
        with pytest.raises(OSError, match="disk gone"):
            main(["all", "--config", cfg, "--dump-replications"])
        assert "manifest.json" not in renamed
        assert not (out / "manifest.json").exists()
        monkeypatch.undo()
        assert main(["all", "--config", cfg, "--dump-replications"]) == EXIT_OK
        assert (out / "manifest.json").exists()
        assert not list(out.glob(".mkteff-*"))

    def test_oversized_q_is_config_error(self, tmp_path, capsys):
        # q = 238 on T = 1686 needs hundreds of millions of band cells: refused before assembly
        rng = np.random.default_rng(11)
        files = []
        for name in ("one", "two", "three"):
            p = tmp_path / f"{name}.csv"
            write_price_csv(p, 50.0, rng.normal(0, 0.01, 1686))
            files.append((str(p), name))
        cfg = config_file(tmp_path, files)
        assert main(["all", "--config", cfg, "--q", "238"]) == EXIT_CONFIG
        assert "tv.q = 238" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []  # nothing committed, no .mkteff-* left

    def test_stationarity_gate_stops_after_describe(self, tmp_path):
        rng = np.random.default_rng(5)
        steps = np.cumsum(rng.normal(0, 0.002, 200))
        files = []
        for name in ("one", "two"):
            p = tmp_path / f"{name}.csv"
            write_price_csv(p, 50.0, steps)
            files.append((str(p), name))
        cfg = config_file(tmp_path, files)
        assert main(["all", "--config", cfg]) == EXIT_DATA
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "summary.csv", "summary.json", "summary.txt",
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "all" and manifest["n_obs"] == 200


def listing(out):
    return sorted(p.name for p in out.iterdir())


class TestCommit:
    """A commit leaves the output directory holding exactly what its manifest describes."""

    SUMMARY = ["manifest.json", "summary.csv", "summary.json", "summary.txt"]
    ALL = sorted(SUMMARY + ["efficiency.csv", "efficiency.svg", "var_report.json", "var_report.txt"])

    def simulate_into(self, tmp_path, out):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "white-noise", "n": 2, "T": 40, "seed": 5}))
        assert main(["simulate", "--spec", str(spec), "--output-dir", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("command, names", [
        ("describe", SUMMARY),
        ("var", ["manifest.json", "var_report.json", "var_report.txt"]),
        ("efficiency", ["efficiency.csv", "efficiency.svg", "manifest.json"]),
    ])
    def test_one_stage_into_an_all_directory_leaves_only_its_own_files(self, tmp_path, market_files, command, names):
        cfg = config_file(tmp_path, market_files, bootstrap={"replications": 100, "master_seed": 1})
        out = tmp_path / "out"
        assert main(["all", "--config", cfg, "--dump-replications", "--export-coefficients"]) == EXIT_OK
        assert main([command, "--config", cfg]) == EXIT_OK
        assert listing(out) == names
        assert json.loads((out / "manifest.json").read_text())["command"] == command

    def test_failed_gate_into_an_all_directory_leaves_the_summary(self, tmp_path):
        rng = np.random.default_rng(5)
        files = []
        for name in ("one", "two"):  # returns that are random walks fail the gate
            write_price_csv(tmp_path / f"{name}.csv", 50.0, np.cumsum(rng.normal(0, 0.002, 200)))
            files.append((str(tmp_path / f"{name}.csv"), name))
        cfg = config_file(tmp_path, files)
        out = tmp_path / "out"
        assert main(["all", "--config", cfg, "--allow-nonstationary", "--export-coefficients"]) == EXIT_OK
        assert listing(out) == sorted(self.ALL + ["coefficients.csv"])
        assert main(["all", "--config", cfg]) == EXIT_DATA
        assert listing(out) == self.SUMMARY
        assert "selected_var_order" not in json.loads((out / "manifest.json").read_text())

    def test_simulate_and_pipeline_replace_each_other(self, tmp_path, market_files):
        cfg = config_file(tmp_path, market_files)
        out = tmp_path / "out"
        assert main(["all", "--config", cfg]) == EXIT_OK
        self.simulate_into(tmp_path, out)
        assert listing(out) == ["manifest.json", "panel.csv", "truth.csv"]
        assert main(["all", "--config", cfg]) == EXIT_OK
        assert listing(out) == self.ALL

    @pytest.mark.parametrize("blocker, flags", [
        ("coefficients.csv", []),  # a directory at a file's name, though this run writes no coefficients
        ("replications", ["--replications", "0"]),  # a file at the directory's name, though this run dumps none
    ])
    def test_an_entry_of_the_wrong_kind_is_config_error(self, tmp_path, market_files, capsys, blocker, flags):
        cfg = config_file(tmp_path, market_files)
        out = tmp_path / "out"
        assert main(["all", "--config", cfg]) == EXIT_OK
        if blocker == "replications":
            (out / blocker).write_text("kept\n")
        else:
            (out / blocker).mkdir()
            (out / blocker / "notes.txt").write_text("kept\n")
        before = _snapshot(out)
        assert main(["all", "--config", cfg, *flags]) == EXIT_CONFIG
        kind = "a file" if blocker == "replications" else "a directory"
        assert capsys.readouterr().err == f"error: cannot write to output directory {out}: {blocker} is {kind}\n"
        assert _snapshot(out) == before

    def test_the_writers_stage_exactly_the_outputs(self, tmp_path, market_files):
        from mkteff.cli import OUTPUTS

        cfg = config_file(tmp_path, market_files, bootstrap={"replications": 100, "master_seed": 1})
        assert main(["all", "--config", cfg, "--dump-replications", "--export-coefficients"]) == EXIT_OK
        self.simulate_into(tmp_path, tmp_path / "sim")
        written = listing(tmp_path / "out") + listing(tmp_path / "sim")
        assert sorted(set(written)) == sorted(OUTPUTS)
        assert [p.name for p in (tmp_path / "out").iterdir() if p.is_dir()] == ["replications"]


def read_cells(path):
    """The rows of a CSV file as lists of cells, header first."""
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]


def read_floats(rows):
    """Cells read back as floats, a blank as NaN."""
    return np.array([[float(cell) if cell else np.nan for cell in row] for row in rows])


def assert_read_back(got, want):
    """Blank exactly where ``want`` is not finite, and the same bits everywhere else."""
    want = np.asarray(want, dtype=float)
    finite = np.isfinite(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), ~finite)
    assert np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64))


class TestCsvRoundTrip:
    """Every CSV output, read back cell by cell, holds the bits of the arrays it was written from."""

    def recorded(self, monkeypatch, module, name, seen):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: seen.setdefault(name, fn(*args)))

    def test_pipeline_outputs(self, tmp_path, market_files, monkeypatch):
        import mkteff.bootstrap
        import mkteff.cli as cli_mod

        seen, rows = {}, []
        for name in ("describe", "fit_tv_var", "efficiency_path"):
            self.recorded(monkeypatch, cli_mod, name, seen)
        dumped = mkteff.bootstrap._dumped
        monkeypatch.setattr(mkteff.bootstrap, "_dumped",
                            lambda results, *args: (rows.append(z.copy()) or z for z in dumped(results, *args)))
        cfg = config_file(tmp_path, market_files, bootstrap={"replications": 100, "master_seed": 9})
        assert main(["all", "--config", cfg, "--export-coefficients", "--dump-replications"]) == EXIT_OK
        out = tmp_path / "out"
        stats, fit, path = seen["describe"], seen["fit_tv_var"], seen["efficiency_path"]
        dates = [d.isoformat() for d in fit.dates]

        header, *cells = read_cells(out / "summary.csv")
        assert [row[0] for row in cells] == list(stats.asset_ids) and {row[5] for row in cells} == {str(stats.n_obs)}
        assert_read_back(read_floats(row[1:5] for row in cells),
                         np.column_stack([stats.mean, stats.sd, stats.minimum, stats.maximum]))

        header, *cells = read_cells(out / "efficiency.csv")
        assert [row[0] for row in cells] == dates and [row[4] for row in cells] == ["0"] * len(dates)
        assert path.band_low is not None
        assert_read_back(read_floats(row[1:4] for row in cells),
                         np.column_stack([path.zeta, path.band_low, path.band_high]))

        header, *cells = read_cells(out / "coefficients.csv")
        assert [row[0] for row in cells] == [d for d in dates for _ in range(4)]
        assert_read_back(read_floats(row[4:] for row in cells), fit.A_path.reshape(-1, 1))

        header, *cells = read_cells(out / "replications" / "replications_000001_000100.csv")
        assert [row[:2] for row in cells] == [[str(b), d] for b in range(1, 101) for d in dates]
        assert len(rows) == 100
        assert_read_back(read_floats(row[2:] for row in cells), np.concatenate(rows)[:, None])

    def test_simulate_outputs(self, tmp_path, monkeypatch):
        # the drift ends at A = 1, where I - A is singular: the last zeta is blank
        import mkteff.cli as cli_mod

        seen = {}
        self.recorded(monkeypatch, cli_mod, "simulate", seen)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"kind": "tv-var-linear-drift", "n": 1, "T": 40, "coefficients": 0.0, "coefficients_end": 1.0}))
        assert main(["simulate", "--spec", str(spec), "--output-dir", str(tmp_path / "sim")]) == EXIT_OK
        panel, truth = seen["simulate"]
        dates = [d.isoformat() for d in panel.dates]

        header, *cells = read_cells(tmp_path / "sim" / "panel.csv")
        assert header == ["date", *panel.asset_ids] and [row[0] for row in cells] == dates
        assert_read_back(read_floats(row[1:] for row in cells), panel.values)

        header, *cells = read_cells(tmp_path / "sim" / "truth.csv")
        assert header == ["date", "zeta", "a1_0_0"] and [row[0] for row in cells] == dates
        assert cells[-1][1] == "" and not np.isfinite(truth.zeta[-1])
        assert_read_back(read_floats(row[1:] for row in cells),
                         np.column_stack([truth.zeta, truth.A_path.reshape(len(dates), -1)]))


def test_panel_and_regressors_are_f_ordered(tmp_path, market_files):
    """describe's sd, the VAR's HAC errors and adjusted R2 and the bootstrap's residual
    centring sum in memory order, so their bits depend on this layout; a date window keeps it."""
    with open(config_file(tmp_path, market_files), encoding="utf-8") as fh:
        cfg = build_config(json.load(fh), argparse.Namespace())
    returns = load_returns_panel(cfg)
    assert returns.n_assets > 1 and returns.values.flags.f_contiguous
    cfg.date_start = date(2020, 2, 1)
    assert load_returns_panel(cfg).values.flags.f_contiguous
    assert fit_var_ols(returns, 2).regressors.flags.f_contiguous


def test_readme_library_example_runs(tmp_path, monkeypatch):
    """The README's Library block as written, on price files of a small simulated
    panel and with a few hundred replications."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    assert block.count("replications=10_000") == 1
    panel, _ = simulate(DgpSpec(kind="white-noise", n=3, T=300, seed=3, innovation_sd=0.01))
    files = []
    for i, name in enumerate(panel.asset_ids):
        write_price_csv(tmp_path / f"{name}.csv", 100.0, panel.values[:, i])
        files.append((str(tmp_path / f"{name}.csv"), name))
    monkeypatch.chdir(tmp_path)
    scope = {"files": files}
    exec(compile(block.replace("replications=10_000", "replications=300"), "README.md", "exec"), scope)
    assert sorted(scope["granger"]) == sorted(panel.asset_ids)
    rows = [line.split(",") for line in (tmp_path / "efficiency.csv").read_text(encoding="utf-8").splitlines()]
    assert len(rows) == 1 + 300 - scope["q"]
    assert all(row[2] and row[3] for row in rows[1:])  # a band at every date


@st.composite
def degenerate_runs(draw):
    """Price files of a small panel built from duplicated, scaled, constant, rounded
    and kinked series (or one file that is not UTF-8), and odd lag settings."""
    n = draw(st.sampled_from([1, 2, 2, 3, 3, 4]))
    T = draw(st.integers(30, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    walk = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, T)))
    t = np.arange(T)
    shapes = {
        "walk": lambda: 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, T))),
        "duplicate": lambda: walk,
        "scaled": lambda: 3.0 * walk,
        "constant": lambda: np.full(T, 50.0),
        "rounded": lambda: np.round(walk),
        "kinked": lambda: 50.0 * np.exp(0.001 * np.minimum(t, T // 2) - 0.002 * np.maximum(t - T // 2, 0)),
    }
    start = date(2020, 1, 1)
    files = []
    for _ in range(n):
        prices = shapes[draw(st.sampled_from(["walk", "walk", *sorted(shapes)]))]()
        lines = ["date,close"] + [f"{start + timedelta(days=i)},{p!r}" for i, p in enumerate(prices.tolist())]
        files.append(("\n".join(lines) + "\n").encode())
    if draw(st.integers(0, 3)) == 0:
        files[draw(st.integers(0, n - 1))] = NON_UTF8_CSV
    flags = ["--p-max", str(draw(st.integers(1, 9)))]
    q = draw(st.sampled_from([None, 1, 2, 3]))
    if q is not None:
        flags += ["--q", str(q)]
    return files, draw(st.integers(0, 13)), flags


def _snapshot(root):
    """Every path under ``root`` with its bytes (None for a directory)."""
    paths = {}
    for d, dirs, names in os.walk(root):
        for name in dirs:
            paths[os.path.relpath(os.path.join(d, name), root)] = None
        for name in names:
            with open(os.path.join(d, name), "rb") as fh:
                paths[os.path.relpath(os.path.join(d, name), root)] = fh.read()
    return paths


@settings(max_examples=40, deadline=None)
@given(degenerate_runs())
def test_degenerate_inputs_end_in_an_exit_code(run):
    """Any panel ends in 0, 2, 3 or 4 with no traceback, and a failed run changes
    nothing in the output directory. The stationarity gate is off here: its exit 3
    commits the summary by design (test_stationarity_gate_stops_after_describe)."""
    files, max_lag, flags = run
    with tempfile.TemporaryDirectory() as root:
        inputs = []
        for i, data in enumerate(files):
            path = os.path.join(root, f"a{i}.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            inputs.append({"path": path, "asset_id": f"a{i}"})
        out = os.path.join(root, "out")
        os.makedirs(out)
        with open(os.path.join(out, "summary.txt"), "w") as fh:
            fh.write("an earlier run\n")
        cfg = os.path.join(root, "config.json")
        with open(cfg, "w") as fh:
            json.dump({"inputs": inputs, "unit_root": {"max_lag": max_lag}, "output_dir": out}, fh)
        before = _snapshot(out)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["all", "--config", cfg, "--replications", "0", "--allow-nonstationary", *flags])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert _snapshot(out) == before
