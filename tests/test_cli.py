import argparse
import contextlib
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

from mkteff.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, build_config, load_returns_panel, main
from mkteff.var_base import fit_var_ols


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
        for run, jobs in ((1, 1), (2, 1), (3, 2)):
            out_dir = str(tmp_path / f"out{run}")
            cfg = config_file(
                tmp_path, market_files,
                bootstrap={"replications": 100, "master_seed": 33, "n_jobs": jobs},
                output_dir=out_dir,
            )
            assert main(["efficiency", "--config", cfg]) == EXIT_OK
            outputs.append((tmp_path / f"out{run}" / "efficiency.csv").read_bytes())
            manifest = json.loads((tmp_path / f"out{run}" / "manifest.json").read_text())
            manifests.append({k: v for k, v in manifest.items() if k != "config"})
        assert outputs[0] == outputs[1] == outputs[2]
        assert manifests[0] == manifests[1] == manifests[2]  # flag counts included

    def test_partial_outputs_removed_on_failure(self, tmp_path, market_files, monkeypatch):
        import mkteff.cli as cli_mod
        from mkteff.errors import NumericalError

        def boom(*args, **kwargs):
            raise NumericalError("plot stage failure")

        monkeypatch.setattr(cli_mod, "render_line_plot", boom)
        cfg = config_file(tmp_path, market_files)
        assert main(["efficiency", "--config", cfg]) == 4
        assert not (tmp_path / "out" / "efficiency.csv").exists()

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
         ("coefficients", "abc"), ("coefficients_end", [[1.0], [2.0, 3.0]])],
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

    def test_rerun_byte_identical(self, tmp_path):
        spec = self.spec_file(tmp_path, {"kind": "constant-var", "n": 1, "T": 30, "coefficients": 0.3, "seed": 12})
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--spec", spec, "--output-dir", a]) == EXIT_OK
        assert main(["simulate", "--spec", spec, "--output-dir", b]) == EXIT_OK
        assert (tmp_path / "a" / "panel.csv").read_bytes() == (tmp_path / "b" / "panel.csv").read_bytes()
        assert (tmp_path / "a" / "truth.csv").read_bytes() == (tmp_path / "b" / "truth.csv").read_bytes()


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["describe", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_non_object_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        assert main(["describe", "--config", str(bad)]) == EXIT_CONFIG

    def test_unknown_config_field(self, tmp_path, market_files):
        cfg = config_file(tmp_path, market_files, plotting={"dpi": 300})
        assert main(["describe", "--config", cfg]) == EXIT_CONFIG

    def test_missing_input_file(self, tmp_path):
        cfg = config_file(tmp_path, [(str(tmp_path / "ghost.csv"), "G"), (str(tmp_path / "g2.csv"), "H")])
        assert main(["describe", "--config", cfg]) == EXIT_DATA

    def test_input_flag_format(self, tmp_path):
        assert main(["describe", "--input", "justapath"]) == EXIT_CONFIG

    def test_non_utf8_input_is_data_error(self, tmp_path, market_files, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(NON_UTF8_CSV)
        cfg = config_file(tmp_path, [market_files[0], (str(bad), "BAD")])
        assert main(["describe", "--config", cfg]) == EXIT_DATA
        assert "BAD: line 3 is not valid UTF-8" in capsys.readouterr().err
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
        [["--lambda", "-1"], ["--coverage", "7"], ["--replications", "50"], ["--output-dir", ""],
         ["--input", "a.csv:A", "--input", "b.csv:A", "--input", "c.csv:C"], ["--input", "a.csv:", "--input", "b.csv:B"]],
        ids=["lambda", "coverage", "replications", "output-dir", "duplicate-input-id", "empty-input-id"],
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


class TestAll:
    def test_import_loads_no_heavy_scipy_modules(self):
        import mkteff

        src = os.path.dirname(os.path.dirname(mkteff.__file__))
        code = (
            "import sys, mkteff.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'sparse'], ['scipy', 'optimize'])))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

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
        tv = {"q": None, "lambda": 1.0}
        bootstrap = {"replications": 100, "master_seed": 5}
        one = config_file(tmp_path, market_files, tv=tv, bootstrap=bootstrap, output_dir=str(tmp_path / "one"))
        assert main(["all", "--config", one]) == EXIT_OK
        three = config_file(tmp_path, market_files, tv=tv, bootstrap=bootstrap, output_dir=str(tmp_path / "three"))
        for command in ("describe", "var", "efficiency"):
            assert main([command, "--config", three]) == EXIT_OK
        names = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "three").iterdir())
        for name in names:
            if name != "manifest.json":
                assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "three" / name).read_bytes(), name
        manifest = json.loads((tmp_path / "one" / "manifest.json").read_text())
        report = json.loads((tmp_path / "one" / "var_report.json").read_text())
        assert manifest["command"] == "all"
        assert manifest["n_obs"] == 160
        assert manifest["selected_var_order"] == report["selected_p"] == manifest["tv_order"]
        assert manifest["bands"] is True and "bootstrap_flagged_cells" in manifest

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


def test_panel_and_regressors_are_f_ordered(tmp_path, market_files):
    """The Hansen Lc sum runs in memory order, so its bits depend on this layout."""
    with open(config_file(tmp_path, market_files), encoding="utf-8") as fh:
        cfg = build_config(json.load(fh), argparse.Namespace())
    returns = load_returns_panel(cfg)
    assert returns.n_assets > 1 and returns.values.flags.f_contiguous
    assert fit_var_ols(returns, 2).regressors.flags.f_contiguous


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
