"""Command-line pipeline: describe, var, efficiency, simulate, all.

Configuration lives in one JSON file; command-line flags override single
values. Each pipeline command loads the returns panel once and runs its stages
(describe, var, efficiency; ``all`` runs the three) against it, then writes one
manifest with the effective configuration, seeds and every stage's fields,
sufficient to reproduce its outputs exactly (nothing time-stamped, so reruns
are byte-identical). Every command writes into a staging directory inside the
output directory and moves its files into place only once it has finished.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure; on an error the output directory is left as it was.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import __version__
from .bootstrap import BootstrapConfig, bootstrap_bands
from .efficiency import efficiency_path
from .errors import ConfigError, DataError, NumericalError, typed
from .market_data import (
    AlignedPanel,
    CsvFormat,
    align,
    describe,
    load_price_series,
    log_returns,
)
from .svg import render_line_plot
from .synth import DgpSpec, simulate
from .tv_var import LAMBDA_MODES, SOLVER_BANDED, TvVarConfig, export_coefficient_paths, fit_tv_var
from .unit_root import DETREND_CONSTANT, DETREND_TREND, adf_gls_test
from .var_base import fit_var_ols, granger_causality, hansen_lc, select_lag_bic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class Field(NamedTuple):
    """One config value, a row of ``FIELDS``."""

    section: str | None  # None: a top-level key
    key: str
    attr: str | None  # the PipelineConfig attribute; None: retired, accepts only the default
    kind: object  # see errors.typed; a field whose default is None also takes null
    default: object
    flag: str | None = None

    @property
    def name(self) -> str:
        return f"{self.section}.{self.key}" if self.section else self.key


# The config schema: it drives the JSON parse, the key checks, echo() and the
# flags. The csv attributes are the fields of CsvFormat.
FIELDS = (
    Field("csv", "delimiter", "delimiter", str, ","),
    Field("csv", "date_column", "date_column", int, 0),
    Field("csv", "price_column", "price_column", int, 1),
    Field("csv", "date_format", "date_format", str, "iso"),
    Field("csv", "skip_bad_rows", "skip_bad_rows", bool, False),
    Field("date_range", "start", "date_start", date, None, "--date-start"),
    Field("date_range", "end", "date_end", date, None, "--date-end"),
    Field("var", "p_max", "p_max", int, 8, "--p-max"),
    Field("unit_root", "max_lag", "unit_root_max_lag", int, None),
    Field("unit_root", "model", "unit_root_model", (DETREND_CONSTANT, DETREND_TREND), DETREND_TREND),
    Field("tv", "q", "tv_q", int, None, "--q"),
    Field("tv", "lambda", "lam", float, 1.0, "--lambda"),
    Field("tv", "lambda_mode", "lambda_mode", LAMBDA_MODES, "fixed", "--lambda-mode"),
    Field("tv", "solver", None, str, SOLVER_BANDED),
    Field("bootstrap", "replications", "replications", int, 10_000, "--replications"),
    Field("bootstrap", "coverage", "coverage", float, 0.95, "--coverage"),
    Field("bootstrap", "master_seed", "master_seed", int, 0, "--master-seed"),
    Field("bootstrap", "n_jobs", "n_jobs", int, 1, "--n-jobs"),
    Field(None, "event_date", "event_date", date, None, "--event-date"),
    Field(None, "output_dir", "output_dir", str, "out", "--output-dir"),
    Field(None, "allow_nonstationary", "allow_nonstationary", bool, False, "--allow-nonstationary"),
)
SECTIONS = {f.section: {g.key for g in FIELDS if g.section == f.section} for f in FIELDS if f.section}


class PipelineConfig(SimpleNamespace):
    """Effective settings for one run (config file merged with flag overrides).

    An attribute per ``FIELDS`` row; ``inputs``, the (path, asset_id) pairs;
    the flag-only ``export_coefficients`` and ``dump_replications``; and
    ``csv`` and ``bootstrap``, the library configs built from their sections.
    """

    def echo(self) -> dict:
        """The config document that reproduces this run, defaults filled in."""
        doc = {"inputs": [{"path": p, "asset_id": a} for p, a in self.inputs]}
        for f in FIELDS:
            if f.attr:
                value = getattr(self, f.attr)
                if isinstance(value, date):
                    value = value.isoformat()
                (doc.setdefault(f.section, {}) if f.section else doc)[f.key] = value
        return doc


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return doc


def _inputs(doc: dict, args: argparse.Namespace) -> list:
    """(path, asset_id) pairs from the ``--input`` flags if given, else the config; ids non-empty and distinct."""
    pairs = []
    if getattr(args, "input", None):
        name = "--input"
        for spec in args.input:
            path, _, asset = spec.rpartition(":")
            if not path:
                raise ConfigError(f"--input expects PATH:ASSET_ID, got {spec!r}")
            pairs.append((path, asset))
    else:
        name = "inputs.asset_id"
        for item in typed(doc.get("inputs", []), list, "inputs"):
            if not isinstance(item, dict) or not {"path", "asset_id"} <= set(item):
                raise ConfigError(f"each input needs 'path' and 'asset_id', got {item!r}")
            pairs.append((typed(item["path"], str, "inputs.path"),
                          typed(item["asset_id"], str, name)))
    ids = [asset for _, asset in pairs]
    if "" in ids or len(set(ids)) < len(ids):
        raise ConfigError(f"{name}: asset ids must be non-empty and distinct, got {', '.join(map(repr, ids))}")
    return pairs


def build_config(doc: dict, args: argparse.Namespace) -> PipelineConfig:
    """Merge the JSON document with flag overrides (flags win) and check every value.

    Any bad value raises ``ConfigError`` here, before a stage runs or a file
    is written.
    """
    unknown = set(doc) - set(SECTIONS) - {f.key for f in FIELDS if not f.section} - {"inputs"}
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
    for section, keys in SECTIONS.items():
        if not isinstance(doc.get(section, {}), dict):
            raise ConfigError(f"{section} must be a JSON object, got {doc[section]!r}")
        extra = set(doc.get(section, {})) - keys
        if extra:
            raise ConfigError(f"unknown key(s) in '{section}': {', '.join(sorted(extra))}")
    values = {}
    for f in FIELDS:
        name = f.name
        value = (doc.get(f.section, {}) if f.section else doc).get(f.key, f.default)
        if f.flag and getattr(args, f.attr, None) is not None:
            name, value = f.flag, getattr(args, f.attr)
        if value is not None or f.default is not None:
            value = typed(value, f.kind, name)
        if f.attr:
            values[f.attr] = value
        elif value != f.default:  # tv.solver, the one retired key
            raise ConfigError(
                f"{name} must be {f.default!r}, got {value!r}; "
                "the dense reference solver is a test oracle (tests/oracles.py)"
            )
    cfg = PipelineConfig(
        inputs=_inputs(doc, args),
        export_coefficients=bool(getattr(args, "export_coefficients", False)),
        dump_replications=bool(getattr(args, "dump_replications", False)),
        **values,
    )
    # The library objects check their own ranges: build them before any stage
    # runs. A null q is chosen later, so 1 stands in for it here.
    cfg.csv = CsvFormat(**{f.attr: values[f.attr] for f in FIELDS if f.section == "csv"})
    cfg.bootstrap = BootstrapConfig(cfg.replications, cfg.coverage, cfg.master_seed)
    TvVarConfig(q=1 if cfg.tv_q is None else cfg.tv_q, lam=cfg.lam, lambda_mode=cfg.lambda_mode)
    if cfg.unit_root_max_lag is not None and cfg.unit_root_max_lag < 0:
        raise ConfigError("unit_root.max_lag must be non-negative")
    if cfg.p_max < 1:
        raise ConfigError("var.p_max must be at least 1")
    if cfg.n_jobs < 1:
        raise ConfigError("bootstrap.n_jobs must be at least 1")
    if not cfg.output_dir:
        raise ConfigError("output_dir must not be empty")
    return cfg


def load_returns_panel(cfg: PipelineConfig) -> AlignedPanel:
    """Load, align, window, and difference the configured inputs."""
    if len(cfg.inputs) < 2:
        raise DataError("panel requires at least 2 assets; configure more inputs")
    series = []
    for path, asset in cfg.inputs:
        try:
            with open(path, "rb") as fh:
                series.append(load_price_series(fh, asset, cfg.csv))
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
    prices = align(series)
    if cfg.date_start or cfg.date_end:
        prices = prices.window(cfg.date_start, cfg.date_end)
    return log_returns(prices)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _manifest_text(command: str, **fields) -> str:
    return _json_text({"tool": "mkteff", "version": __version__, "command": command, **fields})


@contextmanager
def _staged(output_dir: str):
    """A new staging directory in ``output_dir``, the one place a command writes. On a
    normal exit each staged file is renamed into ``output_dir`` under its subpath; on an
    exception none is. Either way the staging directory is then removed.

    The old ``manifest.json`` is removed before the first rename and the new one is
    renamed last, so a directory that holds a manifest holds that run's complete output."""
    os.makedirs(output_dir, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".mkteff-", dir=output_dir)
    manifest = os.path.join(output_dir, "manifest.json")
    try:
        yield stage
        if os.path.exists(manifest):
            os.unlink(manifest)
        for root, _, files in os.walk(stage, topdown=False):  # the stage's own files last
            dest = os.path.join(output_dir, os.path.relpath(root, stage))
            os.makedirs(dest, exist_ok=True)
            for name in sorted(files, key=lambda f: f == "manifest.json"):  # and its manifest after them
                os.replace(os.path.join(root, name), os.path.join(dest, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _stars(p_value: float) -> str:
    if p_value < 0.01:
        return "***"
    if p_value < 0.05:
        return "**"
    if p_value < 0.10:
        return "*"
    return ""


def summary_table_text(stats, adf_results) -> str:
    """Per-asset stats and unit-root columns, four printed decimals."""
    header = (
        f"{'asset':<10}{'mean':>10}{'sd':>10}{'min':>10}{'max':>10}"
        f"{'adf_gls':>12}{'lag':>5}{'phi_hat':>10}{'N':>7}"
    )
    lines = [header, "-" * len(header)]
    for i, asset in enumerate(stats.asset_ids):
        r = adf_results[asset]
        lines.append(
            f"{asset:<10}{stats.mean[i]:>10.4f}{stats.sd[i]:>10.4f}"
            f"{stats.minimum[i]:>10.4f}{stats.maximum[i]:>10.4f}"
            f"{r.statistic:>12.4f}{r.chosen_lag:>5d}{r.phi_hat:>10.4f}{stats.n_obs:>7d}"
        )
    return "\n".join(lines) + "\n"


def var_table_text(est, granger_results, lc) -> str:
    """Coefficients with bracketed robust errors, adjusted R2, test rows."""
    n = est.n_assets
    names = ["constant"] + [
        f"{est.asset_ids[j]}[-{l}]" for l in range(1, est.p + 1) for j in range(n)
    ]
    width = max(12, max(len(x) for x in names) + 2)
    cols = "".join(f"{a:>14}" for a in est.asset_ids)
    lines = [f"{'':{width}}{cols}"]
    for row, name in enumerate(names):
        coefs = "".join(f"{est.coefficients[row, i]:>14.4f}" for i in range(n))
        ses = "".join(f"{'[' + format(est.robust_se[i, row], '.4f') + ']':>14}" for i in range(n))
        lines.append(f"{name:<{width}}{coefs}")
        lines.append(f"{'':{width}}{ses}")
    lines.append(f"{'adj_R2':<{width}}" + "".join(f"{v:>14.4f}" for v in est.adj_r2))
    granger_cells = []
    for a in est.asset_ids:
        g = granger_results[a]
        granger_cells.append(f"{format(g.f_statistic, '.4f') + _stars(g.p_value):>14}")
    lines.append(f"{'granger_F':<{width}}" + "".join(granger_cells))
    lc_stars = "***" if lc.rejects_at(0.01) else ("**" if lc.rejects_at(0.05) else ("*" if lc.rejects_at(0.10) else ""))
    lines.append(f"{'Lc':<{width}}{format(lc.lc_statistic, '.4f') + lc_stars:>14}")
    return "\n".join(lines) + "\n"


@dataclass
class PipelineRun:
    """State one run hands from stage to stage.

    The returns panel is loaded once; ``stage`` is the staging directory every
    output goes to; ``var_order`` is the BIC order once the var stage has
    selected it; ``manifest`` collects every stage's fields.
    """

    cfg: PipelineConfig
    returns: AlignedPanel
    stage: str
    manifest: dict = field(default_factory=dict)
    var_order: int | None = None

    def output(self, name: str) -> str:
        """Staging path of an output file."""
        return os.path.join(self.stage, name)

    def write(self, name: str, text: str) -> None:
        _write(self.output(name), text)


def _describe_stage(run: PipelineRun) -> int:
    cfg, returns = run.cfg, run.returns
    stats = describe(returns)
    adf_results = {
        asset: adf_gls_test(returns.column(asset), cfg.unit_root_max_lag, cfg.unit_root_model)
        for asset in returns.asset_ids
    }
    run.write("summary.txt", summary_table_text(stats, adf_results))
    doc = stats.to_dict()
    doc["unit_root"] = {a: r.to_dict() for a, r in adf_results.items()}
    run.write("summary.json", _json_text(doc))
    run.write("summary.csv", stats.to_csv_text())
    run.manifest["n_obs"] = stats.n_obs
    failing = [a for a, r in adf_results.items() if not r.rejects_at(0.01)]
    if failing:
        msg = f"stationarity gate failed at 1% for: {', '.join(failing)}"
        if cfg.allow_nonstationary:
            print(f"warning: {msg} (continuing)", file=sys.stderr)
        else:
            print(f"error: {msg}", file=sys.stderr)
            return EXIT_DATA
    return EXIT_OK


def _var_stage(run: PipelineRun) -> int:
    returns = run.returns
    p = run.var_order = select_lag_bic(returns, run.cfg.p_max)
    est = fit_var_ols(returns, p)
    granger_results = {
        a: granger_causality(returns, p, a, estimate=est) for a in returns.asset_ids
    }
    lc = hansen_lc(returns, p, estimate=est)
    run.write("var_report.txt", f"selected lag order: {p}\n\n" + var_table_text(est, granger_results, lc))
    doc = {
        "selected_p": p,
        "intercept": [float(v) for v in est.nu],
        "coefficients": est.coefficients.tolist(),
        "robust_se": est.robust_se.tolist(),
        "adj_r2": est.adj_r2.tolist(),
        "bic": est.bic,
        "granger": {a: g.to_dict() for a, g in granger_results.items()},
        "hansen_lc": lc.to_dict(),
        "n_obs": est.nobs,
    }
    run.write("var_report.json", _json_text(doc))
    run.manifest["selected_var_order"] = p
    return EXIT_OK


def _efficiency_stage(run: PipelineRun) -> int:
    cfg, returns = run.cfg, run.returns
    q = cfg.tv_q
    if q is None:
        q = run.var_order if run.var_order is not None else select_lag_bic(returns, cfg.p_max)
    tv_config = TvVarConfig(q=q, lam=cfg.lam, lambda_mode=cfg.lambda_mode)
    fit = fit_tv_var(returns, tv_config)
    path = efficiency_path(fit)
    run.manifest.update(
        tv_order=q,
        lambda_effective=fit.lambda_effective,
        solver=SOLVER_BANDED,
        ridge_jitter=fit.ridge_jitter,
        intercept_pivot=fit.intercept_pivot,
        seeds={"master_seed": cfg.master_seed},
        bands=cfg.replications > 0,
        singular_dates=int(path.singular.sum()),
    )
    if cfg.replications > 0:
        bands = bootstrap_bands(
            returns,
            tv_config,
            cfg.bootstrap,
            estimate=fit,
            n_jobs=cfg.n_jobs,
            dump_dir=run.output("replications") if cfg.dump_replications else None,
        )
        path = path.with_bands(bands.lower, bands.upper)
        run.manifest["bootstrap_flagged_cells"] = int(bands.flagged_counts.sum())
        run.manifest["bootstrap_flagged_max_per_date"] = int(bands.flagged_counts.max(initial=0))
    path.write_csv(run.output("efficiency.csv"))
    run.write(
        "efficiency.svg",
        render_line_plot(path.dates, path.zeta, path.band_low, path.band_high, cfg.event_date),
    )
    if cfg.export_coefficients:
        export_coefficient_paths(fit, run.output("coefficients.csv"))
    return EXIT_OK


STAGES = {
    "describe": (_describe_stage,),
    "var": (_var_stage,),
    "efficiency": (_efficiency_stage,),
    "all": (_describe_stage, _var_stage, _efficiency_stage),
}


def run_pipeline(cfg: PipelineConfig, command: str) -> int:
    """Run one pipeline command: load the returns once, run its stages, write one manifest.

    A failed stationarity gate ends the run after the describe stage with
    ``EXIT_DATA``, its summary and the manifest committed. On an exception
    nothing is committed.
    """
    with _staged(cfg.output_dir) as stage:
        run = PipelineRun(cfg, load_returns_panel(cfg), stage)
        code = EXIT_OK
        for step in STAGES[command]:
            code = step(run)
            if code != EXIT_OK:
                break
        run.write("manifest.json", _manifest_text(command, config=cfg.echo(), **run.manifest))
    return code


def _cmd_simulate(args: argparse.Namespace) -> int:
    if not args.output_dir:
        raise ConfigError("--output-dir must not be empty")
    doc = _load_json(args.spec)
    spec = DgpSpec.from_dict(doc)
    panel, truth = simulate(spec)
    with _staged(args.output_dir) as stage:
        lines = ["date," + ",".join(panel.asset_ids)]
        for i, d in enumerate(panel.dates):
            lines.append(d.isoformat() + "," + ",".join(repr(float(v)) for v in panel.values[i]))
        _write(os.path.join(stage, "panel.csv"), "\n".join(lines) + "\n")

        q, n = spec.q, spec.n
        coef_names = [f"a{l + 1}_{i}_{j}" for l in range(q) for i in range(n) for j in range(n)]
        lines = ["date,zeta," + ",".join(coef_names)]
        for t, d in enumerate(panel.dates):
            z = truth.zeta[t]
            zcell = repr(float(z)) if np.isfinite(z) else ""
            flat = truth.A_path[t].ravel()
            lines.append(d.isoformat() + f",{zcell}," + ",".join(repr(float(v)) for v in flat))
        _write(os.path.join(stage, "truth.csv"), "\n".join(lines) + "\n")
        _write(os.path.join(stage, "manifest.json"), _manifest_text("simulate", spec=doc, seeds={"seed": spec.seed}))
    return EXIT_OK


def _add_pipeline_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON configuration file")
    sp.add_argument("--input", action="append", metavar="PATH:ASSET_ID",
                    help="price file and label; repeat per asset (overrides config inputs)")
    for f in FIELDS:
        if f.flag is None:
            continue
        if f.kind is bool:
            sp.add_argument(f.flag, dest=f.attr, action="store_true", default=None, help=f"sets {f.name}")
        else:
            sp.add_argument(f.flag, dest=f.attr, help=f"sets {f.name}",
                            type=f.kind if f.kind in (int, float) else None,
                            choices=f.kind if isinstance(f.kind, tuple) else None)
    sp.add_argument("--export-coefficients", action="store_true")
    sp.add_argument("--dump-replications", action="store_true")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkteff",
        description="Time-varying joint market efficiency across asset return series",
    )
    parser.add_argument("--version", action="version", version=f"mkteff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("describe", "summary statistics and unit-root gate"),
        ("var", "constant VAR report: order selection, causality, constancy"),
        ("efficiency", "time-varying fit, degree path, bootstrap bands, plot"),
        ("all", "describe + var + efficiency in one pass, one manifest"),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_pipeline_flags(sp)
    sim = sub.add_parser("simulate", help="generate a synthetic panel with ground truth")
    sim.add_argument("--spec", required=True, help="JSON DGP specification")
    sim.add_argument("--output-dir", dest="output_dir", default="out")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        doc = _load_json(args.config) if args.config else {}
        cfg = build_config(doc, args)
        return run_pipeline(cfg, args.command)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
