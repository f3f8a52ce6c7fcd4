"""Traced in-process run of ``mkteff all`` and the per-layer numbers it yields.

Run as a script (with the package's ``src`` on ``PYTHONPATH``)::

    python perfbench/tracer.py SPANS_JSON all --config CONFIG [--n-jobs 1]

it wraps the public functions of each package module where the CLI and the
bootstrap call them, calls ``mkteff.cli.main`` with the remaining arguments,
and writes the spans it kept in memory to SPANS_JSON. Spans are only recorded
around calls into a layer, from this file; nothing inside the package changes.

A span is ``[name, layer, start, end, parent, replication, ok]``. The resample,
fit and path spans of one bootstrap replication share a replication id: a call
to ``resample_null_panel`` starts the next replication. Spans recorded in pool
workers stay in the workers, so per-replication numbers come from a pass with
``--n-jobs 1``.

``layer_metrics`` turns a spans file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

LAYERS = ("market_data", "unit_root", "var_base", "tv_var", "efficiency", "bootstrap", "svg", "cli")

# (module, attribute, layer): the CLI imports names into its own namespace,
# and the bootstrap calls fit and path through its own.
CLI_CALLS = (
    ("mkteff.cli", "build_config", "cli"),
    ("mkteff.cli", "load_returns_panel", "cli"),
    ("mkteff.cli", "summary_table_text", "cli"),
    ("mkteff.cli", "var_table_text", "cli"),
    ("mkteff.cli", "load_price_series", "market_data"),
    ("mkteff.cli", "align", "market_data"),
    ("mkteff.cli", "log_returns", "market_data"),
    ("mkteff.cli", "describe", "market_data"),
    ("mkteff.cli", "adf_gls_test", "unit_root"),
    ("mkteff.cli", "select_lag_bic", "var_base"),
    ("mkteff.cli", "fit_var_ols", "var_base"),
    ("mkteff.cli", "granger_causality", "var_base"),
    ("mkteff.cli", "hansen_lc", "var_base"),
    ("mkteff.cli", "fit_tv_var", "tv_var"),
    ("mkteff.cli", "efficiency_path", "efficiency"),
    ("mkteff.cli", "bootstrap_bands", "bootstrap"),
    ("mkteff.cli", "render_line_plot", "svg"),
)
REPLICATION_CALLS = (
    ("mkteff.bootstrap", "resample_null_panel", "bootstrap"),
    ("mkteff.bootstrap", "fit_tv_var", "tv_var"),
    ("mkteff.bootstrap", "efficiency_path", "efficiency"),
)


class Tracer:
    """Spans and counts kept in memory for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []
        self._replication = 0

    def span(self, name: str, layer: str | None, fn, in_replication: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if in_replication and name == "bootstrap.resample_null_panel":
                self._replication += 1
            rep = self._replication if in_replication and self._replication else None
            parent = self._open[-1] if self._open else None
            idx = len(self.spans)
            self.spans.append([name, layer, 0.0, 0.0, parent, rep, False])
            self._open.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                self.spans[idx][6] = True
                self.observe(name, result)
                return result
            finally:
                self.spans[idx][2:4] = start, time.perf_counter()
                self._open.pop()
        return traced

    def observe(self, name: str, result) -> None:
        """Counts taken from results at the layer boundary."""
        if name == "unit_root.adf_gls_test" and not result.rejects_at(0.01):
            self.counts["gate_rejects"] = self.counts.get("gate_rejects", 0) + 1
        elif name == "bootstrap.bootstrap_bands":
            self.counts["flagged_cells"] = int(np.sum(result.flagged_counts))
            self.counts["flagged_base"] = result.replications * len(result.dates)

    def install(self) -> list[str]:
        """Wrap every traced call site; return the ones the package lacks."""
        from mkteff.efficiency import EfficiencyPath

        missing = []
        for calls, in_rep in ((CLI_CALLS, False), (REPLICATION_CALLS, True)):
            for module, attr, layer in calls:
                mod = importlib.import_module(module)
                fn = getattr(mod, attr, None)
                if fn is None:
                    missing.append(f"{module}.{attr}")
                    continue
                setattr(mod, attr, self.span(f"{layer}.{attr}", layer, fn, in_rep))
        EfficiencyPath.write_csv = self.span("efficiency.write_csv", "efficiency", EfficiencyPath.write_csv)
        return missing


def _self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part its direct children cover."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] is not None:
            out[s[4]] -= s[3] - s[2]
    return out


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least ten of ``n`` samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer numbers from one serial traced pass."""
    spans, counts = doc["spans"], doc["counts"]
    selfs = _self_times(spans)
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    m["trace.main_s"] = m["trace.unattributed_s"] = 0.0
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, own in zip(spans, selfs):
        name, layer = s[0], s[1]
        total[name] = total.get(name, 0.0) + s[3] - s[2]
        calls[name] = calls.get(name, 0) + 1
        if layer is not None:
            m[f"{layer}.self_s"] += own
        else:
            m["trace.main_s"] = s[3] - s[2]
            m["trace.unattributed_s"] = own

    reps: dict[int, dict] = {}
    for s in spans:
        if s[5] is not None:
            r = reps.setdefault(s[5], {"start": s[2], "end": s[3], "ok": True})
            r["start"], r["end"] = min(r["start"], s[2]), max(r["end"], s[3])
            r[s[0]] = s[3] - s[2]
            r["ok"] = r["ok"] and s[6]
    pct = tail_percentile(len(reps))

    def per_rep(key: str | None) -> np.ndarray:
        if key is None:
            vals = [r["end"] - r["start"] for r in reps.values()]
        else:
            vals = [r[key] for r in reps.values() if key in r]
        return 1e3 * np.asarray(vals, dtype=float)

    def p(values: np.ndarray, q: float) -> float:
        return float(np.percentile(values, q)) if values.size else 0.0

    fit, path, rep = per_rep("tv_var.fit_tv_var"), per_rep("efficiency.efficiency_path"), per_rep(None)
    m.update({
        "market_data.load_s": total.get("market_data.load_price_series", 0.0),
        "market_data.load_calls": calls.get("market_data.load_price_series", 0),
        "market_data.align_s": total.get("market_data.align", 0.0),
        "cli.panel_loads": calls.get("cli.load_returns_panel", 0),
        "unit_root.adf_s": total.get("unit_root.adf_gls_test", 0.0),
        "unit_root.gate_rejects": counts.get("gate_rejects", 0),
        "var_base.bic_s": total.get("var_base.select_lag_bic", 0.0),
        "var_base.bic_calls": calls.get("var_base.select_lag_bic", 0),
        "var_base.ols_s": total.get("var_base.fit_var_ols", 0.0),
        "var_base.granger_s": total.get("var_base.granger_causality", 0.0),
        "var_base.hansen_s": total.get("var_base.hansen_lc", 0.0),
        "tv_var.fit_s": total.get("tv_var.fit_tv_var", 0.0),
        "tv_var.fit_calls": calls.get("tv_var.fit_tv_var", 0),
        "tv_var.rep_fit_ms.p50": p(fit, 50),
        "tv_var.rep_fit_ms.tail": p(fit, pct),
        "efficiency.path_s": total.get("efficiency.efficiency_path", 0.0),
        "efficiency.rep_path_ms.p50": p(path, 50),
        "efficiency.rep_path_ms.tail": p(path, pct),
        "efficiency.write_csv_s": total.get("efficiency.write_csv", 0.0),
        "bootstrap.bands_s": total.get("bootstrap.bootstrap_bands", 0.0),
        "bootstrap.reps": len(reps),
        "bootstrap.rep_ms.p50": p(rep, 50),
        "bootstrap.rep_ms.tail": p(rep, pct),
        "bootstrap.resample_ms.p50": p(per_rep("bootstrap.resample_null_panel"), 50),
        "bootstrap.failed_reps": sum(1 for r in reps.values() if not r["ok"]),
        "bootstrap.flagged_base": counts.get("flagged_base", 0),
        "svg.render_s": total.get("svg.render_line_plot", 0.0),
        "trace.tail_pct": pct,
    })
    base = m["bootstrap.flagged_base"]
    m["bootstrap.flagged_share"] = counts.get("flagged_cells", 0) / base if base else 0.0
    return m


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import mkteff.cli

    tracer = Tracer()
    for name in tracer.install():
        print(f"tracer: {name} not found; not traced", file=sys.stderr)
    run = tracer.span("main", None, mkteff.cli.main)
    code = run(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts, "exit_code": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
