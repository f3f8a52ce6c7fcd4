"""Output check of one ``mkteff all`` run against recorded reference outputs.

A reference entry is recorded per (workload, input panel) by ``run.py
--write-reference`` and kept in ``reference/<workload>.json``. It holds:

* the SHA-256 of ``efficiency.csv``, ``var_report.json`` and ``summary.json``,
  which decides ``byte_identical`` but not correctness;
* the layout of ``efficiency.csv``: header, dates, ``singular`` flags and which
  cells are blank, all of which must match exactly (so must the row count);
* sums of each ``efficiency.csv`` float column over blocks of ``BLOCK_ROWS``
  rows;
* ``var_report.json`` and ``summary.json`` as parsed JSON.

Floats must agree elementwise within ``|out - ref| <= RTOL * |ref| + ATOL``.
JSON floats are compared one by one. The efficiency columns are compared
through their block sums with the summed tolerance ``RTOL * sum + ATOL * rows``;
since the degree and its bands are non-negative, every output that meets the
elementwise tolerance passes. Integers, strings and booleans (selected lag,
row counts, chosen ADF lags) must match exactly. A run may add keys to the JSON
files; every key of the reference must be present. Invariants checked on every
run: ``zeta >= 0`` where defined and ``band_low <= band_high``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

FILES = ("efficiency.csv", "var_report.json", "summary.json")
FLOAT_COLUMNS = ("zeta", "band_low", "band_high")
HEADER = "date,zeta,band_low,band_high,singular"
BLOCK_ROWS = 32
RTOL = 1e-9
ATOL = 1e-12


class OutputMismatch(Exception):
    """The outputs of a run differ from the reference or break an invariant."""


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_efficiency(path: str) -> tuple[str, dict]:
    """Return the layout digest and per-column block sums; check invariants."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != HEADER:
        raise OutputMismatch(f"efficiency.csv: unexpected header {lines[:1]}")
    layout = hashlib.sha256()
    sums = {c: [] for c in FLOAT_COLUMNS}
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != 5 or cells[4] not in ("0", "1"):
            raise OutputMismatch(f"efficiency.csv row {i + 1}: malformed {line!r}")
        layout.update(f"{cells[0]},{','.join('x' if c else '' for c in cells[1:4])},{cells[4]}\n".encode())
        z, lo, hi = (float(c) if c else math.nan for c in cells[1:4])
        if z < 0:
            raise OutputMismatch(f"efficiency.csv {cells[0]}: zeta {z} < 0")
        if lo > hi:
            raise OutputMismatch(f"efficiency.csv {cells[0]}: band_low {lo} > band_high {hi}")
        if i % BLOCK_ROWS == 0:
            for c in FLOAT_COLUMNS:
                sums[c].append(0.0)
        for c, v in zip(FLOAT_COLUMNS, (z, lo, hi)):
            if not math.isnan(v):
                sums[c][-1] += v
    return f"{len(lines) - 1}:{layout.hexdigest()}", sums


def record(out_dir: str) -> dict:
    """Reference entry for the outputs in ``out_dir``."""
    layout, sums = _read_efficiency(os.path.join(out_dir, "efficiency.csv"))
    entry = {"sha256": {f: _sha256(os.path.join(out_dir, f)) for f in FILES},
             "efficiency_layout": layout, "efficiency_block_sums": sums}
    for f in FILES[1:]:
        with open(os.path.join(out_dir, f), encoding="utf-8") as fh:
            entry[f] = json.load(fh)
    return entry


def _close(out: float, ref: float, scale: float = 1.0) -> bool:
    if math.isnan(ref):
        return math.isnan(out)
    return abs(out - ref) <= RTOL * abs(ref) + ATOL * scale


def _compare_json(out, ref, where: str) -> None:
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            raise OutputMismatch(f"{where}: expected an object")
        for key, value in ref.items():
            if key not in out:
                raise OutputMismatch(f"{where}.{key}: missing")
            _compare_json(out[key], value, f"{where}.{key}")
    elif isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            raise OutputMismatch(f"{where}: expected a list of {len(ref)}")
        for i, (o, r) in enumerate(zip(out, ref)):
            _compare_json(o, r, f"{where}[{i}]")
    elif isinstance(ref, float):
        if not isinstance(out, (int, float)) or isinstance(out, bool) or not _close(out, ref):
            raise OutputMismatch(f"{where}: {out!r} differs from {ref!r}")
    elif type(out) is not type(ref) or out != ref:
        raise OutputMismatch(f"{where}: {out!r} differs from {ref!r}")


def check(out_dir: str, ref: dict) -> bool:
    """Raise ``OutputMismatch`` unless the outputs match ``ref``; return byte identity."""
    missing = [f for f in FILES if not os.path.isfile(os.path.join(out_dir, f))]
    if missing:
        raise OutputMismatch(f"missing output(s): {', '.join(missing)}")
    got = record(out_dir)
    if got["efficiency_layout"] != ref["efficiency_layout"]:
        raise OutputMismatch("efficiency.csv: rows, dates, singular flags or blank cells differ")
    for c in FLOAT_COLUMNS:
        for k, (o, r) in enumerate(zip(got["efficiency_block_sums"][c], ref["efficiency_block_sums"][c])):
            if not _close(o, r, BLOCK_ROWS):
                raise OutputMismatch(f"efficiency.csv {c}: block {k} sums to {o!r}, reference {r!r}")
    for f in FILES[1:]:
        _compare_json(got[f], ref[f], f)
    return got["sha256"] == ref["sha256"]
