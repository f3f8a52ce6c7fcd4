"""Price ingestion, trading-calendar alignment, log returns, and summary statistics.

Input files are delimited text with a header row and one (date, price) pair
per line. Alignment across assets is a strict inner join on dates: weekday
markets and seven-day markets only overlap where both actually traded, and
forward-filling would fabricate zero returns on non-trading days.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from datetime import date, datetime
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "CsvFormat",
    "PriceSeries",
    "AlignedPanel",
    "DescriptiveStats",
    "load_price_series",
    "align",
    "log_returns",
    "describe",
]


@dataclass(frozen=True)
class CsvFormat:
    """Column mapping for delimited price files.

    ``date_format`` is either ``"iso"`` (YYYY-MM-DD) or a ``strptime`` pattern.
    With ``skip_bad_rows`` set, rows with unparseable prices are skipped instead
    of aborting the load; structural violations (duplicates, non-positive
    prices) always abort.
    """

    delimiter: str = ","
    date_column: int = 0
    price_column: int = 1
    date_format: str = "iso"
    skip_bad_rows: bool = False

    def __post_init__(self):
        if not isinstance(self.delimiter, str) or not self.delimiter:
            raise ConfigError(f"csv.delimiter must be a non-empty string, got {self.delimiter!r}")
        if self.date_column < 0 or self.price_column < 0:
            raise ConfigError("csv.date_column and csv.price_column must be non-negative")
        if self.date_column == self.price_column:
            raise ConfigError(f"csv.date_column and csv.price_column must differ, both are {self.date_column}")

    def parse_days(self, cells: Iterable[str]) -> Iterator[int]:
        """The day number (``date.toordinal``) of the date in each cell, ignoring
        blanks around it; a bad cell raises ValueError."""
        texts = map(str.strip, cells)
        if self.date_format == "iso":
            return map(date.toordinal, map(date.fromisoformat, texts))
        return (datetime.strptime(text, self.date_format).toordinal() for text in texts)


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """One asset's price history: strictly increasing dates, positive prices.

    ``days`` holds the dates as day numbers (``date.toordinal``, int64), on which
    the order is checked and series are aligned; ``dates`` reads them back.
    """

    asset_id: str
    days: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        days = np.asarray(self.days, dtype=np.int64)
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "days", days)
        object.__setattr__(self, "prices", prices)
        if days.shape[0] != prices.shape[0]:
            raise DataError(f"{self.asset_id}: {days.shape[0]} dates but {prices.shape[0]} prices")
        step = np.diff(days)
        if not np.all(step > 0):
            i = int(np.argmax(step <= 0))
            cur = date.fromordinal(int(days[i + 1]))
            if step[i] == 0:
                raise DataError(f"{self.asset_id}: duplicate date {cur}")
            raise DataError(f"{self.asset_id}: dates not increasing at {cur}")
        if not np.all(prices > 0):
            bad = date.fromordinal(int(days[np.argmax(~(prices > 0))]))
            raise DataError(f"{self.asset_id}: non-positive price on {bad}")

    @property
    def dates(self) -> tuple[date, ...]:
        return tuple(map(date.fromordinal, self.days.tolist()))

    def __len__(self) -> int:
        return self.days.shape[0]


@dataclass(frozen=True, eq=False)
class AlignedPanel:
    """Date-indexed matrix of prices or log returns with no missing cells."""

    dates: tuple[date, ...]
    values: np.ndarray
    asset_ids: tuple[str, ...]
    kind: str  # "prices" or "returns"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise DataError("panel values must be a 2-d matrix")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "asset_ids", tuple(self.asset_ids))
        if self.kind not in ("prices", "returns"):
            raise DataError(f"unknown panel kind {self.kind!r}")
        if values.shape[0] != len(self.dates):
            raise DataError("row count does not match date count")
        if values.shape[1] != len(self.asset_ids):
            raise DataError("column count does not match asset count")
        if len(set(self.asset_ids)) < len(self.asset_ids):
            raise DataError(f"asset ids repeat: {', '.join(map(repr, self.asset_ids))}")
        if not np.all(np.isfinite(values)):
            raise DataError("panel contains missing or non-finite cells")
        if self.kind == "prices" and values.size and not np.all(values > 0):
            raise DataError("price panel contains non-positive cells")

    @property
    def n_periods(self) -> int:
        return self.values.shape[0]

    @property
    def n_assets(self) -> int:
        return self.values.shape[1]

    def column(self, asset_id: str) -> np.ndarray:
        return self.values[:, self.asset_ids.index(asset_id)]

    def window(self, start: date | None = None, end: date | None = None) -> "AlignedPanel":
        """Restrict to dates in [start, end]; raises if nothing remains."""
        keep = [
            i
            for i, d in enumerate(self.dates)
            if (start is None or d >= start) and (end is None or d <= end)
        ]
        if not keep:
            raise DataError("no dates remain after date-range filter")
        return AlignedPanel(
            dates=tuple(self.dates[i] for i in keep),
            values=np.asfortranarray(self.values[keep]),  # the layout align built
            asset_ids=self.asset_ids,
            kind=self.kind,
        )


@dataclass(frozen=True, eq=False)
class DescriptiveStats:
    """Per-asset mean, sample SD (T-1 denominator), min, max, and the row count."""

    asset_ids: tuple[str, ...]
    mean: np.ndarray
    sd: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    n_obs: int

    def to_dict(self) -> dict:
        return {
            "n_obs": self.n_obs,
            "assets": {
                a: {
                    "mean": float(self.mean[i]),
                    "sd": float(self.sd[i]),
                    "min": float(self.minimum[i]),
                    "max": float(self.maximum[i]),
                }
                for i, a in enumerate(self.asset_ids)
            },
        }

    def write_csv(self, path) -> None:
        """Columns: asset, mean, sd, min, max, n_obs; one row per asset."""
        stats = np.column_stack([self.mean, self.sd, self.minimum, self.maximum])
        rows = [(a, *float_cells(row), str(self.n_obs)) for a, row in zip(self.asset_ids, stats)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(csv_lines([("asset", "mean", "sd", "min", "max", "n_obs"), *rows]))


def float_cells(values) -> list[str]:
    """Each float of ``values``, flattened, as a CSV cell: its shortest ``repr``, which
    reads back as the same float, or a blank where it is not finite. Every float an
    output CSV file holds is written by this rule."""
    return [repr(x) if math.isfinite(x) else "" for x in np.asarray(values, dtype=float).ravel().tolist()]


def csv_lines(rows: Iterable[Iterable[str]]) -> Iterator[str]:
    """Each row of cells as one line of CSV text: the cells joined by commas, then a newline."""
    return (",".join(row) + "\n" for row in rows)


def _read_lines(path, asset_id: str) -> list[str]:
    """The lines of the file at ``path``, decoded as UTF-8 with universal newlines
    (CRLF and a lone CR end a line too).

    A file that cannot be read aborts, and so do bytes that are not UTF-8, with
    their line number. Anything but a path (a stream, or an int that ``open``
    would take as a file descriptor and close) raises TypeError.
    """
    try:
        with open(os.fspath(path), "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise DataError(f"{asset_id}: line {line} is not valid UTF-8 ({exc.reason})") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


# Rows parsed per block in ``_parse_columns``. Only one block's cell strings are
# alive at a time, so the allocator keeps far fewer small-object pools for the
# rest of the run than a whole file's cells would leave behind.
_BLOCK_ROWS = 1024


def _parse_columns(rows: list[str], fmt: CsvFormat) -> tuple[np.ndarray, np.ndarray] | None:
    """Day numbers and prices of stripped, non-blank ``rows``, parsed a column at a time.

    Returns None if the rows differ in width or any row breaks a cell rule (too
    few columns, a bad date, a bad, non-finite or non-positive price);
    ``_parse_rows`` then reports or skips it.
    """
    width = min(map(str.count, rows, repeat(fmt.delimiter)), default=0) + 1
    if "\n" in fmt.delimiter or width <= max(fmt.date_column, fmt.price_column):
        return None
    days = np.empty(len(rows), np.int64)
    prices = np.empty(len(rows))
    for at in range(0, len(rows), _BLOCK_ROWS):
        block = rows[at : at + _BLOCK_ROWS]
        cut = slice(at, at + len(block))
        # One flat list of cells. Rows hold no "\n", so no match of the delimiter
        # spans two rows; and as every row has at least ``width`` cells, the total
        # says whether each has exactly that many.
        cells = "\n".join(block).replace(fmt.delimiter, "\n").split("\n")
        if len(cells) != len(block) * width:
            return None
        try:
            days[cut] = np.fromiter(fmt.parse_days(cells[fmt.date_column :: width]), np.int64, len(block))
            prices[cut] = np.fromiter(map(float, cells[fmt.price_column :: width]), float, len(block))
        except ValueError:
            return None
    if not np.all((prices > 0) & np.isfinite(prices)):
        return None
    return days, prices


def _parse_rows(body: list[str], fmt: CsvFormat, asset_id: str) -> tuple[np.ndarray, np.ndarray]:
    """Row-by-row parse of the stripped lines after the header, in file order.

    The first row that breaks a rule aborts with its line number, or is skipped
    with ``skip_bad_rows`` where the rule allows it.
    """
    days: list[int] = []
    prices: list[float] = []
    seen: set[int] = set()
    ncol = max(fmt.date_column, fmt.price_column) + 1
    for lineno, line in enumerate(body, start=2):
        if not line:
            continue
        parts = line.split(fmt.delimiter)
        if len(parts) < ncol:
            if fmt.skip_bad_rows:
                continue
            raise DataError(f"{asset_id}: line {lineno}: expected at least {ncol} columns, got {len(parts)}")
        try:
            day = next(fmt.parse_days((parts[fmt.date_column],)))
        except ValueError as exc:
            if fmt.skip_bad_rows:
                continue
            raise DataError(f"{asset_id}: line {lineno}: bad date {parts[fmt.date_column]!r}: {exc}") from exc
        try:
            p = float(parts[fmt.price_column])
        except ValueError as exc:
            if fmt.skip_bad_rows:
                continue
            raise DataError(f"{asset_id}: line {lineno}: bad price {parts[fmt.price_column]!r}") from exc
        if not math.isfinite(p):
            if fmt.skip_bad_rows:
                continue
            raise DataError(f"{asset_id}: line {lineno}: non-finite price {parts[fmt.price_column]!r}")
        if p <= 0:
            raise DataError(f"{asset_id}: non-positive price {p} on {date.fromordinal(day)} (line {lineno})")
        if day in seen:
            raise DataError(f"{asset_id}: duplicate date {date.fromordinal(day)} (line {lineno})")
        seen.add(day)
        days.append(day)
        prices.append(p)
    return np.array(days, dtype=np.int64), np.array(prices, dtype=float)


def _in_date_order(asset_id: str, days: np.ndarray, prices: np.ndarray) -> PriceSeries | None:
    """The series sorted by day number, or None if a day repeats."""
    if not days.size:
        raise DataError(f"{asset_id}: no data rows")
    order = np.argsort(days)
    days = days[order]
    if np.any(days[1:] == days[:-1]):
        return None
    return PriceSeries(asset_id, days, prices[order])


def load_price_series(path, asset_id: str, format_options: CsvFormat | None = None) -> PriceSeries:
    """Parse one asset's (date, price) file into a validated PriceSeries.

    ``path`` is a path (``str`` or ``os.PathLike``) to a UTF-8 file, which is
    read whole and closed; one that cannot be read raises DataError. The first
    line is treated as a header and skipped, and so are blank lines. Malformed
    rows abort with their line number unless ``format_options.skip_bad_rows``
    is set; duplicate dates and non-positive prices always abort. The first bad
    row in file order is the one reported.

    Clean input is parsed a column at a time; any input that breaks a rule is
    parsed again row by row, which reports or skips the offending rows.
    """
    fmt = format_options or CsvFormat()
    body = list(map(str.strip, _read_lines(path, asset_id)[1:]))  # line 1 is the header
    columns = _parse_columns(list(filter(None, body)), fmt)
    series = None if columns is None else _in_date_order(asset_id, *columns)
    if series is None:
        series = _in_date_order(asset_id, *_parse_rows(body, fmt, asset_id))
    return series


def align(series: Sequence[PriceSeries]) -> AlignedPanel:
    """Inner-join at least two series on their common dates, sorted ascending."""
    if len(series) < 2:
        raise DataError("alignment requires at least 2 series")
    for s in series:
        if len(s) == 0:
            raise DataError(f"{s.asset_id}: empty series")
    common = series[0].days
    for s in series[1:]:
        common = np.intersect1d(common, s.days, assume_unique=True)
    if not common.size:
        raise DataError("no common dates across series " + ", ".join(s.asset_id for s in series))
    cols = [s.prices[np.searchsorted(s.days, common)] for s in series]
    return AlignedPanel(
        dates=tuple(map(date.fromordinal, common.tolist())),
        # F-order; describe's sd, the VAR's HAC errors and adjusted R2 and the bands' centring sum in memory order
        values=np.array(cols, dtype=float).T,
        asset_ids=tuple(s.asset_id for s in series),
        kind="prices",
    )


def log_returns(panel: AlignedPanel) -> AlignedPanel:
    """Log first differences of a price panel; output has one fewer row."""
    if panel.kind != "prices":
        raise DataError("log_returns expects a price panel")
    if panel.n_periods < 2:
        raise DataError("need at least 2 rows to difference")
    return AlignedPanel(
        dates=panel.dates[1:],
        values=np.diff(np.log(panel.values), axis=0),
        asset_ids=panel.asset_ids,
        kind="returns",
    )


def describe(panel: AlignedPanel) -> DescriptiveStats:
    """Per-asset summary statistics of a returns panel."""
    if panel.n_periods < 2:
        raise DataError("need at least 2 rows to describe")
    v = panel.values
    return DescriptiveStats(
        asset_ids=panel.asset_ids,
        mean=v.mean(axis=0),
        sd=v.std(axis=0, ddof=1),
        minimum=v.min(axis=0),
        maximum=v.max(axis=0),
        n_obs=panel.n_periods,
    )
