"""Price ingestion, trading-calendar alignment, log returns, and summary statistics.

Input files are delimited text with a header row and one (date, price) pair
per line. Alignment across assets is a strict inner join on dates: weekday
markets and seven-day markets only overlap where both actually traded, and
forward-filling would fabricate zero returns on non-trading days.
"""

from __future__ import annotations

import io
import math
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, datetime
from typing import IO, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "CsvFormat",
    "PriceSeries",
    "AlignedPanel",
    "DescriptiveStats",
    "RowParseError",
    "NonPositivePriceError",
    "DuplicateDateError",
    "EmptyInputError",
    "EmptyIntersectionError",
    "load_price_series",
    "align",
    "log_returns",
    "describe",
]


class RowParseError(DataError):
    """A row could not be parsed. Carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class NonPositivePriceError(DataError):
    """A price was zero or negative; log differencing would be undefined."""


class DuplicateDateError(DataError):
    """The same calendar date appeared more than once in one series."""


class EmptyInputError(DataError):
    """No data rows were found."""


class EmptyIntersectionError(DataError):
    """No common dates remain across the input series (or after filtering)."""


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

    def parse_date(self, text: str) -> date:
        if self.date_format == "iso":
            return date.fromisoformat(text.strip())
        return datetime.strptime(text.strip(), self.date_format).date()


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """One asset's price history: strictly increasing dates, positive prices."""

    asset_id: str
    dates: tuple[date, ...]
    prices: np.ndarray

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "prices", prices)
        if len(self.dates) != prices.shape[0]:
            raise DataError(
                f"{self.asset_id}: {len(self.dates)} dates but {prices.shape[0]} prices"
            )
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur == prev:
                raise DuplicateDateError(f"{self.asset_id}: duplicate date {cur}")
            if cur < prev:
                raise DataError(f"{self.asset_id}: dates not increasing at {cur}")
        if prices.size and not np.all(prices > 0):
            bad = self.dates[int(np.argmax(~(prices > 0)))]
            raise NonPositivePriceError(
                f"{self.asset_id}: non-positive price on {bad}"
            )

    def __len__(self) -> int:
        return len(self.dates)


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
        if not np.all(np.isfinite(values)):
            raise DataError("panel contains missing or non-finite cells")
        if self.kind == "prices" and values.size and not np.all(values > 0):
            raise NonPositivePriceError("price panel contains non-positive cells")

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
            raise EmptyIntersectionError("no dates remain after date-range filter")
        return AlignedPanel(
            dates=tuple(self.dates[i] for i in keep),
            values=self.values[keep],
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

    def to_csv_text(self, delimiter: str = ",") -> str:
        lines = [delimiter.join(["asset", "mean", "sd", "min", "max", "n_obs"])]
        for i, a in enumerate(self.asset_ids):
            lines.append(
                delimiter.join(
                    [
                        a,
                        repr(float(self.mean[i])),
                        repr(float(self.sd[i])),
                        repr(float(self.minimum[i])),
                        repr(float(self.maximum[i])),
                        str(self.n_obs),
                    ]
                )
            )
        return "\n".join(lines) + "\n"


@contextmanager
def _text_stream(source) -> Iterator[IO[str]]:
    """Text view of ``source``: a path is opened and closed here; a byte stream is
    wrapped and detached afterwards, so the caller's stream stays open."""
    if not hasattr(source, "read"):
        with open(source, "r", encoding="utf-8") as fh:
            yield fh
    elif isinstance(source.read(0), bytes):
        wrapper = io.TextIOWrapper(source, encoding="utf-8")
        try:
            yield wrapper
        finally:
            wrapper.detach()
    else:
        yield source


def load_price_series(source, asset_id: str, format_options: CsvFormat | None = None) -> PriceSeries:
    """Parse one asset's (date, price) file into a validated PriceSeries.

    ``source`` is a readable text or byte stream (or a path). The first line is
    treated as a header and skipped. Malformed rows abort with their line number
    unless ``format_options.skip_bad_rows`` is set; duplicate dates and
    non-positive prices always abort. A path is closed after reading; a stream
    passed in is left open.
    """
    fmt = format_options or CsvFormat()
    dates: list[date] = []
    prices: list[float] = []
    seen: set[date] = set()
    ncol = max(fmt.date_column, fmt.price_column) + 1
    with _text_stream(source) as stream:
        for lineno, raw in enumerate(stream, start=1):
            if lineno == 1:
                continue  # header
            line = raw.strip()
            if not line:
                continue
            parts = line.split(fmt.delimiter)
            if len(parts) < ncol:
                if fmt.skip_bad_rows:
                    continue
                raise RowParseError(lineno, f"expected at least {ncol} columns, got {len(parts)}")
            try:
                d = fmt.parse_date(parts[fmt.date_column])
            except ValueError as exc:
                if fmt.skip_bad_rows:
                    continue
                raise RowParseError(lineno, f"bad date {parts[fmt.date_column]!r}: {exc}") from exc
            try:
                p = float(parts[fmt.price_column])
            except ValueError as exc:
                if fmt.skip_bad_rows:
                    continue
                raise RowParseError(lineno, f"bad price {parts[fmt.price_column]!r}") from exc
            if not math.isfinite(p):
                if fmt.skip_bad_rows:
                    continue
                raise RowParseError(lineno, f"non-finite price {parts[fmt.price_column]!r}")
            if p <= 0:
                raise NonPositivePriceError(f"{asset_id}: non-positive price {p} on {d} (line {lineno})")
            if d in seen:
                raise DuplicateDateError(f"{asset_id}: duplicate date {d} (line {lineno})")
            seen.add(d)
            dates.append(d)
            prices.append(p)
    if not dates:
        raise EmptyInputError(f"{asset_id}: no data rows")
    order = sorted(range(len(dates)), key=dates.__getitem__)
    return PriceSeries(
        asset_id=asset_id,
        dates=tuple(dates[i] for i in order),
        prices=np.array([prices[i] for i in order]),
    )


def align(series: Sequence[PriceSeries]) -> AlignedPanel:
    """Inner-join at least two series on their common dates, sorted ascending."""
    if len(series) < 2:
        raise DataError("alignment requires at least 2 series")
    for s in series:
        if len(s) == 0:
            raise EmptyInputError(f"{s.asset_id}: empty series")
    common = set(series[0].dates)
    for s in series[1:]:
        common &= set(s.dates)
    if not common:
        raise EmptyIntersectionError(
            "no common dates across series " + ", ".join(s.asset_id for s in series)
        )
    dates = tuple(sorted(common))
    cols = []
    for s in series:
        lookup = dict(zip(s.dates, s.prices))
        cols.append([lookup[d] for d in dates])
    return AlignedPanel(
        dates=dates,
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
