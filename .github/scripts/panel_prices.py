"""Write one price file per asset of a simulated returns panel.

Usage: python panel_prices.py PANEL_CSV PREFIX [DATE_FORMAT]

PANEL_CSV is the ``panel.csv`` that ``mkteff simulate`` writes (a date column,
then one log-return column per asset). For each asset it writes
``<PREFIX><asset>.csv`` with a ``date,close`` header, LF line endings and rows
in date order, where close is 100 exp(cumulative return). Dates are written as
in the panel (ISO), or with the ``strftime`` pattern DATE_FORMAT if given.
"""

import csv
import math
import sys
from datetime import date


def main(panel_csv: str, prefix: str, date_format: str = "") -> None:
    with open(panel_csv, encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    for j, name in enumerate(header[1:], start=1):
        with open(f"{prefix}{name}.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write("date,close\n")
            log_p = 0.0
            for row in rows:
                log_p += float(row[j])
                day = date.fromisoformat(row[0]).strftime(date_format) if date_format else row[0]
                fh.write(f"{day},{100.0 * math.exp(log_p)!r}\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
