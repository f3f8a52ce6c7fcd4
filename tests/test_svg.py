from datetime import date

import numpy as np

from mkteff.svg import render_line_plot

from conftest import make_dates


def test_polylines_break_at_nan():
    # five dates, NaN gaps in zeta and in each band; the x axis spans 70..880
    svg = render_line_plot(
        make_dates(5, start=date(2021, 3, 1)),
        np.array([0.1, 0.4, np.nan, 0.3, 0.2]),
        np.array([0.0, 0.2, np.nan, 0.1, 0.1]),
        np.array([0.3, 0.6, 0.7, np.nan, 0.4]),
    )
    band = 'stroke="#cc2222" stroke-width="1" stroke-dasharray="6 4"'
    line = 'stroke="#1a1a1a" stroke-width="1.5"'
    assert [row for row in svg.splitlines() if row.startswith("<polyline")] == [
        f'<polyline fill="none" {band} points="70.00,412.27 272.50,310.97"/>',
        f'<polyline fill="none" {band} points="677.50,361.62 880.00,361.62"/>',
        f'<polyline fill="none" {band} points="70.00,260.32 272.50,108.38 475.00,57.73"/>',
        f'<polyline fill="none" {band} points="880.00,209.68"/>',
        f'<polyline fill="none" {line} points="70.00,361.62 272.50,209.68"/>',
        f'<polyline fill="none" {line} points="677.50,260.32 880.00,310.97"/>',
    ]
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
