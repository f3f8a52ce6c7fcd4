import gc
import io
import math
import os
import re
import tempfile
import tracemalloc
import warnings
from datetime import date, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mkteff import CsvFormat, align, describe, load_price_series, log_returns, market_data
from mkteff.errors import ConfigError, DataError

from conftest import make_panel, make_series
from oracles import naive_align, naive_load_price_series


def load(text, asset="X", fmt=None):
    """Load ``text`` from a price file that holds it as UTF-8, line ends as given."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prices.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        return load_price_series(path, asset, fmt)


class TestLoad:
    def test_two_rows(self):
        s = load("date,price\n2014-09-17,457.33\n2014-09-18,424.44\n")
        assert len(s) == 2
        assert s.dates == (date(2014, 9, 17), date(2014, 9, 18))
        assert s.prices.tolist() == [457.33, 424.44]

    @pytest.mark.parametrize(
        "stream",
        [io.StringIO("date,price\n2020-01-01,10\n"), io.BytesIO(b"date,price\n2020-01-01,10\n")],
        ids=["text", "bytes"],
    )
    def test_stream_is_not_a_path(self, stream):
        with pytest.raises(TypeError):
            load_price_series(stream, "X")

    def test_file_descriptor_is_not_a_path(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("date,price\n2020-01-01,10\n")
        fd = os.open(path, os.O_RDONLY)
        try:
            with pytest.raises(TypeError):
                load_price_series(fd, "X")
            os.fstat(fd)  # still open
        finally:
            os.close(fd)

    def test_path_is_closed(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("date,price\n2020-01-01,10\n2020-01-02,11\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            s = load_price_series(str(path), "X")
            gc.collect()
        assert s.prices.tolist() == [10.0, 11.0]
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_path_is_data_error(self, tmp_path, kind):
        path = tmp_path / "x.csv"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(DataError, match=f"^cannot read {re.escape(str(path))}: "):
            load_price_series(str(path), "X")

    def test_duplicate_date_names_the_date(self):
        with pytest.raises(DataError, match="2014-09-17"):
            load("date,price\n2014-09-17,1\n2014-09-17,2\n")

    def test_zero_price_rejected(self):
        with pytest.raises(DataError, match=r"^X: non-positive price 0.0 on 2020-01-01 \(line 2\)$"):
            load("date,price\n2020-01-01,0.0\n")

    def test_malformed_price_reports_line_number(self):
        with pytest.raises(DataError, match="^X: line 3: bad price 'oops'$"):
            load("date,price\n2020-01-01,1\n2020-01-02,oops\n")

    def test_skip_flag_drops_bad_rows(self):
        s = load(
            "date,price\n2020-01-01,1\n2020-01-02,oops\n2020-01-03,2\n",
            fmt=CsvFormat(skip_bad_rows=True),
        )
        assert len(s) == 2

    def test_empty_input(self):
        with pytest.raises(DataError, match="^X: no data rows$"):
            load("date,price\n")

    def test_custom_columns_and_delimiter(self):
        text = "price;date\n3.5;2020-01-01\n"
        s = load(text, fmt=CsvFormat(delimiter=";", date_column=1, price_column=0))
        assert s.prices.tolist() == [3.5]

    @pytest.mark.parametrize(
        "fmt, name",
        [({"delimiter": ""}, "csv.delimiter"), ({"date_column": -1}, "csv.date_column"),
         ({"date_column": 1, "price_column": 1}, "csv.date_column and csv.price_column must differ, both are 1")],
        ids=["empty-delimiter", "negative-date-column", "equal-columns"],
    )
    def test_invalid_format_is_config_error(self, fmt, name):
        with pytest.raises(ConfigError, match=name):
            load("date,price\n2020-01-01,1\n", fmt=CsvFormat(**fmt))

    def test_loaded_series_holds_only_its_arrays(self, tmp_path):
        # about one wide-panel file: the series keeps its day numbers and prices
        # and no date object per row (those alone took 2.5 times the two arrays)
        rows = [f"{date.fromordinal(730120 + t)},{100 + t % 97}.25\n" for t in range(8400)]
        path = tmp_path / "x.csv"
        path.write_text("date,close\n" + "".join(rows), encoding="utf-8")
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            s = load_price_series(path, "X")
            kept = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        assert len(s) == 8400 and s.dates[-1] == date.fromordinal(730120 + 8399)
        assert kept <= 1.2 * (s.days.nbytes + s.prices.nbytes)

    def test_unsorted_input_is_sorted(self):
        s = load("date,price\n2020-01-02,2\n2020-01-01,1\n")
        assert s.dates[0] == date(2020, 1, 1)

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"date,close\n2020-01-02,100\n2020-01-03,10\xff1\n", 3),
            (b"date,close\r\n2020-01-02,100\r\n\r\n2020-01-03,10\xff1\r\n", 4),
            (b"date,close\r2020-01-02,100\r\xe92020-01-03,101\r", 3),
        ],
        ids=["lf", "crlf", "cr"],
    )
    def test_non_utf8_bytes_name_asset_and_line(self, tmp_path, data, line):
        path = tmp_path / "x.csv"
        path.write_bytes(data)
        with pytest.raises(DataError, match=f"^X: line {line} is not valid UTF-8"):
            load_price_series(path, "X")

    @pytest.mark.parametrize(
        "dates, message",
        [
            ((1, 2, 2, 1), "X: duplicate date 2020-01-02"),
            ((1, 3, 2, 2), "X: dates not increasing at 2020-01-02"),
        ],
        ids=["duplicate", "decreasing"],
    )
    def test_series_reports_first_out_of_order_date(self, dates, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            make_series("X", [date(2020, 1, d) for d in dates], [1.0] * len(dates))


def _date_text(d, date_format):
    return d.isoformat() if date_format == "iso" else d.strftime(date_format)


@st.composite
def price_files(draw):
    """Price file text with its format: clean, with one bad cell, or with bad cells,
    ragged and blank rows; sorted or not, duplicate dates, LF, CRLF or CR endings."""
    delimiter = draw(st.sampled_from([",", ";", "\t", " | "]))
    width = draw(st.integers(2, 3))
    date_column, price_column = draw(st.permutations(range(width)))[:2]
    date_format = draw(st.sampled_from(["iso", "%d/%m/%Y"]))
    fmt = CsvFormat(delimiter=delimiter, date_column=date_column, price_column=price_column,
                    date_format=date_format, skip_bad_rows=draw(st.booleans()))
    days = draw(st.lists(st.integers(0, 40), max_size=12))
    if draw(st.booleans()):
        days = sorted(set(days))
    mode = draw(st.sampled_from(["clean", "one bad cell", "dirty"]))
    bad_row = draw(st.integers(0, max(len(days) - 1, 0)))
    lines = [delimiter.join(["h"] * width)]
    for row, day in enumerate(days):
        dirty = mode == "dirty"
        if dirty and draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        text = _date_text(date(2020, 1, 1) + timedelta(days=day), date_format)
        price = repr(draw(st.floats(min_value=1e-3, max_value=1e4)))
        # filler cells that parse as a date or a price, so that a row shifted by a
        # missing or extra cell can still look valid
        cells = [draw(st.sampled_from([text, price, "x"])) for _ in range(width)]
        cells[date_column] = draw(st.sampled_from([text, text, f" {text} "]))
        cells[price_column] = price
        if (dirty and draw(st.integers(0, 3)) == 0) or (mode == "one bad cell" and row == bad_row):
            column = draw(st.sampled_from([date_column, price_column]))
            cells[column] = draw(st.sampled_from(
                ["", "bad", "2020-13-01", "0", "-0.0", "-1.5", "nan", "inf", "1e400", " 7.25 "]
            ))
        if dirty and draw(st.integers(0, 5)) == 0:
            if draw(st.booleans()):
                del cells[draw(st.integers(0, width - 1))]
            else:
                cells.insert(draw(st.integers(0, width)), draw(st.sampled_from([text, price])))
        lines.append(delimiter.join(cells))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol, eol + eol]))
    return text, fmt


def _outcome(loader, path, fmt):
    try:
        s = loader(path, "X", fmt)
    except DataError as exc:
        return type(exc), str(exc)
    return s.dates, s.prices.view(np.int64).tolist()


@pytest.fixture(scope="module")
def drawn_file(tmp_path_factory):
    """One path that each drawn price file is written to in turn."""
    return tmp_path_factory.mktemp("drawn") / "prices.csv"


class TestLoadOracle:
    @settings(max_examples=300, deadline=None)
    @given(price_files())
    # rows of mixed width whose cells, cut at a common width, would still parse
    @example(("d,p\n2020-01-01,1\n2020-01-02,2,2020-01-03\n", CsvFormat()))
    # every row narrower than the price column
    @example(("h\n1\n", CsvFormat(date_column=1, price_column=0)))
    # a delimiter with a line break, which a match across two rows would cut wrongly
    @example(("h\n20200101\n20200102\n",
              CsvFormat(delimiter="\n2", date_format="%Y%m%d", date_column=1, price_column=0)))
    # lone CR line ends: each ends a row
    @example(("d,p\r2020-01-01,1\r2020-01-02,2\r", CsvFormat()))
    def test_same_rows_and_errors_as_row_loop(self, drawn_file, case):
        text, fmt = case
        drawn_file.write_bytes(text.encode("utf-8"))
        expected = _outcome(naive_load_price_series, drawn_file, fmt)
        assert _outcome(load_price_series, drawn_file, fmt) == expected
        with mock.patch.object(market_data, "_BLOCK_ROWS", 3):  # several blocks per file
            assert _outcome(load_price_series, drawn_file, fmt) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 30), max_size=15, unique=True), min_size=1, max_size=4),
           st.floats(min_value=1e-3, max_value=1e4))
    def test_align_matches_set_join(self, calendars, scale):
        series = [
            make_series(f"a{i}", [date(2020, 1, 1) + timedelta(days=d) for d in sorted(days)],
                        scale * (i + 1) * np.exp(np.sin(np.arange(len(days)))))
            for i, days in enumerate(calendars)
        ]
        outcomes = []
        for join in (align, naive_align):
            try:
                panel = join(series)
            except DataError as exc:
                outcomes.append((type(exc), str(exc)))
            else:
                assert panel.values.flags.f_contiguous
                outcomes.append((panel.dates, panel.values.view(np.int64).tolist()))
        assert outcomes[0] == outcomes[1]


class TestAlign:
    def test_intersection(self):
        mon, tue, wed, thu = (date(2020, 1, d) for d in (6, 7, 8, 9))
        a = make_series("a", [mon, tue, wed], [1, 2, 3])
        b = make_series("b", [tue, wed, thu], [4, 5, 6])
        panel = align([a, b])
        assert panel.dates == (tue, wed)
        assert panel.values.tolist() == [[2, 4], [3, 5]]
        assert panel.kind == "prices"

    def test_identical_calendars(self):
        dates = [date(2020, 1, d) for d in (1, 2, 3)]
        panel = align([make_series("a", dates, [1, 2, 3]), make_series("b", dates, [4, 5, 6])])
        assert panel.dates == tuple(dates)

    def test_disjoint_calendars(self):
        a = make_series("a", [date(2020, 1, 1)], [1])
        b = make_series("b", [date(2020, 1, 2)], [1])
        with pytest.raises(DataError, match="^no common dates across series a, b$"):
            align([a, b])

    def test_repeated_asset_id_is_data_error(self):
        # per-asset results are keyed by id: a repeated one would collapse them
        dates = [date(2020, 1, d) for d in (1, 2, 3)]
        with pytest.raises(DataError, match="^asset ids repeat: 'X', 'X'$"):
            align([make_series("X", dates, [1, 2, 3]), make_series("X", dates, [4, 5, 6])])

    def test_needs_two_series(self):
        a = make_series("a", [date(2020, 1, 1)], [1])
        with pytest.raises(DataError):
            align([a])

    def test_idempotent(self):
        mon, tue, wed, thu = (date(2020, 1, d) for d in (6, 7, 8, 9))
        panel = align(
            [
                make_series("a", [mon, tue, wed], [1, 2, 3]),
                make_series("b", [tue, wed, thu], [4, 5, 6]),
            ]
        )
        rewrapped = [
            make_series(aid, panel.dates, panel.values[:, i])
            for i, aid in enumerate(panel.asset_ids)
        ]
        again = align(rewrapped)
        assert again.dates == panel.dates
        assert np.array_equal(again.values, panel.values)


class TestLogReturns:
    def test_exact_logs(self):
        panel = make_panel([[1.0], [math.e], [math.e**2]], kind="prices")
        out = log_returns(panel)
        assert out.kind == "returns"
        np.testing.assert_allclose(out.values[:, 0], [1.0, 1.0], rtol=1e-15)

    def test_constant_prices(self):
        panel = make_panel([[5.0]] * 4, kind="prices")
        assert np.all(log_returns(panel).values == 0.0)

    def test_hand_computed_value(self):
        panel = make_panel([[100.0], [110.0]], kind="prices")
        # independent oracle: ln(110/100)
        assert log_returns(panel).values[0, 0] == pytest.approx(math.log(1.1), abs=1e-15)
        assert log_returns(panel).values[0, 0] == pytest.approx(0.09531, abs=5e-6)

    def test_row_count_and_dates(self):
        panel = make_panel([[1.0], [2.0], [3.0]], kind="prices")
        out = log_returns(panel)
        assert out.n_periods == 2
        assert out.dates == panel.dates[1:]

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, c):
        prices = np.array([[100.0, 50.0], [101.0, 49.0], [99.5, 51.2]])
        base = log_returns(make_panel(prices, kind="prices")).values
        scaled = log_returns(make_panel(c * prices, kind="prices")).values
        np.testing.assert_allclose(scaled, base, rtol=0, atol=1e-12)


class TestDescribe:
    def test_all_zero(self):
        stats = describe(make_panel([[0.0], [0.0], [0.0]]))
        assert stats.mean[0] == 0 and stats.sd[0] == 0
        assert stats.minimum[0] == 0 and stats.maximum[0] == 0
        assert stats.n_obs == 3

    def test_hand_computed(self):
        stats = describe(make_panel([[-1.0], [1.0]]))
        assert stats.mean[0] == 0
        assert stats.sd[0] == pytest.approx(math.sqrt(2), rel=1e-15)  # T-1 denominator
        assert stats.minimum[0] == -1 and stats.maximum[0] == 1

    def test_centered_mean_property(self, rng):
        values = rng.standard_normal((200, 3))
        values -= values.mean(axis=0)
        stats = describe(make_panel(values))
        assert np.all(np.abs(stats.mean) < 1e-12)

    def test_serialization(self, tmp_path):
        stats = describe(make_panel([[-1.0, 2.0], [1.0, 4.0]]))
        doc = stats.to_dict()
        assert doc["n_obs"] == 2
        assert doc["assets"]["A1"]["mean"] == 3.0
        stats.write_csv(tmp_path / "summary.csv")
        text = (tmp_path / "summary.csv").read_text(encoding="utf-8")
        assert text.splitlines()[0] == "asset,mean,sd,min,max,n_obs"
        assert len(text.splitlines()) == 3


class TestPanel:
    def test_window_filters(self):
        panel = make_panel([[1.0], [2.0], [3.0]], kind="prices")
        sub = panel.window(start=panel.dates[1])
        assert sub.n_periods == 2

    def test_empty_window(self):
        panel = make_panel([[1.0], [2.0]], kind="prices")
        with pytest.raises(DataError, match="^no dates remain after date-range filter$"):
            panel.window(start=date(2030, 1, 1))

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            make_panel([[1.0], [float("nan")]])
