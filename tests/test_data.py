"""Data pipeline: parsing, cleaning, features, normalization, windows."""

import csv
import math
import pickle
import tracemalloc
from datetime import datetime

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cotn.data
from cotn.data import (
    SCHEMAS,
    CleanConfig,
    FeatureFrame,
    NormStats,
    ParseError,
    RawSeries,
    build_dataset,
    clean,
    denormalize_feature,
    epoch_to_text,
    featurize,
    fit_stats,
    load_csv,
    log_returns,
    normalize,
    rolling_mean,
    rolling_std,
    window,
    write_stats,
    _split_rows,
)
from cotn.model import Forecaster, ModelConfig
from cotn.training import make_synthetic_frame, write_synthetic_ett_csv
from helpers import assert_same_dataset, capture_decoder_input, loop_clean, loop_windows

HOUR = 3600
T0 = 1577836800  # 2020-01-01 00:00:00 UTC


def ett_csv(path, rows):
    """rows: list of (timestamp_text, 7 floats)."""
    lines = ["date,HUFL,HULL,MUFL,MULL,LUFL,LULL,OT"]
    for ts, vals in rows:
        lines.append(ts + "," + ",".join(f"{v:.6f}" for v in vals))
    path.write_text("\n".join(lines) + "\n")
    return path


def simple_ett(path, n=8, start_hour=0):
    rows = []
    for i in range(n):
        ts = f"2020-01-01 {start_hour + i:02d}:00:00"
        rows.append((ts, [float(i), 1.0, 2.0, 3.0, 4.0, 5.0, 10.0 + i]))
    return ett_csv(path, rows)


def ohlcv_series(close, period=HOUR, t0=T0, volume=None):
    """RawSeries straight from arrays, bypassing file I/O."""
    close = np.asarray(close, dtype=np.float64)
    n = close.size
    volume = np.full(n, 1000.0) if volume is None else np.asarray(volume)
    cols = {
        "open": close * 0.999,
        "high": close * 1.001,
        "low": close * 0.998,
        "close": close.copy(),
        "volume": volume.astype(np.float64),
    }
    return RawSeries(
        schema="ohlcv",
        epochs=t0 + period * np.arange(n, dtype=np.int64),
        columns=cols,
        period=period,
        segment_ids=np.zeros(n, dtype=np.int64),
    )


def ett_series(values, period=HOUR, t0=T0):
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    cols = {n_: values.copy() for n_ in
            ("HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL")}
    cols["OT"] = values.copy()
    return RawSeries(
        schema="ett",
        epochs=t0 + period * np.arange(n, dtype=np.int64),
        columns=cols,
        period=period,
        segment_ids=np.zeros(n, dtype=np.int64),
    )


def series_equal(a: RawSeries, b: RawSeries) -> bool:
    return (
        np.array_equal(a.epochs, b.epochs)
        and np.array_equal(a.segment_ids, b.segment_ids)
        and all(np.array_equal(a.columns[k], b.columns[k]) for k in a.columns)
    )


_PALETTE = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 100.0, -50.0, 1e3])


def messy_series(rng):
    """A short ett or ohlcv series and thresholds to clean it with:
    duplicate timestamps, short and long gaps (some off the period grid),
    segments the input already has, spikes, repeated rows, constant
    columns and zeros of both signs."""
    schema = ("ett", "ohlcv")[rng.integers(2)]
    names = SCHEMAS[schema]["columns"]
    n, f = int(rng.integers(1, 61)), len(names)
    period = int(rng.choice([1, 60, HOUR]))
    rows = np.empty((n, f))
    rows[0] = rng.choice(_PALETTE, f)
    for t in range(1, n):
        kind = rng.integers(3)
        if kind == 0:
            rows[t] = rows[t - 1]
        elif kind == 1:
            rows[t] = rows[t - 1] + rng.normal(0.0, 1.0, f) * (rng.random(f) < 0.5)
        else:
            rows[t] = rng.choice(_PALETTE, f)
    flip = (rows == 0.0) & (rng.random((n, f)) < 0.5)
    rows[flip] = -rows[flip]
    for j in np.flatnonzero(rng.random(f) < 0.2):
        rows[:, j] = rng.choice(_PALETTE)
    steps = rng.choice([0, 1, 1, 1, 2, 3, 4, 6, 12], n) * period
    steps += (rng.random(n) < 0.1) * (period // 2)
    raw = RawSeries(
        schema=schema,
        epochs=T0 + np.cumsum(steps).astype(np.int64),
        columns={c: rows[:, j].copy() for j, c in enumerate(names)},
        period=period,
        segment_ids=np.cumsum(rng.random(n) < 0.1 * rng.integers(2)).astype(np.int64),
    )
    cfg = CleanConfig(max_ffill_gap=int(rng.choice([0, 1, 3, 5])),
                      z_max=float(rng.choice([0.5, 1.0, 1.5, 2.0, 5.0])),
                      return_limit=float(rng.choice([0.05, 0.2, 1.0])))
    return raw, cfg


class TestLoadCsv:
    def test_happy_path(self, tmp_path):
        raw = load_csv(simple_ett(tmp_path / "d.csv", 6), "ett")
        assert raw.n_rows == 6
        assert raw.period == HOUR
        assert raw.columns["OT"][3] == 13.0
        assert raw.columns["HUFL"][0] == 0.0
        assert np.all(raw.segment_ids == 0)
        assert np.all(np.diff(raw.epochs) == HOUR)

    def test_epoch_text_round_trip(self, tmp_path):
        raw = load_csv(simple_ett(tmp_path / "d.csv", 2), "ett")
        assert epoch_to_text(int(raw.epochs[0])) == "2020-01-01 00:00:00"

    def test_rows_sorted_by_time(self, tmp_path):
        rows = [
            ("2020-01-01 02:00:00", [2.0] + [0.0] * 6),
            ("2020-01-01 00:00:00", [0.0] + [0.0] * 6),
            ("2020-01-01 01:00:00", [1.0] + [0.0] * 6),
        ]
        raw = load_csv(ett_csv(tmp_path / "d.csv", rows), "ett")
        assert np.array_equal(raw.columns["HUFL"], [0.0, 1.0, 2.0])

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("date,A,B\n2020-01-01 00:00:00,1,2\n")
        with pytest.raises(ParseError, match="header"):
            load_csv(p, "ett")

    def test_bad_timestamp_names_line(self, tmp_path):
        p = simple_ett(tmp_path / "d.csv", 3)
        text = p.read_text().replace("2020-01-01 01:00:00", "not-a-time")
        p.write_text(text)
        with pytest.raises(ParseError, match="line 3"):
            load_csv(p, "ett")

    @pytest.mark.parametrize("stamp", ["9999-12-31T23:00:00-05:00",
                                       "0001-01-01T01:00:00+05:00",
                                       "9999-12-31 23:59:59.5"])
    def test_stamp_outside_years_1_to_9999_names_line(self, tmp_path, stamp):
        # An offset, or rounding off a fraction, carries the stamp past one
        # end of the years epoch_to_text renders.
        p = simple_ett(tmp_path / "d.csv", 3)
        p.write_text(p.read_text().replace("2020-01-01 01:00:00", stamp))
        with pytest.raises(ParseError) as err:
            load_csv(p, "ett")
        assert str(err.value) == (f"{p}: line 3: timestamp {stamp!r} falls "
                                  "outside years 1 to 9999")

    def test_offset_stamps_at_years_1_and_9999_load(self, tmp_path):
        rows = [("0001-01-01T05:00:00+05:00", [0.0] * 7),
                ("9999-12-31T18:59:59-05:00", [1.0] * 7)]
        raw = load_csv(ett_csv(tmp_path / "d.csv", rows), "ett")
        ends = [datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)]
        assert raw.epochs.tolist() == [(t - datetime(1970, 1, 1)).total_seconds()
                                       for t in ends]

    @pytest.mark.parametrize("edit,message", [
        ("timestamp", "line 3: bad timestamp 'not-a-time'"),
        ("one_time", "cannot infer sampling period: no increasing timestamps"),
        ("not_utf8", "not UTF-8 text"),
    ])
    def test_refusal_names_the_file(self, tmp_path, edit, message):
        p = simple_ett(tmp_path / "d.csv", 3)
        text = p.read_text()
        if edit == "timestamp":
            p.write_text(text.replace("2020-01-01 01:00:00", "not-a-time"))
        elif edit == "one_time":
            p.write_text(text.replace("01:00:00", "00:00:00").replace("02:00:00", "00:00:00"))
        else:
            p.write_bytes(text.encode("ascii") + b"2020-01-01 03:00:00,\xff\n")
        with pytest.raises(ParseError) as err:
            load_csv(p, "ett")
        assert str(err.value) == f"{p}: {message}"

    def test_bad_number_names_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(
            "date,HUFL,HULL,MUFL,MULL,LUFL,LULL,OT\n"
            "2020-01-01 00:00:00,1,2,3,4,5,6,oops\n"
        )
        with pytest.raises(ParseError, match="OT"):
            load_csv(p, "ett")

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(
            "date,HUFL,HULL,MUFL,MULL,LUFL,LULL,OT\n"
            "2020-01-01 00:00:00,1,2,3,4,5,nan,7\n"
        )
        with pytest.raises(ParseError, match="non-finite"):
            load_csv(p, "ett")

    def test_field_count_mismatch(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(
            "date,HUFL,HULL,MUFL,MULL,LUFL,LULL,OT\n"
            "2020-01-01 00:00:00,1,2,3\n"
        )
        with pytest.raises(ParseError, match="line 2"):
            load_csv(p, "ett")

    def test_empty_and_headerless(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            load_csv(p, "ett")
        p.write_text("date,HUFL,HULL,MUFL,MULL,LUFL,LULL,OT\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(p, "ett")

    def test_unknown_schema(self, tmp_path):
        with pytest.raises(ValueError, match="schema"):
            load_csv(simple_ett(tmp_path / "d.csv"), "stocks")

    def test_modal_period_inference(self, tmp_path):
        rows = [
            ("2020-01-01 00:00:00", [0.0] * 7),
            ("2020-01-01 01:00:00", [0.0] * 7),
            ("2020-01-01 02:00:00", [0.0] * 7),
            ("2020-01-01 05:00:00", [0.0] * 7),
        ]
        raw = load_csv(ett_csv(tmp_path / "d.csv", rows), "ett")
        assert raw.period == HOUR


# A file in the plain shape with every number form the bulk path reads.
PLAIN = ("date,HUFL,HULL,MUFL,MULL,LUFL,LULL,OT\n"
         "2020-01-01 00:00:00,1.5,-2,3e-3,4.25E+2,.5,6.,-0\n"
         "2020-01-01 01:00:00,0.1,1e-320,+7,123456789012345678901234567890,"
         "0.30000000000000004,-1.7976931348623157e308,000\n"
         "2020-01-01 02:00:00,1,2,3,4,5,6,7\n")
STAMP = "2020-01-01 01:00:00"


def _value(text):
    """PLAIN with its first number replaced by text."""
    return lambda t: t.replace(",1.5,", f",{text},", 1)


def _stamp(text):
    """PLAIN with its second stamp replaced by text."""
    return lambda t: t.replace(STAMP, text)


def _lines(edit):
    """PLAIN with edit applied to its list of lines."""
    def apply(t):
        lines = t.splitlines(keepends=True)
        edit(lines)
        return "".join(lines)
    return apply


# (id, edit of PLAIN, whether the bulk path reads the result)
BULK_CASES = [
    ("plain", lambda t: t, True),
    ("no final newline", lambda t: t[:-1], True),
    ("unsorted", _lines(lambda ls: ls.__setitem__(slice(1, 4), ls[3:0:-1])), True),
    ("duplicate stamps", lambda t: t.replace("01:00:00", "00:00:00"), True),
    ("one row", lambda t: "".join(t.splitlines(keepends=True)[:2]), True),
    ("years 1 and 9999", lambda t: t.replace("2020-01-01 00:00:00", "0001-01-01 00:00:00")
     .replace("2020-01-01 02:00:00", "9999-12-31 23:59:59"), True),
    ("CRLF", lambda t: t.replace("\n", "\r\n"), False),
    ("blank line", _lines(lambda ls: ls.insert(2, "\n")), False),
    ("whitespace-only line", _lines(lambda ls: ls.insert(2, "  \n")), False),
    ("# line", _lines(lambda ls: ls.insert(2, "# note\n")), False),
    ("T separator", _stamp("2020-01-01T01:00:00"), False),
    ("+05:00", _stamp(STAMP + "+05:00"), False),
    ("Z", _stamp(STAMP + "Z"), False),
    ("fractional seconds", _stamp(STAMP + ".5"), False),
    ("date only", _stamp("2020-01-01"), False),
    ("2020-02-30", _stamp("2020-02-30 01:00:00"), False),
    ("24:00:00", _stamp("2020-01-01 24:00:00"), False),
    ("23:59:60", _stamp("2020-01-01 23:59:60"), False),
    ("year 0000", _stamp("0000-01-01 01:00:00"), False),
    ("padded stamp", _stamp(f" {STAMP}"), False),
    ("1_0", _value("1_0"), False),
    ("Unicode digits", _value("\u0661\u0662"), False),
    ("padded field", _value(" 1.5 "), False),
    ("quoted field", _value('"1.5"'), False),
    ("quoted header", lambda t: t.replace("date", '"date"', 1), False),
    ("NaN", _value("NaN"), False),
    ("inf", _value("-inf"), False),
    ("overflow to inf", _value("1e400"), False),
    ("BOM", lambda t: "\ufeff" + t, False),
    ("not UTF-8", lambda t: t.encode() + b"2020-01-01 03:00:00,\xff\n", False),
    ("extra field", _lines(lambda ls: ls.__setitem__(2, ls[2][:-1] + ",8\n")), False),
    ("missing field", _value("1.5,"), False),
    ("empty field", _value(""), False),
    ("bad number", _value("1.2.3"), False),
    ("colon in a number", _value("1:5"), False),
    ("stamp alone", lambda t: t + "2020-01-01 03:00:00\n", False),
    ("short last row", lambda t: t + " ::,,,,,,,", False),
    ("CR in the header", lambda t: "da\rte" + t[4:], False),
    ("CR in a number", _value("1.5\r"), False),
    ("NUL in a number", _value("1.5\x00"), False),
    ("tab-padded field", _value("\t1.5"), False),
    ("header mismatch", lambda t: t.replace(",OT", ",ot", 1), False),
    ("header only", lambda t: t.splitlines(keepends=True)[0], False),
    ("empty file", lambda t: "", False),
]


def _load_outcome(path):
    """The series load_csv reads from path, as bytes, or its refusal."""
    try:
        raw = load_csv(path, "ett")
    except ParseError as exc:
        return str(exc)
    return (raw.epochs.dtype, raw.epochs.tobytes(), raw.period,
            {name: (col.dtype, col.tobytes()) for name, col in raw.columns.items()})


def _reader_bits(parsed):
    epochs, columns = parsed
    return (epochs.dtype, epochs.tobytes(),
            {name: (col.dtype, col.tobytes()) for name, col in columns.items()})


def _digits(width, top):
    return st.integers(0, top).map(lambda v: str(v).zfill(width))


# Rows of the plain shape: stamps valid or not, and numbers made of the
# bytes it admits, each row with one number that may be malformed.
PLAIN_STAMPS = st.one_of(
    st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)).map(
        lambda d: d.replace(microsecond=0).isoformat(" ")),
    st.tuples(_digits(4, 9999), _digits(2, 13), _digits(2, 32), _digits(2, 25),
              _digits(2, 61), _digits(2, 61)).map(lambda p: "{}-{}-{} {}:{}:{}".format(*p)),
)
FLOAT_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v),
    st.from_regex(r"\A[+-]?[0-9]{0,30}(\.[0-9]{0,30})?([eE][+-]?[0-9]{1,4})?\Z"),
)
PLAIN_ROWS = st.tuples(
    PLAIN_STAMPS, st.lists(FLOAT_TEXTS, min_size=7, max_size=7), st.integers(0, 6),
    st.one_of(FLOAT_TEXTS, st.text("0123456789.eE+-", max_size=12)),
).map(lambda r: f"{r[0]},{','.join(r[1][:r[2]] + [r[3]] + r[1][r[2] + 1:])}\n")


class TestBulkParse:
    """load_csv's bulk path reads the plain shape; the row loop reads
    everything else, refuses what is malformed and names the line."""

    @pytest.mark.parametrize("edit,bulk", [pytest.param(e, b, id=i) for i, e, b in BULK_CASES])
    def test_bulk_path_and_row_loop_agree(self, tmp_path, monkeypatch, edit, bulk):
        p = tmp_path / "d.csv"
        text = edit(PLAIN)
        p.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        assert (cotn.data._read_plain(p, "ett") is not None) is bulk
        got = _load_outcome(p)
        monkeypatch.setattr(cotn.data, "_read_plain", lambda path, schema: None)
        assert _load_outcome(p) == got

    def test_long_field_names_the_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(_value('"' + "7" * 200_000 + '"')(PLAIN))
        with pytest.raises(ParseError) as err:
            load_csv(p, "ett")
        assert str(err.value) == (
            f"{p}: line 2: field larger than field limit ({csv.field_size_limit()})")

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(PLAIN_ROWS, min_size=1, max_size=3))
    def test_on_the_plain_shape_both_accept_the_same_files(self, tmp_path, rows):
        p = tmp_path / "d.csv"
        p.write_text("date,HUFL,HULL,MUFL,MULL,LUFL,LULL,OT\n" + "".join(rows))
        plain = cotn.data._read_plain(p, "ett")
        try:
            parsed = cotn.data._read_rows(p, "ett")
        except ParseError:
            assert plain is None
        else:
            assert plain is not None and _reader_bits(plain) == _reader_bits(parsed)

    @pytest.mark.parametrize("rows", [2000, 17420])
    def test_benchmark_inputs_take_the_bulk_path(self, tmp_path, monkeypatch, rows):
        # The files perfbench generates: a fall back on the row loop
        # would cost their workloads the bulk parse unseen.
        p = tmp_path / "d.csv"
        write_synthetic_ett_csv(p, seed=1, length=rows)

        def refuse(path, schema):
            raise AssertionError(f"{path} fell back on the row loop")

        monkeypatch.setattr(cotn.data, "_read_rows", refuse)
        assert load_csv(p, "ett").n_rows == rows


class TestClean:
    def test_duplicate_keeps_first(self):
        raw = ett_series([1.0, 2.0, 3.0])
        raw.epochs = np.array([T0, T0, T0 + HOUR], dtype=np.int64)
        out = clean(raw)
        assert out.n_rows == 2
        assert out.columns["OT"][0] == 1.0
        assert [a.action for a in out.report] == ["drop"]
        assert "duplicate" in out.report[0].reason

    def test_short_gap_forward_filled(self):
        raw = ett_series([1.0, 2.0, 3.0])
        raw.epochs = np.array([T0, T0 + HOUR, T0 + 4 * HOUR], dtype=np.int64)
        out = clean(raw)
        assert out.n_rows == 5
        assert np.all(np.diff(out.epochs) == HOUR)
        # Rows 2 and 3 are copies of row 1.
        assert np.array_equal(out.columns["OT"], [1.0, 2.0, 2.0, 2.0, 3.0])
        assert np.all(out.segment_ids == 0)
        fills = [a for a in out.report if a.action == "fill"]
        assert len(fills) == 2

    def test_long_gap_splits_segments(self):
        raw = ett_series([1.0, 2.0, 3.0, 4.0])
        raw.epochs = np.array(
            [T0, T0 + HOUR, T0 + 12 * HOUR, T0 + 13 * HOUR], dtype=np.int64)
        out = clean(raw)
        assert out.n_rows == 4
        assert np.array_equal(out.segment_ids, [0, 0, 1, 1])
        splits = [a for a in out.report if a.action == "split"]
        assert len(splits) == 1 and "gap of 10 periods" in splits[0].reason

    def test_gap_exactly_at_limit_fills(self):
        raw = ett_series([1.0, 2.0])
        raw.epochs = np.array([T0, T0 + 4 * HOUR], dtype=np.int64)
        out = clean(raw, CleanConfig(max_ffill_gap=3))
        assert out.n_rows == 5 and np.all(out.segment_ids == 0)
        out2 = clean(raw, CleanConfig(max_ffill_gap=2))
        assert out2.n_rows == 2 and np.array_equal(out2.segment_ids, [0, 1])

    def test_return_filter_replaces_whole_row(self):
        close = np.full(30, 100.0)
        close[10] = 160.0  # +60% one-step move
        raw = ohlcv_series(close)
        out = clean(raw)
        assert out.columns["close"][10] == 100.0
        assert out.columns["open"][10] == out.columns["open"][9]
        assert out.columns["volume"][10] == out.columns["volume"][9]
        reasons = [a.reason for a in out.report]
        assert any("return" in r for r in reasons)

    def test_return_inside_limit_untouched(self):
        close = 100.0 * np.cumprod(np.full(30, 1.05))
        out = clean(ohlcv_series(close))
        assert np.array_equal(out.columns["close"], close)
        assert out.report == []

    def test_zscore_filter_names_worst_column(self):
        vals = np.sin(np.arange(200) / 5.0)
        raw = ett_series(vals)
        raw.columns["MUFL"] = raw.columns["MUFL"].copy()
        raw.columns["MUFL"][100] = 60.0
        out = clean(raw)
        assert out.columns["MUFL"][100] == out.columns["MUFL"][99]
        z_actions = [a for a in out.report if "z-score" in a.reason]
        assert len(z_actions) == 1 and "MUFL" in z_actions[0].reason

    def test_no_ett_return_filter(self):
        # A 60% jump in an ETT column is fine unless its z-score is huge.
        vals = np.linspace(10.0, 20.0, 40)
        vals[20] *= 1.6
        out = clean(ett_series(vals))
        assert out.columns["OT"][20] == vals[20]

    def test_idempotent_on_messy_financial_series(self):
        rng = np.random.default_rng(0)
        close = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 300)))
        close[50] *= 1.8
        close[200] *= 0.4
        raw = ohlcv_series(close)
        # A duplicate and both gap kinds.
        raw.epochs[120:] += 2 * HOUR
        raw.epochs[250:] += 10 * HOUR
        raw.epochs[40] = raw.epochs[39]
        once = clean(raw)
        twice = clean(once)
        assert series_equal(once, twice)
        assert twice.report == []

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_idempotence_property(self, seed):
        rng = np.random.default_rng(seed)
        n = 120
        close = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.02, n)))
        for j in rng.integers(1, n, size=3):
            close[j] *= float(rng.choice([0.5, 1.7, 2.5]))
        raw = ohlcv_series(close)
        if seed % 3 == 0:
            raw.epochs[n // 2 :] += HOUR * int(rng.integers(1, 8))
        once = clean(raw)
        twice = clean(once)
        assert series_equal(once, twice)
        assert twice.report == []

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(seed=0)  # ohlcv; a filled row keeps a -0.0 of the row before
    @example(seed=14)  # the same in an ett series
    @example(seed=34)  # one row
    def test_matches_the_row_by_row_reference(self, seed):
        raw, cfg = messy_series(np.random.default_rng(seed))
        got, want = clean(raw, cfg), loop_clean(raw, cfg)
        assert [a.render() for a in got.report] == [a.render() for a in want.report]
        for name in ("epochs", "segment_ids"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert list(got.columns) == list(want.columns)
        for name, col in want.columns.items():
            assert got.columns[name].tobytes() == col.tobytes()

    def test_zscore_statistics_span_every_split(self):
        # Row 10 is a training row and row 90 a test row under the default
        # ratios. Raising row 90, by too little to be filled itself,
        # widens the whole file's std enough that row 10 is not filled.
        vals = np.sin(np.arange(100) / 3.0)
        vals[10] = 4.6
        before = clean(ett_series(vals))
        vals[90] = 4.0
        after = clean(ett_series(vals))
        assert [a.epoch for a in before.report] == [T0 + 10 * HOUR]
        assert before.columns["OT"][10] == vals[9]
        assert after.report == []
        assert after.columns["OT"][10] == 4.6 and after.columns["OT"][90] == 4.0

    def test_empty_series_rejected(self):
        raw = ett_series([1.0])
        raw.epochs = raw.epochs[:0]
        for k in raw.columns:
            raw.columns[k] = raw.columns[k][:0]
        raw.segment_ids = raw.segment_ids[:0]
        with pytest.raises(ValueError):
            clean(raw)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CleanConfig(max_ffill_gap=-1)
        with pytest.raises(ValueError):
            CleanConfig(z_max=0.0)
        with pytest.raises(ValueError):
            CleanConfig(return_limit=-0.1)
        with pytest.raises(ValueError, match="z_max"):
            CleanConfig(z_max=math.nan)
        with pytest.raises(ValueError, match="return_limit"):
            CleanConfig(return_limit=math.nan)


class TestRollingFeatures:
    def test_rolling_mean_matches_naive(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(50)
        got = rolling_mean(v, 7)
        assert np.all(np.isnan(got[:6]))
        for i in range(6, 50):
            assert got[i] == pytest.approx(v[i - 6 : i + 1].mean(), rel=1e-12)

    def test_rolling_std_matches_naive(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(40)
        for window in (1, 5, 20, 40):
            got = rolling_std(v, window)
            assert np.all(np.isnan(got[: window - 1]))
            for i in range(window - 1, 40):
                assert got[i] == np.std(v[i - window + 1 : i + 1])

    def test_log_returns(self):
        v = np.array([1.0, 2.0, 1.0])
        got = log_returns(v)
        assert np.isnan(got[0])
        assert got[1] == pytest.approx(math.log(2.0), rel=1e-15)
        assert got[2] == pytest.approx(-math.log(2.0), rel=1e-15)
        with pytest.raises(ValueError):
            log_returns(np.array([1.0, 0.0]))

    def test_window_bounds(self):
        with pytest.raises(ValueError):
            rolling_mean(np.ones(5), 6)
        with pytest.raises(ValueError):
            rolling_std(np.ones(5), 0)


class TestFeaturize:
    def test_ett_passthrough(self):
        raw = ett_series(np.arange(10.0))
        frame = featurize(raw)
        assert frame.feature_names == (
            "HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT")
        assert frame.target == "OT"
        assert frame.n_rows == 10
        assert np.array_equal(frame.data[:, 6], np.arange(10.0))
        assert np.array_equal(frame.epochs, raw.epochs)

    def test_financial_features_and_leading_drop(self):
        rng = np.random.default_rng(4)
        close = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 60)))
        frame = featurize(ohlcv_series(close))
        assert frame.feature_names[-4:] == ("log_ret", "ma5", "ma20", "vol20")
        assert frame.target == "close"
        assert frame.n_rows == 40  # 20 leading rows dropped
        rets = np.log(close[1:] / close[:-1])
        # First kept row is raw row 20.
        assert frame.data[0, frame.feature_names.index("log_ret")] == \
            pytest.approx(rets[19], rel=1e-12)
        assert frame.data[0, frame.feature_names.index("ma5")] == \
            pytest.approx(close[16:21].mean(), rel=1e-12)
        assert frame.data[0, frame.feature_names.index("ma20")] == \
            pytest.approx(close[1:21].mean(), rel=1e-12)
        assert frame.data[0, frame.feature_names.index("vol20")] == \
            pytest.approx(np.std(rets[:20]), rel=1e-12)
        assert np.all(np.isfinite(frame.data))

    def test_short_segment_skipped(self):
        close = 100.0 + 0.1 * np.sin(np.arange(40.0))
        raw = ohlcv_series(close)
        raw.segment_ids = np.concatenate(
            [np.zeros(10, dtype=np.int64), np.ones(30, dtype=np.int64)])
        frame = featurize(raw)
        # Only the 30-row segment survives, minus its 20 leading rows.
        assert frame.n_rows == 10
        assert np.all(frame.segment_ids == 1)

    def test_all_segments_too_short(self):
        raw = ohlcv_series(100.0 + np.arange(15.0))
        with pytest.raises(ValueError, match="too short"):
            featurize(raw)


class TestNormalization:
    def _frame(self, n=50):
        rng = np.random.default_rng(5)
        return featurize(ett_series(rng.standard_normal(n) * 3.0 + 7.0))

    def test_fit_is_population_moments(self):
        frame = self._frame()
        stats = fit_stats(frame)
        np.testing.assert_allclose(stats.mean, frame.data.mean(0), rtol=1e-15)
        np.testing.assert_allclose(stats.std, frame.data.std(0), rtol=1e-15)
        assert stats.dropped == ()

    def test_constant_feature_dropped(self):
        raw = ett_series(np.arange(20.0))
        raw.columns["LULL"] = np.full(20, 4.0)
        stats = fit_stats(featurize(raw))
        assert "LULL" in stats.dropped
        assert "LULL" not in stats.names

    def test_constant_target_rejected(self):
        raw = ett_series(np.arange(20.0))
        raw.columns["OT"] = np.full(20, 1.0)
        with pytest.raises(ValueError, match="target"):
            fit_stats(featurize(raw))

    def test_normalize_standardizes_fit_rows(self):
        frame = self._frame()
        norm = normalize(frame, fit_stats(frame))
        np.testing.assert_allclose(norm.data.mean(0), 0.0, atol=1e-12)
        np.testing.assert_allclose(norm.data.std(0), 1.0, rtol=1e-12)

    def test_denormalize_inverts(self):
        frame = self._frame()
        stats = fit_stats(frame)
        norm = normalize(frame, stats)
        j = norm.feature_names.index("OT")
        back = denormalize_feature(norm.data[:, j], stats, "OT")
        np.testing.assert_allclose(back, frame.data[:, 6], rtol=1e-12)

    @pytest.mark.parametrize("mean,std,message", [
        ([0.0], [-1.0], "std: every value must be > 0"),
        ([math.nan], [1.0], "mean: every value must be finite"),
        ([0.0], [math.inf], "std: every value must be finite"),
        ([0.0, 1.0], [1.0], r"mean: expected shape \(1,\) for the 1 kept features, "
                            r"got \(2,\)"),
        ([0.0], [[1.0]], r"std: expected shape \(1,\)"),
    ])
    def test_stats_check_themselves(self, mean, std, message):
        with pytest.raises(ValueError, match=message):
            NormStats(("y",), np.array(mean), np.array(std))

    def test_zero_std_cannot_reach_normalize(self):
        frame = make_synthetic_frame(seed=0, length=50)
        with pytest.raises(ValueError, match="std: every value must be > 0"):
            normalize(frame, NormStats(("y",), np.zeros(1), np.zeros(1)))

    def test_stats_are_float64_arrays(self):
        stats = NormStats(("a", "b"), [1, 2], (3, 4))
        assert stats.mean.dtype == stats.std.dtype == np.float64
        assert np.array_equal(stats.std, [3.0, 4.0])

    def test_stats_file_text(self, tmp_path):
        # norm_stats.txt: the kept features with 17 significant digits,
        # then the dropped ones.
        path = tmp_path / "stats.txt"
        write_stats(path, NormStats(("a", "b"), [0.1, -2.0], [3.0, 1e-300], ("c",)))
        assert path.read_text() == ("feature,mean,std\na,0.10000000000000001,3\n"
                                    "b,-2,1e-300\n# dropped,c\n")

    def test_too_few_rows(self):
        frame = self._frame(n=10).slice_rows(0, 1)
        with pytest.raises(ValueError):
            fit_stats(frame)


class TestWindows:
    def _frame(self, n, segments=None):
        frame = featurize(ett_series(np.arange(float(n))))
        if segments is not None:
            frame.segment_ids = np.asarray(segments, dtype=np.int64)
        return frame

    def test_worked_example_count(self):
        frame = self._frame(100)
        splits = window(frame, enc_len=48, label_len=24, horizon=24,
                        stride=1, ratios=(1.0, 0.0, 0.0))
        assert splits.train.n_windows == 100 - 48 - 24 + 1 == 29
        assert splits.val.n_windows == 0 and splits.test.n_windows == 0

    def test_split_boundaries_floor(self):
        assert _split_rows(105, (0.7, 0.1, 0.2)) == (73, 84, 105)

    def test_windows_confined_to_splits(self):
        frame = self._frame(50)
        splits = window(frame, 8, 4, 2, ratios=(0.7, 0.1, 0.2))
        # train rows [0, 35): starts 0..24; val [35, 40): too short; test
        # [40, 50): starts 40.
        assert splits.train.n_windows == 26
        assert splits.val.n_windows == 0
        assert splits.test.n_windows == 1
        assert splits.test.enc.starts[0] == 40

    def test_windows_respect_segments(self):
        seg = np.zeros(40, dtype=np.int64)
        seg[25:] = 1
        frame = self._frame(40, segments=seg)
        splits = window(frame, 8, 4, 2, ratios=(1.0, 0.0, 0.0))
        # Starts 0..15 fit in segment 0; 25..30 in segment 1.
        assert splits.train.n_windows == 16 + 6
        spans = [frame.segment_ids[s : s + 10] for s in splits.train.enc.starts]
        assert all(np.all(sp == sp[0]) for sp in spans)

    def test_window_contents(self):
        frame = self._frame(30)
        splits = window(frame, 6, 3, 2, ratios=(1.0, 0.0, 0.0))
        b = splits.train
        s = int(b.enc.starts[5])
        assert np.array_equal(b.enc[5], frame.data[s : s + 6])
        t_idx = frame.target_index
        assert np.array_equal(
            b.tgt[5], frame.data[s + 6 : s + 8, t_idx : t_idx + 1])
        assert b.tgt.shape == (b.n_windows, 2, 1)

    def test_stride(self):
        frame = self._frame(40)
        one = window(frame, 8, 4, 2, stride=1, ratios=(1.0, 0.0, 0.0))
        two = window(frame, 8, 4, 2, stride=2, ratios=(1.0, 0.0, 0.0))
        assert two.train.n_windows == (one.train.n_windows + 1) // 2
        assert np.array_equal(two.train.enc.starts, one.train.enc.starts[::2])

    def test_validation(self):
        frame = self._frame(30)
        with pytest.raises(ValueError):
            window(frame, 6, 7, 2)
        with pytest.raises(ValueError):
            window(frame, 6, 3, 0)
        with pytest.raises(ValueError):
            window(frame, 6, 3, 2, ratios=(0.5, 0.2, 0.2))


def _segmented_frame(n, changes, schema="ett", seed=0):
    """A random column-major frame, like a normalized one, whose segment id
    goes up by one at each row in ``changes``."""
    rng = np.random.default_rng(seed)
    names = SCHEMAS[schema]["columns"]
    seg = np.zeros(n, dtype=np.int64)
    for c in changes:
        seg[c:] += 1
    return FeatureFrame(T0 + HOUR * np.arange(n, dtype=np.int64), seg,
                        np.asfortranarray(rng.standard_normal((n, len(names)))),
                        names, SCHEMAS[schema]["target"], HOUR)


class TestWindowGather:
    """window() gathers exactly the windows of the one-start-at-a-time loop."""

    CASES = {
        # Short segments (one of a single row) inside every split.
        "gaps": (150, (17, 18, 50, 93, 100, 131), (0.6, 0.15, 0.25)),
        # The validation split is shorter than one window.
        "short-val": (120, (40,), (0.8, 0.05, 0.15)),
        # Segments too short for any window in the test split.
        "fragmented-test": (100, (75, 82, 89, 96), (0.7, 0.05, 0.25)),
        "one-segment": (64, (), (0.7, 0.1, 0.2)),
    }

    @pytest.mark.parametrize("schema", ["ett", "ohlcv"])
    @pytest.mark.parametrize("stride", [1, 2, 3, 7])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_loop_bit_for_bit(self, case, stride, schema):
        n, changes, ratios = self.CASES[case]
        frame = _segmented_frame(n, changes, schema, seed=stride)
        assert not frame.data.flags.c_contiguous
        splits = window(frame, 8, 4, 3, stride=stride, ratios=ratios)
        bounds = (0,) + _split_rows(n, ratios)
        for i, name in enumerate(("train", "val", "test")):
            got = getattr(splits, name)
            enc, _, tgt, starts = loop_windows(
                frame, bounds[i], bounds[i + 1], 8, 4, 3, stride)
            assert got.enc.shape == enc.shape, name
            assert len(got.enc) == got.n_windows == starts.size, name
            for field, a, b in (("enc", got.enc[:], enc), ("tgt", got.tgt, tgt),
                                ("starts", got.enc.starts, starts)):
                assert a.dtype == b.dtype and a.shape == b.shape, (name, field)
                assert a.tobytes() == b.tobytes(), (name, field)
                assert a.flags.c_contiguous, (name, field)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_index_form_cuts_the_loops_windows(self, case, stride):
        n, changes, ratios = self.CASES[case]
        frame = _segmented_frame(n, changes, seed=stride)
        splits = window(frame, 8, 4, 3, stride=stride, ratios=ratios)
        bounds = (0,) + _split_rows(n, ratios)
        rng = np.random.default_rng(stride)
        for i, name in enumerate(("train", "val", "test")):
            got = getattr(splits, name)
            enc, _, _, _ = loop_windows(frame, bounds[i], bounds[i + 1], 8, 4, 3, stride)
            k = len(enc)
            sels = [slice(None), slice(1, None, 2), slice(k, None), rng.permutation(k),
                    rng.permutation(k)[: k // 2], np.empty(0, dtype=np.int64)]
            sels += [0, k // 2, k - 1, -1] if k else []
            for sel in sels:
                cut = got.enc[sel]
                assert np.array_equal(cut, enc[sel]), (name, sel)
                assert cut.shape == enc[sel].shape and cut.dtype == np.float64
                assert cut.flags.c_contiguous, (name, sel)
                assert not np.shares_memory(cut, frame.data)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_decoder_input_is_the_loops_dec(self, case, stride, monkeypatch):
        # The forecaster builds its decoder input from the encoder windows
        # it is given: the loop's dec, bit for bit, in predict and forward.
        n, changes, ratios = self.CASES[case]
        frame = _segmented_frame(n, changes, seed=stride)
        splits = window(frame, 8, 4, 3, stride=stride, ratios=ratios)
        bounds = (0,) + _split_rows(n, ratios)
        model = Forecaster(ModelConfig(d_model=4, n_heads=1, n_enc_layers=2, d_ff=4,
                                       enc_len=8, label_len=4, horizon=3,
                                       n_features=frame.n_features), seed=stride)
        seen = capture_decoder_input(model, monkeypatch)
        for i, name in enumerate(("train", "val", "test")):
            _, dec, _, _ = loop_windows(frame, bounds[i], bounds[i + 1], 8, 4, 3, stride)
            enc = getattr(splits, name).enc[:]
            model.predict(enc)
            model.forward(enc)
            assert len(seen) == 2, name
            for got in seen:
                assert got.dtype == dec.dtype and got.shape == dec.shape, name
                assert got.tobytes() == dec.tobytes(), name
                assert got.flags.c_contiguous, name
            seen.clear()

    def test_views_are_never_converted_whole(self):
        view = window(_segmented_frame(64, ()), 8, 4, 3).train.enc
        with pytest.raises(TypeError):
            np.asarray(view)
        with pytest.raises(TypeError):
            view[0, :3]

    def test_cases_cover_empty_and_fragmented_splits(self):
        n, changes, ratios = self.CASES["short-val"]
        assert window(_segmented_frame(n, changes), 8, 4, 3,
                      ratios=ratios).val.n_windows == 0
        n, changes, ratios = self.CASES["fragmented-test"]
        test = window(_segmented_frame(n, changes), 8, 4, 3, ratios=ratios).test
        assert test.n_windows == 0 and n - 75 >= 11

    def test_window_ending_on_a_split_boundary(self):
        frame = _segmented_frame(100, (30,))
        splits = window(frame, 8, 4, 3, ratios=(0.7, 0.1, 0.2))
        # The last training window's targets end on row 69, the split's last.
        assert splits.train.enc.starts[-1] + 11 == _split_rows(100, (0.7, 0.1, 0.2))[0] == 70
        assert np.array_equal(splits.train.tgt[-1, :, 0],
                              frame.data[67:70, frame.target_index])
        # Starts 20..29 would straddle the segment change at row 30.
        assert not np.any((splits.train.enc.starts > 19) & (splits.train.enc.starts < 30))


class TestBuildDataset:
    @pytest.mark.parametrize("ratios", [(math.nan, 0.1, 0.2), (0.7, math.nan, 0.2),
                                        (0.9, 0.1, 0.2)])
    def test_bad_ratios_rejected_before_the_split(self, ratios):
        frame = featurize(ett_series(np.arange(100.0)))
        with pytest.raises(ValueError, match="ratios must be"):
            build_dataset(frame, 8, 4, 2, ratios=ratios)

    def test_stats_fitted_on_train_rows_only(self):
        rng = np.random.default_rng(6)
        vals = np.concatenate([rng.normal(0, 1, 70), rng.normal(50, 1, 30)])
        frame = featurize(ett_series(vals))
        ds = build_dataset(frame, 8, 4, 2, ratios=(0.7, 0.1, 0.2))
        j = ds.stats.index_of("OT")
        assert ds.stats.mean[j] == pytest.approx(vals[:70].mean(), rel=1e-12)
        # The shifted tail shows up as a large normalized value, proving
        # the test split leaked nothing into the statistics.
        assert ds.frame.data[80:, j].mean() > 10.0

    def test_window_geometry_matches_model_contract(self):
        frame = featurize(ett_series(np.arange(200.0)))
        ds = build_dataset(frame, 24, 12, 8)
        assert ds.splits.train.enc.shape[1:] == (24, 7)
        assert ds.splits.train.tgt.shape[1:] == (8, 1)

    def test_windows_are_start_rows_not_copies(self, tmp_path):
        # Whole windows of this file's three splits would take 41.8 MB.
        path = tmp_path / "ett17k.csv"
        write_synthetic_ett_csv(path, 1, 17420)
        frame = featurize(clean(load_csv(path, "ett")))
        tracemalloc.start()
        try:
            ds = build_dataset(frame, 24, 12, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.splits.train.enc.shape == (12163, 24, 7)
        assert peak < 8e6
        assert len(pickle.dumps(ds)) < 4e6

    def test_too_small_rejected(self):
        frame = featurize(ett_series(np.arange(10.0)))
        with pytest.raises(ValueError):
            build_dataset(frame, 24, 12, 8)

    def test_given_stats_normalize_the_frame(self):
        frame = _segmented_frame(120, (50,), seed=3)
        fitted = fit_stats(frame.slice_rows(0, 84))  # floor(0.7 * 120) rows
        assert_same_dataset(build_dataset(frame, 8, 4, 2, stats=fitted),
                            build_dataset(frame, 8, 4, 2))
        # Other statistics over the same features normalize instead.
        other = NormStats(fitted.names, fitted.mean + 1.0, fitted.std * 2.0)
        ds = build_dataset(frame, 8, 4, 2, stats=other)
        assert ds.stats is other
        assert ds.frame.data.tobytes() == normalize(frame, other).data.tobytes()

    @staticmethod
    def _other_features(frame):
        fitted = fit_stats(frame)
        return NormStats(fitted.names[1:], fitted.mean[1:], fitted.std[1:])

    def test_stats_naming_other_features_rejected(self):
        frame = _segmented_frame(120, (50,), seed=3)
        with pytest.raises(RuntimeError, match="feature set of the data does not "
                                               "match the checkpoint"):
            build_dataset(frame, 8, 4, 2, stats=self._other_features(frame))

    @pytest.mark.parametrize("rows,message", [
        (2, "training split of 1 rows is too small"),
        (20, "training split produced no windows"),
    ])
    def test_split_errors_come_before_the_feature_set(self, rows, message):
        frame = _segmented_frame(rows, ())
        with pytest.raises(ValueError, match=message):
            build_dataset(frame, 24, 12, 8, stats=self._other_features(frame))
