"""Time-series loading, cleaning, feature building and windowing.

The pipeline is deliberately explicit about repairs: cleaning never
deletes interior rows, it forward-fills them and records every action in
a report. Long gaps split the series into segments, and everything
downstream (rolling features, training windows) respects segment
boundaries so no window ever straddles a discontinuity.

Outlier passes (return filter for financial data, then a Z-score filter)
are iterated to a joint fixed point, which makes cleaning idempotent:
running clean() on its own output changes nothing. The Z-score filter's
mean and std are taken over the whole cleaned file, all splits included,
so validation and test rows decide which training rows it forward-fills.

Normalization statistics are always fitted on the training split alone
and applied everywhere, so later splits leak nothing backwards through
them. build_dataset is the one home of this policy: _split_rows draws
the split boundaries, and training, evaluation and forecasting all cut
their windows through build_dataset, the latter two with a checkpoint's
statistics. A split keeps its windows as a WindowView of start rows into
the normalized frame, which cuts the ones a caller indexes, when it
indexes them.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "ParseError",
    "SCHEMAS",
    "CleaningAction",
    "RawSeries",
    "CleanConfig",
    "FeatureFrame",
    "NormStats",
    "WindowView",
    "WindowBatch",
    "SplitWindows",
    "Dataset",
    "load_csv",
    "clean",
    "rolling_mean",
    "rolling_std",
    "log_returns",
    "featurize",
    "fit_stats",
    "normalize",
    "denormalize_feature",
    "write_stats",
    "window",
    "build_dataset",
    "epoch_to_text",
]


class ParseError(ValueError):
    """Malformed input file; the message carries the line number."""


# Non-time columns per schema, in required order, plus the target column.
SCHEMAS: dict[str, dict] = {
    "ett": {
        "columns": ("HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT"),
        "target": "OT",
    },
    "ohlcv": {
        "columns": ("open", "high", "low", "close", "volume"),
        "target": "close",
    },
}

_FLOAT_FMT = "%.17g"
_EPOCH0 = datetime(1970, 1, 1)
# The first and last epochs epoch_to_text can format.
_YEAR1 = int((datetime(1, 1, 1) - _EPOCH0).total_seconds())
_LAST_EPOCH = int((datetime(9999, 12, 31, 23, 59, 59) - _EPOCH0).total_seconds())


def epoch_to_text(epoch: int) -> str:
    return datetime.fromtimestamp(int(epoch), tz=timezone.utc).strftime(
        "%Y-%m-%d %H:%M:%S"
    )


@dataclass(frozen=True)
class CleaningAction:
    """One repair applied during cleaning."""

    epoch: int
    action: str  # "drop" | "fill" | "split"
    reason: str

    def render(self) -> str:
        return f"{epoch_to_text(self.epoch)} {self.action} {self.reason}"


@dataclass
class RawSeries:
    """A parsed series: epoch-second timestamps plus named float columns.

    segment_ids mark maximal runs free of long gaps (all zero before
    cleaning); report lists the repairs that produced this object.
    """

    schema: str
    epochs: np.ndarray
    columns: dict[str, np.ndarray]
    period: int
    segment_ids: np.ndarray
    report: list[CleaningAction] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return int(self.epochs.size)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(SCHEMAS[self.schema]["columns"])


def _utf8_lines(fh, path):
    """The lines of the text file fh; a ParseError names the file when
    its bytes are not UTF-8."""
    try:
        yield from fh
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None


def _csv_rows(fh, path):
    """The CSV records of the text file fh; a ParseError names the file
    and line where the csv module refuses one (a field over its size
    limit, say)."""
    reader = csv.reader(_utf8_lines(fh, path))
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None


def _parse_timestamp(text: str, path, line_no: int) -> int:
    try:
        dt = datetime.fromisoformat(text.strip())
    except ValueError:
        raise ParseError(f"{path}: line {line_no}: bad timestamp {text!r}") from None
    if dt.tzinfo is not None:
        epoch = int(round(dt.timestamp()))
    else:
        epoch = int(round((dt - _EPOCH0).total_seconds()))
    # An offset, or rounding off a fraction, can carry a stamp past the
    # years epoch_to_text can format.
    if not _YEAR1 <= epoch <= _LAST_EPOCH:
        raise ParseError(f"{path}: line {line_no}: timestamp {text!r} falls "
                         "outside years 1 to 9999")
    return epoch


def _infer_period(epochs: np.ndarray, path) -> int:
    diffs = np.diff(epochs)
    diffs = diffs[diffs > 0]
    if diffs.size == 0:
        raise ParseError(f"{path}: cannot infer sampling period: no increasing timestamps")
    values, counts = np.unique(diffs, return_counts=True)
    return int(values[np.argmax(counts)])


# The plain shape of a data file: an ASCII header without quotes or
# carriage returns, then rows "YYYY-MM-DD HH:MM:SS,<number>,...", each
# ending in a newline but perhaps the last, made of these bytes alone.
# A stamp lies bytewise between _STAMP_LO and _STAMP_HI.
_PLAIN_BYTES = b"0123456789.eE+-,: \n"
_STAMP_LO = np.frombuffer(b"0000-00-00 00:00:00,", dtype=np.uint8)
_STAMP_HI = np.frombuffer(b"9999-99-99 99:99:99,", dtype=np.uint8)


def _read_plain(path, schema: str):
    """(epochs, columns) of a file in the plain shape, parsed in bulk by
    numpy; None for any other file, which _read_rows reads or refuses.

    It accepts only what _read_rows accepts, with the same bits: csv
    splits an unquoted line at its commas, np.loadtxt parses these
    number bytes as float() does, datetime64 refuses the days and times
    fromisoformat refuses but year 0, which is refused here.
    """
    want = SCHEMAS[schema]["columns"]
    with open(path, "rb") as fh:
        head = fh.readline().removesuffix(b"\n")
        body = fh.read()
    if not (head.isascii() and b'"' not in head and b"\r" not in head
            and head.split(b",")[1:] == [name.encode() for name in want]):
        return None
    if not body or body.translate(None, _PLAIN_BYTES):
        return None
    if not body.endswith(b"\n"):
        body += b"\n"
    buf = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    n = ends.size
    starts = np.concatenate(([0], ends[:-1] + 1))
    # One space per row, its stamp's, so no number is padded, and
    # len(want) commas per row: a row with fewer fails np.loadtxt's usecols.
    if (np.min(ends - starts) < _STAMP_LO.size
            or [np.count_nonzero(buf == ord(c)) for c in " ,"] != [n, len(want) * n]):
        return None
    stamps = buf[starts[:, None] + np.arange(_STAMP_LO.size)]
    if not np.all((stamps >= _STAMP_LO) & (stamps <= _STAMP_HI)):
        return None
    try:
        epochs = (np.ascontiguousarray(stamps[:, :-1]).view("S19")[:, 0]
                  .astype("datetime64[s]").astype(np.int64))
        values = np.loadtxt(io.BytesIO(body), delimiter=",", comments=None,
                            usecols=range(1, 1 + len(want)), ndmin=2, encoding="ascii")
    except ValueError:
        return None
    if epochs.min() < _YEAR1 or not np.all(np.isfinite(values)):
        return None
    return epochs, {name: values[:, j].copy() for j, name in enumerate(want)}


def _read_rows(path, schema: str):
    """(epochs, columns) of a file, parsed row by row; a ParseError
    names the file and the first bad line."""
    want = SCHEMAS[schema]["columns"]
    epochs: list[int] = []
    cols: list[list[float]] = [[] for _ in want]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _csv_rows(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if len(header) != 1 + len(want) or tuple(header[1:]) != want:
            raise ParseError(
                f"{path}: header {header!r} does not match schema {schema!r} "
                f"(expected timestamp column plus {list(want)})"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 1 + len(want):
                raise ParseError(
                    f"{path}: line {line_no}: expected {1 + len(want)} fields, "
                    f"got {len(row)}"
                )
            epochs.append(_parse_timestamp(row[0], path, line_no))
            for j, text in enumerate(row[1:]):
                try:
                    value = float(text)
                except ValueError:
                    raise ParseError(
                        f"{path}: line {line_no}: bad number {text!r} in "
                        f"column {want[j]!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(
                        f"{path}: line {line_no}: non-finite value in column "
                        f"{want[j]!r}"
                    )
                cols[j].append(value)
    if not epochs:
        raise ParseError(f"{path}: no data rows")
    return (np.asarray(epochs, dtype=np.int64),
            {name: np.asarray(col, dtype=np.float64) for name, col in zip(want, cols)})


def load_csv(path, schema: str) -> RawSeries:
    """Parse a headered CSV into a RawSeries.

    The first column must hold ISO-8601 timestamps; the remaining columns
    must match the schema by name and order. Rows are sorted by time;
    duplicate timestamps are kept here and dropped by clean(). The
    sampling period (seconds) is the modal positive delta (1 for a
    single row). A file in the plain shape is parsed in bulk, any other
    row by row, to the same bits.
    """
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}; expected one of {sorted(SCHEMAS)}")
    ep, data = _read_plain(path, schema) or _read_rows(path, schema)
    order = np.argsort(ep, kind="stable")
    if not np.all(order == np.arange(ep.size)):
        ep = ep[order]
        data = {name: col[order] for name, col in data.items()}
    return RawSeries(
        schema=schema,
        epochs=ep,
        columns=data,
        period=_infer_period(ep, path) if ep.size > 1 else 1,
        segment_ids=np.zeros(ep.size, dtype=np.int64),
    )


@dataclass(frozen=True)
class CleanConfig:
    """Cleaning thresholds."""

    max_ffill_gap: int = 3
    z_max: float = 5.0
    return_limit: float = 0.20

    def __post_init__(self) -> None:
        # Each message starts with the setting's name. "not x > 0" also
        # rejects nan.
        if not self.max_ffill_gap >= 0:
            raise ValueError(f"max_ffill_gap: expected >= 0, got {self.max_ffill_gap!r}")
        for name in ("z_max", "return_limit"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name}: expected > 0, got {getattr(self, name)!r}")


def _dedup(
    ep: np.ndarray, rows: np.ndarray, seg: np.ndarray, report: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    keep = np.ones(ep.size, dtype=bool)
    keep[1:] = ep[1:] != ep[:-1]
    for e in ep[~keep]:
        report.append(CleaningAction(int(e), "drop", "duplicate timestamp"))
    if keep.all():
        return ep, rows, seg
    return ep[keep], rows[keep], seg[keep]


def _fill_gaps(
    ep: np.ndarray, rows: np.ndarray, seg_in: np.ndarray, period: int,
    max_gap: int, report: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    missing = np.rint(np.diff(ep) / period).astype(np.int64) - 1
    split = missing > max_gap
    # Row t-1 is repeated once per period missing before row t, unless
    # the gap splits, which starts a new segment at row t.
    fills = np.where(split, 0, np.maximum(missing, 0))
    reps = np.ones(ep.size, dtype=np.int64)
    reps[:-1] += fills
    seg = np.zeros(ep.size, dtype=np.int64)
    np.cumsum(split, out=seg[1:])
    first = np.repeat(np.cumsum(reps) - reps, reps)
    out_ep = np.repeat(ep, reps) + (np.arange(first.size) - first) * period
    for i in np.flatnonzero(missing > 0):
        if not split[i]:
            for j in range(1, missing[i] + 1):
                report.append(CleaningAction(
                    int(ep[i]) + j * period, "fill", "gap forward-filled"))
        # Re-cleaning already-segmented data rediscovers the same gaps;
        # only report splits the input did not know about.
        elif seg_in[i + 1] == seg_in[i]:
            report.append(CleaningAction(
                int(ep[i + 1]), "split", f"gap of {missing[i]} periods before this row"))
    return out_ep, np.repeat(rows, reps, axis=0), np.repeat(seg, reps)


def _return_pass(
    close: np.ndarray, rows: np.ndarray, seg: np.ndarray, limit: float,
    flagged: dict[int, str],
) -> bool:
    """Forward-fill rows whose close-to-close return exceeds the limit, in
    a scan: each return is taken against the row filled just before it."""
    changed = False
    for t in range(1, rows.shape[0]):
        if seg[t] != seg[t - 1]:
            continue
        prev = close[t - 1]
        if prev == 0.0:
            continue
        ret = close[t] / prev - 1.0
        if abs(ret) > limit:
            rows[t] = rows[t - 1]
            close[t] = close[t - 1]
            changed = True
            flagged.setdefault(t, f"one-step return {ret:+.4f} beyond limit")
    return changed


def _zscore_pass(
    rows: np.ndarray, seg: np.ndarray, names: list[str], z_max: float,
    flagged: dict[int, str],
) -> bool:
    """Forward-fill rows where any column sits beyond z_max deviations.

    A candidate (worst z beyond z_max, previous row in its segment) is
    filled when it differs from the last earlier non-candidate row, which
    every unfilled candidate since equals. A filled row copies the last
    earlier unfilled row, whose zeros may carry the other sign.
    """
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    live = std > 0.0
    if not live.any():
        return False
    z = np.zeros(rows.shape)
    z[:, live] = np.abs(rows[:, live] - mean[live]) / std[live]
    worst = np.argmax(z, axis=1)
    at = np.arange(rows.shape[0])
    z_worst = z[at, worst]
    cand = np.append(False, (z_worst[1:] > z_max) & (seg[1:] == seg[:-1]))
    anchor = np.maximum.accumulate(np.where(cand, 0, at))
    fill = cand & (rows != rows[anchor]).any(axis=1)
    for t in np.flatnonzero(fill):
        flagged.setdefault(
            int(t), f"column {names[worst[t]]} z-score {z_worst[t]:.2f} beyond {z_max:g}"
        )
    rows[:] = rows[np.maximum.accumulate(np.where(fill, 0, at))]
    return bool(fill.any())


def clean(raw: RawSeries, cfg: CleanConfig = CleanConfig()) -> RawSeries:
    """Repair a raw series: dedup, fill short gaps, segment long ones,
    then forward-fill outliers until nothing is left to flag.

    Outlier rows (excessive one-step close return on financial data, or
    any column beyond z_max standard deviations) are replaced with the
    previous row of the same segment, never deleted. Both filters rerun
    until a full sweep changes nothing, so the function is idempotent.
    """
    if raw.n_rows == 0:
        raise ValueError("cannot clean an empty series")
    report: list[CleaningAction] = []
    names = list(raw.columns)
    rows = np.stack([raw.columns[n] for n in names], axis=1, dtype=np.float64)
    ep, rows, seg_in = _dedup(raw.epochs, rows, raw.segment_ids, report)
    ep, rows, seg = _fill_gaps(ep, rows, seg_in, raw.period, cfg.max_ffill_gap, report)
    close_idx = names.index("close") if raw.schema == "ohlcv" else None
    flagged: dict[int, str] = {}
    for _ in range(rows.shape[0] + 1):
        changed = False
        if close_idx is not None:
            changed |= _return_pass(
                rows[:, close_idx], rows, seg, cfg.return_limit, flagged
            )
        changed |= _zscore_pass(rows, seg, names, cfg.z_max, flagged)
        if not changed:
            break
    for t in sorted(flagged):
        report.append(CleaningAction(int(ep[t]), "fill", flagged[t]))
    return RawSeries(
        schema=raw.schema,
        epochs=ep,
        columns={n: rows[:, j].copy() for j, n in enumerate(names)},
        period=raw.period,
        segment_ids=seg,
        report=report,
    )


# -- features ---------------------------------------------------------------


def rolling_mean(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean over the last ``window`` samples.

    out[i] averages values[i-window+1 .. i] and is defined from
    i = window - 1; earlier entries are NaN.
    """
    v = np.asarray(values, dtype=np.float64)
    if window < 1 or window > v.size:
        raise ValueError(f"window must be in 1..{v.size}, got {window}")
    out = np.full(v.size, np.nan)
    csum = np.concatenate([[0.0], np.cumsum(v)])
    out[window - 1 :] = (csum[window:] - csum[:-window]) / window
    return out


def rolling_std(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing population standard deviation over ``window`` samples."""
    v = np.asarray(values, dtype=np.float64)
    if window < 1 or window > v.size:
        raise ValueError(f"window must be in 1..{v.size}, got {window}")
    out = np.full(v.size, np.nan)
    out[window - 1 :] = sliding_window_view(v, window).std(axis=1)
    return out


def log_returns(values: np.ndarray) -> np.ndarray:
    """ln(v[i] / v[i-1]); the first entry is NaN. Values must be > 0."""
    v = np.asarray(values, dtype=np.float64)
    if np.any(v <= 0):
        raise ValueError("log returns need strictly positive values")
    out = np.full(v.size, np.nan)
    out[1:] = np.log(v[1:] / v[:-1])
    return out


@dataclass
class FeatureFrame:
    """Feature matrix derived from a cleaned series.

    data is (n_rows, n_features) aligned with epochs and segment_ids;
    target names the column forecast targets are read from.
    """

    epochs: np.ndarray
    segment_ids: np.ndarray
    data: np.ndarray
    feature_names: tuple[str, ...]
    target: str
    period: int

    def __post_init__(self) -> None:
        if self.data.ndim != 2 or self.data.shape[1] != len(self.feature_names):
            raise ValueError(
                f"data shape {self.data.shape} does not match "
                f"{len(self.feature_names)} feature names"
            )
        if self.epochs.size != self.data.shape[0] or self.segment_ids.size != self.data.shape[0]:
            raise ValueError("epochs/segment_ids/data row counts disagree")
        if self.target not in self.feature_names:
            raise ValueError(f"target {self.target!r} not among {self.feature_names}")

    @property
    def n_rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.data.shape[1])

    @property
    def target_index(self) -> int:
        return self.feature_names.index(self.target)

    def slice_rows(self, start: int, stop: int) -> "FeatureFrame":
        return FeatureFrame(
            self.epochs[start:stop],
            self.segment_ids[start:stop],
            self.data[start:stop],
            self.feature_names,
            self.target,
            self.period,
        )


_FINANCIAL_MAX_WINDOW = 20


def featurize(raw: RawSeries) -> FeatureFrame:
    """Build the model-facing feature matrix from a cleaned series.

    ETT data passes through as-is with OT as the target. Financial data
    adds the log-return of close, 5- and 20-step moving averages of close
    and the 20-step rolling standard deviation of log-returns; rolling
    features are computed inside each segment and each segment's leading
    rows (where some feature is undefined) are dropped.
    """
    names = list(raw.column_names)
    if raw.schema == "ett":
        data = np.stack([raw.columns[n] for n in names], axis=1)
        return FeatureFrame(
            raw.epochs.copy(), raw.segment_ids.copy(), data,
            tuple(names), SCHEMAS["ett"]["target"], raw.period,
        )
    # Financial: per-segment rolling features, leading rows dropped.
    out_rows, out_ep, out_seg = [], [], []
    feature_names = tuple(names) + ("log_ret", "ma5", "ma20", "vol20")
    for seg_id in np.unique(raw.segment_ids):
        idx = np.where(raw.segment_ids == seg_id)[0]
        if idx.size <= _FINANCIAL_MAX_WINDOW:
            continue
        close = raw.columns["close"][idx]
        rets = log_returns(close)
        ma5 = rolling_mean(close, 5)
        ma20 = rolling_mean(close, 20)
        # vol20 needs 20 returns; returns start at row 1 of the segment.
        vol20 = np.full(idx.size, np.nan)
        vol = rolling_std(rets[1:], _FINANCIAL_MAX_WINDOW)
        vol20[1:] = vol
        base = np.stack([raw.columns[n][idx] for n in names], axis=1)
        seg_data = np.concatenate(
            [base, np.stack([rets, ma5, ma20, vol20], axis=1)], axis=1
        )
        keep = slice(_FINANCIAL_MAX_WINDOW, None)
        out_rows.append(seg_data[keep])
        out_ep.append(raw.epochs[idx][keep])
        out_seg.append(raw.segment_ids[idx][keep])
    if not out_rows:
        raise ValueError(
            f"series too short for rolling features: every segment needs "
            f"more than {_FINANCIAL_MAX_WINDOW} rows"
        )
    data = np.concatenate(out_rows, axis=0)
    if not np.all(np.isfinite(data)):
        raise ValueError("internal error: undefined feature values survived")
    return FeatureFrame(
        np.concatenate(out_ep), np.concatenate(out_seg), data,
        feature_names, SCHEMAS["ohlcv"]["target"], raw.period,
    )


# -- normalization ------------------------------------------------------------


@dataclass(frozen=True)
class NormStats:
    """Per-feature mean/std fitted on a training slice.

    Constant features (std exactly 0) are listed in dropped and excluded
    from names/mean/std. mean and std hold one finite float64 per name,
    and every std is > 0.
    """

    names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray
    dropped: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.names)
        for key in ("mean", "std"):
            arr = np.asarray(getattr(self, key), dtype=np.float64)
            if arr.shape != (n,):
                raise ValueError(f"{key}: expected shape ({n},) for the {n} kept "
                                 f"features, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{key}: every value must be finite")
            object.__setattr__(self, key, arr)
        if not np.all(self.std > 0.0):
            raise ValueError("std: every value must be > 0")

    def index_of(self, feature: str) -> int:
        try:
            return self.names.index(feature)
        except ValueError:
            raise KeyError(f"feature {feature!r} not in stats") from None


def fit_stats(frame: FeatureFrame) -> NormStats:
    """Fit normalization statistics on the given (training) frame."""
    if frame.n_rows < 2:
        raise ValueError("need at least 2 rows to fit normalization stats")
    mean = frame.data.mean(axis=0)
    std = frame.data.std(axis=0)
    live = std > 0.0
    dropped = tuple(n for n, ok in zip(frame.feature_names, live) if not ok)
    if frame.target in dropped:
        raise ValueError(f"target {frame.target!r} is constant on the training split")
    return NormStats(
        names=tuple(n for n, ok in zip(frame.feature_names, live) if ok),
        mean=mean[live],
        std=std[live],
        dropped=dropped,
    )


def normalize(frame: FeatureFrame, stats: NormStats) -> FeatureFrame:
    """Standardize a frame with stats fitted elsewhere; drops constants."""
    cols = []
    for name in stats.names:
        if name not in frame.feature_names:
            raise ValueError(f"frame lacks feature {name!r}")
        cols.append(frame.feature_names.index(name))
    data = (frame.data[:, cols] - stats.mean) / stats.std
    return FeatureFrame(
        frame.epochs.copy(), frame.segment_ids.copy(), data,
        stats.names, frame.target, frame.period,
    )


def denormalize_feature(values: np.ndarray, stats: NormStats, feature: str) -> np.ndarray:
    """Invert normalization for one feature column."""
    j = stats.index_of(feature)
    return np.asarray(values, dtype=np.float64) * stats.std[j] + stats.mean[j]


def write_stats(path, stats: NormStats) -> None:
    """Write stats as ``feature,mean,std`` rows (17 significant digits)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("feature,mean,std\n")
        for name, m, s in zip(stats.names, stats.mean, stats.std):
            fh.write(f"{name},{_FLOAT_FMT % m},{_FLOAT_FMT % s}\n")
        for name in stats.dropped:
            fh.write(f"# dropped,{name}\n")


# -- windows ------------------------------------------------------------------


class WindowView:
    """Read-only windows of a frame's rows, cut when they are indexed.

    Window i is rows [starts[i], starts[i] + length) of data, so the view
    has shape (len(starts), length, n_features). Indexing with an int, a
    slice or an index array returns a fresh C-contiguous float64 array of
    those windows. The view holds only data and starts, never a split's
    windows all at once; np.asarray on it raises TypeError instead of
    building them.
    """

    def __init__(self, data: np.ndarray, starts: np.ndarray, length: int):
        self.data = data
        self.starts = starts
        self._offsets = np.arange(length)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self), self._offsets.size, self.data.shape[1])

    def __len__(self) -> int:
        return int(self.starts.size)

    def __getitem__(self, sel) -> np.ndarray:
        if isinstance(sel, tuple):
            raise TypeError("windows take one index: an int, a slice or an index array")
        return self.data[np.asarray(self.starts[sel])[..., None] + self._offsets]

    def __array__(self, *args, **kwargs):
        raise TypeError("a WindowView is cut by indexing it, not converted whole")


@dataclass
class WindowBatch:
    """A split's forecasting windows, as start rows into a normalized frame.

    enc is the (n, enc_len, F) WindowView of the frame's data that the
    forecaster reads (it builds its decoder input from it), cut per batch
    by whoever indexes it; enc.starts holds each window's first row in the
    frame. tgt is (n, horizon, 1), read from the target feature, and
    stored whole.
    """

    enc: WindowView
    tgt: np.ndarray

    @property
    def n_windows(self) -> int:
        return len(self.enc)


@dataclass
class SplitWindows:
    """Chronological train/val/test windows."""

    train: WindowBatch
    val: WindowBatch
    test: WindowBatch


@dataclass
class Dataset:
    """Normalized windows plus the statistics that produced them."""

    splits: SplitWindows
    stats: NormStats
    frame: FeatureFrame  # normalized; every split's windows view its data


def _window_starts(segment_ids: np.ndarray, row_lo: int, row_hi: int,
                   length: int, stride: int) -> np.ndarray:
    """The first rows of the windows of length rows, every stride rows
    from row_lo, that end by row_hi and lie in one segment."""
    starts = np.arange(row_lo, max(row_lo, row_hi - length + 1), stride, dtype=np.int64)
    # changes[t] counts the segment changes in rows 1..t, so a window
    # [s, s + length) stays in one segment when the count does not move.
    changes = np.zeros(segment_ids.size, dtype=np.int64)
    np.cumsum(segment_ids[1:] != segment_ids[:-1], out=changes[1:])
    return starts[changes[starts + length - 1] == changes[starts]]


def _windows_in_range(
    frame: FeatureFrame, row_lo: int, row_hi: int,
    enc_len: int, horizon: int, stride: int,
) -> WindowBatch:
    total = enc_len + horizon
    starts = _window_starts(frame.segment_ids, row_lo, row_hi, total, stride)
    tgt_rows = starts[:, None] + np.arange(enc_len, total)
    return WindowBatch(WindowView(frame.data, starts, enc_len),
                       frame.data[tgt_rows, frame.target_index][:, :, None])


def _split_rows(n: int, ratios: tuple[float, float, float]) -> tuple[int, int, int]:
    """The row boundaries (i_train, i_val, n) of n rows split at ratios."""
    # A nan ratio fails the sum test.
    if len(ratios) != 3 or any(r < 0 for r in ratios) or not math.isclose(
        sum(ratios), 1.0, rel_tol=0, abs_tol=1e-9
    ):
        raise ValueError(f"ratios must be 3 non-negative numbers summing to 1, got {ratios}")
    return int(math.floor(ratios[0] * n)), int(math.floor((ratios[0] + ratios[1]) * n)), n


def window(
    frame: FeatureFrame,
    enc_len: int,
    label_len: int,
    horizon: int,
    stride: int = 1,
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
) -> SplitWindows:
    """Cut chronological train/val/test windows out of a frame.

    The frame is split by row count at the given ratios; a window must
    lie entirely inside one split and one segment (targets included), so
    splits stay disjoint in time and discontinuities are never crossed.
    label_len shapes no window: it is range-checked against enc_len, and
    the forecaster takes its decoder rows from the encoder window.
    """
    if not (1 <= label_len <= enc_len):
        raise ValueError(f"need 1 <= label_len <= enc_len, got {label_len}, {enc_len}")
    if horizon < 1 or stride < 1:
        raise ValueError("horizon and stride must be >= 1")
    i_train, i_val, n = _split_rows(frame.n_rows, ratios)
    make = lambda lo, hi: _windows_in_range(frame, lo, hi, enc_len, horizon, stride)
    return SplitWindows(
        train=make(0, i_train),
        val=make(i_train, i_val),
        test=make(i_val, n),
    )


def build_dataset(
    frame: FeatureFrame,
    enc_len: int,
    label_len: int,
    horizon: int,
    stride: int = 1,
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
    stats: Optional[NormStats] = None,
) -> Dataset:
    """Fit stats on the training rows, normalize, and cut windows.

    label_len is range-checked as window() does, and shapes no window.
    Given stats (a checkpoint's), the frame is normalized with them
    instead; the stats fitted on its training rows must name the same
    features, else RuntimeError, raised after every window check.
    """
    i_train, _, _ = _split_rows(frame.n_rows, ratios)
    if i_train < 2:
        raise ValueError(f"training split of {i_train} rows is too small")
    fitted = fit_stats(frame.slice_rows(0, i_train))
    if stats is None:
        stats = fitted
    # Which statistics normalize does not move the windows, so the window
    # checks run before the feature-set check either way.
    match = stats.names == fitted.names
    norm = normalize(frame, stats if match else fitted)
    splits = window(norm, enc_len, label_len, horizon, stride, ratios)
    if splits.train.n_windows == 0:
        raise ValueError("training split produced no windows")
    if not match:
        raise RuntimeError(
            "feature set of the data does not match the checkpoint "
            f"({fitted.names} vs {stats.names})"
        )
    return Dataset(splits=splits, stats=stats, frame=norm)
