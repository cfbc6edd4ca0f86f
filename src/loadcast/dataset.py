"""CSV ingestion, the on-disk series store, and synthetic load data.

The interchange format is CSV with header ``series_id,timestamp,load_mw``:
ISO-8601 hourly timestamps, one row per hour per series, a blank load
field marking a missing hour.  Rows may arrive shuffled; ingestion sorts
them, enforces strict hourly enumeration per series, and rejects
duplicates.  The store file is a binary snapshot of the same content
with a manifest of coverage and gap statistics.

Both CSV paths work by columns: ingest parses each distinct timestamp once
and keeps per-series columns of hours and loads, sorted and checked once per
series; export formats a series' stamps in one ``datetime64`` pass and hands
its rows to the ``csv`` writer in bulk, writing what a per-row writer would.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import IngestError, ModelFileError
from .files import replacing
from .preprocess import HourlySeries
from .serialize import read_file, write_file

STORE_MAGIC = b"loadcast-store\n"
STORE_VERSION = 1

CSV_HEADER = ["series_id", "timestamp", "load_mw"]


@dataclass
class DatasetStore:
    series: dict = field(default_factory=dict)

    @property
    def series_ids(self) -> list:
        return sorted(self.series)

    def __len__(self) -> int:
        return len(self.series)

    def get(self, series_id: str) -> HourlySeries:
        try:
            return self.series[series_id]
        except KeyError:
            raise IngestError(f"store has no series {series_id!r}") from None

    def manifest(self) -> dict:
        per_series = {}
        for sid in self.series_ids:
            s = self.series[sid]
            missing = int(np.sum(s.missing))
            starts = np.flatnonzero(s.missing[1:] & ~s.missing[:-1]).size
            gap_count = starts + int(bool(s.missing[0]))
            per_series[sid] = {
                "start": s.start.isoformat(),
                "end": s.end.isoformat(),
                "hours": len(s),
                "missing_hours": missing,
                "coverage_pct": 100.0 * (len(s) - missing) / len(s),
                "gap_count": gap_count,
            }
        return {
            "total_series": len(self.series),
            "total_hours": sum(len(s) for s in self.series.values()),
            "series": per_series,
        }


def _parse_hour(raw: str, line: int) -> int:
    try:
        ts = dt.datetime.fromisoformat(raw.strip().replace("Z", "+00:00"))
        if ts.tzinfo is not None:
            ts = ts.astimezone(dt.timezone.utc).replace(tzinfo=None)
    except (ValueError, OverflowError):  # overflow: out of range in UTC
        raise IngestError(f"line {line}: bad timestamp {raw!r}") from None
    if ts.minute or ts.second or ts.microsecond:
        raise IngestError(f"line {line}: timestamp {raw!r} is not a whole hour")
    return ts.toordinal() * 24 + ts.hour


def _hour_stamp(hour) -> dt.datetime:
    day, hour = divmod(int(hour), 24)
    return dt.datetime.fromordinal(day).replace(hour=hour)


def _parse_load(raw: str, line: int) -> float:
    raw = raw.strip()
    if raw == "":
        return math.nan
    try:
        value = float(raw)
    except ValueError:
        raise IngestError(f"line {line}: bad load value {raw!r}") from None
    if not math.isfinite(value) or value <= 0.0:
        raise IngestError(
            f"line {line}: load must be finite and positive, got {raw!r}")
    return value


def ingest_csv(path) -> DatasetStore:
    columns = defaultdict(lambda: ([], []))  # id -> hours, loads; file order
    hours: dict = {}  # raw timestamp -> UTC toordinal() * 24 + hour
    try:  # bytes are decoded, and quotes matched, as the rows are read
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_HEADER:
                raise IngestError(f"expected header {','.join(CSV_HEADER)!r}"
                                  f", got {header!r}")
            for line, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and row[0].strip() == ""):
                    continue
                if len(row) != 3:
                    raise IngestError(
                        f"line {line}: expected 3 fields, got {len(row)}")
                sid = row[0].strip()
                if not sid:
                    raise IngestError(f"line {line}: empty series_id")
                hour = hours.get(row[1])
                if hour is None:
                    hour = hours[row[1]] = _parse_hour(row[1], line)
                hour_col, load_col = columns[sid]
                hour_col.append(hour)
                load_col.append(_parse_load(row[2], line))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise IngestError(f"unreadable CSV: {exc}") from None
    if not columns:
        raise IngestError("no data rows")

    store = DatasetStore()
    for sid in sorted(columns):
        hour_arr, values = map(np.asarray, columns[sid])
        order = np.argsort(hour_arr, kind="stable")
        hour_arr, values = hour_arr[order], values[order]
        bad = np.flatnonzero(np.diff(hour_arr) != 1)
        if bad.size:
            prev, cur = map(_hour_stamp, hour_arr[bad[0]:bad[0] + 2])
            if prev == cur:
                raise IngestError(f"{sid}: duplicate timestamp {cur.isoformat()}")
            raise IngestError(f"{sid}: non-hourly step from {prev.isoformat()} "
                              f"to {cur.isoformat()}")
        store.series[sid] = HourlySeries(sid, _hour_stamp(hour_arr[0]),
                                         values, np.isnan(values))
    return store


def export_csv(store: DatasetStore, path):
    with replacing(path) as (tmp,), open(tmp, "w", encoding="utf-8",
                                         newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for sid in store.series_ids:
            s = store.series[sid]
            hours = np.datetime64(s.start, "h") + np.arange(len(s))
            stamps = np.datetime_as_string(hours.astype("M8[s]"))
            loads = list(map(repr, s.values.tolist()))
            for i in np.flatnonzero(s.missing).tolist():
                loads[i] = ""
            writer.writerows(zip(repeat(sid), stamps.tolist(), loads))


def save_store(path, store: DatasetStore):
    header = {
        "format_version": STORE_VERSION,
        "series": [{"id": sid,
                    "start": store.series[sid].start.isoformat(),
                    "hours": len(store.series[sid])}
                   for sid in store.series_ids],
    }
    arrays = []
    for sid in store.series_ids:
        s = store.series[sid]
        arrays += [np.asarray(s.values, np.float64),
                   np.asarray(s.missing, np.uint8)]
    write_file(path, STORE_MAGIC, header, arrays)


def _is_series_entry(entry) -> bool:
    return (isinstance(entry, dict) and isinstance(entry.get("id"), str)
            and isinstance(entry.get("start"), str)
            and type(entry.get("hours")) is int and entry["hours"] > 0)


def load_store(path) -> DatasetStore:
    header, payload = read_file(path, STORE_MAGIC, STORE_VERSION, "store")
    entries = header.get("series")
    if not isinstance(entries, list) or not all(map(_is_series_entry, entries)):
        raise ModelFileError(
            "store header needs a list of series entries, each with a string "
            "id and start and a positive integer hour count")
    if not entries:
        raise ModelFileError("store header lists no series")
    if len({entry["id"] for entry in entries}) != len(entries):
        raise ModelFileError("store header repeats a series id")
    store = DatasetStore()
    offset = 0
    for entry in entries:
        hours = entry["hours"]
        nbytes = hours * 8 + hours
        chunk = payload[offset:offset + nbytes]
        if len(chunk) < nbytes:
            raise ModelFileError("store file truncated")
        values = np.frombuffer(chunk[:hours * 8], dtype=np.float64).copy()
        missing = np.frombuffer(chunk[hours * 8:], dtype=np.uint8).astype(bool)
        try:
            start = dt.datetime.fromisoformat(entry["start"])
            store.series[entry["id"]] = HourlySeries(entry["id"], start,
                                                     values, missing)
        except ValueError as exc:
            raise ModelFileError(f"store series {entry['id']!r}: {exc}") from None
        offset += nbytes
    if offset != len(payload):
        raise ModelFileError("store file has trailing bytes")
    return store


# -- synthetic data --------------------------------------------------------


def synthetic_series(series_id="synth1", days=1095,
                     start=dt.date(2015, 1, 1), *, base=10000.0,
                     daily_amp=1500.0, weekly_amp=600.0, yearly_amp=800.0,
                     noise=120.0, phase_hours=0.0, seed=0) -> HourlySeries:
    """Three superposed sinusoids (periods 24, 168 and 8766 hours) plus
    Gaussian noise; defaults keep the load safely positive."""
    t = np.arange(days * 24, dtype=np.float64) + phase_hours
    values = (base
              + daily_amp * np.sin(2.0 * np.pi * t / 24.0)
              + weekly_amp * np.sin(2.0 * np.pi * t / 168.0)
              + yearly_amp * np.sin(2.0 * np.pi * t / 8766.0))
    if noise:
        values = values + np.random.default_rng(seed).normal(0.0, noise,
                                                             t.size)
    return HourlySeries(series_id, dt.datetime.combine(start, dt.time()),
                        values, np.zeros(t.size, dtype=bool))


def synthetic_store(n_series=4, days=1095, start=dt.date(2015, 1, 1),
                    seed=0, noise=120.0) -> DatasetStore:
    """Store of related series with staggered levels and phases."""
    store = DatasetStore()
    for i in range(n_series):
        base = 8000.0 + 1500.0 * i
        scale = base / 10000.0
        sid = f"synth{i + 1}"
        store.series[sid] = synthetic_series(
            sid, days, start, base=base, daily_amp=1500.0 * scale,
            weekly_amp=600.0 * scale, yearly_amp=800.0 * scale,
            noise=noise * scale, phase_hours=3.0 * i, seed=(seed, i))
    return store
