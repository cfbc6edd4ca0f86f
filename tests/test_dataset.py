"""CSV ingest/export, the binary store, and the synthetic generator."""

import csv
import datetime as dt
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from loadcast.dataset import (
    CSV_HEADER,
    DatasetStore,
    export_csv,
    ingest_csv,
    load_store,
    save_store,
    synthetic_series,
    synthetic_store,
)
from loadcast.errors import IngestError, ModelFileError
from loadcast.preprocess import HourlySeries


def write_csv(path, rows, header="series_id,timestamp,load_mw"):
    text = header + "\n" + "\n".join(rows) + "\n"
    path.write_text(text, encoding="utf-8")
    return path


def hourly_rows(sid, start, loads):
    t0 = dt.datetime.fromisoformat(start)
    return [f"{sid},{(t0 + dt.timedelta(hours=i)).isoformat()},{v}"
            for i, v in enumerate(loads)]


def test_ingest_single_series_48_rows(tmp_path):
    rows = hourly_rows("ee", "2024-01-01T00:00:00", [1000.0 + i for i in range(48)])
    store = ingest_csv(write_csv(tmp_path / "in.csv", rows))
    m = store.manifest()
    assert m["total_series"] == 1
    assert m["series"]["ee"]["hours"] == 48
    assert m["series"]["ee"]["missing_hours"] == 0
    assert m["series"]["ee"]["gap_count"] == 0
    assert m["series"]["ee"]["coverage_pct"] == 100.0
    assert m["series"]["ee"]["start"] == "2024-01-01T00:00:00"
    assert m["series"]["ee"]["end"] == "2024-01-02T23:00:00"


def test_blank_load_is_one_missing_hour(tmp_path):
    loads = [1000.0] * 10
    rows = hourly_rows("x", "2024-01-01T00:00:00", loads)
    rows[4] = rows[4].rsplit(",", 1)[0] + ","  # blank load cell
    store = ingest_csv(write_csv(tmp_path / "in.csv", rows))
    s = store.get("x")
    assert int(np.sum(s.missing)) == 1
    assert bool(s.missing[4])
    assert np.isnan(s.values[4])
    m = store.manifest()["series"]["x"]
    assert m["missing_hours"] == 1 and m["gap_count"] == 1


def test_shuffled_rows_canonicalize(tmp_path):
    rows = hourly_rows("a", "2024-03-01T00:00:00", np.linspace(900, 1100, 30))
    rows += hourly_rows("b", "2024-03-05T00:00:00", np.linspace(400, 600, 30))
    shuffled = [rows[i] for i in np.random.default_rng(1).permutation(len(rows))]
    straight = ingest_csv(write_csv(tmp_path / "s.csv", rows))
    scrambled = ingest_csv(write_csv(tmp_path / "t.csv", shuffled))
    assert straight.manifest() == scrambled.manifest()
    for sid in ("a", "b"):
        np.testing.assert_array_equal(straight.get(sid).values,
                                      scrambled.get(sid).values)


def test_ingest_rejections(tmp_path):
    good = hourly_rows("x", "2024-01-01T00:00:00", [1.0, 2.0, 3.0])
    with pytest.raises(IngestError, match="header"):
        ingest_csv(write_csv(tmp_path / "h.csv", good, header="a,b,c"))
    with pytest.raises(IngestError, match="duplicate"):
        ingest_csv(write_csv(tmp_path / "d.csv", good + [good[-1]]))
    skipping = good + ["x,2024-01-01T05:00:00,4.0"]  # hour 3 absent
    with pytest.raises(IngestError, match="non-hourly"):
        ingest_csv(write_csv(tmp_path / "g.csv", skipping))
    with pytest.raises(IngestError, match="whole hour"):
        ingest_csv(write_csv(tmp_path / "m.csv", ["x,2024-01-01T00:30:00,5.0"]))
    with pytest.raises(IngestError, match="bad timestamp"):
        ingest_csv(write_csv(tmp_path / "t.csv", ["x,yesterday,5.0"]))
    with pytest.raises(IngestError, match="bad load"):
        ingest_csv(write_csv(tmp_path / "l.csv", ["x,2024-01-01T00:00:00,oops"]))
    with pytest.raises(IngestError, match="positive"):
        ingest_csv(write_csv(tmp_path / "n.csv", ["x,2024-01-01T00:00:00,-5"]))
    with pytest.raises(IngestError, match="no data"):
        ingest_csv(write_csv(tmp_path / "e.csv", []))
    with pytest.raises(IngestError, match="3 fields"):
        ingest_csv(write_csv(tmp_path / "f.csv", ["x,2024-01-01T00:00:00"]))


def test_timezone_suffixes_normalize_to_utc(tmp_path):
    rows = ["x,2024-06-01T00:00:00Z,10.0",
            "x,2024-06-01T03:00:00+02:00,11.0"]
    store = ingest_csv(write_csv(tmp_path / "z.csv", rows))
    s = store.get("x")
    assert s.start == dt.datetime(2024, 6, 1, 0)
    assert len(s) == 2  # +02:00 row lands on 01:00 UTC, contiguous


@pytest.mark.parametrize("raw", [
    b"series_id,timestamp,load_mw\nx,2024-01-01T00:00:00,5\xff\n",
    b"series_id,timestamp,load_mw\nx,0001-01-01T00:00+01:00,5\n",
    b"series_id,timestamp,load_mw\nx,9999-12-31T23:00-01:00,5\n",
    b'series_id,timestamp,load_mw\nx,"2024' + b"0" * 200_000 + b"\n",
], ids=["not-utf8", "before-year-1-in-utc", "after-year-9999-in-utc",
        "unclosed-quote-past-field-limit"])
def test_unreadable_csv_is_ingest_error(tmp_path, raw):
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    with pytest.raises(IngestError):
        ingest_csv(path)


VALID_CSV = "\n".join(
    ["series_id,timestamp,load_mw"]
    + hourly_rows("a", "2024-01-01T00:00:00", [900.0, 950.0, 1000.0])
    + ["b,2024-01-01T00:00:00Z,400.0", "b,2024-01-01T02:00:00+01:00,",
       "b,2024-01-01T02:00:00,410.0"]).encode() + b"\n"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.integers(0, len(VALID_CSV) - 1),
                                st.binary(max_size=3)),
                      min_size=1, max_size=3))
@example(edits=[(len(VALID_CSV) - 2, b"\xff")])
def test_corrupted_csv_gives_store_or_ingest_error(tmp_path, edits):
    """Each edit replaces one byte of a valid CSV by 0 to 3 bytes."""
    raw = VALID_CSV
    for at, chunk in edits:
        raw = raw[:at] + chunk + raw[at + 1:]
    path = tmp_path / "corrupted.csv"
    path.write_bytes(raw)
    try:
        store = ingest_csv(path)
    except IngestError:
        return
    assert isinstance(store, DatasetStore)


def test_export_ingest_round_trip(tmp_path):
    store = synthetic_store(n_series=2, days=3)
    # punch a hole to exercise the blank-cell path
    s = store.series["synth1"]
    missing = s.missing.copy()
    missing[10] = True
    values = s.values.copy()
    values[10] = np.nan
    store.series["synth1"] = type(s)(s.series_id, s.start, values, missing)

    out = tmp_path / "out.csv"
    export_csv(store, out)
    again = ingest_csv(out)
    assert again.manifest() == store.manifest()
    for sid in store.series_ids:
        a, b = store.get(sid), again.get(sid)
        np.testing.assert_array_equal(a.missing, b.missing)
        np.testing.assert_array_equal(a.values[~a.missing],
                                      b.values[~b.missing])


def per_row_export(store, path):
    """The reference writer: one ``writerow`` per hour, each stamp from
    ``isoformat`` and each load from ``repr``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for sid in store.series_ids:
            s = store.series[sid]
            for i in range(len(s)):
                load = "" if s.missing[i] else repr(float(s.values[i]))
                writer.writerow([sid, s.timestamp(i).isoformat(), load])


def test_export_bytes_equal_the_per_row_writer(tmp_path):
    nan = np.nan
    store = synthetic_store(n_series=1, days=2)
    for sid, start, values in [
            ('a,"b"', dt.datetime(1, 1, 1, 3), [5e-324, nan, nan, 12.5]),
            ("x\ny", dt.datetime(9999, 12, 31, 20),
             [1.7976931348623157e308, 0.1, 7.0, nan])]:
        values = np.array(values)
        store.series[sid] = HourlySeries(sid, start, values, np.isnan(values))
    store.series["synth1"].values[30:40] = nan
    store.series["synth1"].missing[30:40] = True
    export_csv(store, tmp_path / "bulk.csv")
    per_row_export(store, tmp_path / "rows.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (
        tmp_path / "rows.csv").read_bytes()


@st.composite
def gappy_stores(draw):
    store = DatasetStore()
    for i in range(draw(st.integers(1, 3))):
        start = dt.datetime(2024, 1, 1) + dt.timedelta(
            hours=draw(st.integers(-10**6, 10**6)))
        loads = draw(st.lists(st.none() | st.floats(
            5e-324, 1e300, allow_subnormal=True), min_size=1, max_size=30))
        values = np.array([np.nan if v is None else v for v in loads])
        store.series[f"s{i}"] = HourlySeries(f"s{i}", start, values,
                                             np.isnan(values))
    return store


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(store=gappy_stores(), data=st.data())
def test_shuffled_export_with_utc_offsets_ingests_to_the_same_store(
        tmp_path, store, data):
    export_csv(store, tmp_path / "out.csv")
    with open(tmp_path / "out.csv", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    rows = data.draw(st.permutations(rows))
    for row in rows:
        # the same instant, as ``Z`` or at an offset of whole hours
        offset = data.draw(st.none() | st.integers(-12, 14))
        if offset is not None:
            ts = dt.datetime.fromisoformat(row[1])
            local = ts + dt.timedelta(hours=offset)
            row[1] = (local.isoformat() + f"{offset:+03d}:00" if offset
                      else row[1] + "Z")
    with open(tmp_path / "in.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    again = ingest_csv(tmp_path / "in.csv")
    assert again.series_ids == store.series_ids
    for sid in store.series_ids:
        a, b = store.get(sid), again.get(sid)
        assert b.start == a.start
        np.testing.assert_array_equal(b.values, a.values)
        np.testing.assert_array_equal(b.missing, a.missing)


@pytest.mark.parametrize("rows, message", [
    # a stamp is parsed once, on the line it first appears
    (["x,2024-01-01T00:00:00,1.0", "x,noon,2.0", "x,noon,3.0"],
     "line 3: bad timestamp 'noon'"),
    # the stamp seen in y is one more spelling of x's first instant
    (["y,2024-01-01T00:00:00Z,5.0", "x,2024-01-01T00:00:00,1.0",
      "x,2024-01-01T00:00:00Z,2.0"],
     "x: duplicate timestamp 2024-01-01T00:00:00"),
    # the first bad pair of the sorted rows of the first bad series
    ([f"{sid},2024-01-01T{h:02d}:00:00,1.0"
      for h, sid in [(9, "b"), (5, "a"), (0, "a"), (3, "b"), (3, "a"),
                     (1, "a"), (2, "a"), (8, "a"), (0, "b")]],
     "a: non-hourly step from 2024-01-01T03:00:00 to 2024-01-01T05:00:00"),
    (["x,2024-01-01T02:00:00,1.0", "x,2024-01-01T00:00:00,1.0",
      "x,2024-01-01T02:00:00,1.0"],
     "x: non-hourly step from 2024-01-01T00:00:00 to 2024-01-01T02:00:00"),
    (["x,2024-01-01T03:00:00,1.0", "x,2024-01-01T01:00:00+01:00,1.0",
      "x,2024-01-01T01:00:00,1.0", "x,2024-01-01T00:00:00,1.0"],
     "x: duplicate timestamp 2024-01-01T00:00:00"),
], ids=["repeated-bad-stamp", "cached-stamp-duplicate", "shuffled-gap",
        "gap-before-duplicate", "duplicate-before-gap"])
def test_ingest_error_messages(tmp_path, rows, message):
    with pytest.raises(IngestError) as err:
        ingest_csv(write_csv(tmp_path / "bad.csv", rows))
    assert str(err.value) == message


def test_byte_order_mark_is_ignored(tmp_path):
    rows = hourly_rows("x", "2024-01-01T00:00:00", [5.0, 6.0, 7.0])
    plain = write_csv(tmp_path / "plain.csv", rows)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    save_store(tmp_path / "plain.store", ingest_csv(plain))
    save_store(tmp_path / "marked.store", ingest_csv(marked))
    assert (tmp_path / "marked.store").read_bytes() == (
        tmp_path / "plain.store").read_bytes()


def test_store_binary_round_trip(tmp_path):
    store = synthetic_store(n_series=3, days=4)
    path = tmp_path / "data.store"
    save_store(path, store)
    again = load_store(path)
    assert again.manifest() == store.manifest()
    for sid in store.series_ids:
        np.testing.assert_array_equal(store.get(sid).values,
                                      again.get(sid).values)

    save_store(path, store)
    first = path.read_bytes()
    save_store(path, store)
    assert path.read_bytes() == first  # byte-stable serialization


def test_store_file_corruption_detected(tmp_path):
    store = synthetic_store(n_series=1, days=2)
    path = tmp_path / "data.store"
    save_store(path, store)
    raw = path.read_bytes()

    (tmp_path / "bad1").write_bytes(b"something else\n" + raw[15:])
    with pytest.raises(ModelFileError, match="magic"):
        load_store(tmp_path / "bad1")
    (tmp_path / "bad2").write_bytes(raw[:-8])
    with pytest.raises(ModelFileError, match="truncated"):
        load_store(tmp_path / "bad2")
    (tmp_path / "bad3").write_bytes(raw + b"junk")
    with pytest.raises(ModelFileError, match="trailing"):
        load_store(tmp_path / "bad3")


def with_header(raw, edit):
    """``raw`` file bytes with its JSON header line replaced by ``edit(header)``."""
    magic, header, payload = raw.split(b"\n", 2)
    header = edit(json.loads(header))
    return b"\n".join([magic, json.dumps(header).encode(), payload])


def set_entry(key, value):
    def edit(header):
        header["series"][0][key] = value
        return header
    return edit


@pytest.mark.parametrize("edit", [
    lambda h: [h],
    lambda h: {"format_version": 1},
    lambda h: {**h, "series": "x"},
    lambda h: {**h, "series": ["x"]},
    set_entry("hours", -3),
    set_entry("hours", 0),
    set_entry("hours", "48"),
    set_entry("hours", True),
    set_entry("id", 7),
    set_entry("start", 20240101),
    set_entry("start", "not a time"),
    set_entry("start", "2024-01-01T00:30:00"),
    set_entry("start", "2015-01-01T00:00:00+05:00"),
], ids=[
    "not-object", "no-series", "series-not-list", "entry-not-object",
    "negative-hours", "zero-hours", "string-hours", "bool-hours",
    "int-id", "int-start", "bad-start", "half-hour-start", "offset-start"
])
def test_malformed_store_header_rejected(tmp_path, edit):
    store = synthetic_store(n_series=1, days=2)
    path = tmp_path / "data.store"
    save_store(path, store)
    path.write_bytes(with_header(path.read_bytes(), edit))
    with pytest.raises(ModelFileError):
        load_store(path)


def test_store_header_with_repeated_id_rejected(tmp_path):
    path = tmp_path / "data.store"
    save_store(path, synthetic_store(n_series=2, days=2))

    def repeat_first_id(header):
        header["series"][1]["id"] = header["series"][0]["id"]
        return header

    path.write_bytes(with_header(path.read_bytes(), repeat_first_id))
    with pytest.raises(ModelFileError, match="repeats a series id"):
        load_store(path)


def test_store_get_unknown_series():
    with pytest.raises(IngestError, match="no series"):
        DatasetStore().get("nope")


def test_synthetic_series_shape_and_determinism():
    a = synthetic_series("s", days=30, seed=9)
    b = synthetic_series("s", days=30, seed=9)
    c = synthetic_series("s", days=30, seed=10)
    assert len(a) == 30 * 24
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert np.all(a.values > 0.0)
    # yearly component does not cancel over 30 days; bound is loose
    assert abs(np.mean(a.values) - 10000.0) < 500.0
    # the daily component should dominate hour-of-day structure
    by_hour = a.values.reshape(-1, 24).mean(axis=0)
    assert by_hour.max() - by_hour.min() > 1000.0


def test_synthetic_store_layout():
    store = synthetic_store(n_series=4, days=2, seed=5)
    assert store.series_ids == ["synth1", "synth2", "synth3", "synth4"]
    levels = [float(np.mean(store.get(sid).values))
              for sid in store.series_ids]
    assert levels == sorted(levels)  # staggered base loads
    assert len(set(np.round(levels, 0))) == 4
