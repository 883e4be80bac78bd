"""The block codecs of `io` against the record-by-record readers and writers they replaced.

A reader must return the reference reader's table, or raise a SchemaError at
the same line, with the same message when the file holds one fault.  A writer
must write the bytes that orjson.dumps of the reference records, or the
reference field-by-field CSV writer, gives; and write -> read -> write must
repeat them.  Blocks are made small as well, so that faults and scans fall on
both sides of block boundaries.  The readers' inputs are spelt by json.dumps,
as earlier versions wrote them.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference as ref
from vruradar import io, sidecar
from vruradar.annotation import LabeledTable, annotate_scenario
from vruradar.core import Detections, ScanTable, TruthLabels, VruKind, scan_offsets, table
from vruradar.simulator import preset, simulate_scenario
from vruradar.trajectory import build_trajectory

CSV = {  # kind -> (tag, columns, block parsers, reference field parsers)
    "gnss": (io.GNSS_TAG, io.GNSS_COLUMNS, {"quality": io._parse_qualities},
             {"quality": ref.parse_quality}),
    "imu": (io.IMU_TAG, io.IMU_COLUMNS, {"yaw": io._parse_optional_floats},
            {"yaw": ref.parse_optional_float}),
    "traj": (io.TRAJ_TAG, io.TRAJ_COLUMNS, {"speed": io._parse_speeds}, {}),
}
JSONL = {  # kind -> (reader, reference reader)
    "radar": (io.read_radar_jsonl, ref.read_radar_jsonl),
    "labeled": (io.read_labeled_jsonl, ref.read_labeled_jsonl),
    "truth_labels": (io.read_truth_labels_jsonl, ref.read_truth_labels_jsonl),
}
# '"\\ud800"' is JSON that orjson rejects and json reads, so the fallback decoder takes it.
RAW_VALUES = ["NaN", "1e400", '"5"', "true", "null", "{}", '"\\ud800"']
CSV_VALUES = ["nan", "1e400", "x", "", "true", "5"]


@pytest.fixture(scope="module")
def drive():
    """A 4 s drive, simulated and annotated: (simulation, labeled table)."""
    cfg = replace(preset("pedestrian-nominal", seed=7), duration=4.0)
    data = simulate_scenario(cfg)
    return data, annotate_scenario(data.scans, build_trajectory(data.gnss), cfg.vru_kind,
                                   cfg.mounts, cfg.ego_pose).scans


@pytest.fixture(scope="module")
def files(tmp_path_factory, drive):
    """The text of a small real file of each format, JSONL as earlier versions spelt it."""
    data, labeled = drive
    out = {
        "radar": ref.jsonl_text(io.RADAR_TAG, ref.radar_records(data.scans)),
        "labeled": ref.jsonl_text(io.LABELED_TAG, ref.labeled_records(labeled)),
        "truth_labels": ref.jsonl_text(io.TRUTH_LABELS_TAG,
                                       ref.truth_label_records(data.scans, data.is_vru)),
    }
    path = tmp_path_factory.mktemp("files") / "table.csv"
    for kind, (tag, columns, _, _) in CSV.items():
        series = data.truth if kind == "traj" else getattr(data, kind)
        ref.write_table(path, tag, columns, _rows(series))
        out[kind] = path.read_text(encoding="utf-8")
    return out


def _rows(table: np.ndarray) -> list[tuple]:
    """The rows of a table as tuples of Python values, None for NaN."""
    columns = [table[name].tolist() for name in table.dtype.names]
    return [tuple(None if v != v else v for v in row) for row in zip(*columns)]


def _paths(value, path=()):
    """The path of every value inside a decoded JSON value, containers included."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, (*path, key))


def _get(rec, path):
    for key in path:
        rec = rec[key]
    return rec


def _set(rec, path, value):
    _get(rec, path[:-1])[path[-1]] = value


def _mutate_jsonl(lines: list[str], kind: str, data) -> None:
    """Apply one random fault to the lines of a JSONL file, in place."""
    k = data.draw(st.integers(0, len(lines) - 1))
    op = data.draw(st.sampled_from(["drop", "swap", "duplicate", "inject", "remove", "big-idx",
                                    "repeat-idx", "negative-range", "backward"]))
    if op == "drop":
        del lines[k]
        return
    if op == "swap":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[k], lines[j] = lines[j], lines[k]
        return
    if op == "duplicate":
        lines.insert(k, lines[k])
        return
    rec = json.loads(lines[k])
    paths = [p for p in _paths(rec) if p]
    keys = [p for p in paths if isinstance(p[-1], str)]
    if op == "inject" and paths:
        _set(rec, data.draw(st.sampled_from(paths)), "@raw@")
        lines[k] = json.dumps(rec).replace('"@raw@"', data.draw(st.sampled_from(RAW_VALUES)))
        return
    points = [p for p in paths if p[-1] == "idx"]
    if op == "remove" and keys:
        path = data.draw(st.sampled_from(keys))
        del _get(rec, path[:-1])[path[-1]]
    elif op == "big-idx" and points:
        _set(rec, data.draw(st.sampled_from(points)), 2**63)
    elif op == "repeat-idx" and len(points) > 1:
        a, b = data.draw(st.lists(st.sampled_from(points), min_size=2, max_size=2, unique=True))
        _set(rec, b, _get(rec, a))
    elif op == "negative-range":
        ranges = [p for p in paths if p[-1] == "range"]
        if ranges:
            _set(rec, data.draw(st.sampled_from(ranges)), -0.5)
    elif op == "backward" and "t" in rec:
        _set(rec, ("t",), rec["t"] - data.draw(st.sampled_from([0.05, 0.2, 1.0])))
    lines[k] = json.dumps(rec)


def _mutate_csv(lines: list[str], data) -> None:
    """Apply one random fault to the lines of a CSV file, in place."""
    k = data.draw(st.integers(0, len(lines) - 1))
    op = data.draw(st.sampled_from(["drop", "swap", "duplicate", "inject", "remove",
                                    "backward"]))
    fields = lines[k].split(",")
    if op == "drop":
        del lines[k]
    elif op == "swap":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[k], lines[j] = lines[j], lines[k]
    elif op == "duplicate":
        lines.insert(k, lines[k])
    elif op == "inject":
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(st.sampled_from(CSV_VALUES))
        lines[k] = ",".join(fields)
    elif op == "remove":
        del fields[data.draw(st.integers(0, len(fields) - 1))]
        lines[k] = ",".join(fields)
    elif k > 2:
        fields[0] = lines[k - 1].split(",")[0]
        lines[k] = ",".join(fields)


def _outcome(read, path):
    try:
        return True, read(path)
    except io.SchemaError as exc:
        return False, (exc.line, str(exc))


def assert_same_table(a, b) -> None:
    """Tables equal column by column; a CSV table `a` is compared with the reference's rows."""
    if isinstance(a, np.ndarray):
        assert _rows(a) == [tuple(row) for row in b]
    elif isinstance(a, ScanTable):
        assert type(a) is type(b)
        for name in ("timestamp", "sensor_id", "offsets"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.detections == b.detections
        if isinstance(a, LabeledTable):
            assert np.array_equal(a.n_assigned, b.n_assigned)
            assert np.array_equal(a.vru_state, b.vru_state)
            assert np.array_equal(a.bounding, b.bounding, equal_nan=True)
            assert (a.track_id, a.vru_kind) == (b.track_id, b.vru_kind)
    elif isinstance(a, TruthLabels):  # against the reference's dict, or another table
        assert ref.truth_dict(a) == (b if isinstance(b, dict) else ref.truth_dict(b))
    else:
        assert a == b


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from([*JSONL, *CSV]), faults=st.integers(1, 3),
       block=st.sampled_from([5, 64, io._BLOCK]), data=st.data())
def test_readers_match_the_reference_readers(files, tmp_path_factory, kind, faults, block, data):
    lines = files[kind].splitlines()
    for _ in range(faults):
        _mutate_csv(lines, data) if kind in CSV else _mutate_jsonl(lines, kind, data)
    path = tmp_path_factory.mktemp(kind) / f"{kind}.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if kind in CSV:
        tag, columns, parsers, ref_parsers = CSV[kind]
        read = lambda p: io.read_table(p, tag, columns, parsers)  # noqa: E731
        read_ref = lambda p: ref.read_table(p, tag, columns, ref_parsers)  # noqa: E731
    else:
        read, read_ref = JSONL[kind]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_BLOCK", block)
        ok, got = _outcome(read, path)
    ok_ref, expected = _outcome(read_ref, path)
    assert ok == ok_ref, (got, expected)
    if ok:
        assert_same_table(got, expected)
    else:
        assert got[0] == expected[0], (got, expected)
        if faults == 1:
            assert got[1] == expected[1]


# --- Writers ---------------------------------------------------------------------

SPECIAL = [-0.0, 0.0, 5e-324, 1e16, 1e-7, 1.0 / 3.0]
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL)
ids = st.text(alphabet='ab"\\é\u00fc\u4e2d\n', min_size=1, max_size=4)


@st.composite
def scan_tables(draw, labeled: bool):
    """A radar or labeled table of a few scans, some of them empty or without assigned rows,
    with increasing scan times and values the readers accept."""
    positive = st.floats(1e-300, 1e300) | st.sampled_from([5e-324, 1e16, 1e-7])
    counts = draw(st.lists(st.integers(0, 4), max_size=6))
    times = sorted(draw(st.lists(finite, min_size=len(counts), max_size=len(counts),
                                 unique_by=lambda t: round(t, 9))), key=lambda t: round(t, 9))
    sensors = draw(st.lists(ids, min_size=len(counts), max_size=len(counts)))
    n = sum(counts)
    cols = [draw(st.lists(finite, min_size=n, max_size=n)) for _ in range(8)]
    cols[0] = list(map(abs, cols[0]))  # a table holds no negative range
    index = [draw(st.lists(st.integers(-2**63, 2**63 - 1) | st.just(2**53 + 1), min_size=c,
                           max_size=c, unique=True)) for c in counts]
    d = Detections(*cols[:4], index=[i for scan in index for i in scan],
                   ego=np.reshape(cols[4:6], (2, -1)).T, global_xy=np.reshape(cols[6:], (2, -1)).T)
    offsets = scan_offsets(counts)
    if not labeled:
        return ScanTable(times, sensors, offsets, replace(d, ego=None, global_xy=None))
    n_assigned = [draw(st.integers(0, c)) for c in counts]
    state = [draw(st.lists(finite, min_size=5, max_size=5)) for _ in counts]
    for row in state:
        row[3] = abs(row[3])
    bounding = [[*draw(st.lists(finite, min_size=2, max_size=2)),
                 *draw(st.lists(positive, min_size=2, max_size=2)), draw(finite)] if a else
                [math.nan] * 5 for a in n_assigned]
    return LabeledTable(times, sensors, offsets, d, n_assigned, np.reshape(state, (-1, 5)),
                        np.reshape(bounding, (-1, 5)), draw(ids),
                        draw(st.sampled_from(list(VruKind))))


def _written(write, path, table) -> str:
    write(path, table)
    return path.read_text(encoding="utf-8")


@settings(max_examples=60, deadline=None)
@given(table=scan_tables(labeled=False))
def test_radar_writer_writes_the_reference_bytes(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("radar") / "radar.jsonl"
    text = _written(io.write_radar_jsonl, path, table)
    assert text == ref.orjson_text(io.RADAR_TAG, ref.radar_records(table))


@settings(max_examples=60, deadline=None)
@given(table=scan_tables(labeled=True))
def test_labeled_writer_writes_the_reference_bytes(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("labeled") / "labeled.jsonl"
    text = _written(io.write_labeled_jsonl, path, table)
    assert text == ref.orjson_text(io.LABELED_TAG, ref.labeled_records(table))


@settings(max_examples=50, deadline=None)
@given(labeled=st.booleans(), data=st.data())
def test_scan_files_survive_write_read_write(tmp_path_factory, labeled, data):
    table = data.draw(scan_tables(labeled=labeled))
    write = io.write_labeled_jsonl if labeled else io.write_radar_jsonl
    read = io.read_labeled_jsonl if labeled else io.read_radar_jsonl
    path = tmp_path_factory.mktemp("scans") / "scans.jsonl"
    first = _written(write, path, table)
    assert _written(write, path, read(path)) == first


@settings(max_examples=150, deadline=None)
@given(scans=st.lists(st.tuples(finite, st.integers(0, 4)), max_size=8), data=st.data(),
       block=st.sampled_from([1, 3, io._BLOCK]))
def test_truth_label_writer_writes_the_reference_bytes(tmp_path_factory, scans, data, block):
    # Empty scans, scans across block boundaries, times that orjson writes with an exponent
    # (1e16, 1e-7) and idx at the ends of int64; the sidecar matches the file it was written
    # with, and holds its columns.
    times, counts = zip(*scans) if scans else ((), ())
    offsets = scan_offsets(counts)
    n = int(offsets[-1])
    ends = st.sampled_from([-2**63, 2**63 - 1])
    index = data.draw(st.lists(st.integers(-2**63, 2**63 - 1) | ends, min_size=n, max_size=n))
    table = ScanTable(times, ["r"] * len(times), offsets,
                      Detections(*np.zeros((4, n)), index=np.array(index, dtype=np.int64)))
    is_vru = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    path = tmp_path_factory.mktemp("labels") / "labels.jsonl"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_BLOCK", block)
        io.write_truth_labels_jsonl(path, table, is_vru)
    assert path.read_text(encoding="utf-8") == ref.orjson_text(
        io.TRUTH_LABELS_TAG, ref.truth_label_records(table, is_vru))
    columns, strings = sidecar.read(path, sidecar.TRUTH_LABELS)
    assert strings == {}
    assert [columns[name].tolist() for name in columns] == [
        [round(t, 9) for t in times], offsets.tolist(), index, list(map(int, is_vru))]


@pytest.mark.parametrize("kind", list(JSONL))
def test_files_of_earlier_versions_read_to_the_written_tables(tmp_path, drive, files, kind):
    # Earlier versions spelt the same records as json.dumps does.
    data, labeled = drive
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text(files[kind], encoding="utf-8")
    if kind == "truth_labels":
        io.write_truth_labels_jsonl(new, data.scans, data.is_vru)
    else:
        getattr(io, f"write_{kind}_jsonl")(new, labeled if kind == "labeled" else data.scans)
    assert old.read_bytes() != new.read_bytes()
    read = JSONL[kind][0]
    assert_same_table(read(old), read(new))


CELLS = {  # column name -> its values; "missing" is written by `with_missing`
    "timestamp": st.floats(-1e9, 1e9),
    "x": finite | st.sampled_from([math.nan, math.inf, -math.inf]),
    "n": st.integers(-2**63, 2**63 - 1),
    "name": st.text(alphabet="ab\u00e9", max_size=3),
    "missing": finite | st.just(math.nan),
}


@settings(max_examples=150, deadline=None)
@given(columns=st.lists(st.sampled_from(list(CELLS)), min_size=1, max_size=5, unique=True),
       n=st.integers(0, 7), data=st.data(), block=st.sampled_from([2, io._BLOCK]))
def test_table_writer_writes_the_reference_bytes(tmp_path_factory, columns, n, data, block):
    values = [data.draw(st.lists(CELLS[c], min_size=n, max_size=n)) for c in columns]
    rows = [tuple(None if c == "missing" and v != v else v for c, v in zip(columns, row))
            for row in zip(*values)]
    d = tmp_path_factory.mktemp("table")
    ref.write_table(d / "ref.csv", "vruradar.test.v1", columns, rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_BLOCK", block)
        io.write_table(d / "new.csv", "vruradar.test.v1",
                       io.with_missing(table(columns, values), "missing"))
    assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()


@pytest.mark.parametrize("kind", list(CSV))
def test_csv_files_survive_write_read_write(tmp_path, files, kind):
    path = tmp_path / f"{kind}.csv"
    path.write_text(files[kind], encoding="utf-8")
    samples = getattr(io, f"read_{kind}_csv")(path)
    getattr(io, f"write_{kind}_csv")(path, samples)
    assert path.read_text(encoding="utf-8") == files[kind]
