"""Column sidecars: a reader that finds `<file>.cols` beside a JSON-Lines file it wrote
returns what decoding the file returns, bit for bit, or raises the same SchemaError.

Tables are drawn as the writers accept them, faults included: empty tables,
scans without points or without a bounding ellipse, repeated point idx, scan
times out of order or equal to the nanosecond, negative speeds and axes that
are not positive.  A sidecar that no longer matches its file, that is corrupt,
or whose columns break any value rule of its file kind, is ignored.
"""

import json
import math
import os
import threading
import zlib
from dataclasses import replace
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import event, given, settings, strategies as st

from vruradar import io, jsonl_decoder, sidecar
from vruradar.annotation import annotate_scenario
from vruradar.core import (Detections, LabeledTable, ScanTable, TruthLabels, VruKind,
                           rank_in_scan, scan_offsets)
from vruradar.simulator import preset, simulate_scenario
from vruradar.trajectory import build_trajectory

def _kind(write, schema, build, decode) -> tuple:
    """(write, the table from the sidecar or None, the table decoded)"""
    def from_sidecar(path):  # `io._read` with its fallback to decoding the text switched off
        with mock.patch.object(jsonl_decoder, "decode", lambda *_: None):
            return io._read(path, schema, build)
    return write, from_sidecar, lambda p: decode(p, schema)


KINDS = {  # kind -> (write(path, table, is_vru), sidecar reader, decoding reader)
    "radar": _kind(lambda p, t, _: io.write_radar_jsonl(p, t), sidecar.RADAR, io._scan_table,
                   jsonl_decoder._decode_scans),
    "truth_labels": _kind(io.write_truth_labels_jsonl, sidecar.TRUTH_LABELS, io.truth_labels,
                          jsonl_decoder._decode_truth_labels),
    "labeled": _kind(lambda p, t, _: io.write_labeled_jsonl(p, t), sidecar.LABELED,
                     io._scan_table, jsonl_decoder._decode_scans),
}
READ = {"radar": io.read_radar_jsonl, "truth_labels": io.read_truth_labels_jsonl,
        "labeled": io.read_labeled_jsonl}

finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, 1e16, 1e-7, -1.0, 1.0])
# 1e-10 and 2e-10 are both written as 0.0: a scan that does not follow its sensor's last.
times = st.sampled_from([0.0, 1.0, 2.5, -1.0, 1e-10, 2e-10]) | finite
ids = st.text(alphabet='ab"\\é\u4e2d\n', min_size=1, max_size=3)


@st.composite
def tables(draw, kind: str):
    """A table the `kind` writer accepts, with or without values the readers refuse, and a
    truth label per point."""
    counts = draw(st.lists(st.integers(0, 3), max_size=6))
    m, n = len(counts), sum(counts)
    sensors = draw(st.lists(st.sampled_from(["a", "b", draw(ids)]), min_size=m, max_size=m))
    cols = [draw(st.lists(finite, min_size=n, max_size=n)) for _ in range(8)]
    cols[0] = list(map(abs, cols[0]))  # a table holds no negative range
    index = draw(st.lists(st.integers(0, 3) | st.integers(-2**63, 2**63 - 1), min_size=n,
                          max_size=n))
    d = Detections(*cols[:4], index=index, ego=np.reshape(cols[4:6], (2, -1)).T,
                   global_xy=np.reshape(cols[6:], (2, -1)).T)
    t = draw(st.lists(times, min_size=m, max_size=m))
    is_vru = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if kind == "radar":  # a radar file numbers each scan's points 0..k-1
        d = replace(d, index=rank_in_scan(scan_offsets(counts)))
    if kind != "labeled":
        return ScanTable(t, sensors, scan_offsets(counts), replace(d, ego=None, global_xy=None)), \
            is_vru
    n_assigned = [draw(st.integers(0, c)) for c in counts]
    state = [draw(st.lists(finite, min_size=5, max_size=5)) for _ in counts]
    axes = st.floats(1e-300, 1e300) | st.sampled_from([0.0, -1.0, 5e-324])
    bounding = [[draw(finite), draw(finite), draw(axes), draw(axes), draw(finite)]
                if draw(st.booleans()) else [math.nan] * 5 for _ in counts]
    return LabeledTable(t, sensors, scan_offsets(counts), d, n_assigned,
                        np.reshape(state, (-1, 5)), np.reshape(bounding, (-1, 5)), draw(ids),
                        draw(st.sampled_from(list(VruKind)))), is_vru


def _outcome(read, path):
    try:
        return "table", read(path)
    except io.SchemaError as exc:
        return "fault", (exc.line, str(exc))


def assert_identical(a, b) -> None:
    """The same table: every column with the same dtype, shape, bytes and writability."""
    assert type(a) is type(b)
    if isinstance(a, TruthLabels):
        names, point_names = ["timestamp", "offsets", "index", "is_vru"], []
    else:
        names = ["timestamp", "sensor_id", "offsets"]
        point_names = ["range_m", "azimuth", "radial_velocity", "amplitude", "index", "ego",
                       "global_xy"]
    if isinstance(a, LabeledTable):
        names += ["n_assigned", "vru_state", "bounding"]
        assert (a.track_id, type(a.track_id), a.vru_kind) == (b.track_id, type(b.track_id),
                                                              b.vru_kind)
    columns = [(name, getattr(a, name), getattr(b, name)) for name in names]
    columns += [(name, getattr(a.detections, name), getattr(b.detections, name))
                for name in point_names]
    for name, x, y in columns:
        if x is None or y is None:
            assert x is y, name
            continue
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
        assert x.flags.writeable and y.flags.writeable, name


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(list(KINDS)), data=st.data())
def test_a_sidecar_reads_as_its_file_decodes(tmp_path_factory, kind, data):
    table, is_vru = data.draw(tables(kind))
    write, from_sidecar, decode = KINDS[kind]
    path = tmp_path_factory.mktemp(kind) / "f.jsonl"
    write(path, table, is_vru)
    assert sidecar.path_of(path).is_file()
    got, expected = _outcome(READ[kind], path), _outcome(decode, path)
    assert got[0] == expected[0], (got, expected)
    event(f"{kind}: {got[0]}")
    # The sidecar is used exactly when decoding finds no fault; a fault is then named by
    # decoding the file.
    assert (from_sidecar(path) is None) == (got[0] == "fault")
    if got[0] == "fault":
        assert got[1] == expected[1]
    else:
        assert_identical(got[1], expected[1])
    # The same table writes the same sidecar bytes.
    again = path.with_name("again.jsonl")
    write(again, table, is_vru)
    assert sidecar.path_of(again).read_bytes() == sidecar.path_of(path).read_bytes()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Each kind's file and sidecar of a short simulated and annotated drive."""
    cfg = replace(preset("pedestrian-nominal", seed=7), duration=3.0)
    data = simulate_scenario(cfg)
    labeled = annotate_scenario(data.scans, build_trajectory(data.gnss), cfg.vru_kind,
                                cfg.mounts, cfg.ego_pose).scans
    out = tmp_path_factory.mktemp("written")
    for kind, (write, _, _) in KINDS.items():
        write(out / f"{kind}.jsonl", labeled if kind == "labeled" else data.scans, data.is_vru)
    return out, data, labeled


def _edit_value(path):
    """Change one number of the last record, keeping the file valid."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rec = json.loads(lines[-1])
    key = "idx" if "idx" in rec else "t"
    rec[key] += 1
    lines[-1] = io._encoder()(rec).decode()
    path.write_text("".join(lines), encoding="utf-8")


def _respell(path):
    """Rewrite the same records as another tool would: `json.dumps`, with spaces."""
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("".join(json.dumps(json.loads(line)) + "\n" for line in lines),
                    encoding="utf-8")


def _payload_start(cols) -> int:
    return cols.read_bytes().index(b"\n") + 1


def _truncate(cols):
    data = cols.read_bytes()
    cols.write_bytes(data[:(_payload_start(cols) + len(data)) // 2])


def _flip_payload_byte(cols):
    data = bytearray(cols.read_bytes())
    data[_payload_start(cols) + 3] ^= 0x01
    cols.write_bytes(bytes(data))


def _retag(cols):
    cols.write_bytes(cols.read_bytes().replace(sidecar.TAG.encode(), b"vruradar.cols.v9", 1))


def _wrong_dtype(cols):
    # Same length, so only the declared dtype differs: big-endian floats.
    cols.write_bytes(cols.read_bytes().replace(b'"<f8"', b'">f8"', 1))


def _nest_header(cols):
    # Deeper than the json module's recursion limit, which raises RecursionError.
    cols.write_bytes(b"[" * 100_000 + b"\n" + cols.read_bytes().split(b"\n", 1)[1])


def _payload_crc(strings, payload: bytes) -> int:
    """The payload CRC of a sidecar: over the strings' sorted-key JSON, then the columns."""
    return zlib.crc32(payload, zlib.crc32(orjson.dumps(strings, option=orjson.OPT_SORT_KEYS)))


def _upper_case_ids(cols):
    # The payload CRC covers the header's strings: an id edited by hand no longer matches.
    header, payload = cols.read_bytes().split(b"\n", 1)
    rec = json.loads(header)
    rec["strings"]["sensor_ids"] = [s.upper() for s in rec["strings"]["sensor_ids"]]
    cols.write_bytes(json.dumps(rec).encode() + b"\n" + payload)


def _strings_not_an_object(cols):
    # With the payload CRC made to match, so that the reader refuses the type.
    header, payload = cols.read_bytes().split(b"\n", 1)
    rec = json.loads(header)
    rec["strings"] = [rec["strings"]]
    rec["payload_crc32"] = _payload_crc(rec["strings"], payload)
    cols.write_bytes(json.dumps(rec).encode() + b"\n" + payload)


def _recrafted(change):
    """An edit that changes the columns with `change(columns)`, with the payload CRC made to
    match: a value the reader refuses although the sidecar is intact."""
    def edit(cols):
        header, payload = cols.read_bytes().split(b"\n", 1)
        rec, columns, start = json.loads(header), {}, 0
        for name, dtype, shape in rec["columns"]:
            count = math.prod(shape)
            columns[name] = np.frombuffer(payload, dtype, count, start).reshape(shape).copy()
            start += count * np.dtype(dtype).itemsize
        change(columns)
        payload = b"".join(c.tobytes() for c in columns.values())
        rec["payload_crc32"] = _payload_crc(rec["strings"], payload)
        cols.write_bytes(orjson.dumps(rec) + b"\n" + payload)
    return edit


def _set(column: str, value, at=0):
    """`_recrafted`, setting value number `at` of a column, or at `at(columns)`."""
    def change(c):
        c[column].reshape(-1)[at(c) if callable(at) else at] = value
    return _recrafted(change)


def _first_bounded(c) -> int:
    return int(np.argmax(~np.isnan(c["bounding"][:, 0])))


def _repeat_an_idx(c):  # the second point of the first scan with two takes the first's idx
    lo = c["offsets"][np.argmax(np.diff(c["offsets"]) >= 2)]
    c["index"][lo + 1] = c["index"][lo]


def _scan_before_its_sensors_last(c):  # the sensor's second scan at the time of its first
    later = np.flatnonzero(c["sensor"] == c["sensor"][0])[1]
    c["timestamp"][later] = c["timestamp"][0]


FILE_EDITS = {"edited": _edit_value, "respelt": _respell}
SIDECAR_EDITS = {"truncated": _truncate, "flipped-byte": _flip_payload_byte, "wrong-tag": _retag,
                 "wrong-dtype": _wrong_dtype, "nested-header": _nest_header,
                 "upper-case-ids": _upper_case_ids,
                 "strings-not-an-object": _strings_not_an_object,
                 "negative-range": _set("range_m", -1.0),
                 "assigned-beyond-scan": _set("n_assigned", 10**6),
                 "infinite-azimuth": _set("azimuth", math.inf),
                 "infinite-ego": _set("ego", -math.inf),
                 "nan-global": _set("global_xy", math.nan, at=1),
                 "infinite-state": _set("vru_state", math.inf, at=2),
                 "infinite-bounding": _set("bounding", math.inf,
                                           at=lambda c: 5 * _first_bounded(c) + 4),
                 "negative-speed": _set("vru_state", -0.5, at=3),
                 "axis-not-positive": _set("bounding", 0.0, at=lambda c: 5 * _first_bounded(c) + 3),
                 "repeated-idx": _recrafted(_repeat_an_idx),
                 "time-not-after-sensors-last": _recrafted(_scan_before_its_sensors_last),
                 "sensor-code-outside-ids": _set("sensor", 7),
                 "is-vru-2": _set("is_vru", 2),
                 "repeated-truth-label": _recrafted(_repeat_an_idx)}
# The kinds whose sidecar holds the column an edit sets.
ONLY = {"upper-case-ids": ("radar", "labeled"), "negative-range": ("radar", "labeled"),
        "assigned-beyond-scan": ("labeled",),
        "infinite-azimuth": ("radar", "labeled"), "infinite-ego": ("labeled",),
        "nan-global": ("labeled",), "infinite-state": ("labeled",),
        "infinite-bounding": ("labeled",), "negative-speed": ("labeled",),
        "axis-not-positive": ("labeled",), "repeated-idx": ("labeled",),
        "time-not-after-sensors-last": ("radar", "labeled"),
        "sensor-code-outside-ids": ("radar", "labeled"), "is-vru-2": ("truth_labels",),
        "repeated-truth-label": ("truth_labels",)}


@pytest.mark.parametrize("kind,edit", [
    (kind, edit) for edit in [*FILE_EDITS, *SIDECAR_EDITS] for kind in ONLY.get(edit, KINDS)])
def test_a_sidecar_that_does_not_match_is_ignored(written, tmp_path, kind, edit):
    out, _, _ = written
    path = tmp_path / f"{kind}.jsonl"
    path.write_bytes((out / f"{kind}.jsonl").read_bytes())
    sidecar.path_of(path).write_bytes(sidecar.path_of(out / f"{kind}.jsonl").read_bytes())
    _, from_sidecar, decode = KINDS[kind]
    assert from_sidecar(path) is not None  # the copy still matches
    if edit in FILE_EDITS:
        FILE_EDITS[edit](path)
    else:
        SIDECAR_EDITS[edit](sidecar.path_of(path))
    assert from_sidecar(path) is None
    assert_identical(READ[kind](path), decode(path))


def test_readers_write_no_sidecar(written, tmp_path):
    out, _, _ = written
    for kind in KINDS:
        path = tmp_path / f"{kind}.jsonl"
        path.write_bytes((out / f"{kind}.jsonl").read_bytes())
        READ[kind](path)
        assert not sidecar.path_of(path).exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{k}.jsonl" for k in KINDS)


def test_a_failed_write_leaves_no_sidecar(written, tmp_path, monkeypatch):
    _, data, _ = written
    path = tmp_path / "radar.jsonl"
    io.write_radar_jsonl(path, data.scans)
    lines = iter(range(3))

    def fail_after_three_lines(record):
        if next(lines, None) is None:
            raise OSError("disk full")
        return orjson.dumps(record, option=orjson.OPT_APPEND_NEWLINE)

    monkeypatch.setattr(io, "_encoder", lambda: fail_after_three_lines)
    with pytest.raises(OSError, match="disk full"):
        io.write_radar_jsonl(path, data.scans)
    assert not sidecar.path_of(path).exists()
    monkeypatch.undo()
    assert len(io.read_radar_jsonl(path)) == 2  # the header and two scans were written


def test_a_write_to_a_pipe_has_no_sidecar(written, tmp_path):
    # A pipe keeps no bytes that a sidecar could be tied to, and cannot tell its length.
    out, data, _ = written
    fifo, got = tmp_path / "radar.jsonl", []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    io.write_radar_jsonl(fifo, data.scans)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [(out / "radar.jsonl").read_bytes()]
    assert [p.name for p in tmp_path.iterdir()] == ["radar.jsonl"]


def test_labeled_writer_refuses_an_assigned_count_outside_its_scan(written, tmp_path):
    _, _, labeled = written
    n_assigned = labeled.n_assigned.copy()
    n_assigned[-1] = np.diff(labeled.offsets)[-1] + 1
    with pytest.raises(ValueError, match="column 'n_assigned' is outside its scan"):
        io.write_labeled_jsonl(tmp_path / "labeled.jsonl", replace(labeled, n_assigned=n_assigned))
    assert list(tmp_path.iterdir()) == []


# Truth-label files hold no id.
@pytest.mark.parametrize("kind,column", [("radar", "sensor_id"), ("labeled", "sensor_id"),
                                         ("labeled", "track_id")])
def test_writers_refuse_an_id_that_utf8_cannot_encode(written, tmp_path, kind, column):
    _, data, labeled = written
    table = labeled if kind == "labeled" else data.scans
    if column == "track_id":
        table = replace(table, track_id="vru-\ud800")
    else:
        ids = table.sensor_id.astype(object)
        ids[-1] = "b\ud800"
        table = replace(table, sensor_id=ids)
    path = tmp_path / f"{kind}.jsonl"
    with pytest.raises(ValueError, match=f"column '{column}' holds a lone surrogate"):
        KINDS[kind][0](path, table, data.is_vru)
    assert list(tmp_path.iterdir()) == []


# Text a writer accepts as an id (any that UTF-8 can encode), rich in what JSON escapes.
id_text = st.text(st.sampled_from('"\\/\x00\x08\x1f\x7f é中\U0001f600')
                  | st.characters(codec="utf-8"))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["radar", "truth_labels", "labeled"]),
       sensor_ids=st.lists(id_text, unique=True, max_size=4), track_id=id_text,
       vru_kind=st.sampled_from([k.value for k in VruKind]))
def test_strings_crc_hashes_the_bytes_orjson_writes(kind, sensor_ids, track_id, vru_kind):
    # Sidecars written while orjson spelt these bytes must still match.
    strings = {"radar": {"sensor_ids": sensor_ids}, "truth_labels": {},
               "labeled": {"sensor_ids": sensor_ids, "track_id": track_id,
                           "vru_kind": vru_kind}}[kind]
    canonical = orjson.dumps(strings, option=orjson.OPT_SORT_KEYS)
    assert sidecar._strings_crc(strings) == zlib.crc32(canonical)
    assert sidecar._canonical(strings, sort_keys=True) == canonical
    assert sidecar._canonical(strings) == orjson.dumps(strings)
