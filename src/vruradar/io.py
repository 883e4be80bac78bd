"""File interchange: versioned CSV and JSON-Lines formats.

Every file starts with a format-version line; readers reject unknown
versions.  CSV carries flat time series, JSON-Lines carries per-scan records
with variable-length point lists.  Timestamps are written with nanosecond
resolution so records can be joined on them exactly.  The CSV codec and the
JSON-Lines readers work on blocks of a few hundred rows or points, with one
call per column and block.  orjson encodes JSON-Lines one record at a time and
decodes it, and json decodes each line that orjson rejects.  Each JSON-Lines
writer also writes a column sidecar, which a reader uses instead of decoding
when it matches the file (see `sidecar`).
"""

from __future__ import annotations

import json
import math
import operator
import os
import stat
import zlib
from bisect import bisect_left
from functools import partial
from itertools import accumulate, chain, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np
import orjson

from . import sidecar  # lazy (see __init__): loaded when a JSON-Lines file is read or written
from .core import (GLOBAL, GNSS_COLUMNS, IMU_COLUMNS, LABEL_CLUTTER, LABEL_VRU, QUALITY_DTYPE,
                   TRAJ_COLUMNS, Detections, GnssQuality, LabeledTable, Pose, ScanTable,
                   SensorMount, VruKind, mounts_by_id, rank_in_scan, scan_offsets, table,
                   wrap_angles)

GNSS_TAG = "vruradar.gnss.v1"
IMU_TAG = "vruradar.imu.v1"
TRAJ_TAG = "vruradar.traj.v1"
RADAR_TAG = "vruradar.radar.v1"
TRUTH_LABELS_TAG = "vruradar.truth-labels.v1"
LABELED_TAG = "vruradar.labeled.v1"
SCENARIO_TAG = "vruradar.scenario.v1"

# Rows, or points plus scans, that a codec checks, converts or formats at once.  Larger
# blocks save no time, and their texts and flat lists raise a command's peak memory.
_BLOCK = 256


class SchemaError(ValueError):
    """Input file malformed; carries the offending line number when known."""

    def __init__(self, message: str, path=None, line: int | None = None):
        loc = f"{path}:{line}: " if path is not None and line is not None else ""
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


def _open_text(path):
    """`path` opened for reading text.  A byte that is not UTF-8 reads as a lone surrogate,
    so that `_check_utf8` can name its line."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def _check_utf8(text: str, path, line: int) -> None:
    """Raise a SchemaError if `text`, read by `_open_text` from `line` on, holds a byte that
    is not UTF-8; it names the line of the first such byte."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise SchemaError(f"byte {ord(text[exc.start]) - 0xDC00:#04x} is not UTF-8", path,
                          line + text.count("\n", 0, exc.start)) from None


def _check_header(line: str, tag: str, path) -> None:
    expected = f"# format={tag}"
    if line.rstrip("\n") != expected:
        _check_utf8(line, path, 1)
        raise SchemaError(f"expected header {expected!r}, got {line.strip()!r}", path, 1)


def _check_jsonl_header(record, tag: str, path) -> None:
    if not isinstance(record, dict):
        raise SchemaError(f"expected a JSON object with format tag {tag!r}", path, 1)
    if record.get("format") != tag:
        raise SchemaError(f"expected format tag {tag!r}, got {record.get('format')!r}", path, 1)


# Column parsers of read_table, called as (texts of a column, column name) and returning
# an array.  Each raises a ValueError naming texts[0]: read_table parses a faulty block
# line by line.
def _parse_floats(texts: Sequence[str], name: str) -> np.ndarray:
    try:
        values = np.array(list(map(float, texts)), dtype=float)
    except ValueError:
        raise ValueError(f"field {name!r} is not a number: {texts[0]!r}") from None
    if not np.isfinite(values).all():
        raise ValueError(f"field {name!r} is not finite: {texts[0]!r}")
    return values


def _parse_optional_floats(texts: Sequence[str], name: str) -> np.ndarray:
    """Finite floats, and NaN for an empty field: a missing value."""
    values = _parse_floats([text or "0" for text in texts], name)
    values[[not text for text in texts]] = np.nan
    return values


def _parse_speeds(texts: Sequence[str], name: str) -> np.ndarray:
    values = _parse_floats(texts, name)
    if np.any(values < 0):
        raise ValueError(f"speed must be >= 0, got {values.min()}")
    return values


def _parse_qualities(texts: Sequence[str], name: str) -> np.ndarray:
    if not set(texts) <= set(GnssQuality._value2member_map_):
        raise ValueError(f"unknown {name} {texts[0]!r}")
    return np.array(texts, dtype=QUALITY_DTYPE)


# --- Versioned CSV tables ---------------------------------------------------

def write_table(path, tag: str, rows: np.ndarray) -> None:
    """CSV with a `# format=<tag>` line, the header of the structured array's field names
    and one line per row.

    A `timestamp` column is written with nine fractional digits, other float
    columns with `repr`, and any other column as `str` of its values.
    """
    names = rows.dtype.names
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# format={tag}\n{','.join(names)}\n")
        for lo in range(0, len(rows), _BLOCK):
            block = rows[lo:lo + _BLOCK]
            texts = [list(map("{:.9f}".format if name == "timestamp" else float.__repr__
                              if block.dtype[name].kind == "f" else str, block[name].tolist()))
                     for name in names]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def with_missing(rows: np.ndarray, *names: str) -> np.ndarray:
    """`rows` with the named float columns as text for :func:`write_table`: `repr` of each
    value, and an empty field, a missing value, for NaN."""
    return table(rows.dtype.names, [
        np.array([repr(v) if v == v else "" for v in rows[name].tolist()], dtype=str)
        if name in names else rows[name] for name in rows.dtype.names])


def read_table(path, tag: str, columns: Sequence[str],
               parsers: Mapping[str, Callable] | None = None) -> np.ndarray:
    """The rows of a table written by :func:`write_table` as a structured array with the
    given columns, parsed a block of columns at a time.

    A column is parsed by `parsers[column]`, called as (texts, column) and
    returning an array, or else as finite floats.  A `timestamp` column must
    be strictly increasing.  Every fault is a SchemaError naming path and line.
    """
    parse = [(parsers or {}).get(name, _parse_floats) for name in columns]
    t_col = columns.index("timestamp") if "timestamp" in columns else None
    blocks = [_parse_rows([], columns, parse, None, 0.0)[0]]  # typed columns of no rows
    last_t, start = -math.inf, 3
    with _open_text(path) as fh:
        lines = chain.from_iterable(map(str.splitlines, fh))
        head = list(islice(lines, 2))
        if not head:
            raise SchemaError("empty file", path, 1)
        _check_header(head[0], tag, path)
        if len(head) < 2 or head[1] != ",".join(columns):
            if len(head) == 2:
                _check_utf8(head[1], path, 2)
            raise SchemaError("bad column header", path, 2)
        while block := list(islice(lines, _BLOCK)):
            try:
                values, last_t = _parse_rows([*filter(None, block)], columns, parse, t_col, last_t)
            except ValueError:
                for i, line in enumerate(block, start=start):
                    _check_utf8(line, path, i)
                    try:
                        last_t = _parse_rows([line] if line else [], columns, parse, t_col,
                                             last_t)[1]
                    except ValueError as exc:
                        raise SchemaError(str(exc), path, i) from None
                raise
            blocks.append(values)
            start += len(block)
    return table(columns, map(np.concatenate, zip(*blocks)))


def _parse_rows(lines: list[str], columns, parse, t_col, last_t: float) -> tuple[list, float]:
    """Column arrays of CSV lines and the last timestamp; a ValueError names a fault."""
    fields = list(map(str.split, lines, repeat(",")))
    if set(map(len, fields)) - {len(columns)}:
        raise ValueError(f"expected {len(columns)} fields, got {len(fields[0])}")
    texts = list(zip(*fields)) or [()] * len(columns)
    values = [f(list(t), name) for f, t, name in zip(parse, texts, columns)]
    if t_col is not None and fields:
        t = values[t_col].tolist()
        if not (last_t < t[0] and all(map(operator.lt, t, t[1:]))):
            raise ValueError(f"timestamp {fields[0][t_col]} does not follow {last_t:.9f}")
        last_t = t[-1]
    return values, last_t


# --- GNSS, IMU and trajectory states ------------------------------------------

def write_gnss_csv(path, gnss: np.ndarray) -> None:
    write_table(path, GNSS_TAG, gnss)


def read_gnss_csv(path) -> np.ndarray:
    return read_table(path, GNSS_TAG, GNSS_COLUMNS, {"quality": _parse_qualities})


def write_imu_csv(path, imu: np.ndarray) -> None:
    write_table(path, IMU_TAG, with_missing(imu, "yaw"))


def read_imu_csv(path) -> np.ndarray:
    return read_table(path, IMU_TAG, IMU_COLUMNS, {"yaw": _parse_optional_floats})


def write_traj_csv(path, traj: np.ndarray) -> None:
    write_table(path, TRAJ_TAG, traj)


def read_traj_csv(path) -> np.ndarray:
    """A trajectory table; a yaw beyond (-pi, pi] is wrapped into it."""
    traj = read_table(path, TRAJ_TAG, TRAJ_COLUMNS, {"speed": _parse_speeds})
    traj["yaw"] = wrap_angles(traj["yaw"])
    return traj


# --- Values of JSON records -----------------------------------------------------

POLAR_KEYS = ("range", "azimuth", "vr", "amp")  # JSON point keys, in Detections column order
STATE_KEYS = ("x", "y", "yaw", "speed", "yaw_rate")
BOUNDING_KEYS = ("cx", "cy", "ax_major", "ax_minor", "orientation")


_INT64 = range(-2**63, 2**63)  # the idx values a point table holds


def _point_index(value) -> int:
    # bool is an int subclass, and a float or string index would be silently truncated.
    if type(value) is not int:
        raise ValueError(f"point idx must be an integer, got {value!r}")
    if value not in _INT64:
        raise ValueError(f"point idx {value} is outside int64")
    return value


def finite_number(value, name: str) -> float:
    """`value` as a float if it is a finite JSON number.

    A bool is an int subclass and float() would parse a string, and json
    reads an out-of-range literal such as 1e400 as infinity.
    """
    if type(value) in (int, float):
        try:
            v = float(value)
        except OverflowError:  # an integer literal beyond the float range
            v = math.inf
        if math.isfinite(v):
            return v
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def json_string(value, name: str) -> str:
    """`value` if it is a JSON string that UTF-8 can encode: ids and labels are never made
    from other types, and json reads an escape such as `\\ud800` as a lone surrogate."""
    if type(value) is not str:
        raise ValueError(f"{name} must be a string, got {value!r}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"{name} holds a lone surrogate {value[exc.start]!r}") from None
    return value


def _floats(values: list, names: Sequence[str]) -> np.ndarray:
    """`values` as floats if each is a finite JSON number, else a ValueError naming the
    first other one, values[k] as names[k % len(names)]."""
    try:
        out = np.array(values, dtype=float) if set(map(type, values)) <= {int, float} else None
        if out is not None and np.isfinite(out).all():
            return out
    except OverflowError:  # an integer literal beyond the float range
        pass
    return np.array([finite_number(v, names[k % len(names)]) for k, v in enumerate(values)])


def _scan_arrays(polar, idx, ego, glob, state, bounding, bounded) -> list[np.ndarray]:
    """Points' polar (4, n), idx, ego and global columns, scans' vru_state and bounding
    rows, of flat lists (five bounding values per scan in `bounded`).  A ValueError
    names the first fault in the order a record's values are checked."""
    state = _floats(state, STATE_KEYS).reshape(-1, 5)
    if np.any(state[:, 3] < 0):
        raise ValueError(f"speed must be >= 0, got {state[:, 3].min()}")
    full = np.full((len(state), 5), np.nan)
    full[bounded] = _floats(bounding, BOUNDING_KEYS).reshape(-1, 5)
    if np.any(full[bounded, 2:4] <= 0):
        raise ValueError("ellipse axes must be > 0")
    polar = _floats([*chain(*polar)], ("point value",)).reshape(4, -1)
    if np.any(polar[0] < 0):
        raise ValueError(f"range must be >= 0, got {polar[0].min()}")
    try:
        idx = np.array(idx, dtype=np.int64)
    except OverflowError:
        _point_index(next(i for i in idx if i not in _INT64))
    ego, glob = (_floats(c, ("point value",)).reshape(-1, 2) for c in (ego, glob))
    return [polar, idx, ego, glob, state, full]


# --- JSON Lines ---------------------------------------------------------------

def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


# Python's json module reads NaN and +-Infinity, which JSON does not have.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _decode_json(text: str, what: str, path, line: int):
    _check_utf8(text, path, line)
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError:
        raise SchemaError(f"{what} is not valid JSON", path, line) from None
    except ValueError as exc:
        raise SchemaError(f"{what} holds a {exc}", path, line) from None


def _load_jsonl(path, tag: str) -> Iterator[tuple[int, object]]:
    """Check the header line, then decode and yield one (line number, record) at a time.

    orjson decodes a line.  `_decode_json` decodes a line that orjson rejects,
    or names its fault: NaN, 1e400, a lone surrogate escape, a byte that is not
    UTF-8, or text after the JSON value."""
    with _open_text(path) as fh:
        header = fh.readline()
        if not header:
            raise SchemaError("empty file", path, 1)
        _check_jsonl_header(_decode_json(header, "header line", path, 1), tag, path)
        for i, line in enumerate(fh, start=2):
            if line != "\n":
                try:
                    rec = orjson.loads(line)
                except ValueError:
                    rec = _decode_json(line, "record", path, i)
                yield i, rec


def _json_record(path, line: int):
    """The record at `line` of a JSONL file as json decodes it.  orjson reads an integer
    literal beyond 64 bits as a float and json as an int, so a reader that finds a faulty
    point idx reads its line again here, to name the idx by its literal."""
    with _open_text(path) as fh:
        return _DECODER.decode(next(islice(fh, line - 1, None)))


class _Scans:
    """The scans of a JSONL scan file, read a block of records at a time.

    A reader checks a record's structure, `add`s it and appends its values to
    `values`, the flat lists `_scan_arrays` takes, so no decoded record
    outlives its line.  Every fault is a SchemaError naming the first faulty line.
    """

    def __init__(self, path, what: str):
        self.path, self.what, self.last_t, self.arrays, self.start = path, what, {}, [], 0
        self.lines, self.times, self.sensors, self.counts, self.n_assigned = [], [], [], [], []
        self.values = ([], [], [], []), [], [], [], [], [], []  # bounded: block record numbers

    def records(self, tag: str) -> Iterator[tuple[int, object]]:
        """`_load_jsonl`; a line that does not decode is a fault once the block's are ruled out."""
        try:
            yield from _load_jsonl(self.path, tag)
        except SchemaError:
            self.close()
            raise

    def fail(self, line: int, message: str):
        """Raise the fault of an earlier record of the block, or else `message` at `line`."""
        self.close()
        raise SchemaError(message, self.path, line)

    def add(self, line: int, t, sensor_id, n_points: int) -> None:
        """Start a scan record; each sensor's scans must follow one another in time."""
        try:
            if type(t) is not float or t - t:  # not a float, or infinite
                t = finite_number(t, "t")
            if type(sensor_id) is not str or sensor_id not in self.last_t:
                json_string(sensor_id, "sensor_id")
        except ValueError as exc:
            self.fail(line, f"bad {self.what} record: {exc}")
        prev = self.last_t.get(sensor_id, -math.inf)
        if t <= prev:
            self.fail(line, f"scan t={t:.9f} of sensor {sensor_id!r} does not follow t={prev:.9f}")
        self.last_t[sensor_id] = t
        if len(self.lines) - self.start + len(self.values[0][0]) >= _BLOCK:
            self.close()
        self.lines.append(line)
        self.times.append(t)
        self.sensors.append(sensor_id)
        self.counts.append(n_points)

    def close(self) -> None:
        polar, idx, ego, glob, state, bounding, bounded = self.values
        ends = [*accumulate(self.counts[self.start:], initial=0)]

        def arrays(k: int) -> list[np.ndarray]:  # of the block's first k records
            q, b = ends[k], bisect_left(bounded, k)
            return _scan_arrays([c[:q] for c in polar], idx[:q], ego[:2 * q], glob[:2 * q],
                                state[:5 * k], bounding[:5 * b], bounded[:b])
        try:
            self.arrays.append(arrays(len(ends) - 1))
        except ValueError:  # the shortest failing prefix ends at the fault
            for k in range(1, len(ends)):
                try:
                    arrays(k)
                except ValueError as exc:
                    raise SchemaError(f"bad {self.what} record: {exc}", self.path,
                                      self.lines[self.start + k - 1]) from None
            raise
        for values in (*polar, idx, ego, glob, state, bounding, bounded):
            values.clear()
        self.start = len(self.lines)

    def columns(self) -> list[np.ndarray]:
        """Close the last block; `_scan_arrays` of all of them."""
        self.close()
        return [np.concatenate(c, axis=-1 if k == 0 else 0) for k, c in enumerate(zip(*self.arrays))]


def _polar_columns(d: Detections) -> dict[str, np.ndarray]:
    return {"range_m": d.range_m, "azimuth": d.azimuth, "radial_velocity": d.radial_velocity,
            "amplitude": d.amplitude}


_LINE = partial(orjson.dumps, option=orjson.OPT_APPEND_NEWLINE)  # one JSON-Lines line


def _write_jsonl(path, tag: str, chunks: Iterable[bytes], columns: dict[str, np.ndarray],
                 strings: dict) -> None:
    """The format line, then each chunk of encoded lines; then the column sidecar
    `<path>.cols` of `columns` and `strings` (see `sidecar`).

    Before the file is opened, a ValueError names the first float column that
    holds NaN or an infinity, which JSON cannot hold (a `bounding` row whose
    first value is NaN is a scan without a bounding ellipse, written as null),
    and an old sidecar is removed, so that a failed write leaves none.
    """
    for name, column in columns.items():
        if name == "bounding":
            column = column[~np.isnan(column[:, 0])]
        if column.dtype.kind == "f" and not np.isfinite(column).all():
            raise ValueError(f"column {name!r} holds a non-finite value")
    sidecar.path_of(path).unlink(missing_ok=True)
    crc = 0
    with open(path, "wb") as fh:
        for chunk in chain([_LINE({"format": tag})], chunks):
            fh.write(chunk)
            crc = zlib.crc32(chunk, crc)
        size = fh.tell() if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) else None
    if size is not None:  # a pipe or a device keeps no bytes to tie a sidecar to
        sidecar.write(path, size, crc, columns, strings)


def _written_times(scans: ScanTable) -> list[float]:
    """Each scan's `t` as written, to the nanosecond."""
    return list(map(round, scans.timestamp.tolist(), repeat(9)))


def _scan_keys(scans: ScanTable, times: list[float]) -> Iterator[tuple[float, str, int, int]]:
    """Each scan's written `t`, its sensor id and its rows lo:hi."""
    offsets = scans.offsets.tolist()
    return zip(times, scans.sensor_id.tolist(), offsets, offsets[1:])


def _scan_columns(scans: ScanTable, times: list[float]) -> tuple[dict[str, np.ndarray], list[str]]:
    """The sidecar's scan columns and the distinct sensor ids they number.  A ValueError
    names an id that UTF-8 cannot encode, which JSON cannot hold."""
    names, codes = np.unique(scans.sensor_id, return_inverse=True)
    names = names.tolist()
    for name in names:
        json_string(name, "column 'sensor_id'")
    return {"timestamp": np.array(times, dtype=float), "sensor": codes.astype(np.int64, copy=False),
            "offsets": scans.offsets}, names


# --- Radar scans ----------------------------------------------------------

_NO_POINTS = ((),) * 7
_RADAR_SCAN = operator.itemgetter("t", "sensor_id", "points")
_POLAR = operator.itemgetter(*POLAR_KEYS)


def write_radar_jsonl(path, scans: ScanTable) -> None:
    columns = _polar_columns(scans.detections)
    polar = np.column_stack(list(columns.values()))
    times = _written_times(scans)
    scan_columns, names = _scan_columns(scans, times)
    _write_jsonl(path, RADAR_TAG, map(_LINE, (
        {"t": t, "sensor_id": sensor_id,
         "points": [{"range": r, "azimuth": a, "vr": v, "amp": p}
                    for r, a, v, p in polar[lo:hi].tolist()]}
        for t, sensor_id, lo, hi in _scan_keys(scans, times))),
        {**scan_columns, **columns}, {"sensor_ids": names})


def read_radar_jsonl(path) -> ScanTable:
    """The radar scans of a file; from its column sidecar if one matches it (see `sidecar`)."""
    table = sidecar.radar_table(path)
    return _decode_radar_jsonl(path) if table is None else table


def _decode_radar_jsonl(path) -> ScanTable:
    scans = _Scans(path, "radar")
    ranges, azimuths, velocities, amplitudes = scans.values[0]
    for i, rec in scans.records(RADAR_TAG):
        try:
            t, sensor_id, points = _RADAR_SCAN(rec)
            if type(points) is not list:
                raise ValueError(f"points must be a list, got {points!r}")
            r, a, v, p = list(zip(*map(_POLAR, points))) or _NO_POINTS[:4]
        except (KeyError, TypeError, ValueError) as exc:
            scans.fail(i, f"bad radar record: {exc}")
        scans.add(i, t, sensor_id, len(r))
        ranges += r
        azimuths += a
        velocities += v
        amplitudes += p
    polar, offsets = scans.columns()[0], scan_offsets(scans.counts)
    return ScanTable(scans.times, scans.sensors, offsets,
                     Detections(*polar, index=rank_in_scan(offsets)))


# --- Truth labels -----------------------------------------------------------

_TRUTH_LABEL = operator.itemgetter("t", "idx", "label")


def write_truth_labels_jsonl(path, scans: ScanTable, is_vru) -> None:
    """One record per row of `scans`, labeled by the (n,) bool column `is_vru`."""
    is_vru = np.asarray(is_vru, dtype=bool)
    if is_vru.shape != (len(scans.detections),):
        raise ValueError(f"got {len(is_vru)} labels for {len(scans.detections)} points")
    index, times = scans.detections.index, _written_times(scans)
    _write_jsonl(path, TRUTH_LABELS_TAG, (
        b"".join([_LINE({"t": t, "idx": idx, "label": LABEL_VRU if vru else LABEL_CLUTTER})
                  for idx, vru in zip(index[lo:hi].tolist(), is_vru[lo:hi].tolist())])
        for t, _, lo, hi in _scan_keys(scans, times)),
        {"timestamp": np.array(times, dtype=float), "offsets": scans.offsets, "index": index,
         "is_vru": is_vru.view(np.uint8)}, {})


def read_truth_labels_jsonl(path) -> dict[tuple[float, int], str]:
    """The truth labels of a file, keyed by (t, idx); from its column sidecar if one matches
    it (see `sidecar`)."""
    labels = sidecar.truth_labels(path)
    return _decode_truth_labels_jsonl(path) if labels is None else labels


def _decode_truth_labels_jsonl(path) -> dict[tuple[float, int], str]:
    out: dict[tuple[float, int], str] = {}
    t = key_t = None
    for i, rec in _load_jsonl(path, TRUTH_LABELS_TAG):
        try:
            raw_t, idx, label = _TRUTH_LABEL(rec)
            if raw_t != t or type(raw_t) is not float:  # the points of a scan share t
                key_t, t = round(finite_number(raw_t, "t"), 9), raw_t
            if type(idx) is not int or idx not in _INT64:
                _point_index(_json_record(path, i)["idx"])
            if label not in (LABEL_VRU, LABEL_CLUTTER):
                raise ValueError(f"label must be {LABEL_VRU!r} or {LABEL_CLUTTER!r}, got {label!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad label record: {exc}", path, i) from None
        if (key_t, idx) in out:
            raise SchemaError(f"repeated label for t={key_t:.9f} point {idx}", path, i)
        out[key_t, idx] = label
    return out


# --- Labeled scans -----------------------------------------------------------

_LABELED_SCAN = operator.itemgetter("t", "sensor_id", "vru_state", "assigned", "rejected",
                                    "track_id", "vru_kind")
_LABELED_POINT = operator.itemgetter(*POLAR_KEYS, "idx", "ego", "global")
_STATE = operator.itemgetter(*STATE_KEYS)
_BOUNDING = operator.itemgetter(*BOUNDING_KEYS)


def write_labeled_jsonl(path, scans: LabeledTable) -> None:
    """One record per scan; a scan whose `bounding` row is NaN has no bounding ellipse, and
    a null `bounding`."""
    n_assigned = np.asarray(scans.n_assigned, dtype=np.int64)
    if np.any(n_assigned < 0) or np.any(n_assigned > np.diff(scans.offsets)):
        raise ValueError("column 'n_assigned' is outside its scan")
    d, given = scans.detections, ~np.isnan(scans.bounding[:, 0])
    columns = {**_polar_columns(d), "ego": d.ego, "global_xy": d.global_xy}
    values = np.column_stack(list(columns.values()))
    times = _written_times(scans)
    scan_columns, names = _scan_columns(scans, times)
    json_string(scans.track_id, "column 'track_id'")

    def points(lo: int, hi: int) -> list[dict]:
        return [{"idx": i, "range": r, "azimuth": a, "vr": v, "amp": p, "ego": [ex, ey],
                 "global": [gx, gy]}
                for i, (r, a, v, p, ex, ey, gx, gy) in zip(d.index[lo:hi].tolist(),
                                                             values[lo:hi].tolist())]
    _write_jsonl(path, LABELED_TAG, map(_LINE, (
        {"t": t, "track_id": scans.track_id, "vru_kind": scans.vru_kind.value,
         "sensor_id": sensor_id,
         "assigned": points(lo, mid), "rejected": points(mid, hi),
         "bounding": dict(zip(BOUNDING_KEYS, bounding)) if has else None,
         "vru_state": dict(zip(STATE_KEYS, state))}
        for (t, sensor_id, lo, hi), mid, state, bounding, has in zip(
            _scan_keys(scans, times), (scans.offsets[:-1] + n_assigned).tolist(),
            scans.vru_state.tolist(), scans.bounding.tolist(), given.tolist()))),
        {**scan_columns, **columns, "index": d.index, "n_assigned": n_assigned,
         "vru_state": scans.vru_state,
         "bounding": np.where(given[:, None], scans.bounding, np.nan)},
        {"sensor_ids": names, "track_id": scans.track_id, "vru_kind": scans.vru_kind.value})


def read_labeled_jsonl(path) -> LabeledTable:
    """The labeled scans of one track; every record must name the same track and kind.
    From the file's column sidecar if one matches it (see `sidecar`)."""
    table = sidecar.labeled_table(path)
    return _decode_labeled_jsonl(path) if table is None else table


def _decode_labeled_jsonl(path) -> LabeledTable:
    scans, track, named = _Scans(path, "labeled"), None, None
    (ranges, azimuths, velocities, amplitudes), index, ego_xy, global_xy, states, boundings, \
        bounded = scans.values
    for i, rec in scans.records(LABELED_TAG):
        try:
            t, sensor_id, state, assigned, rejected, track_id, kind = _LABELED_SCAN(rec)
            state, bounding = _STATE(state), rec.get("bounding")
            bounding = bounding if bounding is None else _BOUNDING(bounding)
            points = assigned + rejected
            if type(points) is not list:
                raise ValueError(f"points must be a list, got {points!r}")
            r, a, v, p, idx, ego, glob = list(zip(*map(_LABELED_POINT, points))) or _NO_POINTS
            if not set(map(type, idx)) <= {int}:
                literal = _json_record(path, i)
                literal = [q["idx"] for q in literal["assigned"] + literal["rejected"]]
                _point_index(next(x for x in literal if type(x) is not int or x not in _INT64))
            if len(set(idx)) < len(idx):
                raise ValueError(f"point idx {next(x for x in idx if idx.count(x) > 1)} appears "
                                 "more than once")
            if (track_id, kind) != track:
                this = json_string(track_id, "track_id"), VruKind(kind)
                if track is not None:
                    raise ValueError(f"track {this[0]!r} ({this[1].value}) differs from the first "
                                     f"record's {named[0]!r} ({named[1].value})")
                track, named = (track_id, kind), this
            pairs = ego + glob
            if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
                key, bad = next((key, q) for key, column in (("ego", ego), ("global", glob))
                                for q in column if type(q) is not list or len(q) != 2)
                raise ValueError(f"point {key!r} must be an [x, y] pair, got {bad!r}")
        except (KeyError, TypeError, ValueError) as exc:
            scans.fail(i, f"bad labeled record: {exc}")
        scans.add(i, t, sensor_id, len(idx))
        ranges += r
        azimuths += a
        velocities += v
        amplitudes += p
        index += idx
        ego_xy += chain.from_iterable(ego)
        global_xy += chain.from_iterable(glob)
        states += state
        if bounding is not None:
            bounded.append(len(scans.lines) - 1 - scans.start)
            boundings += bounding
        scans.n_assigned.append(len(assigned))
    polar, idx, ego, glob, state, bounding = scans.columns()
    return LabeledTable(scans.times, scans.sensors, scan_offsets(scans.counts),
                        Detections(*polar, index=idx, ego=ego, global_xy=glob),
                        np.array(scans.n_assigned, dtype=np.int64), state, bounding,
                        *(named or ("", VruKind.PEDESTRIAN)))


# --- Scenario manifest --------------------------------------------------------

def write_scenario_json(path, *, vru_kind: VruKind, track_id: str, seed: int, ego_pose: Pose,
                        mounts: Iterable[SensorMount], counts: dict[str, int]) -> None:
    mounts = [{"sensor_id": m.sensor_id, "x": m.pose_in_ego.x, "y": m.pose_in_ego.y,
               "yaw": m.pose_in_ego.yaw, "fov_azimuth": m.fov_azimuth, "max_range": m.max_range}
              for m in mounts]
    rec = {"format": SCENARIO_TAG, "vru_kind": vru_kind.value, "track_id": track_id, "seed": seed,
           "ego_pose": {"x": ego_pose.x, "y": ego_pose.y, "yaw": ego_pose.yaw}, "mounts": mounts,
           "counts": counts}
    Path(path).write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_scenario_json(path) -> dict:
    with _open_text(path) as fh:
        rec = _decode_json(fh.read(), "scenario manifest", path, 1)
    _check_jsonl_header(rec, SCENARIO_TAG, path)
    try:
        rec["vru_kind"] = VruKind(rec["vru_kind"])
        json_string(rec["track_id"], "track_id")
        ep = rec["ego_pose"]
        rec["ego_pose"] = Pose(*(finite_number(ep[k], k) for k in ("x", "y", "yaw")), frame=GLOBAL)
        rec["mounts"] = [SensorMount(
            json_string(m["sensor_id"], "sensor_id"),
            Pose(*(finite_number(m[k], k) for k in ("x", "y", "yaw")), frame="ego"),
            *(finite_number(m[k], k) for k in ("fov_azimuth", "max_range"))) for m in rec["mounts"]]
        mounts_by_id(rec["mounts"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad scenario manifest: {exc}", path, 1) from None
    return rec
