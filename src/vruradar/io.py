"""File interchange: versioned CSV and JSON-Lines formats.

Every file starts with a format-version line; readers reject unknown
versions.  CSV carries flat time series, JSON-Lines carries per-scan records
with variable-length point lists.  Timestamps are written with nanosecond
resolution so records can be joined on them exactly.  orjson encodes radar
and labeled JSON-Lines a record at a time, and the numbers of a block of
truth labels a column at a time.  Every value rule of a JSON-Lines file kind is
written once, in the function that builds its table from columns
(`_scan_table`, `truth_labels`).  A reader takes the columns from the file's
column sidecar (`sidecar`, a byte codec) when one matches the file and they
hold no fault, and else decodes the file's text with `jsonl_decoder`, which
it imports only then.  orjson is imported only by a writer of JSON-Lines text
and by `jsonl_decoder`, so a command that reads every file from its sidecar
loads none of either.
"""

from __future__ import annotations

import json
import math
import operator
import os
import stat
import zlib
from functools import partial
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import sidecar  # lazy (see __init__): loaded when a JSON-Lines file is read or written
from .core import (GNSS_COLUMNS, IMU_COLUMNS, LABEL_CLUTTER, LABEL_VRU, QUALITY_DTYPE,
                   TRAJ_COLUMNS, Detections, GnssQuality, LabeledTable, Pose, ScanTable,
                   SensorMount, TruthLabels, VruKind, mounts_by_id, rank_in_scan, scan_counts,
                   scan_offsets, table, wrap_angles)

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


_POINT = ("point value",)


def _track(track_id, kind) -> tuple[str, VruKind]:
    """A labeled file's track id and kind; a ValueError names one that is not valid."""
    return json_string(track_id, "track_id"), VruKind(kind)


# --- Tables of JSON-Lines files, from columns -------------------------------------
#
# One function per file kind builds its table from the columns a column sidecar holds
# (see `sidecar`) and holds every value rule of that kind.  A sidecar's columns and a
# decoded file's columns both go through it.

_POLAR_COLUMNS = ("range_m", "azimuth", "radial_velocity", "amplitude")


class _Fault(ValueError):
    """(message, k): a reader's message for the first faulty scan, or truth-label row, k."""


def _raise_first(rules: list) -> None:
    """Raise the _Fault of the first scan that breaks a rule.  Each rule is (a mask of the
    scans that break it, its message for a scan k), in the order a reader checks the values
    of one record, so that a scan that breaks two rules gets the first one's message."""
    bad = np.array([mask for mask, _ in rules])
    if bad.any():
        k = int(bad.any(axis=0).argmax())
        raise _Fault(rules[int(bad[:, k].argmax())][1](k), k)


def _fault(check, *args) -> str | None:
    """The message of the ValueError that `check(*args)` raises, or None."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _scan_table(c: dict, strings: dict) -> ScanTable:
    """The table of a radar file's columns, or of a labeled file's (which hold `index`).
    A _Fault names the first faulty scan."""
    labeled, t, sensor, offsets = "index" in c, c["timestamp"], c["sensor"], c["offsets"]
    polar, m, each = [c[name] for name in _POLAR_COLUMNS], len(t), np.arange(len(t), dtype=np.int32)
    scan = np.repeat(each, scan_counts(offsets, len(polar[0])))
    # A code outside the ids names None, and an id that a sidecar names twice is invalid.
    names = [*strings["sensor_ids"], None]
    valid = [_fault(json_string, name, "sensor_id") is None and names.index(name) == j
             for j, name in enumerate(names)]
    code = np.where((sensor >= 0) & (sensor < len(names) - 1), sensor, len(names) - 1)
    order = np.argsort(code, kind="stable")  # each scan's last scan of its sensor, or -1
    before = np.full(m, -1)
    before[order[1:]] = np.where(code[order[1:]] == code[order[:-1]], order[:-1], -1)
    bad = f"bad {'labeled' if labeled else 'radar'} record: ".__add__

    def rows(mask: np.ndarray, of=scan) -> np.ndarray:  # the scans that hold a marked row
        return np.bincount(of[mask.any(axis=tuple(range(1, mask.ndim)))], minlength=m) > 0

    def finite(column: np.ndarray, names=_POINT, of=scan, at=offsets) -> tuple:
        """Each scan's values are finite: its rows `of` a column of points, or of scans;
        `finite_number` names the first value that is not."""
        return rows(~np.isfinite(column), of), lambda k: bad(_fault(lambda: [
            finite_number(v, names[j % len(names)])
            for j, v in enumerate(column[at[k]:at[k + 1]].ravel().tolist())]))

    rules = [finite(t, ("t",), each, np.arange(m + 1)),
             (~np.array(valid)[code], lambda k: bad(
                 _fault(json_string, names[code[k]], "sensor_id") or "sensor id given twice"))]
    if labeled:
        state, bounding = c["vru_state"], c["bounding"]
        given = ~np.isnan(bounding[:, :1])  # a scan without a bounding ellipse holds NaN
        bounding[~given[:, 0]] = np.nan
        rules += [finite(state, STATE_KEYS, each, np.arange(m + 1)),
                  (state[:, 3] < 0,
                   lambda k: bad(f"speed must be >= 0, got {state[k].tolist()[3]}")),
                  finite(np.where(given, bounding, 0.0), BOUNDING_KEYS, each, np.arange(m + 1)),
                  ((bounding[:, 2:4] <= 0).any(axis=1), lambda k: bad("ellipse axes must be > 0"))]
    rules += [*map(finite, polar), (rows(polar[0] < 0), lambda k: bad(
        f"range must be >= 0, got {polar[0][offsets[k]:offsets[k + 1]].min()}"))]
    if labeled:
        # Rows are grouped by scan, so each scan's idx sorted keeps the rows' scans.
        index, repeated = c["index"], np.zeros(len(scan), bool)
        by_index = c["index"][np.lexsort((c["index"], scan))]
        repeated[1:] = (by_index[1:] == by_index[:-1]) & (scan[1:] == scan[:-1])
        track = _fault(_track, strings.get("track_id"), strings.get("vru_kind")) if m else None

        def repeated_idx(k: int) -> str:
            idx = index[offsets[k]:offsets[k + 1]].tolist()
            return bad(f"point idx {next(x for x in idx if idx.count(x) > 1)} appears more "
                       "than once")
        rules += [(rows(repeated), repeated_idx),
                  ((each == 0) & (track is not None), lambda k: bad(track)),
                  finite(c["ego"]), finite(c["global_xy"])]
    rules.append(((before >= 0) & (t <= t[before]),
                  lambda k: f"scan t={t[k]:.9f} of sensor {names[code[k]]!r} does not follow "
                            f"t={t[before[k]]:.9f}"))
    _raise_first(rules)
    d = Detections(*polar, index=c["index"] if labeled else rank_in_scan(offsets),
                   ego=c.get("ego"), global_xy=c.get("global_xy"))
    sensor_id = np.asarray(names[:-1], dtype=str)[code]
    if not labeled:
        return ScanTable(t, sensor_id, offsets, d)
    # A file without records names no track.
    track_id, kind = (strings["track_id"], strings["vru_kind"]) if m else ("", "pedestrian")
    return LabeledTable(t, sensor_id, offsets, d, c["n_assigned"], state, bounding, track_id,
                        VruKind(kind))


def truth_labels(c: Mapping[str, np.ndarray], strings: dict | None = None) -> TruthLabels:
    """The truth labels of a truth-label file's columns (`timestamp` per scan, row `offsets`
    of the scans, `index` and `is_vru` per point), ordered by key.  A row's key is its
    scan's `t` to the nanosecond, by Python's round as the writer rounds it, and its idx;
    the scans of one key time become one.  A _Fault names the first faulty row."""
    t, offsets, index, is_vru = c["timestamp"], c["offsets"], c["index"], c["is_vru"]
    counts = scan_counts(offsets, len(index))
    times = [round(x, 9) for x in t.tolist()]
    scan = np.repeat(np.arange(len(times)), counts)
    # Rows sorted by key, stably: a row whose key a row before it holds follows that row.
    key_times, rank = np.unique(np.array(times, dtype=float) + 0.0, return_inverse=True)
    rank = rank[scan]
    order = np.lexsort((index, rank))
    repeated = np.zeros(len(index), bool)
    repeated[order[1:]] = (rank[order[1:]] == rank[order[:-1]]) & (
        index[order[1:]] == index[order[:-1]])
    _raise_first([
        (np.repeat(~np.isfinite(t), counts),
         lambda r: f"bad label record: {_fault(finite_number, times[scan[r]], 't')}"),
        (is_vru > 1, lambda r: f"bad label record: is_vru must be 0 or 1, got {is_vru[r]}"),
        (repeated, lambda r: f"repeated label for t={times[scan[r]]:.9f} point {index[r]}"),
    ])
    rows = np.bincount(rank, minlength=len(key_times))
    return TruthLabels(key_times[rows > 0], scan_offsets(rows[rows > 0]), index[order],
                       is_vru[order] != 0)


def _read(path, schema: dict, build, decode=None):
    """`build` of the columns of the sidecar of `path` if one matches the file and they hold
    no fault; else `decode(path, schema)`, which names any fault: by default
    `jsonl_decoder.decode`, whose module is imported only here."""
    got = sidecar.read(path, schema)
    if got is not None:
        try:
            return build(*got)
        except (KeyError, TypeError, ValueError):  # strings or columns that no writer writes
            pass
    if decode is None:
        from .jsonl_decoder import decode
    return decode(path, schema)


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


def _encoder() -> Callable[[object], bytes]:
    """orjson's encoder of one JSON-Lines line, bound once per file written: only a writer of
    JSON-Lines text, or a reader that decodes it, loads orjson."""
    import orjson

    return partial(orjson.dumps, option=orjson.OPT_APPEND_NEWLINE)


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
        for chunk in chain([_encoder()({"format": tag})], chunks):
            fh.write(chunk)
            crc = zlib.crc32(chunk, crc)
        size = fh.tell() if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) else None
    if size is not None:  # a pipe or a device keeps no bytes to tie a sidecar to
        sidecar.write(path, size, crc, columns, strings)


def _scan_columns(scans: ScanTable) -> tuple[dict[str, np.ndarray], list[str], Iterator]:
    """The sidecar's scan columns, the distinct sensor ids they number, and each scan's
    written `t`, sensor id and rows lo:hi.  A ValueError names an id that UTF-8 cannot
    encode, which JSON cannot hold."""
    names, codes = np.unique(scans.sensor_id, return_inverse=True)
    names = names.tolist()
    for name in names:
        json_string(name, "column 'sensor_id'")
    times, offsets = list(map(round, scans.timestamp.tolist(), repeat(9))), scans.offsets.tolist()
    columns = {"timestamp": np.array(times, dtype=float),
               "sensor": codes.astype(np.int64, copy=False), "offsets": scans.offsets}
    return columns, names, zip(times, scans.sensor_id.tolist(), offsets, offsets[1:])


# --- Radar scans ----------------------------------------------------------

def write_radar_jsonl(path, scans: ScanTable) -> None:
    """One record per scan.  A radar point's idx is its position in its scan, which the
    file does not write: before the file is opened, a ValueError names the first scan whose
    points are not numbered 0..k-1."""
    misnumbered = scans.detections.index != rank_in_scan(scans.offsets)
    if misnumbered.any():
        k = int(scans.scan_of_row[np.argmax(misnumbered)])
        raise ValueError(f"scan {k} at t={scans.timestamp[k]:.9f}: a radar file numbers the "
                         f"points of a scan 0..{scans.offsets[k + 1] - scans.offsets[k] - 1}")
    columns = {name: getattr(scans.detections, name) for name in _POLAR_COLUMNS}
    polar = np.column_stack(list(columns.values()))
    scan_columns, names, keys = _scan_columns(scans)
    _write_jsonl(path, RADAR_TAG, map(_encoder(), (
        {"t": t, "sensor_id": sensor_id,
         "points": [{"range": r, "azimuth": a, "vr": v, "amp": p}
                    for r, a, v, p in polar[lo:hi].tolist()]}
        for t, sensor_id, lo, hi in keys)),
        {**scan_columns, **columns}, {"sensor_ids": names})


def read_radar_jsonl(path) -> ScanTable:
    """The radar scans of a file; from its column sidecar if one matches it (see `sidecar`)."""
    return _read(path, sidecar.RADAR, _scan_table)


# --- Truth labels -----------------------------------------------------------

# The bytes of a truth-label record after its idx, as orjson writes it: by `is_vru`.
_LABEL_ENDS = tuple(f',"label":"{label}"}}\n'.encode() for label in (LABEL_CLUTTER, LABEL_VRU))


def write_truth_labels_jsonl(path, scans: ScanTable, is_vru) -> None:
    """One record per row of `scans`, labeled by the (n,) bool column `is_vru`.  A block of
    records is joined from fixed bytes and orjson's text of its numbers, which orjson
    writes once per column, not once per record."""
    import orjson

    is_vru = np.asarray(is_vru, dtype=bool)
    if is_vru.shape != (len(scans.detections),):
        raise ValueError(f"got {len(is_vru)} labels for {len(scans.detections)} points")
    index, scan = scans.detections.index, scans.scan_of_row
    times = list(map(round, scans.timestamp.tolist(), repeat(9)))  # as written, to the ns

    def texts(numbers: list) -> list[bytes]:
        return orjson.dumps(numbers)[1:-1].split(b",")

    heads = [b'{"t":%b,"idx":' % t for t in texts(times)]  # of each scan's records
    _write_jsonl(path, TRUTH_LABELS_TAG, (
        b"".join(chain.from_iterable(zip(
            map(heads.__getitem__, scan[lo:lo + _BLOCK].tolist()),
            texts(index[lo:lo + _BLOCK].tolist()),
            map(_LABEL_ENDS.__getitem__, is_vru[lo:lo + _BLOCK].tolist()))))
        for lo in range(0, len(index), _BLOCK)),
        {"timestamp": np.array(times, dtype=float), "offsets": scans.offsets, "index": index,
         "is_vru": is_vru.view(np.uint8)}, {})


def read_truth_labels_jsonl(path) -> TruthLabels:
    """The truth labels of a file, ordered by key (see `truth_labels`); from its column
    sidecar if one matches it (see `sidecar`)."""
    return _read(path, sidecar.TRUTH_LABELS, truth_labels)


# --- Labeled scans -----------------------------------------------------------

def write_labeled_jsonl(path, scans: LabeledTable) -> None:
    """One record per scan; a scan whose `bounding` row is NaN has no bounding ellipse, and
    a null `bounding`."""
    d, given = scans.detections, ~np.isnan(scans.bounding[:, 0])
    columns = {name: getattr(d, name) for name in (*_POLAR_COLUMNS, "ego", "global_xy")}
    values = np.column_stack(list(columns.values()))
    scan_columns, names, keys = _scan_columns(scans)
    json_string(scans.track_id, "column 'track_id'")

    def points(lo: int, hi: int) -> list[dict]:
        return [{"idx": i, "range": r, "azimuth": a, "vr": v, "amp": p, "ego": [ex, ey],
                 "global": [gx, gy]}
                for i, (r, a, v, p, ex, ey, gx, gy) in zip(d.index[lo:hi].tolist(),
                                                             values[lo:hi].tolist())]
    _write_jsonl(path, LABELED_TAG, map(_encoder(), (
        {"t": t, "track_id": scans.track_id, "vru_kind": scans.vru_kind.value,
         "sensor_id": sensor_id,
         "assigned": points(lo, mid), "rejected": points(mid, hi),
         "bounding": dict(zip(BOUNDING_KEYS, bounding)) if has else None,
         "vru_state": dict(zip(STATE_KEYS, state))}
        for (t, sensor_id, lo, hi), mid, state, bounding, has in zip(
            keys, (scans.offsets[:-1] + scans.n_assigned).tolist(),
            scans.vru_state.tolist(), scans.bounding.tolist(), given.tolist()))),
        {**scan_columns, **columns, "index": d.index, "n_assigned": scans.n_assigned,
         "vru_state": scans.vru_state,
         "bounding": np.where(given[:, None], scans.bounding, np.nan)},
        {"sensor_ids": names, "track_id": scans.track_id, "vru_kind": scans.vru_kind.value})


def read_labeled_jsonl(path) -> LabeledTable:
    """The labeled scans of one track; every record must name the same track and kind.
    From the file's column sidecar if one matches it (see `sidecar`)."""
    return _read(path, sidecar.LABELED, _scan_table)


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
        rec["ego_pose"] = Pose(*(finite_number(ep[k], k) for k in ("x", "y", "yaw")))
        rec["mounts"] = [SensorMount(
            json_string(m["sensor_id"], "sensor_id"),
            Pose(*(finite_number(m[k], k) for k in ("x", "y", "yaw"))),
            *(finite_number(m[k], k) for k in ("fov_azimuth", "max_range"))) for m in rec["mounts"]]
        mounts_by_id(rec["mounts"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad scenario manifest: {exc}", path, 1) from None
    return rec
