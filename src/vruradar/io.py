"""File interchange: versioned CSV and JSON-Lines formats.

Every file starts with a format-version line; readers reject unknown
versions.  CSV carries flat time series, JSON-Lines carries per-scan records
with variable-length point lists.  Timestamps are written with nanosecond
resolution so records can be joined on them exactly.
"""

from __future__ import annotations

import json
import math
import operator
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .annotation import LabeledTable
from .core import (
    GLOBAL,
    Detections,
    Pose,
    ScanTable,
    SensorMount,
    VruKind,
    rank_in_scan,
    scan_offsets,
)
from .trajectory import GnssQuality, GnssSample, ImuSample, TrajectoryState

GNSS_TAG = "vruradar.gnss.v1"
IMU_TAG = "vruradar.imu.v1"
TRAJ_TAG = "vruradar.traj.v1"
RADAR_TAG = "vruradar.radar.v1"
TRUTH_LABELS_TAG = "vruradar.truth-labels.v1"
LABELED_TAG = "vruradar.labeled.v1"
SCENARIO_TAG = "vruradar.scenario.v1"


class SchemaError(ValueError):
    """Input file malformed; carries the offending line number when known."""

    def __init__(self, message: str, path=None, line: int | None = None):
        loc = f"{path}:{line}: " if path is not None and line is not None else ""
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


def _check_header(line: str, tag: str, path) -> None:
    expected = f"# format={tag}"
    if line.rstrip("\n") != expected:
        raise SchemaError(f"expected header {expected!r}, got {line.strip()!r}", path, 1)


def _check_jsonl_header(record, tag: str, path) -> None:
    if not isinstance(record, dict):
        raise SchemaError(f"expected a JSON object with format tag {tag!r}", path, 1)
    if record.get("format") != tag:
        raise SchemaError(f"expected format tag {tag!r}, got {record.get('format')!r}", path, 1)


def _parse_float(text: str, name: str, path, line: int) -> float:
    try:
        v = float(text)
    except ValueError:
        raise SchemaError(f"field {name!r} is not a number: {text!r}", path, line) from None
    if not math.isfinite(v):
        raise SchemaError(f"field {name!r} is not finite: {text!r}", path, line)
    return v


def _parse_optional_float(text: str, name: str, path, line: int) -> float | None:
    return None if text == "" else _parse_float(text, name, path, line)


def _parse_quality(text: str, name: str, path, line: int) -> GnssQuality:
    try:
        return GnssQuality(text)
    except ValueError:
        raise SchemaError(f"unknown {name} {text!r}", path, line) from None


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (str, int, np.integer)):
        return str(v)
    return repr(float(v))


def _fmt_t(t: float) -> str:
    return f"{t:.9f}"


# --- Versioned CSV tables ---------------------------------------------------

def write_table(path, tag: str, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV with a `# format=<tag>` line, the column header and one line per row.

    A `timestamp` column is written with nine fractional digits, other floats
    with `repr`, integers and strings as they are, and None as an empty field.
    """
    fmts = [_fmt_t if name == "timestamp" else _fmt for name in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# format={tag}\n{','.join(columns)}\n")
        for row in rows:
            fh.write(",".join([f(v) for f, v in zip(fmts, row, strict=True)]) + "\n")


def read_table(
    path, tag: str, columns: Sequence[str], parsers: Mapping[str, Callable] | None = None
) -> list[list]:
    """Rows of a table written by :func:`write_table`, parsed field by field.

    A field is parsed by `parsers[column]`, called as (text, column, path,
    line), or else as a finite float.  A `timestamp` column must be strictly
    increasing.  Every fault is a SchemaError naming path and line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError("empty file", path, 1)
    _check_header(lines[0], tag, path)
    if len(lines) < 2 or lines[1] != ",".join(columns):
        raise SchemaError("bad column header", path, 2)
    parsers = parsers or {}
    parse = [parsers.get(name, _parse_float) for name in columns]
    t_col = columns.index("timestamp") if "timestamp" in columns else None
    rows: list[list] = []
    for i, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            raise SchemaError(f"expected {len(columns)} fields, got {len(parts)}", path, i)
        row = [f(text, name, path, i) for f, text, name in zip(parse, parts, columns)]
        if t_col is not None and rows and row[t_col] <= rows[-1][t_col]:
            raise SchemaError(
                f"timestamp {parts[t_col]} does not follow {rows[-1][t_col]:.9f}", path, i
            )
        rows.append(row)
    return rows


# --- GNSS, IMU and trajectory states ------------------------------------------

GNSS_COLUMNS = ("timestamp", "x", "y", "quality")
IMU_COLUMNS = ("timestamp", "yaw_rate", "accel_forward", "yaw")
TRAJ_COLUMNS = ("timestamp", "x", "y", "yaw", "speed", "yaw_rate")


def write_gnss_csv(path, samples: Iterable[GnssSample]) -> None:
    write_table(
        path, GNSS_TAG, GNSS_COLUMNS, ((s.timestamp, s.x, s.y, s.quality.value) for s in samples)
    )


def read_gnss_csv(path) -> list[GnssSample]:
    rows = read_table(path, GNSS_TAG, GNSS_COLUMNS, {"quality": _parse_quality})
    return [GnssSample(*row) for row in rows]


def write_imu_csv(path, samples: Iterable[ImuSample]) -> None:
    write_table(
        path,
        IMU_TAG,
        IMU_COLUMNS,
        ((s.timestamp, s.yaw_rate, s.accel_forward, s.yaw) for s in samples),
    )


def read_imu_csv(path) -> list[ImuSample]:
    rows = read_table(path, IMU_TAG, IMU_COLUMNS, {"yaw": _parse_optional_float})
    return [ImuSample(*row) for row in rows]


def write_traj_csv(path, states: Iterable[TrajectoryState]) -> None:
    write_table(
        path,
        TRAJ_TAG,
        TRAJ_COLUMNS,
        ((s.timestamp, s.pose.x, s.pose.y, s.pose.yaw, s.speed, s.yaw_rate) for s in states),
    )


def read_traj_csv(path) -> list[TrajectoryState]:
    return [
        TrajectoryState(timestamp=t, pose=Pose(x, y, yaw, frame=GLOBAL), speed=v, yaw_rate=w)
        for t, x, y, yaw, v, w in read_table(path, TRAJ_TAG, TRAJ_COLUMNS)
    ]


# --- Radar scans ----------------------------------------------------------

POLAR_KEYS = ("range", "azimuth", "vr", "amp")  # JSON point keys, in Detections column order


def _point_index(value) -> int:
    # bool is an int subclass, and a float or string index would be silently truncated.
    if type(value) is not int:
        raise ValueError(f"point idx must be an integer, got {value!r}")
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


def _finite_numbers(values, name: str) -> np.ndarray:
    """`values` as a float array by the rule of `finite_number`, types checked once."""
    values = list(values)
    if set(map(type, values)) <= {int, float}:
        try:
            out = np.array(values, dtype=float)
        except OverflowError:  # an integer literal beyond the float range
            out = np.full(len(values), math.inf)
        if np.isfinite(out).all():
            return out
    for value in values:
        finite_number(value, name)  # raises on the first bad value


def _points(points: list, keys: Sequence[str]) -> tuple[np.ndarray, list[tuple]]:
    """(4, n) polar values of a record's JSON points, and a tuple per one of `keys`."""
    if type(points) is not list:
        raise ValueError(f"points must be a list, got {points!r}")
    rows = list(map(operator.itemgetter(*POLAR_KEYS, *keys), points))
    columns = list(zip(*rows)) if rows else [()] * (4 + len(keys))
    polar = _finite_numbers(chain(*columns[:4]), "point value").reshape(4, -1)
    if np.count_nonzero(polar[0] < 0):
        raise ValueError(f"range must be >= 0, got {polar[0].min()}")
    return polar, columns[4:]


def _pairs(column: tuple, key: str) -> np.ndarray:
    """(n, 2) coordinates of a column of JSON [x, y] pairs."""
    if not (set(map(type, column)) <= {list} and set(map(len, column)) <= {2}):
        bad = next(p for p in column if not (type(p) is list and len(p) == 2))
        raise ValueError(f"point {key!r} must be an [x, y] pair, got {bad!r}")
    return _finite_numbers(chain.from_iterable(column), "point value").reshape(-1, 2)


def _join(chunks, empty: np.ndarray, axis: int = 0) -> np.ndarray:
    return np.concatenate(chunks, axis=axis) if chunks else empty


def _polar_table(d: Detections, *pairs: np.ndarray) -> np.ndarray:
    """The polar columns, then the given (n, 2) columns, as one (n, k) table to slice."""
    return np.column_stack([d.range_m, d.azimuth, d.radial_velocity, d.amplitude, *pairs])


def write_radar_jsonl(path, scans: ScanTable) -> None:
    values, offsets = _polar_table(scans.detections), scans.offsets.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": RADAR_TAG}) + "\n")
        for k, (t, sensor_id) in enumerate(zip(scans.timestamp.tolist(), scans.sensor_id.tolist())):
            rows = values[offsets[k]:offsets[k + 1]].tolist()
            rec = {"t": round(t, 9), "sensor_id": sensor_id,
                   "points": [dict(zip(POLAR_KEYS, row)) for row in rows]}
            fh.write(json.dumps(rec) + "\n")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


# Python's json module reads NaN and +-Infinity, which JSON does not have.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _decode_json(text: str, what: str, path, line: int):
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError:
        raise SchemaError(f"{what} is not valid JSON", path, line) from None
    except ValueError as exc:
        raise SchemaError(f"{what} holds a {exc}", path, line) from None


def _load_jsonl(path, tag: str) -> Iterator[tuple[int, object]]:
    """Check the header line, then decode and yield one (line number, record) at a time."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise SchemaError("empty file", path, 1)
        _check_jsonl_header(_decode_json(header, "header line", path, 1), tag, path)
        for i, line in enumerate(fh, start=2):
            if line != "\n":
                yield i, _decode_json(line, "record", path, i)


def _check_scan_order(last_t: dict[str, float], sensor_id: str, t: float, path, line: int) -> None:
    """Each sensor's scans must be strictly later than its previous one."""
    prev = last_t.get(sensor_id, -math.inf)
    if t <= prev:
        raise SchemaError(f"scan t={t:.9f} of sensor {sensor_id!r} does not follow t={prev:.9f}",
                          path, line)
    last_t[sensor_id] = t


def _read_scans(path, tag: str, what: str, parse) -> list:
    """Per-scan columns of a JSONL scan file: line, time, sensor id, then the values
    `parse(record)` returns.  Each sensor's scans must follow one another in time."""
    rows, last_t = [], {}
    for i, rec in _load_jsonl(path, tag):
        try:
            row = (i, finite_number(rec["t"], "t"), str(rec["sensor_id"]), *parse(rec))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # idx beyond int64
            raise SchemaError(f"bad {what} record: {exc}", path, i) from None
        _check_scan_order(last_t, row[2], row[1], path, i)
        rows.append(row)
    return [list(column) for column in zip(*rows)] if rows else None


def read_radar_jsonl(path) -> ScanTable:
    columns = _read_scans(path, RADAR_TAG, "radar", lambda rec: _points(rec["points"], ())[:1])
    _, times, sensors, polar = columns or ([], [], [], [])
    offsets = scan_offsets([p.shape[1] for p in polar])
    detections = Detections(*_join(polar, np.empty((4, 0)), 1), index=rank_in_scan(offsets))
    return ScanTable(times, sensors, offsets, detections)


# --- Truth labels -----------------------------------------------------------

def write_truth_labels_jsonl(path, labels: Iterable[tuple[float, int, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": TRUTH_LABELS_TAG}) + "\n")
        for t, idx, label in labels:
            fh.write(json.dumps({"t": round(t, 9), "idx": idx, "label": label}) + "\n")


def read_truth_labels_jsonl(path) -> dict[tuple[float, int], str]:
    out: dict[tuple[float, int], str] = {}
    for i, rec in _load_jsonl(path, TRUTH_LABELS_TAG):
        try:
            t = finite_number(rec["t"], "t")
            key, label = (round(t, 9), _point_index(rec["idx"])), str(rec["label"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad label record: {exc}", path, i) from None
        if key in out:
            raise SchemaError(f"repeated label for t={key[0]:.9f} point {key[1]}", path, i)
        out[key] = label
    return out


# --- Labeled scans -----------------------------------------------------------

STATE_KEYS = ("x", "y", "yaw", "speed", "yaw_rate")
BOUNDING_KEYS = ("cx", "cy", "ax_major", "ax_minor", "orientation")


def write_labeled_jsonl(path, scans: LabeledTable) -> None:
    d = scans.detections
    values, index = _polar_table(d, d.ego, d.global_xy), d.index

    def points(lo: int, hi: int) -> list[dict]:
        return [{"idx": i, "range": r, "azimuth": a, "vr": v, "amp": p, "ego": [ex, ey],
                 "global": [gx, gy]}
                for i, (r, a, v, p, ex, ey, gx, gy) in zip(index[lo:hi].tolist(),
                                                            values[lo:hi].tolist())]

    offsets, mids = scans.offsets.tolist(), (scans.offsets[:-1] + scans.n_assigned).tolist()
    scan_values = zip(scans.timestamp.tolist(), scans.sensor_id.tolist(),
                      scans.vru_state.tolist(), scans.bounding.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": LABELED_TAG}) + "\n")
        for k, (t, sensor_id, state, bounding) in enumerate(scan_values):
            rec = {
                "t": round(t, 9),
                "track_id": scans.track_id,
                "vru_kind": scans.vru_kind.value,
                "sensor_id": sensor_id,
                "assigned": points(offsets[k], mids[k]),
                "rejected": points(mids[k], offsets[k + 1]),
                "bounding": None if math.isnan(bounding[0]) else dict(zip(BOUNDING_KEYS, bounding)),
                "vru_state": dict(zip(STATE_KEYS, state)),
            }
            fh.write(json.dumps(rec) + "\n")


def _labeled_record(rec: dict) -> tuple:
    state = [finite_number(rec["vru_state"][k], k) for k in STATE_KEYS]
    if state[3] < 0:
        raise ValueError(f"speed must be >= 0, got {state[3]}")
    bounding = [math.nan] * 5
    if rec.get("bounding") is not None:
        bounding = [finite_number(rec["bounding"][k], k) for k in BOUNDING_KEYS]
        if min(bounding[2:4]) <= 0:
            raise ValueError("ellipse axes must be > 0")
    polar, (idx, ego, glob) = _points(rec["assigned"] + rec["rejected"], ("idx", "ego", "global"))
    if not set(map(type, idx)) <= {int}:
        _point_index(next(v for v in idx if type(v) is not int))
    if len(set(idx)) < len(idx):
        raise ValueError(f"point idx {next(v for v in idx if idx.count(v) > 1)} appears more "
                         "than once")
    return ((str(rec["track_id"]), VruKind(rec["vru_kind"])), len(rec["assigned"]), state,
            bounding, polar, np.array(idx, dtype=np.int64), _pairs(ego, "ego"),
            _pairs(glob, "global"))


def read_labeled_jsonl(path) -> LabeledTable:
    """The labeled scans of one track; every record must name the same track and kind."""
    columns = _read_scans(path, LABELED_TAG, "labeled", _labeled_record)
    lines, times, sensors, tracks, n_assigned, states, boundings, polar, index, ego, glob = (
        columns or [[]] * 11)
    for line, track in zip(lines, tracks):
        if track != tracks[0]:
            raise SchemaError(f"track {track[0]!r} ({track[1].value}) differs from the first "
                              f"record's {tracks[0][0]!r} ({tracks[0][1].value})", path, line)
    track_id, vru_kind = tracks[0] if tracks else ("", VruKind.PEDESTRIAN)
    pairs = np.empty((0, 2))
    return LabeledTable(
        timestamp=times,
        sensor_id=sensors,
        offsets=scan_offsets([p.shape[1] for p in polar]),
        detections=Detections(*_join(polar, np.empty((4, 0)), 1),
                              index=_join(index, np.empty(0, dtype=np.int64)),
                              ego=_join(ego, pairs), global_xy=_join(glob, pairs)),
        n_assigned=np.array(n_assigned, dtype=np.int64),
        vru_state=np.array(states, dtype=float).reshape(-1, 5),
        bounding=np.array(boundings, dtype=float).reshape(-1, 5),
        track_id=track_id,
        vru_kind=vru_kind,
    )


# --- Scenario manifest --------------------------------------------------------

def write_scenario_json(
    path,
    *,
    vru_kind: VruKind,
    track_id: str,
    seed: int,
    ego_pose: Pose,
    mounts: Iterable[SensorMount],
    counts: dict[str, int],
) -> None:
    rec = {
        "format": SCENARIO_TAG,
        "vru_kind": vru_kind.value,
        "track_id": track_id,
        "seed": seed,
        "ego_pose": {"x": ego_pose.x, "y": ego_pose.y, "yaw": ego_pose.yaw},
        "mounts": [
            {
                "sensor_id": m.sensor_id,
                "x": m.pose_in_ego.x,
                "y": m.pose_in_ego.y,
                "yaw": m.pose_in_ego.yaw,
                "fov_azimuth": m.fov_azimuth,
                "max_range": m.max_range,
            }
            for m in mounts
        ],
        "counts": counts,
    }
    Path(path).write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_scenario_json(path) -> dict:
    rec = _decode_json(Path(path).read_text(encoding="utf-8"), "scenario manifest", path, 1)
    _check_jsonl_header(rec, SCENARIO_TAG, path)
    try:
        rec["vru_kind"] = VruKind(rec["vru_kind"])
        ep = rec["ego_pose"]
        rec["ego_pose"] = Pose(*(finite_number(ep[k], k) for k in ("x", "y", "yaw")), frame=GLOBAL)
        rec["mounts"] = [
            SensorMount(
                sensor_id=str(m["sensor_id"]),
                pose_in_ego=Pose(*(finite_number(m[k], k) for k in ("x", "y", "yaw")), frame="ego"),
                fov_azimuth=finite_number(m["fov_azimuth"], "fov_azimuth"),
                max_range=finite_number(m["max_range"], "max_range"),
            )
            for m in rec["mounts"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad scenario manifest: {exc}", path, 1) from None
    return rec
