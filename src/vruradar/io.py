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
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .annotation import LabeledScan
from .core import (
    GLOBAL,
    Detections,
    Pose,
    RadarScan,
    SensorMount,
    VruKind,
)
from .selection import OrientedEllipse
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

# JSON point keys and the Detections columns they hold.
POLAR_KEYS = {"range": "range_m", "azimuth": "azimuth", "vr": "radial_velocity",
              "amp": "amplitude"}
LABELED_KEYS = {"idx": "index", **POLAR_KEYS, "ego": "ego", "global": "global_xy"}


def _point_dicts(d: Detections, keys: Mapping[str, str]) -> list[dict]:
    columns = [getattr(d, name).tolist() for name in keys.values()]
    return [dict(zip(keys, row)) for row in zip(*columns)]


_polar_row = operator.itemgetter(*POLAR_KEYS)


def _labeled_row(p: dict) -> tuple:
    for key in ("ego", "global"):
        if not (isinstance(p[key], list) and len(p[key]) == 2):
            raise ValueError(f"point {key!r} must be an [x, y] pair, got {p[key]!r}")
    return (p["idx"], *_polar_row(p), *p["ego"], *p["global"])


def _point_table(points: list, row: Callable[[dict], tuple], width: int) -> np.ndarray:
    """`row(p)` of every JSON point as one table of finite floats, `width` columns wide."""
    table = np.array([row(p) for p in points], dtype=float) if points else np.empty((0, width))
    if table.shape[1:] != (width,) or not np.isfinite(table).all():
        raise ValueError("a point value is not a finite number")
    return table


def write_radar_jsonl(path, scans: Iterable[RadarScan]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": RADAR_TAG}) + "\n")
        for scan in scans:
            rec = {
                "t": round(scan.timestamp, 9),
                "sensor_id": scan.sensor_id,
                "points": _point_dicts(scan.detections, POLAR_KEYS),
            }
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


def _load_jsonl(path, tag: str) -> list[tuple[int, dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError("empty file", path, 1)
    _check_jsonl_header(_decode_json(lines[0], "header line", path, 1), tag, path)
    return [
        (i, _decode_json(line, "record", path, i))
        for i, line in enumerate(lines[1:], start=2)
        if line
    ]


def read_radar_jsonl(path) -> list[RadarScan]:
    scans = []
    for i, rec in _load_jsonl(path, RADAR_TAG):
        try:
            scans.append(RadarScan(
                timestamp=float(rec["t"]),
                sensor_id=str(rec["sensor_id"]),
                detections=Detections(*_point_table(rec["points"], _polar_row, 4).T),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad radar record: {exc}", path, i) from None
    return scans


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
            key, label = (round(float(rec["t"]), 9), int(rec["idx"])), str(rec["label"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad label record: {exc}", path, i) from None
        if key in out:
            raise SchemaError(f"repeated label for t={key[0]:.9f} point {key[1]}", path, i)
        out[key] = label
    return out


# --- Labeled scans -----------------------------------------------------------

def _labeled_detections(table: np.ndarray) -> Detections:
    return Detections(*table[:, 1:5].T, index=table[:, 0], ego=table[:, 5:7],
                      global_xy=table[:, 7:9])


def write_labeled_jsonl(path, scans: Iterable[LabeledScan]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": LABELED_TAG}) + "\n")
        for s in scans:
            bounding = None
            if s.bounding is not None:
                bounding = {
                    "cx": s.bounding.center[0],
                    "cy": s.bounding.center[1],
                    "ax_major": s.bounding.ax_major,
                    "ax_minor": s.bounding.ax_minor,
                    "orientation": s.bounding.orientation,
                }
            rec = {
                "t": round(s.timestamp, 9),
                "track_id": s.track_id,
                "vru_kind": s.vru_kind.value,
                "sensor_id": s.sensor_id,
                "assigned": _point_dicts(s.assigned, LABELED_KEYS),
                "rejected": _point_dicts(s.rejected, LABELED_KEYS),
                "bounding": bounding,
                "vru_state": {
                    "x": s.vru_state.pose.x,
                    "y": s.vru_state.pose.y,
                    "yaw": s.vru_state.pose.yaw,
                    "speed": s.vru_state.speed,
                    "yaw_rate": s.vru_state.yaw_rate,
                },
            }
            fh.write(json.dumps(rec) + "\n")


def read_labeled_jsonl(path) -> list[LabeledScan]:
    scans = []
    for i, rec in _load_jsonl(path, LABELED_TAG):
        try:
            t = float(rec["t"])
            state = TrajectoryState(
                timestamp=t,
                pose=Pose(
                    float(rec["vru_state"]["x"]),
                    float(rec["vru_state"]["y"]),
                    float(rec["vru_state"]["yaw"]),
                    frame=GLOBAL,
                ),
                speed=float(rec["vru_state"]["speed"]),
                yaw_rate=float(rec["vru_state"]["yaw_rate"]),
            )
            bounding = None
            if rec.get("bounding") is not None:
                b = rec["bounding"]
                bounding = OrientedEllipse(
                    center=(float(b["cx"]), float(b["cy"])),
                    ax_major=float(b["ax_major"]),
                    ax_minor=float(b["ax_minor"]),
                    orientation=float(b["orientation"]),
                )
            n_assigned = len(rec["assigned"])
            table = _point_table(rec["assigned"] + rec["rejected"], _labeled_row, 9)
            idx = table[:, 0].tolist()
            if len(set(idx)) < len(idx):
                repeated = next(v for v in idx if idx.count(v) > 1)
                raise ValueError(f"point idx {repeated:g} appears more than once")
            assigned = _labeled_detections(table[:n_assigned])
            rejected = _labeled_detections(table[n_assigned:])
            scans.append(
                LabeledScan(
                    timestamp=t,
                    track_id=str(rec["track_id"]),
                    vru_kind=VruKind(rec["vru_kind"]),
                    sensor_id=str(rec["sensor_id"]),
                    assigned=assigned,
                    rejected=rejected,
                    bounding=bounding,
                    vru_state=state,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad labeled record: {exc}", path, i) from None
    return scans


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
        rec["ego_pose"] = Pose(float(ep["x"]), float(ep["y"]), float(ep["yaw"]), frame=GLOBAL)
        rec["mounts"] = [
            SensorMount(
                sensor_id=str(m["sensor_id"]),
                pose_in_ego=Pose(float(m["x"]), float(m["y"]), float(m["yaw"]), frame="ego"),
                fov_azimuth=float(m["fov_azimuth"]),
                max_range=float(m["max_range"]),
            )
            for m in rec["mounts"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad scenario manifest: {exc}", path, 1) from None
    return rec
