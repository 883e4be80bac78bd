"""Per-scan and per-record reference implementations, kept as test oracles.

Annotation, cycle statistics and scoring: the scan-by-scan loops that the
whole-run code in `annotation` and `evaluation` replaced.  Truth labels are a
dict keyed by (scan `t` to the nanosecond, point idx), as `evaluate` held them
before it joined label columns.  They use only scalar geometry
(one pose and one shape per scan), and write every frame change out point by
point with `math.cos` and `math.sin` rather than call the library's.  Two
rules differ from the loops they came from: a confidence ellipse whose
covariance has an eigenvalue ratio at most `COLLINEAR_RATIO` is degenerate,
not only one with a non-positive eigenvalue, and the covariance's eigenvalues
come from its exact value in integers, not from `numpy.linalg.eigvalsh`, which
loses digits of the small one on a thin set of points.

File readers: the record-by-record and field-by-field readers that the block
codecs in `io` replaced.  Three rules differ from the readers they came from:
ids and labels must be JSON strings that UTF-8 can encode (a truth label `vru`
or `clutter`), a point idx outside int64 is named as such, and a labeled record
naming another track is a fault at its own line, so that every fault is named
at the first faulty line in file order.

File writers: the field-by-field records the JSONL writers encode, and the
CSV writer's field-by-field formatting.
"""

import json
import math
import operator
from itertools import chain

import numpy as np
import orjson

from vruradar.annotation import LabeledScan, LabeledTable
from vruradar.core import (LABEL_CLUTTER, LABEL_VRU, Detections, ScanTable, VruKind, rank_in_scan,
                           scan_offsets, wrap_angle)
from vruradar.evaluation import COLLINEAR_RATIO, WEIGHTED_COUNT_REF_RANGE, r4_compensate
from vruradar.selection import (
    CYCLIST_LENGTH,
    CYCLIST_MIN_WIDTH,
    GROWTH_CAP,
    MIN_BOUNDING_AXIS,
    PEDESTRIAN_MIN_MAJOR,
    PEDESTRIAN_MIN_MINOR,
    PEDESTRIAN_STANDSTILL_AXIS,
    SPEED_TO_LENGTH,
    YAW_RATE_TO_WIDTH,
    OrientedEllipse,
)
from vruradar.io import (BOUNDING_KEYS, LABELED_TAG, POLAR_KEYS, RADAR_TAG, STATE_KEYS,
                         TRUTH_LABELS_TAG, SchemaError, _check_header, _check_jsonl_header,
                         _decode_json, finite_number, json_string)
from vruradar.jsonl_decoder import _point_index
from vruradar.trajectory import STANDSTILL_SPEED, GnssQuality


def state_at(traj, t: float) -> np.ndarray:
    """The trajectory state (x, y, yaw, speed, yaw rate) at one time, evaluated as a scalar
    query."""
    pos, (vx, vy), (ax, ay) = traj._spline(t)
    speed = float(math.hypot(vx, vy))
    if speed >= STANDSTILL_SPEED:
        yaw = math.atan2(vy, vx)
    elif traj._held_chord is None:
        yaw = 0.0
    else:
        knot = int(np.searchsorted(traj._times, t, side="right") - 1)
        dx, dy = traj._chords[traj._held_chord[knot]]
        yaw = math.atan2(dy, dx)
    if traj._imu_t is not None:
        yaw_rate = float(np.interp(t, traj._imu_t, traj._imu_w))
    else:
        yaw_rate = float((vx * ay - vy * ax) / (speed * speed)) if speed > 1e-9 else 0.0
    return np.array([pos[0], pos[1], wrap_angle(yaw), speed, yaw_rate])


def _shape_frame(points, x, y, yaw):
    """(u, v) of each global point in the frame at (x, y) with heading `yaw`."""
    c, s = math.cos(yaw), math.sin(yaw)
    local = [(c * (px - x) + s * (py - y), c * (py - y) - s * (px - x))
             for px, py in points.tolist()]
    u, v = np.array(local, dtype=float).reshape(-1, 2).T
    return u, v


def _place(r: float, az: float, mount_pose, ego_pose) -> tuple[tuple, tuple]:
    """The ego and global positions of a detection at range `r` and azimuth `az`: sensor polar
    -> ego through the mount pose -> global through the ego pose."""
    u, v = r * math.cos(az), r * math.sin(az)
    c, s = math.cos(mount_pose.yaw), math.sin(mount_pose.yaw)
    ex, ey = mount_pose.x + (c * u - s * v), mount_pose.y + (s * u + c * v)
    c, s = math.cos(ego_pose.yaw), math.sin(ego_pose.yaw)
    return (ex, ey), (ego_pose.x + (c * ex - s * ey), ego_pose.y + (s * ex + c * ey))


def _inside(p_glob, state: np.ndarray, vru_kind: VruKind) -> np.ndarray:
    x, y, yaw, speed, yaw_rate = state.tolist()
    u, v = _shape_frame(p_glob, x, y, yaw)
    if vru_kind == VruKind.PEDESTRIAN:
        if speed >= STANDSTILL_SPEED:
            major = PEDESTRIAN_MIN_MAJOR + min(abs(speed) * SPEED_TO_LENGTH, GROWTH_CAP)
            minor = PEDESTRIAN_MIN_MINOR + min(abs(yaw_rate) * YAW_RATE_TO_WIDTH, GROWTH_CAP)
        else:
            major = minor = PEDESTRIAN_STANDSTILL_AXIS
        return (u / (major / 2.0)) ** 2 + (v / (minor / 2.0)) ** 2 <= 1.0
    width = CYCLIST_MIN_WIDTH + min(abs(yaw_rate) * YAW_RATE_TO_WIDTH, GROWTH_CAP)
    return (np.abs(u) <= CYCLIST_LENGTH / 2.0) & (np.abs(v) <= width / 2.0)


def _bounding(points, state: np.ndarray) -> OrientedEllipse:
    x, y, yaw = state[:3].tolist()
    u, v = _shape_frame(points, x, y, yaw)
    half_floor = MIN_BOUNDING_AXIS / 2.0
    a = max(float(np.max(np.abs(u))), half_floor)
    b = max(float(np.max(np.abs(v))), half_floor)
    scale = max(1.0, float(np.sqrt(np.max((u / a) ** 2 + (v / b) ** 2))))
    return OrientedEllipse((x, y), 2.0 * a * scale, 2.0 * b * scale, yaw)


def annotate(scans, traj, vru_kind, mounts, ego_pose, track_id="vru-0"):
    """(labeled scans, skipped count) of RadarScans, scan by scan in (time, sensor) order."""
    mounts = {m.sensor_id: m for m in mounts}
    labeled, skipped = [], 0
    for scan in sorted(scans, key=lambda s: (s.timestamp, s.sensor_id)):
        if not traj.t_start <= scan.timestamp <= traj.t_end:
            skipped += 1
            continue
        state = state_at(traj, scan.timestamp)
        d = scan.detections
        mount_pose = mounts[scan.sensor_id].pose_in_ego
        positions = [_place(r, az, mount_pose, ego_pose)
                     for r, az in zip(d.range_m.tolist(), d.azimuth.tolist())]
        p_ego, p_glob = (np.array([p[i] for p in positions], dtype=float).reshape(-1, 2)
                         for i in (0, 1))
        inside = _inside(p_glob, state, vru_kind)
        placed = type(d)(d.range_m, d.azimuth, d.radial_velocity, d.amplitude, d.index,
                         p_ego, p_glob)
        assigned, rejected = placed[inside], placed[~inside]
        bounding = _bounding(assigned.global_xy, state) if len(assigned) else None
        labeled.append(LabeledScan(scan.timestamp, track_id, vru_kind, scan.sensor_id,
                                   assigned, rejected, bounding, state))
    return labeled, skipped


def covariance_eigenvalues(points) -> tuple[float, float]:
    """(small, big) eigenvalues of the sample covariance of (n, 2) points, each to a few
    units in the last place.

    The covariance is exact: each coordinate is an integer count of the finest power of two
    among them, so that n (n - 1) d^2 times the covariance, its trace `tr` and determinant
    `det` are exact integers.  The small eigenvalue is 2 det / (tr + sqrt(tr^2 - 4 det)), a
    form without cancellation, and each integer quotient is rounded once.
    """
    ratios = [v.as_integer_ratio() for v in np.asarray(points, dtype=float).ravel().tolist()]
    d = max(den for _, den in ratios)
    xs, ys = ([num * (d // den) for num, den in ratios[axis::2]] for axis in (0, 1))
    n, sx, sy = len(xs), sum(xs), sum(ys)
    cxx, cyy = n * sum(x * x for x in xs) - sx * sx, n * sum(y * y for y in ys) - sy * sy
    cxy = n * sum(map(operator.mul, xs, ys)) - sx * sy
    tr, det, scale = cxx + cyy, cxx * cyy - cxy * cxy, n * (n - 1) * d * d
    if not tr:  # every point the same
        return 0.0, 0.0
    root = math.sqrt((tr * tr - 4 * det) / (scale * scale))
    return 2 * det / (scale * scale) / (tr / scale + root), (tr / scale + root) / 2.0


def cycle_stats(scan: LabeledScan) -> dict:
    """Statistics of one scan's assigned detections; None for an undefined ellipse."""
    d = scan.assigned
    n = len(d)
    conf_major = conf_minor = None
    if n >= 3:
        small, big = covariance_eigenvalues(d.global_xy)
        if small > COLLINEAR_RATIO * big:
            q = -2.0 * math.log1p(-0.95)
            conf_major = 2.0 * math.sqrt(big * q)
            conf_minor = 2.0 * math.sqrt(small * q)
    mean_range = float(np.mean(d.range_m))
    return {
        "timestamp": scan.timestamp,
        "n_assigned": n,
        "mean_comp_power": float(np.mean(r4_compensate(d.amplitude, d.range_m))),
        "doppler_std": float(np.std(d.radial_velocity, ddof=1)) if n > 1 else 0.0,
        "conf_major": conf_major,
        "conf_minor": conf_minor,
        "weighted_count": n * (mean_range / WEIGHTED_COUNT_REF_RANGE) ** 2,
    }


def truth_labels(c: dict) -> dict[tuple[float, int], str]:
    """The truth labels of a truth-label file's columns, inserted row by row; a ValueError
    names the first row whose key an earlier row holds, as (message, row)."""
    times, out = [round(t, 9) for t in c["timestamp"].tolist()], {}
    offsets, index, is_vru = c["offsets"].tolist(), c["index"].tolist(), c["is_vru"].tolist()
    for k, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
        for row in range(lo, hi):
            key = times[k], index[row]
            if key in out:
                raise ValueError(f"repeated label for t={key[0]:.9f} point {key[1]}", row)
            out[key] = LABEL_VRU if is_vru[row] else LABEL_CLUTTER
    return out


def truth_dict(labels) -> dict[tuple[float, int], str]:
    """A `core.TruthLabels` table as a dict keyed by (t, idx)."""
    times = np.repeat(labels.timestamp, np.diff(labels.offsets)).tolist()
    return {(t, idx): LABEL_VRU if vru else LABEL_CLUTTER
            for t, idx, vru in zip(times, labels.index.tolist(), labels.is_vru.tolist())}


def per_scan_counts(auto: LabeledTable, truth: dict) -> list[tuple[int, int, int]]:
    """Per-scan (TP, FP, FN), looking up each point's label in a dict of truth labels; a
    ValueError names the first point without one."""
    out = []
    for scan in auto:
        t, vru = round(scan.timestamp, 9), []
        for idx in [*scan.assigned.index.tolist(), *scan.rejected.index.tolist()]:
            if (t, idx) not in truth:
                raise ValueError(f"no truth label for scan t={t} point {idx}")
            vru.append(truth[t, idx] == LABEL_VRU)
        tp = sum(vru[:len(scan.assigned)])
        out.append((tp, len(scan.assigned) - tp, sum(vru[len(scan.assigned):])))
    return out


# --- File readers ---------------------------------------------------------------

def _parse_float(text: str, name: str, path, line: int) -> float:
    try:
        v = float(text)
    except ValueError:
        raise SchemaError(f"field {name!r} is not a number: {text!r}", path, line) from None
    if not math.isfinite(v):
        raise SchemaError(f"field {name!r} is not finite: {text!r}", path, line)
    return v


def parse_optional_float(text: str, name: str, path, line: int) -> float | None:
    return None if text == "" else _parse_float(text, name, path, line)


def parse_quality(text: str, name: str, path, line: int) -> GnssQuality:
    try:
        return GnssQuality(text)
    except ValueError:
        raise SchemaError(f"unknown {name} {text!r}", path, line) from None


def read_table(path, tag: str, columns, parsers=None) -> list[list]:
    """Rows of a versioned CSV table, parsed field by field: `parsers[column]` is called as
    (text, column, path, line), the default parses a finite float."""
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


def _load_jsonl(path, tag: str):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise SchemaError("empty file", path, 1)
        _check_jsonl_header(_decode_json(header, "header line", path, 1), tag, path)
        for i, line in enumerate(fh, start=2):
            if line != "\n":
                yield i, _decode_json(line, "record", path, i)


def _finite_numbers(values, name: str) -> np.ndarray:
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


def _points(points: list, keys) -> tuple[np.ndarray, list[tuple]]:
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


def _read_scans(path, tag: str, what: str, parse) -> list:
    """Per-scan columns of a JSONL scan file: line, time, sensor id, then the values
    `parse(record)` returns.  Each sensor's scans must follow one another in time."""
    rows, last_t = [], {}
    for i, rec in _load_jsonl(path, tag):
        try:
            row = (i, finite_number(rec["t"], "t"), json_string(rec["sensor_id"], "sensor_id"),
                   *parse(rec))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad {what} record: {exc}", path, i) from None
        t, sensor_id = row[1], row[2]
        prev = last_t.get(sensor_id, -math.inf)
        if t <= prev:
            raise SchemaError(f"scan t={t:.9f} of sensor {sensor_id!r} does not follow "
                              f"t={prev:.9f}", path, i)
        last_t[sensor_id] = t
        rows.append(row)
    return [list(column) for column in zip(*rows)] if rows else None


def read_radar_jsonl(path) -> ScanTable:
    columns = _read_scans(path, RADAR_TAG, "radar", lambda rec: _points(rec["points"], ())[:1])
    _, times, sensors, polar = columns or ([], [], [], [])
    offsets = scan_offsets([p.shape[1] for p in polar])
    detections = Detections(*_join(polar, np.empty((4, 0)), 1), index=rank_in_scan(offsets))
    return ScanTable(times, sensors, offsets, detections)


def read_truth_labels_jsonl(path) -> dict[tuple[float, int], str]:
    out: dict[tuple[float, int], str] = {}
    for i, rec in _load_jsonl(path, TRUTH_LABELS_TAG):
        try:
            t = finite_number(rec["t"], "t")
            key, label = (round(t, 9), _point_index(rec["idx"])), rec["label"]
            if label not in (LABEL_VRU, LABEL_CLUTTER):
                raise ValueError(f"label must be {LABEL_VRU!r} or {LABEL_CLUTTER!r}, got {label!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad label record: {exc}", path, i) from None
        if key in out:
            raise SchemaError(f"repeated label for t={key[0]:.9f} point {key[1]}", path, i)
        out[key] = label
    return out


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
    bad = [v for v in idx if type(v) is not int or not -2**63 <= v < 2**63]
    if bad:
        _point_index(bad[0])
    if len(set(idx)) < len(idx):
        raise ValueError(f"point idx {next(v for v in idx if idx.count(v) > 1)} appears more "
                         "than once")
    return ((json_string(rec["track_id"], "track_id"), VruKind(rec["vru_kind"])),
            len(rec["assigned"]), state, bounding, polar, np.array(idx, dtype=np.int64),
            _pairs(ego, "ego"), _pairs(glob, "global"))


def read_labeled_jsonl(path) -> LabeledTable:
    """The labeled scans of one track; a record naming another track or kind than the
    first record is a fault at its line."""
    first = []

    def parse(rec):
        row = _labeled_record(rec)
        first[:] = first or [row[0]]
        if row[0] != first[0]:
            raise ValueError(f"track {row[0][0]!r} ({row[0][1].value}) differs from the first "
                             f"record's {first[0][0]!r} ({first[0][1].value})")
        return row

    columns = _read_scans(path, LABELED_TAG, "labeled", parse)
    _, times, sensors, tracks, n_assigned, states, boundings, polar, index, ego, glob = (
        columns or [[]] * 11)
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


# --- File writers ---------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (str, int, np.integer)):
        return str(v)
    return repr(float(v))


def write_table(path, tag: str, columns, rows) -> None:
    """A versioned CSV table, formatted field by field."""
    fmts = [(lambda t: f"{t:.9f}") if name == "timestamp" else _fmt for name in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# format={tag}\n{','.join(columns)}\n")
        for row in rows:
            fh.write(",".join([f(v) for f, v in zip(fmts, row, strict=True)]) + "\n")


def _polar_rows(d, *pairs) -> list[list[float]]:
    return np.column_stack([d.range_m, d.azimuth, d.radial_velocity, d.amplitude,
                            *pairs]).tolist()


def radar_records(scans: ScanTable) -> list[dict]:
    """The records of a radar file, one dict per scan."""
    values, offsets = _polar_rows(scans.detections), scans.offsets.tolist()
    return [{"t": round(t, 9), "sensor_id": sensor_id,
             "points": [dict(zip(POLAR_KEYS, row)) for row in values[offsets[k]:offsets[k + 1]]]}
            for k, (t, sensor_id) in enumerate(zip(scans.timestamp.tolist(),
                                                   scans.sensor_id.tolist()))]


def truth_label_records(scans: ScanTable, is_vru) -> list[dict]:
    """The records of a truth label file, one dict per point of `scans`."""
    times = scans.timestamp[scans.scan_of_row].tolist()
    return [{"t": round(t, 9), "idx": idx, "label": LABEL_VRU if vru else LABEL_CLUTTER}
            for t, idx, vru in zip(times, scans.detections.index.tolist(), list(is_vru))]


def labeled_records(scans: LabeledTable) -> list[dict]:
    """The records of a labeled file, one dict per scan."""
    d = scans.detections
    values, index = _polar_rows(d, d.ego, d.global_xy), d.index.tolist()

    def points(lo: int, hi: int) -> list[dict]:
        return [{"idx": i, "range": r, "azimuth": a, "vr": v, "amp": p, "ego": [ex, ey],
                 "global": [gx, gy]}
                for i, (r, a, v, p, ex, ey, gx, gy) in zip(index[lo:hi], values[lo:hi])]

    offsets, mids = scans.offsets.tolist(), (scans.offsets[:-1] + scans.n_assigned).tolist()
    scan_values = zip(scans.timestamp.tolist(), scans.sensor_id.tolist(),
                      scans.vru_state.tolist(), scans.bounding.tolist())
    return [{"t": round(t, 9), "track_id": scans.track_id, "vru_kind": scans.vru_kind.value,
             "sensor_id": sensor_id, "assigned": points(offsets[k], mids[k]),
             "rejected": points(mids[k], offsets[k + 1]),
             "bounding": None if math.isnan(bounding[0]) else dict(zip(BOUNDING_KEYS, bounding)),
             "vru_state": dict(zip(STATE_KEYS, state))}
            for k, (t, sensor_id, state, bounding) in enumerate(scan_values)]


def jsonl_text(tag: str, records) -> str:
    """A JSONL file of `records` under the header of `tag`, written record by record as
    json.dumps spells them, as earlier versions wrote it."""
    return "".join(json.dumps(rec) + "\n" for rec in [{"format": tag}, *records])


def orjson_text(tag: str, records) -> str:
    """The same file as orjson spells it."""
    return b"".join(orjson.dumps(rec) + b"\n" for rec in [{"format": tag}, *records]).decode()
