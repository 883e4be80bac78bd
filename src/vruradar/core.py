"""Planar frames, rigid transforms, value rules, and the declarations shared by all modules.

Radar and labeled scan tables, series columns and the body model live here, so that a
command loads no layer it does not run (see `__init__`).

The world model is strictly 2D: a global east-north tangent plane in meters,
an ego-vehicle frame, one frame per radar sensor, and an object frame whose
x-axis points along the tracked object's direction of movement.  Yaw angles
are counterclockwise from +x and always wrapped to (-pi, pi].  A frame is
placed in its parent by an origin (x, y) and a yaw; `to_global` carries points
from a frame into its parent and `to_local` back.  Radar points pass
sensor -> ego (the mount) -> global (the ego pose) -> object frame.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi


def record(cls=None, /, *, frozen=False, eq=True):
    """Class decorator: the class `dataclass(cls, frozen=frozen, eq=eq)` would make, with
    the shared methods below instead of methods compiled from source per class.

    A record's constructor takes each field by position or by keyword, in order, fills in
    its default or `default_factory`, and then calls `__post_init__`.  With `eq`, records
    of one class are equal when their field tuples are, and a frozen one hashes its field
    tuple.  A frozen record refuses to set or delete any attribute.  `dataclasses.fields`,
    `replace` and `astuple` take a record as the dataclass it stands for.
    """
    def wrap(cls):
        methods = {"__init__": _init, "__repr__": _repr, "__signature__": _SIGNATURE}
        if eq:
            methods.update(__eq__=_eq, __hash__=_hash if frozen else None)
        if frozen:
            methods.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
        for name, method in methods.items():
            setattr(cls, name, method)
        cls = dataclass(cls, init=False, repr=False, eq=False)
        cls._record = tuple(f.name for f in fields(cls)), hasattr(cls, "__post_init__")
        return cls

    return wrap if cls is None else wrap(cls)


def _init(self, *args, **kwargs):
    names, post_init = self._record
    if kwargs or len(args) != len(names):
        args = _bind(type(self), args, kwargs)
    self.__dict__.update(zip(names, args))
    if post_init:
        self.__post_init__()


def _bind(cls, args, kwargs) -> list:
    """The field values of the call `cls(*args, **kwargs)`; a TypeError says what a
    generated `__init__` would of an argument too many, unknown, given twice or missing."""
    fields_, name = cls.__dataclass_fields__, f"{cls.__qualname__}.__init__()"
    required = [n for n, f in fields_.items() if f.default is f.default_factory is MISSING]
    if len(args) > len(fields_):
        takes = len(fields_) + 1 if len(required) == len(fields_) else \
            f"from {len(required) + 1} to {len(fields_) + 1}"
        raise TypeError(f"{name} takes {takes} positional arguments but {len(args) + 1} were given")
    given = dict(zip(fields_, args))
    for key, value in kwargs.items():
        if key in given or key not in fields_:
            problem = "multiple values for" if key in given else "an unexpected keyword"
            raise TypeError(f"{name} got {problem} argument {key!r}")
        given[key] = value
    missing = [repr(n) for n in required if n not in given]
    if missing:
        listed = " and ".join(missing) if len(missing) < 3 else \
            ", ".join(missing[:-1]) + ", and " + missing[-1]
        raise TypeError(f"{name} missing {len(missing)} required positional argument"
                        f"{'s' if len(missing) > 1 else ''}: {listed}")
    return [given[n] if n in given else f.default if f.default is not MISSING
            else f.default_factory() for n, f in fields_.items()]


def _view(cls, values: dict):
    """The record of a checked table's row: its fields hold the dict `values`, and no
    `__init__` or `__post_init__` runs."""
    out = object.__new__(cls)
    out.__dict__.update(values)
    return out


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self._record[0]])


def _repr(self) -> str:
    return (f"{type(self).__qualname__}("
            + ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record[0]) + ")")


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Signature:
    """A record class's `__signature__`, made from its fields when first read (by `inspect`)."""

    def __get__(self, obj, cls):
        import inspect

        P = inspect.Parameter
        factory = type("Factory", (), {"__repr__": lambda _: "<factory>"})()
        return inspect.Signature(
            [P(f.name, P.POSITIONAL_OR_KEYWORD, annotation=f.type,
               default=(f.default if f.default is not MISSING
                        else P.empty if f.default_factory is MISSING else factory))
             for f in fields(cls)], return_annotation=None)


_SIGNATURE = _Signature()

LABEL_VRU = "vru"
LABEL_CLUTTER = "clutter"


class VruKind(str, Enum):
    PEDESTRIAN = "pedestrian"
    CYCLIST = "cyclist"


# Default body scatter: standard deviations (along, across) the movement
# direction, truncated at SCATTER_TRUNC sigma.
BODY_SIGMA = {VruKind.PEDESTRIAN: (0.15, 0.15), VruKind.CYCLIST: (0.6, 0.2)}
SCATTER_TRUNC = 1.8


class GnssQuality(str, Enum):
    FIX_RTK = "FIX_RTK"
    FIX_FLOAT = "FIX_FLOAT"
    DEGRADED = "DEGRADED"

    # numpy converts a member by str(): let that be its value, not "GnssQuality.DEGRADED"
    __str__ = str.__str__


QUALITY_DTYPE = np.dtype("U9")  # of a `quality` column: holds every GnssQuality value whole
# The columns of each time series, as named in its CSV header.  A series is a structured
# array (`table`) with these fields, one row per sample; an IMU without a heading of
# its own gives a `yaw` of NaN.
GNSS_COLUMNS = ("timestamp", "x", "y", "quality")
IMU_COLUMNS = ("timestamp", "yaw_rate", "accel_forward", "yaw")
TRAJ_COLUMNS = ("timestamp", "x", "y", "yaw", "speed", "yaw_rate")


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi].  Idempotent; result differs from `a` by a multiple of 2*pi."""
    if not math.isfinite(a):
        raise ValueError(f"angle must be finite, got {a!r}")
    w = math.remainder(a, TWO_PI)
    if w <= -math.pi:
        w += TWO_PI
    return w


def wrap_angles(a) -> np.ndarray:
    """:func:`wrap_angle` of each entry of an array, to the bit; a NaN entry stays NaN."""
    a = np.array(a, dtype=float)
    inf = np.isinf(a)
    if inf.any():
        raise ValueError(f"angle must be finite, got {float(a[inf][0])!r}")
    # fmod is exact, and so is the one 2 pi step that brings its result into (-pi, pi].
    a = np.fmod(a, TWO_PI)
    a[a > math.pi] -= TWO_PI
    a[a <= -math.pi] += TWO_PI
    return a


def finite_number(value, name: str) -> float:
    """`value` as a float if it is a finite Python or numpy number; else a ValueError that
    names `name`.

    A bool is an int subclass but no number here, float() would parse a string, and json
    reads an out-of-range literal such as 1e400 as infinity.
    """
    if type(value) in (int, float) or isinstance(value, (np.integer, np.floating)):
        try:
            v = float(value)
        except OverflowError:  # an integer beyond the float range
            v = math.inf
        if math.isfinite(v):
            return v
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def finite_pair(value, name: str) -> tuple[float, float]:
    """`value` as a tuple of two floats if it is a tuple, list or array of two finite
    numbers; else a ValueError that names `name`."""
    try:
        if isinstance(value, (tuple, list, np.ndarray)) and len(value) == 2:
            return finite_number(value[0], name), finite_number(value[1], name)
    except (TypeError, ValueError):  # a 0-d array has no length; an entry is no number
        pass
    raise ValueError(f"{name} must be a pair of finite numbers, got {value!r}")


def fold_axis(angle: float) -> float:
    """Fold a direction into (-pi/2, pi/2]: an axis and its reverse are the same axis."""
    a = math.remainder(angle, math.pi)
    if a <= -math.pi / 2:
        a += math.pi
    return a


def table(names, columns) -> np.ndarray:
    """Equal-length columns as one structured array whose fields carry the given names.

    A time series is such a table, one row per sample, with the column names
    of its CSV header.
    """
    columns = [np.asarray(c) for c in columns]
    out = np.empty(len(columns[0]), [(name, c.dtype) for name, c in zip(names, columns)])
    for name, column in zip(names, columns):
        out[name] = column
    return out


@record(frozen=True)
class Pose:
    """Planar position plus heading of a frame in its parent; yaw is wrapped on construction."""

    x: float
    y: float
    yaw: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("pose position must be finite")
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))


@record(frozen=True, eq=False)
class Detections:
    """Radar points as columns, one row per point.

    The polar columns are measurements in the sensor frame; `amplitude` is in
    dB relative to an arbitrary reference.  `index` is each point's position
    within its scan and is the identity used to align automatic labels with
    ground-truth labels; it defaults to 0..n-1.  `ego` and `global_xy` are
    (n, 2) coordinates derived by the annotation pipeline, None until then.
    Indexing with a boolean mask, an index array or a slice selects rows.
    """

    range_m: np.ndarray
    azimuth: np.ndarray
    radial_velocity: np.ndarray
    amplitude: np.ndarray
    index: np.ndarray | None = None
    ego: np.ndarray | None = None
    global_xy: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.range_m)
        if self.index is None:
            object.__setattr__(self, "index", np.arange(n))
        for name in _COLUMNS:
            col = getattr(self, name)
            if col is not None:
                col = np.ascontiguousarray(col, dtype=np.int64 if name == "index" else float)
                col = col.reshape((-1, 2) if name in ("ego", "global_xy") else -1)
                if len(col) != n:
                    raise ValueError(f"column {name!r} has {len(col)} rows, expected {n}")
                object.__setattr__(self, name, col)
        if np.count_nonzero(self.range_m < 0):
            raise ValueError(f"range must be >= 0, got {self.range_m.min()}")

    def __len__(self) -> int:
        return len(self.range_m)

    def __getitem__(self, rows) -> "Detections":
        return _view(Detections, {name: None if col is None else col[rows]
                                   for name, col in self.__dict__.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Detections):
            return NotImplemented
        columns = ((getattr(self, name), getattr(other, name)) for name in _COLUMNS)
        return all(a is b or (a is not None and b is not None and np.array_equal(a, b))
                   for a, b in columns)

    __iter__ = None  # a table is read by columns, not point by point


_COLUMNS = tuple(f.name for f in fields(Detections))


@record(frozen=True)
class SensorMount:
    """Static mounting of one radar on the ego vehicle."""

    sensor_id: str
    pose_in_ego: Pose
    fov_azimuth: float  # half-angle, rad
    max_range: float

    def __post_init__(self) -> None:
        if not (0.0 < self.fov_azimuth <= math.pi):
            raise ValueError(f"fov_azimuth must be in (0, pi], got {self.fov_azimuth}")
        if self.max_range <= 0.0:
            raise ValueError(f"max_range must be > 0, got {self.max_range}")


def mounts_by_id(mounts) -> dict[str, SensorMount]:
    """The mounts keyed by sensor id; a ValueError names a sensor that is mounted twice."""
    out: dict[str, SensorMount] = {}
    for mount in mounts:
        if mount.sensor_id in out:
            raise ValueError(f"sensor {mount.sensor_id!r} has more than one mount")
        out[mount.sensor_id] = mount
    return out


@record(frozen=True)
class RadarScan:
    """All detections of one sensor at one measurement cycle: a view of one ScanTable row."""

    timestamp: float
    sensor_id: str
    detections: Detections


def scan_offsets(counts) -> np.ndarray:
    """Row offsets (m + 1,) of scans holding `counts` rows each."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def scan_counts(offsets: np.ndarray, n: int) -> np.ndarray:
    """The rows of each scan at row `offsets`; a ValueError unless the offsets cut `n` rows
    into scans."""
    counts = np.diff(offsets)
    if offsets[0] != 0 or offsets[-1] != n or np.any(counts < 0):
        raise ValueError("scan columns do not match the detections table")
    return counts


def rank_in_scan(offsets: np.ndarray) -> np.ndarray:
    """Each row's position within its scan, for scans at row `offsets`."""
    return np.arange(offsets[-1]) - np.repeat(offsets[:-1], np.diff(offsets))


@record(frozen=True, eq=False)
class ScanTable:
    """Every radar scan of a run in one table.

    Scan k has the per-scan values `timestamp[k]` (finite) and `sensor_id[k]` and
    owns rows offsets[k]:offsets[k + 1] of the run-wide `detections`, whose `index`
    column numbers each point within its scan.  `table[k]` and iteration give
    RadarScan views of single scans.
    """

    timestamp: np.ndarray  # (m,)
    sensor_id: np.ndarray  # (m,) str
    offsets: np.ndarray  # (m + 1,)
    detections: Detections

    def __post_init__(self) -> None:
        object.__setattr__(self, "timestamp", np.asarray(self.timestamp, dtype=float))
        object.__setattr__(self, "sensor_id", np.asarray(self.sensor_id, dtype=str))
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=np.int64))
        m = len(self.timestamp)
        if (self.timestamp.shape != (m,) or self.sensor_id.shape != (m,)
                or self.offsets.shape != (m + 1,)):
            raise ValueError("scan columns do not match the detections table")
        scan_counts(self.offsets, len(self.detections))
        if not np.isfinite(self.timestamp).all():
            raise ValueError("scan timestamps must be finite")

    def __len__(self) -> int:
        return len(self.timestamp)

    def __getitem__(self, k: int) -> RadarScan:
        lo, hi = self.offsets[k], self.offsets[k + 1]
        return _view(RadarScan, {"timestamp": float(self.timestamp[k]),
                                 "sensor_id": str(self.sensor_id[k]),
                                 "detections": self.detections[lo:hi]})

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @property
    def scan_of_row(self) -> np.ndarray:
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    def take(self, scans: np.ndarray) -> "ScanTable":
        """The given scans, in the given order, as a table of their own."""
        counts = np.diff(self.offsets)[scans]
        offsets = scan_offsets(counts)
        rows = rank_in_scan(offsets) + np.repeat(self.offsets[scans], counts)
        return ScanTable(self.timestamp[scans], self.sensor_id[scans], offsets,
                         self.detections[rows])

    def where(self, rows: np.ndarray) -> "ScanTable":
        """The rows of a row mask, in order, as a table of the scans that hold any of them."""
        counts = np.bincount(self.scan_of_row[rows], minlength=len(self))
        keep = counts > 0
        return ScanTable(self.timestamp[keep], self.sensor_id[keep], scan_offsets(counts[keep]),
                         self.detections[rows])


@record(frozen=True, eq=False)
class TruthLabels:
    """The truth label of every radar point of a run, ordered by key: scan time to the
    nanosecond, then point index.

    `timestamp` is strictly increasing, one value per distinct scan time (a
    -0.0 is 0.0); the time owns rows offsets[k]:offsets[k + 1], whose `index`
    is strictly increasing and whose `is_vru` says whether the point is the
    VRU's.  `io.truth_labels` builds it from a truth-label file's columns.
    """

    timestamp: np.ndarray  # (m,)
    offsets: np.ndarray  # (m + 1,)
    index: np.ndarray  # (n,) int64
    is_vru: np.ndarray  # (n,) bool


@record(frozen=True)
class LabeledScan:
    """One scan's detections, coordinates filled in, split into assigned and rejected rows:
    a view of one LabeledTable row."""

    timestamp: float
    track_id: str
    vru_kind: VruKind
    sensor_id: str
    assigned: Detections
    rejected: Detections
    bounding: OrientedEllipse | None
    vru_state: np.ndarray  # (5,) x, y, yaw, speed, yaw rate


@record(frozen=True, eq=False)
class LabeledTable(ScanTable):
    """Every labeled scan of a run in one table.

    The detections carry `ego` and `global_xy`; within each scan the first
    `n_assigned[k]` rows are assigned to the track and the rest rejected.
    `vru_state[k]` holds the track's x, y, yaw, speed and yaw rate at the
    scan, `bounding[k]` the bounding ellipse's cx, cy, ax_major, ax_minor and
    orientation, NaN for a scan without assigned rows.
    """

    n_assigned: np.ndarray  # (m,)
    vru_state: np.ndarray  # (m, 5)
    bounding: np.ndarray  # (m, 5)
    track_id: str
    vru_kind: VruKind

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "n_assigned", np.asarray(self.n_assigned, dtype=np.int64))
        if np.any(self.n_assigned < 0) or np.any(self.n_assigned > np.diff(self.offsets)):
            raise ValueError("column 'n_assigned' is outside its scan")

    @property
    def assigned(self) -> np.ndarray:
        """Row mask of the assigned detections."""
        return rank_in_scan(self.offsets) < np.repeat(self.n_assigned, np.diff(self.offsets))

    def __getitem__(self, k: int) -> LabeledScan:
        lo, mid, hi = self.offsets[k], self.offsets[k] + self.n_assigned[k], self.offsets[k + 1]
        cx, cy, major, minor, orientation = self.bounding[k].tolist()
        ellipse = None if math.isnan(major) else OrientedEllipse((cx, cy), major, minor,
                                                                 orientation)
        return _view(LabeledScan, {
            "timestamp": float(self.timestamp[k]), "track_id": self.track_id,
            "vru_kind": self.vru_kind, "sensor_id": str(self.sensor_id[k]),
            "assigned": self.detections[lo:mid], "rejected": self.detections[mid:hi],
            "bounding": ellipse, "vru_state": self.vru_state[k]})


def to_local(points, x, y, yaw) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) of parent-frame point(s) in the frame at (x, y) with heading `yaw`.

    The frame values are numbers, or arrays that give each point its own frame.
    """
    pts = np.asarray(points, dtype=float)
    dx, dy = pts[..., 0] - x, pts[..., 1] - y
    c, s = np.cos(yaw), np.sin(yaw)
    return c * dx + s * dy, c * dy - s * dx


def to_global(points, x, y, yaw) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`to_local`: the parent-frame (x, y) of point(s) given as (u, v) in
    the frame at (x, y) with heading `yaw`."""
    pts = np.asarray(points, dtype=float)
    u, v = pts[..., 0], pts[..., 1]
    c, s = np.cos(yaw), np.sin(yaw)
    return c * u - s * v + x, s * u + c * v + y


def sensor_positions(mounts, ego_pose: Pose) -> np.ndarray:
    """(k, 2) global positions of the k sensors `mounts` places on the ego vehicle at
    `ego_pose`."""
    xy = np.reshape([(m.pose_in_ego.x, m.pose_in_ego.y) for m in mounts], (-1, 2))
    return np.column_stack(to_global(xy, ego_pose.x, ego_pose.y, ego_pose.yaw))


@record(frozen=True)
class OrientedEllipse:
    """Ellipse with full axis lengths; `ax_major` lies along `orientation`.

    The names follow the movement-aligned convention: with high yaw rates at
    low speed the across-track axis may exceed the along-track one.  Every
    field may hold one value per point instead of a number; `contains` then
    tests each point against its own ellipse.
    """

    center: tuple  # (x, y)
    ax_major: float | np.ndarray
    ax_minor: float | np.ndarray
    orientation: float | np.ndarray

    def __post_init__(self) -> None:
        if (np.asarray(self.ax_major) <= 0).any() or (np.asarray(self.ax_minor) <= 0).any():
            raise ValueError("ellipse axes must be > 0")

    def contains(self, points):
        """Membership test for a (2,) point or an (n, 2) array (boundary inclusive)."""
        u, v = to_local(points, *self.center, self.orientation)
        q = (u / (self.ax_major / 2.0)) ** 2 + (v / (self.ax_minor / 2.0)) ** 2
        return q <= 1.0
