"""Planar frames, rigid transforms, and the radar measurement types shared by all modules.

The world model is strictly 2D: a global east-north tangent plane in meters,
an ego-vehicle frame, one frame per radar sensor, and an object frame whose
x-axis points along the tracked object's direction of movement.  Yaw angles
are counterclockwise from +x and always wrapped to (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

GLOBAL = "global"
EGO = "ego"

TWO_PI = 2.0 * math.pi

LABEL_VRU = "vru"
LABEL_CLUTTER = "clutter"


class VruKind(str, Enum):
    PEDESTRIAN = "pedestrian"
    CYCLIST = "cyclist"


class EmptyScanError(ValueError):
    """Raised when an operation needs at least one detection and got none."""


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi].  Idempotent; result differs from `a` by a multiple of 2*pi."""
    if not math.isfinite(a):
        raise ValueError(f"angle must be finite, got {a!r}")
    w = math.remainder(a, TWO_PI)
    if w <= -math.pi:
        w += TWO_PI
    return w


def fold_axis(angle: float) -> float:
    """Fold a direction into (-pi/2, pi/2]: an axis and its reverse are the same axis."""
    a = math.remainder(angle, math.pi)
    if a <= -math.pi / 2:
        a += math.pi
    return a


def rotation_matrix(angle: float) -> np.ndarray:
    """Counterclockwise rotation of column vectors by `angle`."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class Pose:
    """Planar position plus heading, expressed in a named parent frame.

    `frame` names the frame the coordinates live in, e.g. a sensor mount pose
    carries frame EGO.  Yaw is wrapped on construction.
    """

    x: float
    y: float
    yaw: float
    frame: str = GLOBAL

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("pose position must be finite")
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def to_parent(self, points) -> np.ndarray:
        """Map point(s) given in this pose's local frame into its parent frame.

        Accepts a single (2,) point or an (n, 2) array.
        """
        pts = np.asarray(points, dtype=float)
        return pts @ rotation_matrix(self.yaw).T + np.array([self.x, self.y])

    def from_parent(self, points) -> np.ndarray:
        """Inverse of :meth:`to_parent`: parent-frame point(s) into the local frame."""
        pts = np.asarray(points, dtype=float)
        # R(-yaw).T rather than the equal R(yaw): matmul rounds according to
        # memory layout, and this layout keeps written coordinates stable.
        return (pts - np.array([self.x, self.y])) @ rotation_matrix(-self.yaw).T


def compose_pose(parent: Pose, child: Pose) -> Pose:
    """Pose of `child` (expressed in `parent`'s local frame) in `parent`'s own frame."""
    xy = parent.to_parent(child.xy)
    return Pose(float(xy[0]), float(xy[1]), parent.yaw + child.yaw, frame=parent.frame)


@dataclass(frozen=True, eq=False, slots=True)
class Detections:
    """One scan's radar points as columns, one row per point.

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
        for name, empty in _NO_ROWS.items():
            col = getattr(self, name)
            if col is not None:
                col = np.ascontiguousarray(col, dtype=empty.dtype).reshape((-1, *empty.shape[1:]))
                if len(col) != n:
                    raise ValueError(f"column {name!r} has {len(col)} rows, expected {n}")
                object.__setattr__(self, name, col if n else empty)
        if np.count_nonzero(self.range_m < 0):
            raise ValueError(f"range must be >= 0, got {self.range_m.min()}")

    def __len__(self) -> int:
        return len(self.range_m)

    def __getitem__(self, rows) -> "Detections":
        # Rows of a checked table need no checks: skip __init__.
        out = object.__new__(Detections)
        for name in _COLUMNS:
            col = getattr(self, name)
            if col is not None:
                col = col[rows]
                if not len(col):
                    col = _NO_ROWS[name]
            object.__setattr__(out, name, col)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Detections):
            return NotImplemented
        columns = ((getattr(self, name), getattr(other, name)) for name in _COLUMNS)
        return all(a is b or (a is not None and b is not None and np.array_equal(a, b))
                   for a, b in columns)

    __iter__ = None  # a table is read by columns, not point by point


_COLUMNS = tuple(f.name for f in fields(Detections))

# Read-only zero-row columns, which also set each column's dtype and row shape.
# Every empty table shares them: most selections of a sparse drive are empty,
# and a numpy array costs ~150 bytes even then.
_NO_ROWS = {
    name: np.empty((0, 2) if name in ("ego", "global_xy") else 0,
                   np.int64 if name == "index" else float)
    for name in _COLUMNS
}
for _col in _NO_ROWS.values():
    _col.flags.writeable = False


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RadarScan:
    """All detections of one sensor at one measurement cycle."""

    timestamp: float
    sensor_id: str
    detections: Detections


def polar_to_ego(scan: RadarScan, mount: SensorMount) -> np.ndarray:
    """(n, 2) cartesian ego-frame positions of a scan's detections, via the sensor mount pose."""
    if scan.sensor_id != mount.sensor_id:
        raise ValueError(
            f"scan from sensor {scan.sensor_id!r} does not match mount {mount.sensor_id!r}"
        )
    d = scan.detections
    local = np.column_stack([d.range_m * np.cos(d.azimuth), d.range_m * np.sin(d.azimuth)])
    return mount.pose_in_ego.to_parent(local)


def ego_to_polar(point_ego, mount: SensorMount) -> tuple[float, float]:
    """(range, azimuth) of an ego-frame point as seen by the mounted sensor."""
    local = mount.pose_in_ego.from_parent(point_ego)
    return float(math.hypot(local[0], local[1])), float(math.atan2(local[1], local[0]))


def ego_to_global(point_ego, ego_pose: Pose) -> np.ndarray:
    """Ego-frame point(s) into the global frame given the ego vehicle pose."""
    if ego_pose.frame != GLOBAL:
        raise ValueError(f"ego pose must be expressed in the global frame, got {ego_pose.frame!r}")
    return ego_pose.to_parent(point_ego)


def global_to_ego(point_global, ego_pose: Pose) -> np.ndarray:
    """Inverse of :func:`ego_to_global`."""
    if ego_pose.frame != GLOBAL:
        raise ValueError(f"ego pose must be expressed in the global frame, got {ego_pose.frame!r}")
    return ego_pose.from_parent(point_global)
