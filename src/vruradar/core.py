"""Planar frames, rigid transforms, and the radar measurement types shared by all modules.

The world model is strictly 2D: a global east-north tangent plane in meters,
an ego-vehicle frame, one frame per radar sensor, and an object frame whose
x-axis points along the tracked object's direction of movement.  Yaw angles
are counterclockwise from +x and always wrapped to (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class RadarDetection:
    """One radar point: polar measurement in the sensor frame plus bookkeeping.

    `amplitude` is in dB relative to an arbitrary reference.  `index` is the
    point's position within its scan and is the identity used to align
    automatic labels with ground-truth labels.  The cartesian fields are
    derived coordinates filled in by the annotation pipeline.
    """

    timestamp: float
    range_m: float
    azimuth: float
    radial_velocity: float
    amplitude: float
    sensor_id: str
    index: int = 0
    cartesian_ego: tuple[float, float] | None = None
    cartesian_global: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.range_m < 0:
            raise ValueError(f"range must be >= 0, got {self.range_m}")


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
    detections: tuple[RadarDetection, ...]


def polar_to_ego(det: RadarDetection, mount: SensorMount) -> np.ndarray:
    """Cartesian ego-frame position of a detection, via the sensor mount pose."""
    if det.sensor_id != mount.sensor_id:
        raise ValueError(
            f"detection from sensor {det.sensor_id!r} does not match mount {mount.sensor_id!r}"
        )
    local = np.array([det.range_m * math.cos(det.azimuth), det.range_m * math.sin(det.azimuth)])
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
