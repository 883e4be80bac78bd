"""Adaptive selection shapes for point-to-track assignment.

Pedestrians get an oriented ellipse and cyclists an oriented rectangle, both
grown from fixed minimum body dimensions by speed- and yaw-rate-dependent
terms that account for swinging limbs and turning handlebars.  Axis, length,
and width values are full extents; membership tests use half extents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EmptyScanError, Pose, wrap_angle
from .trajectory import STANDSTILL_SPEED, TrajectoryState

PEDESTRIAN_MIN_MAJOR = 1.5  # m
PEDESTRIAN_MIN_MINOR = 1.2  # m
PEDESTRIAN_STANDSTILL_AXIS = 1.5  # m, circular fallback below the speed threshold
CYCLIST_LENGTH = 2.5  # m
CYCLIST_MIN_WIDTH = 1.2  # m
SPEED_TO_LENGTH = 1.0  # s, converts speed to extra major-axis length
YAW_RATE_TO_WIDTH = 5.0  # m*s/rad, converts yaw rate to extra width
GROWTH_CAP = 1.0  # m, both growth terms saturate here
MIN_BOUNDING_AXIS = 0.1  # m, full-extent floor of the fitted bounding ellipse


@dataclass(frozen=True)
class OrientedEllipse:
    """Ellipse with full axis lengths; `ax_major` lies along `orientation`.

    The names follow the movement-aligned convention: with high yaw rates at
    low speed the across-track axis may exceed the along-track one.
    """

    center: tuple[float, float]
    ax_major: float
    ax_minor: float
    orientation: float

    def __post_init__(self) -> None:
        if self.ax_major <= 0 or self.ax_minor <= 0:
            raise ValueError("ellipse axes must be > 0")
        object.__setattr__(self, "orientation", wrap_angle(self.orientation))

    def contains(self, points):
        """Membership test for a (2,) point or an (n, 2) array (boundary inclusive)."""
        u, v = _to_shape_frame(points, self.center, self.orientation)
        q = (u / (self.ax_major / 2.0)) ** 2 + (v / (self.ax_minor / 2.0)) ** 2
        return q <= 1.0


@dataclass(frozen=True)
class OrientedRectangle:
    """Rectangle with full side lengths; `length` lies along `orientation`."""

    center: tuple[float, float]
    length: float
    width: float
    orientation: float

    def __post_init__(self) -> None:
        if self.length <= 0 or self.width <= 0:
            raise ValueError("rectangle sides must be > 0")
        object.__setattr__(self, "orientation", wrap_angle(self.orientation))

    def contains(self, points):
        u, v = _to_shape_frame(points, self.center, self.orientation)
        return (np.abs(u) <= self.length / 2.0) & (np.abs(v) <= self.width / 2.0)


def _to_shape_frame(points, center, orientation):
    local = Pose(center[0], center[1], orientation).from_parent(points)
    return local[..., 0], local[..., 1]


def pedestrian_ellipse(state: TrajectoryState) -> OrientedEllipse:
    """Selection ellipse around a pedestrian, grown with speed and yaw rate.

    Below the standstill speed both axes fall back to a fixed circle since the
    movement direction carries no information there.
    """
    v = state.speed
    if v >= STANDSTILL_SPEED:
        ax_major = PEDESTRIAN_MIN_MAJOR + min(abs(v) * SPEED_TO_LENGTH, GROWTH_CAP)
        ax_minor = PEDESTRIAN_MIN_MINOR + min(abs(state.yaw_rate) * YAW_RATE_TO_WIDTH, GROWTH_CAP)
    else:
        ax_major = PEDESTRIAN_STANDSTILL_AXIS
        ax_minor = PEDESTRIAN_STANDSTILL_AXIS
    return OrientedEllipse(
        center=(state.pose.x, state.pose.y),
        ax_major=ax_major,
        ax_minor=ax_minor,
        orientation=state.pose.yaw,
    )


def cyclist_rectangle(state: TrajectoryState, last_moving_yaw: float) -> OrientedRectangle:
    """Selection rectangle around a cyclist.

    Bikes cannot turn without rolling, so below the standstill speed the
    orientation continues from the last moving instant instead of the current
    yaw estimate.
    """
    width = CYCLIST_MIN_WIDTH + min(abs(state.yaw_rate) * YAW_RATE_TO_WIDTH, GROWTH_CAP)
    orientation = state.pose.yaw if state.speed >= STANDSTILL_SPEED else last_moving_yaw
    return OrientedRectangle(
        center=(state.pose.x, state.pose.y),
        length=CYCLIST_LENGTH,
        width=width,
        orientation=orientation,
    )


def fit_bounding_ellipse(points, center, yaw: float) -> OrientedEllipse:
    """Smallest symmetric ellipse at a fixed center and orientation covering all points.

    Half axes start at the per-axis extents of the points in the shape frame
    and are scaled up uniformly until every point satisfies the ellipse
    inequality; both full axes are floored at MIN_BOUNDING_AXIS.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        raise EmptyScanError("cannot fit a bounding ellipse without detections")
    u, v = _to_shape_frame(pts, center, yaw)
    half_floor = MIN_BOUNDING_AXIS / 2.0
    a = max(float(np.max(np.abs(u))), half_floor)
    b = max(float(np.max(np.abs(v))), half_floor)
    scale = max(1.0, float(np.sqrt(np.max((u / a) ** 2 + (v / b) ** 2))))
    return OrientedEllipse(
        center=(float(center[0]), float(center[1])),
        ax_major=2.0 * a * scale,
        ax_minor=2.0 * b * scale,
        orientation=yaw,
    )
