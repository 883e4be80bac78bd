"""Adaptive selection shapes for point-to-track assignment.

Pedestrians get an oriented ellipse and cyclists an oriented rectangle, both
grown from fixed minimum body dimensions by speed- and yaw-rate-dependent
terms that account for swinging limbs and turning handlebars.  Axis, length,
and width values are full extents; membership tests use half extents.
"""

from __future__ import annotations

import numpy as np

from .core import OrientedEllipse, record, to_local
from .trajectory import STANDSTILL_SPEED

PEDESTRIAN_MIN_MAJOR = 1.5  # m
PEDESTRIAN_MIN_MINOR = 1.2  # m
PEDESTRIAN_STANDSTILL_AXIS = 1.5  # m, circular fallback below the speed threshold
CYCLIST_LENGTH = 2.5  # m
CYCLIST_MIN_WIDTH = 1.2  # m
SPEED_TO_LENGTH = 1.0  # s, converts speed to extra major-axis length
YAW_RATE_TO_WIDTH = 5.0  # m*s/rad, converts yaw rate to extra width
GROWTH_CAP = 1.0  # m, both growth terms saturate here
MIN_BOUNDING_AXIS = 0.1  # m, full-extent floor of the fitted bounding ellipse


@record(frozen=True)
class OrientedRectangle:
    """Rectangle with full side lengths; `length` lies along `orientation`.

    Like OrientedEllipse, the fields may hold one value per point.
    """

    center: tuple  # (x, y)
    length: float | np.ndarray
    width: float | np.ndarray
    orientation: float | np.ndarray

    def __post_init__(self) -> None:
        if (np.asarray(self.length) <= 0).any() or (np.asarray(self.width) <= 0).any():
            raise ValueError("rectangle sides must be > 0")

    def contains(self, points):
        u, v = to_local(points, *self.center, self.orientation)
        return (np.abs(u) <= self.length / 2.0) & (np.abs(v) <= self.width / 2.0)


def pedestrian_ellipse(x, y, yaw, speed, yaw_rate) -> OrientedEllipse:
    """Selection ellipse around a pedestrian state, grown with speed and yaw rate.

    Below the standstill speed both axes fall back to a fixed circle since the
    movement direction carries no information there.  The state values are
    numbers, or arrays of one state per point.
    """
    moving = speed >= STANDSTILL_SPEED
    return OrientedEllipse(
        center=(x, y),
        ax_major=np.where(moving, PEDESTRIAN_MIN_MAJOR
                          + np.minimum(np.abs(speed) * SPEED_TO_LENGTH, GROWTH_CAP),
                          PEDESTRIAN_STANDSTILL_AXIS),
        ax_minor=np.where(moving, PEDESTRIAN_MIN_MINOR
                          + np.minimum(np.abs(yaw_rate) * YAW_RATE_TO_WIDTH, GROWTH_CAP),
                          PEDESTRIAN_STANDSTILL_AXIS),
        orientation=yaw,
    )


def cyclist_rectangle(x, y, yaw, speed, yaw_rate) -> OrientedRectangle:
    """Selection rectangle around a cyclist state (numbers, or arrays of one per point),
    along the state's yaw at any speed.

    Bikes cannot turn without rolling; the trajectory already holds yaw from the last
    moving instant below the standstill speed.  `speed` is taken so that both shapes take
    one state.
    """
    return OrientedRectangle(
        center=(x, y),
        length=CYCLIST_LENGTH,
        width=CYCLIST_MIN_WIDTH + np.minimum(np.abs(yaw_rate) * YAW_RATE_TO_WIDTH, GROWTH_CAP),
        orientation=yaw,
    )


def bounding_axes(u, v, scan, n_scans: int) -> tuple[np.ndarray, np.ndarray]:
    """Full axes of the smallest symmetric ellipse around each scan's points.

    (u, v) are the points in their scan's shape frame and `scan` numbers each
    point's scan.  Half axes start at the per-axis extents of a scan's points
    and are scaled up uniformly until every point satisfies the ellipse
    inequality; both full axes are floored at MIN_BOUNDING_AXIS.
    """
    a = np.full(n_scans, MIN_BOUNDING_AXIS / 2.0)
    b = a.copy()
    np.maximum.at(a, scan, np.abs(u))
    np.maximum.at(b, scan, np.abs(v))
    q = np.zeros(n_scans)
    np.maximum.at(q, scan, (u / a[scan]) ** 2 + (v / b[scan]) ** 2)
    scale = np.maximum(1.0, np.sqrt(q))
    return 2.0 * a * scale, 2.0 * b * scale
