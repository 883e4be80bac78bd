"""Association of radar detections to a referenced VRU track, one pass per run.

For every radar scan inside the trajectory support, the VRU pose is
interpolated at the scan time, a selection shape is built from its speed and
yaw rate, detections are transformed to the global frame and partitioned by
shape membership, and a symmetric bounding ellipse is fitted around the
assigned points.  Each step runs on whole columns of the run's table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Detections,
    Pose,
    ScanTable,
    SensorMount,
    VruKind,
    ego_to_global,
    mounts_by_id,
    polar_to_ego,
    rank_in_scan,
    to_local,
)
from .selection import (
    OrientedEllipse,
    bounding_axes,
    cyclist_rectangle,
    pedestrian_ellipse,
)
from .trajectory import ReferenceTrajectory


@dataclass(frozen=True)
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


@dataclass(frozen=True, eq=False)
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

    @property
    def assigned(self) -> np.ndarray:
        """Row mask of the assigned detections."""
        return rank_in_scan(self.offsets) < np.repeat(self.n_assigned, np.diff(self.offsets))

    def __getitem__(self, k: int) -> LabeledScan:
        lo, mid, hi = self.offsets[k], self.offsets[k] + self.n_assigned[k], self.offsets[k + 1]
        cx, cy, major, minor, orientation = self.bounding[k].tolist()
        ellipse = None if math.isnan(major) else OrientedEllipse((cx, cy), major, minor,
                                                                 orientation)
        return LabeledScan(float(self.timestamp[k]), self.track_id, self.vru_kind,
                           str(self.sensor_id[k]), self.detections[lo:mid],
                           self.detections[mid:hi], ellipse, self.vru_state[k])


@dataclass(frozen=True)
class AnnotationResult:
    scans: LabeledTable
    skipped: int  # scans outside the trajectory support


def annotate_scenario(
    scans: ScanTable,
    traj: ReferenceTrajectory,
    vru_kind: VruKind,
    mounts: dict[str, SensorMount] | list[SensorMount] | tuple[SensorMount, ...],
    ego_pose: Pose,
    *,
    track_id: str = "vru-0",
) -> AnnotationResult:
    """Label every scan against the reference track, in (timestamp, sensor) order.

    A ValueError names a sensor that `mounts` lists more than once.
    """
    if isinstance(mounts, (list, tuple)):
        mounts = mounts_by_id(mounts)
    if not mounts:
        raise ValueError("at least one sensor mount is required")
    order = np.lexsort((scans.sensor_id, scans.timestamp))
    t = scans.timestamp[order]
    table = scans.take(order[(t >= traj.t_start) & (t <= traj.t_end)])
    row_scan = table.scan_of_row
    p_ego = np.empty((len(table.detections), 2))
    for sensor_id in np.unique(table.sensor_id):  # one frame chain per sensor
        if sensor_id not in mounts:
            raise ValueError(f"no mount configured for sensor {str(sensor_id)!r}")
        on_sensor = table.sensor_id == sensor_id
        p_ego[on_sensor[row_scan]] = polar_to_ego(table.take(np.flatnonzero(on_sensor)),
                                                  mounts[sensor_id])
    p_glob = ego_to_global(p_ego, ego_pose)

    state = traj.states_at(table.timestamp)
    x, y, yaw, speed, yaw_rate = state[row_scan].T
    if vru_kind == VruKind.PEDESTRIAN:
        shape = pedestrian_ellipse(x, y, yaw, speed, yaw_rate)
    else:
        # The trajectory already holds yaw from the last moving instant.
        shape = cyclist_rectangle(x, y, yaw, speed, yaw_rate, last_moving_yaw=yaw)
    inside = shape.contains(p_glob)

    n_scans = len(table)
    u, v = to_local(p_glob[inside], x[inside], y[inside], yaw[inside])
    major, minor = bounding_axes(u, v, row_scan[inside], n_scans)
    n_assigned = np.bincount(row_scan[inside], minlength=n_scans)
    bounding = np.column_stack([state[:, :2], major, minor, state[:, 2]])
    bounding[n_assigned == 0] = np.nan
    # Each scan's assigned rows first, both parts in their scan order.
    rows = np.lexsort((~inside, row_scan))
    labeled = LabeledTable(
        table.timestamp, table.sensor_id, table.offsets,
        detections=replace(table.detections, ego=p_ego, global_xy=p_glob)[rows],
        n_assigned=n_assigned, vru_state=state, bounding=bounding, track_id=track_id,
        vru_kind=vru_kind,
    )
    return AnnotationResult(scans=labeled, skipped=len(scans) - n_scans)
