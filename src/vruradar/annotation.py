"""Association of radar detections to a referenced VRU track, one pass per run.

For every radar scan inside the trajectory support, the VRU pose is
interpolated at the scan time, a selection shape is built from its speed and
yaw rate, detections are transformed to the global frame and partitioned by
shape membership, and a symmetric bounding ellipse is fitted around the
assigned points.  Each step runs on whole columns of the run's table.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

# LabeledScan and LabeledTable are defined in core and importable from here as before.
from .core import (LabeledScan, LabeledTable, Pose, ScanTable, SensorMount, VruKind,
                   mounts_by_id, record, to_global, to_local)
from .selection import bounding_axes, cyclist_rectangle, pedestrian_ellipse
from .trajectory import ReferenceTrajectory


@record(frozen=True)
class AnnotationResult:
    """The labeled scans of a run, and how many scans it skipped."""

    scans: LabeledTable
    skipped: int  # scans outside the trajectory support


def annotate_scenario(
    scans: ScanTable,
    traj: ReferenceTrajectory,
    vru_kind: VruKind,
    mounts: Sequence[SensorMount],
    ego_pose: Pose,
    *,
    track_id: str = "vru-0",
) -> AnnotationResult:
    """Label every scan against the reference track, in (timestamp, sensor) order.

    A ValueError names a sensor that `mounts` lists more than once.
    """
    mounts = mounts_by_id(mounts)
    if not mounts:
        raise ValueError("at least one sensor mount is required")
    order = np.lexsort((scans.sensor_id, scans.timestamp))
    t = scans.timestamp[order]
    table = scans.take(order[(t >= traj.t_start) & (t <= traj.t_end)])
    row_scan = table.scan_of_row
    sensors, code = np.unique(table.sensor_id, return_inverse=True)
    for sensor_id in sensors:
        if sensor_id not in mounts:
            raise ValueError(f"no mount configured for sensor {str(sensor_id)!r}")
    # sensor polar -> ego through each row's mount -> global through the ego pose
    mount = np.reshape([(m.x, m.y, m.yaw) for m in (mounts[s].pose_in_ego for s in sensors)],
                       (-1, 3))[code[row_scan]]
    d = table.detections
    local = np.column_stack([d.range_m * np.cos(d.azimuth), d.range_m * np.sin(d.azimuth)])
    p_ego = np.column_stack(to_global(local, *mount.T))
    p_glob = np.column_stack(to_global(p_ego, ego_pose.x, ego_pose.y, ego_pose.yaw))

    state = traj.states_at(table.timestamp)
    x, y, yaw, speed, yaw_rate = state[row_scan].T
    if vru_kind == VruKind.PEDESTRIAN:
        shape = pedestrian_ellipse(x, y, yaw, speed, yaw_rate)
    else:
        shape = cyclist_rectangle(x, y, yaw, speed, yaw_rate)
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
