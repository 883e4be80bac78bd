"""Per-scan association of radar detections to a referenced VRU track.

For every radar scan inside the trajectory support, the VRU pose is
interpolated at the scan time, a selection shape is built from its speed and
yaw rate, detections are transformed to the global frame and partitioned by
shape membership, and a symmetric bounding ellipse is fitted around the
assigned points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .core import (
    Detections,
    Pose,
    RadarScan,
    SensorMount,
    VruKind,
    ego_to_global,
    polar_to_ego,
)
from .selection import (
    OrientedEllipse,
    cyclist_rectangle,
    fit_bounding_ellipse,
    pedestrian_ellipse,
)
from .trajectory import ReferenceTrajectory, TrajectoryState


@dataclass(frozen=True)
class LabeledScan:
    """One scan's detections, coordinates filled in, split into assigned and rejected rows."""

    timestamp: float
    track_id: str
    vru_kind: VruKind
    sensor_id: str
    assigned: Detections
    rejected: Detections
    bounding: OrientedEllipse | None
    vru_state: TrajectoryState


@dataclass(frozen=True)
class AnnotationResult:
    scans: tuple[LabeledScan, ...]
    skipped: int  # scans outside the trajectory support


def annotate_scenario(
    scans: list[RadarScan],
    traj: ReferenceTrajectory,
    vru_kind: VruKind,
    mounts: dict[str, SensorMount] | list[SensorMount] | tuple[SensorMount, ...],
    ego_pose: Pose | Callable[[float], Pose],
    *,
    track_id: str = "vru-0",
) -> AnnotationResult:
    """Label every scan against the reference track, in timestamp order."""
    if isinstance(mounts, (list, tuple)):
        mounts = {m.sensor_id: m for m in mounts}
    if not mounts:
        raise ValueError("at least one sensor mount is required")
    ego_at = (lambda _t: ego_pose) if isinstance(ego_pose, Pose) else ego_pose

    labeled: list[LabeledScan] = []
    skipped = 0
    for scan in sorted(scans, key=lambda s: (s.timestamp, s.sensor_id)):
        if not traj.covers(scan.timestamp):
            skipped += 1
            continue
        state = traj.state_at(scan.timestamp)
        if vru_kind == VruKind.PEDESTRIAN:
            shape = pedestrian_ellipse(state)
        else:
            # The trajectory already holds yaw from the last moving instant.
            shape = cyclist_rectangle(state, last_moving_yaw=state.pose.yaw)
        ego = ego_at(scan.timestamp)

        mount = mounts.get(scan.sensor_id)
        if mount is None:
            raise ValueError(f"no mount configured for sensor {scan.sensor_id!r}")
        p_ego = polar_to_ego(scan, mount)
        p_glob = ego_to_global(p_ego, ego)
        placed = replace(scan.detections, ego=p_ego, global_xy=p_glob)
        inside = shape.contains(p_glob)
        assigned, rejected = placed[inside], placed[~inside]
        bounding = None
        if assigned:
            bounding = fit_bounding_ellipse(assigned.global_xy, state.pose.xy, state.pose.yaw)
        labeled.append(
            LabeledScan(
                timestamp=scan.timestamp,
                track_id=track_id,
                vru_kind=vru_kind,
                sensor_id=scan.sensor_id,
                assigned=assigned,
                rejected=rejected,
                bounding=bounding,
                vru_state=state,
            )
        )
    return AnnotationResult(scans=tuple(labeled), skipped=skipped)
