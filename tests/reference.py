"""Per-scan reference implementations of annotation and cycle statistics.

These are the scan-by-scan loops that the whole-run code in `annotation` and
`evaluation` replaced, kept as test oracles.  They use only scalar geometry
(one pose and one shape per scan) and the library's frame transforms.  One
rule differs from the loops they came from: a confidence ellipse whose
covariance has an eigenvalue ratio at most `COLLINEAR_RATIO` is degenerate,
not only one with a non-positive eigenvalue.
"""

import math

import numpy as np

from vruradar.annotation import LabeledScan
from vruradar.core import GLOBAL, Pose, VruKind, ego_to_global, polar_to_ego
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
from vruradar.trajectory import STANDSTILL_SPEED, TrajectoryState


def state_at(traj, t: float) -> TrajectoryState:
    """The trajectory state at one time, evaluated as a scalar query."""
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
    return TrajectoryState(float(t), Pose(float(pos[0]), float(pos[1]), float(yaw), GLOBAL),
                           speed, yaw_rate)


def _shape_frame(points, x, y, yaw):
    local = Pose(x, y, yaw).from_parent(points)
    return local[:, 0], local[:, 1]


def _inside(p_glob, state: TrajectoryState, vru_kind: VruKind) -> np.ndarray:
    u, v = _shape_frame(p_glob, state.pose.x, state.pose.y, state.pose.yaw)
    speed, yaw_rate = state.speed, state.yaw_rate
    if vru_kind == VruKind.PEDESTRIAN:
        if speed >= STANDSTILL_SPEED:
            major = PEDESTRIAN_MIN_MAJOR + min(abs(speed) * SPEED_TO_LENGTH, GROWTH_CAP)
            minor = PEDESTRIAN_MIN_MINOR + min(abs(yaw_rate) * YAW_RATE_TO_WIDTH, GROWTH_CAP)
        else:
            major = minor = PEDESTRIAN_STANDSTILL_AXIS
        return (u / (major / 2.0)) ** 2 + (v / (minor / 2.0)) ** 2 <= 1.0
    width = CYCLIST_MIN_WIDTH + min(abs(yaw_rate) * YAW_RATE_TO_WIDTH, GROWTH_CAP)
    return (np.abs(u) <= CYCLIST_LENGTH / 2.0) & (np.abs(v) <= width / 2.0)


def _bounding(points, state: TrajectoryState) -> OrientedEllipse:
    u, v = _shape_frame(points, state.pose.x, state.pose.y, state.pose.yaw)
    half_floor = MIN_BOUNDING_AXIS / 2.0
    a = max(float(np.max(np.abs(u))), half_floor)
    b = max(float(np.max(np.abs(v))), half_floor)
    scale = max(1.0, float(np.sqrt(np.max((u / a) ** 2 + (v / b) ** 2))))
    return OrientedEllipse((state.pose.x, state.pose.y), 2.0 * a * scale, 2.0 * b * scale,
                           state.pose.yaw)


def annotate(scans, traj, vru_kind, mounts, ego_pose, track_id="vru-0"):
    """(labeled scans, skipped count) of RadarScans, scan by scan in (time, sensor) order."""
    mounts = {m.sensor_id: m for m in mounts}
    labeled, skipped = [], 0
    for scan in sorted(scans, key=lambda s: (s.timestamp, s.sensor_id)):
        if not traj.t_start <= scan.timestamp <= traj.t_end:
            skipped += 1
            continue
        state = state_at(traj, scan.timestamp)
        p_ego = polar_to_ego(scan, mounts[scan.sensor_id])
        p_glob = ego_to_global(p_ego, ego_pose)
        inside = _inside(p_glob, state, vru_kind)
        d = scan.detections
        placed = type(d)(d.range_m, d.azimuth, d.radial_velocity, d.amplitude, d.index,
                         p_ego, p_glob)
        assigned, rejected = placed[inside], placed[~inside]
        bounding = _bounding(assigned.global_xy, state) if len(assigned) else None
        labeled.append(LabeledScan(scan.timestamp, track_id, vru_kind, scan.sensor_id,
                                   assigned, rejected, bounding, state))
    return labeled, skipped


def cycle_stats(scan: LabeledScan) -> dict:
    """Statistics of one scan's assigned detections; None for an undefined ellipse."""
    d = scan.assigned
    n = len(d)
    conf_major = conf_minor = None
    if n >= 3:
        eigval = np.linalg.eigvalsh(np.cov(d.global_xy, rowvar=False, ddof=1))
        if eigval[0] > COLLINEAR_RATIO * eigval[1]:
            q = -2.0 * math.log1p(-0.95)
            conf_major = 2.0 * math.sqrt(eigval[1] * q)
            conf_minor = 2.0 * math.sqrt(eigval[0] * q)
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
