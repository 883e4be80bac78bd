import json
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from vruradar import io
from vruradar.annotation import AnnotationResult, LabeledTable, annotate_scenario
from vruradar.core import (
    LABEL_VRU,
    Detections,
    ScanTable,
    TruthLabels,
    VruKind,
    mounts_by_id,
    scan_offsets,
    table,
    to_global,
    to_local,
)
from vruradar.evaluation import cycle_stats
from vruradar.simulator import ScenarioData, preset, simulate_scenario
from vruradar.trajectory import (
    ReferenceTrajectory,
    build_fused_trajectory,
    build_trajectory,
)


def series(columns, times, *values) -> np.ndarray:
    """A time-series table: `times`, then each further column's values or one value for all."""
    times = np.asarray(times, dtype=float)
    return table(columns, [times, *(np.broadcast_to(v, times.shape) for v in values)])


@dataclass
class PresetRun:
    data: ScenarioData
    fused: AnnotationResult
    gnss_only: AnnotationResult | None
    truth: dict
    elapsed: float
    fused_traj: ReferenceTrajectory
    gnss_traj: ReferenceTrajectory | None


def run_preset(name: str, seed: int, *, both_modes: bool = False) -> PresetRun:
    t0 = time.perf_counter()
    cfg = preset(name, seed=seed)
    data = simulate_scenario(cfg)
    traj_f = build_fused_trajectory(data.gnss, data.imu)
    fused = annotate_scenario(data.scans, traj_f, cfg.vru_kind, cfg.mounts, cfg.ego_pose)
    gnss_only = traj_g = None
    if both_modes:
        traj_g = build_trajectory(data.gnss)
        gnss_only = annotate_scenario(data.scans, traj_g, cfg.vru_kind, cfg.mounts, cfg.ego_pose)
    return PresetRun(
        data=data, fused=fused, gnss_only=gnss_only,
        truth=truth_map(data), elapsed=time.perf_counter() - t0,
        fused_traj=traj_f, gnss_traj=traj_g,
    )


def truth_map(data: ScenarioData) -> TruthLabels:
    """The truth labels of a simulated drive, as its truth-label file reads them."""
    return io.truth_labels({"timestamp": data.scans.timestamp, "offsets": data.scans.offsets,
                            "index": data.scans.detections.index, "is_vru": data.is_vru})


def truth_table(labels: dict) -> TruthLabels:
    """The truth labels of a dict {(t, idx): "vru" or "clutter"}, as a truth-label file
    holding one scan per key reads them."""
    keys = list(labels)
    return io.truth_labels({
        "timestamp": np.array([t for t, _ in keys], dtype=float),
        "offsets": np.arange(len(keys) + 1, dtype=np.int64),
        "index": np.array([idx for _, idx in keys], dtype=np.int64),
        "is_vru": np.array([labels[key] == LABEL_VRU for key in keys], dtype=np.uint8)})


def conf_axes(global_xy) -> tuple[float, float]:
    """The confidence-ellipse axes that `cycle_stats` gives one scan whose points, all
    assigned, lie at `global_xy`."""
    n = len(global_xy)
    d = Detections(np.full(n, 10.0), np.zeros(n), np.zeros(n), np.zeros(n),
                   ego=np.zeros((n, 2)), global_xy=global_xy)
    stats = cycle_stats(LabeledTable([0.0], ["r0"], [0, n], d, [n], np.zeros((1, 5)),
                                     np.full((1, 5), np.nan), "vru-0", VruKind.PEDESTRIAN))
    return float(stats["conf_major"][0]), float(stats["conf_minor"][0])


def sensor_xy(mount, ego_pose) -> tuple:
    """The global position of a mounted sensor."""
    m = mount.pose_in_ego
    return to_global((m.x, m.y), ego_pose.x, ego_pose.y, ego_pose.yaw)


def polar_to_global(range_m, azimuth, mount, ego_pose) -> np.ndarray:
    """(n, 2) global positions of the points that `mount` measures at (range_m, azimuth)."""
    m = mount.pose_in_ego
    local = np.column_stack([range_m * np.cos(azimuth), range_m * np.sin(azimuth)])
    p_ego = np.column_stack(to_global(local, m.x, m.y, m.yaw))
    return np.column_stack(to_global(p_ego, ego_pose.x, ego_pose.y, ego_pose.yaw))


def global_to_polar(points, mount, ego_pose) -> tuple[np.ndarray, np.ndarray]:
    """Range and azimuth at which `mount` sees global point(s), (2,) or (n, 2)."""
    m = mount.pose_in_ego
    p_ego = np.column_stack(to_local(points, ego_pose.x, ego_pose.y, ego_pose.yaw))
    u, v = to_local(p_ego, m.x, m.y, m.yaw)
    return np.hypot(u, v), np.arctan2(v, u)


def truth_assigned_scans(data: ScenarioData) -> tuple[ScanTable, dict]:
    """Tracker input from the simulator's own labels (perfect association): the VRU rows
    with their global positions, and each sensor's global position."""
    cfg = data.config
    mounts = mounts_by_id(cfg.mounts)
    glob = [polar_to_global(scan.detections.range_m, scan.detections.azimuth,
                            mounts[scan.sensor_id], cfg.ego_pose) for scan in data.scans]
    scans = replace(data.scans, detections=replace(data.scans.detections,
                                                   global_xy=np.concatenate(glob)))
    return scans.where(data.is_vru), {sensor_id: sensor_xy(m, cfg.ego_pose)
                                      for sensor_id, m in mounts.items()}


def _concat(tables, names) -> Detections:
    empty = {"ego": np.empty((0, 2)), "global_xy": np.empty((0, 2))}
    return Detections(**{name: np.concatenate([getattr(d, name) for d in tables]
                                              or [empty.get(name, np.empty(0))])
                         for name in names})


POLAR = ("range_m", "azimuth", "radial_velocity", "amplitude", "index")


def radar_table(scans) -> ScanTable:
    """A ScanTable holding the given RadarScans, in order."""
    return ScanTable([s.timestamp for s in scans], [s.sensor_id for s in scans],
                     scan_offsets([len(s.detections) for s in scans]),
                     _concat([s.detections for s in scans], POLAR))


def labeled_table(scans) -> LabeledTable:
    """A LabeledTable holding the given LabeledScans, in order."""
    states = [s.vru_state for s in scans]
    bounding = [(np.nan,) * 5 if s.bounding is None else
                (*s.bounding.center, s.bounding.ax_major, s.bounding.ax_minor,
                 s.bounding.orientation) for s in scans]
    return LabeledTable(
        timestamp=[s.timestamp for s in scans],
        sensor_id=[s.sensor_id for s in scans],
        offsets=scan_offsets([len(s.assigned) + len(s.rejected) for s in scans]),
        detections=_concat([d for s in scans for d in (s.assigned, s.rejected)],
                           (*POLAR, "ego", "global_xy")),
        n_assigned=np.array([len(s.assigned) for s in scans], dtype=np.int64),
        vru_state=np.array(states, dtype=float).reshape(-1, 5),
        bounding=np.array(bounding, dtype=float).reshape(-1, 5),
        track_id=scans[0].track_id if scans else "vru-0",
        vru_kind=scans[0].vru_kind if scans else VruKind.PEDESTRIAN,
    )


@pytest.fixture(scope="session")
def pedestrian_run():
    return run_preset("pedestrian-nominal", seed=101)


@pytest.fixture(scope="session")
def cyclist_run():
    return run_preset("cyclist-nominal", seed=202)


@pytest.fixture(scope="session")
def perturbed_runs():
    return [run_preset("cyclist-perturbed", seed=s, both_modes=True) for s in range(5)]


def reorder_scans(path, fault: str) -> int:
    """Duplicate the fifth record of a JSONL scan file ("duplicate"), or swap it with the
    next record of the same sensor ("swap"); return the line that is now out of order."""
    lines = path.read_text(encoding="utf-8").splitlines()
    k = 5
    if fault == "duplicate":
        lines.insert(k + 1, lines[k])
        bad = k + 2
    else:
        sensor = json.loads(lines[k])["sensor_id"]
        m = next(m for m in range(k + 1, len(lines)) if json.loads(lines[m])["sensor_id"] == sensor)
        lines[k], lines[m] = lines[m], lines[k]
        bad = m + 1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return bad
