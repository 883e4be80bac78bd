import time
from dataclasses import dataclass

import numpy as np
import pytest

from vruradar.annotation import AnnotationResult, annotate_scenario
from vruradar.core import LABEL_VRU, compose_pose, ego_to_global, polar_to_ego
from vruradar.eot import TrackerScan
from vruradar.simulator import ScenarioData, preset, simulate_scenario
from vruradar.trajectory import FusionParams, build_fused_trajectory, build_trajectory


@dataclass
class PresetRun:
    data: ScenarioData
    fused: AnnotationResult
    gnss_only: AnnotationResult | None
    truth: dict
    elapsed: float


def run_preset(name: str, seed: int, *, both_modes: bool = False) -> PresetRun:
    t0 = time.perf_counter()
    cfg = preset(name, seed=seed)
    data = simulate_scenario(cfg)
    traj_f = build_fused_trajectory(data.gnss, data.imu, FusionParams())
    fused = annotate_scenario(data.scans, traj_f, cfg.vru_kind, cfg.mounts, cfg.ego_pose)
    gnss_only = None
    if both_modes:
        traj_g = build_trajectory(data.gnss)
        gnss_only = annotate_scenario(data.scans, traj_g, cfg.vru_kind, cfg.mounts, cfg.ego_pose)
    return PresetRun(
        data=data, fused=fused, gnss_only=gnss_only,
        truth=data.label_map(), elapsed=time.perf_counter() - t0,
    )


def truth_assigned_scans(data: ScenarioData) -> list[TrackerScan]:
    """Tracker inputs using the simulator's own labels (perfect association)."""
    cfg = data.config
    mounts = {m.sensor_id: m for m in cfg.mounts}
    # `data.labels` lists every scan's points in scan order.
    is_vru = np.array([label == LABEL_VRU for _, _, label in data.labels], dtype=bool)
    ends = np.cumsum([len(scan.detections) for scan in data.scans])
    out = []
    for scan, keep in zip(data.scans, np.split(is_vru, ends[:-1])):
        if keep.any():
            mount = mounts[scan.sensor_id]
            sensor = compose_pose(cfg.ego_pose, mount.pose_in_ego)
            pts = ego_to_global(polar_to_ego(scan, mount), cfg.ego_pose)[keep]
            out.append(
                TrackerScan(
                    timestamp=scan.timestamp,
                    points=pts,
                    radial_velocities=scan.detections.radial_velocity[keep],
                    sensor_pos=sensor.xy,
                )
            )
    return out


@pytest.fixture(scope="session")
def pedestrian_run():
    return run_preset("pedestrian-nominal", seed=101)


@pytest.fixture(scope="session")
def cyclist_run():
    return run_preset("cyclist-nominal", seed=202)


@pytest.fixture(scope="session")
def perturbed_runs():
    return [run_preset("cyclist-perturbed", seed=s, both_modes=True) for s in range(5)]
