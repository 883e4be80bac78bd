"""`vruradar annotate`: assign a drive's radar detections to its reference track."""

from __future__ import annotations

import json
from pathlib import Path

from .. import annotation, io, trajectory
from ..cli import EXIT_OK, ConfigError


def run(args) -> int:
    meta = io.read_scenario_json(args.scenario)
    scans = io.read_radar_jsonl(args.radar)
    gnss = io.read_gnss_csv(args.gnss)
    if args.mode == "gnss-imu":
        imu = io.read_imu_csv(args.imu) if args.imu else None
        if imu is None:
            raise ConfigError("--imu is required in gnss-imu mode")
        traj = trajectory.build_fused_trajectory(gnss, imu)
    else:
        traj = trajectory.build_trajectory(gnss)
    result = annotation.annotate_scenario(
        scans,
        traj,
        meta["vru_kind"],
        meta["mounts"],
        meta["ego_pose"],
        track_id=meta["track_id"],
    )
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    io.write_labeled_jsonl(args.out, result.scans)
    print(
        json.dumps(
            {"labeled_scans": len(result.scans), "skipped_scans": result.skipped},
            sort_keys=True,
        )
    )
    return EXIT_OK
