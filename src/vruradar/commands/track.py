"""`vruradar track`: the extended-object tracker over a labeled file's assigned points, and
its errors against the truth trajectory."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .. import eot, io
from ..cli import EXIT_OK, ConfigError, _nearest, _read_truth_traj
from ..core import BODY_SIGMA, SCATTER_TRUNC, VruKind, sensor_positions, table


def truth_track_points(truth: np.ndarray, timestamps, body_extent) -> np.ndarray:
    """A track table of the truth trajectory's rows nearest the given timestamps, at them."""
    nearest = truth[_nearest(truth["timestamp"], timestamps)]
    length, width = body_extent
    n = len(nearest)
    return table(eot.TRACK_COLUMNS, (
        timestamps, nearest["x"], nearest["y"], nearest["speed"], nearest["yaw"],
        nearest["yaw_rate"], np.full(n, length), np.full(n, width), nearest["yaw"]))


def _body_extent_for_kind(kind: VruKind) -> tuple[float, float]:
    # Physical full extents implied by the simulator's truncated scatter model.
    along, across = BODY_SIGMA[kind]
    return (2 * SCATTER_TRUNC * along, 2 * SCATTER_TRUNC * across)


def run(args) -> int:
    labeled = io.read_labeled_jsonl(args.labeled)
    meta = io.read_scenario_json(args.scenario)
    scans = labeled.where(labeled.assigned)
    mounts = meta["mounts"]
    sensor_xy = dict(zip([m.sensor_id for m in mounts], sensor_positions(mounts, meta["ego_pose"])))
    unknown = set(scans.sensor_id.tolist()) - set(sensor_xy)
    if unknown:
        raise ConfigError(f"no mount configured for sensor {min(unknown)!r}")
    truth = None  # each non-empty scan gets a track point, scored at the scan's time
    if args.truth_traj is not None:
        truth = _read_truth_traj(args.truth_traj, scans.timestamp)
    points = eot.run_tracker(scans, sensor_xy, use_doppler=args.use_doppler)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_table(out / "track.csv", "vruradar.track.v1", points[list(eot.TRACK_COLUMNS)])
    report = {"tracked_scans": len(points), "use_doppler": bool(args.use_doppler)}
    if truth is not None and len(points):
        truth = truth_track_points(truth, points["timestamp"],
                                   _body_extent_for_kind(meta["vru_kind"]))
        err = eot.tracking_metrics(points, truth)
        io.write_table(out / "errors.csv", "vruradar.track-errors.v1", err)
        report["final_rmse_centroid"] = float(err["rmse_centroid"][-1])
    nis = points["nis"][1:]
    line = f"track: {len(nis)} position updates"
    if len(nis):
        line += (f", mean NIS {nis.mean():.3f}, {np.mean(nis <= eot.NIS_95):.1%} at or below"
                 f" {eot.NIS_95:.3f} (95% bound of chi-square, 2 dof)")
    print(line, file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK
