"""Command-line front end: simulate, annotate, evaluate, signature, track.

Commands exchange data through the versioned files described in `io`; every
command is deterministic given identical inputs and seed.  Exit codes:
0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import eot, evaluation, io, signature
from .annotation import annotate_scenario
from .core import VruKind, compose_pose
from .simulator import (
    BODY_SIGMA,
    PRESET_NAMES,
    SCATTER_TRUNC,
    DetectionRateParams,
    Perturbation,
    ScenarioConfig,
    preset,
    simulate_scenario,
)
from .trajectory import FusionParams, build_fused_trajectory, build_trajectory

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    pass


_SCENARIO_KEYS = {
    "preset": str,
    "seed": int,
    "vru_kind": str,
    "speed": float,
    "course_half_width": float,
    "duration": float,
    "gnss_rate": float,
    "imu_rate": float,
    "radar_rate": float,
    "gnss_sigma": float,
    "clutter_rate": float,
    "lambda0": float,
    "r0": float,
    "perturbation": dict,
}

_PERTURBATION_KEYS = {
    "start": float,
    "duration": float,
    "bias": list,
    "random_walk_sigma": float,
    "onset": float,
    "flagged": bool,
}


def _parse_vru_kind(value) -> VruKind:
    try:
        return VruKind(value)
    except ValueError:
        raise ConfigError(f"invalid vru_kind {value!r}; choose pedestrian or cyclist") from None


def scenario_config_from_dict(raw: dict) -> ScenarioConfig:
    """Build a scenario config from a parsed JSON dict, rejecting unknown keys."""
    unknown = set(raw) - set(_SCENARIO_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    if "preset" in raw:
        base = preset(str(raw["preset"]), seed=int(raw.get("seed", 0)))
    else:
        for key in ("vru_kind", "speed"):
            if key not in raw:
                raise ConfigError(f"missing required config key: {key}")
        base = ScenarioConfig(
            vru_kind=_parse_vru_kind(raw["vru_kind"]),
            speed=float(raw["speed"]),
            rng_seed=int(raw.get("seed", 0)),
        )
    kwargs = {}
    if "vru_kind" in raw:
        kwargs["vru_kind"] = _parse_vru_kind(raw["vru_kind"])
    for key in ("speed", "course_half_width", "duration", "gnss_rate", "imu_rate",
                "radar_rate", "gnss_sigma", "clutter_rate"):
        if key in raw:
            kwargs[key] = float(raw[key])
    if "lambda0" in raw or "r0" in raw:
        kwargs["detection_rate"] = DetectionRateParams(
            lambda0=float(raw.get("lambda0", 12.0)), r0=float(raw.get("r0", 10.0))
        )
    if "perturbation" in raw:
        p = raw["perturbation"]
        unknown = set(p) - set(_PERTURBATION_KEYS)
        if unknown:
            raise ConfigError(f"unknown perturbation key(s): {', '.join(sorted(unknown))}")
        for key in ("start", "duration"):
            if key not in p:
                raise ConfigError(f"missing required perturbation key: {key}")
        bias = tuple(float(v) for v in p["bias"]) if "bias" in p else None
        if bias is not None and len(bias) != 2:
            raise ConfigError("perturbation bias must have two components")
        kwargs["perturbation"] = Perturbation(
            start=float(p["start"]),
            duration=float(p["duration"]),
            bias=bias,
            random_walk_sigma=float(p.get("random_walk_sigma", 0.0)),
            onset=float(p.get("onset", 0.3)),
            flagged=bool(p.get("flagged", False)),
        )
    try:
        return dataclasses.replace(base, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_config_file(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a JSON object")
    return raw


def cmd_simulate(args) -> int:
    if args.config is not None:
        raw = _load_config_file(args.config)
    elif args.preset is not None:
        raw = {"preset": args.preset}
    else:
        raise ConfigError("either --config or --preset is required")
    if args.seed is not None:
        raw["seed"] = args.seed
    cfg = scenario_config_from_dict(raw)

    data = simulate_scenario(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_gnss_csv(out / "gnss.csv", data.gnss)
    io.write_imu_csv(out / "imu.csv", data.imu)
    io.write_radar_jsonl(out / "radar.jsonl", data.scans)
    io.write_truth_labels_jsonl(out / "truth_labels.jsonl", data.labels)
    io.write_traj_csv(out / "truth_traj.csv", data.truth)
    counts = {
        "gnss_samples": len(data.gnss),
        "imu_samples": len(data.imu),
        "radar_scans": len(data.scans),
        "radar_points": sum(len(s.detections) for s in data.scans),
        "truth_states": len(data.truth),
    }
    io.write_scenario_json(
        out / "scenario.json",
        vru_kind=cfg.vru_kind,
        track_id="vru-0",
        seed=cfg.rng_seed,
        ego_pose=cfg.ego_pose,
        mounts=cfg.mounts,
        counts=counts,
    )
    manifest = {"out": str(out), "seed": cfg.rng_seed, "vru_kind": cfg.vru_kind.value, **counts}
    print(json.dumps(manifest, sort_keys=True))
    return EXIT_OK


def cmd_annotate(args) -> int:
    meta = io.read_scenario_json(args.scenario)
    scans = io.read_radar_jsonl(args.radar)
    gnss = io.read_gnss_csv(args.gnss)
    if args.mode == "gnss-imu":
        imu = io.read_imu_csv(args.imu) if args.imu else None
        if imu is None:
            raise ConfigError("--imu is required in gnss-imu mode")
        traj = build_fused_trajectory(gnss, imu, FusionParams())
    else:
        traj = build_trajectory(gnss)
    result = annotate_scenario(
        scans,
        traj,
        meta["vru_kind"],
        meta["mounts"],
        meta["ego_pose"],
        track_id=meta["track_id"],
    )
    io.write_labeled_jsonl(args.out, result.scans)
    print(
        json.dumps(
            {"labeled_scans": len(result.scans), "skipped_scans": result.skipped},
            sort_keys=True,
        )
    )
    return EXIT_OK


def _write_histogram_csv(path, values) -> None:
    hist = evaluation.histogram(values, 0.05, (0.0, max(values) + 1e-9))
    rows = zip(hist.edges[:-1], hist.edges[1:], hist.counts)
    io.write_table(path, "vruradar.histogram.v1", ("bin_left", "bin_right", "count"), rows)


def _collect_cycle_stats(labeled):
    return [evaluation.cycle_stats(scan) for scan in labeled if scan.assigned]


def cmd_evaluate(args) -> int:
    labeled = io.read_labeled_jsonl(args.labeled)
    truth = io.read_truth_labels_jsonl(args.truth_labels)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scores = [
        (avg.value, evaluation.score_assignment(labeled, truth, avg))
        for avg in (evaluation.Averaging.MICRO, evaluation.Averaging.MACRO)
    ]
    io.write_table(
        out / "scores.csv",
        "vruradar.scores.v1",
        ("averaging", "tp", "fp", "fn", "precision", "recall"),
        ((name, s.tp, s.fp, s.fn, s.precision, s.recall) for name, s in scores),
    )
    stats = _collect_cycle_stats(labeled)
    columns = ("timestamp", "n_assigned", "mean_comp_power", "doppler_std", "conf_major",
               "conf_minor", "weighted_count")
    io.write_table(
        out / "cycle_stats.csv",
        "vruradar.cycle-stats.v1",
        columns,
        ([getattr(s, name) for name in columns] for s in stats),
    )
    minors = [s.conf_minor for s in stats if s.conf_minor is not None]
    dstds = [s.doppler_std for s in stats]
    if minors:
        _write_histogram_csv(out / "hist_conf_minor.csv", minors)
    if dstds:
        _write_histogram_csv(out / "hist_doppler_std.csv", dstds)
    if args.compare is not None:
        other_stats = _collect_cycle_stats(io.read_labeled_jsonl(args.compare))
        rows = []
        for name in ("mean_comp_power", "doppler_std", "conf_major", "conf_minor",
                     "weighted_count"):
            a = [v for v in (getattr(s, name) for s in stats) if v is not None]
            b = [v for v in (getattr(s, name) for s in other_stats) if v is not None]
            if len(a) >= 2 and len(b) >= 2:
                res = evaluation.welch_t_test(a, b)
                rows.append((name, res.t, res.dof, res.p_two_sided))
        io.write_table(
            out / "ttests.csv", "vruradar.ttests.v1", ("statistic", "t", "dof", "p_two_sided"), rows
        )
    print(json.dumps({"scans": len(labeled), "cycles_with_detections": len(stats)}, sort_keys=True))
    return EXIT_OK


def cmd_signature(args) -> int:
    labeled = io.read_labeled_jsonl(args.labeled)
    states = None
    if args.truth_traj is not None:
        states = _nearest_states(io.read_traj_csv(args.truth_traj), [s.timestamp for s in labeled])
    grid = signature.accumulate(
        labeled,
        resolution=args.resolution,
        half_extents=(args.half_extent_x, args.half_extent_y),
        states=states,
    )
    out_prefix = Path(args.out)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    signature.write_pgm(grid, str(out_prefix) + ".pgm")
    signature.write_grid_csv(grid, str(out_prefix) + ".csv")
    report = {"total": grid.total, "overflow": grid.overflow}
    if grid.total > 0:
        stats = signature.grid_stats(grid)
        report.update(
            peak_cell=list(stats.peak_cell),
            centroid=list(stats.centroid),
            principal_axes=list(stats.principal_axes),
            orientation=stats.orientation,
        )
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def _tracker_scans_from_labeled(labeled, meta) -> list[eot.TrackerScan]:
    mounts = {m.sensor_id: m for m in meta["mounts"]}
    out = []
    for scan in labeled:
        if not scan.assigned:
            continue
        mount = mounts.get(scan.sensor_id)
        if mount is None:
            raise ConfigError(f"no mount configured for sensor {scan.sensor_id!r}")
        sensor_pose = compose_pose(meta["ego_pose"], mount.pose_in_ego)
        out.append(
            eot.TrackerScan(
                timestamp=scan.timestamp,
                points=scan.assigned.global_xy,
                radial_velocities=scan.assigned.radial_velocity,
                sensor_pos=sensor_pose.xy,
            )
        )
    return out


def _nearest_states(states, timestamps) -> list:
    """The state closest in time to each timestamp; the earlier one on a tie."""
    times = np.array([s.timestamp for s in states])
    return [states[int(np.argmin(np.abs(times - t)))] for t in timestamps]


def truth_track_points(truth_states, timestamps, body_extent) -> list[eot.TrackPoint]:
    """Ground-truth rows aligned with tracker output timestamps."""
    length, width = body_extent
    return [
        eot.TrackPoint(
            timestamp=t,
            x=s.pose.x,
            y=s.pose.y,
            speed=s.speed,
            heading=s.pose.yaw,
            yaw_rate=s.yaw_rate,
            length=length,
            width=width,
            orientation=s.pose.yaw,
        )
        for t, s in zip(timestamps, _nearest_states(truth_states, timestamps))
    ]


def _body_extent_for_kind(kind: VruKind) -> tuple[float, float]:
    # Physical full extents implied by the simulator's truncated scatter model.
    along, across = BODY_SIGMA[kind]
    return (2 * SCATTER_TRUNC * along, 2 * SCATTER_TRUNC * across)


def cmd_track(args) -> int:
    labeled = io.read_labeled_jsonl(args.labeled)
    meta = io.read_scenario_json(args.scenario)
    scans = _tracker_scans_from_labeled(labeled, meta)
    points = eot.run_tracker(scans, eot.TrackerParams(), use_doppler=args.use_doppler)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    columns = ("timestamp", "x", "y", "speed", "heading", "yaw_rate", "length", "width",
               "orientation")
    io.write_table(
        out / "track.csv",
        "vruradar.track.v1",
        columns,
        ([getattr(p, name) for name in columns] for p in points),
    )
    report = {"tracked_scans": len(points), "use_doppler": bool(args.use_doppler)}
    if args.truth_traj is not None and points:
        truth_states = io.read_traj_csv(args.truth_traj)
        truth = truth_track_points(
            truth_states,
            [p.timestamp for p in points],
            _body_extent_for_kind(meta["vru_kind"]),
        )
        err = eot.tracking_metrics(points, truth)
        io.write_table(
            out / "errors.csv",
            "vruradar.track-errors.v1",
            ("timestamp", "rmse_centroid", "rmse_length", "rmse_width", "abs_yaw_rate_error",
             "abs_orientation_error_deg"),
            zip(err.timestamps, err.rmse_centroid, err.rmse_length, err.rmse_width,
                err.abs_yaw_rate_error, err.abs_orientation_error_deg),
        )
        report["final_rmse_centroid"] = float(err.rmse_centroid[-1])
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vruradar",
        description="Radar-to-trajectory annotation, signatures, evaluation, and tracking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scenario")
    p.add_argument("--config", help="JSON scenario config")
    p.add_argument("--preset", choices=PRESET_NAMES, help="named scenario preset")
    p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("annotate", help="assign radar detections to the reference track")
    p.add_argument("--scenario", required=True, help="scenario.json manifest")
    p.add_argument("--radar", required=True)
    p.add_argument("--gnss", required=True)
    p.add_argument("--imu", default=None)
    p.add_argument("--mode", choices=("gnss-only", "gnss-imu"), default="gnss-imu")
    p.add_argument("--out", required=True, help="labeled.jsonl output path")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("evaluate", help="score labeled scans and export statistics")
    p.add_argument("--labeled", required=True)
    p.add_argument("--truth-labels", required=True)
    p.add_argument("--compare", default=None, help="second labeled.jsonl for t-tests")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("signature", help="accumulate an object-centered signature grid")
    p.add_argument("--labeled", required=True)
    p.add_argument("--truth-traj", default=None, help="center on the truth trajectory instead")
    p.add_argument("--resolution", type=float, default=0.05)
    p.add_argument("--half-extent-x", type=float, default=2.5)
    p.add_argument("--half-extent-y", type=float, default=1.5)
    p.add_argument("--out", required=True, help="output path prefix (.pgm/.csv appended)")
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("track", help="run the extended-object tracker over labeled scans")
    p.add_argument("--labeled", required=True)
    p.add_argument("--scenario", required=True, help="scenario.json manifest")
    p.add_argument("--truth-traj", default=None, help="enables the error series output")
    p.add_argument("--use-doppler", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_track)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, io.SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
