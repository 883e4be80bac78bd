"""Command-line front end: simulate, annotate, evaluate, signature, track.

Commands exchange data through the versioned files described in `io`; every
command is deterministic given identical inputs and seed.  Exit codes:
0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import gc
import json
import math
import sys
from pathlib import Path

import numpy as np

# Lazy modules (see __init__): a command loads only the layers whose attributes it reads.
from . import annotation, eot, evaluation, io, signature, simulator, trajectory
from .core import BODY_SIGMA, SCATTER_TRUNC, VruKind, table, to_global

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    pass


def _number(value) -> float:
    return io.finite_number(value, "value")


def _integer(value) -> int:
    if type(value) is not int:
        raise ValueError(f"must be an integer, got {value!r}")
    return value


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _parse_vru_kind(value) -> VruKind:
    try:
        return VruKind(value)
    except ValueError:
        raise ValueError(f"must be pedestrian or cyclist, got {value!r}") from None


def _parse_bias(value) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"must be an [x, y] pair, got {value!r}")
    return (_number(value[0]), _number(value[1]))


# Config keys and their converters; a key left out keeps its dataclass default.
_FIELD_KEYS = {  # ScenarioConfig fields of the same name
    "vru_kind": _parse_vru_kind,
    **dict.fromkeys(("speed", "course_half_width", "duration", "gnss_rate", "imu_rate",
                     "radar_rate", "gnss_sigma", "clutter_rate"), _number),
}
_DETECTION_RATE_KEYS = {"lambda0": _number, "r0": _number}
_PERTURBATION_KEYS = {
    "start": _number,
    "duration": _number,
    "bias": _parse_bias,
    "random_walk_sigma": _number,
    "onset": _number,
    "flagged": _flag,
}
_SCENARIO_KEYS = {"preset", "seed", "perturbation", *_FIELD_KEYS, *_DETECTION_RATE_KEYS}


def _converted(raw: dict, converters: dict, section: str) -> dict:
    out = {}
    for key, convert in converters.items():
        if key in raw:
            try:
                out[key] = convert(raw[key])
            except ValueError as exc:
                raise ConfigError(f"{section} key {key!r} {exc}") from None
    return out


def _parse_perturbation(raw) -> simulator.Perturbation:
    if not isinstance(raw, dict):
        raise ConfigError(f"config key 'perturbation' must be a JSON object, got {raw!r}")
    unknown = set(raw) - set(_PERTURBATION_KEYS)
    if unknown:
        raise ConfigError(f"unknown perturbation key(s): {', '.join(sorted(unknown))}")
    for key in ("start", "duration"):
        if key not in raw:
            raise ConfigError(f"missing required perturbation key: {key}")
    return simulator.Perturbation(**_converted(raw, _PERTURBATION_KEYS, "perturbation"))


def scenario_config_from_dict(raw: dict) -> simulator.ScenarioConfig:
    """Build a scenario config from a parsed JSON dict, rejecting unknown keys and bad values."""
    unknown = set(raw) - _SCENARIO_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    if "preset" not in raw:
        for key in ("vru_kind", "speed"):
            if key not in raw:
                raise ConfigError(f"missing required config key: {key}")
    seed = _converted(raw, {"seed": _integer}, "config").get("seed", 0)
    kwargs = _converted(raw, _FIELD_KEYS, "config")
    rate = _converted(raw, _DETECTION_RATE_KEYS, "config")
    try:
        if rate:
            kwargs["detection_rate"] = simulator.DetectionRateParams(**rate)
        if "perturbation" in raw:
            kwargs["perturbation"] = _parse_perturbation(raw["perturbation"])
        if "preset" in raw:
            return dataclasses.replace(simulator.preset(str(raw["preset"]), seed=seed), **kwargs)
        return simulator.ScenarioConfig(rng_seed=seed, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_config_file(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: byte {exc.object[exc.start]:#04x} "
                          f"at offset {exc.start}") from None
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

    data = simulator.simulate_scenario(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_gnss_csv(out / "gnss.csv", data.gnss)
    io.write_imu_csv(out / "imu.csv", data.imu)
    io.write_radar_jsonl(out / "radar.jsonl", data.scans)
    io.write_truth_labels_jsonl(out / "truth_labels.jsonl", data.scans, data.is_vru)
    io.write_traj_csv(out / "truth_traj.csv", data.truth)
    counts = {
        "gnss_samples": len(data.gnss),
        "imu_samples": len(data.imu),
        "radar_scans": len(data.scans),
        "radar_points": len(data.scans.detections),
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
    io.write_labeled_jsonl(args.out, result.scans)
    print(
        json.dumps(
            {"labeled_scans": len(result.scans), "skipped_scans": result.skipped},
            sort_keys=True,
        )
    )
    return EXIT_OK


def _write_histogram_csv(path, values) -> None:
    hist = evaluation.histogram(values, 0.05, (0.0, values.max() + 1e-9))
    io.write_table(path, "vruradar.histogram.v1", table(
        ("bin_left", "bin_right", "count"), (hist.edges[:-1], hist.edges[1:], hist.counts)))


def cmd_evaluate(args) -> int:
    labeled = io.read_labeled_jsonl(args.labeled)
    truth = io.read_truth_labels_jsonl(args.truth_labels)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    counts = evaluation.per_scan_counts(labeled, truth)
    scores = [(avg.value, *dataclasses.astuple(evaluation.score_from_counts(counts, avg)))
              for avg in (evaluation.Averaging.MICRO, evaluation.Averaging.MACRO)]
    io.write_table(out / "scores.csv", "vruradar.scores.v1", table(
        ("averaging", "tp", "fp", "fn", "precision", "recall"), list(zip(*scores))))
    stats = evaluation.cycle_stats(labeled)
    # An undefined confidence ellipse is NaN in memory and an empty field on file.
    io.write_table(out / "cycle_stats.csv", "vruradar.cycle-stats.v1",
                   io.with_missing(stats, "conf_major", "conf_minor"))
    for name in ("conf_minor", "doppler_std"):
        values = stats[name][~np.isnan(stats[name])]
        if len(values):
            _write_histogram_csv(out / f"hist_{name}.csv", values)
    if args.compare is not None:
        other_stats = evaluation.cycle_stats(io.read_labeled_jsonl(args.compare))
        rows = []
        for name in evaluation.CYCLE_COLUMNS[2:]:
            a, b = (s[name][~np.isnan(s[name])] for s in (stats, other_stats))
            if len(a) >= 2 and len(b) >= 2:
                res = evaluation.welch_t_test(a, b)
                rows.append((name, res.t, res.dof, res.p_two_sided))
        columns = ("statistic", "t", "dof", "p_two_sided")
        io.write_table(out / "ttests.csv", "vruradar.ttests.v1",
                       table(columns, list(zip(*rows)) or [[]] * len(columns)))
    report = {"scans": len(labeled), "cycles_with_detections": len(stats)}
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def cmd_signature(args) -> int:
    for option in ("resolution", "half_extent_x", "half_extent_y"):
        value = getattr(args, option)
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"--{option.replace('_', '-')} must be finite and > 0, got {value}")
    labeled = io.read_labeled_jsonl(args.labeled)
    states = None
    if args.truth_traj is not None:
        truth = _read_truth_traj(args.truth_traj, labeled.timestamp)
        rows = np.column_stack([truth["x"], truth["y"], truth["yaw"]])
        states = rows[_nearest(truth["timestamp"], labeled.timestamp)]
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


def _read_truth_traj(path, timestamps) -> np.ndarray:
    """The --truth-traj table.  A ConfigError names a scan time outside its span, where its
    first or last row would stand in for the truth."""
    truth = io.read_traj_csv(path)
    times = truth["timestamp"]
    if len(times):
        outside = (timestamps < times[0]) | (timestamps > times[-1])
        if outside.any():
            raise ConfigError(f"--truth-traj spans t={times[0]:.9f} to {times[-1]:.9f} s, "
                              f"not scan t={timestamps[outside.argmax()]:.9f}")
    return truth


def _nearest(times, timestamps) -> np.ndarray:
    """Index of the time closest to each timestamp; the earlier one on a tie."""
    times, timestamps = np.asarray(times, dtype=float), np.asarray(timestamps, dtype=float)
    if len(times) < 2:
        if not len(times):
            raise ValueError("no states to match the timestamps with")
        return np.zeros(len(timestamps), dtype=np.int64)
    after = np.clip(np.searchsorted(times, timestamps), 1, len(times) - 1)
    return after - (timestamps - times[after - 1] <= times[after] - timestamps)


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


def cmd_track(args) -> int:
    labeled = io.read_labeled_jsonl(args.labeled)
    meta = io.read_scenario_json(args.scenario)
    scans = labeled.where(labeled.assigned)
    ego = meta["ego_pose"]
    sensor_xy = {m.sensor_id: to_global((m.pose_in_ego.x, m.pose_in_ego.y), ego.x, ego.y, ego.yaw)
                 for m in meta["mounts"]}
    unknown = set(scans.sensor_id.tolist()) - set(sensor_xy)
    if unknown:
        raise ConfigError(f"no mount configured for sensor {min(unknown)!r}")
    truth = None  # each non-empty scan gets a track point, scored at the scan's time
    if args.truth_traj is not None:
        truth = _read_truth_traj(args.truth_traj, scans.timestamp)
    points = eot.run_tracker(scans, sensor_xy, eot.TrackerParams(), use_doppler=args.use_doppler)
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


class _PresetNames:
    """`simulator.PRESET_NAMES`, read only when a --preset value is checked or shown."""

    def __contains__(self, name) -> bool:
        return name in simulator.PRESET_NAMES

    def __iter__(self):
        return iter(simulator.PRESET_NAMES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vruradar",
        description="Radar-to-trajectory annotation, signatures, evaluation, and tracking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scenario")
    scene = p.add_mutually_exclusive_group()
    scene.add_argument("--config", help="JSON scenario config")
    scene.add_argument("--preset", choices=_PresetNames(), metavar="NAME",
                       help="named scenario preset: %(choices)s")
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


def _freeze_heap() -> None:
    # CPython runs atexit hooks before its exit collections, which then skip the frozen heap.
    # A frozen object is never collected as cyclic garbage, so no output may wait on a
    # finalizer: every command writes and closes each of its files before it returns.
    gc.freeze()


def main(argv=None) -> int:
    atexit.unregister(_freeze_heap)  # one hook, however often main is called
    atexit.register(_freeze_heap)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError and io.SchemaError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
