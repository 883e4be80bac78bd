"""`vruradar simulate`: a scenario config, from a JSON file or a preset, to a drive's files."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from .. import io, simulator
from ..cli import EXIT_OK, ConfigError
from ..core import VruKind


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
                     "radar_rate", "gnss_sigma", "clutter_rate", "lambda0", "r0"), _number),
}
_PERTURBATION_KEYS = {
    "start": _number,
    "duration": _number,
    "bias": _parse_bias,
    "random_walk_sigma": _number,
    "onset": _number,
    "flagged": _flag,
}
_SCENARIO_KEYS = {"preset", "seed", "perturbation", *_FIELD_KEYS}


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
    try:
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


def run(args) -> int:
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
