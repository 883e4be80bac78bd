"""`vruradar simulate`: a scenario config, from a JSON file or a preset, to a drive's files."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from .. import io, simulator
from ..cli import EXIT_OK, ConfigError

# A config key is a field of the record it sets, and only the records check the values.
# These fields are set through the library alone; the key `seed` sets `rng_seed`.
_LIBRARY_ONLY = {"mounts", "ego_pose", "scatter_sigma", "rng_seed"}


def _record_kwargs(raw: dict, record, section: str, extra=(), required=True) -> dict:
    """The entries of `raw` that name a field of `record`.  A ConfigError names a key that
    is neither such a field nor in `extra`, and, with `required`, a field without default
    that `raw` leaves out."""
    fields = [f for f in dataclasses.fields(record) if f.name not in _LIBRARY_ONLY]
    names = {f.name for f in fields}
    unknown = set(raw) - names - set(extra)
    if unknown:
        raise ConfigError(f"unknown {section} key(s): {', '.join(sorted(unknown))}")
    for f in fields if required else ():
        if f.name not in raw and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing required {section} key: {f.name}")
    return {key: value for key, value in raw.items() if key in names}


def scenario_config_from_dict(raw: dict) -> simulator.ScenarioConfig:
    """Build a scenario config from a parsed JSON dict.  The records check every value; a
    ConfigError carries the message of the first one they refuse."""
    kwargs = _record_kwargs(raw, simulator.ScenarioConfig, "config", ("preset", "seed"),
                            required="preset" not in raw)
    window = kwargs.get("perturbation")
    if "perturbation" in kwargs:
        if not isinstance(window, dict):
            raise ConfigError(f"config key 'perturbation' must be a JSON object, got {window!r}")
        window = _record_kwargs(window, simulator.Perturbation, "perturbation")
    seed = raw.get("seed", 0)
    try:
        if window is not None:
            kwargs["perturbation"] = simulator.Perturbation(**window)
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

    # Load the lazy `io` layer before the drive's arrays exist, so that the memory its
    # compilation takes is not added on top of theirs.
    io.GNSS_TAG
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
