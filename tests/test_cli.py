import ast
import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vruradar
from vruradar import cli, eot, io, trajectory
from vruradar.cli import main
from vruradar.core import LabeledTable

from conftest import reorder_scans


def write_config(path: Path, **overrides) -> Path:
    cfg = {"preset": "pedestrian-nominal", "seed": 7, "duration": 20.0}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    cfg = write_config(out / "config.json")
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def labeled_path(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ann") / "labeled.jsonl"
    rc = main([
        "annotate", "--scenario", str(sim_dir / "scenario.json"),
        "--radar", str(sim_dir / "radar.jsonl"),
        "--gnss", str(sim_dir / "gnss.csv"),
        "--imu", str(sim_dir / "imu.csv"),
        "--mode", "gnss-imu", "--out", str(out),
    ])
    assert rc == 0
    return out


def test_simulate_writes_all_files_and_manifest(sim_dir, capsys):
    for name in ("gnss.csv", "imu.csv", "radar.jsonl", "truth_labels.jsonl",
                 "truth_traj.csv", "scenario.json"):
        assert (sim_dir / name).exists()
    meta = io.read_scenario_json(sim_dir / "scenario.json")
    counts = meta["counts"]
    assert counts["gnss_samples"] == len(io.read_gnss_csv(sim_dir / "gnss.csv"))
    assert counts["imu_samples"] == len(io.read_imu_csv(sim_dir / "imu.csv"))
    assert counts["radar_scans"] == len(io.read_radar_jsonl(sim_dir / "radar.jsonl"))


def test_simulate_same_seed_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "config.json")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    for name in ("gnss.csv", "imu.csv", "radar.jsonl", "truth_labels.jsonl", "truth_traj.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_invalid_vru_kind_exit_2(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"vru_kind": "dog", "speed": 1.0}), encoding="utf-8")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "vru_kind" in capsys.readouterr().err


def test_simulate_unknown_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"preset": "pedestrian-nominal", "bogus": 1}), encoding="utf-8")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_simulate_missing_required_key_named(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"vru_kind": "pedestrian"}), encoding="utf-8")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "speed" in capsys.readouterr().err


def test_annotate_output_parses_and_partitions(labeled_path):
    scans = io.read_labeled_jsonl(labeled_path)
    assert len(scans) > 500
    for scan in list(scans)[:50]:
        idxs = sorted(scan.assigned.index.tolist() + scan.rejected.index.tolist())
        assert idxs == list(range(len(idxs)))


def test_annotate_rejects_unknown_format_version(tmp_path, sim_dir, capsys):
    bad = tmp_path / "radar.jsonl"
    lines = (sim_dir / "radar.jsonl").read_text().splitlines()
    lines[0] = json.dumps({"format": "vruradar.radar.v999"})
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main([
        "annotate", "--scenario", str(sim_dir / "scenario.json"),
        "--radar", str(bad),
        "--gnss", str(sim_dir / "gnss.csv"),
        "--imu", str(sim_dir / "imu.csv"),
        "--out", str(tmp_path / "labeled.jsonl"),
    ])
    assert rc == 2


def test_annotate_schema_error_names_line(tmp_path, sim_dir, capsys):
    bad = tmp_path / "gnss.csv"
    lines = (sim_dir / "gnss.csv").read_text().splitlines()
    lines[5] = "not,a,valid,row"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main([
        "annotate", "--scenario", str(sim_dir / "scenario.json"),
        "--radar", str(sim_dir / "radar.jsonl"),
        "--gnss", str(bad),
        "--imu", str(sim_dir / "imu.csv"),
        "--out", str(tmp_path / "labeled.jsonl"),
    ])
    assert rc == 2
    assert ":6:" in capsys.readouterr().err


def test_annotate_infinite_scan_time_exit_2(tmp_path, sim_dir, capsys):
    # json reads 1e400 as infinity; the scan must be refused, not counted as skipped.
    bad = tmp_path / "radar.jsonl"
    lines = (sim_dir / "radar.jsonl").read_text().splitlines()
    rec = json.loads(lines[3])
    rec["t"] = "@t@"
    lines[3] = json.dumps(rec).replace('"@t@"', "1e400")
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main([
        "annotate", "--scenario", str(sim_dir / "scenario.json"),
        "--radar", str(bad),
        "--gnss", str(sim_dir / "gnss.csv"),
        "--imu", str(sim_dir / "imu.csv"),
        "--out", str(tmp_path / "labeled.jsonl"),
    ])
    assert rc == 2
    assert f"{bad}:4: " in capsys.readouterr().err


def test_annotate_names_a_byte_that_is_not_utf8(tmp_path, sim_dir, capsys):
    bad = tmp_path / "radar.jsonl"
    lines = (sim_dir / "radar.jsonl").read_bytes().split(b"\n")
    lines[6] = re.sub(rb'("sensor_id":\s*")', b"\\1\xff", lines[6], count=1)
    bad.write_bytes(b"\n".join(lines))
    rc = main([
        "annotate", "--scenario", str(sim_dir / "scenario.json"),
        "--radar", str(bad),
        "--gnss", str(sim_dir / "gnss.csv"),
        "--imu", str(sim_dir / "imu.csv"),
        "--out", str(tmp_path / "labeled.jsonl"),
    ])
    assert rc == 2
    assert f"error: {bad}:7: byte 0xff is not UTF-8" in capsys.readouterr().err


# json reads the escape \ud800 as a lone surrogate, which no writer can encode again.
@pytest.mark.parametrize("name,line,what", [("radar.jsonl", 2, "radar record"),
                                            ("scenario.json", 1, "scenario manifest")])
def test_annotate_refuses_a_lone_surrogate_in_a_sensor_id(tmp_path, sim_dir, capsys, name, line,
                                                          what):
    files = {name: sim_dir / name for name in ("scenario.json", "radar.jsonl")}
    files[name] = bad = tmp_path / name
    text = (sim_dir / name).read_text(encoding="utf-8")
    bad.write_text(re.sub(r'("sensor_id":\s*")', r"\1\\ud800", text, count=1), encoding="utf-8")
    rc = main([
        "annotate", "--scenario", str(files["scenario.json"]),
        "--radar", str(files["radar.jsonl"]),
        "--gnss", str(sim_dir / "gnss.csv"),
        "--imu", str(sim_dir / "imu.csv"),
        "--out", str(tmp_path / "labeled.jsonl"),
    ])
    assert rc == 2
    assert (f"error: {bad}:{line}: bad {what}: sensor_id holds a lone surrogate '\\ud800'"
            in capsys.readouterr().err)


def test_annotate_string_point_value_exit_2(tmp_path, sim_dir, capsys):
    # A point value must be a JSON number: "5" is not read as 5.0.
    bad = tmp_path / "radar.jsonl"
    lines = (sim_dir / "radar.jsonl").read_text().splitlines()
    k = next(k for k in range(1, len(lines)) if json.loads(lines[k])["points"])
    rec = json.loads(lines[k])
    rec["points"][0]["range"] = "5"
    lines[k] = json.dumps(rec)
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main([
        "annotate", "--scenario", str(sim_dir / "scenario.json"),
        "--radar", str(bad),
        "--gnss", str(sim_dir / "gnss.csv"),
        "--imu", str(sim_dir / "imu.csv"),
        "--out", str(tmp_path / "labeled.jsonl"),
    ])
    assert rc == 2
    assert f"{bad}:{k + 1}: " in capsys.readouterr().err


def test_annotate_gnss_only_mode(sim_dir, tmp_path):
    out = tmp_path / "labeled_gnss.jsonl"
    rc = main([
        "annotate", "--scenario", str(sim_dir / "scenario.json"),
        "--radar", str(sim_dir / "radar.jsonl"),
        "--gnss", str(sim_dir / "gnss.csv"),
        "--mode", "gnss-only", "--out", str(out),
    ])
    assert rc == 0
    assert len(io.read_labeled_jsonl(out)) > 500


def test_annotate_deterministic(sim_dir, tmp_path, labeled_path):
    out2 = tmp_path / "labeled2.jsonl"
    rc = main([
        "annotate", "--scenario", str(sim_dir / "scenario.json"),
        "--radar", str(sim_dir / "radar.jsonl"),
        "--gnss", str(sim_dir / "gnss.csv"),
        "--imu", str(sim_dir / "imu.csv"),
        "--mode", "gnss-imu", "--out", str(out2),
    ])
    assert rc == 0
    assert out2.read_bytes() == labeled_path.read_bytes()


def test_annotate_creates_the_parent_of_out(sim_dir, tmp_path, labeled_path):
    # As simulate, evaluate, signature and track create theirs.
    out = tmp_path / "new" / "dir" / "labeled.jsonl"
    rc = main([
        "annotate", "--scenario", str(sim_dir / "scenario.json"),
        "--radar", str(sim_dir / "radar.jsonl"),
        "--gnss", str(sim_dir / "gnss.csv"),
        "--imu", str(sim_dir / "imu.csv"),
        "--mode", "gnss-imu", "--out", str(out),
    ])
    assert rc == 0
    assert out.read_bytes() == labeled_path.read_bytes()


def test_evaluate_writes_reports(sim_dir, labeled_path, tmp_path):
    out = tmp_path / "eval"
    rc = main([
        "evaluate", "--labeled", str(labeled_path),
        "--truth-labels", str(sim_dir / "truth_labels.jsonl"),
        "--out", str(out),
    ])
    assert rc == 0
    scores = (out / "scores.csv").read_text().splitlines()
    assert scores[0].startswith("# format=")
    rows = {line.split(",")[0]: line.split(",") for line in scores[2:]}
    assert float(rows["macro"][4]) >= 0.98  # precision
    assert float(rows["macro"][5]) >= 0.98  # recall
    assert (out / "cycle_stats.csv").exists()
    assert (out / "hist_conf_minor.csv").exists()
    assert (out / "hist_doppler_std.csv").exists()
    assert not (out / "ttests.csv").exists()


def test_evaluate_compare_detects_extent_shift(tmp_path):
    # two recordings of the same scene, one with a wider body scatter: the
    # per-cycle confidence-ellipse axes must differ significantly
    out = {}
    cfg_path = tmp_path / "base.json"
    cfg_path.write_text(
        json.dumps({"preset": "pedestrian-nominal", "seed": 5, "duration": 30.0}),
        encoding="utf-8",
    )
    for tag in ("slim", "wide"):
        root = tmp_path / tag
        assert main(["simulate", "--config", str(cfg_path), "--out", str(root)]) == 0
        out[tag] = root

    # regenerate the radar stream of the second run with a wider body scatter
    # (the scatter model is a library-level knob, not a CLI one)
    from dataclasses import replace

    from vruradar import io as vio
    from vruradar.simulator import preset, simulate_scenario

    for tag, sx in (("slim", 0.15), ("wide", 0.26)):
        cfg = replace(
            preset("pedestrian-nominal", seed=5), duration=30.0, scatter_sigma=(sx, sx)
        )
        data = simulate_scenario(cfg)
        root = out[tag]
        vio.write_radar_jsonl(root / "radar.jsonl", data.scans)
        vio.write_truth_labels_jsonl(root / "truth_labels.jsonl", data.scans, data.is_vru)
        labeled = root / "labeled.jsonl"
        assert main([
            "annotate", "--scenario", str(root / "scenario.json"),
            "--radar", str(root / "radar.jsonl"),
            "--gnss", str(root / "gnss.csv"),
            "--imu", str(root / "imu.csv"),
            "--out", str(labeled),
        ]) == 0
    rc = main([
        "evaluate", "--labeled", str(out["slim"] / "labeled.jsonl"),
        "--truth-labels", str(out["slim"] / "truth_labels.jsonl"),
        "--compare", str(out["wide"] / "labeled.jsonl"),
        "--out", str(tmp_path / "cmp"),
    ])
    assert rc == 0
    rows = {}
    for line in (tmp_path / "cmp" / "ttests.csv").read_text().splitlines()[2:]:
        parts = line.split(",")
        rows[parts[0]] = float(parts[3])
    assert rows["conf_minor"] < 0.01  # wider body -> significant axis shift
    assert rows["conf_major"] < 0.01


def test_evaluate_compare_emits_ttests(sim_dir, labeled_path, tmp_path):
    out = tmp_path / "eval_cmp"
    rc = main([
        "evaluate", "--labeled", str(labeled_path),
        "--truth-labels", str(sim_dir / "truth_labels.jsonl"),
        "--compare", str(labeled_path),
        "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "ttests.csv").read_text().splitlines()
    assert lines[1] == "statistic,t,dof,p_two_sided"
    assert len(lines) > 2
    # comparing a run against itself: t = 0, p = 1
    for line in lines[2:]:
        parts = line.split(",")
        assert float(parts[1]) == pytest.approx(0.0, abs=1e-12)
        assert float(parts[3]) == pytest.approx(1.0, abs=1e-12)


def test_signature_conservation(sim_dir, labeled_path, tmp_path):
    prefix = tmp_path / "sig"
    rc = main(["signature", "--labeled", str(labeled_path), "--out", str(prefix)])
    assert rc == 0
    assert (tmp_path / "sig.pgm").exists()
    csv_lines = (tmp_path / "sig.csv").read_text().splitlines()
    total = sum(int(line.rsplit(",", 1)[1]) for line in csv_lines[2:])
    assigned = sum(len(s.assigned) for s in io.read_labeled_jsonl(labeled_path))
    assert total <= assigned


def test_signature_with_truth_trajectory(sim_dir, labeled_path, tmp_path):
    prefix = tmp_path / "sig_truth"
    rc = main([
        "signature", "--labeled", str(labeled_path),
        "--truth-traj", str(sim_dir / "truth_traj.csv"),
        "--out", str(prefix),
    ])
    assert rc == 0
    assert (tmp_path / "sig_truth.csv").exists()


def test_track_flag_plumbing(sim_dir, labeled_path, tmp_path):
    outs = {}
    for flag, name in ((True, "dop"), (False, "nodop")):
        out = tmp_path / name
        argv = [
            "track", "--labeled", str(labeled_path),
            "--scenario", str(sim_dir / "scenario.json"),
            "--truth-traj", str(sim_dir / "truth_traj.csv"),
            "--out", str(out),
        ]
        if flag:
            argv.append("--use-doppler")
        assert main(argv) == 0
        assert (out / "track.csv").exists()
        assert (out / "errors.csv").exists()
        outs[name] = (out / "errors.csv").read_text().splitlines()
    assert outs["dop"] != outs["nodop"]
    header = "timestamp,rmse_centroid,rmse_length,rmse_width,abs_yaw_rate_error,abs_orientation_error_deg"
    assert outs["dop"][1] == header


def test_track_output_tracks_truth(sim_dir, labeled_path, tmp_path, capsys):
    out = tmp_path / "trk"
    assert main([
        "track", "--labeled", str(labeled_path),
        "--scenario", str(sim_dir / "scenario.json"),
        "--truth-traj", str(sim_dir / "truth_traj.csv"),
        "--use-doppler", "--out", str(out),
    ]) == 0
    lines = (out / "errors.csv").read_text().splitlines()
    last = lines[-1].split(",")
    assert float(last[1]) < 0.3  # final running centroid RMSE
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert set(report) == {"final_rmse_centroid", "tracked_scans", "use_doppler"}
    # one stderr line on the consistency of the position updates
    match = re.fullmatch(
        r"track: (\d+) position updates, mean NIS (\S+), (\S+)% at or below 5\.991 "
        r"\(95% bound of chi-square, 2 dof\)\n", captured.err)
    assert match, captured.err
    assert int(match[1]) == report["tracked_scans"] - 1
    # a consistent filter: chi-square(2) has mean 2, and 95% of it lies within the bound
    assert 1.0 < float(match[2]) < 4.0
    assert 80.0 < float(match[3]) <= 100.0


def test_evaluate_and_track_on_a_file_without_assigned_points(sim_dir, labeled_path, tmp_path,
                                                               capsys):
    labeled = io.read_labeled_jsonl(labeled_path)
    rejected = tmp_path / "rejected.jsonl"
    io.write_labeled_jsonl(rejected, dataclasses.replace(
        labeled, n_assigned=np.zeros(len(labeled), dtype=np.int64),
        bounding=np.full_like(labeled.bounding, np.nan)))
    capsys.readouterr()
    ev = tmp_path / "eval"
    assert main(["evaluate", "--labeled", str(rejected), "--compare", str(rejected),
                 "--truth-labels", str(sim_dir / "truth_labels.jsonl"), "--out", str(ev)]) == 0
    assert json.loads(capsys.readouterr().out) == {"cycles_with_detections": 0,
                                                   "scans": len(labeled)}
    assert (ev / "cycle_stats.csv").read_text(encoding="utf-8") == (
        "# format=vruradar.cycle-stats.v1\n"
        "timestamp,n_assigned,mean_comp_power,doppler_std,conf_major,conf_minor,weighted_count\n")
    assert (ev / "ttests.csv").read_text(encoding="utf-8") == (
        "# format=vruradar.ttests.v1\nstatistic,t,dof,p_two_sided\n")
    assert sorted(p.name for p in ev.iterdir()) == ["cycle_stats.csv", "scores.csv", "ttests.csv"]

    trk = tmp_path / "trk"
    assert main(["track", "--labeled", str(rejected), "--scenario", str(sim_dir / "scenario.json"),
                 "--truth-traj", str(sim_dir / "truth_traj.csv"), "--use-doppler",
                 "--out", str(trk)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"tracked_scans": 0, "use_doppler": True}
    assert captured.err == "track: 0 position updates\n"
    assert (trk / "track.csv").read_text(encoding="utf-8") == (
        "# format=vruradar.track.v1\n"
        "timestamp,x,y,speed,heading,yaw_rate,length,width,orientation\n")
    assert sorted(p.name for p in trk.iterdir()) == ["track.csv"]


def test_track_names_an_unmounted_sensor(sim_dir, labeled_path, tmp_path, capsys):
    meta = json.loads((sim_dir / "scenario.json").read_text(encoding="utf-8"))
    meta["mounts"] = [m for m in meta["mounts"] if m["sensor_id"] != "radar-left"]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(meta), encoding="utf-8")
    assert main(["track", "--labeled", str(labeled_path), "--scenario", str(scenario),
                 "--out", str(tmp_path / "trk")]) == 2
    assert capsys.readouterr().err == "error: no mount configured for sensor 'radar-left'\n"
    assert not (tmp_path / "trk").exists()


def test_missing_config_and_preset_exit_2(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path / "x")]) == 2


def test_config_file_not_utf8_names_the_file(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.json")
    cfg.write_bytes(cfg.read_bytes().replace(b'"seed"', b'"s\xffeed"'))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert f"config file {cfg} is not UTF-8: byte 0xff" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_config_and_preset_together_are_a_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.json")
    with pytest.raises(SystemExit) as exited:
        main(["simulate", "--config", str(cfg), "--preset", "cyclist-perturbed",
              "--out", str(tmp_path / "x")])
    assert exited.value.code == 2
    assert "argument --preset: not allowed with argument --config" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_unknown_preset_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["simulate", "--preset", "cyclist", "--out", str(tmp_path / "x")])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "argument --preset: invalid choice: 'cyclist'" in err
    for name in ("pedestrian-nominal", "cyclist-nominal", "cyclist-perturbed"):
        assert repr(name) in err
    assert not (tmp_path / "x").exists()


def test_preset_flag_runs(tmp_path):
    out = tmp_path / "p"
    assert main(["simulate", "--preset", "cyclist-nominal", "--seed", "3", "--out", str(out)]) == 0
    meta = io.read_scenario_json(out / "scenario.json")
    assert meta["seed"] == 3


def _child_env() -> dict:
    """Environment for a child interpreter that imports the same package as this process,
    installed or not."""
    src = str(Path(vruradar.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def test_module_entry_point_subprocess(tmp_path):
    out = tmp_path / "sub"
    cfg = write_config(tmp_path / "config.json", duration=5.0)
    proc = subprocess.run(
        [sys.executable, "-m", "vruradar.cli", "simulate",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads(proc.stdout.strip().splitlines()[-1])
    assert manifest["radar_scans"] > 0
    assert (out / "radar.jsonl").exists()


def test_every_output_table_reads_back(sim_dir, labeled_path, tmp_path, capsys):
    ev, trk, sig = tmp_path / "eval", tmp_path / "trk", tmp_path / "sig"
    assert main([
        "evaluate", "--labeled", str(labeled_path),
        "--truth-labels", str(sim_dir / "truth_labels.jsonl"),
        "--compare", str(labeled_path), "--out", str(ev),
    ]) == 0
    cycles = json.loads(capsys.readouterr().out)["cycles_with_detections"]
    assert main([
        "track", "--labeled", str(labeled_path), "--scenario", str(sim_dir / "scenario.json"),
        "--truth-traj", str(sim_dir / "truth_traj.csv"), "--out", str(trk),
    ]) == 0
    tracked = json.loads(capsys.readouterr().out)["tracked_scans"]
    assert main(["signature", "--labeled", str(labeled_path), "--out", str(sig)]) == 0

    def text(texts, _name):
        return np.array(texts, dtype=str)

    optional = io._parse_optional_floats
    hist = ("vruradar.histogram.v1", "bin_left,bin_right,count", {})
    tables = {
        ev / "scores.csv": ("vruradar.scores.v1", "averaging,tp,fp,fn,precision,recall",
                            {"averaging": text}),
        ev / "cycle_stats.csv": ("vruradar.cycle-stats.v1",
                                 "timestamp,n_assigned,mean_comp_power,doppler_std,conf_major,"
                                 "conf_minor,weighted_count",
                                 {"conf_major": optional, "conf_minor": optional}),
        ev / "hist_conf_minor.csv": hist,
        ev / "hist_doppler_std.csv": hist,
        ev / "ttests.csv": ("vruradar.ttests.v1", "statistic,t,dof,p_two_sided",
                            {"statistic": text}),
        trk / "track.csv": ("vruradar.track.v1",
                            "timestamp,x,y,speed,heading,yaw_rate,length,width,orientation", {}),
        trk / "errors.csv": ("vruradar.track-errors.v1",
                             "timestamp,rmse_centroid,rmse_length,rmse_width,"
                             "abs_yaw_rate_error,abs_orientation_error_deg", {}),
        tmp_path / "sig.csv": ("vruradar.grid-csv.v1", "x,y,count", {}),
    }
    rows = {
        path: io.read_table(path, tag, columns.split(","), parsers)
        for path, (tag, columns, parsers) in tables.items()
    }
    assert [r[0] for r in rows[ev / "scores.csv"]] == ["micro", "macro"]
    assert len(rows[ev / "cycle_stats.csv"]) == cycles
    assert sum(r[2] for r in rows[ev / "hist_doppler_std.csv"]) == cycles
    assert [r[0] for r in rows[ev / "ttests.csv"]] == [
        "mean_comp_power", "doppler_std", "conf_major", "conf_minor", "weighted_count"]
    assert len(rows[trk / "track.csv"]) == len(rows[trk / "errors.csv"]) == tracked > 0
    assert len(rows[tmp_path / "sig.csv"]) == 100 * 60  # default 5 m x 3 m grid at 0.05 m


def test_annotate_non_object_header_exit_2(tmp_path, sim_dir, capsys):
    bad = tmp_path / "radar.jsonl"
    lines = (sim_dir / "radar.jsonl").read_text().splitlines()
    bad.write_text("\n".join(["[1]", *lines[1:]]) + "\n", encoding="utf-8")
    rc = main([
        "annotate", "--scenario", str(sim_dir / "scenario.json"), "--radar", str(bad),
        "--gnss", str(sim_dir / "gnss.csv"), "--imu", str(sim_dir / "imu.csv"),
        "--out", str(tmp_path / "labeled.jsonl"),
    ])
    assert rc == 2
    assert f"{bad}:1:" in capsys.readouterr().err


def _labeled_with_edit(labeled_path, tmp_path, edit) -> tuple[Path, int]:
    """A copy of the labeled file with `edit` applied to its first record with assigned points."""
    lines = labeled_path.read_text(encoding="utf-8").splitlines()
    k = next(k for k in range(1, len(lines)) if json.loads(lines[k])["assigned"])
    rec = json.loads(lines[k])
    edit(rec)
    lines[k] = json.dumps(rec)
    bad = tmp_path / "labeled.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return bad, k + 1


@pytest.mark.parametrize("command", ["evaluate", "signature", "track"])
@pytest.mark.parametrize("fault", ["null-global", "repeated-point"])
def test_commands_reject_bad_labeled_points(sim_dir, labeled_path, tmp_path, capsys,
                                            command, fault):
    def edit(rec):
        if fault == "null-global":
            rec["assigned"][0]["global"] = None
        else:
            rec["assigned"].append(rec["assigned"][0])

    bad, line = _labeled_with_edit(labeled_path, tmp_path, edit)
    args = {
        "evaluate": ["--truth-labels", str(sim_dir / "truth_labels.jsonl"),
                     "--out", str(tmp_path / "eval")],
        "signature": ["--out", str(tmp_path / "sig")],
        "track": ["--scenario", str(sim_dir / "scenario.json"), "--out", str(tmp_path / "trk")],
    }[command]
    assert main([command, "--labeled", str(bad), *args]) == 2
    assert f"{bad}:{line}:" in capsys.readouterr().err


# Runs one CLI command (none for a bare import) and prints the scipy modules it loaded,
# whether it loaded orjson and OpenSSL's `_hashlib`, and the package modules that ran; the
# others are still lazy modules that no code has read.
_SCIPY_PROBE = """
import json, sys, types
from vruradar import cli
argv = json.loads(sys.argv[1])
rc = cli.main(argv) if argv else 0
print(json.dumps({"rc": rc, "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
                  "orjson": "orjson" in sys.modules, "hashlib": "_hashlib" in sys.modules,
                  "ran": sorted(name.removeprefix("vruradar.") for name, m in sys.modules.items()
                                if name.startswith("vruradar.") and type(m) is types.ModuleType)}))
"""


def test_no_command_loads_scipy(sim_dir, labeled_path, tmp_path):
    labeled, truth = str(labeled_path), str(sim_dir / "truth_labels.jsonl")
    evaluate = ["evaluate", "--labeled", labeled, "--truth-labels", truth]
    # Each command with the package modules it runs besides cli: its own module in
    # `commands`, core, and the layers it calls.  Every file here has a matching column
    # sidecar, so no command runs `jsonl_decoder`.
    commands = {
        "import": ([], []),
        "simulate": (["simulate", "--config", str(write_config(tmp_path / "config.json",
                                                                 duration=5.0)),
                      "--out", str(tmp_path / "sim")], ["io", "sidecar", "simulator"]),
        "annotate": (["annotate", "--scenario", str(sim_dir / "scenario.json"),
                      "--radar", str(sim_dir / "radar.jsonl"), "--gnss", str(sim_dir / "gnss.csv"),
                      "--imu", str(sim_dir / "imu.csv"), "--out", str(tmp_path / "labeled.jsonl")],
                     ["annotation", "io", "selection", "sidecar", "trajectory"]),
        "evaluate": ([*evaluate, "--out", str(tmp_path / "eval")],
                     ["evaluation", "io", "sidecar"]),
        "signature": (["signature", "--labeled", labeled, "--out", str(tmp_path / "sig")],
                      ["io", "sidecar", "signature"]),
        "track": (["track", "--labeled", labeled, "--scenario", str(sim_dir / "scenario.json"),
                   "--truth-traj", str(sim_dir / "truth_traj.csv"),
                   "--out", str(tmp_path / "trk")], ["eot", "io", "sidecar"]),
        "evaluate --compare": ([*evaluate, "--compare", labeled, "--out", str(tmp_path / "cmp")],
                               ["evaluation", "io", "sidecar"]),
    }
    for name, (argv, layers) in commands.items():
        proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(argv)],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["rc"] == 0, (name, proc.stderr)
        assert result["scipy"] == [], name
        # orjson encodes JSON-Lines text and decodes a file without a matching sidecar, so
        # only the commands that write JSON-Lines files load it.
        assert result["orjson"] == (name in ("simulate", "annotate")), name
        # The sidecar CRCs use zlib: OpenSSL's hashlib would add about 3.7 MB to each process.
        # numpy.random loads it (through `secrets`), so only simulate does.
        assert result["hashlib"] == (name == "simulate"), name
        own = [] if name == "import" else ["commands", f"commands.{argv[0]}", "core"]
        assert result["ran"] == sorted(["cli", *own, *layers]), name


# Reads each (kind, path) of a JSON list with `io`'s reader, then deletes every path's column
# sidecar and reads them all again.  Prints, per read, the table's columns (or the
# SchemaError's message and line) and whether jsonl_decoder and orjson had been loaded by then.
_READ_PROBE = """
import dataclasses, json, os, sys
from vruradar import io

def read(kind, path):
    try:
        got = getattr(io, f"read_{kind}_jsonl")(path)
    except io.SchemaError as exc:
        return {"fault": str(exc), "line": exc.line}
    if kind == "truth_labels":
        return {f.name: repr(getattr(got, f.name).tolist()) for f in dataclasses.fields(got)}
    columns = {f.name: getattr(got.detections, f.name) for f in dataclasses.fields(got.detections)}
    for name in ("timestamp", "sensor_id", "offsets", "n_assigned", "vru_state", "bounding"):
        columns[name] = getattr(got, name, None)
    return {**{name: repr(c.tolist()) for name, c in columns.items() if c is not None},
            "track": repr((getattr(got, "track_id", None), getattr(got, "vru_kind", None)))}

def read_all():
    return [[read(kind, path), "vruradar.jsonl_decoder" in sys.modules, "orjson" in sys.modules]
            for kind, path in files]

files = json.loads(sys.argv[1])
results = read_all()
for _, path in files:
    os.unlink(path + ".cols")
print(json.dumps(results + read_all()))
"""


def test_only_a_file_without_a_matching_sidecar_is_decoded(sim_dir, labeled_path, tmp_path):
    # The decoder module, and orjson, are loaded only for a file whose sidecar is missing or
    # does not match.  Decoded, each file gives the table, or the fault message and line,
    # that it gives with its sidecar.
    sources = {"radar": sim_dir / "radar.jsonl", "truth_labels": sim_dir / "truth_labels.jsonl",
               "labeled": labeled_path}
    scans, labeled = io.read_radar_jsonl(sources["radar"]), io.read_labeled_jsonl(labeled_path)
    repeated = np.r_[0:6, 5:len(scans)]  # the sixth scan twice: it does not follow itself
    radar, rows = scans.take(repeated), labeled.take(repeated)
    faulty = {"radar": lambda p: io.write_radar_jsonl(p, radar),
              "truth_labels": lambda p: io.write_truth_labels_jsonl(
                  p, radar, radar.detections.index % 2 == 0),
              "labeled": lambda p: io.write_labeled_jsonl(p, LabeledTable(
                  rows.timestamp, rows.sensor_id, rows.offsets, rows.detections,
                  labeled.n_assigned[repeated], labeled.vru_state[repeated],
                  labeled.bounding[repeated], labeled.track_id, labeled.vru_kind))}
    files = []
    for name in ("good", "faulty"):  # every good file is read before any faulty one
        for kind, source in sources.items():
            path = tmp_path / f"{kind}-{name}.jsonl"
            if name == "good":
                for suffix in ("", ".cols"):
                    (tmp_path / f"{path.name}{suffix}").write_bytes(
                        (source.parent / f"{source.name}{suffix}").read_bytes())
            else:
                faulty[kind](path)
            files.append([kind, str(path)])
    proc = subprocess.run([sys.executable, "-c", _READ_PROBE, json.dumps(files)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    with_sidecar, decoded = results[:len(files)], results[len(files):]
    assert all(loaded == [False, False] for _, *loaded in with_sidecar[:len(sources)])
    for (kind, _), (got, *loaded), (want, *_) in zip(files, decoded, with_sidecar):
        assert got == want, kind
        assert loaded == [True, True], kind
    faults = [result[0] for result in with_sidecar[len(sources):]]
    assert all("does not follow" in f["fault"] or "repeated label" in f["fault"] for f in faults)
    assert all(f["line"] > 2 for f in faults), faults


# Refuses every scipy import, then runs each argv of a JSON list through the CLI
# and prints the exit codes.
_NO_SCIPY_PIPELINE = """
import json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is not available: {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())
from vruradar import cli
print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_pipeline_runs_without_scipy(tmp_path):
    sim, labeled = tmp_path / "sim", [tmp_path / "labeled-gnss-imu.jsonl",
                                      tmp_path / "labeled-gnss-only.jsonl"]
    commands = [["simulate", "--config", str(write_config(tmp_path / "config.json", duration=5.0)),
                 "--out", str(sim)]]
    for mode, out in zip(("gnss-imu", "gnss-only"), labeled):
        commands.append(["annotate", "--scenario", str(sim / "scenario.json"),
                         "--radar", str(sim / "radar.jsonl"), "--gnss", str(sim / "gnss.csv"),
                         "--imu", str(sim / "imu.csv"), "--mode", mode, "--out", str(out)])
    commands += [
        ["evaluate", "--labeled", str(labeled[0]), "--truth-labels",
         str(sim / "truth_labels.jsonl"), "--compare", str(labeled[1]),
         "--out", str(tmp_path / "eval")],
        ["signature", "--labeled", str(labeled[0]), "--out", str(tmp_path / "sig")],
        ["track", "--labeled", str(labeled[0]), "--scenario", str(sim / "scenario.json"),
         "--truth-traj", str(sim / "truth_traj.csv"), "--use-doppler",
         "--out", str(tmp_path / "trk")],
    ]
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_PIPELINE, json.dumps(commands)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(commands), proc.stderr
    assert (tmp_path / "eval" / "ttests.csv").is_file()


@pytest.mark.parametrize("raw,key", [
    ({"perturbation": None}, "perturbation"),
    ({"speed": None}, "speed"),
    ({"seed": None}, "seed"),
    ({"perturbation": {"start": 1.0, "duration": 2.0, "bias": 5}}, "bias"),
    ({"seed": 1.5}, "seed"),
    ({"gnss_rate": float("inf")}, "gnss_rate"),
    ({"perturbation": {"start": 1.0, "duration": 2.0, "flagged": "false"}}, "flagged"),
    ({"speed": 10**400}, "speed"),  # an integer beyond the float range
], ids=["perturbation-null", "speed-null", "seed-null", "bias-number", "seed-float",
        "rate-infinite", "flagged-string", "speed-huge-integer"])
def test_simulate_config_type_error_exit_2(tmp_path, capsys, raw, key):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"preset": "cyclist-nominal", **raw}), encoding="utf-8")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"{key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("raw,message", [
    ({"lambda0": -5}, "lambda0 must be > 0, got -5.0"),
    ({"r0": 0}, "r0 must be > 0, got 0.0"),
    ({"perturbation": {"start": 1.0, "duration": -2}}, "duration must be > 0, got -2.0"),
    ({"perturbation": {"start": 1.0, "duration": 2.0, "onset": -4}},
     "onset must be >= 0, got -4.0"),
    ({"duration": 0.05}, "duration must be >= 1.0 s to hold a radar scan, got 0.05"),
    ({"duration": 0.3}, "duration must be >= 1.0 s to hold a radar scan, got 0.3"),
    ({"duration": 0.95}, "duration must be >= 1.0 s to hold a radar scan, got 0.95"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
], ids=["lambda0-negative", "r0-zero", "duration-negative", "onset-negative", "duration-0.05",
        "duration-0.3", "duration-0.95", "seed-negative"])
def test_simulate_config_out_of_range_exit_2(tmp_path, capsys, raw, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"preset": "cyclist-nominal", **raw}), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_simulate_preset_refuses_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "cyclist-nominal", "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_every_scenario_config_field_is_a_config_key():
    # A value that no config key sets has one value in use and belongs in a simulator
    # constant; only these fields are set through the library alone, by tests that build scenes.
    from vruradar import simulator
    from vruradar.commands import simulate

    library_only = {"mounts", "ego_pose", "scatter_sigma"}
    keys = {"rng_seed": {"seed"}, "detection_rate": set(simulate._DETECTION_RATE_KEYS)}
    for field in dataclasses.fields(simulator.ScenarioConfig):
        if field.name not in library_only:
            assert keys.get(field.name, {field.name}) <= simulate._SCENARIO_KEYS, field.name
    assert keys["detection_rate"] == {"lambda0", "r0"}
    for cls, section in ((simulator.DetectionRateParams, simulate._DETECTION_RATE_KEYS),
                         (simulator.Perturbation, simulate._PERTURBATION_KEYS)):
        assert {field.name for field in dataclasses.fields(cls)} == set(section)


@pytest.mark.parametrize("fault", ["duplicate", "swap"])
@pytest.mark.parametrize("command", ["annotate", "evaluate"])
def test_commands_reject_repeated_or_backward_scans(sim_dir, labeled_path, tmp_path, capsys,
                                                     command, fault):
    if command == "annotate":
        bad = tmp_path / "radar.jsonl"
        bad.write_bytes((sim_dir / "radar.jsonl").read_bytes())
        argv = ["annotate", "--scenario", str(sim_dir / "scenario.json"), "--radar", str(bad),
                "--gnss", str(sim_dir / "gnss.csv"), "--imu", str(sim_dir / "imu.csv"),
                "--out", str(tmp_path / "labeled.jsonl")]
    else:
        bad = tmp_path / "labeled.jsonl"
        bad.write_bytes(labeled_path.read_bytes())
        argv = ["evaluate", "--labeled", str(bad),
                "--truth-labels", str(sim_dir / "truth_labels.jsonl"),
                "--out", str(tmp_path / "eval")]
    line = reorder_scans(bad, fault)
    assert main(argv) == 2
    assert f"{bad}:{line}: " in capsys.readouterr().err


def test_track_extent_error_exit_1(sim_dir, labeled_path, tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise eot.ExtentError("extent matrix is not positive definite")

    monkeypatch.setattr(eot, "run_tracker", broken)
    rc = main(["track", "--labeled", str(labeled_path),
               "--scenario", str(sim_dir / "scenario.json"), "--out", str(tmp_path / "trk")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: extent matrix is not positive definite"]


def test_annotate_fusion_failure_exit_1(sim_dir, tmp_path, capsys, monkeypatch):
    fuse = trajectory.fuse_gnss_imu
    monkeypatch.setattr(trajectory, "fuse_gnss_imu", lambda *args: fuse(*args)[:1])
    rc = main(["annotate", "--scenario", str(sim_dir / "scenario.json"),
               "--radar", str(sim_dir / "radar.jsonl"), "--gnss", str(sim_dir / "gnss.csv"),
               "--imu", str(sim_dir / "imu.csv"), "--out", str(tmp_path / "labeled.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: fusion produced fewer than two states"]
    assert not (tmp_path / "labeled.jsonl").exists()


@pytest.mark.parametrize("mode,stage", [("gnss-imu", "fused"), ("gnss-only", "GNSS")])
def test_annotate_overflowing_gnss_coordinates_exit_1(sim_dir, tmp_path, mode, stage):
    # Finite coordinates, so the GNSS file reads; smoothing them overflows, a runtime failure
    # that names its stage, with no numpy warning on stderr.
    gnss = io.read_gnss_csv(sim_dir / "gnss.csv")
    gnss["x"] *= 1e306
    io.write_gnss_csv(tmp_path / "gnss.csv", gnss)
    proc = subprocess.run(
        [sys.executable, "-m", "vruradar.cli", "annotate", "--scenario",
         str(sim_dir / "scenario.json"), "--radar", str(sim_dir / "radar.jsonl"),
         "--gnss", str(tmp_path / "gnss.csv"), "--imu", str(sim_dir / "imu.csv"),
         "--mode", mode, "--out", str(tmp_path / "labeled.jsonl")],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 1
    assert proc.stderr == f"error: smoothing the {stage} positions overflows\n"
    assert not (tmp_path / "labeled.jsonl").exists()


@pytest.mark.parametrize("column,statistic", [("radial_velocity", "doppler_std"),
                                              ("global_xy", "conf_major")])
def test_evaluate_overflowing_statistic_exit_1(sim_dir, labeled_path, tmp_path, column,
                                               statistic):
    # Finite values, so the labeled file reads; two of +-1e200 in the first scan with three
    # assigned points make its statistic overflow, a runtime failure that names the
    # statistic and the scan, with no numpy warning on stderr.
    labeled = io.read_labeled_jsonl(labeled_path)
    k = int(np.argmax(labeled.n_assigned >= 3))
    values = getattr(labeled.detections, column).copy()
    rows = labeled.offsets[k] + np.arange(2)
    if column == "global_xy":
        values[rows, 0] = [1e200, -1e200]
    else:
        values[rows] = [1e200, -1e200]
    detections = dataclasses.replace(labeled.detections, **{column: values})
    io.write_labeled_jsonl(tmp_path / "labeled.jsonl",
                           dataclasses.replace(labeled, detections=detections))
    proc = subprocess.run(
        [sys.executable, "-m", "vruradar.cli", "evaluate", "--labeled",
         str(tmp_path / "labeled.jsonl"), "--truth-labels", str(sim_dir / "truth_labels.jsonl"),
         "--out", str(tmp_path / "eval")],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 1
    assert proc.stderr == (f"error: cycle statistic {statistic} overflows at scan "
                           f"t={labeled.timestamp[k]:.9f}\n")
    assert not (tmp_path / "eval" / "cycle_stats.csv").exists()


@pytest.mark.parametrize("option,value,code,error", [
    ("--half-extent-x", "inf", 2, "--half-extent-x must be finite and > 0, got inf"),
    ("--half-extent-y", "-1", 2, "--half-extent-y must be finite and > 0, got -1.0"),
    ("--resolution", "nan", 2, "--resolution must be finite and > 0, got nan"),
    ("--resolution", "0", 2, "--resolution must be finite and > 0, got 0.0"),
    # A grid of 10.7 PiB: no system can allocate it, so numpy refuses at once.
    ("--resolution", "1e-7", 1, "Unable to allocate 10.7 PiB for an array with shape "
                                "(50000000, 30000000) and data type int64"),
    # More cells than an array can index, named without a numpy warning.
    ("--half-extent-x", "1e300", 1, "a grid of 4e+301 x 60 cells is too large to allocate"),
    # 2 * 1.5 / 7 and 2 * 0.0125 / 0.05 = 0.5 both round to no cell.
    ("--resolution", "7", 2, "--resolution 7.0 leaves no cell across --half-extent-y 1.5"),
    ("--half-extent-x", "0.0125", 2,
     "--resolution 0.05 leaves no cell across --half-extent-x 0.0125"),
])
def test_signature_refuses_a_bad_grid(labeled_path, tmp_path, capsys, option, value, code,
                                      error):
    rc = main(["signature", "--labeled", str(labeled_path), option, value,
               "--out", str(tmp_path / "sig")])
    assert rc == code
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("timestamps,expected", [
    ([0.5, 2.0], [0, 1]),  # exact ties keep the earlier state
    ([-3.0, 0.0, 0.4], [0, 0, 0]),  # before and at the first state
    ([3.0, 7.0], [2, 2]),  # at and after the last state
    ([0.6, 1.4, 2.51], [1, 1, 2]),
])
def test_nearest_state_index(timestamps, expected):
    assert cli._nearest([0.0, 1.0, 3.0], timestamps).tolist() == expected


def test_nearest_state_index_matches_argmin():
    times = [0.0, 0.25, 0.5, 1.0, 1.75]
    stamps = [k / 8 - 0.5 for k in range(24)]
    argmin = [min(range(len(times)), key=lambda i: abs(times[i] - t)) for t in stamps]
    assert cli._nearest(times, stamps).tolist() == argmin
    assert cli._nearest([2.0], [1.0, 3.0]).tolist() == [0, 0]


def test_evaluate_rejects_an_unknown_truth_label(tmp_path, sim_dir, labeled_path, capsys):
    bad = tmp_path / "truth_labels.jsonl"
    lines = (sim_dir / "truth_labels.jsonl").read_text().splitlines()
    lines[6] = re.sub(r'"label":\s*"(vru|clutter)"', '"label": null', lines[6])
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["evaluate", "--labeled", str(labeled_path), "--truth-labels", str(bad),
               "--out", str(tmp_path / "eval")])
    assert rc == 2
    assert f"{bad}:7: bad label record: label must be 'vru' or 'clutter', got None" in (
        capsys.readouterr().err)
    assert not (tmp_path / "eval" / "scores.csv").exists()


def _truth_traj_within(sim_dir, tmp_path, lo: float, hi: float) -> Path:
    """The drive's truth trajectory, cut to the rows from `lo` to `hi` s."""
    path = tmp_path / "truth_traj.csv"
    io.write_traj_csv(path, (truth := io.read_traj_csv(sim_dir / "truth_traj.csv"))[
        (truth["timestamp"] >= lo) & (truth["timestamp"] <= hi)])
    return path


def _refused_scan_time(err: str, lo: float, hi: float) -> float:
    match = re.fullmatch(rf"error: --truth-traj spans t={lo:.9f} to {hi:.9f} s, "
                         r"not scan t=(\S+)\n", err)
    assert match, err
    return float(match[1])


@pytest.mark.parametrize("lo,hi", [(0.0, 10.0), (5.0, 20.0)])
def test_signature_refuses_a_truth_traj_that_misses_a_scan(sim_dir, labeled_path, tmp_path,
                                                           capsys, lo, hi):
    truth = _truth_traj_within(sim_dir, tmp_path, lo, hi)
    out = tmp_path / "sig" / "grid"
    assert main(["signature", "--labeled", str(labeled_path), "--truth-traj", str(truth),
                 "--out", str(out)]) == 2
    t = _refused_scan_time(capsys.readouterr().err, lo, hi)
    assert not lo <= t <= hi
    assert t in io.read_labeled_jsonl(labeled_path).timestamp
    assert not out.parent.exists()


@pytest.mark.parametrize("lo,hi", [(0.0, 10.0), (5.0, 20.0)])
def test_track_refuses_a_truth_traj_that_misses_a_scan(sim_dir, labeled_path, tmp_path, capsys,
                                                       lo, hi):
    truth = _truth_traj_within(sim_dir, tmp_path, lo, hi)
    out = tmp_path / "trk"
    assert main(["track", "--labeled", str(labeled_path), "--scenario",
                 str(sim_dir / "scenario.json"), "--truth-traj", str(truth),
                 "--out", str(out)]) == 2
    t = _refused_scan_time(capsys.readouterr().err, lo, hi)
    assert not lo <= t <= hi
    labeled = io.read_labeled_jsonl(labeled_path)
    assert t in labeled.timestamp[labeled.n_assigned > 0]
    assert not out.exists()


def test_track_reads_the_truth_traj_without_assigned_points(labeled_path, sim_dir, tmp_path,
                                                            capsys):
    labeled = io.read_labeled_jsonl(labeled_path)
    rejected = tmp_path / "rejected.jsonl"
    io.write_labeled_jsonl(rejected, dataclasses.replace(
        labeled, n_assigned=np.zeros(len(labeled), dtype=np.int64),
        bounding=np.full_like(labeled.bounding, np.nan)))
    missing = tmp_path / "no_truth_traj.csv"
    assert main(["track", "--labeled", str(rejected), "--scenario", str(sim_dir / "scenario.json"),
                 "--truth-traj", str(missing), "--out", str(tmp_path / "trk")]) == 1
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "trk").exists()


# Set up before vruradar.cli is imported, the probe counts the process's cyclic collections
# and notes, at each freeze, whether numpy was loaded, whether collection was on, how many
# collections had run and how many objects the freeze left frozen.  Its atexit hook prints
# what it saw and the frozen count at exit.
_GC_PROBE = """
import atexit, gc, sys
collections, freezes = [], []
gc.callbacks.append(lambda phase, info: phase == "start" and collections.append(phase))
freeze = gc.freeze
def counted_freeze():
    seen = "numpy" in sys.modules, gc.isenabled(), len(collections)
    freeze()
    freezes.append((*seen, gc.get_freeze_count()))
gc.freeze = counted_freeze
atexit.register(lambda: print(repr((freezes, enabled, gc.get_freeze_count())), file=sys.stderr))
from vruradar.cli import main
enabled = gc.isenabled()
runs, argv = int(sys.argv[1]), sys.argv[2:]
sys.exit(max([main(argv) for _ in range(runs)]))
"""


@pytest.mark.parametrize("runs", [1, 2])
def test_a_command_process_freezes_its_import_heap_once(labeled_path, tmp_path, runs):
    proc = subprocess.run(
        [sys.executable, "-c", _GC_PROBE, str(runs), "signature", "--labeled",
         str(labeled_path), "--out", str(tmp_path / "sig")],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    freezes, enabled_after_import, frozen_at_exit = ast.literal_eval(proc.stderr)
    # One freeze, once numpy has loaded, with collection off and none run before it.
    assert [f[:3] for f in freezes] == [(True, False, 0)]
    assert enabled_after_import
    assert 0 < frozen_at_exit <= freezes[0][3]  # freed objects leave the frozen generation
    assert (tmp_path / "sig.pgm").exists()


@pytest.mark.parametrize("enabled", [True, False])
def test_importing_the_cli_leaves_gc_enabled_as_it_found_it(enabled):
    probe = ("import gc; gc.enable() if {} else gc.disable(); import vruradar.cli; "
             "print(gc.isenabled(), gc.get_freeze_count() > 0)").format(enabled)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_child_env(), check=True)
    assert proc.stdout.split() == [str(enabled), "True"]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv,code", [
    (["evaluate", "--labeled", "{labeled}", "--truth-labels", "{sim}/truth_labels.jsonl",
      "--out", "{tmp}/eval"], 0),
    (["simulate", "--out", "{tmp}/sim"], 2),  # neither --config nor --preset
    (["simulate", "--no-such-option"], SystemExit),
])
def test_main_leaves_the_callers_gc_state(sim_dir, labeled_path, tmp_path, capsys, argv, code,
                                          enabled):
    argv = [a.format(labeled=labeled_path, sim=sim_dir, tmp=tmp_path) for a in argv]
    (gc.enable if enabled else gc.disable)()
    try:
        before = gc.get_freeze_count(), gc.isenabled()
        if code is SystemExit:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == code
        assert (gc.get_freeze_count(), gc.isenabled()) == before
    finally:
        gc.enable()
