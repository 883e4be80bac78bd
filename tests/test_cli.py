import json
from pathlib import Path

import pytest

from vruradar import io
from vruradar.cli import main


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
    for scan in scans[:50]:
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
        vio.write_truth_labels_jsonl(root / "truth_labels.jsonl", data.labels)
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


def test_track_output_tracks_truth(sim_dir, labeled_path, tmp_path):
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


def test_missing_config_and_preset_exit_2(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path / "x")]) == 2


def test_preset_flag_runs(tmp_path):
    out = tmp_path / "p"
    assert main(["simulate", "--preset", "cyclist-nominal", "--seed", "3", "--out", str(out)]) == 0
    meta = io.read_scenario_json(out / "scenario.json")
    assert meta["seed"] == 3


def test_module_entry_point_subprocess(tmp_path):
    import os
    import subprocess
    import sys

    import vruradar

    # The child imports the same package as this process, installed or not.
    src = str(Path(vruradar.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    out = tmp_path / "sub"
    cfg = write_config(tmp_path / "config.json", duration=5.0)
    proc = subprocess.run(
        [sys.executable, "-m", "vruradar.cli", "simulate",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=env,
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

    def text(value, *_):
        return value

    optional = io._parse_optional_float
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
