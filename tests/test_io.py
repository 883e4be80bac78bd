import json
import math
import re

import pytest

from vruradar import io
from vruradar.annotation import annotate_scenario
from vruradar.simulator import preset, simulate_scenario
from vruradar.trajectory import (
    GnssQuality,
    GnssSample,
    ImuSample,
    build_trajectory,
)


@pytest.fixture(scope="module")
def small_scenario():
    cfg = preset("cyclist-nominal", seed=13)
    from dataclasses import replace

    return simulate_scenario(replace(cfg, duration=12.0))


def test_gnss_round_trip(tmp_path, small_scenario):
    path = tmp_path / "gnss.csv"
    io.write_gnss_csv(path, small_scenario.gnss)
    back = io.read_gnss_csv(path)
    assert len(back) == len(small_scenario.gnss)
    for a, b in zip(back, small_scenario.gnss):
        assert a.timestamp == pytest.approx(b.timestamp, abs=1e-9)
        assert (a.x, a.y) == (b.x, b.y)
        assert a.quality == b.quality


def test_imu_round_trip_with_optional_yaw(tmp_path):
    samples = [
        ImuSample(timestamp=0.0, yaw_rate=0.1, accel_forward=-0.2, yaw=1.5),
        ImuSample(timestamp=0.5, yaw_rate=-0.3, accel_forward=0.0, yaw=None),
    ]
    path = tmp_path / "imu.csv"
    io.write_imu_csv(path, samples)
    back = io.read_imu_csv(path)
    assert back[0].yaw == 1.5
    assert back[1].yaw is None
    assert back[1].yaw_rate == -0.3


def test_radar_round_trip(tmp_path, small_scenario):
    path = tmp_path / "radar.jsonl"
    io.write_radar_jsonl(path, small_scenario.scans)
    back = io.read_radar_jsonl(path)
    assert len(back) == len(small_scenario.scans)
    for a, b in zip(back, small_scenario.scans):
        assert a.sensor_id == b.sensor_id
        assert a.detections == b.detections


def test_truth_labels_round_trip(tmp_path, small_scenario):
    path = tmp_path / "labels.jsonl"
    io.write_truth_labels_jsonl(path, small_scenario.labels)
    back = io.read_truth_labels_jsonl(path)
    assert back == small_scenario.label_map()


def test_traj_round_trip(tmp_path, small_scenario):
    path = tmp_path / "traj.csv"
    io.write_traj_csv(path, small_scenario.truth)
    back = io.read_traj_csv(path)
    assert len(back) == len(small_scenario.truth)
    for a, b in zip(back[::50], small_scenario.truth[::50]):
        assert a.pose.x == b.pose.x
        assert a.speed == b.speed
        assert a.yaw_rate == b.yaw_rate


@pytest.fixture(scope="module")
def labeled_result(small_scenario):
    cfg = small_scenario.config
    traj = build_trajectory(small_scenario.gnss)
    return annotate_scenario(small_scenario.scans, traj, cfg.vru_kind, cfg.mounts, cfg.ego_pose)


def test_labeled_round_trip_preserves_partition(tmp_path, labeled_result):
    path = tmp_path / "labeled.jsonl"
    io.write_labeled_jsonl(path, labeled_result.scans)
    back = io.read_labeled_jsonl(path)
    assert len(back) == len(labeled_result.scans)
    for a, b in zip(back, labeled_result.scans):
        assert a.timestamp == pytest.approx(b.timestamp, abs=1e-9)
        assert a.vru_kind == b.vru_kind
        assert len(a.assigned) == len(b.assigned)
        assert len(a.rejected) == len(b.rejected)
        assert (a.bounding is None) == (b.bounding is None)
        if a.bounding is not None:
            assert a.bounding.ax_major == b.bounding.ax_major
        assert a.vru_state.pose.x == b.vru_state.pose.x
        assert a.assigned == b.assigned
        assert a.rejected == b.rejected


def test_scenario_manifest_round_trip(tmp_path, small_scenario):
    cfg = small_scenario.config
    path = tmp_path / "scenario.json"
    io.write_scenario_json(
        path, vru_kind=cfg.vru_kind, track_id="vru-0", seed=cfg.rng_seed,
        ego_pose=cfg.ego_pose, mounts=cfg.mounts, counts={"radar_scans": 3},
    )
    meta = io.read_scenario_json(path)
    assert meta["vru_kind"] == cfg.vru_kind
    assert meta["seed"] == cfg.rng_seed
    assert meta["ego_pose"].x == cfg.ego_pose.x
    assert [m.sensor_id for m in meta["mounts"]] == [m.sensor_id for m in cfg.mounts]
    assert meta["mounts"][0].fov_azimuth == pytest.approx(math.radians(60))


@pytest.mark.parametrize("reader,header", [
    (io.read_gnss_csv, "# format=vruradar.gnss.v1"),
    (io.read_imu_csv, "# format=vruradar.imu.v1"),
    (io.read_traj_csv, "# format=vruradar.traj.v1"),
])
def test_csv_readers_reject_wrong_version(tmp_path, reader, header):
    path = tmp_path / "bad.csv"
    path.write_text(header.replace("v1", "v9") + "\ntimestamp,x,y,quality\n", encoding="utf-8")
    with pytest.raises(io.SchemaError):
        reader(path)


@pytest.mark.parametrize("reader", [io.read_radar_jsonl, io.read_truth_labels_jsonl,
                                    io.read_labeled_jsonl])
def test_jsonl_readers_reject_wrong_version(tmp_path, reader):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"format": "vruradar.other.v1"}\n', encoding="utf-8")
    with pytest.raises(io.SchemaError):
        reader(path)


def test_csv_reader_reports_line_numbers(tmp_path):
    path = tmp_path / "gnss.csv"
    path.write_text(
        "# format=vruradar.gnss.v1\ntimestamp,x,y,quality\n"
        "0.000000000,1.0,2.0,FIX_RTK\n0.1,oops,2.0,FIX_RTK\n",
        encoding="utf-8",
    )
    with pytest.raises(io.SchemaError) as err:
        io.read_gnss_csv(path)
    assert err.value.line == 4
    assert "x" in str(err.value)


def test_jsonl_reader_reports_line_numbers(tmp_path):
    path = tmp_path / "radar.jsonl"
    path.write_text(
        '{"format": "vruradar.radar.v1"}\n{"t": 0.0, "sensor_id": "r", "points": []}\nnot json\n',
        encoding="utf-8",
    )
    with pytest.raises(io.SchemaError) as err:
        io.read_radar_jsonl(path)
    assert err.value.line == 3


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(io.SchemaError):
        io.read_gnss_csv(path)


def test_gnss_quality_values_validated(tmp_path):
    path = tmp_path / "gnss.csv"
    path.write_text(
        "# format=vruradar.gnss.v1\ntimestamp,x,y,quality\n0.0,1.0,2.0,GREAT\n",
        encoding="utf-8",
    )
    with pytest.raises(io.SchemaError):
        io.read_gnss_csv(path)


def test_degraded_quality_round_trips(tmp_path):
    samples = [GnssSample(timestamp=0.0, x=0.0, y=0.0, quality=GnssQuality.DEGRADED)]
    path = tmp_path / "gnss.csv"
    io.write_gnss_csv(path, samples)
    assert io.read_gnss_csv(path)[0].quality == GnssQuality.DEGRADED


@pytest.mark.parametrize("kind", ["gnss", "imu", "traj"])
@pytest.mark.parametrize("edit", ["swap", "repeat"])
def test_csv_readers_reject_out_of_order_timestamps(tmp_path, small_scenario, kind, edit):
    path = tmp_path / f"{kind}.csv"
    rows = small_scenario.truth if kind == "traj" else getattr(small_scenario, kind)
    getattr(io, f"write_{kind}_csv")(path, rows)
    lines = path.read_text(encoding="utf-8").splitlines()
    if edit == "swap":  # data rows 100 and 101 sit on file lines 102 and 103
        lines[101], lines[102] = lines[102], lines[101]
    else:
        lines[102] = lines[101]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(io.SchemaError, match="timestamp") as err:
        getattr(io, f"read_{kind}_csv")(path)
    assert (err.value.path, err.value.line) == (path, 103)


def _inject(path, key: str, constant: str) -> int:
    """Replace the first number after `"key": ` (or `"key": [`) below line 1; return its line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for k in range(1, len(lines)):
        lines[k], n = re.subn(rf'("{key}": \[?)[-+0-9.e]+', rf"\g<1>{constant}", lines[k], count=1)
        if n:
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            return k + 1
    raise AssertionError(f"no {key!r} field in {path}")


NON_FINITE = ["NaN", "Infinity", "-Infinity"]


@pytest.mark.parametrize("constant", NON_FINITE)
def test_radar_reader_rejects_non_finite_numbers(tmp_path, small_scenario, constant):
    path = tmp_path / "radar.jsonl"
    io.write_radar_jsonl(path, small_scenario.scans)
    line = _inject(path, "range", constant)
    with pytest.raises(io.SchemaError, match="non-finite") as err:
        io.read_radar_jsonl(path)
    assert err.value.line == line


@pytest.mark.parametrize("constant", NON_FINITE)
def test_truth_labels_reader_rejects_non_finite_numbers(tmp_path, small_scenario, constant):
    path = tmp_path / "labels.jsonl"
    io.write_truth_labels_jsonl(path, small_scenario.labels)
    line = _inject(path, "t", constant)
    with pytest.raises(io.SchemaError, match="non-finite") as err:
        io.read_truth_labels_jsonl(path)
    assert err.value.line == line


@pytest.mark.parametrize("constant", NON_FINITE)
def test_labeled_reader_rejects_non_finite_numbers(tmp_path, labeled_result, constant):
    path = tmp_path / "labeled.jsonl"
    io.write_labeled_jsonl(path, labeled_result.scans)
    line = _inject(path, "global", constant)
    with pytest.raises(io.SchemaError, match="non-finite") as err:
        io.read_labeled_jsonl(path)
    assert err.value.line == line


@pytest.mark.parametrize("constant", NON_FINITE)
def test_scenario_reader_rejects_non_finite_numbers(tmp_path, small_scenario, constant):
    cfg = small_scenario.config
    path = tmp_path / "scenario.json"
    io.write_scenario_json(
        path, vru_kind=cfg.vru_kind, track_id="vru-0", seed=cfg.rng_seed,
        ego_pose=cfg.ego_pose, mounts=cfg.mounts, counts={"radar_scans": 3},
    )
    _inject(path, "max_range", constant)
    with pytest.raises(io.SchemaError, match="non-finite") as err:
        io.read_scenario_json(path)
    assert err.value.path == path


def test_radar_header_must_be_an_object(tmp_path, small_scenario):
    path = tmp_path / "radar.jsonl"
    io.write_radar_jsonl(path, small_scenario.scans)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(["[1]", *lines[1:]]) + "\n", encoding="utf-8")
    with pytest.raises(io.SchemaError, match="JSON object") as err:
        io.read_radar_jsonl(path)
    assert (err.value.path, err.value.line) == (path, 1)


def test_scenario_manifest_must_be_an_object(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(io.SchemaError, match="JSON object") as err:
        io.read_scenario_json(path)
    assert (err.value.path, err.value.line) == (path, 1)


def _edit_record(path, edit) -> int:
    """Apply `edit` to the decoded first record that has an assigned point; return its line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for k in range(1, len(lines)):
        rec = json.loads(lines[k])
        if rec["assigned"]:
            edit(rec)
            lines[k] = json.dumps(rec)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            return k + 1
    raise AssertionError(f"no assigned point in {path}")


@pytest.mark.parametrize("key,value", [
    ("global", None), ("global", [1.0]), ("ego", [1.0, 2.0, 3.0]), ("ego", [1.0, "x"]),
])
def test_labeled_reader_requires_two_number_coordinates(tmp_path, labeled_result, key, value):
    path = tmp_path / "labeled.jsonl"
    io.write_labeled_jsonl(path, labeled_result.scans)
    line = _edit_record(path, lambda rec: rec["assigned"][0].update({key: value}))
    with pytest.raises(io.SchemaError) as err:
        io.read_labeled_jsonl(path)
    assert (err.value.path, err.value.line) == (path, line)


@pytest.mark.parametrize("into", ["assigned", "rejected"])
def test_labeled_reader_rejects_repeated_points(tmp_path, labeled_result, into):
    path = tmp_path / "labeled.jsonl"
    io.write_labeled_jsonl(path, labeled_result.scans)
    line = _edit_record(path, lambda rec: rec[into].append(rec["assigned"][0]))
    with pytest.raises(io.SchemaError, match="more than once") as err:
        io.read_labeled_jsonl(path)
    assert (err.value.path, err.value.line) == (path, line)


def test_truth_labels_reader_rejects_repeated_keys(tmp_path, small_scenario):
    path = tmp_path / "labels.jsonl"
    io.write_truth_labels_jsonl(path, small_scenario.labels)
    lines = path.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[1])
    rec["label"] = "clutter" if rec["label"] == "vru" else "vru"
    lines.append(json.dumps(rec))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(io.SchemaError, match="repeated") as err:
        io.read_truth_labels_jsonl(path)
    assert (err.value.path, err.value.line) == (path, len(lines))
