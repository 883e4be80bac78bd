import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from vruradar import io
from vruradar.annotation import annotate_scenario
from vruradar.simulator import preset, simulate_scenario
from vruradar.trajectory import (GNSS_COLUMNS, IMU_COLUMNS, QUALITY_DTYPE, GnssQuality,
                                 build_trajectory)

import reference as ref
from conftest import reorder_scans, series, truth_map


@pytest.fixture(scope="module")
def small_scenario():
    cfg = preset("cyclist-nominal", seed=13)
    return simulate_scenario(replace(cfg, duration=12.0))


def test_gnss_round_trip(tmp_path, small_scenario):
    path = tmp_path / "gnss.csv"
    io.write_gnss_csv(path, small_scenario.gnss)
    back, gnss = io.read_gnss_csv(path), small_scenario.gnss
    assert back.dtype.names == GNSS_COLUMNS and len(back) == len(gnss)
    assert back["timestamp"] == pytest.approx(gnss["timestamp"], abs=1e-9)
    for name in ("x", "y", "quality"):
        assert np.array_equal(back[name], gnss[name])


def test_imu_round_trip_with_optional_yaw(tmp_path):
    imu = series(IMU_COLUMNS, [0.0, 0.5], [0.1, -0.3], [-0.2, 0.0], [1.5, np.nan])
    path = tmp_path / "imu.csv"
    io.write_imu_csv(path, imu)
    assert path.read_text(encoding="utf-8").splitlines()[3] == "0.500000000,-0.3,0.0,"
    back = io.read_imu_csv(path)
    assert back["yaw"][0] == 1.5
    assert np.isnan(back["yaw"][1])  # an empty field is NaN in memory
    assert back["yaw_rate"][1] == -0.3


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
    io.write_truth_labels_jsonl(path, small_scenario.scans, small_scenario.is_vru)
    back = io.read_truth_labels_jsonl(path)
    records = ref.truth_label_records(small_scenario.scans, small_scenario.is_vru)
    assert ref.truth_dict(back) == {(r["t"], r["idx"]): r["label"] for r in records}
    assert ref.truth_dict(back) == ref.truth_dict(truth_map(small_scenario))


def test_traj_round_trip(tmp_path, small_scenario):
    path = tmp_path / "traj.csv"
    io.write_traj_csv(path, small_scenario.truth)
    back, truth = io.read_traj_csv(path), small_scenario.truth
    assert len(back) == len(truth)
    for name in ("x", "y", "yaw", "speed", "yaw_rate"):
        assert np.array_equal(back[name], truth[name])


def test_traj_reader_wraps_yaw(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("# format=vruradar.traj.v1\ntimestamp,x,y,yaw,speed,yaw_rate\n"
                    f"0.0,0.0,0.0,{-math.pi!r},1.0,0.0\n1.0,0.0,0.0,7.0,1.0,0.0\n",
                    encoding="utf-8")
    assert io.read_traj_csv(path)["yaw"].tolist() == [math.pi, 7.0 - 2.0 * math.pi]


def test_traj_reader_rejects_negative_speed_at_its_line(tmp_path, small_scenario):
    path = tmp_path / "traj.csv"
    io.write_traj_csv(path, small_scenario.truth)
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[300].split(",")
    fields[4] = "-1.0"
    lines[300] = ",".join(fields)
    lines[400] = lines[400].replace(",", ",oops,", 1)  # a later fault does not mask it
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(io.SchemaError, match="speed must be >= 0, got -1.0") as err:
        io.read_traj_csv(path)
    assert (err.value.path, err.value.line) == (path, 301)


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
        assert np.array_equal(a.vru_state, b.vru_state)
        assert a.assigned == b.assigned
        assert a.rejected == b.rejected


# JSON has no NaN or infinity, so a writer refuses such a value, naming its column, before it
# opens the file: its own reader would refuse the file.
def test_radar_writer_refuses_a_non_finite_value(tmp_path, small_scenario):
    scans, path = small_scenario.scans, tmp_path / "radar.jsonl"
    amplitude = scans.detections.amplitude.copy()
    amplitude[3] = math.nan
    with pytest.raises(ValueError, match="column 'amplitude' holds a non-finite value"):
        io.write_radar_jsonl(path, replace(scans, detections=replace(scans.detections,
                                                                      amplitude=amplitude)))
    assert not path.exists()


def test_truth_label_writer_refuses_a_non_finite_value(tmp_path, small_scenario):
    # A table refuses a non-finite timestamp when it is made, not when it is changed later.
    scans, path = small_scenario.scans, tmp_path / "labels.jsonl"
    scans = replace(scans, timestamp=scans.timestamp.copy())
    scans.timestamp[2] = math.inf
    with pytest.raises(ValueError, match="column 'timestamp' holds a non-finite value"):
        io.write_truth_labels_jsonl(path, scans, small_scenario.is_vru)
    assert not path.exists()


@pytest.mark.parametrize("column", ["global_xy", "vru_state", "bounding"])
def test_labeled_writer_refuses_a_non_finite_value(tmp_path, labeled_result, column):
    scans, path = labeled_result.scans, tmp_path / "labeled.jsonl"
    k = next(k for k, n in enumerate(scans.n_assigned) if n)  # a scan with a bounding ellipse
    if column == "global_xy":
        values = scans.detections.global_xy.copy()
        values[scans.offsets[k], 1] = -math.inf
        spoilt = replace(scans, detections=replace(scans.detections, global_xy=values))
    else:
        values = getattr(scans, column).copy()
        values[k, 3] = math.nan
        spoilt = replace(scans, **{column: values})
    with pytest.raises(ValueError, match=f"column '{column}' holds a non-finite value"):
        io.write_labeled_jsonl(path, spoilt)
    assert not path.exists()
    # A scan without a bounding ellipse, a NaN row, has a null bounding.
    io.write_labeled_jsonl(path, scans)
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    assert [rec["bounding"] is None for rec in records] == np.isnan(scans.bounding[:, 0]).tolist()
    assert any(rec["bounding"] is None for rec in records)


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


def test_scenario_reader_rejects_a_repeated_sensor_id(tmp_path, small_scenario):
    # Two mounts of one id would place one radar's points with the other's pose.
    cfg = small_scenario.config
    path = tmp_path / "scenario.json"
    io.write_scenario_json(
        path, vru_kind=cfg.vru_kind, track_id="vru-0", seed=cfg.rng_seed,
        ego_pose=cfg.ego_pose, mounts=cfg.mounts, counts={"radar_scans": 3},
    )
    rec = json.loads(path.read_text(encoding="utf-8"))
    rec["mounts"][1]["sensor_id"] = rec["mounts"][0]["sensor_id"]
    path.write_text(json.dumps(rec), encoding="utf-8")
    with pytest.raises(io.SchemaError,
                       match="sensor 'radar-left' has more than one mount") as err:
        io.read_scenario_json(path)
    assert (err.value.path, err.value.line) == (path, 1)


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
    path = tmp_path / "gnss.csv"
    io.write_gnss_csv(path, series(GNSS_COLUMNS, [0.0], 0.0, 0.0, GnssQuality.DEGRADED))
    assert io.read_gnss_csv(path)["quality"].dtype == QUALITY_DTYPE
    assert io.read_gnss_csv(path)["quality"].tolist() == ["DEGRADED"]


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
    """Replace the first number after `"key":` (or `"key": [`) below line 1; return its line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for k in range(1, len(lines)):
        lines[k], n = re.subn(rf'("{key}":\s*\[?\s*)[-+0-9.e]+', rf"\g<1>{constant}", lines[k],
                              count=1)
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
    io.write_truth_labels_jsonl(path, small_scenario.scans, small_scenario.is_vru)
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


@pytest.mark.parametrize("value", [0.5, "0", True])
def test_labeled_reader_requires_integer_point_index(tmp_path, labeled_result, value):
    path = tmp_path / "labeled.jsonl"
    io.write_labeled_jsonl(path, labeled_result.scans)
    line = _edit_record(path, lambda rec: rec["assigned"][0].update(idx=value))
    with pytest.raises(io.SchemaError, match="must be an integer") as err:
        io.read_labeled_jsonl(path)
    assert (err.value.path, err.value.line) == (path, line)


def test_labeled_reader_requires_one_track(tmp_path, labeled_result):
    path = tmp_path / "labeled.jsonl"
    io.write_labeled_jsonl(path, labeled_result.scans)
    _set_raw(path, 3, ("track_id",), '"vru-1"')
    with pytest.raises(io.SchemaError, match="differs from the first") as err:
        io.read_labeled_jsonl(path)
    assert (err.value.path, err.value.line) == (path, 3)


# orjson reads an integer literal outside [-2**63, 2**64) as a float, and json reads it as
# an int; either way no point table holds the idx, and the message names the literal.
@pytest.mark.parametrize("raw", ["9223372036854775808", "18446744073709551616",
                                 "-9223372036854775809", str(2**70)])
@pytest.mark.parametrize("kind", ["truth_labels", "labeled"])
def test_readers_reject_point_index_outside_int64(tmp_path, small_scenario, labeled_result,
                                                  kind, raw):
    path, line = tmp_path / f"{kind}.jsonl", 4
    if kind == "truth_labels":
        io.write_truth_labels_jsonl(path, small_scenario.scans, small_scenario.is_vru)
        keys = ("idx",)
    else:
        io.write_labeled_jsonl(path, labeled_result.scans)
        line = 2 + next(k for k, n in enumerate(labeled_result.scans.n_assigned) if n)
        keys = ("assigned", 0, "idx")
    _set_raw(path, line, keys, raw)
    with pytest.raises(io.SchemaError) as err:
        getattr(io, f"read_{kind}_jsonl")(path)
    assert (err.value.path, err.value.line) == (path, line)
    assert f"point idx {raw} is outside int64" in str(err.value)
    with pytest.raises(io.SchemaError, match=f"point idx {raw} is outside int64") as err:
        getattr(ref, f"read_{kind}_jsonl")(path)
    assert err.value.line == line


@pytest.mark.parametrize("value", [0.5, "0", True])
def test_truth_labels_reader_requires_integer_point_index(tmp_path, small_scenario, value):
    path = tmp_path / "labels.jsonl"
    io.write_truth_labels_jsonl(path, small_scenario.scans, small_scenario.is_vru)
    lines = path.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[3])
    rec["idx"] = value
    lines[3] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(io.SchemaError, match="must be an integer") as err:
        io.read_truth_labels_jsonl(path)
    assert (err.value.path, err.value.line) == (path, 4)


def test_truth_labels_reader_rejects_repeated_keys(tmp_path, small_scenario):
    path = tmp_path / "labels.jsonl"
    io.write_truth_labels_jsonl(path, small_scenario.scans, small_scenario.is_vru)
    lines = path.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[1])
    rec["label"] = "clutter" if rec["label"] == "vru" else "vru"
    lines.append(json.dumps(rec))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(io.SchemaError, match="repeated") as err:
        io.read_truth_labels_jsonl(path)
    assert (err.value.path, err.value.line) == (path, len(lines))


@pytest.mark.parametrize("later", ['{"t": 0.5, "idx": 0, "label": "car"}', '{"t": 0.5,'])
def test_truth_labels_reader_names_a_repeated_key_before_a_later_fault(tmp_path, small_scenario,
                                                                        later):
    # The decoder checks keys for repeats when it builds the table, so a faulty record, or a
    # line that is not JSON, after a repeated key is named only after it.
    path = tmp_path / "labels.jsonl"
    io.write_truth_labels_jsonl(path, small_scenario.scans, small_scenario.is_vru)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.insert(3, lines[1])
    lines.insert(6, later)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(io.SchemaError, match="repeated label") as err:
        io.read_truth_labels_jsonl(path)
    assert (err.value.path, err.value.line) == (path, 4)
    with pytest.raises(io.SchemaError, match="repeated label") as err:
        ref.read_truth_labels_jsonl(path)
    assert err.value.line == 4


@pytest.mark.parametrize("fault", ["duplicate", "swap"])
@pytest.mark.parametrize("kind", ["radar", "labeled"])
def test_scan_readers_reject_repeated_or_backward_scans(tmp_path, small_scenario, labeled_result,
                                                        kind, fault):
    path = tmp_path / f"{kind}.jsonl"
    if kind == "radar":
        io.write_radar_jsonl(path, small_scenario.scans)
        reader = io.read_radar_jsonl
    else:
        io.write_labeled_jsonl(path, labeled_result.scans)
        reader = io.read_labeled_jsonl
    line = reorder_scans(path, fault)
    with pytest.raises(io.SchemaError, match="does not follow") as err:
        reader(path)
    assert (err.value.path, err.value.line) == (path, line)


def test_radar_reader_lets_sensors_share_a_timestamp(tmp_path):
    path = tmp_path / "radar.jsonl"
    records = [{"t": t, "sensor_id": s, "points": []} for t, s in [(0.0, "a"), (0.0, "b"),
                                                                    (0.1, "b"), (0.1, "a")]]
    path.write_text("\n".join(json.dumps(r) for r in [{"format": io.RADAR_TAG}, *records]) + "\n",
                    encoding="utf-8")
    assert [(s.timestamp, s.sensor_id) for s in io.read_radar_jsonl(path)] == [
        (r["t"], r["sensor_id"]) for r in records]


def test_jsonl_reader_line_numbers_count_blank_lines_and_crlf(tmp_path):
    path = tmp_path / "radar.jsonl"
    path.write_bytes(b'{"format": "vruradar.radar.v1"}\r\n\r\n'
                     b'{"t": 0.0, "sensor_id": "r", "points": []}\r\n\nnot json\r\n')
    with pytest.raises(io.SchemaError, match="not valid JSON") as err:
        io.read_radar_jsonl(path)
    assert err.value.line == 5


def _insert_byte(path, line: int, byte: bytes) -> None:
    """Put `byte` after the third byte of `line` of a file with "\\n" line ends."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1][:3] + byte + lines[line - 1][3:]
    path.write_bytes(b"\n".join(lines))


def _write(kind: str, path, small_scenario, labeled_result) -> None:
    scans = small_scenario.scans
    if kind == "scenario":
        cfg = small_scenario.config
        io.write_scenario_json(path, vru_kind=cfg.vru_kind, track_id="vru-0", seed=cfg.rng_seed,
                               ego_pose=cfg.ego_pose, mounts=cfg.mounts, counts={})
    elif kind == "labeled":
        io.write_labeled_jsonl(path, labeled_result.scans)
    elif kind == "truth_labels":
        io.write_truth_labels_jsonl(path, scans, small_scenario.is_vru)
    elif kind == "radar":
        io.write_radar_jsonl(path, scans)
    else:
        getattr(io, f"write_{kind}_csv")(path, getattr(small_scenario, kind))


READERS = {"radar": io.read_radar_jsonl, "truth_labels": io.read_truth_labels_jsonl,
           "labeled": io.read_labeled_jsonl, "scenario": io.read_scenario_json,
           "gnss": io.read_gnss_csv, "imu": io.read_imu_csv}


# A byte that is not UTF-8 is a SchemaError at its line in every codec, also where
# json alone would take it: inside a string, such as a key.
@pytest.mark.parametrize("kind,line,byte", [
    ("radar", 1, b"\xff"), ("radar", 5, b"\xff"), ("radar", 5, b"\xc3("),
    ("radar", 5, b"\xed\xa0\x80"), ("truth_labels", 7, b"\xfe"), ("labeled", 3, b"\x80"),
    ("scenario", 4, b"\xff"), ("gnss", 1, b"\xff"), ("gnss", 2, b"\xff"), ("gnss", 9, b"\xff"),
    ("imu", 6, b"\xc0"),
])
def test_readers_name_a_byte_that_is_not_utf8(tmp_path, small_scenario, labeled_result, kind,
                                              line, byte):
    path = tmp_path / kind
    _write(kind, path, small_scenario, labeled_result)
    _insert_byte(path, line, byte)
    with pytest.raises(io.SchemaError, match=f"byte {byte[0]:#04x} is not UTF-8") as err:
        READERS[kind](path)
    assert (err.value.path, err.value.line) == (path, line)


# Raw JSON for values that are not finite JSON numbers: json reads 1e400 as
# infinity, float() would take the string and the bool, and the integer
# literal does not fit a float.
NOT_NUMBERS = {"overflow": "1e400", "string": '"5"', "bool": "true", "huge-int": "1" + "0" * 400}


def _set_raw(path, line: int, keys: tuple, raw: str) -> None:
    """Set field `keys` of the record on `line` to the raw JSON text `raw`."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[line - 1])
    target = rec
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = "@raw@"
    lines[line - 1] = json.dumps(rec).replace('"@raw@"', raw)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("raw", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
@pytest.mark.parametrize("kind,keys", [
    ("radar", ("t",)),
    ("truth_labels", ("t",)),
    ("labeled", ("t",)),
    ("labeled", ("vru_state", "speed")),
    ("labeled", ("bounding", "cx")),
], ids=["radar-t", "truth-t", "labeled-t", "labeled-speed", "labeled-bounding"])
def test_jsonl_readers_require_finite_json_numbers(tmp_path, small_scenario, labeled_result,
                                                   kind, keys, raw):
    path, line = tmp_path / f"{kind}.jsonl", 4
    if kind == "radar":
        io.write_radar_jsonl(path, small_scenario.scans)
    elif kind == "truth_labels":
        io.write_truth_labels_jsonl(path, small_scenario.scans, small_scenario.is_vru)
    else:
        io.write_labeled_jsonl(path, labeled_result.scans)
        line = 2 + next(k for k, s in enumerate(labeled_result.scans) if s.bounding is not None)
    _set_raw(path, line, keys, raw)
    with pytest.raises(io.SchemaError, match=f"{keys[-1]} must be a finite number") as err:
        getattr(io, f"read_{kind}_jsonl")(path)
    assert (err.value.path, err.value.line) == (path, line)


@pytest.mark.parametrize("raw", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
def test_scenario_reader_requires_finite_json_numbers(tmp_path, small_scenario, raw):
    cfg = small_scenario.config
    path = tmp_path / "scenario.json"
    io.write_scenario_json(
        path, vru_kind=cfg.vru_kind, track_id="vru-0", seed=cfg.rng_seed,
        ego_pose=cfg.ego_pose, mounts=cfg.mounts, counts={"radar_scans": 3},
    )
    rec = json.loads(path.read_text(encoding="utf-8"))
    rec["mounts"][0]["max_range"] = "@raw@"
    path.write_text(json.dumps(rec).replace('"@raw@"', raw), encoding="utf-8")
    with pytest.raises(io.SchemaError, match="max_range must be a finite number") as err:
        io.read_scenario_json(path)
    assert err.value.path == path


POINT_NOT_NUMBERS = {**NOT_NUMBERS, "null": "null"}


@pytest.mark.parametrize("raw", POINT_NOT_NUMBERS.values(), ids=POINT_NOT_NUMBERS)
@pytest.mark.parametrize("kind,keys", [
    ("radar", ("points", 0, "range")),
    ("radar", ("points", 0, "amp")),
    ("labeled", ("assigned", 0, "vr")),
    ("labeled", ("rejected", 0, "amp")),
    ("labeled", ("assigned", 0, "ego", 0)),
], ids=["radar-range", "radar-amp", "labeled-vr", "labeled-rejected-amp", "labeled-ego"])
def test_jsonl_readers_require_finite_json_point_values(tmp_path, small_scenario, labeled_result,
                                                        kind, keys, raw):
    path = tmp_path / f"{kind}.jsonl"
    if kind == "radar":
        io.write_radar_jsonl(path, small_scenario.scans)
        counts = [len(s.detections) for s in small_scenario.scans]
    else:
        io.write_labeled_jsonl(path, labeled_result.scans)
        counts = [len(getattr(s, keys[0])) for s in labeled_result.scans]
    line = 2 + next(k for k, n in enumerate(counts) if n)
    _set_raw(path, line, keys, raw)
    with pytest.raises(io.SchemaError, match="point value must be a finite number") as err:
        getattr(io, f"read_{kind}_jsonl")(path)
    assert (err.value.path, err.value.line) == (path, line)


# A label or id is never coerced with str(): null would become "None" and 1 "1", and a
# point labeled "VRU " would be scored as clutter without an error.
@pytest.mark.parametrize("raw", ["null", '"VRU "', "1", '"Vru"', "true"])
def test_truth_labels_reader_requires_a_known_label(tmp_path, small_scenario, raw):
    path = tmp_path / "labels.jsonl"
    io.write_truth_labels_jsonl(path, small_scenario.scans, small_scenario.is_vru)
    _set_raw(path, 4, ("label",), raw)
    with pytest.raises(io.SchemaError, match="label must be 'vru' or 'clutter'") as err:
        io.read_truth_labels_jsonl(path)
    assert (err.value.path, err.value.line) == (path, 4)


@pytest.mark.parametrize("raw", ["null", "1", "true", '["r"]'])
@pytest.mark.parametrize("kind,key", [("radar", "sensor_id"), ("labeled", "sensor_id"),
                                      ("labeled", "track_id")])
def test_scan_readers_require_string_ids(tmp_path, small_scenario, labeled_result, kind, key,
                                         raw):
    path = tmp_path / f"{kind}.jsonl"
    if kind == "radar":
        io.write_radar_jsonl(path, small_scenario.scans)
    else:
        io.write_labeled_jsonl(path, labeled_result.scans)
    _set_raw(path, 4, (key,), raw)
    with pytest.raises(io.SchemaError, match=f"{key} must be a string") as err:
        getattr(io, f"read_{kind}_jsonl")(path)
    assert (err.value.path, err.value.line) == (path, 4)


# json reads the escape \ud800 as a lone surrogate, which UTF-8 cannot encode, so no
# writer could write the id again: it is refused like a byte that is not UTF-8.
@pytest.mark.parametrize("kind,keys", [
    ("radar", ("sensor_id",)), ("labeled", ("sensor_id",)), ("labeled", ("track_id",)),
    ("scenario", ("track_id",)), ("scenario", ("mounts", 0, "sensor_id")),
])
def test_readers_refuse_a_lone_surrogate_in_an_id(tmp_path, small_scenario, labeled_result,
                                                  kind, keys):
    path = tmp_path / kind
    _write(kind, path, small_scenario, labeled_result)
    if kind == "scenario":
        path.write_text(json.dumps(json.loads(path.read_text(encoding="utf-8"))) + "\n",
                        encoding="utf-8")
    line = 1 if kind == "scenario" else 4
    _set_raw(path, line, keys, '"r\\ud800"')
    message = f"{keys[-1]} holds a lone surrogate '\\ud800'"
    with pytest.raises(io.SchemaError, match=re.escape(message)) as err:
        READERS[kind](path)
    assert (err.value.path, err.value.line) == (path, line)
