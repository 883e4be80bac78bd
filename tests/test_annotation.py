import math
from dataclasses import replace

import numpy as np
import pytest

from vruradar.annotation import annotate_scenario
from vruradar.core import Detections, Pose, RadarScan, SensorMount, VruKind, to_local
from vruradar.evaluation import per_scan_counts, score_assignment, score_from_counts
from vruradar.simulator import preset, simulate_scenario
from vruradar.trajectory import ReferenceTrajectory, build_fused_trajectory

from conftest import global_to_polar, radar_table, truth_map, truth_table


EGO = Pose(-5.0, 0.0, 0.0)
MOUNT = SensorMount("r0", Pose(0.0, 0.0, 0.0), math.radians(70), 60.0)


def straight_trajectory():
    times = np.linspace(0.0, 10.0, 51)
    xy = np.stack([1.0 * times, np.zeros_like(times)], axis=1)
    return ReferenceTrajectory(times, xy)


def scan_with_points(t, points_global, sensor_id="r0"):
    r, az = global_to_polar(np.reshape(points_global, (-1, 2)), MOUNT, EGO)
    n = len(r)
    dets = Detections(range_m=r, azimuth=az, radial_velocity=np.zeros(n),
                      amplitude=np.full(n, 20.0))
    return RadarScan(timestamp=t, sensor_id=sensor_id, detections=dets)


def test_partition_is_exhaustive_and_exclusive():
    traj = straight_trajectory()
    scans = [scan_with_points(5.0, [(5.0, 0.1), (5.0, 3.0), (4.6, -0.2), (0.0, 0.0)])]
    res = annotate_scenario(radar_table(scans), traj, VruKind.PEDESTRIAN, [MOUNT], EGO)
    scan = res.scans[0]
    assigned, rejected = set(scan.assigned.index.tolist()), set(scan.rejected.index.tolist())
    assert len(scan.assigned) + len(scan.rejected) == 4
    assert assigned | rejected == {0, 1, 2, 3}
    assert assigned & rejected == set()
    assert assigned == {0, 2}


def test_pipeline_fills_consistent_cartesian_fields():
    traj = straight_trajectory()
    pts = [(5.0, 0.1), (4.7, -0.3)]
    res = annotate_scenario(radar_table([scan_with_points(5.0, pts)]), traj, VruKind.PEDESTRIAN,
                            [MOUNT], EGO)
    for dets in (res.scans[0].assigned, res.scans[0].rejected):
        for p_ego, p_glob, r, az in zip(dets.ego, dets.global_xy, dets.range_m, dets.azimuth):
            r2, az2 = global_to_polar(p_glob, MOUNT, EGO)
            assert r2[0] == pytest.approx(r, abs=1e-9)
            assert az2[0] == pytest.approx(az, abs=1e-9)
            assert to_local(p_glob, EGO.x, EGO.y, EGO.yaw) == pytest.approx(p_ego, abs=1e-9)


def test_detections_inside_truth_extent_gives_full_recall():
    traj = straight_trajectory()
    rng = np.random.default_rng(0)
    scans = []
    truth = {}
    for k, t in enumerate(np.linspace(1.0, 9.0, 40)):
        center = np.array([1.0 * t, 0.0])
        pts = center + rng.uniform(-0.3, 0.3, (5, 2))
        scans.append(scan_with_points(round(t, 9), pts))
        for i in range(5):
            truth[(round(t, 9), i)] = "vru"
    res = annotate_scenario(radar_table(scans), traj, VruKind.PEDESTRIAN, [MOUNT], EGO)
    score = score_assignment(res.scans, truth_table(truth))["macro"]
    assert score.recall == 1.0


def test_scans_outside_support_are_skipped():
    traj = straight_trajectory()
    scans = [
        scan_with_points(-1.0, [(0.0, 0.0)]),
        scan_with_points(5.0, [(5.0, 0.0)]),
        scan_with_points(11.0, [(9.0, 0.0)]),
    ]
    res = annotate_scenario(radar_table(scans), traj, VruKind.PEDESTRIAN, [MOUNT], EGO)
    assert res.skipped == 2
    assert len(res.scans) == 1


def test_labeled_scan_invariants_bounding_contains_assigned():
    traj = straight_trajectory()
    rng = np.random.default_rng(1)
    scans = [
        scan_with_points(t, np.array([1.0 * t, 0.0]) + rng.normal(0, 0.25, (6, 2)))
        for t in np.linspace(1.0, 9.0, 30)
    ]
    res = annotate_scenario(radar_table(scans), traj, VruKind.PEDESTRIAN, [MOUNT], EGO)
    for scan in res.scans:
        if scan.bounding is None:
            assert not scan.assigned
            continue
        assert scan.bounding.contains(scan.assigned.global_xy).all()


def test_empty_scan_is_kept_without_bounding():
    traj = straight_trajectory()
    scans = [RadarScan(timestamp=5.0, sensor_id="r0", detections=Detections([], [], [], []))]
    res = annotate_scenario(radar_table(scans), traj, VruKind.PEDESTRIAN, [MOUNT], EGO)
    assert len(res.scans) == 1
    assert len(res.scans[0].assigned) == 0 and len(res.scans[0].rejected) == 0
    assert res.scans[0].bounding is None


def test_output_in_timestamp_order():
    traj = straight_trajectory()
    scans = [scan_with_points(t, [(t, 0.0)]) for t in (7.0, 2.0, 5.0)]
    res = annotate_scenario(radar_table(scans), traj, VruKind.PEDESTRIAN, [MOUNT], EGO)
    assert [s.timestamp for s in res.scans] == [2.0, 5.0, 7.0]


def test_unknown_sensor_raises():
    traj = straight_trajectory()
    scans = [scan_with_points(5.0, [(5.0, 0.0)], sensor_id="mystery")]
    with pytest.raises(ValueError, match="no mount configured for sensor 'mystery'"):
        annotate_scenario(radar_table(scans), traj, VruKind.PEDESTRIAN, [MOUNT], EGO)


def test_repeated_mount_id_raises():
    # One radar's points would be placed with the other mount's pose.
    other = SensorMount(MOUNT.sensor_id, Pose(1.0, -0.5, 0.0), MOUNT.fov_azimuth,
                        MOUNT.max_range)
    scans = [scan_with_points(5.0, [(5.0, 0.0)])]
    with pytest.raises(ValueError, match=f"sensor {MOUNT.sensor_id!r} has more than one mount"):
        annotate_scenario(radar_table(scans), straight_trajectory(), VruKind.PEDESTRIAN,
                          [MOUNT, other], EGO)


def test_annotation_deterministic():
    cfg = preset("pedestrian-nominal", seed=2)
    data = simulate_scenario(cfg)
    from vruradar.trajectory import build_trajectory

    traj = build_trajectory(data.gnss)
    r1 = annotate_scenario(data.scans, traj, cfg.vru_kind, cfg.mounts, cfg.ego_pose)
    r2 = annotate_scenario(data.scans, traj, cfg.vru_kind, cfg.mounts, cfg.ego_pose)
    a, b = r1.scans, r2.scans
    assert a.detections == b.detections and r1.skipped == r2.skipped
    for name in ("timestamp", "sensor_id", "offsets", "n_assigned", "vru_state"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(a.bounding, b.bounding, equal_nan=True)


def test_nominal_scores_match_across_modes():
    # without perturbations the pure-GNSS and fused trajectories must score
    # the same to within a fraction of a percent
    cfg = replace(preset("cyclist-nominal", seed=8), duration=30.0)
    data = simulate_scenario(cfg)
    from vruradar.trajectory import build_fused_trajectory, build_trajectory

    truth = truth_map(data)
    r_gnss = annotate_scenario(
        data.scans, build_trajectory(data.gnss), cfg.vru_kind, cfg.mounts, cfg.ego_pose
    )
    r_imu = annotate_scenario(
        data.scans,
        build_fused_trajectory(data.gnss, data.imu),
        cfg.vru_kind, cfg.mounts, cfg.ego_pose,
    )
    s_gnss = score_assignment(r_gnss.scans, truth)["macro"]
    s_imu = score_assignment(r_imu.scans, truth)["macro"]
    assert s_gnss.precision >= 0.98 and s_gnss.recall >= 0.98
    assert abs(s_gnss.precision - s_imu.precision) < 0.01
    assert abs(s_gnss.recall - s_imu.recall) < 0.01


def test_shrunken_shape_reduces_recall_not_precision():
    # same scene annotated with the selection shape halved: recall drops,
    # precision does not fall below the nominal run's
    cfg = replace(preset("cyclist-nominal", seed=6), duration=30.0)
    data = simulate_scenario(cfg)
    from vruradar import selection
    from vruradar.trajectory import build_trajectory

    traj = build_trajectory(data.gnss)
    truth = truth_map(data)
    nominal = annotate_scenario(data.scans, traj, cfg.vru_kind, cfg.mounts, cfg.ego_pose)
    s_nom = score_assignment(nominal.scans, truth)["macro"]

    orig = selection.cyclist_rectangle

    def shrunken(*state):
        r = orig(*state)
        return selection.OrientedRectangle(r.center, r.length * 0.5, r.width * 0.5, r.orientation)

    from vruradar import annotation

    annotation.cyclist_rectangle, saved = shrunken, annotation.cyclist_rectangle
    try:
        small = annotate_scenario(data.scans, traj, cfg.vru_kind, cfg.mounts, cfg.ego_pose)
    finally:
        annotation.cyclist_rectangle = saved
    s_small = score_assignment(small.scans, truth)["macro"]
    assert s_small.recall < s_nom.recall - 0.02
    assert s_small.precision >= s_nom.precision - 1e-9


@pytest.mark.parametrize("name", ["pedestrian-nominal", "cyclist-nominal"])
@pytest.mark.parametrize("mount_yaws,ego_yaw", [((0.2, -0.2), 0.1), ((0.3, -0.4), -0.2)])
def test_rotated_rig_keeps_nominal_association_quality(name, mount_yaws, ego_yaw):
    # A drive whose radars and ego vehicle are turned, simulated, fused, annotated and scored
    # as `evaluate` scores it: criterion 02's bound holds, and holds only with the yaws.
    cfg = preset(name, seed=1)
    mounts = tuple(replace(m, pose_in_ego=replace(m.pose_in_ego, yaw=yaw))
                   for m, yaw in zip(cfg.mounts, mount_yaws))
    cfg = replace(cfg, duration=20.0, mounts=mounts, ego_pose=replace(cfg.ego_pose, yaw=ego_yaw))
    data = simulate_scenario(cfg)
    traj = build_fused_trajectory(data.gnss, data.imu)
    truth = truth_map(data)

    def macro(mounts, ego_pose):
        result = annotate_scenario(data.scans, traj, cfg.vru_kind, mounts, ego_pose)
        return score_from_counts(per_scan_counts(result.scans, truth))["macro"]

    score = macro(cfg.mounts, cfg.ego_pose)
    assert score.precision >= 0.98 and score.recall >= 0.98, score
    assert macro(preset(name).mounts, replace(cfg.ego_pose, yaw=0.0)).recall < 0.5
