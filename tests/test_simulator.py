import math
from dataclasses import replace

import numpy as np
import pytest

from vruradar.core import LABEL_VRU, VruKind, compose_pose
from vruradar.simulator import (
    EightCourse,
    Perturbation,
    ScenarioConfig,
    generate_gnss,
    generate_imu,
    generate_radar,
    generate_truth,
    preset,
    simulate_scenario,
)


@pytest.fixture(scope="module")
def ped_data():
    return simulate_scenario(preset("pedestrian-nominal", seed=4))


# --- truth course -------------------------------------------------------------

def test_course_passes_origin_twice_per_lap():
    course = EightCourse(6.0, 1.5)
    hits = 0
    for t in np.linspace(0, course.period, 4000, endpoint=False):
        s = course.state_at(t)
        if math.hypot(s.pose.x, s.pose.y) < 0.02:
            hits += 1
    # two crossings, each seen over a couple of consecutive samples
    assert hits >= 2


def test_course_constant_arc_speed():
    course = EightCourse(6.0, 2.0)
    ts = np.linspace(0.1, course.period, 500)
    xy = np.array([[course.state_at(t).pose.x, course.state_at(t).pose.y] for t in ts])
    d = np.linalg.norm(np.diff(xy, axis=0), axis=1) / np.diff(ts)
    assert np.all(np.abs(d - 2.0) / 2.0 < 1e-3)


def test_course_closes_after_one_period():
    course = EightCourse(8.0, 1.4)
    s0 = course.state_at(0.0)
    s1 = course.state_at(course.period)
    assert math.hypot(s1.pose.x - s0.pose.x, s1.pose.y - s0.pose.y) < 1e-6


def test_truth_stream_covers_duration():
    cfg = preset("pedestrian-nominal")
    truth = generate_truth(cfg)
    assert truth[0].timestamp == 0.0
    assert truth[-1].timestamp == pytest.approx(cfg.duration)


# --- GNSS ----------------------------------------------------------------------

def test_gnss_exact_when_noiseless():
    cfg = replace(preset("pedestrian-nominal"), gnss_sigma=0.0, duration=10.0)
    course = EightCourse(cfg.course_half_width, cfg.speed)
    rng = np.random.default_rng(0)
    for s in generate_gnss(course, cfg, rng):
        truth = course.state_at(s.timestamp)
        assert (s.x, s.y) == pytest.approx((truth.pose.x, truth.pose.y), abs=1e-12)


def test_gnss_noise_rms_matches_sigma():
    cfg = replace(preset("pedestrian-nominal"), duration=60.0, gnss_sigma=0.02)
    course = EightCourse(cfg.course_half_width, cfg.speed)
    rng = np.random.default_rng(1)
    samples = generate_gnss(course, cfg, rng)
    assert len(samples) > 1000
    errs = []
    for s in samples:
        truth = course.state_at(s.timestamp)
        errs.append([s.x - truth.pose.x, s.y - truth.pose.y])
    rms = float(np.sqrt(np.mean(np.square(errs))))
    assert rms == pytest.approx(cfg.gnss_sigma, rel=0.1)


def test_gnss_bias_window_sample_count():
    pert = Perturbation(start=5.0, duration=3.0, bias=(2.0, 0.0), onset=1e-9)
    cfg = replace(preset("pedestrian-nominal"), duration=15.0, gnss_sigma=0.0, perturbation=pert)
    course = EightCourse(cfg.course_half_width, cfg.speed)
    samples = generate_gnss(course, cfg, np.random.default_rng(0))
    displaced = 0
    for s in samples:
        truth = course.state_at(s.timestamp)
        if math.hypot(s.x - truth.pose.x, s.y - truth.pose.y) > 1.0:
            displaced += 1
    expect = sum(1 for s in samples if pert.start < s.timestamp < pert.start + pert.duration)
    assert displaced == expect
    assert displaced == pytest.approx(3.0 * cfg.gnss_rate, abs=2)


def test_gnss_degraded_flagging_optional():
    pert = Perturbation(start=2.0, duration=2.0, bias=(2.0, 0.0), flagged=True)
    cfg = replace(preset("pedestrian-nominal"), duration=6.0, perturbation=pert)
    course = EightCourse(cfg.course_half_width, cfg.speed)
    samples = generate_gnss(course, cfg, np.random.default_rng(0))
    flags = {s.quality.value for s in samples if 2.5 <= s.timestamp <= 3.5}
    assert flags == {"DEGRADED"}


# --- IMU -------------------------------------------------------------------------

def test_imu_noiseless_matches_analytic():
    cfg = replace(
        preset("cyclist-nominal"), duration=10.0,
        gyro_sigma=0.0, gyro_bias_sigma=0.0, accel_sigma=0.0, accel_bias_sigma=0.0,
    )
    course = EightCourse(cfg.course_half_width, cfg.speed)
    for s in generate_imu(course, cfg, np.random.default_rng(0)):
        truth = course.state_at(s.timestamp)
        assert s.yaw_rate == pytest.approx(truth.yaw_rate, abs=1e-12)
        assert s.accel_forward == 0.0


def test_imu_integrating_yaw_rate_recovers_heading():
    cfg = replace(
        preset("cyclist-nominal"), duration=20.0,
        gyro_sigma=0.0, gyro_bias_sigma=0.0, accel_sigma=0.0, accel_bias_sigma=0.0,
    )
    course = EightCourse(cfg.course_half_width, cfg.speed)
    samples = generate_imu(course, cfg, np.random.default_rng(0))
    yaw = course.state_at(0.0).pose.yaw
    dt = 1.0 / cfg.imu_rate
    for prev, cur in zip(samples, samples[1:]):
        yaw += 0.5 * (prev.yaw_rate + cur.yaw_rate) * dt
    expect = course.state_at(samples[-1].timestamp).pose.yaw
    assert math.remainder(yaw - expect, 2 * math.pi) == pytest.approx(0.0, abs=1e-3)


def test_imu_constant_bias_drifts_linearly():
    cfg = replace(
        preset("cyclist-nominal"), duration=20.0,
        gyro_sigma=0.0, gyro_bias_sigma=0.05, accel_sigma=0.0, accel_bias_sigma=0.0,
    )
    course = EightCourse(cfg.course_half_width, cfg.speed)
    samples = generate_imu(course, cfg, np.random.default_rng(3))
    bias = samples[0].yaw_rate - course.state_at(0.0).yaw_rate
    assert abs(bias) > 1e-4
    drift = 0.0
    dt = 1.0 / cfg.imu_rate
    for s in samples[1:]:
        drift += (s.yaw_rate - course.state_at(s.timestamp).yaw_rate) * dt
    assert drift == pytest.approx(bias * samples[-1].timestamp, rel=1e-6)


# --- radar -------------------------------------------------------------------------

def test_radar_quantization_steps(ped_data):
    cfg = ped_data.config
    for scan in ped_data.scans[:200]:
        d = scan.detections
        for values, step in ((d.range_m, cfg.range_step), (d.azimuth, cfg.azimuth_step),
                             (d.radial_velocity, cfg.radial_velocity_step)):
            ratio = values / step
            assert ratio == pytest.approx(np.round(ratio), abs=1e-6)
            assert not np.signbit(values[values == 0.0]).any()  # zero is written as 0.0


def test_radar_zero_clutter_all_vru():
    cfg = replace(preset("pedestrian-nominal"), duration=10.0, clutter_rate=0.0)
    course = EightCourse(cfg.course_half_width, cfg.speed)
    scans, labels, _ = generate_radar(course, cfg, np.random.default_rng(0))
    assert len(labels) > 0
    assert all(label == LABEL_VRU for _, _, label in labels)


def test_radar_scan_timestamps_unique(ped_data):
    stamps = [s.timestamp for s in ped_data.scans]
    assert len(set(stamps)) == len(stamps)


def test_radar_detection_count_halves_at_double_range():
    # wider course so both r0 and 2*r0 occur; count VRU points per scan by range
    cfg = replace(
        preset("pedestrian-nominal"), course_half_width=8.0, duration=120.0,
        clutter_rate=0.0, rng_seed=0,
        ego_pose=replace(preset("pedestrian-nominal").ego_pose, x=-14.0),
    )
    data = simulate_scenario(cfg)
    r0 = cfg.detection_rate.r0
    counts = {r0: [], 2 * r0: []}
    mounts = {m.sensor_id: m for m in cfg.mounts}
    for scan in data.scans:
        state = data.course.state_at(scan.timestamp)
        mount = mounts[scan.sensor_id]
        sensor = compose_pose(cfg.ego_pose, mount.pose_in_ego)
        r = math.hypot(state.pose.x - sensor.x, state.pose.y - sensor.y)
        for target in counts:
            if abs(r - target) < 0.75:
                counts[target].append(len(scan.detections))
    assert len(counts[r0]) > 50 and len(counts[2 * r0]) > 50
    ratio = np.mean(counts[2 * r0]) / np.mean(counts[r0])
    assert ratio == pytest.approx(0.5, rel=0.15)


def test_radar_vru_points_within_4_sigma(ped_data):
    cfg = ped_data.config
    sx, sy = cfg.body_sigma()
    for scan, raw in zip(ped_data.scans, ped_data.raw_vru_points):
        state = ped_data.course.state_at(scan.timestamp)
        c, s = math.cos(state.pose.yaw), math.sin(state.pose.yaw)
        for p in raw:
            dx, dy = p[0] - state.pose.x, p[1] - state.pose.y
            u, v = c * dx + s * dy, -s * dx + c * dy
            assert (u / (4 * sx)) ** 2 + (v / (4 * sy)) ** 2 <= 1.0


def test_radar_amplitude_follows_r4_law():
    cfg = replace(preset("pedestrian-nominal"), duration=30.0, amp_sigma_db=0.0, clutter_rate=0.0)
    data = simulate_scenario(cfg)
    mounts = {m.sensor_id: m for m in cfg.mounts}
    for scan, raw in zip(data.scans[:50], data.raw_vru_points[:50]):
        sensor = compose_pose(cfg.ego_pose, mounts[scan.sensor_id].pose_in_ego)
        r_true = np.hypot(raw[:, 0] - sensor.x, raw[:, 1] - sensor.y)
        amp = scan.detections.amplitude
        assert amp == pytest.approx(cfg.amp_ref_db - 40 * np.log10(r_true), abs=1e-9)


def test_simulation_deterministic_under_seed():
    a = simulate_scenario(preset("cyclist-nominal", seed=9))
    b = simulate_scenario(preset("cyclist-nominal", seed=9))
    assert [s.timestamp for s in a.scans] == [s.timestamp for s in b.scans]
    for sa, sb in zip(a.scans, b.scans):
        for column in ("index", "range_m", "azimuth", "radial_velocity", "amplitude"):
            assert getattr(sa.detections, column).tolist() == getattr(sb.detections, column).tolist()
    assert a.labels == b.labels
    assert [(g.x, g.y) for g in a.gnss] == [(g.x, g.y) for g in b.gnss]


def test_presets():
    p1 = preset("pedestrian-nominal")
    p2 = preset("cyclist-nominal")
    p3 = preset("cyclist-perturbed")
    assert p1.vru_kind == VruKind.PEDESTRIAN and p1.speed == 1.4
    assert p2.vru_kind == VruKind.CYCLIST and p2.speed == 3.0
    assert p3.perturbation is not None and p3.perturbation.bias is not None
    with pytest.raises(ValueError):
        preset("unknown")


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(vru_kind=VruKind.PEDESTRIAN, speed=-1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(vru_kind=VruKind.PEDESTRIAN, speed=1.0, duration=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(vru_kind=VruKind.PEDESTRIAN, speed=1.0, gnss_rate=0.0)
