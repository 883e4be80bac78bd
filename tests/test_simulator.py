import math
import re
from dataclasses import replace

import numpy as np
import pytest

from vruradar import simulator
from vruradar.core import VruKind
from vruradar.simulator import (
    AMP_REF_DB,
    AZIMUTH_STEP,
    RADIAL_VELOCITY_STEP,
    RANGE_STEP,
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

from conftest import sensor_xy


@pytest.fixture(scope="module")
def ped_data():
    return simulate_scenario(preset("pedestrian-nominal", seed=4))


# --- truth course -------------------------------------------------------------

def test_course_passes_origin_twice_per_lap():
    course = EightCourse(6.0, 1.5)
    xy = course.states(np.linspace(0, course.period, 4000, endpoint=False))[0]
    hits = np.count_nonzero(np.hypot(xy[:, 0], xy[:, 1]) < 0.02)
    # two crossings, each seen over a couple of consecutive samples
    assert hits >= 2


def test_course_constant_arc_speed():
    course = EightCourse(6.0, 2.0)
    ts = np.linspace(0.1, course.period, 500)
    xy = course.states(ts)[0]
    d = np.linalg.norm(np.diff(xy, axis=0), axis=1) / np.diff(ts)
    assert np.all(np.abs(d - 2.0) / 2.0 < 1e-3)


def test_course_closes_after_one_period():
    course = EightCourse(8.0, 1.4)
    p0, p1 = course.states([0.0, course.period])[0]
    assert math.hypot(*(p1 - p0)) < 1e-6


def test_truth_stream_covers_duration():
    cfg = preset("pedestrian-nominal")
    truth = generate_truth(cfg)
    assert truth["timestamp"][0] == 0.0
    assert truth["timestamp"][-1] == pytest.approx(cfg.duration)


# --- GNSS ----------------------------------------------------------------------

def test_gnss_exact_when_noiseless():
    cfg = replace(preset("pedestrian-nominal"), gnss_sigma=0.0, duration=10.0)
    course = EightCourse(cfg.course_half_width, cfg.speed)
    rng = np.random.default_rng(0)
    gnss = generate_gnss(course, cfg, rng)
    truth = course.states(gnss["timestamp"])[0]
    np.testing.assert_allclose(np.column_stack([gnss["x"], gnss["y"]]), truth, rtol=0, atol=1e-12)


def test_gnss_noise_rms_matches_sigma():
    cfg = replace(preset("pedestrian-nominal"), duration=60.0, gnss_sigma=0.02)
    course = EightCourse(cfg.course_half_width, cfg.speed)
    rng = np.random.default_rng(1)
    gnss = generate_gnss(course, cfg, rng)
    assert len(gnss) > 1000
    errs = np.column_stack([gnss["x"], gnss["y"]]) - course.states(gnss["timestamp"])[0]
    rms = float(np.sqrt(np.mean(np.square(errs))))
    assert rms == pytest.approx(cfg.gnss_sigma, rel=0.1)


def test_gnss_bias_window_sample_count():
    pert = Perturbation(start=5.0, duration=3.0, bias=(2.0, 0.0), onset=1e-9)
    cfg = replace(preset("pedestrian-nominal"), duration=15.0, gnss_sigma=0.0, perturbation=pert)
    course = EightCourse(cfg.course_half_width, cfg.speed)
    gnss = generate_gnss(course, cfg, np.random.default_rng(0))
    t = gnss["timestamp"]
    err = np.column_stack([gnss["x"], gnss["y"]]) - course.states(t)[0]
    displaced = np.count_nonzero(np.hypot(err[:, 0], err[:, 1]) > 1.0)
    expect = np.count_nonzero((pert.start < t) & (t < pert.start + pert.duration))
    assert displaced == expect
    assert displaced == pytest.approx(3.0 * cfg.gnss_rate, abs=2)


def test_gnss_random_walk_inside_window_only():
    pert = Perturbation(start=5.0, duration=10.0, random_walk_sigma=0.1)
    cfg = replace(preset("pedestrian-nominal"), duration=20.0, gnss_sigma=0.0, perturbation=pert)
    course = EightCourse(cfg.course_half_width, cfg.speed)
    gnss = generate_gnss(course, cfg, np.random.default_rng(2))
    t = gnss["timestamp"]
    offset = np.column_stack([gnss["x"], gnss["y"]]) - course.states(t)[0]
    inside = (t > pert.start) & (t < pert.start + pert.duration)
    assert not offset[~inside].any()
    steps = np.diff(offset[inside], axis=0, prepend=np.zeros((1, 2)))
    assert len(steps) == pytest.approx(10.0 * cfg.gnss_rate, abs=2)
    assert steps.std() == pytest.approx(pert.random_walk_sigma, rel=0.15)


def test_gnss_degraded_flagging_optional():
    pert = Perturbation(start=2.0, duration=2.0, bias=(2.0, 0.0), flagged=True)
    cfg = replace(preset("pedestrian-nominal"), duration=6.0, perturbation=pert)
    course = EightCourse(cfg.course_half_width, cfg.speed)
    gnss = generate_gnss(course, cfg, np.random.default_rng(0))
    t = gnss["timestamp"]
    flags = set(gnss["quality"][(2.5 <= t) & (t <= 3.5)].tolist())
    assert flags == {"DEGRADED"}


# --- IMU -------------------------------------------------------------------------

@pytest.fixture
def noiseless_imu(monkeypatch):
    for name in ("GYRO_SIGMA", "GYRO_BIAS_SIGMA", "ACCEL_SIGMA", "ACCEL_BIAS_SIGMA"):
        monkeypatch.setattr(simulator, name, 0.0)


def test_imu_noiseless_matches_analytic(noiseless_imu):
    cfg = replace(preset("cyclist-nominal"), duration=10.0)
    course = EightCourse(cfg.course_half_width, cfg.speed)
    imu = generate_imu(course, cfg, np.random.default_rng(0))
    truth_rate = course.states(imu["timestamp"])[3]
    np.testing.assert_allclose(imu["yaw_rate"], truth_rate, rtol=0, atol=1e-12)
    assert not imu["accel_forward"].any()


def test_imu_integrating_yaw_rate_recovers_heading(noiseless_imu):
    cfg = replace(preset("cyclist-nominal"), duration=20.0)
    course = EightCourse(cfg.course_half_width, cfg.speed)
    imu = generate_imu(course, cfg, np.random.default_rng(0))
    rate = imu["yaw_rate"].tolist()
    yaw = float(course.states([0.0])[1][0])
    dt = 1.0 / cfg.imu_rate
    for prev, cur in zip(rate, rate[1:]):
        yaw += 0.5 * (prev + cur) * dt
    expect = float(course.states(imu["timestamp"][-1:])[1][0])
    assert math.remainder(yaw - expect, 2 * math.pi) == pytest.approx(0.0, abs=1e-3)


def test_imu_constant_bias_drifts_linearly(noiseless_imu, monkeypatch):
    monkeypatch.setattr(simulator, "GYRO_BIAS_SIGMA", 0.05)
    cfg = replace(preset("cyclist-nominal"), duration=20.0)
    course = EightCourse(cfg.course_half_width, cfg.speed)
    imu = generate_imu(course, cfg, np.random.default_rng(3))
    error = imu["yaw_rate"] - course.states(imu["timestamp"])[3]
    bias = error[0]
    assert abs(bias) > 1e-4
    drift = error[1:].sum() / cfg.imu_rate
    assert drift == pytest.approx(bias * imu["timestamp"][-1], rel=1e-6)


# --- radar -------------------------------------------------------------------------

def test_radar_quantization_steps(ped_data):
    for scan in list(ped_data.scans)[:200]:
        d = scan.detections
        for values, step in ((d.range_m, RANGE_STEP), (d.azimuth, AZIMUTH_STEP),
                             (d.radial_velocity, RADIAL_VELOCITY_STEP)):
            ratio = values / step
            assert ratio == pytest.approx(np.round(ratio), abs=1e-6)
            assert not np.signbit(values[values == 0.0]).any()  # zero is written as 0.0


def test_radar_zero_clutter_all_vru():
    cfg = replace(preset("pedestrian-nominal"), duration=10.0, clutter_rate=0.0)
    course = EightCourse(cfg.course_half_width, cfg.speed)
    scans, is_vru, _ = generate_radar(course, cfg, np.random.default_rng(0))
    assert len(is_vru) == len(scans.detections) > 0
    assert is_vru.all()


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
    r0 = cfg.r0
    counts = {r0: [], 2 * r0: []}
    mounts = {m.sensor_id: m for m in cfg.mounts}
    for scan, (x, y) in zip(data.scans, data.course.states(data.scans.timestamp)[0].tolist()):
        mount = mounts[scan.sensor_id]
        sx, sy = sensor_xy(mount, cfg.ego_pose)
        r = math.hypot(x - sx, y - sy)
        for target in counts:
            if abs(r - target) < 0.75:
                counts[target].append(len(scan.detections))
    assert len(counts[r0]) > 50 and len(counts[2 * r0]) > 50
    ratio = np.mean(counts[2 * r0]) / np.mean(counts[r0])
    assert ratio == pytest.approx(0.5, rel=0.15)


def test_radar_vru_points_within_4_sigma(ped_data):
    cfg = ped_data.config
    sx, sy = cfg.body_sigma()
    offsets = ped_data.scans.offsets
    xy, yaw, _, _ = ped_data.course.states(ped_data.scans.timestamp)
    for k in range(len(ped_data.scans)):
        raw = ped_data.raw_vru_points[offsets[k]:offsets[k + 1]]
        raw = raw[~np.isnan(raw[:, 0])]  # NaN rows are clutter
        c, s = math.cos(yaw[k]), math.sin(yaw[k])
        for p in raw:
            dx, dy = p[0] - xy[k, 0], p[1] - xy[k, 1]
            u, v = c * dx + s * dy, -s * dx + c * dy
            assert (u / (4 * sx)) ** 2 + (v / (4 * sy)) ** 2 <= 1.0


def test_radar_amplitude_follows_r4_law(monkeypatch):
    monkeypatch.setattr(simulator, "AMP_SIGMA_DB", 0.0)
    cfg = replace(preset("pedestrian-nominal"), duration=30.0, clutter_rate=0.0)
    data = simulate_scenario(cfg)
    mounts = {m.sensor_id: m for m in cfg.mounts}
    offsets = data.scans.offsets
    for k, scan in enumerate(list(data.scans)[:50]):
        raw = data.raw_vru_points[offsets[k]:offsets[k + 1]]
        sx, sy = sensor_xy(mounts[scan.sensor_id], cfg.ego_pose)
        r_true = np.hypot(raw[:, 0] - sx, raw[:, 1] - sy)
        amp = scan.detections.amplitude
        assert amp == pytest.approx(AMP_REF_DB - 40 * np.log10(r_true), abs=1e-9)


def test_simulation_deterministic_under_seed():
    a = simulate_scenario(preset("cyclist-nominal", seed=9))
    b = simulate_scenario(preset("cyclist-nominal", seed=9))
    assert [s.timestamp for s in a.scans] == [s.timestamp for s in b.scans]
    for sa, sb in zip(a.scans, b.scans):
        for column in ("index", "range_m", "azimuth", "radial_velocity", "amplitude"):
            assert getattr(sa.detections, column).tolist() == getattr(sb.detections, column).tolist()
    assert np.array_equal(a.is_vru, b.is_vru)
    for name in ("gnss", "imu", "truth"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


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
    for name in ("gnss_sigma", "clutter_rate"):
        with pytest.raises(ValueError, match=name):
            ScenarioConfig(vru_kind=VruKind.PEDESTRIAN, speed=1.0, **{name: -0.1})
    with pytest.raises(ValueError, match="random_walk_sigma"):
        ScenarioConfig(vru_kind=VruKind.PEDESTRIAN, speed=1.0,
                       perturbation=Perturbation(start=1.0, duration=1.0, random_walk_sigma=-0.1))
    for name, value in (("lambda0", -5.0), ("lambda0", 0.0), ("r0", 0.0)):
        with pytest.raises(ValueError, match=f"^{name} must be > 0, got {value}$"):
            ScenarioConfig(vru_kind=VruKind.PEDESTRIAN, speed=1.0, **{name: value})
    for kwargs, rule in (({"duration": -2.0}, "duration must be > 0"),
                         ({"duration": 0.0}, "duration must be > 0"),
                         ({"duration": 1.0, "onset": -4.0}, "onset must be >= 0")):
        with pytest.raises(ValueError, match=rule):
            Perturbation(start=1.0, **kwargs)
    assert Perturbation(start=1.0, duration=1.0, onset=0.0).weight(1.5) == 1.0  # a step


@pytest.mark.parametrize("field, value, message", [
    ("speed", math.nan, "speed must be a finite number, got nan"),
    ("speed", math.inf, "speed must be a finite number, got inf"),
    ("speed", True, "speed must be a finite number, got True"),
    ("speed", "1.4", "speed must be a finite number, got '1.4'"),
    ("gnss_sigma", math.nan, "gnss_sigma must be a finite number, got nan"),
    ("gnss_sigma", math.inf, "gnss_sigma must be a finite number, got inf"),
    ("gnss_rate", math.nan, "gnss_rate must be a finite number, got nan"),
    ("duration", math.inf, "duration must be a finite number, got inf"),
    ("lambda0", np.float64(math.nan), "lambda0 must be a finite number, got np.float64(nan)"),
    ("r0", 10**400, "r0 must be a finite number, got 1000"),
    ("course_half_width", math.nan, "course_half_width must be a finite number, got nan"),
    ("course_half_width", -1.0, "course_half_width must be > 0, got -1.0"),
    ("course_half_width", 0, "course_half_width must be > 0, got 0"),
    ("vru_kind", "car", "vru_kind must be pedestrian or cyclist, got 'car'"),
    ("scatter_sigma", (math.nan, 0.2), "scatter_sigma must be a pair of finite numbers, got "
                                       "(nan, 0.2)"),
    ("perturbation", dict(bias=5.0), "bias must be a pair of finite numbers, got 5.0"),
    ("perturbation", dict(bias=(math.nan, 0.0)), "bias must be a pair of finite numbers, got "
                                                  "(nan, 0.0)"),
    ("perturbation", dict(bias=(1.0,)), "bias must be a pair of finite numbers, got (1.0,)"),
    ("perturbation", dict(random_walk_sigma=math.inf), "random_walk_sigma must be a finite "
                                                        "number, got inf"),
    ("perturbation", dict(start=np.nan), "start must be a finite number, got nan"),
    ("perturbation", dict(onset=False), "onset must be a finite number, got False"),
])
def test_config_refuses_a_value_that_is_no_finite_number_in_range(field, value, message):
    # Each would run into a non-finite stream or a failure deep inside the simulator.
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        if field == "perturbation":
            Perturbation(**{"start": 1.0, "duration": 1.0, **value})
        else:
            ScenarioConfig(**{"vru_kind": VruKind.PEDESTRIAN, "speed": 1.0, field: value})


def test_config_takes_numpy_numbers_and_a_kind_by_value():
    cfg = ScenarioConfig(vru_kind="cyclist", speed=np.float32(3.0), gnss_rate=np.int64(9),
                         perturbation=Perturbation(np.float64(2.0), 1, bias=(np.int32(1), 0.5)))
    assert cfg.vru_kind is VruKind.CYCLIST and cfg.body_sigma() == (0.6, 0.2)
    assert cfg == ScenarioConfig(VruKind.CYCLIST, 3.0, gnss_rate=9.0,
                                 perturbation=Perturbation(2.0, 1.0, bias=(1.0, 0.5)))


@pytest.mark.parametrize("duration", [0.05, 0.3, 0.95])
def test_config_refuses_a_drive_too_short_for_a_radar_scan(duration):
    # Scans run from 0.5 s after the start to 0.5 s before the end.
    with pytest.raises(ValueError, match=rf"duration must be >= 1.0 s .*got {duration}$"):
        ScenarioConfig(vru_kind=VruKind.CYCLIST, speed=3.0, duration=duration)


def test_shortest_drive_holds_one_radar_scan():
    data = simulate_scenario(replace(preset("cyclist-nominal", seed=0), duration=1.0))
    assert len(data.scans) == 1
    assert data.scans.timestamp.tolist() == [0.5]


def test_config_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1$"):
        ScenarioConfig(vru_kind=VruKind.PEDESTRIAN, speed=1.0, rng_seed=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        preset("pedestrian-nominal", seed=-3)
    assert ScenarioConfig(vru_kind=VruKind.PEDESTRIAN, speed=1.0, rng_seed=0).rng_seed == 0


@pytest.mark.parametrize("seed", [1.5, 2.0, True, False, "3", None, np.float64(4.0), np.bool_(1)])
def test_config_refuses_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        ScenarioConfig(vru_kind=VruKind.PEDESTRIAN, speed=1.0, rng_seed=seed)


@pytest.mark.parametrize("seed", [3, np.int64(3), np.uint8(3), np.int32(3)])
def test_config_takes_python_and_numpy_integer_seeds(seed):
    cfg = ScenarioConfig(vru_kind=VruKind.PEDESTRIAN, speed=1.0, duration=2.0, rng_seed=seed)
    data = simulate_scenario(cfg)
    assert data.imu.tobytes() == simulate_scenario(replace(cfg, rng_seed=3)).imu.tobytes()
