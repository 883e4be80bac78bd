"""Desk-scale scenario generator: eight-shaped VRU courses observed by car radars.

A Gerono lemniscate traversed at constant speed provides analytic ground
truth; GNSS, IMU, and radar streams are derived from it with configurable
noise, clutter and an optional GNSS perturbation window.  The radar's
resolution, amplitude and Doppler model, and the IMU's noise, are the module
constants below.
Everything is driven by one seeded generator, so a fixed seed reproduces
byte-identical output.
"""

from __future__ import annotations

import math
from dataclasses import field

import numpy as np

from .core import (BODY_SIGMA, GNSS_COLUMNS, IMU_COLUMNS, QUALITY_DTYPE, SCATTER_TRUNC,
                   TRAJ_COLUMNS, Detections, GnssQuality, Pose, ScanTable, SensorMount,
                   VruKind, rank_in_scan, record, scan_offsets, table, to_global, to_local,
                   wrap_angles)


TRUTH_RATE = 50.0  # Hz of the truth table
RADAR_START_MARGIN = 0.5  # s, keeps scans inside GNSS/IMU support
ARC_TABLE_SIZE = 16384  # lemniscate parameter steps per lap of the arc-length table
# Radar measurement model; amplitude is not quantized.
DOPPLER_SIGMA = 0.05  # m/s, before quantization
RANGE_STEP = 0.15  # m
AZIMUTH_STEP = math.radians(2.4)
RADIAL_VELOCITY_STEP = 0.17  # m/s
AMP_REF_DB = 30.0  # power at 1 m range
CLUTTER_AMP_OFFSET_DB = -8.0
CLUTTER_VELOCITY_SPAN = 3.0  # m/s, clutter Doppler drawn uniform in +-span
AMP_SIGMA_DB = 3.0  # radar amplitude noise
# IMU error model
GYRO_SIGMA = 0.005  # rad/s
GYRO_BIAS_SIGMA = 0.002  # rad/s, constant per run
ACCEL_SIGMA = 0.05  # m/s^2
ACCEL_BIAS_SIGMA = 0.01  # m/s^2, constant per run


def _check_numbers(rec, names) -> None:
    """Raise a ValueError naming the first field of `names` whose value is not a finite
    Python or numpy number; a bool is none."""
    for name in names:
        value = getattr(rec, name)
        if not _finite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def _check_pair(rec, name: str) -> None:
    """Raise a ValueError unless the field `name` is None or a pair of finite numbers."""
    pair = getattr(rec, name)
    if pair is not None and not (isinstance(pair, (tuple, list, np.ndarray)) and len(pair) == 2
                                 and all(map(_finite, pair))):
        raise ValueError(f"{name} must be a pair of finite numbers, got {pair!r}")


def _finite(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


@record(frozen=True)
class Perturbation:
    """GNSS error window: a bias ramped in and out, or a random walk."""

    start: float
    duration: float
    bias: tuple[float, float] | None = None
    random_walk_sigma: float = 0.0
    onset: float = 0.3  # s, linear ramp at both window edges
    flagged: bool = False  # whether the receiver marks samples DEGRADED

    def __post_init__(self) -> None:
        _check_numbers(self, ("start", "duration", "random_walk_sigma", "onset"))
        _check_pair(self, "bias")
        if not self.duration > 0:
            raise ValueError(f"perturbation duration must be > 0, got {self.duration!r}")
        for name in ("random_walk_sigma", "onset"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"perturbation {name} must be >= 0, got {getattr(self, name)!r}")

    def weight(self, t):
        """Bias activation in [0, 1] at time(s) t; zero outside the open window."""
        ramp = max(self.onset, 1e-9)
        up = (t - self.start) / ramp
        down = (self.start + self.duration - t) / ramp
        return np.clip(np.minimum(up, down), 0.0, 1.0)


def default_mounts() -> tuple[SensorMount, ...]:
    """Two forward radars at the front corners of the ego vehicle."""
    fov = math.radians(60.0)
    return (
        SensorMount("radar-left", Pose(1.0, 0.5, 0.0), fov, 40.0),
        SensorMount("radar-right", Pose(1.0, -0.5, 0.0), fov, 40.0),
    )


@record(frozen=True)
class ScenarioConfig:
    """One simulated drive: the VRU and its course, sensor rates and noise, rig and seed.

    A scan sees lambda0 * (r0 / r) VRU points on average, floored at 1, with the VRU at
    range r.
    """

    vru_kind: VruKind
    speed: float
    course_half_width: float = 6.0
    duration: float = 60.0
    gnss_rate: float = 18.0
    imu_rate: float = 90.0
    radar_rate: float = 17.0
    gnss_sigma: float = 0.02
    perturbation: Perturbation | None = None
    clutter_rate: float = 2.0  # expected clutter points per scan
    lambda0: float = 12.0
    r0: float = 10.0
    mounts: tuple[SensorMount, ...] = field(default_factory=default_mounts)
    ego_pose: Pose = field(default_factory=lambda: Pose(-11.0, 0.0, 0.0))
    rng_seed: int = 0
    scatter_sigma: tuple[float, float] | None = None  # defaults per VRU kind

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "vru_kind", VruKind(self.vru_kind))
        except ValueError:
            raise ValueError(f"vru_kind must be pedestrian or cyclist, got {self.vru_kind!r}") \
                from None
        _check_numbers(self, ("speed", "course_half_width", "duration", "gnss_rate", "imu_rate",
                              "radar_rate", "gnss_sigma", "clutter_rate", "lambda0", "r0"))
        _check_pair(self, "scatter_sigma")
        for name in ("speed", "course_half_width", "gnss_rate", "imu_rate", "radar_rate",
                     "lambda0", "r0"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in ("gnss_sigma", "clutter_rate"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if not self.duration >= 2 * RADAR_START_MARGIN:  # radar scans keep off both ends
            raise ValueError(f"duration must be >= {2 * RADAR_START_MARGIN} s to hold a radar "
                             f"scan, got {self.duration!r}")
        if isinstance(self.rng_seed, bool) or not isinstance(self.rng_seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.rng_seed!r}")
        if self.rng_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.rng_seed!r}")

    def body_sigma(self) -> tuple[float, float]:
        """Scatter standard deviations (along, across) the movement direction."""
        if self.scatter_sigma is not None:
            return self.scatter_sigma
        return BODY_SIGMA[self.vru_kind]


class EightCourse:
    """Gerono lemniscate x = A sin(2 pi s), y = A sin(2 pi s) cos(2 pi s),
    reparameterized to constant arc speed."""

    def __init__(self, half_width: float, speed: float):
        if half_width <= 0 or speed <= 0:
            raise ValueError("half_width and speed must be > 0")
        self.half_width = float(half_width)
        self.speed = float(speed)
        s = np.linspace(0.0, 1.0, ARC_TABLE_SIZE + 1)
        ds = s[1] - s[0]
        norm = np.hypot(*self._tangent(s))
        # Cumulative trapezoidal arc length over one lap.
        arc = np.concatenate([[0.0], np.cumsum(0.5 * (norm[1:] + norm[:-1]) * ds)])
        self._s_table = s
        self._arc_table = arc
        self.lap_length = float(arc[-1])
        self.period = self.lap_length / self.speed

    def _tangent(self, s):
        """(dx/ds, dy/ds) of the lemniscate at parameter(s) s."""
        a = self.half_width
        dx = 2.0 * math.pi * a * np.cos(2.0 * math.pi * s)
        dy = 2.0 * math.pi * a * np.cos(4.0 * math.pi * s)
        return dx, dy

    def states(self, times):
        """Course columns at `times`: xy (n, 2), yaw, speed and yaw rate, each (n,)."""
        a = self.half_width
        dist = np.fmod(self.speed * np.asarray(times, dtype=float), self.lap_length)
        dist[dist < 0] += self.lap_length
        s = np.interp(dist, self._arc_table, self._s_table)
        p2, p4 = 2.0 * math.pi * s, 4.0 * math.pi * s
        dx, dy = self._tangent(s)
        ddx = -4.0 * math.pi**2 * a * np.sin(p2)
        ddy = -8.0 * math.pi**2 * a * np.sin(p4)
        curvature = (dx * ddy - dy * ddx) / np.hypot(dx, dy) ** 3
        xy = np.column_stack([a * np.sin(p2), 0.5 * a * np.sin(p4)])
        return xy, np.arctan2(dy, dx), np.full(len(s), self.speed), curvature * self.speed


@record
class ScenarioData:
    """Everything one simulated scenario produces.

    `truth`, `gnss` and `imu` are tables of TRAJ_COLUMNS, GNSS_COLUMNS and
    IMU_COLUMNS.  `is_vru` tells, per row of `scans`, whether the point is
    the VRU's; `raw_vru_points` holds, per row, the pre-quantization global
    position of a VRU point and NaN for clutter.
    """

    config: ScenarioConfig
    course: EightCourse
    truth: np.ndarray
    gnss: np.ndarray
    imu: np.ndarray
    scans: ScanTable
    is_vru: np.ndarray  # (n,) bool, aligned with the rows of scans
    raw_vru_points: np.ndarray  # (n, 2), aligned with the rows of scans


def generate_truth(cfg: ScenarioConfig, course: EightCourse | None = None) -> np.ndarray:
    course = course or EightCourse(cfg.course_half_width, cfg.speed)
    times = np.arange(round(cfg.duration * TRUTH_RATE) + 1) / TRUTH_RATE
    xy, yaw, speed, yaw_rate = course.states(times)
    return table(TRAJ_COLUMNS, (times, xy[:, 0], xy[:, 1], wrap_angles(yaw), speed, yaw_rate))


def generate_gnss(
    course: EightCourse, cfg: ScenarioConfig, rng: np.random.Generator
) -> np.ndarray:
    times = np.arange(round(cfg.duration * cfg.gnss_rate) + 1) / cfg.gnss_rate
    pos = course.states(times)[0] + rng.normal(0.0, cfg.gnss_sigma, (len(times), 2))
    degraded = np.zeros(len(times), dtype=bool)
    pert = cfg.perturbation
    if pert is not None:
        w = pert.weight(times)
        inside = w > 0.0  # one run of samples
        if pert.bias is not None:
            pos[inside] += w[inside, None] * np.asarray(pert.bias)
        if pert.random_walk_sigma > 0.0:
            steps = rng.normal(0.0, pert.random_walk_sigma, (np.count_nonzero(inside), 2))
            pos[inside] += np.cumsum(steps, axis=0)
        degraded = inside & pert.flagged
    quality = np.where(degraded, GnssQuality.DEGRADED, GnssQuality.FIX_RTK).astype(QUALITY_DTYPE)
    return table(GNSS_COLUMNS, (times, pos[:, 0], pos[:, 1], quality))


def generate_imu(
    course: EightCourse, cfg: ScenarioConfig, rng: np.random.Generator
) -> np.ndarray:
    gyro_bias, accel_bias = rng.normal(0.0, (GYRO_BIAS_SIGMA, ACCEL_BIAS_SIGMA))
    dt = 1.0 / cfg.imu_rate
    times = np.arange(round(cfg.duration * cfg.imu_rate) + 1) * dt
    _, yaw, _, true_rate = course.states(times)
    gyro_noise, accel_noise = rng.normal(0.0, (GYRO_SIGMA, ACCEL_SIGMA), (len(times), 2)).T
    yaw_rate = true_rate + gyro_bias + gyro_noise
    # Constant-speed course: true forward acceleration is zero.
    accel = accel_bias + accel_noise
    integrated = np.cumsum(np.concatenate([yaw[:1], yaw_rate[1:] * dt]))
    return table(IMU_COLUMNS, (times, yaw_rate, accel, wrap_angles(integrated)))


def _quantize(values: np.ndarray, step: float) -> np.ndarray:
    # Round half to even; adding 0.0 writes a point rounded to zero as 0.0, not -0.0.
    return np.round(values / step) * step + 0.0


def _sample_body_offsets(
    n: int, sigma: tuple[float, float], rng: np.random.Generator
) -> np.ndarray:
    """Object-frame scatter offsets, rejection-sampled inside the SCATTER_TRUNC-sigma ellipse."""
    out = np.empty((n, 2))
    filled = 0
    while filled < n:
        cand = rng.standard_normal((n - filled, 2))
        keep = (cand**2).sum(axis=1) <= SCATTER_TRUNC**2
        took = cand[keep]
        out[filled : filled + len(took)] = took
        filled += len(took)
    return out * np.asarray(sigma)


def _polar_by_sensor(points, sensor, cfg) -> tuple[np.ndarray, np.ndarray]:
    """Range and azimuth of each global point, seen by the mount `cfg.mounts[sensor[row]]`."""
    mount = np.array([(m.pose_in_ego.x, m.pose_in_ego.y, m.pose_in_ego.yaw)
                      for m in cfg.mounts])[sensor]
    ego = np.column_stack(to_local(points, cfg.ego_pose.x, cfg.ego_pose.y, cfg.ego_pose.yaw))
    u, v = to_local(ego, *mount.T)
    return np.hypot(u, v), np.arctan2(v, u)


def generate_radar(
    course: EightCourse, cfg: ScenarioConfig, rng: np.random.Generator
) -> tuple[ScanTable, np.ndarray, np.ndarray]:
    """Radar scans, whether each row is a VRU point, and each row's raw global position.

    Sensors fire phase-shifted so every scan timestamp in the scenario is
    unique.  Each emitted point is the VRU's or clutter, VRU points first
    within a scan.  The third value holds, for each row of the scan table,
    the raw (pre-quantization) global position of a VRU point and NaN for a
    clutter point.
    """
    mounts = cfg.mounts
    if not mounts:
        raise ValueError("at least one sensor mount is required")
    cycle = 1.0 / cfg.radar_rate
    t_lo = RADAR_START_MARGIN
    t_hi = cfg.duration - RADAR_START_MARGIN

    # Each sensor's schedule accumulates its cycle like `t += cycle` would.
    steps = int((t_hi - t_lo) / cycle) + 2
    schedules = [np.cumsum(np.r_[t_lo + i * cycle / len(mounts), np.full(steps, cycle)])
                 for i in range(len(mounts))]
    times = np.concatenate([ts[ts <= t_hi] for ts in schedules])
    sensor = np.repeat(np.arange(len(mounts)), [np.count_nonzero(ts <= t_hi) for ts in schedules])
    sensor_ids = np.array([m.sensor_id for m in mounts])[sensor]
    order = np.lexsort((sensor_ids, times))
    times, sensor, sensor_ids = times[order], sensor[order], sensor_ids[order]

    n_scans = len(times)
    max_range = np.array([m.max_range for m in mounts])[sensor]
    fov = np.array([m.fov_azimuth for m in mounts])[sensor]
    ego = cfg.ego_pose
    sensor_xy = np.column_stack(to_global([(m.pose_in_ego.x, m.pose_in_ego.y) for m in mounts],
                                          ego.x, ego.y, ego.yaw))
    xy, yaw, speed, yaw_rate = course.states(times)
    r_center, az_center = _polar_by_sensor(xy, sensor, cfg)
    visible = (r_center <= max_range) & (np.abs(az_center) <= fov)
    n_vru = np.zeros(n_scans, dtype=int)
    mean_count = cfg.lambda0 * cfg.r0 / np.maximum(r_center[visible], 1e-6)
    n_vru[visible] = rng.poisson(np.maximum(1.0, mean_count))

    # VRU points: body scatter in the object frame, moving rigidly with the VRU.
    scan = np.repeat(np.arange(n_scans), n_vru)
    offsets = _sample_body_offsets(len(scan), cfg.body_sigma(), rng)
    rel_x, rel_y = to_global(offsets, 0.0, 0.0, yaw[scan])
    points = xy[scan] + np.column_stack([rel_x, rel_y])
    # each point moves with the VRU's centre, plus the yaw rate turning its offset
    w = yaw_rate[scan]
    vel = np.column_stack([(speed * np.cos(yaw))[scan] - w * rel_y,
                           (speed * np.sin(yaw))[scan] + w * rel_x])
    los = points - sensor_xy[sensor[scan]]
    r_true = np.hypot(los[:, 0], los[:, 1])
    vr = (vel * los).sum(axis=1) / np.maximum(r_true, 1e-9)
    vr += rng.normal(0.0, DOPPLER_SIGMA, len(scan))
    amp = AMP_REF_DB - 40.0 * np.log10(np.maximum(r_true, 1e-3))
    amp += rng.normal(0.0, AMP_SIGMA_DB, len(scan))
    r, az = _polar_by_sensor(points, sensor[scan], cfg)

    n_clutter = rng.poisson(cfg.clutter_rate, n_scans)
    c_scan = np.repeat(np.arange(n_scans), n_clutter)
    r_c = np.sqrt(rng.uniform(1.0, max_range[c_scan] ** 2))
    az_c = rng.uniform(-fov[c_scan], fov[c_scan])
    vr_c = rng.uniform(-CLUTTER_VELOCITY_SPAN, CLUTTER_VELOCITY_SPAN, len(c_scan))
    amp_c = AMP_REF_DB + CLUTTER_AMP_OFFSET_DB - 40.0 * np.log10(r_c)
    amp_c += rng.normal(0.0, AMP_SIGMA_DB, len(c_scan))

    # Group rows by scan; the stable sort keeps each scan's VRU rows first.
    rows = np.argsort(np.concatenate([scan, c_scan]), kind="stable")
    columns = [_quantize(np.concatenate(pair)[rows], step)
               for pair, step in (((r, r_c), RANGE_STEP), ((az, az_c), AZIMUTH_STEP),
                                  ((vr, vr_c), RADIAL_VELOCITY_STEP))]
    columns.append(np.concatenate([amp, amp_c])[rows])
    offsets = scan_offsets(n_vru + n_clutter)
    scans = ScanTable(times, sensor_ids, offsets,
                      Detections(*columns, index=rank_in_scan(offsets)))
    is_vru = rows < len(scan)
    raw = np.full((len(rows), 2), np.nan)
    raw[is_vru] = points[rows[is_vru]]
    return scans, is_vru, raw


def simulate_scenario(cfg: ScenarioConfig) -> ScenarioData:
    """Run all generators with one seeded random source."""
    rng = np.random.default_rng(cfg.rng_seed)
    course = EightCourse(cfg.course_half_width, cfg.speed)
    truth = generate_truth(cfg, course)
    gnss = generate_gnss(course, cfg, rng)
    imu = generate_imu(course, cfg, rng)
    scans, is_vru, raw = generate_radar(course, cfg, rng)
    return ScenarioData(
        config=cfg,
        course=course,
        truth=truth,
        gnss=gnss,
        imu=imu,
        scans=scans,
        is_vru=is_vru,
        raw_vru_points=raw,
    )


PRESET_NAMES = ("pedestrian-nominal", "cyclist-nominal", "cyclist-perturbed")


def preset(name: str, seed: int = 0) -> ScenarioConfig:
    """Scenario presets mirroring the three evaluation scenes."""
    if name == "pedestrian-nominal":
        return ScenarioConfig(vru_kind=VruKind.PEDESTRIAN, speed=1.4, rng_seed=seed)
    if name == "cyclist-nominal":
        return ScenarioConfig(vru_kind=VruKind.CYCLIST, speed=3.0, rng_seed=seed)
    if name == "cyclist-perturbed":
        return ScenarioConfig(
            vru_kind=VruKind.CYCLIST,
            speed=3.0,
            rng_seed=seed,
            perturbation=Perturbation(start=27.0, duration=6.0, bias=(1.5, 2.0)),
        )
    raise ValueError(f"unknown preset {name!r}; choose one of {PRESET_NAMES}")
