"""Desk-scale scenario generator: eight-shaped VRU courses observed by car radars.

A Gerono lemniscate traversed at constant speed provides analytic ground
truth; GNSS, IMU, and radar streams are derived from it with configurable
noise, sensor quantization, clutter, and an optional GNSS perturbation
window.  Everything is driven by one seeded generator, so a fixed seed
reproduces byte-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    GLOBAL,
    LABEL_CLUTTER,
    LABEL_VRU,
    Pose,
    RadarDetection,
    RadarScan,
    SensorMount,
    VruKind,
    compose_pose,
    ego_to_polar,
    global_to_ego,
    rotation_matrix,
)
from .trajectory import GnssQuality, GnssSample, ImuSample, TrajectoryState

# Default body scatter: standard deviations (along, across) the movement
# direction, truncated at SCATTER_TRUNC sigma.
BODY_SIGMA = {VruKind.PEDESTRIAN: (0.15, 0.15), VruKind.CYCLIST: (0.6, 0.2)}
SCATTER_TRUNC = 1.8


@dataclass(frozen=True)
class Perturbation:
    """GNSS error window: a bias ramped in and out, or a random walk."""

    start: float
    duration: float
    bias: tuple[float, float] | None = None
    random_walk_sigma: float = 0.0
    onset: float = 0.3  # s, linear ramp at both window edges
    flagged: bool = False  # whether the receiver marks samples DEGRADED

    def weight(self, t: float) -> float:
        """Bias activation in [0, 1] at time t."""
        if t <= self.start or t >= self.start + self.duration:
            return 0.0
        ramp = max(self.onset, 1e-9)
        up = (t - self.start) / ramp
        down = (self.start + self.duration - t) / ramp
        return float(min(1.0, up, down))


@dataclass(frozen=True)
class DetectionRateParams:
    """Expected VRU detection count lambda0 * (r0 / r), floored at 1."""

    lambda0: float = 12.0
    r0: float = 10.0

    def mean_count(self, r: float) -> float:
        return max(1.0, self.lambda0 * self.r0 / max(r, 1e-6))


def default_mounts() -> tuple[SensorMount, ...]:
    """Two forward radars at the front corners of the ego vehicle."""
    fov = math.radians(60.0)
    return (
        SensorMount("radar-left", Pose(1.0, 0.5, 0.0, frame="ego"), fov, 40.0),
        SensorMount("radar-right", Pose(1.0, -0.5, 0.0, frame="ego"), fov, 40.0),
    )


@dataclass(frozen=True)
class ScenarioConfig:
    vru_kind: VruKind
    speed: float
    course_half_width: float = 6.0
    duration: float = 60.0
    gnss_rate: float = 18.0
    imu_rate: float = 90.0
    radar_rate: float = 17.0
    truth_rate: float = 50.0
    gnss_sigma: float = 0.02
    perturbation: Perturbation | None = None
    clutter_rate: float = 2.0  # expected clutter points per scan
    detection_rate: DetectionRateParams = field(default_factory=DetectionRateParams)
    mounts: tuple[SensorMount, ...] = field(default_factory=default_mounts)
    ego_pose: Pose = field(default_factory=lambda: Pose(-11.0, 0.0, 0.0, frame=GLOBAL))
    rng_seed: int = 0
    # IMU error model
    gyro_sigma: float = 0.005  # rad/s
    gyro_bias_sigma: float = 0.002  # rad/s, constant per run
    accel_sigma: float = 0.05  # m/s^2
    accel_bias_sigma: float = 0.01  # m/s^2, constant per run
    # Radar measurement model
    doppler_sigma: float = 0.05  # m/s, before quantization
    range_step: float = 0.15  # m
    azimuth_step: float = math.radians(2.4)
    radial_velocity_step: float = 0.17  # m/s
    amp_ref_db: float = 30.0  # power at 1 m range
    amp_sigma_db: float = 3.0
    clutter_amp_offset_db: float = -8.0
    clutter_velocity_span: float = 3.0  # m/s, clutter Doppler drawn uniform in +-span
    scatter_sigma: tuple[float, float] | None = None  # defaults per VRU kind
    scatter_trunc: float = SCATTER_TRUNC
    radar_start_margin: float = 0.5  # s, keeps scans inside GNSS/IMU support

    def __post_init__(self) -> None:
        for name in ("gnss_rate", "imu_rate", "radar_rate", "truth_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.speed <= 0:
            raise ValueError("speed must be > 0")

    def body_sigma(self) -> tuple[float, float]:
        """Scatter standard deviations (along, across) the movement direction."""
        if self.scatter_sigma is not None:
            return self.scatter_sigma
        return BODY_SIGMA[self.vru_kind]


class EightCourse:
    """Gerono lemniscate x = A sin(2 pi s), y = A sin(2 pi s) cos(2 pi s),
    reparameterized to constant arc speed."""

    def __init__(self, half_width: float, speed: float, table_size: int = 16384):
        if half_width <= 0 or speed <= 0:
            raise ValueError("half_width and speed must be > 0")
        self.half_width = float(half_width)
        self.speed = float(speed)
        s = np.linspace(0.0, 1.0, table_size + 1)
        ds = s[1] - s[0]
        norm = self._tangent_norm(s)
        # Cumulative trapezoidal arc length over one lap.
        arc = np.concatenate([[0.0], np.cumsum(0.5 * (norm[1:] + norm[:-1]) * ds)])
        self._s_table = s
        self._arc_table = arc
        self.lap_length = float(arc[-1])
        self.period = self.lap_length / self.speed

    def _tangent_norm(self, s):
        a = self.half_width
        dx = 2.0 * math.pi * a * np.cos(2.0 * math.pi * s)
        dy = 2.0 * math.pi * a * np.cos(4.0 * math.pi * s)
        return np.hypot(dx, dy)

    def state_at(self, t: float) -> TrajectoryState:
        a = self.half_width
        dist = math.fmod(self.speed * t, self.lap_length)
        if dist < 0:
            dist += self.lap_length
        s = float(np.interp(dist, self._arc_table, self._s_table))
        p2, p4 = 2.0 * math.pi * s, 4.0 * math.pi * s
        x = a * math.sin(p2)
        y = 0.5 * a * math.sin(p4)
        dx = 2.0 * math.pi * a * math.cos(p2)
        dy = 2.0 * math.pi * a * math.cos(p4)
        ddx = -4.0 * math.pi**2 * a * math.sin(p2)
        ddy = -8.0 * math.pi**2 * a * math.sin(p4)
        norm = math.hypot(dx, dy)
        yaw = math.atan2(dy, dx)
        curvature = (dx * ddy - dy * ddx) / norm**3
        return TrajectoryState(
            timestamp=float(t),
            pose=Pose(x, y, yaw, frame=GLOBAL),
            speed=self.speed,
            yaw_rate=curvature * self.speed,
        )


@dataclass
class ScenarioData:
    """Everything one simulated scenario produces.

    `labels` maps (scan index aligned with `scans`, point index) semantics as a
    flat list of per-scan label tuples; `raw_vru_points` holds the
    pre-quantization global positions of the VRU-labeled points per scan.
    """

    config: ScenarioConfig
    course: EightCourse
    truth: list[TrajectoryState]
    gnss: list[GnssSample]
    imu: list[ImuSample]
    scans: list[RadarScan]
    labels: list[tuple[float, int, str]]  # (scan timestamp, point index, label)
    raw_vru_points: list[np.ndarray]  # aligned with scans

    def label_map(self) -> dict[tuple[float, int], str]:
        return {(round(t, 9), idx): label for t, idx, label in self.labels}


def generate_truth(cfg: ScenarioConfig, course: EightCourse | None = None) -> list[TrajectoryState]:
    course = course or EightCourse(cfg.course_half_width, cfg.speed)
    n = int(round(cfg.duration * cfg.truth_rate))
    return [course.state_at(k / cfg.truth_rate) for k in range(n + 1)]


def generate_gnss(
    course: EightCourse, cfg: ScenarioConfig, rng: np.random.Generator
) -> list[GnssSample]:
    n = int(round(cfg.duration * cfg.gnss_rate))
    samples = []
    walk = np.zeros(2)
    for k in range(n + 1):
        t = k / cfg.gnss_rate
        state = course.state_at(t)
        noise = rng.normal(0.0, cfg.gnss_sigma, 2) if cfg.gnss_sigma > 0 else np.zeros(2)
        pos = state.pose.xy + noise
        quality = GnssQuality.FIX_RTK
        pert = cfg.perturbation
        if pert is not None:
            w = pert.weight(t)
            if w > 0.0:
                if pert.bias is not None:
                    pos = pos + w * np.asarray(pert.bias)
                if pert.random_walk_sigma > 0.0:
                    walk = walk + rng.normal(0.0, pert.random_walk_sigma, 2)
                    pos = pos + walk
                if pert.flagged:
                    quality = GnssQuality.DEGRADED
            else:
                walk = np.zeros(2)
        samples.append(GnssSample(timestamp=t, x=float(pos[0]), y=float(pos[1]), quality=quality))
    return samples


def generate_imu(
    course: EightCourse, cfg: ScenarioConfig, rng: np.random.Generator
) -> list[ImuSample]:
    gyro_bias = float(rng.normal(0.0, cfg.gyro_bias_sigma)) if cfg.gyro_bias_sigma > 0 else 0.0
    accel_bias = float(rng.normal(0.0, cfg.accel_bias_sigma)) if cfg.accel_bias_sigma > 0 else 0.0
    n = int(round(cfg.duration * cfg.imu_rate))
    dt = 1.0 / cfg.imu_rate
    samples = []
    integrated = course.state_at(0.0).pose.yaw
    for k in range(n + 1):
        t = k * dt
        state = course.state_at(t)
        w_noise = float(rng.normal(0.0, cfg.gyro_sigma)) if cfg.gyro_sigma > 0 else 0.0
        a_noise = float(rng.normal(0.0, cfg.accel_sigma)) if cfg.accel_sigma > 0 else 0.0
        yaw_rate = state.yaw_rate + gyro_bias + w_noise
        # Constant-speed course: true forward acceleration is zero.
        accel = accel_bias + a_noise
        if k > 0:
            integrated += yaw_rate * dt
        samples.append(
            ImuSample(
                timestamp=t,
                yaw_rate=yaw_rate,
                accel_forward=accel,
                yaw=float(math.remainder(integrated, 2.0 * math.pi)),
            )
        )
    return samples


def _quantize(value: float, step: float) -> float:
    return round(value / step) * step if step > 0 else value


def _sample_body_offsets(
    n: int, sigma: tuple[float, float], trunc: float, rng: np.random.Generator
) -> np.ndarray:
    """Object-frame scatter offsets, rejection-sampled inside the trunc-sigma ellipse."""
    out = np.empty((n, 2))
    filled = 0
    while filled < n:
        cand = rng.standard_normal((n - filled, 2))
        keep = (cand**2).sum(axis=1) <= trunc**2
        took = cand[keep]
        out[filled : filled + len(took)] = took
        filled += len(took)
    return out * np.asarray(sigma)


def generate_radar(
    course: EightCourse, cfg: ScenarioConfig, rng: np.random.Generator
) -> tuple[list[RadarScan], list[tuple[float, int, str]], list[np.ndarray]]:
    """Radar scans plus truth labels keyed by (scan timestamp, point index).

    Sensors fire phase-shifted so every scan timestamp in the scenario is
    unique.  Each emitted point is VRU- or clutter-labeled; the raw
    (pre-quantization) global positions of the VRU points are returned for
    diagnostics.
    """
    sigma = cfg.body_sigma()
    n_sensors = len(cfg.mounts)
    if n_sensors == 0:
        raise ValueError("at least one sensor mount is required")
    cycle = 1.0 / cfg.radar_rate
    t_lo = cfg.radar_start_margin
    t_hi = cfg.duration - cfg.radar_start_margin

    events: list[tuple[float, SensorMount]] = []
    for i, mount in enumerate(cfg.mounts):
        t = t_lo + i * cycle / n_sensors
        while t <= t_hi:
            events.append((t, mount))
            t += cycle
    events.sort(key=lambda e: (e[0], e[1].sensor_id))

    scans: list[RadarScan] = []
    labels: list[tuple[float, int, str]] = []
    raw_points: list[np.ndarray] = []
    for t, mount in events:
        state = course.state_at(t)
        sensor_pose = compose_pose(cfg.ego_pose, mount.pose_in_ego)
        center_ego = global_to_ego(state.pose.xy, cfg.ego_pose)
        r_center, az_center = ego_to_polar(center_ego, mount)
        visible = r_center <= mount.max_range and abs(az_center) <= mount.fov_azimuth

        dets: list[RadarDetection] = []
        scan_labels: list[str] = []
        raw: list[np.ndarray] = []
        if visible:
            n_obj = int(rng.poisson(cfg.detection_rate.mean_count(r_center)))
            if n_obj > 0:
                offsets = _sample_body_offsets(n_obj, sigma, cfg.scatter_trunc, rng)
                rot = rotation_matrix(state.pose.yaw)
                points = state.pose.xy + offsets @ rot.T
                vel_c = state.speed * rot[:, 0]
                for p in points:
                    rel = p - state.pose.xy
                    vel = vel_c + state.yaw_rate * np.array([-rel[1], rel[0]])
                    los = p - sensor_pose.xy
                    r_true = float(np.hypot(los[0], los[1]))
                    vr_true = float(vel @ los) / max(r_true, 1e-9)
                    p_ego = global_to_ego(p, cfg.ego_pose)
                    r_meas, az_meas = ego_to_polar(p_ego, mount)
                    vr = vr_true + (
                        float(rng.normal(0.0, cfg.doppler_sigma)) if cfg.doppler_sigma > 0 else 0.0
                    )
                    amp = (
                        cfg.amp_ref_db
                        - 40.0 * math.log10(max(r_true, 1e-3))
                        + (float(rng.normal(0.0, cfg.amp_sigma_db)) if cfg.amp_sigma_db > 0 else 0.0)
                    )
                    dets.append(
                        RadarDetection(
                            timestamp=t,
                            range_m=_quantize(r_meas, cfg.range_step),
                            azimuth=_quantize(az_meas, cfg.azimuth_step),
                            radial_velocity=_quantize(vr, cfg.radial_velocity_step),
                            amplitude=amp,
                            sensor_id=mount.sensor_id,
                            index=len(dets),
                        )
                    )
                    scan_labels.append(LABEL_VRU)
                    raw.append(p)
        n_clutter = int(rng.poisson(cfg.clutter_rate)) if cfg.clutter_rate > 0 else 0
        for _ in range(n_clutter):
            r_c = math.sqrt(float(rng.uniform(1.0, mount.max_range**2)))
            az_c = float(rng.uniform(-mount.fov_azimuth, mount.fov_azimuth))
            vr_c = float(rng.uniform(-cfg.clutter_velocity_span, cfg.clutter_velocity_span))
            amp_c = (
                cfg.amp_ref_db
                + cfg.clutter_amp_offset_db
                - 40.0 * math.log10(r_c)
                + (float(rng.normal(0.0, cfg.amp_sigma_db)) if cfg.amp_sigma_db > 0 else 0.0)
            )
            dets.append(
                RadarDetection(
                    timestamp=t,
                    range_m=_quantize(r_c, cfg.range_step),
                    azimuth=_quantize(az_c, cfg.azimuth_step),
                    radial_velocity=_quantize(vr_c, cfg.radial_velocity_step),
                    amplitude=amp_c,
                    sensor_id=mount.sensor_id,
                    index=len(dets),
                )
            )
            scan_labels.append(LABEL_CLUTTER)
        scans.append(RadarScan(timestamp=t, sensor_id=mount.sensor_id, detections=tuple(dets)))
        labels.extend((t, i, lab) for i, lab in enumerate(scan_labels))
        raw_points.append(np.array(raw).reshape(-1, 2))
    return scans, labels, raw_points


def simulate_scenario(cfg: ScenarioConfig) -> ScenarioData:
    """Run all generators with one seeded random source."""
    rng = np.random.default_rng(cfg.rng_seed)
    course = EightCourse(cfg.course_half_width, cfg.speed)
    truth = generate_truth(cfg, course)
    gnss = generate_gnss(course, cfg, rng)
    imu = generate_imu(course, cfg, rng)
    scans, labels, raw = generate_radar(course, cfg, rng)
    return ScenarioData(
        config=cfg,
        course=course,
        truth=truth,
        gnss=gnss,
        imu=imu,
        scans=scans,
        labels=labels,
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
