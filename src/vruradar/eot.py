"""Random-matrix extended-object tracker.

The kinematic state [x, y, speed, heading, yaw_rate] follows a constant-turn
model; the object extent is a symmetric positive-definite 2x2 matrix updated
from the per-scan measurement mean and scatter, rotated along with the
heading during prediction.  An optional scalar update against the scan's mean
radial velocity anchors speed and heading to the Doppler channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import fold_axis, rotation_matrix, wrap_angle

_OMEGA_EPS = 1e-6  # below this |yaw rate| the straight-line series expansion is used


class ExtentError(RuntimeError):
    """The extent matrix lost symmetry or positive definiteness."""


@dataclass
class RmmTrack:
    """Kinematic state with covariance plus the extent matrix and its confidence.

    `dof` plays the role of inverse-Wishart degrees of freedom: larger values
    mean a more trusted extent estimate.
    """

    kin: np.ndarray  # (5,) [x, y, speed, heading, yaw_rate]
    cov: np.ndarray  # (5, 5)
    extent: np.ndarray  # (2, 2) SPD
    dof: float
    timestamp: float

    def __post_init__(self) -> None:
        self.kin = np.asarray(self.kin, dtype=float).copy()
        self.cov = np.asarray(self.cov, dtype=float).copy()
        self.extent = np.asarray(self.extent, dtype=float).copy()
        if self.kin.shape != (5,) or self.cov.shape != (5, 5) or self.extent.shape != (2, 2):
            raise ValueError("bad state dimensions")
        if not np.allclose(self.extent, self.extent.T, atol=1e-12):
            raise ExtentError("extent matrix is not symmetric")
        if np.linalg.eigvalsh(self.extent)[0] <= 0.0:
            raise ExtentError("extent matrix is not positive definite")
        if self.dof <= 4.0:
            raise ValueError(f"dof must be > 4, got {self.dof}")
        self.kin[3] = wrap_angle(self.kin[3])

    @property
    def position(self) -> np.ndarray:
        return self.kin[:2].copy()


@dataclass(frozen=True)
class ExtentEstimate:
    length: float
    width: float
    orientation: float  # (-pi/2, pi/2]

    def __post_init__(self) -> None:
        if not (self.length >= self.width > 0):
            raise ValueError("need length >= width > 0")


@dataclass(frozen=True)
class TrackerParams:
    extent_scale: float = 0.25  # measurement spread = extent_scale * extent + noise
    meas_noise_sigma: float = 0.12  # m, per-detection Cartesian noise
    doppler_noise_sigma: float = 0.15  # m/s, noise of the scan-mean radial velocity
    q_pos: float = 0.02**2  # process noise densities, per second
    q_speed: float = 0.2**2
    q_heading: float = 0.02**2
    q_yaw_rate: float = 0.4**2
    dof_floor: float = 5.0
    dof_retain_per_s: float = 0.99
    init_dof: float = 10.0
    init_extent_floor: float = 0.04  # m^2, eigenvalue floor of the initial extent
    init_cov: tuple[float, ...] = (0.25, 0.25, 1.0, 1.0, 0.25)
    seed_baseline: float = 0.5  # s of track before heading/speed are seeded from displacement
    extract_scale: float = 1.0


def _sqrtm_spd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def _inv_sqrtm_spd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    if w[0] <= 0.0:
        raise ExtentError("matrix is not positive definite")
    return (v / np.sqrt(w)) @ v.T


def _ct_step(kin: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Constant-turn transition and its Jacobian."""
    x, y, v, h, w = kin
    out = kin.copy()
    jac = np.eye(5)
    if abs(w) > _OMEGA_EPS:
        h1 = h + w * dt
        sh, ch = math.sin(h), math.cos(h)
        sh1, ch1 = math.sin(h1), math.cos(h1)
        out[0] = x + (v / w) * (sh1 - sh)
        out[1] = y - (v / w) * (ch1 - ch)
        jac[0, 2] = (sh1 - sh) / w
        jac[0, 3] = (v / w) * (ch1 - ch)
        jac[0, 4] = v * (dt * ch1 * w - (sh1 - sh)) / w**2
        jac[1, 2] = -(ch1 - ch) / w
        jac[1, 3] = (v / w) * (sh1 - sh)
        jac[1, 4] = v * (dt * sh1 * w + (ch1 - ch)) / w**2
    else:
        # Second-order series in w*dt keeps the straight-line limit smooth.
        sh, ch = math.sin(h), math.cos(h)
        wd = w * dt
        out[0] = x + v * dt * (ch - 0.5 * wd * sh - wd * wd / 6.0 * ch)
        out[1] = y + v * dt * (sh + 0.5 * wd * ch - wd * wd / 6.0 * sh)
        jac[0, 2] = dt * (ch - 0.5 * wd * sh)
        jac[0, 3] = -v * dt * (sh + 0.5 * wd * ch)
        jac[0, 4] = -0.5 * v * dt * dt * sh
        jac[1, 2] = dt * (sh + 0.5 * wd * ch)
        jac[1, 3] = v * dt * (ch - 0.5 * wd * sh)
        jac[1, 4] = 0.5 * v * dt * dt * ch
    out[3] = h + w * dt
    jac[3, 4] = dt
    return out, jac


def predict(track: RmmTrack, dt: float, params: TrackerParams = TrackerParams()) -> RmmTrack:
    """Propagate kinematics along a circular arc and rotate the extent with it."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    kin, jac = _ct_step(track.kin, dt)
    q = np.diag(
        [
            params.q_pos * dt,
            params.q_pos * dt,
            params.q_speed * dt,
            params.q_heading * dt,
            params.q_yaw_rate * dt,
        ]
    )
    cov = jac @ track.cov @ jac.T + q
    cov = 0.5 * (cov + cov.T)
    rot = rotation_matrix(track.kin[4] * dt)
    extent = rot @ track.extent @ rot.T
    extent = 0.5 * (extent + extent.T)
    retain = params.dof_retain_per_s**dt
    dof = params.dof_floor + (track.dof - params.dof_floor) * retain
    dof = max(dof, params.dof_floor)
    return RmmTrack(kin=kin, cov=cov, extent=extent, dof=dof, timestamp=track.timestamp + dt)


def update(
    track: RmmTrack,
    points,
    params: TrackerParams = TrackerParams(),
    *,
    radial_velocities=None,
    sensor_pos=None,
    use_doppler: bool = False,
) -> RmmTrack:
    """Measurement update from one scan's assigned points.

    The position is corrected against the measurement mean with an innovation
    covariance that combines the scaled extent with sensor noise; the extent
    becomes a dof-weighted blend of its prediction, the measurement scatter,
    and the innovation outer product.  With `use_doppler`, a scalar update
    against the scan's mean radial velocity follows.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n == 0:
        raise ValueError("update requires at least one detection")
    zbar = pts.mean(axis=0)
    diffs = pts - zbar
    scatter = diffs.T @ diffs

    hmat = np.zeros((2, 5))
    hmat[0, 0] = 1.0
    hmat[1, 1] = 1.0
    noise = params.meas_noise_sigma**2 * np.eye(2)
    spread = params.extent_scale * track.extent + noise
    innov_cov = hmat @ track.cov @ hmat.T + spread / n
    innov_cov = 0.5 * (innov_cov + innov_cov.T)
    gain = track.cov @ hmat.T @ np.linalg.inv(innov_cov)
    innovation = zbar - track.kin[:2]
    kin = track.kin + gain @ innovation
    cov = track.cov - gain @ innov_cov @ gain.T
    cov = 0.5 * (cov + cov.T)

    x_sqrt = _sqrtm_spd(track.extent)
    s_isqrt = _inv_sqrtm_spd(innov_cov)
    y_isqrt = _inv_sqrtm_spd(spread)
    n_hat = np.outer(innovation, innovation)
    n_scaled = x_sqrt @ s_isqrt @ n_hat @ s_isqrt.T @ x_sqrt.T
    z_scaled = x_sqrt @ y_isqrt @ scatter @ y_isqrt.T @ x_sqrt.T
    extent = (track.dof * track.extent + n_scaled + z_scaled) / (track.dof + n)
    extent = 0.5 * (extent + extent.T)

    updated = RmmTrack(
        kin=kin, cov=cov, extent=extent, dof=track.dof + n, timestamp=track.timestamp
    )
    if use_doppler:
        if radial_velocities is None or sensor_pos is None:
            raise ValueError("doppler update needs radial velocities and the sensor position")
        updated = _doppler_update(updated, np.mean(radial_velocities), sensor_pos, params)
    return updated


def _doppler_update(
    track: RmmTrack, vr_meas: float, sensor_pos, params: TrackerParams
) -> RmmTrack:
    x, y, v, h, _ = track.kin
    los = np.array([x, y]) - np.asarray(sensor_pos, dtype=float)
    dist = float(np.hypot(los[0], los[1]))
    if dist < 1e-6:
        return track
    u = los / dist
    ch, sh = math.cos(h), math.sin(h)
    vr_pred = v * (ch * u[0] + sh * u[1])
    hvec = np.zeros(5)
    hvec[2] = ch * u[0] + sh * u[1]
    hvec[3] = v * (-sh * u[0] + ch * u[1])
    s = float(hvec @ track.cov @ hvec) + params.doppler_noise_sigma**2
    gain = track.cov @ hvec / s
    kin = track.kin + gain * (vr_meas - vr_pred)
    cov = track.cov - np.outer(gain, gain) * s
    cov = 0.5 * (cov + cov.T)
    return RmmTrack(
        kin=kin, cov=cov, extent=track.extent, dof=track.dof, timestamp=track.timestamp
    )


def extract_extent(track: RmmTrack, scale: float = 1.0) -> ExtentEstimate:
    """Length, width, and orientation from the eigen-structure of the extent."""
    if scale <= 0:
        raise ValueError("scale must be > 0")
    m = scale * track.extent
    eigval, eigvec = np.linalg.eigh(m)
    if eigval[0] <= 0.0:
        raise ExtentError("extent matrix is not positive definite")
    major = eigvec[:, 1]
    return ExtentEstimate(
        length=2.0 * math.sqrt(eigval[1]),
        width=2.0 * math.sqrt(eigval[0]),
        orientation=fold_axis(math.atan2(major[1], major[0])),
    )


def initialize_track(
    points, timestamp: float, params: TrackerParams = TrackerParams()
) -> RmmTrack:
    """Start a track on the first scan: mean position, zero speed, scatter extent.

    The scan scatter lives in the measurement-spread domain, so it maps to the
    extent domain through the extent scale; eigenvalues are floored to avoid a
    degenerate start.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        raise ValueError("cannot initialize a track without detections")
    center = pts.mean(axis=0)
    if len(pts) > 1:
        ext = np.cov(pts, rowvar=False, ddof=1) / params.extent_scale
    else:
        ext = np.zeros((2, 2))
    eigval, eigvec = np.linalg.eigh(0.5 * (ext + ext.T))
    eigval = np.maximum(eigval, params.init_extent_floor)
    extent = (eigvec * eigval) @ eigvec.T
    kin = np.array([center[0], center[1], 0.0, 0.0, 0.0])
    return RmmTrack(
        kin=kin,
        cov=np.diag(params.init_cov),
        extent=extent,
        dof=params.init_dof,
        timestamp=timestamp,
    )


@dataclass(frozen=True)
class TrackerScan:
    """Minimal per-scan tracker input."""

    timestamp: float
    points: np.ndarray  # (n, 2) global
    radial_velocities: np.ndarray  # (n,)
    sensor_pos: np.ndarray  # (2,) global


@dataclass(frozen=True)
class TrackPoint:
    """One row of a tracked (or ground-truth) series."""

    timestamp: float
    x: float
    y: float
    speed: float
    heading: float
    yaw_rate: float
    length: float
    width: float
    orientation: float


def run_tracker(
    scans: list[TrackerScan],
    params: TrackerParams = TrackerParams(),
    *,
    use_doppler: bool = False,
) -> list[TrackPoint]:
    """Drive the filter over a scan sequence and emit one state row per scan.

    The track starts on the first non-empty scan; heading and speed are seeded
    from the track displacement once `seed_baseline` seconds have passed, and
    Doppler updates only engage after that.
    """
    track: RmmTrack | None = None
    seeded = False
    anchor: tuple[float, np.ndarray] | None = None
    out: list[TrackPoint] = []
    for scan in scans:
        if len(scan.points) == 0:
            continue
        if track is None:
            track = initialize_track(scan.points, scan.timestamp, params)
            anchor = (scan.timestamp, track.position)
        else:
            dt = scan.timestamp - track.timestamp
            if dt <= 0:
                raise ValueError("scan timestamps must be strictly increasing")
            track = predict(track, dt, params)
            track = update(
                track,
                scan.points,
                params,
                radial_velocities=scan.radial_velocities,
                sensor_pos=scan.sensor_pos,
                use_doppler=use_doppler and seeded,
            )
            if not seeded and anchor is not None:
                span = track.timestamp - anchor[0]
                if span >= params.seed_baseline:
                    delta = track.position - anchor[1]
                    track.kin[2] = float(np.hypot(delta[0], delta[1])) / span
                    track.kin[3] = wrap_angle(float(math.atan2(delta[1], delta[0])))
                    seeded = True
        est = extract_extent(track, params.extract_scale)
        out.append(
            TrackPoint(
                timestamp=track.timestamp,
                x=float(track.kin[0]),
                y=float(track.kin[1]),
                speed=float(track.kin[2]),
                heading=float(track.kin[3]),
                yaw_rate=float(track.kin[4]),
                length=est.length,
                width=est.width,
                orientation=est.orientation,
            )
        )
    return out


@dataclass(frozen=True)
class ErrorSeries:
    timestamps: np.ndarray
    rmse_centroid: np.ndarray  # running RMSE up to each step
    rmse_length: np.ndarray
    rmse_width: np.ndarray
    abs_yaw_rate_error: np.ndarray  # per-step absolute errors
    abs_orientation_error_deg: np.ndarray  # folded modulo pi


def tracking_metrics(estimates: list[TrackPoint], truth: list[TrackPoint]) -> ErrorSeries:
    """Running RMSE and absolute-error series of a track against ground truth."""
    if len(estimates) != len(truth):
        raise ValueError("estimate and truth series differ in length")
    if len(estimates) == 0:
        raise ValueError("empty series")
    for e, g in zip(estimates, truth):
        if abs(e.timestamp - g.timestamp) > 1e-9:
            raise ValueError(f"series misaligned at t={e.timestamp} vs {g.timestamp}")
    ts = np.array([e.timestamp for e in estimates])
    sq_cent = np.array(
        [(e.x - g.x) ** 2 + (e.y - g.y) ** 2 for e, g in zip(estimates, truth)]
    )
    sq_len = np.array([(e.length - g.length) ** 2 for e, g in zip(estimates, truth)])
    sq_wid = np.array([(e.width - g.width) ** 2 for e, g in zip(estimates, truth)])
    steps = np.arange(1, len(ts) + 1)
    return ErrorSeries(
        timestamps=ts,
        rmse_centroid=np.sqrt(np.cumsum(sq_cent) / steps),
        rmse_length=np.sqrt(np.cumsum(sq_len) / steps),
        rmse_width=np.sqrt(np.cumsum(sq_wid) / steps),
        abs_yaw_rate_error=np.array(
            [abs(e.yaw_rate - g.yaw_rate) for e, g in zip(estimates, truth)]
        ),
        abs_orientation_error_deg=np.array(
            [
                abs(math.degrees(fold_axis(e.orientation - g.orientation)))
                for e, g in zip(estimates, truth)
            ]
        ),
    )
