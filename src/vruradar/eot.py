"""Random-matrix extended-object tracker.

The kinematic state [x, y, speed, heading, yaw_rate] follows a constant-turn
model; the object extent is a symmetric positive-definite 2x2 matrix updated
from the per-scan measurement mean and scatter, rotated along with the
heading during prediction.  An optional scalar update against the scan's mean
radial velocity anchors speed and heading to the Doppler channel.  The filter
has one tuning, held in this module's constants (`EXTENT_SCALE` to
`SEED_BASELINE`); no function takes a tuning argument.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .core import ScanTable, fold_axis, record, table, wrap_angle

_OMEGA_EPS = 1e-6  # below this |yaw rate| the straight-line series expansion is used
EXTENT_SCALE = 0.25  # measurement spread = EXTENT_SCALE * extent + noise
MEAS_NOISE_SIGMA = 0.12  # m, per-detection Cartesian noise
DOPPLER_NOISE_SIGMA = 0.15  # m/s, noise of the scan-mean radial velocity
Q_POS = 0.02**2  # process noise densities, per second
Q_SPEED = 0.2**2
Q_HEADING = 0.02**2
Q_YAW_RATE = 0.4**2
DOF_FLOOR = 5.0
DOF_RETAIN_PER_S = 0.99
INIT_DOF = 10.0
INIT_EXTENT_FLOOR = 0.04  # m^2, eigenvalue floor of the initial extent
INIT_COV = (0.25, 0.25, 1.0, 1.0, 0.25)
SEED_BASELINE = 0.5  # s of track before heading/speed are seeded from displacement
# 95% quantile of chi-square with 2 dof (-2 ln 0.05), the bound a consistent filter's position
# NIS stays within in 95% of updates (Bar-Shalom, Li & Kirubarajan 2001)
NIS_95 = -2.0 * math.log(0.05)
# The columns of a track table, as named in the header of track.csv.  run_tracker's tables
# carry a further `nis` column: the NIS of the update behind each row, NaN on the first row.
TRACK_COLUMNS = ("timestamp", "x", "y", "speed", "heading", "yaw_rate", "length", "width",
                 "orientation")
ERROR_COLUMNS = ("timestamp", "rmse_centroid", "rmse_length", "rmse_width", "abs_yaw_rate_error",
                 "abs_orientation_error_deg")


class ExtentError(RuntimeError):
    """The extent matrix lost symmetry or positive definiteness."""


@record
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
    nis: float = math.nan  # normalised innovation squared of the update that made this state

    def __post_init__(self) -> None:
        self.kin = np.array(self.kin, dtype=float)
        self.cov = np.array(self.cov, dtype=float)
        self.extent = np.array(self.extent, dtype=float)
        self._check()

    @classmethod
    def _of(cls, kin: np.ndarray, cov: np.ndarray, extent: np.ndarray, dof: float,
            timestamp: float, nis: float = math.nan) -> RmmTrack:
        """The track of float arrays that the caller has just made and holds no other
        reference to: checked as a constructed track is, but not copied."""
        track = cls.__new__(cls)
        track.kin, track.cov, track.extent = kin, cov, extent
        track.dof, track.timestamp, track.nis = dof, timestamp, nis
        track._check()
        return track

    def _check(self) -> None:
        if self.kin.shape != (5,) or self.cov.shape != (5, 5) or self.extent.shape != (2, 2):
            raise ValueError("bad state dimensions")
        (a, b), (c, d), kin = *self.extent.tolist(), self.kin.tolist()
        # A NaN or an infinity makes the sum of every value non-finite; so can a sum that
        # overflows, which the check of each field tells apart.
        if not math.isfinite(sum(self.cov.ravel().tolist(), sum(kin, a + b + c + d + self.dof
                                                                    + self.timestamp))):
            for name in ("kin", "cov", "extent", "dof", "timestamp"):
                if not np.isfinite(getattr(self, name)).all():
                    raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        # np.allclose(extent, extent.T, atol=1e-12) in closed form; NaN fails every comparison.
        if not (abs(b - c) <= 1e-12 + 1e-5 * abs(c) and abs(c - b) <= 1e-12 + 1e-5 * abs(b)):
            raise ExtentError("extent matrix is not symmetric")
        if not (a > 0.0 and a * d - c * c > 0.0):
            raise ExtentError("extent matrix is not positive definite")
        if self.dof <= 4.0:
            raise ValueError(f"dof must be > 4, got {self.dof}")
        self.kin[3] = wrap_angle(kin[3])

    @property
    def position(self) -> np.ndarray:
        return self.kin[:2].copy()


def _sym(m: np.ndarray) -> tuple[float, float, float]:
    """Entries (a, b, d) of a symmetric 2x2 [[a, b], [b, d]], from its lower triangle."""
    (a, _), (b, d) = m.tolist()
    return a, b, d


def _sqrtm_spd(a: float, b: float, d: float) -> tuple[float, float, float]:
    """Square root of the SPD [[a, b], [b, d]]: (M + s I) / t, s = sqrt(det), t = sqrt(tr + 2s)."""
    s = math.sqrt(a * d - b * b)
    t = math.sqrt(a + d + 2.0 * s)
    return (a + s) / t, b / t, (d + s) / t


def _inv_sqrtm_spd(a: float, b: float, d: float) -> tuple[float, float, float]:
    """Inverse of `_sqrtm_spd`: t (M + s I)^-1, where det(M + s I) = s t^2."""
    det = a * d - b * b
    if not (a > 0.0 and det > 0.0):
        raise ExtentError("matrix is not positive definite")
    s = math.sqrt(det)
    st = s * math.sqrt(a + d + 2.0 * s)
    return (d + s) / st, -b / st, (a + s) / st


def _inv_spd(a: float, b: float, d: float) -> tuple[float, float, float]:
    """Inverse of the SPD [[a, b], [b, d]] by its adjugate."""
    det = a * d - b * b
    if not (a > 0.0 and det > 0.0):
        raise ExtentError("matrix is not positive definite")
    return d / det, -b / det, a / det


def _ct_step(x: float, y: float, v: float, h: float, w: float, dt: float):
    """Constant-turn transition of the position, and the Jacobian rows d(x, y)/d(speed, heading,
    yaw_rate); the rest of the Jacobian is the identity but for d heading/d yaw_rate = dt."""
    sh, ch = math.sin(h), math.cos(h)
    if abs(w) > _OMEGA_EPS:
        sh1, ch1 = math.sin(h + w * dt), math.cos(h + w * dt)
        ds, dc = sh1 - sh, ch1 - ch
        r = v / w
        return (x + r * ds, y - r * dc, (ds / w, r * dc, v * (dt * ch1 * w - ds) / (w * w)),
                (-dc / w, r * ds, v * (dt * sh1 * w + dc) / (w * w)))
    # Second-order series in w*dt keeps the straight-line limit smooth.
    wd = w * dt
    cx, cy = ch - 0.5 * wd * sh, sh + 0.5 * wd * ch
    return (
        x + v * dt * (cx - wd * wd / 6.0 * ch),
        y + v * dt * (cy - wd * wd / 6.0 * sh),
        (dt * cx, -v * dt * cy, -0.5 * v * dt * dt * sh),
        (dt * cy, v * dt * cx, 0.5 * v * dt * dt * ch),
    )


_EYE5 = np.eye(5)


def predict(track: RmmTrack, dt: float) -> RmmTrack:
    """Propagate kinematics along a circular arc and rotate the extent with it."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    x, y, v, h, w = track.kin.tolist()
    jac = _EYE5.copy()
    x1, y1, jac[0, 2:], jac[1, 2:] = _ct_step(x, y, v, h, w, dt)
    jac[3, 4] = dt
    cov = jac @ track.cov @ jac.T
    cov.flat[::6] += (Q_POS * dt, Q_POS * dt, Q_SPEED * dt, Q_HEADING * dt, Q_YAW_RATE * dt)
    cov = 0.5 * (cov + cov.T)
    # R X R^T for the rotation R by the turned angle, written out for a symmetric X
    a, b, d = _sym(track.extent)
    c, s = math.cos(w * dt), math.sin(w * dt)
    cc, cs, ss = c * c, c * s, s * s
    a1, d1 = cc * a - 2.0 * cs * b + ss * d, ss * a + 2.0 * cs * b + cc * d
    b1 = cs * (a - d) + (cc - ss) * b
    retain = DOF_RETAIN_PER_S**dt
    dof = DOF_FLOOR + (track.dof - DOF_FLOOR) * retain
    dof = max(dof, DOF_FLOOR)
    return RmmTrack._of(np.array((x1, y1, v, h + w * dt, w)), cov,
                        np.array(((a1, b1), (b1, d1))), dof, track.timestamp + dt)


def update(track: RmmTrack, points, *, radial_velocities=None, sensor_pos=None) -> RmmTrack:
    """Measurement update from one scan's assigned points.

    The position is corrected against the measurement mean with an innovation
    covariance that combines the scaled extent with sensor noise; the extent
    becomes a dof-weighted blend of its prediction, the measurement scatter,
    and the innovation outer product.  Given the points' radial velocities and
    the sensor position, a scalar update against the scan's mean radial
    velocity follows.  The result carries the normalised innovation squared of
    the position update in `nis`.
    """
    if (radial_velocities is None) != (sensor_pos is None):
        raise ValueError("doppler update needs radial velocities and the sensor position")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n == 0:
        raise ValueError("update requires at least one detection")
    zbar = pts.sum(axis=0) / n
    diffs = pts - zbar
    za, zb, zd = _sym(diffs.T @ diffs)  # measurement scatter Z

    # spread Y = EXTENT_SCALE X + noise I; innovation covariance S = H P H^T + Y / n,
    # where H picks the position, so H P H^T = P[:2, :2] and P H^T = P[:, :2]
    xa, xb, xd = _sym(track.extent)
    noise = MEAS_NOISE_SIGMA**2
    k = EXTENT_SCALE
    ya, yb, yd = k * xa + noise, k * xb, k * xd + noise
    pa, pb, pd = _sym(track.cov[:2, :2])
    sa, sb, sd = pa + ya / n, pb + yb / n, pd + yd / n
    ia, ib, id_ = _inv_spd(sa, sb, sd)
    (zx, zy), (px, py) = zbar.tolist(), track.kin[:2].tolist()
    nx, ny = zx - px, zy - py  # innovation
    wx, wy = ia * nx + ib * ny, ib * nx + id_ * ny  # S^-1 innovation
    pht = track.cov[:, :2]
    kin = track.kin + pht @ np.array((wx, wy))
    cov = track.cov - pht @ np.array(((ia, ib), (ib, id_))) @ pht.T
    cov = 0.5 * (cov + cov.T)

    # extent: (dof X + X^1/2 S^-1/2 N S^-1/2 X^1/2 + X^1/2 Y^-1/2 Z Y^-1/2 X^1/2) / (dof + n),
    # with N the innovation outer product, so its term is u u^T for u = X^1/2 S^-1/2 innovation
    ra, rb, rd = _sqrtm_spd(xa, xb, xd)
    qa, qb, qd = _inv_sqrtm_spd(sa, sb, sd)
    vx, vy = qa * nx + qb * ny, qb * nx + qd * ny
    ux, uy = ra * vx + rb * vy, rb * vx + rd * vy
    qa, qb, qd = _inv_sqrtm_spd(ya, yb, yd)
    m11, m12 = ra * qa + rb * qb, ra * qb + rb * qd  # M = X^1/2 Y^-1/2
    m21, m22 = rb * qa + rd * qb, rb * qb + rd * qd
    r11, r12 = m11 * za + m12 * zb, m11 * zb + m12 * zd  # M Z
    r21, r22 = m21 * za + m22 * zb, m21 * zb + m22 * zd
    dof, weight = track.dof, track.dof + n
    ea = (dof * xa + ux * ux + r11 * m11 + r12 * m12) / weight
    eb = (dof * xb + ux * uy + r21 * m11 + r22 * m12) / weight
    ed = (dof * xd + uy * uy + r21 * m21 + r22 * m22) / weight

    if radial_velocities is not None:
        vr = np.asarray(radial_velocities, dtype=float)
        kin, cov = _doppler_update(kin, cov, vr.sum() / len(vr), sensor_pos)
    return RmmTrack._of(kin, cov, np.array(((ea, eb), (eb, ed))), weight, track.timestamp,
                        float(nx * wx + ny * wy))


def _doppler_update(kin: np.ndarray, cov: np.ndarray, vr_meas: float,
                    sensor_pos) -> tuple[np.ndarray, np.ndarray]:
    """Scalar update of the state and its (symmetric) covariance against a radial velocity."""
    x, y, v, h, _ = kin.tolist()
    sx, sy = map(float, sensor_pos)
    dist = math.hypot(x - sx, y - sy)
    if dist < 1e-6:
        return kin, cov
    ux, uy = (x - sx) / dist, (y - sy) / dist
    ch, sh = math.cos(h), math.sin(h)
    # the measurement row is zero but for d/d speed (h2) and d/d heading (h3)
    h2, h3 = ch * ux + sh * uy, v * (-sh * ux + ch * uy)
    ph = cov[:, 2:4] @ np.array((h2, h3))
    s = float(h2 * ph[2] + h3 * ph[3]) + DOPPLER_NOISE_SIGMA**2
    # P h h^T P / s, formed from the symmetric outer product so that it stays symmetric
    return kin + ph * ((vr_meas - v * h2) / s), cov - ph[:, None] * ph / s


def extract_extent(track: RmmTrack) -> tuple[float, float, float]:
    """Length, width, and orientation in (-pi/2, pi/2] from the eigen-structure of the extent,
    with length >= width > 0.

    The eigenvalues are tr/2 +- r with r = hypot((a - d)/2, b), and the major
    axis lies at atan2(2b, a - d)/2.
    """
    a, b, d = _sym(track.extent)
    mid, r = 0.5 * (a + d), math.hypot(0.5 * (a - d), b)
    if not mid - r > 0.0:  # NaN too: an infinite extent has no width
        raise ExtentError("extent matrix is not positive definite")
    # An exactly isotropic extent has no major axis; report the y axis, as eigh does.
    angle = 0.5 * math.atan2(2.0 * b, a - d) if b or a != d else math.pi / 2
    return 2.0 * math.sqrt(mid + r), 2.0 * math.sqrt(mid - r), fold_axis(angle)


def initialize_track(points, timestamp: float) -> RmmTrack:
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
        ext = np.cov(pts, rowvar=False, ddof=1) / EXTENT_SCALE
    else:
        ext = np.zeros((2, 2))
    eigval, eigvec = np.linalg.eigh(0.5 * (ext + ext.T))
    eigval = np.maximum(eigval, INIT_EXTENT_FLOOR)
    extent = (eigvec * eigval) @ eigvec.T
    kin = np.array([center[0], center[1], 0.0, 0.0, 0.0])
    return RmmTrack(kin=kin, cov=np.diag(INIT_COV), extent=extent, dof=INIT_DOF,
                    timestamp=timestamp)


def run_tracker(scans: ScanTable, sensor_pos: Mapping[str, np.ndarray], *,
                use_doppler: bool = False) -> np.ndarray:
    """Drive the filter over a table of scans and emit a track table, one row per non-empty
    scan.  A scan's points are its `global_xy` rows; `sensor_pos` maps each of its sensors to
    the sensor's (2,) global position, which the Doppler update needs.

    The track starts on the first non-empty scan; heading and speed are seeded
    from the track displacement once `SEED_BASELINE` seconds have passed, and
    Doppler updates only engage after that.
    """
    track: RmmTrack | None = None
    seeded = False
    anchor: tuple[float, np.ndarray] | None = None
    out: list[tuple[float, ...]] = []
    xy, vr, offsets = scans.detections.global_xy, scans.detections.radial_velocity, scans.offsets
    for t, sensor_id, lo, hi in zip(scans.timestamp.tolist(), scans.sensor_id.tolist(),
                                    offsets[:-1].tolist(), offsets[1:].tolist()):
        if lo == hi:
            continue
        if track is None:
            track = initialize_track(xy[lo:hi], t)
            anchor = (t, track.position)
        else:
            dt = t - track.timestamp
            if dt <= 0:
                raise ValueError("scan timestamps must be strictly increasing")
            track = predict(track, dt)
            # through the module global, so that a wrapped `update` sees every call
            if use_doppler and seeded:
                track = update(track, xy[lo:hi], radial_velocities=vr[lo:hi],
                               sensor_pos=sensor_pos[sensor_id])
            else:
                track = update(track, xy[lo:hi])
            if not seeded and anchor is not None:
                span = track.timestamp - anchor[0]
                if span >= SEED_BASELINE:
                    delta = track.position - anchor[1]
                    track.kin[2] = float(np.hypot(delta[0], delta[1])) / span
                    track.kin[3] = wrap_angle(float(math.atan2(delta[1], delta[0])))
                    seeded = True
        out.append((track.timestamp, *track.kin.tolist(), *extract_extent(track), track.nis))
    return np.array(out, dtype=[(name, float) for name in (*TRACK_COLUMNS, "nis")])


def tracking_metrics(estimates: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Running RMSE and absolute-error series of a track table against a ground-truth track
    table, as a table of ERROR_COLUMNS.  The RMSEs run up to each step, orientation errors
    are folded modulo pi."""
    if len(estimates) != len(truth):
        raise ValueError("estimate and truth series differ in length")
    if len(estimates) == 0:
        raise ValueError("empty series")
    ts, truth_ts = estimates["timestamp"], truth["timestamp"]
    misaligned = np.flatnonzero(np.abs(ts - truth_ts) > 1e-9)
    if len(misaligned):
        k = misaligned[0]
        raise ValueError(f"series misaligned at t={ts[k].item()} vs {truth_ts[k].item()}")

    # Squared by Python's `**` (libm pow): numpy's x*x differs from it in the last bit for
    # some values, and errors.csv would change.
    def squared_error(name: str) -> np.ndarray:
        return np.array([(a - b) ** 2 for a, b in zip(estimates[name].tolist(),
                                                      truth[name].tolist())])

    steps = np.arange(1, len(ts) + 1)
    orientation = (estimates["orientation"] - truth["orientation"]).tolist()
    return table(ERROR_COLUMNS, (
        ts,
        np.sqrt(np.cumsum(squared_error("x") + squared_error("y")) / steps),
        np.sqrt(np.cumsum(squared_error("length")) / steps),
        np.sqrt(np.cumsum(squared_error("width")) / steps),
        np.abs(estimates["yaw_rate"] - truth["yaw_rate"]),
        np.array([abs(math.degrees(fold_axis(d))) for d in orientation]),
    ))
