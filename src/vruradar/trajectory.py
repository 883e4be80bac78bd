"""Reference trajectories from GNSS and IMU streams.

Raw streams are smoothed with a centered moving average, positions are
interpolated with a natural cubic spline, and an optional loosely-coupled
GNSS+IMU filter provides robustness against GNSS perturbations: it dead
reckons on gyro and accelerometer data and only accepts GNSS fixes whose
innovation passes a gate.  The filter has one tuning, held in this module's
constants (`GATE` to `V_MAX`) together with `STANDSTILL_SPEED`; no caller
sets its own.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

# The series declarations are defined in core and importable from here as before.
from .core import GNSS_COLUMNS, IMU_COLUMNS, QUALITY_DTYPE, TRAJ_COLUMNS, GnssQuality, wrap_angle

STANDSTILL_SPEED = 0.05  # m/s, shared branch threshold for standstill handling

# Gains and gates of the loosely-coupled GNSS+IMU filter in `fuse_gnss_imu`.
GATE = 0.5  # m, innovation gate separating perturbations from RTK noise
GATE_GROWTH = 0.15  # m/s of coasting added to the gate, models drift uncertainty
GATE_MAX = 1.5  # m, keeps far-off fixes rejected no matter how long the coast
MAX_REJECT_TIME = 12.0  # s of consecutive gating before a hard reset
MAX_FIX_GAP = 0.3  # s, course/speed window resets across acceptance gaps
POS_GAIN = 0.3
SPEED_GAIN = 0.2
COURSE_GAIN = 0.12
COURSE_WINDOW = 9  # accepted fixes used for the GNSS course/speed estimate
COURSE_MIN_DIST = 0.15  # m, displacement needed before course is trusted
COURSE_MIN_SPAN = 0.25  # s, baseline needed before course/speed are trusted
MAX_COURSE_STEP = 0.05  # rad, per-fix yaw correction limit
MAX_SPEED_STEP = 0.25  # m/s, per-fix speed correction limit
GYRO_BIAS_GAIN = 0.01
ACCEL_BIAS_GAIN = 0.01
BIAS_ADAPT_MAX_VERR = 0.3  # m/s, bias learning pauses above these errors
BIAS_ADAPT_MAX_CERR = 0.1  # rad
OMEGA_MIN = 0.05  # rad/s, standstill yaw-rate threshold
V_MAX = 12.0  # m/s


class FusionError(RuntimeError):
    """No trajectory could be built from valid streams: the fusion filter gave too few
    states, or a stage's arithmetic overflowed on finite but huge coordinates."""


class OutOfRangeError(ValueError):
    """Query time outside the trajectory support; no extrapolation is done."""


def _clip(value: float, bound: float) -> float:
    return max(-bound, min(bound, value))


def moving_average(values, window: int = 9) -> np.ndarray:
    """Centered moving average with the window clipped at the stream boundaries.

    `values` is (n,) or (n, d); the output has the same shape.  At index i the
    mean is taken over [i - window//2, i + window//2] intersected with the
    valid range, so boundary samples average over fewer points and the output
    length equals the input length.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    arr = np.asarray(values, dtype=float)
    n = arr.shape[0]
    if n == 0:
        return arr.copy()
    half = window // 2
    flat = arr.reshape(n, -1)
    csum = np.vstack([np.zeros((1, flat.shape[1])), np.cumsum(flat, axis=0)])
    idx = np.arange(n)
    lo = np.maximum(0, idx - half)
    hi = np.minimum(n, idx + half + 1)
    out = (csum[hi] - csum[lo]) / (hi - lo)[:, None]
    return out.reshape(arr.shape)


class NaturalCubicSpline:
    """Natural cubic spline through knots (t_i, y_i): zero second derivative at both ends.

    The knot second derivatives solve one tridiagonal system by the Thomas
    algorithm (de Boor, *A Practical Guide to Splines*, 1978).  Each interval
    keeps its cubic in powers of s = t - t_i, so evaluation is one
    `searchsorted` plus Horner's rule.  Queries outside [t_0, t_n] extend the
    end cubics; callers check the support.
    """

    def __init__(self, times: np.ndarray, values: np.ndarray):
        """`times` (n,) strictly increasing with n >= 2, `values` (n, d)."""
        self.knots = times
        self._inner = times[1:-1]
        h = np.diff(times)
        slope = np.diff(values, axis=0) / h[:, None]
        m = _natural_second_derivatives(h, slope)
        # Interval i as rows [s^3, s^2, s, 1] coefficients, each (n - 1, d).
        self._coef = np.stack([
            (m[1:] - m[:-1]) / (6.0 * h[:, None]),
            0.5 * m[:-1],
            slope - h[:, None] * (2.0 * m[:-1] + m[1:]) / 6.0,
            values[:-1],
        ])

    def __call__(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Value, first and second derivative at `t`, each of shape `np.shape(t) + (d,)`."""
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(self._inner, t, side="right")  # end intervals extend outward
        s = (t - self.knots[i])[..., None]
        d3, d2, d1, d0 = self._coef[:, i]
        value = d0 + s * (d1 + s * (d2 + s * d3))
        first = d1 + s * (2.0 * d2 + s * (3.0 * d3))
        second = 2.0 * d2 + s * (6.0 * d3)
        return value, first, second


def _natural_second_derivatives(h: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Knot second derivatives m of the natural spline with interval widths `h`.

    Interior knot j satisfies h[j-1] m[j-1] + 2 (h[j-1] + h[j]) m[j] + h[j] m[j+1]
    = 6 (slope[j] - slope[j-1]), with m = 0 at both ends.  The system is
    strictly diagonally dominant, so the Thomas algorithm needs no pivoting.
    """
    m = np.zeros((len(h) + 1, slope.shape[1]))
    hs = h.tolist()
    k = len(hs) - 1  # interior knots
    if k == 0:
        return m
    diag = [2.0 * (a + b) for a, b in zip(hs, hs[1:])]
    weight = [0.0] * k
    for i in range(1, k):
        weight[i] = hs[i] / diag[i - 1]
        diag[i] -= weight[i] * hs[i]
    for col, x in enumerate((6.0 * np.diff(slope, axis=0)).T.tolist()):
        for i in range(1, k):
            x[i] -= weight[i] * x[i - 1]
        x[-1] /= diag[-1]
        for i in range(k - 2, -1, -1):
            x[i] = (x[i] - hs[i + 1] * x[i + 1]) / diag[i]
        m[1:-1, col] = x
    return m


class ReferenceTrajectory:
    """Time-continuous track built from smoothed positions.

    Positions come from a natural cubic spline through the knots; speed is the
    spline tangent magnitude; yaw follows the tangent while moving and holds
    the last moving value at standstill; yaw rate comes from the IMU stream,
    smoothed by a centered moving average, when one is supplied and from
    spline curvature otherwise.
    """

    def __init__(self, times, positions, *, imu: np.ndarray | None = None):
        t = np.asarray(times, dtype=float)
        xy = np.asarray(positions, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ValueError("need at least two samples to build a trajectory")
        if np.any(np.diff(t) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if xy.shape != (len(t), 2):
            raise ValueError(f"positions must be (n, 2), got {xy.shape}")
        if not np.isfinite(xy).all():
            raise ValueError("positions must be finite")
        self._times = t
        self._imu_t = self._imu_w = None
        # Finite values far beyond any real position or rate can still overflow; a spline
        # that does is refused, and `states_at` refuses states that do.
        with np.errstate(over="ignore", invalid="ignore"):
            self._spline = NaturalCubicSpline(t, xy)
            if imu is not None and len(imu):
                self._imu_t = np.array(imu["timestamp"])
                self._imu_w = moving_average(imu["yaw_rate"])
            # Per knot, the chord whose direction the standstill hold keeps: the
            # last moving chord before the knot, or else the first moving chord.
            # Knot-to-knot chords are used instead of spline tangents: the natural
            # spline rings at an abrupt stop and can point backwards there.
            self._chords = np.diff(xy, axis=0)
            moving = np.hypot(*self._chords.T) / np.diff(t) >= STANDSTILL_SPEED
        if not (np.isfinite(self._spline._coef).all() and np.isfinite(self._chords).all()):
            raise FusionError("the spline through the trajectory positions overflows")
        self._held_chord = None  # no moving chord: yaw holds 0
        if moving.any():
            k0 = int(np.argmax(moving))
            last = np.maximum.accumulate(np.where(moving, np.arange(len(moving)), k0))
            self._held_chord = np.concatenate(([k0], last))

    @property
    def t_start(self) -> float:
        return float(self._times[0])

    @property
    def t_end(self) -> float:
        return float(self._times[-1])

    def states_at(self, times) -> np.ndarray:
        """(n, 5) rows of x, y, yaw, speed and yaw rate at `times`, all inside the support."""
        t = np.asarray(times, dtype=float)
        outside = (t < self.t_start) | (t > self.t_end)
        if outside.any():
            raise OutOfRangeError(f"t={t[outside][0]} outside trajectory support "
                                  f"[{self.t_start}, {self.t_end}]")
        with np.errstate(over="ignore", invalid="ignore"):
            pos, (vx, vy), (ax, ay) = (c.T for c in self._spline(t))
            speed = np.hypot(vx, vy)
            yaw = np.arctan2(vy, vx)
            hold = speed < STANDSTILL_SPEED
            if self._held_chord is None:
                yaw[hold] = 0.0
            else:
                knot = np.searchsorted(self._times, t[hold], side="right") - 1
                dx, dy = self._chords[self._held_chord[knot]].T
                yaw[hold] = np.arctan2(dy, dx)
            yaw[yaw == -math.pi] = math.pi  # wrapped as Pose wraps it
            if self._imu_t is not None:
                yaw_rate = np.interp(t, self._imu_t, self._imu_w)
            else:
                turning = speed > 1e-9
                yaw_rate = np.zeros(len(t))
                yaw_rate[turning] = (vx * ay - vy * ax)[turning] / speed[turning] ** 2
            states = np.column_stack([*pos, yaw, speed, yaw_rate])
        if not np.isfinite(states).all():
            raise FusionError("the trajectory's states overflow at the query times")
        return states


def build_trajectory(gnss: np.ndarray) -> ReferenceTrajectory:
    """Smooth the positions of a GNSS stream and wrap them as a queryable reference trajectory."""
    if len(gnss) < 2:
        raise ValueError("need at least two GNSS samples")
    _check_finite(gnss, "GNSS", ("x", "y"))
    return ReferenceTrajectory(gnss["timestamp"], _smoothed(gnss, "GNSS"))


def _xy(series: np.ndarray) -> np.ndarray:
    return np.column_stack([series["x"], series["y"]])


def _check_finite(series: np.ndarray, name: str, columns: tuple[str, ...]) -> None:
    """Raise a ValueError naming the first sample of `series` whose `columns` are not finite."""
    bad = ~np.isfinite(np.column_stack([series[c] for c in columns])).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        what = "pose position" if columns == ("x", "y") else " and ".join(columns)
        raise ValueError(f"{name} sample {k} at t={series['timestamp'][k]:.9f}: "
                         f"{what} must be finite")


def _smoothed(series: np.ndarray, stage: str) -> np.ndarray:
    """`moving_average` of a series' positions; a FusionError names `stage` if they are
    so large that its running sum overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        xy = moving_average(_xy(series))
    if not np.isfinite(xy).all():
        raise FusionError(f"smoothing the {stage} positions overflows")
    return xy


def fuse_gnss_imu(gnss: np.ndarray, imu: np.ndarray) -> np.ndarray:
    """Dead-reckon on IMU data and apply gated GNSS position corrections.

    Output states, a table of TRAJ_COLUMNS, are emitted at the IMU timestamps
    that fall inside the overlap of both streams.  While GNSS is gated out
    (perturbation) or flagged DEGRADED the filter coasts on the IMU alone;
    below the standstill thresholds the position freezes and speed resets to
    zero.
    """
    if not len(gnss) or not len(imu):
        raise ValueError("both GNSS and IMU streams must be non-empty")
    _check_finite(gnss, "GNSS", ("x", "y"))
    _check_finite(imu, "IMU", ("yaw_rate", "accel_forward"))
    for name, stream in (("GNSS", gnss), ("IMU", imu)):
        times = stream["timestamp"]
        bad = np.flatnonzero(np.diff(times) <= 0)
        if len(bad):
            k = int(bad[0]) + 1
            raise ValueError(
                f"{name} timestamps must be strictly increasing: sample {k} at t={times[k]:.9f}"
                f" follows t={times[k - 1]:.9f}"
            )
    unknown = set(gnss["quality"].tolist()) - set(GnssQuality._value2member_map_)
    if unknown:  # e.g. a value cut short by a narrow text column
        raise ValueError(f"unknown GNSS quality {min(unknown)!r}")
    fixes = list(zip(*(gnss[name].tolist() for name in ("timestamp", "x", "y")),
                     (gnss["quality"] == GnssQuality.DEGRADED).tolist()))
    t0 = max(fixes[0][0], float(imu["timestamp"][0]))
    t1 = min(fixes[-1][0], float(imu["timestamp"][-1]))
    if t0 >= t1:
        raise ValueError("GNSS and IMU streams do not overlap in time")

    # Snap to the first usable fix; the filter engages once the fix window
    # establishes course and speed (or confirms a standstill start).
    g_idx = 0
    while fixes[g_idx][0] < t0:
        g_idx += 1
    last_accept_t, x, y, _ = fixes[g_idx]
    yaw = 0.0
    speed = 0.0
    gyro_bias = 0.0
    accel_bias = 0.0
    initializing = True
    recent: deque[tuple[float, float, float]] = deque(maxlen=COURSE_WINDOW)  # (t, x, y)

    out: list[tuple[float, ...]] = []
    prev_t: float | None = None
    for t, yaw_rate, accel_forward in zip(
            *(imu[name].tolist() for name in ("timestamp", "yaw_rate", "accel_forward"))):
        if t < t0 or t > t1:
            continue
        dt = 0.0 if prev_t is None else t - prev_t
        prev_t = t
        w = yaw_rate - gyro_bias
        a = accel_forward - accel_bias
        standstill = speed < STANDSTILL_SPEED and abs(w) < OMEGA_MIN
        if dt > 0.0 and not initializing:
            if standstill:
                speed = 0.0
            else:
                yaw = wrap_angle(yaw + w * dt)
                x += speed * math.cos(yaw) * dt
                y += speed * math.sin(yaw) * dt
                speed = min(max(speed + a * dt, 0.0), V_MAX)

        while g_idx < len(fixes) and fixes[g_idx][0] <= t:
            fix_t, fix_x, fix_y, degraded = fixes[g_idx]
            g_idx += 1
            if degraded:
                continue
            if not initializing:
                innovation = math.hypot(fix_x - x, fix_y - y)
                gate = min(GATE_MAX, GATE + GATE_GROWTH * max(0.0, fix_t - last_accept_t))
                if innovation >= gate:
                    if fix_t - last_accept_t > MAX_REJECT_TIME:
                        # Persistent disagreement: reinitialize on the fix.
                        x, y = fix_x, fix_y
                        recent.clear()
                        last_accept_t = fix_t
                    continue
            last_accept_t = fix_t
            if recent and fix_t - recent[-1][0] > MAX_FIX_GAP:
                recent.clear()
            recent.append((fix_t, fix_x, fix_y))
            oldest_t, oldest_x, oldest_y = recent[0]
            dx, dy = fix_x - oldest_x, fix_y - oldest_y
            dist = math.hypot(dx, dy)
            span = fix_t - oldest_t

            if initializing:
                x, y = fix_x, fix_y
                if span >= COURSE_MIN_SPAN and dist >= COURSE_MIN_DIST:
                    # Moving start: seed course and speed from the fix window.
                    half_turn = 0.5 * w * span
                    yaw = wrap_angle(math.atan2(dy, dx) + half_turn)
                    speed = min(dist / span, V_MAX)
                    initializing = False
                elif span >= 4.0 * COURSE_MIN_SPAN and dist < COURSE_MIN_DIST:
                    # Standstill start: engage frozen at the fix position.
                    yaw = 0.0
                    speed = 0.0
                    initializing = False
                continue

            if not standstill:
                x += POS_GAIN * (fix_x - x)
                y += POS_GAIN * (fix_y - y)
            if span >= COURSE_MIN_SPAN:
                # The fix-window secant measures speed and course at the
                # window midpoint; while turning, rotate it forward by half
                # a window and stretch chord to arc before comparing.
                half_turn = 0.5 * w * span
                chord_factor = half_turn / math.sin(half_turn) if abs(half_turn) > 1e-6 else 1.0
                v_gnss = dist / span * chord_factor
                err_v = v_gnss - speed
                step_v = _clip(SPEED_GAIN * err_v, MAX_SPEED_STEP)
                speed = min(max(speed + step_v, 0.0), V_MAX)
                if abs(err_v) < BIAS_ADAPT_MAX_VERR:
                    accel_bias -= ACCEL_BIAS_GAIN * err_v
                if dist >= COURSE_MIN_DIST:
                    course = math.atan2(dy, dx) + half_turn
                    err_c = wrap_angle(course - yaw)
                    yaw = wrap_angle(yaw + _clip(COURSE_GAIN * err_c, MAX_COURSE_STEP))
                    if abs(err_c) < BIAS_ADAPT_MAX_CERR:
                        gyro_bias -= GYRO_BIAS_GAIN * err_c

        out.append((t, x, y, yaw, speed, w))
    states = np.array(out, dtype=[(name, float) for name in TRAJ_COLUMNS])
    if not np.isfinite(states["x"]).all() or not np.isfinite(states["y"]).all():
        raise FusionError("the fusion filter's positions overflow")
    return states


def build_fused_trajectory(gnss: np.ndarray, imu: np.ndarray) -> ReferenceTrajectory:
    """Fusion filter output smoothed and wrapped as a reference trajectory."""
    states = fuse_gnss_imu(gnss, imu)
    if len(states) < 2:
        raise FusionError("fusion produced fewer than two states")
    return ReferenceTrajectory(states["timestamp"], _smoothed(states, "fused"), imu=imu)
