import math
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from conftest import series
from vruradar.simulator import Perturbation, preset, simulate_scenario
from vruradar.trajectory import (
    GNSS_COLUMNS,
    IMU_COLUMNS,
    QUALITY_DTYPE,
    TRAJ_COLUMNS,
    GATE_MAX,
    POS_GAIN,
    V_MAX,
    FusionError,
    GnssQuality,
    NaturalCubicSpline,
    OutOfRangeError,
    ReferenceTrajectory,
    STANDSTILL_SPEED,
    build_fused_trajectory,
    build_trajectory,
    fuse_gnss_imu,
    moving_average,
)
from dataclasses import replace


def state_at(traj, t):
    """x, y, yaw, speed and yaw rate at one time."""
    return traj.states_at([t])[0].tolist()


def gnss_series(times, x, y=0.0):
    return series(GNSS_COLUMNS, times, x, y, np.array(GnssQuality.FIX_RTK, dtype=QUALITY_DTYPE))


def imu_series(times):
    """A still IMU: no turn, no acceleration, no heading of its own."""
    return series(IMU_COLUMNS, times, 0.0, 0.0, np.nan)


# --- moving average --------------------------------------------------------

def test_moving_average_constant():
    assert moving_average([2.0] * 7, 9) == pytest.approx([2.0] * 7)


def test_moving_average_ramp_interior():
    ramp = np.arange(10.0)
    out = moving_average(ramp, 5)
    assert out[2:-2] == pytest.approx(ramp[2:-2])


def test_moving_average_hand_computed_edges():
    out = moving_average([0.0, 3.0, 0.0, 3.0, 0.0], 3)
    assert out == pytest.approx([1.5, 1.0, 2.0, 1.0, 1.5])


def test_moving_average_empty_and_validation():
    assert moving_average([], 9).size == 0
    with pytest.raises(ValueError):
        moving_average([1.0], 4)
    with pytest.raises(ValueError):
        moving_average([1.0], 0)


def test_moving_average_2d_matches_columns():
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(20, 2))
    out = moving_average(arr, 5)
    assert out[:, 0] == pytest.approx(moving_average(arr[:, 0], 5))
    assert out[:, 1] == pytest.approx(moving_average(arr[:, 1], 5))


def test_default_window_duration_matches_stream_rates():
    # 9 samples should span ~0.5 s of GNSS and ~0.1 s of IMU data
    cfg = preset("pedestrian-nominal")
    assert 9 / cfg.gnss_rate == pytest.approx(0.5, rel=0.1)
    assert 9 / cfg.imu_rate == pytest.approx(0.1, rel=0.1)


# --- spline interpolation ----------------------------------------------------

def test_spline_passes_through_knots():
    rng = np.random.default_rng(1)
    times = np.linspace(0, 10, 40)
    xy = rng.normal(0, 3, (40, 2))
    traj = ReferenceTrajectory(times, xy)
    for t, p in zip(times[::5], xy[::5]):
        assert state_at(traj, t)[:2] == pytest.approx(p, abs=1e-9)


def _assert_spline_matches_scipy(times, values, tol_value, tol_first, tol_second):
    ours = NaturalCubicSpline(times, values)
    oracle = CubicSpline(times, values, axis=0, bc_type="natural")
    between = times[:-1] + np.diff(times) * np.random.default_rng(3).uniform(size=len(times) - 1)
    query = np.concatenate([times, (times[:-1] + times[1:]) / 2, between])
    value, first, second = ours(query)
    np.testing.assert_allclose(value, oracle(query), rtol=0, atol=tol_value)
    np.testing.assert_allclose(first, oracle(query, 1), rtol=0, atol=tol_first)
    np.testing.assert_allclose(second, oracle(query, 2), rtol=0, atol=tol_second)
    for t in (times[0], times[-1]):  # scalar queries at both ends
        v, d1, d2 = ours(t)
        assert v.shape == d1.shape == d2.shape == (values.shape[1],)
        np.testing.assert_allclose(v, oracle(t), rtol=0, atol=tol_value)
        np.testing.assert_allclose(d2, [0.0] * values.shape[1], atol=tol_second)  # natural ends


def test_spline_matches_scipy_on_random_nonuniform_knots():
    rng = np.random.default_rng(11)
    times = np.cumsum(rng.uniform(0.02, 0.09, 1081))
    velocity = np.cumsum(rng.normal(0.0, 0.3, (1081, 2)), axis=0)
    xy = np.cumsum(velocity * 0.055, axis=0)
    xy *= 50.0 / np.abs(xy).max()  # positions up to 50 m
    _assert_spline_matches_scipy(times, xy, 1e-12, 1e-12, 1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_spline_matches_scipy_on_two_and_three_knots(n):
    times = np.array([0.0, 0.7, 1.9])[:n]
    xy = np.array([[1.0, -2.0], [3.5, 0.25], [2.0, 4.0]])[:n]
    _assert_spline_matches_scipy(times, xy, 1e-12, 1e-12, 1e-12)
    if n == 2:  # a straight line: constant slope, no curvature
        _, first, second = NaturalCubicSpline(times, xy)(np.linspace(0.0, 0.7, 9))
        np.testing.assert_allclose(first, np.tile((xy[1] - xy[0]) / 0.7, (9, 1)), atol=1e-15)
        assert not second.any()


def test_straight_line_speed_and_yaw():
    times = np.linspace(0, 5, 26)
    xy = np.stack([2.0 * times, np.zeros_like(times)], axis=1)
    traj = ReferenceTrajectory(times, xy)
    _, _, yaw, speed, _ = state_at(traj, 2.37)
    assert speed == pytest.approx(2.0, abs=1e-6)
    assert yaw == pytest.approx(0.0, abs=1e-9)


def test_circle_interpolation_under_1mm():
    # dense knots on an analytic circle; query between knots
    radius, omega = 5.0, 0.5
    times = np.arange(0, 12.0, 0.1)
    xy = np.stack([radius * np.cos(omega * times), radius * np.sin(omega * times)], axis=1)
    traj = ReferenceTrajectory(times, xy)
    for t in np.linspace(0.5, 11.0, 57):
        expect = [radius * math.cos(omega * t), radius * math.sin(omega * t)]
        assert np.linalg.norm(traj.states_at([t])[0, :2] - expect) < 1e-3


def test_out_of_range_raises():
    traj = ReferenceTrajectory([0.0, 1.0, 2.0], [[0, 0], [1, 0], [2, 0]])
    with pytest.raises(OutOfRangeError):
        traj.states_at([-0.1])
    with pytest.raises(OutOfRangeError):
        traj.states_at([1.0, 2.1])


def test_yaw_rate_from_curvature_on_circle():
    radius, omega = 5.0, 0.5
    times = np.arange(0, 12.0, 0.05)
    xy = np.stack([radius * np.cos(omega * times), radius * np.sin(omega * times)], axis=1)
    traj = ReferenceTrajectory(times, xy)
    assert state_at(traj, 6.0)[4] == pytest.approx(omega, rel=1e-3)


def test_yaw_hold_at_standstill():
    # move right, then stop: yaw must hold the last moving direction, not NaN
    t1 = np.linspace(0, 5, 51)
    xy1 = np.stack([t1, np.zeros_like(t1)], axis=1)
    t2 = np.linspace(5.1, 10, 50)
    xy2 = np.tile(xy1[-1], (50, 1))
    times = np.concatenate([t1, t2])
    xy = np.vstack([xy1, xy2])
    traj = ReferenceTrajectory(times, xy)
    _, _, yaw, speed, _ = state_at(traj, 8.0)
    assert speed < 0.05
    assert math.isfinite(yaw)
    assert yaw == pytest.approx(0.0, abs=0.2)


def _held_yaw_by_loop(times, xy):
    """Reference for the standstill hold: per knot, the yaw of the last moving
    chord before it, or of the first moving chord when none precedes it."""
    diffs = np.diff(xy, axis=0)
    moving = np.hypot(diffs[:, 0], diffs[:, 1]) / np.diff(times) >= STANDSTILL_SPEED
    k0 = int(np.argmax(moving))
    last = math.atan2(diffs[k0, 1], diffs[k0, 0])
    held = []
    for i in range(len(times)):
        if i >= 1 and moving[i - 1]:
            last = math.atan2(diffs[i - 1, 1], diffs[i - 1, 0])
        held.append(last)
    return held


def test_yaw_holds_through_the_stops_of_a_stop_and_go_track():
    # stand, drive at 0.3 rad, stop, drive at 2.0 rad, stop
    dt = 0.1
    legs = [(20, 0.0, 0.0), (30, 1.5, 0.3), (25, 0.0, 0.0), (30, 2.0, 2.0), (25, 0.0, 0.0)]
    steps = np.vstack([np.tile([v * math.cos(a), v * math.sin(a)], (n, 1)) * dt
                       for n, v, a in legs])
    xy = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
    times = dt * np.arange(len(xy))
    traj = ReferenceTrajectory(times, xy)
    held = _held_yaw_by_loop(times, xy)
    stops = {"start": (0.2, 1.5), "first stop": (5.5, 7.0), "second stop": (11.0, 12.3)}
    for name, (t0, t1) in stops.items():
        for t in np.linspace(t0, t1, 7):
            _, _, yaw, speed, _ = state_at(traj, t)
            assert speed < STANDSTILL_SPEED, (name, t)
            knot = int(np.searchsorted(times, t, side="right") - 1)
            assert yaw == held[knot], (name, t)
    yaw = traj.states_at([1.0, 6.0, 12.0, 9.5])[:, 2]
    assert yaw[:3] == pytest.approx([0.3, 0.3, 2.0], abs=1e-12)  # from 1.0: first moving chord
    assert yaw[3] == pytest.approx(2.0, abs=1e-9)  # moving: tangent


def test_build_trajectory_smooths_gnss_positions():
    gnss = gnss_series(np.arange(10) * 0.1, np.arange(10.0) ** 2, np.arange(10.0))
    traj = build_trajectory(gnss)
    expected = moving_average(np.column_stack([gnss["x"], gnss["y"]]))
    np.testing.assert_allclose(traj.states_at(gnss["timestamp"])[:, :2], expected, atol=1e-12)


# --- fusion -------------------------------------------------------------------

def test_fusion_rejects_empty_and_disjoint():
    gnss = gnss_series([0.0, 1.0], 0.0)
    imu = imu_series([5.0])
    with pytest.raises(ValueError):
        fuse_gnss_imu(gnss[:0], imu)
    with pytest.raises(ValueError):
        fuse_gnss_imu(gnss, imu)


@pytest.mark.parametrize("stream", ["GNSS", "IMU"])
def test_fusion_rejects_disordered_stream(stream):
    gnss = gnss_series(np.arange(37) / 18.0, 1.4 * np.arange(37) / 18.0)
    imu = imu_series(np.arange(181) / 90.0)
    samples = gnss if stream == "GNSS" else imu
    samples[[5, 6]] = samples[[6, 5]]
    with pytest.raises(ValueError, match=f"{stream} timestamps must be strictly increasing: sample 6"):
        fuse_gnss_imu(gnss, imu)
    if stream == "GNSS":
        with pytest.raises(ValueError, match="GNSS timestamps must be strictly increasing: "
                                             "sample 6 at t=0.277777778 follows t=0.333333333"):
            build_trajectory(gnss)


def test_fusion_clean_matches_smoothed_gnss():
    cfg = preset("pedestrian-nominal", seed=3)
    data = simulate_scenario(cfg)
    tg = build_trajectory(data.gnss)
    tf = build_fused_trajectory(data.gnss, data.imu)
    tq = np.linspace(1.0, cfg.duration - 1.0, 400)
    pg = tg.states_at(tq)[:, :2]
    pf = tf.states_at(tq)[:, :2]
    rms = math.sqrt(np.mean(np.sum((pf - pg) ** 2, axis=1)))
    assert rms < 0.05


def test_fusion_rides_out_gnss_bias_window():
    # a 2 m bias held for 3 s: the gated filter coasts within 0.5 m while the
    # pure GNSS position follows the full excursion
    cfg = replace(
        preset("cyclist-nominal", seed=1),
        perturbation=Perturbation(start=25.0, duration=3.0, bias=(1.2, -1.6)),
    )
    data = simulate_scenario(cfg)
    states = fuse_gnss_imu(data.gnss, data.imu)
    assert states.dtype.names == TRAJ_COLUMNS
    ts = states["timestamp"]
    xy = np.column_stack([states["x"], states["y"]])
    truth = data.course.states(ts)[0]
    err = np.linalg.norm(xy - truth, axis=1)
    sel = (ts >= 24.0) & (ts <= 34.0)
    assert err[sel].max() < 0.5
    tg = build_trajectory(data.gnss)
    pg = tg.states_at(ts[sel])[:, :2]
    err_g = np.linalg.norm(pg - truth[sel], axis=1)
    assert err_g.max() > 1.5


def test_fusion_standstill_freeze():
    gnss = gnss_series(np.arange(181) / 18.0, 5.0, -2.0)
    states = fuse_gnss_imu(gnss, imu_series(np.arange(901) / 90.0))
    assert set(states["x"].tolist()) == {5.0} and set(states["y"].tolist()) == {-2.0}
    assert not states["speed"].any()


# At 5 Hz the 9-fix window that engages the filter spans 1.6 s, most of it the stand: the
# filter engages at 0.18 m/s, and the walking fixes leave the gate before the per-fix speed
# steps catch up, so it coasts on until the 12 s hard reset.
_LOST_AFTER_STANDSTILL_START = pytest.mark.xfail(
    strict=True, reason="at 5 Hz the 9-fix course window straddles the stand")


@pytest.mark.parametrize("rate, heading", [
    *((rate, heading) for rate in (18.0, 8.0)
      for heading in (0.0, math.pi / 2, math.pi / 4, math.radians(-115.0))),
    pytest.param(5.0, 0.0, marks=_LOST_AFTER_STANDSTILL_START),
])
def test_fusion_standstill_start_engages_then_follows(rate, heading):
    # GNSS stands 2 s at (2, -1), jittering +-2 cm in y, then walks at 1.4 m/s.  Until the
    # fix window establishes course and speed, the filter snaps to each fix; once the walk
    # starts it must follow, whatever the direction.
    t = np.arange(round(12 * rate) + 1) / rate
    d = 1.4 * np.maximum(t - 2.0, 0.0)
    jitter = np.where(t < 2.0, 0.02 * (-1.0) ** np.arange(len(t)), 0.0)
    gnss = gnss_series(t, 2.0 + d * math.cos(heading), -1.0 + jitter + d * math.sin(heading))
    states = fuse_gnss_imu(gnss, imu_series(np.arange(1081) / 90.0))
    ts = states["timestamp"]
    d = 1.4 * np.maximum(ts - 2.0, 0.0)
    err = np.hypot(states["x"] - 2.0 - d * math.cos(heading),
                   states["y"] + 1.0 - d * math.sin(heading))
    assert err[ts < 2.0].max() <= 0.02 + 1e-12
    assert err[ts >= 5.0].max() < 0.05


def test_fusion_hard_reset_after_persistent_rejection():
    # A 3 m jump in y at t = 5 s stays beyond the largest gate (1.5 m): the filter coasts
    # on the IMU until 12 s after the last accepted fix, then snaps onto the next fix.
    t = np.arange(18 * 30 + 1) / 18.0
    jumped = t >= 5.0
    states = fuse_gnss_imu(gnss_series(t, 1.4 * t, np.where(jumped, 3.0, 0.0)),
                           imu_series(np.arange(90 * 30 + 1) / 90.0))
    reset_t = t[t > t[~jumped][-1] + 12.0][0]
    ts, x, y = states["timestamp"], states["x"], states["y"]
    assert reset_t == pytest.approx(17.0)
    assert not y[ts < reset_t].any()
    coast = (ts >= 5.0) & (ts < reset_t)
    np.testing.assert_allclose(x[coast], 1.4 * ts[coast], rtol=0, atol=1e-6)
    at = int(np.searchsorted(ts, reset_t))
    assert ts[at] == reset_t and x[at] == 1.4 * reset_t
    assert set(y[at:].tolist()) == {3.0}


def test_fusion_skips_degraded_fixes():
    # flagged samples must not pull the estimate even inside the gate
    flagged = gnss_series(np.arange(181) / 18.0, 1.4 * np.arange(181) / 18.0)
    window = (flagged["timestamp"] >= 4.0) & (flagged["timestamp"] <= 6.0)
    flagged["y"][window], flagged["quality"][window] = 0.4, GnssQuality.DEGRADED
    states = fuse_gnss_imu(flagged, imu_series(np.arange(901) / 90.0))
    mid = (states["timestamp"] >= 4.5) & (states["timestamp"] <= 6.0)
    assert np.abs(states["y"][mid]).max() < 0.1


def test_fusion_rejects_an_unknown_quality():
    # "DEGRADED" stored in a column of 7 characters reads "DEGRADE", which is no quality.
    gnss = series(GNSS_COLUMNS, np.arange(37) / 18.0, 1.4 * np.arange(37) / 18.0, 0.0,
                  GnssQuality.FIX_RTK)
    gnss["quality"][5] = GnssQuality.DEGRADED
    with pytest.raises(ValueError, match="unknown GNSS quality 'DEGRADE'"):
        fuse_gnss_imu(gnss, imu_series(np.arange(181) / 90.0))
    with pytest.raises(ValueError, match="GNSS sample 5 at t=0.277777778: unknown GNSS quality "
                                         "'DEGRADE'"):
        build_trajectory(gnss)


def test_fused_output_is_continuous():
    cfg = preset("cyclist-perturbed", seed=0)
    data = simulate_scenario(cfg)
    states = fuse_gnss_imu(data.gnss, data.imu)
    xy = np.column_stack([states["x"], states["y"]])
    ts = states["timestamp"]
    step = np.linalg.norm(np.diff(xy, axis=0), axis=1)
    bound = V_MAX * np.diff(ts) + POS_GAIN * GATE_MAX
    assert np.all(step <= bound)


def test_fused_yaw_never_nan():
    cfg = preset("cyclist-perturbed", seed=2)
    data = simulate_scenario(cfg)
    states = fuse_gnss_imu(data.gnss, data.imu)
    assert np.isfinite(states["yaw"]).all()


def test_fusion_rejects_a_non_finite_fix():
    gnss = gnss_series(np.arange(37) / 18.0, 1.4 * np.arange(37) / 18.0)
    gnss["x"][20] = np.nan
    with pytest.raises(ValueError, match="pose position must be finite"):
        fuse_gnss_imu(gnss, imu_series(np.arange(181) / 90.0))
    with pytest.raises(ValueError, match="GNSS sample 20 at t=1.111111111: pose position"):
        build_trajectory(gnss)


def test_fusion_rejects_a_non_finite_imu_sample():
    imu = imu_series(np.arange(181) / 90.0)
    imu["accel_forward"][7] = np.inf
    with pytest.raises(ValueError, match="IMU sample 7 .* yaw_rate and accel_forward must be "
                                         "finite"):
        fuse_gnss_imu(gnss_series(np.arange(37) / 18.0, 1.4 * np.arange(37) / 18.0), imu)


@pytest.mark.parametrize("scale,stage", [
    (1e306, "smoothing the fused positions overflows"),
    (1e305, "the spline through the trajectory positions overflows"),
])
def test_overflowing_coordinates_are_a_fusion_error(scale, stage):
    # Each scale overflows one stage of the fused trajectory first; none warns.
    data = simulate_scenario(replace(preset("cyclist-nominal", seed=1), duration=6.0))
    gnss = data.gnss.copy()
    gnss["x"] *= scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FusionError, match=stage):
            build_fused_trajectory(gnss, data.imu)


def test_trajectory_states_that_overflow_are_a_fusion_error():
    # A finite spline whose speed, the hypotenuse of its velocity, overflows.
    traj = ReferenceTrajectory([0.0, 1.0], [[0.0, 0.0], [1.5e308, 1.5e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FusionError, match="states overflow at the query times"):
            traj.states_at([0.5])
    with pytest.raises(ValueError, match="positions must be finite"):
        ReferenceTrajectory([0.0, 1.0], [[0.0, 0.0], [np.nan, 1.0]])
