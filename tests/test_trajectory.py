import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from vruradar.simulator import Perturbation, preset, simulate_scenario
from vruradar.trajectory import (
    FusionParams,
    GnssQuality,
    GnssSample,
    ImuSample,
    NaturalCubicSpline,
    OutOfRangeError,
    ReferenceTrajectory,
    STANDSTILL_SPEED,
    TrajectoryState,
    build_fused_trajectory,
    build_trajectory,
    fuse_gnss_imu,
    moving_average,
    smooth_gnss,
)
from dataclasses import replace


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
        assert traj.position_at(t) == pytest.approx(p, abs=1e-9)


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
    st = traj.state_at(2.37)
    assert st.speed == pytest.approx(2.0, abs=1e-6)
    assert st.pose.yaw == pytest.approx(0.0, abs=1e-9)


def test_circle_interpolation_under_1mm():
    # dense knots on an analytic circle; query between knots
    radius, omega = 5.0, 0.5
    times = np.arange(0, 12.0, 0.1)
    xy = np.stack([radius * np.cos(omega * times), radius * np.sin(omega * times)], axis=1)
    traj = ReferenceTrajectory(times, xy)
    for t in np.linspace(0.5, 11.0, 57):
        expect = [radius * math.cos(omega * t), radius * math.sin(omega * t)]
        assert np.linalg.norm(traj.position_at(t) - expect) < 1e-3


def test_out_of_range_raises():
    traj = ReferenceTrajectory([0.0, 1.0, 2.0], [[0, 0], [1, 0], [2, 0]])
    with pytest.raises(OutOfRangeError):
        traj.state_at(-0.1)
    with pytest.raises(OutOfRangeError):
        traj.state_at(2.1)


def test_yaw_rate_from_curvature_on_circle():
    radius, omega = 5.0, 0.5
    times = np.arange(0, 12.0, 0.05)
    xy = np.stack([radius * np.cos(omega * times), radius * np.sin(omega * times)], axis=1)
    traj = ReferenceTrajectory(times, xy)
    st = traj.state_at(6.0)
    assert st.yaw_rate == pytest.approx(omega, rel=1e-3)


def test_yaw_hold_at_standstill():
    # move right, then stop: yaw must hold the last moving direction, not NaN
    t1 = np.linspace(0, 5, 51)
    xy1 = np.stack([t1, np.zeros_like(t1)], axis=1)
    t2 = np.linspace(5.1, 10, 50)
    xy2 = np.tile(xy1[-1], (50, 1))
    times = np.concatenate([t1, t2])
    xy = np.vstack([xy1, xy2])
    traj = ReferenceTrajectory(times, xy)
    st = traj.state_at(8.0)
    assert st.speed < 0.05
    assert math.isfinite(st.pose.yaw)
    assert st.pose.yaw == pytest.approx(0.0, abs=0.2)


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
            st = traj.state_at(t)
            assert st.speed < STANDSTILL_SPEED, (name, t)
            knot = int(np.searchsorted(times, t, side="right") - 1)
            assert st.pose.yaw == held[knot], (name, t)
    assert traj.state_at(1.0).pose.yaw == pytest.approx(0.3, abs=1e-12)  # first moving chord
    assert traj.state_at(6.0).pose.yaw == pytest.approx(0.3, abs=1e-12)
    assert traj.state_at(12.0).pose.yaw == pytest.approx(2.0, abs=1e-12)
    assert traj.state_at(9.5).pose.yaw == pytest.approx(2.0, abs=1e-9)  # moving: tangent


def test_smooth_gnss_preserves_metadata():
    samples = [GnssSample(timestamp=k * 0.1, x=float(k), y=0.0) for k in range(10)]
    out = smooth_gnss(samples, 3)
    assert [s.timestamp for s in out] == [s.timestamp for s in samples]
    assert all(s.quality == GnssQuality.FIX_RTK for s in out)


# --- fusion -------------------------------------------------------------------

def test_fusion_rejects_empty_and_disjoint():
    gnss = [GnssSample(timestamp=0.0, x=0, y=0), GnssSample(timestamp=1.0, x=0, y=0)]
    imu = [ImuSample(timestamp=5.0, yaw_rate=0, accel_forward=0)]
    with pytest.raises(ValueError):
        fuse_gnss_imu([], imu)
    with pytest.raises(ValueError):
        fuse_gnss_imu(gnss, imu)


@pytest.mark.parametrize("stream", ["GNSS", "IMU"])
def test_fusion_rejects_disordered_stream(stream):
    gnss = [GnssSample(timestamp=k / 18.0, x=1.4 * k / 18.0, y=0.0) for k in range(37)]
    imu = [ImuSample(timestamp=k / 90.0, yaw_rate=0.0, accel_forward=0.0) for k in range(181)]
    samples = gnss if stream == "GNSS" else imu
    samples[5], samples[6] = samples[6], samples[5]
    with pytest.raises(ValueError, match=f"{stream} timestamps must be strictly increasing: sample 6"):
        fuse_gnss_imu(gnss, imu)


def test_fusion_clean_matches_smoothed_gnss():
    cfg = preset("pedestrian-nominal", seed=3)
    data = simulate_scenario(cfg)
    tg = build_trajectory(data.gnss)
    tf = build_fused_trajectory(data.gnss, data.imu, FusionParams())
    tq = np.linspace(1.0, cfg.duration - 1.0, 400)
    pg = np.array([tg.position_at(t) for t in tq])
    pf = np.array([tf.position_at(t) for t in tq])
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
    states = fuse_gnss_imu(data.gnss, data.imu, FusionParams())
    ts = np.array([s.timestamp for s in states])
    xy = np.array([[s.pose.x, s.pose.y] for s in states])
    truth = np.array(
        [[data.course.state_at(t).pose.x, data.course.state_at(t).pose.y] for t in ts]
    )
    err = np.linalg.norm(xy - truth, axis=1)
    sel = (ts >= 24.0) & (ts <= 34.0)
    assert err[sel].max() < 0.5
    tg = build_trajectory(data.gnss)
    pg = np.array([tg.position_at(t) for t in ts[sel]])
    err_g = np.linalg.norm(pg - truth[sel], axis=1)
    assert err_g.max() > 1.5


def test_fusion_standstill_freeze():
    gnss = [GnssSample(timestamp=k / 18.0, x=5.0, y=-2.0) for k in range(181)]
    imu = [ImuSample(timestamp=k / 90.0, yaw_rate=0.0, accel_forward=0.0) for k in range(901)]
    states = fuse_gnss_imu(gnss, imu)
    assert len({(s.pose.x, s.pose.y) for s in states}) == 1
    assert all(s.speed == 0.0 for s in states)


def test_fusion_skips_degraded_fixes():
    # flagged samples must not pull the estimate even inside the gate
    base = [GnssSample(timestamp=k / 18.0, x=1.4 * k / 18.0, y=0.0) for k in range(181)]
    flagged = [
        replace(s, y=0.4, quality=GnssQuality.DEGRADED) if 4.0 <= s.timestamp <= 6.0 else s
        for s in base
    ]
    imu = [ImuSample(timestamp=k / 90.0, yaw_rate=0.0, accel_forward=0.0) for k in range(901)]
    states = fuse_gnss_imu(flagged, imu)
    mid = [s for s in states if 4.5 <= s.timestamp <= 6.0]
    assert max(abs(s.pose.y) for s in mid) < 0.1


def test_fused_output_is_continuous():
    cfg = preset("cyclist-perturbed", seed=0)
    data = simulate_scenario(cfg)
    params = FusionParams()
    states = fuse_gnss_imu(data.gnss, data.imu, params)
    xy = np.array([[s.pose.x, s.pose.y] for s in states])
    ts = np.array([s.timestamp for s in states])
    step = np.linalg.norm(np.diff(xy, axis=0), axis=1)
    bound = params.v_max * np.diff(ts) + params.pos_gain * params.gate_max
    assert np.all(step <= bound)


def test_fused_yaw_never_nan():
    cfg = preset("cyclist-perturbed", seed=2)
    data = simulate_scenario(cfg)
    states = fuse_gnss_imu(data.gnss, data.imu)
    assert all(math.isfinite(s.pose.yaw) for s in states)


def test_trajectory_state_validation():
    with pytest.raises(ValueError):
        TrajectoryState(0.0, pose=None, speed=-1.0, yaw_rate=0.0)
