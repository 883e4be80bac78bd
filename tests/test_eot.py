import math

import numpy as np
import pytest

from vruradar import eot
from vruradar.core import Detections, ScanTable, fold_axis, scan_offsets, table
from vruradar.eot import (
    ExtentError,
    RmmTrack,
    TRACK_COLUMNS,
    extract_extent,
    initialize_track,
    predict,
    run_tracker,
    tracking_metrics,
    update,
    _inv_spd,
    _inv_sqrtm_spd,
    _sqrtm_spd,
)


@pytest.fixture
def noiseless(monkeypatch):
    """The tracker with no process noise and an extent confidence that does not decay."""
    for name in ("Q_POS", "Q_SPEED", "Q_HEADING", "Q_YAW_RATE"):
        monkeypatch.setattr(eot, name, 0.0)
    monkeypatch.setattr(eot, "DOF_RETAIN_PER_S", 1.0)


def track(x=0.0, y=0.0, v=0.0, h=0.0, w=0.0, extent=None, dof=10.0):
    return RmmTrack(
        kin=np.array([x, y, v, h, w]),
        cov=np.eye(5) * 0.1,
        extent=np.eye(2) * 0.25 if extent is None else np.asarray(extent, float),
        dof=dof,
        timestamp=0.0,
    )


# --- validation ------------------------------------------------------------

_EXTENT_CASES = [  # (extent, valid)
    ([[1.0, 0.5], [0.4, 1.0]], False),  # asymmetric
    ([[2.0, 1.0], [1.0 + 1.1e-5, 2.0]], False),  # just outside np.allclose's rtol 1e-5
    ([[2.0, 1.0 + 1.1e-5], [1.0, 2.0]], False),
    ([[2.0, 1.0], [1.0 + 0.9e-5, 2.0]], True),  # just inside it
    # inside rtol * |larger| but outside rtol * |smaller|: np.allclose tests both ways
    ([[2.0, 1.0], [1.0 + 1.000005e-5, 2.0]], False),
    ([[2.0, 1.0 + 1.000005e-5], [1.0, 2.0]], False),
    ([[2.0, 0.0], [1.1e-12, 2.0]], False),  # outside atol 1e-12 around zero
    ([[2.0, 0.0], [0.9e-12, 2.0]], True),
    ([[1.0, 2.0], [2.0, 1.0]], False),  # indefinite: det < 0 with a > 0
    ([[1.0, 1.0], [1.0, 1.0]], False),  # singular: det = 0 with a > 0
    ([[0.0, 0.0], [0.0, 1.0]], False),  # a = 0
    ([[-1.0, 0.0], [0.0, -1.0]], False),  # a < 0 with det > 0
]


def test_track_validates_extent_spd():
    for extent, valid in _EXTENT_CASES:
        m = np.array(extent)
        # the closed-form check keeps the rule of np.allclose(m, m.T, atol=1e-12) and eigvalsh > 0
        with np.errstate(invalid="ignore"):
            assert valid == (np.allclose(m, m.T, atol=1e-12) and np.linalg.eigvalsh(m)[0] > 0.0)
        if valid:
            assert track(extent=m).extent == pytest.approx(m)
        else:
            with pytest.raises(ExtentError):
                track(extent=m)
    with pytest.raises(ValueError):
        track(dof=3.0)


@pytest.mark.parametrize("field,kwargs", [
    ("extent", {"extent": np.diag([math.inf, 1.0])}),
    ("extent", {"extent": [[1.0, math.nan], [0.0, 1.0]]}),
    ("extent", {"extent": [[1.0, 0.0], [math.nan, 1.0]]}),
    ("extent", {"extent": [[1.0, 0.0], [0.0, math.nan]]}),
    ("kin", {"x": math.nan}),
    ("kin", {"w": -math.inf}),
    ("cov", {"cov": (4, 4, math.inf)}),
    ("cov", {"cov": (0, 1, math.nan)}),  # off the diagonal
    ("dof", {"dof": math.nan}),
    ("dof", {"dof": math.inf}),
    ("timestamp", {"timestamp": math.nan}),
])
def test_track_refuses_a_value_that_is_not_finite(field, kwargs):
    # Named as the field that holds it, where a NaN position used to surface only in the
    # next update, as an extent that is not symmetric.
    cov = np.eye(5) * 0.1
    if "cov" in kwargs:
        i, j, cov[i, j] = kwargs.pop("cov")
    timestamp = kwargs.pop("timestamp", 0.0)
    state = dict(x=0.0, y=0.0, v=0.0, h=0.0, w=0.0, extent=None, dof=10.0)
    state.update(kwargs)
    with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
        RmmTrack(kin=np.array([state[k] for k in "xyvhw"]), cov=cov,
                 extent=np.eye(2) * 0.25 if state["extent"] is None else state["extent"],
                 dof=state["dof"], timestamp=timestamp)


def test_track_takes_finite_values_whose_sum_overflows():
    big = RmmTrack(kin=[1e308, 1e308, 0.0, 0.0, 0.0], cov=np.eye(5) * 1e308,
                   extent=np.eye(2) * 1e308, dof=1e308, timestamp=1e308)
    assert np.isfinite(big.kin).all() and big.dof == 1e308


# --- predict -----------------------------------------------------------------

def test_predict_straight_line(noiseless):
    t1 = predict(track(v=2.0, h=0.0), 1.0)
    assert t1.kin[:2] == pytest.approx([2.0, 0.0], abs=1e-12)
    assert t1.extent == pytest.approx(np.eye(2) * 0.25)
    assert t1.timestamp == 1.0


def test_predict_quarter_turn_rotates_extent(noiseless):
    x0 = np.diag([1.0, 0.25])
    t1 = predict(track(v=1.0, w=math.pi / 2, extent=x0), 1.0)
    assert t1.kin[3] == pytest.approx(math.pi / 2)
    assert sorted(np.linalg.eigvalsh(t1.extent)) == pytest.approx([0.25, 1.0], abs=1e-12)
    assert t1.extent == pytest.approx(np.diag([0.25, 1.0]), abs=1e-12)


def _rk4_turn_ode(state, dt, n=600):
    # independent fine-step integration of [x', y', h'] = [v cos h, v sin h, w]
    x, y, v, h, w = state
    step = dt / n

    def f(xx, yy, hh):
        return v * math.cos(hh), v * math.sin(hh), w

    for _ in range(n):
        k1 = f(x, y, h)
        k2 = f(x + 0.5 * step * k1[0], y + 0.5 * step * k1[1], h + 0.5 * step * k1[2])
        k3 = f(x + 0.5 * step * k2[0], y + 0.5 * step * k2[1], h + 0.5 * step * k2[2])
        k4 = f(x + step * k3[0], y + step * k3[1], h + step * k3[2])
        x += step * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6
        y += step * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6
        h += step * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) / 6
    return x, y


def test_predict_matches_ode_integration(noiseless):
    rng = np.random.default_rng(0)
    for _ in range(25):
        tr = track(
            x=rng.normal(0, 5), y=rng.normal(0, 5),
            v=rng.uniform(0.1, 5), h=rng.uniform(-3, 3), w=rng.uniform(-1.5, 1.5),
        )
        dt = rng.uniform(0.1, 2.0)
        got = predict(tr, dt)
        x, y = _rk4_turn_ode(tr.kin, dt)
        assert got.kin[0] == pytest.approx(x, abs=1e-6)
        assert got.kin[1] == pytest.approx(y, abs=1e-6)


def test_predict_semigroup_property(noiseless):
    rng = np.random.default_rng(1)
    for _ in range(50):
        tr = track(
            x=rng.normal(0, 5), y=rng.normal(0, 5),
            v=rng.uniform(0, 5), h=rng.uniform(-3, 3), w=rng.uniform(-1.5, 1.5),
            extent=np.diag(rng.uniform(0.05, 1.0, 2)),
        )
        a, b = rng.uniform(0.01, 2.0, 2)
        t1 = predict(predict(tr, a), b)
        t2 = predict(tr, a + b)
        assert t1.kin == pytest.approx(t2.kin, abs=1e-9)
        assert t1.extent == pytest.approx(t2.extent, abs=1e-9)


def test_predict_series_branch_matches_arc_formula(noiseless):
    # below the omega threshold the series expansion must agree with the
    # closed-form arc step evaluated at the same tiny turn rate
    x, y, v, h, w, dt = 1.0, -2.0, 3.0, 0.7, 9.9e-7, 1.0
    got = predict(track(x=x, y=y, v=v, h=h, w=w), dt)
    exact_x = x + (v / w) * (math.sin(h + w * dt) - math.sin(h))
    exact_y = y - (v / w) * (math.cos(h + w * dt) - math.cos(h))
    assert got.kin[0] == pytest.approx(exact_x, abs=1e-9)
    assert got.kin[1] == pytest.approx(exact_y, abs=1e-9)


def test_predict_dof_decays_toward_floor(monkeypatch):
    monkeypatch.setattr(eot, "DOF_RETAIN_PER_S", 0.5)
    monkeypatch.setattr(eot, "DOF_FLOOR", 5.0)
    t1 = predict(track(dof=25.0), 1.0)
    assert t1.dof == pytest.approx(5.0 + 20.0 * 0.5)
    t2 = predict(track(dof=5.0 + 1e-12), 10.0)
    assert t2.dof >= 5.0


def test_predict_rejects_bad_dt():
    with pytest.raises(ValueError):
        predict(track(), 0.0)


# --- update ----------------------------------------------------------------------

def test_update_zero_innovation_keeps_position(monkeypatch):
    monkeypatch.setattr(eot, "MEAS_NOISE_SIGMA", 1e-6)
    tr = track(x=1.0, y=2.0, v=1.0, h=0.3)
    t1 = update(tr, np.array([[1.0, 2.0]]))
    assert t1.kin[:2] == pytest.approx([1.0, 2.0], abs=1e-6)
    assert t1.dof == tr.dof + 1


def test_update_moves_toward_measurement_mean():
    tr = track()
    t1 = update(tr, np.array([[1.0, 0.0], [1.2, 0.1]]))
    assert 0.0 < t1.kin[0] <= 1.2
    assert np.linalg.eigvalsh(t1.cov)[0] >= 0.0


def test_update_requires_points():
    with pytest.raises(ValueError):
        update(track(), np.zeros((0, 2)))


def test_update_extent_converges_to_scatter(monkeypatch):
    monkeypatch.setattr(eot, "MEAS_NOISE_SIGMA", 0.01)
    rng = np.random.default_rng(2)
    cov = 0.09 * np.eye(2)
    tr = initialize_track(rng.multivariate_normal([0, 0], cov, 10), 0.0)
    for _ in range(600):
        tr = predict(tr, 0.05)
        tr = update(tr, rng.multivariate_normal([0, 0], cov, 10))
    scaled = eot.EXTENT_SCALE * np.linalg.eigvalsh(tr.extent)
    assert scaled == pytest.approx([0.09, 0.09], rel=0.15)


def test_doppler_zero_innovation_keeps_state(monkeypatch):
    monkeypatch.setattr(eot, "MEAS_NOISE_SIGMA", 1e-6)
    tr = track(x=10.0, y=0.0, v=2.0, h=0.0, w=0.1)
    # sensor behind on the x-axis: predicted radial velocity = v
    t1 = update(tr, np.array([[10.0, 0.0]]), radial_velocities=np.array([2.0]),
                sensor_pos=np.array([0.0, 0.0]))
    assert t1.kin == pytest.approx(tr.kin, abs=1e-5)


def test_doppler_requires_inputs():
    for half in ({"radial_velocities": np.array([1.0])}, {"sensor_pos": np.zeros(2)}):
        with pytest.raises(ValueError, match="needs radial velocities and the sensor position"):
            update(track(), np.array([[0.0, 0.0]]), **half)


def test_update_records_nis():
    tr = RmmTrack(
        kin=np.array([1.0, -0.5, 2.0, 0.3, 0.1]),
        cov=np.array([
            [0.30, 0.05, 0.01, 0.00, 0.02],
            [0.05, 0.20, 0.00, 0.03, 0.01],
            [0.01, 0.00, 0.50, 0.04, 0.00],
            [0.00, 0.03, 0.04, 0.40, 0.05],
            [0.02, 0.01, 0.00, 0.05, 0.25],
        ]),
        extent=np.array([[0.6, 0.2], [0.2, 0.3]]),
        dof=12.0,
        timestamp=0.0,
    )
    pts = np.array([[1.4, -0.2], [1.9, 0.1], [1.2, 0.3]])
    nu = pts.mean(axis=0) - tr.kin[:2]
    s = tr.cov[:2, :2] + (
        eot.EXTENT_SCALE * tr.extent + eot.MEAS_NOISE_SIGMA**2 * np.eye(2)
    ) / len(pts)
    want = nu @ np.linalg.solve(s, nu)
    assert update(tr, pts).nis == pytest.approx(want, rel=1e-12)
    # the Doppler step that follows keeps the position update's NIS
    with_doppler = update(tr, pts, radial_velocities=np.array([1.0, 1.2, 0.9]),
                          sensor_pos=np.array([-5.0, 0.0]))
    assert with_doppler.nis == pytest.approx(want, rel=1e-12)
    assert math.isnan(tr.nis) and math.isnan(predict(tr, 0.1).nis)


def test_update_spd_soak():
    rng = np.random.default_rng(3)
    tr = initialize_track(rng.normal(0, 0.3, (5, 2)), 0.0)
    for k in range(2000):
        tr = predict(tr, float(rng.uniform(0.01, 0.3)))
        pts = tr.position + rng.normal(0, 0.4, (int(rng.integers(1, 10)), 2))
        tr = update(tr, pts)
        assert np.linalg.eigvalsh(tr.extent)[0] > 0.0


# --- closed-form 2x2 algebra ---------------------------------------------------------

EPS = np.finfo(float).eps


def _spd_cases(rng):
    """(matrix, condition number) over 1,000 random SPD matrices of four kinds."""
    cases = []
    for kind in ("random", "ill-conditioned", "near-isotropic", "isotropic"):
        for _ in range(250):
            lam = 10.0 ** rng.uniform(-3, 2)
            if kind in ("random", "ill-conditioned"):
                kappa = 10.0 ** (rng.uniform(0, 4) if kind == "random" else rng.uniform(7.5, 8.5))
                a = rng.uniform(-math.pi, math.pi)
                rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
                m = rot @ np.diag([lam, lam / kappa]) @ rot.T
                m = 0.5 * (m + m.T)
            else:
                b = lam * rng.uniform(-1e-14, 1e-14) if kind == "near-isotropic" else 0.0
                m = np.array([[lam, b], [b, lam]])
            w = np.linalg.eigvalsh(m)
            cases.append((m, w[1] / w[0]))
    return cases


def _sym2(entries):
    a, b, d = entries
    return np.array([[a, b], [b, d]])


def test_closed_forms_match_linalg():
    # Each closed form is within 8 eps kappa of np.linalg, relative to the norm of the
    # result: the perturbation bound of a problem of condition number kappa.
    for m, kappa in _spd_cases(np.random.default_rng(11)):
        w, v = np.linalg.eigh(m)
        entries = (m[0, 0], m[1, 0], m[1, 1])
        for got, want in (
            (_sqrtm_spd(*entries), (v * np.sqrt(w)) @ v.T),
            (_inv_sqrtm_spd(*entries), (v / np.sqrt(w)) @ v.T),
            (_inv_spd(*entries), np.linalg.inv(m)),
        ):
            err = np.abs(_sym2(got) - want).max()
            assert err <= 8 * EPS * kappa * np.linalg.norm(want, 2), (m, got, want)


def test_closed_form_extent_matches_eigh():
    for m, kappa in _spd_cases(np.random.default_rng(12)):
        w, v = np.linalg.eigh(m)
        length, width, orientation = extract_extent(track(extent=m))
        assert length == pytest.approx(2 * math.sqrt(w[1]), rel=4 * EPS)
        assert width == pytest.approx(2 * math.sqrt(w[0]), rel=4 * EPS * kappa)
        major = v[:, 1]
        eigh_orientation = fold_axis(math.atan2(major[1], major[0]))
        if m[1, 0] == 0.0 and m[0, 0] == m[1, 1]:
            # exactly isotropic: no major axis, and the y axis is reported, as eigh does
            assert orientation == eigh_orientation == math.pi / 2
        # the orientation is the major axis: an eigenvector of the largest eigenvalue
        u = np.array([math.cos(orientation), math.sin(orientation)])
        assert np.abs(m @ u - w[1] * u).max() <= 8 * EPS * w[1]
        # and agrees with eigh's as far as the eigenvalue gap defines it
        gap = (w[1] - w[0]) / (w[1] + w[0])
        if gap > 0:
            assert abs(fold_axis(orientation - eigh_orientation)) <= 8 * EPS / gap


def test_closed_forms_reject_non_spd():
    for entries in ((1.0, 2.0, 1.0), (1.0, 1.0, 1.0), (-1.0, 0.0, -1.0), (math.nan, 0.0, 1.0)):
        with pytest.raises(ExtentError):
            _inv_sqrtm_spd(*entries)
        with pytest.raises(ExtentError):
            _inv_spd(*entries)


# --- extent extraction ----------------------------------------------------------------

def test_extract_diagonal():
    assert extract_extent(track(extent=np.diag([1.0, 0.25]))) == pytest.approx((2.0, 1.0, 0.0))


def test_extract_rotated_30_degrees():
    a = math.radians(30)
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    x = rot @ np.diag([1.0, 0.25]) @ rot.T
    assert extract_extent(track(extent=x)) == pytest.approx((2.0, 1.0, a), abs=1e-12)


def test_extract_reconstruct_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = rng.normal(0, 1, (2, 2))
        x = m @ m.T + 0.05 * np.eye(2)
        scale = rng.uniform(0.5, 4.0)
        length, width, orientation = extract_extent(track(extent=scale * x))
        c, s = math.cos(orientation), math.sin(orientation)
        rot = np.array([[c, -s], [s, c]])
        rebuilt = rot @ np.diag([(length / 2) ** 2, (width / 2) ** 2]) @ rot.T
        assert rebuilt == pytest.approx(scale * x, abs=1e-9)


def test_extract_orientation_folded():
    a = math.radians(120)
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    x = rot @ np.diag([1.0, 0.25]) @ rot.T
    orientation = extract_extent(track(extent=x))[2]
    assert -math.pi / 2 < orientation <= math.pi / 2
    assert orientation == pytest.approx(math.radians(-60), abs=1e-9)


# --- metrics -----------------------------------------------------------------------------

def _tp(t, x=0.0, y=0.0, yaw_rate=0.0, length=1.0, width=0.5, orientation=0.0):
    """A track table with one row per time of `t`; the other arguments are numbers or
    per-row values."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    values = (t, x, y, 1.0, 0.0, yaw_rate, length, width, orientation)
    return table(TRACK_COLUMNS, [np.broadcast_to(v, t.shape) for v in values])


def test_metrics_zero_for_identical_series():
    series = _tp(np.arange(5.0))
    err = tracking_metrics(series, series)
    assert np.all(err["rmse_centroid"] == 0.0)
    assert np.all(err["rmse_length"] == 0.0)
    assert np.all(err["abs_orientation_error_deg"] == 0.0)


def test_metrics_constant_offset_rmse():
    err = tracking_metrics(_tp(np.arange(6.0), x=1.0), _tp(np.arange(6.0), x=0.0))
    assert err["rmse_centroid"] == pytest.approx([1.0] * 6)


def test_metrics_orientation_folding():
    est = _tp(0.0, orientation=math.radians(-5.0))
    tru = _tp(0.0, orientation=math.radians(170.0))
    err = tracking_metrics(est, tru)
    assert err["abs_orientation_error_deg"][0] == pytest.approx(5.0, abs=1e-9)


def test_metrics_misaligned_raises():
    with pytest.raises(ValueError, match="misaligned at t=0.0 vs 0.5"):
        tracking_metrics(_tp(0.0), _tp(0.5))
    with pytest.raises(ValueError):
        tracking_metrics(_tp(0.0), _tp([0.0, 1.0]))


def test_metrics_running_rmse_definition():
    err = tracking_metrics(_tp([0.0, 1.0], x=[1.0, 0.0]), _tp([0.0, 1.0], x=0.0))
    assert err["rmse_centroid"] == pytest.approx([1.0, math.sqrt(0.5)])


# --- runner ------------------------------------------------------------------------------

def tracker_scans(times, counts, points, radial_velocities) -> ScanTable:
    """A table of sensor r0's scans at `times`, holding `counts` of the global points each."""
    n = len(radial_velocities)
    return ScanTable(times, ["r0"] * len(times), scan_offsets(counts), Detections(
        np.ones(n), np.zeros(n), radial_velocities, np.zeros(n), global_xy=points))


def test_run_tracker_follows_constant_velocity_target():
    rng = np.random.default_rng(5)
    t = 0.1 * np.arange(120)
    center = np.column_stack([2.0 * t, np.ones(120)])
    pts = np.repeat(center, 8, axis=0) + rng.normal(0, 0.2, (960, 2))
    vels = np.full(960, 2.0)  # sensor at origin looking along +x
    out = run_tracker(tracker_scans(t, [8] * 120, pts, vels), {"r0": np.zeros(2)},
                      use_doppler=False)
    assert out.dtype.names == (*TRACK_COLUMNS, "nis") and len(out) == 120
    last = out[-1]
    true_last = np.array([2.0 * 11.9, 1.0])
    assert np.hypot(last["x"] - true_last[0], last["y"] - true_last[1]) < 0.2
    assert last["speed"] == pytest.approx(2.0, abs=0.3)
    assert math.isnan(out["nis"][0])  # the first row starts the track; every later one updates
    assert (out["nis"][1:] >= 0.0).all()


def test_run_tracker_skips_empty_scans():
    scans = tracker_scans([0.0, 1.0], [0, 1], [[0.0, 0.0]], [0.0])
    out = run_tracker(scans, {"r0": np.zeros(2)})
    assert out["timestamp"].tolist() == [1.0]


def test_doppler_engages_after_the_seeding_update():
    # Heading and speed are seeded from the displacement over the first 0.5 s of track; the
    # Doppler step runs only on the updates after that one.
    rng = np.random.default_rng(6)
    t = 0.125 * np.arange(24)  # exact in binary, so the 0.5 s baseline ends on a scan
    counts = [0] + [6] * 23  # the first scan is empty: the track starts on the second
    center = np.column_stack([1.5 * t[1:], np.full(23, 2.0)])
    pts = np.repeat(center, 6, axis=0) + rng.normal(0, 0.2, (138, 2))
    scans = tracker_scans(t, counts, pts, rng.normal(1.0, 0.3, 138))
    with_doppler, without = (run_tracker(scans, {"r0": np.zeros(2)}, use_doppler=flag)
                             for flag in (True, False))
    seed_row = np.flatnonzero(with_doppler["timestamp"] >= with_doppler["timestamp"][0] + 0.5)[0]
    assert with_doppler["timestamp"][seed_row] == t[5]
    assert with_doppler[:seed_row + 1].tobytes() == without[:seed_row + 1].tobytes()
    later = with_doppler[seed_row + 1:]
    assert len(later) == 18
    assert all(a.tobytes() != b.tobytes() for a, b in zip(later, without[seed_row + 1:]))
