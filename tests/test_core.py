import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vruradar.core import (
    Detections,
    Pose,
    RadarScan,
    SensorMount,
    compose_pose,
    ego_to_global,
    ego_to_polar,
    global_to_ego,
    polar_to_ego,
    wrap_angle,
)

finite_angles = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_wrap_angle_basics():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)


def test_wrap_angle_rejects_non_finite():
    with pytest.raises(ValueError):
        wrap_angle(float("nan"))
    with pytest.raises(ValueError):
        wrap_angle(float("inf"))


@given(finite_angles)
def test_wrap_angle_is_modular(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    k = (a - w) / (2 * math.pi)
    assert abs(k - round(k)) < 1e-6


@given(finite_angles)
def test_wrap_angle_idempotent(a):
    assert wrap_angle(wrap_angle(a)) == wrap_angle(a)


def test_pose_wraps_yaw_and_validates():
    p = Pose(1.0, 2.0, 3 * math.pi)
    assert p.yaw == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        Pose(float("nan"), 0.0, 0.0)


def _mount(x=0.0, y=0.0, yaw=0.0, sensor_id="r0"):
    return SensorMount(sensor_id, Pose(x, y, yaw, frame="ego"), math.radians(60), 50.0)


def _scan(range_m, azimuth, sensor_id="r0"):
    """A one-point scan."""
    return RadarScan(0.0, sensor_id, Detections([range_m], [azimuth], [0.0], [10.0]))


def test_polar_to_ego_identity_mount():
    p = polar_to_ego(_scan(5.0, 0.0), _mount())
    assert p.shape == (1, 2)
    assert p[0] == pytest.approx([5.0, 0.0])


def test_polar_to_ego_rotated_mount():
    p = polar_to_ego(_scan(2.0, 0.0), _mount(1.0, 0.0, math.pi / 2))
    assert p[0] == pytest.approx([1.0, 2.0])


@pytest.mark.parametrize("yaw", [0.0, 0.2])
def test_polar_to_ego_matches_point_by_point_reference(yaw):
    rng = np.random.default_rng(3)
    mount = _mount(1.0, -0.5, yaw)
    ranges, azimuths = rng.uniform(0.0, 40.0, 200), rng.uniform(-1.0, 1.0, 200)
    scan = RadarScan(0.0, "r0", Detections(ranges, azimuths, np.zeros(200), np.zeros(200)))
    rows = polar_to_ego(scan, mount)
    reference = np.array([
        mount.pose_in_ego.to_parent(np.array([r * math.cos(az), r * math.sin(az)]))
        for r, az in zip(ranges.tolist(), azimuths.tolist())
    ])
    if yaw == 0.0:
        # An exact rotation leaves no rounding to the matrix product.
        assert rows.tolist() == reference.tolist()
    else:
        # One (n, 2) product may round differently from n (2,) products.
        np.testing.assert_allclose(rows, reference, rtol=0, atol=8 * np.finfo(float).eps * 41)


def test_polar_to_ego_empty_scan():
    scan = RadarScan(0.0, "r0", Detections([], [], [], []))
    assert polar_to_ego(scan, _mount()).shape == (0, 2)


def test_detections_select_rows_by_mask():
    d = Detections([1.0, 2.0, 3.0], [0.1, 0.2, 0.3], [0.0, -1.0, 1.0], [5.0, 6.0, 7.0],
                   global_xy=[[0, 0], [1, 1], [2, 2]])
    assert d.index.tolist() == [0, 1, 2]
    sel = d[np.array([True, False, True])]
    assert len(sel) == 2 and sel
    assert sel.index.tolist() == [0, 2]
    assert sel.range_m.tolist() == [1.0, 3.0]
    assert sel.global_xy.tolist() == [[0.0, 0.0], [2.0, 2.0]]
    assert sel.ego is None
    empty = d[np.zeros(3, dtype=bool)]
    assert len(empty) == 0 and not empty
    assert empty.global_xy.shape == (0, 2)


def test_detections_equality_compares_columns():
    a = Detections([1.0], [0.0], [0.0], [0.0], global_xy=[[1.0, 2.0]])
    assert a == Detections([1.0], [0.0], [0.0], [0.0], global_xy=[[1.0, 2.0]])
    assert a != Detections([1.0], [0.0], [0.0], [0.0], global_xy=[[1.0, 2.5]])
    assert a != Detections([1.0], [0.0], [0.0], [0.0])
    assert a != Detections([1.0], [0.0], [0.0], [0.0], index=[4], global_xy=[[1.0, 2.0]])


def test_detections_reject_unequal_columns():
    with pytest.raises(ValueError, match="amplitude"):
        Detections([1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.0])
    with pytest.raises(ValueError, match="global_xy"):
        Detections([1.0], [0.0], [0.0], [0.0], global_xy=[[0.0, 0.0], [1.0, 1.0]])


def test_polar_to_ego_sensor_mismatch():
    with pytest.raises(ValueError):
        polar_to_ego(_scan(1.0, 0.0, sensor_id="other"), _mount())


@given(
    st.floats(0.1, 40.0),
    st.floats(-1.0, 1.0),
    st.floats(-5.0, 5.0),
    st.floats(-5.0, 5.0),
    finite_angles,
)
def test_polar_ego_round_trip(r, az, mx, my, myaw):
    mount = _mount(mx, my, myaw)
    p_ego = polar_to_ego(_scan(r, az), mount)[0]
    r2, az2 = ego_to_polar(p_ego, mount)
    assert r2 == pytest.approx(r, abs=1e-9)
    assert wrap_angle(az2 - az) == pytest.approx(0.0, abs=1e-9)


def test_ego_to_global_examples():
    assert ego_to_global([1.0, 2.0], Pose(0, 0, 0)) == pytest.approx([1.0, 2.0])
    assert ego_to_global([1.0, 0.0], Pose(10.0, 0.0, math.pi)) == pytest.approx([9.0, 0.0])


def test_ego_to_global_requires_global_pose():
    with pytest.raises(ValueError):
        ego_to_global([0.0, 0.0], Pose(0, 0, 0, frame="ego"))


@given(
    st.floats(-20, 20), st.floats(-20, 20),
    st.floats(-20, 20), st.floats(-20, 20), finite_angles,
)
def test_global_ego_round_trip(px, py, ex, ey, eyaw):
    ego = Pose(ex, ey, eyaw)
    p = np.array([px, py])
    back = global_to_ego(ego_to_global(p, ego), ego)
    assert back == pytest.approx(p, abs=1e-9)


@given(
    st.floats(-10, 10), st.floats(-10, 10),
    st.floats(-10, 10), st.floats(-10, 10),
    st.floats(-20, 20), st.floats(-20, 20), finite_angles,
)
def test_transforms_are_rigid(ax, ay, bx, by, ex, ey, eyaw):
    ego = Pose(ex, ey, eyaw)
    a, b = np.array([ax, ay]), np.array([bx, by])
    d0 = np.linalg.norm(a - b)
    d1 = np.linalg.norm(ego_to_global(a, ego) - ego_to_global(b, ego))
    assert d1 == pytest.approx(d0, abs=1e-9)


def test_detection_cartesian_consistency():
    mount = _mount(1.0, -0.5, 0.2)
    p = polar_to_ego(_scan(7.3, 0.4), mount)[0]
    r, az = ego_to_polar(p, mount)
    assert r == pytest.approx(7.3, abs=1e-9)
    assert az == pytest.approx(0.4, abs=1e-9)


def test_detection_rejects_negative_range():
    with pytest.raises(ValueError):
        _scan(-1.0, 0.0)


def test_mount_validation():
    with pytest.raises(ValueError):
        SensorMount("r0", Pose(0, 0, 0, frame="ego"), 0.0, 10.0)
    with pytest.raises(ValueError):
        SensorMount("r0", Pose(0, 0, 0, frame="ego"), 1.0, -1.0)


def test_compose_pose_chains_transforms():
    parent = Pose(1.0, 2.0, math.pi / 2)
    child = Pose(1.0, 0.0, 0.3, frame="ego")
    composed = compose_pose(parent, child)
    assert composed.xy == pytest.approx([1.0, 3.0])
    assert composed.yaw == pytest.approx(wrap_angle(math.pi / 2 + 0.3))
    p_local = np.array([0.7, -0.2])
    direct = parent.to_parent(child.to_parent(p_local))
    assert composed.to_parent(p_local) == pytest.approx(direct, abs=1e-12)
