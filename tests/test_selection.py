import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vruradar.core import to_local
from vruradar.selection import (
    OrientedEllipse,
    OrientedRectangle,
    bounding_axes,
    cyclist_rectangle,
    pedestrian_ellipse,
)


def state(v=0.0, w=0.0, x=0.0, y=0.0, yaw=0.0):
    """The state values the selection rules take: x, y, yaw, speed, yaw rate."""
    return x, y, yaw, v, w


# --- shape formulas, exact per the printed rules --------------------------

def test_pedestrian_standstill_circle():
    e = pedestrian_ellipse(*state(v=0.0, w=0.3))
    assert (e.ax_major, e.ax_minor) == (1.5, 1.5)


def test_pedestrian_saturated_speed():
    e = pedestrian_ellipse(*state(v=2.0, w=0.0))
    assert (e.ax_major, e.ax_minor) == (2.5, 1.2)


def test_pedestrian_direct_substitution():
    e = pedestrian_ellipse(*state(v=0.3, w=0.1))
    assert e.ax_major == 1.5 + 0.3
    assert e.ax_minor == 1.2 + 0.5


@pytest.mark.parametrize("v,w,major,minor", [
    # branch boundary: exactly at the threshold the moving branch applies
    (0.05, 0.0, 1.5 + 0.05, 1.2),
    (0.05, 0.3, 1.5 + 0.05, 1.2 + 1.0),
    (0.049999, 0.3, 1.5, 1.5),
    # saturation of both growth terms
    (1.0, 0.2, 2.5, 2.2),
    (3.0, 1.0, 2.5, 2.2),
])
def test_pedestrian_branch_boundary_and_saturation(v, w, major, minor):
    e = pedestrian_ellipse(*state(v=v, w=w))
    assert e.ax_major == major
    assert e.ax_minor == minor


def test_cyclist_zero_yaw_rate():
    r = cyclist_rectangle(*state(v=3.0, w=0.0))
    assert (r.length, r.width) == (2.5, 1.2)


def test_cyclist_saturated_width():
    r = cyclist_rectangle(*state(v=3.0, w=0.5))
    assert r.width == 2.2


def test_cyclist_orientation_hold_at_standstill():
    # The rectangle lies along the state's yaw at any speed; at standstill the trajectory
    # holds that yaw from the last moving instant (test_trajectory pins the hold).
    for v in (0.0, 0.01, 3.0):
        assert cyclist_rectangle(*state(v=v, w=0.0, yaw=-2.0)).orientation == -2.0


@given(st.floats(0, 5), st.floats(0, 5), st.floats(-2, 2))
def test_shape_monotonicity_and_saturation(v1, v2, w):
    s1, s2 = state(v=max(v1, 0.05), w=w), state(v=max(v2, 0.05), w=w)
    lo, hi = sorted([s1, s2], key=lambda s: s[3])
    assert pedestrian_ellipse(*lo).ax_major <= pedestrian_ellipse(*hi).ax_major
    assert pedestrian_ellipse(*state(v=1.0, w=w)).ax_major == 2.5
    assert cyclist_rectangle(*state(v=1.0, w=0.2)).width == 2.2


@given(st.floats(0, 2), st.floats(0, 2))
def test_width_monotone_in_yaw_rate(w1, w2):
    lo, hi = sorted([w1, w2])
    assert (
        cyclist_rectangle(*state(v=1.0, w=lo)).width
        <= cyclist_rectangle(*state(v=1.0, w=hi)).width
    )


# --- membership ------------------------------------------------------------

def test_contains_center():
    e = OrientedEllipse((1.0, 2.0), 2.5, 1.2, 0.4)
    r = OrientedRectangle((1.0, 2.0), 2.5, 1.2, 0.4)
    assert e.contains((1.0, 2.0)) and r.contains((1.0, 2.0))


def test_contains_just_outside_half_axis():
    e = OrientedEllipse((0.0, 0.0), 2.5, 1.2, 0.0)
    assert not e.contains((1.26, 0.0))
    assert e.contains((1.25, 0.0))


def test_rectangle_boundary_inclusive():
    r = OrientedRectangle((0.0, 0.0), 2.5, 1.2, 0.0)
    assert r.contains((1.25, 0.6))
    assert not r.contains((1.2500001, 0.6))


@pytest.mark.parametrize("shape", [
    OrientedEllipse((0.3, -0.8), 2.0, 1.1, 0.7),
    OrientedRectangle((0.3, -0.8), 2.2, 0.9, -0.5),
])
def test_contains_matches_rasterized_membership(shape):
    # brute-force oracle: evaluate membership on a 1 cm grid in the unrotated
    # frame, then rotate the probe points into place
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2.0, 2.0, size=(500, 2)) + np.array(shape.center)
    got = shape.contains(pts)
    c, s = math.cos(shape.orientation), math.sin(shape.orientation)
    for p, g in zip(pts, got):
        dx, dy = p[0] - shape.center[0], p[1] - shape.center[1]
        u, v = c * dx + s * dy, -s * dx + c * dy
        if isinstance(shape, OrientedEllipse):
            expect = (u / (shape.ax_major / 2)) ** 2 + (v / (shape.ax_minor / 2)) ** 2 <= 1.0
        else:
            expect = abs(u) <= shape.length / 2 and abs(v) <= shape.width / 2
        assert bool(g) == expect


@given(
    st.floats(-3, 3), st.floats(-3, 3), st.floats(-math.pi, math.pi),
    st.floats(-2, 2), st.floats(-2, 2),
)
def test_contains_rigid_invariance(tx, ty, rot, px, py):
    e = OrientedEllipse((0.5, -0.2), 1.8, 0.9, 0.3)
    p = np.array([px, py])
    c, s = math.cos(rot), math.sin(rot)
    rot_m = np.array([[c, -s], [s, c]])
    e2 = OrientedEllipse(
        tuple(rot_m @ np.array(e.center) + [tx, ty]),
        e.ax_major, e.ax_minor, e.orientation + rot,
    )
    p2 = rot_m @ p + [tx, ty]
    assert e.contains(p) == e2.contains(p2)


# --- bounding ellipse (`bounding_axes`, as annotation fits it) ------------------------

def test_bounding_single_point_floor():
    major, minor = bounding_axes(np.zeros(1), np.zeros(1), np.zeros(1, dtype=int), 1)
    assert (major.tolist(), minor.tolist()) == ([0.1], [0.1])


def test_bounding_symmetric_pair_on_boundary():
    (major,), (minor,) = bounding_axes(np.array([1.0, -1.0]), np.zeros(2),
                                       np.zeros(2, dtype=int), 1)
    assert major == pytest.approx(2.0)
    assert minor == pytest.approx(0.1)
    u = 1.0 / (major / 2)
    assert u**2 == pytest.approx(1.0)


def test_bounding_scan_without_points_keeps_the_floor():
    # Annotation writes no ellipse for such a scan; the other scans' axes are their own.
    major, minor = bounding_axes(np.array([0.0, 2.0, 0.0]), np.array([0.0, 0.0, 0.3]),
                                 np.array([0, 2, 2]), 3)
    assert major.tolist() == [0.1, 0.1, pytest.approx(4.0)]
    assert minor.tolist() == [0.1, 0.1, pytest.approx(0.6)]


def _ellipse_values(e, pts):
    c, s = math.cos(e.orientation), math.sin(e.orientation)
    dx = pts[:, 0] - e.center[0]
    dy = pts[:, 1] - e.center[1]
    u, v = c * dx + s * dy, -s * dx + c * dy
    return (u / (e.ax_major / 2)) ** 2 + (v / (e.ax_minor / 2)) ** 2


def test_bounding_random_clouds_containment_and_minimality():
    # 50 clouds as the scans of one call, each in its own frame (center, yaw).
    rng = np.random.default_rng(11)
    clouds = []
    for _ in range(50):
        n = rng.integers(2, 30)
        center = rng.normal(0, 5, 2)
        yaw = rng.uniform(-math.pi, math.pi)
        clouds.append((center + rng.normal(0, rng.uniform(0.2, 1.5), (n, 2)), center, yaw))
    u, v = (np.concatenate(c) for c in zip(*(to_local(p, *c, yaw) for p, c, yaw in clouds)))
    scan = np.repeat(np.arange(50), [len(p) for p, _, _ in clouds])
    majors, minors = bounding_axes(u, v, scan, 50)
    for (pts, center, yaw), major, minor in zip(clouds, majors, minors):
        e = OrientedEllipse(tuple(center), major, minor, yaw)
        vals = _ellipse_values(e, pts)
        assert np.all(vals <= 1.0 + 1e-9)
        # minimality only applies to axes that sit above the 0.1 m floor
        if e.ax_major > 0.1:
            shrunk = OrientedEllipse(e.center, e.ax_major * 0.99, e.ax_minor, e.orientation)
            assert np.any(_ellipse_values(shrunk, pts) > 1.0)
        if e.ax_minor > 0.1:
            shrunk = OrientedEllipse(e.center, e.ax_major, e.ax_minor * 0.99, e.orientation)
            assert np.any(_ellipse_values(shrunk, pts) > 1.0)
