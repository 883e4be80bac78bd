import math

import numpy as np
import pytest

from vruradar.annotation import LabeledScan
from vruradar.core import GLOBAL, Detections, Pose, VruKind
from vruradar.signature import (
    accumulate,
    grid_stats,
    write_grid_csv,
    write_pgm,
)
from vruradar.trajectory import TrajectoryState


def vru_state(x=0.0, y=0.0, yaw=0.0, t=0.0):
    return TrajectoryState(timestamp=t, pose=Pose(x, y, yaw, frame=GLOBAL), speed=1.0, yaw_rate=0.0)


def labeled_scan(t, points_global, state):
    n = len(points_global)
    dets = Detections(
        range_m=np.ones(n), azimuth=np.zeros(n), radial_velocity=np.zeros(n),
        amplitude=np.zeros(n), ego=np.zeros((n, 2)), global_xy=points_global,
    )
    return LabeledScan(
        timestamp=t, track_id="vru-0", vru_kind=VruKind.PEDESTRIAN, sensor_id="r0",
        assigned=dets, rejected=(), bounding=None, vru_state=state,
    )


def test_to_object_frame_center_maps_to_origin():
    st = vru_state(3.0, -2.0, 0.7)
    assert st.pose.from_parent([3.0, -2.0]) == pytest.approx([0.0, 0.0])


def test_to_object_frame_rotation():
    st = vru_state(0.0, 0.0, math.pi / 2)
    assert st.pose.from_parent([0.0, 1.0]) == pytest.approx([1.0, 0.0], abs=1e-12)


def test_object_frame_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(100):
        st = vru_state(*rng.normal(0, 5, 2), rng.uniform(-math.pi, math.pi))
        p = rng.normal(0, 3, 2)
        back = st.pose.to_parent(st.pose.from_parent(p))
        assert back == pytest.approx(p, abs=1e-9)


def test_accumulate_single_cell():
    st = vru_state()
    scans = [labeled_scan(0.0, [(0.0, 0.0)] * 100, st)]
    grid = accumulate(scans, resolution=0.05, half_extents=(2.5, 1.5))
    assert grid.total == 100
    assert grid.counts.max() == 100
    assert grid.overflow == 0


def test_accumulate_conservation_with_overflow():
    st = vru_state()
    pts = [(0.0, 0.0), (0.1, 0.1), (10.0, 0.0), (-1.0, 5.0)]
    grid = accumulate([labeled_scan(0.0, pts, st)], half_extents=(2.5, 1.5))
    assert grid.total + grid.overflow == 4
    assert grid.overflow == 2


def test_accumulate_uses_object_frame():
    st = vru_state(10.0, 5.0, math.pi / 2)
    # one meter north of center = +1 m along movement direction
    grid = accumulate([labeled_scan(0.0, [(10.0, 6.0)], st)], resolution=0.05)
    xs, ys = grid.cell_centers()
    ix, iy = np.unravel_index(np.argmax(grid.counts), grid.counts.shape)
    assert xs[ix] == pytest.approx(1.0, abs=0.05)
    assert ys[iy] == pytest.approx(0.0, abs=0.05)


def test_accumulate_validates_resolution():
    with pytest.raises(ValueError):
        accumulate([], resolution=0.0)


def test_merge_requires_same_geometry():
    g1 = accumulate([], resolution=0.05)
    g2 = accumulate([], resolution=0.1)
    with pytest.raises(ValueError):
        g1.merge(g2)


def test_merge_is_elementwise_sum():
    st = vru_state()
    s1 = [labeled_scan(0.0, [(0.0, 0.0), (0.2, 0.1)], st)]
    s2 = [labeled_scan(1.0, [(0.0, 0.0)], st)]
    g1, g2 = accumulate(s1), accumulate(s2)
    merged = g1.merge(g2)
    assert merged.total == 3
    assert np.array_equal(merged.counts, g1.counts + g2.counts)


def test_grid_stats_single_cell_degenerate():
    st = vru_state()
    grid = accumulate([labeled_scan(0.0, [(0.51, 0.49)] * 10, st)])
    stats = grid_stats(grid)
    assert stats.peak_cell == pytest.approx(stats.centroid)
    assert stats.principal_axes == pytest.approx((0.0, 0.0), abs=1e-12)


def test_grid_stats_two_peaks_major_axis_along_x():
    st = vru_state()
    pts = [(-1.0, 0.0)] * 50 + [(1.0, 0.0)] * 50
    stats = grid_stats(accumulate([labeled_scan(0.0, pts, st)]))
    assert abs(stats.orientation) < math.radians(1.0)
    assert stats.principal_axes[0] > stats.principal_axes[1]


def test_grid_stats_empty_raises():
    with pytest.raises(ValueError):
        grid_stats(accumulate([]))


def test_grid_stats_matches_unbinned_covariance():
    rng = np.random.default_rng(2)
    st = vru_state()
    pts = rng.multivariate_normal([0.3, -0.1], np.diag([0.25, 0.04]), 4000)
    grid = accumulate([labeled_scan(0.0, pts, st)], resolution=0.05, half_extents=(2.5, 1.5))
    stats = grid_stats(grid)
    assert stats.centroid == pytest.approx(pts.mean(axis=0), abs=0.05)
    cov = np.cov(pts, rowvar=False, ddof=0)
    eig = np.sqrt(np.linalg.eigvalsh(cov))
    assert stats.principal_axes[0] == pytest.approx(eig[1], abs=0.05)
    assert stats.principal_axes[1] == pytest.approx(eig[0], abs=0.05)


def test_frame_invariance_under_global_rotation():
    rng = np.random.default_rng(3)
    offsets = rng.normal(0, 0.3, (300, 2))
    rot = 1.1
    c, s = math.cos(rot), math.sin(rot)
    rot_m = np.array([[c, -s], [s, c]])

    st_a = vru_state(1.0, 2.0, 0.4)
    pts_a = np.array([1.0, 2.0]) + offsets @ _rotm(0.4).T
    center_b = rot_m @ np.array([1.0, 2.0])
    st_b = vru_state(center_b[0], center_b[1], 0.4 + rot)
    pts_b = center_b + offsets @ _rotm(0.4 + rot).T

    ga = accumulate([labeled_scan(0.0, pts_a, st_a)])
    gb = accumulate([labeled_scan(0.0, pts_b, st_b)])
    # binning jitter at cell edges: allow a within-one-cell reshuffle
    assert ga.total == gb.total
    diff = np.abs(ga.counts - gb.counts).sum()
    assert diff <= 0.1 * ga.total


def _rotm(a):
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


def test_exports_carry_format_headers(tmp_path):
    st = vru_state()
    grid = accumulate([labeled_scan(0.0, [(0.0, 0.0)], st)])
    pgm = tmp_path / "g.pgm"
    csv = tmp_path / "g.csv"
    write_pgm(grid, pgm)
    write_grid_csv(grid, csv)
    pgm_lines = pgm.read_text().splitlines()
    assert pgm_lines[0] == "P2"
    assert pgm_lines[1].startswith("# format=")
    w, h = map(int, pgm_lines[2].split())
    assert (w, h) == grid.counts.shape
    csv_lines = csv.read_text().splitlines()
    assert csv_lines[0].startswith("# format=")
    assert csv_lines[1] == "x,y,count"
    counts = sum(int(line.rsplit(",", 1)[1]) for line in csv_lines[2:])
    assert counts == grid.total


def test_states_aligned_with_scans_replace_track_states():
    # Both scans see a point 1 m ahead of their own state; the given states
    # put the first point at the origin and the second 1 m behind it.
    scans = [labeled_scan(0.0, [(1.0, 0.0)], vru_state(0.0, 0.0, t=0.0)),
             labeled_scan(1.0, [(2.0, 0.0)], vru_state(1.0, 0.0, t=1.0))]
    states = [vru_state(1.0, 0.0, t=0.0), vru_state(3.0, 0.0, t=1.0)]
    grid = accumulate(scans, resolution=0.5, states=states)
    xs, ys = grid.cell_centers()
    hits = [(float(xs[ix]), float(ys[iy])) for ix, iy in zip(*np.nonzero(grid.counts))]
    assert sorted(hits) == [(-0.75, 0.25), (0.25, 0.25)]
    with pytest.raises(ValueError, match="states"):
        accumulate(scans, states=states[:1])
