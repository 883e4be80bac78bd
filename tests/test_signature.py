import math

import numpy as np
import pytest

from vruradar.annotation import LabeledScan
from vruradar.core import Detections, VruKind, to_global, to_local
from vruradar.signature import (
    accumulate,
    grid_stats,
    write_grid_csv,
    write_pgm,
)

from conftest import labeled_table


def vru_state(x=0.0, y=0.0, yaw=0.0):
    """A labeled scan's state row: x, y, yaw, speed and yaw rate."""
    return np.array([x, y, yaw, 1.0, 0.0])


def labeled_scan(t, points_global, state):
    n = len(points_global)
    dets = Detections(
        range_m=np.ones(n), azimuth=np.zeros(n), radial_velocity=np.zeros(n),
        amplitude=np.zeros(n), ego=np.zeros((n, 2)), global_xy=points_global,
    )
    return LabeledScan(
        timestamp=t, track_id="vru-0", vru_kind=VruKind.PEDESTRIAN, sensor_id="r0",
        assigned=dets, rejected=dets[:0], bounding=None, vru_state=state,
    )


def test_to_object_frame_center_maps_to_origin():
    st = vru_state(3.0, -2.0, 0.7)
    assert to_local([3.0, -2.0], *st[:3]) == pytest.approx((0.0, 0.0))


def test_to_object_frame_rotation():
    st = vru_state(0.0, 0.0, math.pi / 2)
    assert to_local([0.0, 1.0], *st[:3]) == pytest.approx((1.0, 0.0), abs=1e-12)


def test_object_frame_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(100):
        st = vru_state(*rng.normal(0, 5, 2), rng.uniform(-math.pi, math.pi))
        p = rng.normal(0, 3, 2)
        back = to_global(np.array(to_local(p, *st[:3])), *st[:3])
        assert back == pytest.approx(p, abs=1e-9)


def test_accumulate_single_cell():
    st = vru_state()
    scans = [labeled_scan(0.0, [(0.0, 0.0)] * 100, st)]
    grid = accumulate(labeled_table(scans), resolution=0.05, half_extents=(2.5, 1.5))
    assert grid.total == 100
    assert grid.counts.max() == 100
    assert grid.overflow == 0


def test_accumulate_conservation_with_overflow():
    st = vru_state()
    pts = [(0.0, 0.0), (0.1, 0.1), (10.0, 0.0), (-1.0, 5.0)]
    grid = accumulate(labeled_table([labeled_scan(0.0, pts, st)]), half_extents=(2.5, 1.5))
    assert grid.total + grid.overflow == 4
    assert grid.overflow == 2


def test_accumulate_uses_object_frame():
    st = vru_state(10.0, 5.0, math.pi / 2)
    # one meter north of center = +1 m along movement direction
    grid = accumulate(labeled_table([labeled_scan(0.0, [(10.0, 6.0)], st)]), resolution=0.05)
    xs, ys = grid.cell_centers()
    ix, iy = np.unravel_index(np.argmax(grid.counts), grid.counts.shape)
    assert xs[ix] == pytest.approx(1.0, abs=0.05)
    assert ys[iy] == pytest.approx(0.0, abs=0.05)


def test_accumulate_validates_resolution():
    with pytest.raises(ValueError):
        accumulate(labeled_table([]), resolution=0.0)


@pytest.mark.parametrize("resolution,half_extents,message", [
    (math.nan, (2.5, 1.5), "resolution must be finite and > 0, got nan"),
    (0.05, (math.inf, 1.5), "half extent x must be finite and > 0, got inf"),
    (0.05, (2.5, -1.0), "half extent y must be finite and > 0, got -1.0"),
    (7.0, (2.5, 1.5), "resolution 7.0 leaves no cell across half extents 2.5 and 1.5"),
])
def test_accumulate_refuses_a_grid_without_cells(resolution, half_extents, message):
    # Where numpy failed with its own message, or a grid of no cell held every point in
    # `overflow`.
    with pytest.raises(ValueError) as err:
        accumulate(labeled_table([]), resolution=resolution, half_extents=half_extents)
    assert str(err.value) == message


@pytest.mark.parametrize("resolution,half_extents", [(0.05, (1e300, 1.5)), (1e-300, (2.5, 1.5))])
def test_accumulate_names_a_grid_too_large_to_index(resolution, half_extents):
    with pytest.raises(MemoryError, match="cells is too large to allocate"):
        accumulate(labeled_table([]), resolution=resolution, half_extents=half_extents)


def test_accumulate_takes_a_grid_of_one_cell():
    grid = accumulate(labeled_table([]), resolution=3.0, half_extents=(2.5, 1.5))
    assert grid.counts.shape == (2, 1)


def test_grid_stats_single_cell_degenerate():
    st = vru_state()
    grid = accumulate(labeled_table([labeled_scan(0.0, [(0.51, 0.49)] * 10, st)]))
    stats = grid_stats(grid)
    assert stats.peak_cell == pytest.approx(stats.centroid)
    assert stats.principal_axes == pytest.approx((0.0, 0.0), abs=1e-12)


def test_grid_stats_two_peaks_major_axis_along_x():
    st = vru_state()
    pts = [(-1.0, 0.0)] * 50 + [(1.0, 0.0)] * 50
    stats = grid_stats(accumulate(labeled_table([labeled_scan(0.0, pts, st)])))
    assert abs(stats.orientation) < math.radians(1.0)
    assert stats.principal_axes[0] > stats.principal_axes[1]


def test_grid_stats_empty_raises():
    with pytest.raises(ValueError):
        grid_stats(accumulate(labeled_table([])))


def test_grid_stats_matches_unbinned_covariance():
    rng = np.random.default_rng(2)
    st = vru_state()
    pts = rng.multivariate_normal([0.3, -0.1], np.diag([0.25, 0.04]), 4000)
    grid = accumulate(labeled_table([labeled_scan(0.0, pts, st)]), resolution=0.05,
                      half_extents=(2.5, 1.5))
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

    ga = accumulate(labeled_table([labeled_scan(0.0, pts_a, st_a)]))
    gb = accumulate(labeled_table([labeled_scan(0.0, pts_b, st_b)]))
    # binning jitter at cell edges: allow a within-one-cell reshuffle
    assert ga.total == gb.total
    diff = np.abs(ga.counts - gb.counts).sum()
    assert diff <= 0.1 * ga.total


def _rotm(a):
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


def test_exports_carry_format_headers(tmp_path):
    st = vru_state()
    grid = accumulate(labeled_table([labeled_scan(0.0, [(0.0, 0.0)], st)]))
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
    scans = [labeled_scan(0.0, [(1.0, 0.0)], vru_state(0.0, 0.0)),
             labeled_scan(1.0, [(2.0, 0.0)], vru_state(1.0, 0.0))]
    states = np.array([(1.0, 0.0, 0.0), (3.0, 0.0, 0.0)])  # x, y, yaw
    grid = accumulate(labeled_table(scans), resolution=0.5, states=states)
    xs, ys = grid.cell_centers()
    hits = [(float(xs[ix]), float(ys[iy])) for ix, iy in zip(*np.nonzero(grid.counts))]
    assert sorted(hits) == [(-0.75, 0.25), (0.25, 0.25)]
    with pytest.raises(ValueError, match="states"):
        accumulate(labeled_table(scans), states=states[:1])
