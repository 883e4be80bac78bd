"""Object-centered radar signature grids.

Assigned detections are transformed into the object frame (x-axis along the
movement direction) and accumulated into a 2D count grid over many scans,
yielding the measurement distribution of a VRU independent of its pose in the
world.
"""

from __future__ import annotations

import math

import numpy as np

from .core import LabeledTable, fold_axis, record, table, to_local
from .io import write_table


@record
class SignatureGrid:
    """2D histogram of detections in the object frame.

    `counts[ix, iy]` covers the cell whose lower corner is
    (-half_extent_x + ix*resolution, -half_extent_y + iy*resolution); points
    outside the extents are tallied in `overflow` rather than dropped.
    """

    resolution: float
    half_extent_x: float
    half_extent_y: float
    counts: np.ndarray
    overflow: int = 0

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        nx, ny = self.counts.shape
        xs = -self.half_extent_x + (np.arange(nx) + 0.5) * self.resolution
        ys = -self.half_extent_y + (np.arange(ny) + 0.5) * self.resolution
        return xs, ys


@record(frozen=True)
class GridStats:
    """Peak cell, centroid, principal axes and orientation of a signature grid."""

    peak_cell: tuple[float, float]  # center of the highest-count cell
    centroid: tuple[float, float]
    principal_axes: tuple[float, float]  # sqrt of covariance eigenvalues, major first
    orientation: float  # major-axis direction, folded into (-pi/2, pi/2]


def accumulate(
    scans: LabeledTable,
    resolution: float = 0.05,
    half_extents: tuple[float, float] = (2.5, 1.5),
    *,
    states: np.ndarray | None = None,
) -> SignatureGrid:
    """Bin all assigned detections of the labeled scans into one grid.

    Each scan's own track state defines the object frame; `states`, rows of
    x, y and yaw (further columns are ignored) aligned with the scans, can
    replace them, e.g. to center the grid on the simulator ground truth
    instead of the estimated trajectory.  A ValueError names a resolution or half
    extent that is not finite and > 0, or that leaves the grid no cell; a MemoryError
    names a grid too large to allocate.
    """
    if states is None:
        states = scans.vru_state
    elif len(states) != len(scans):
        raise ValueError(f"got {len(states)} states for {len(scans)} scans")
    hx, hy = half_extents
    for name, value in (("resolution", resolution), ("half extent x", hx), ("half extent y", hy)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    cells = [2.0 * h / resolution for h in half_extents]
    if min(cells) <= 0.5:  # rounds to no cell
        raise ValueError(f"resolution {resolution} leaves no cell across half extents {hx} "
                         f"and {hy}")
    try:
        counts = np.zeros([round(c) for c in cells], dtype=np.int64)
    except (OverflowError, ValueError):  # more cells than an array can index
        raise MemoryError(f"a grid of {cells[0]:.3g} x {cells[1]:.3g} cells is too large to "
                          "allocate") from None
    nx, ny = counts.shape
    assigned = scans.assigned
    x, y, yaw = np.asarray(states, dtype=float)[scans.scan_of_row[assigned], :3].T
    u, v = to_local(scans.detections.global_xy[assigned], x, y, yaw)
    ix = np.floor((u + hx) / resolution).astype(int)
    iy = np.floor((v + hy) / resolution).astype(int)
    ok = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
    np.add.at(counts, (ix[ok], iy[ok]), 1)
    return SignatureGrid(resolution, hx, hy, counts, int(np.count_nonzero(~ok)))


def grid_stats(grid: SignatureGrid) -> GridStats:
    """Peak cell, count-weighted centroid, and principal axes of a grid."""
    if grid.total <= 0:
        raise ValueError("grid is empty")
    xs, ys = grid.cell_centers()
    w = grid.counts.astype(float)
    total = w.sum()
    peak_ix, peak_iy = np.unravel_index(int(np.argmax(w)), w.shape)
    mx = float((w.sum(axis=1) * xs).sum() / total)
    my = float((w.sum(axis=0) * ys).sum() / total)
    dx = xs - mx
    dy = ys - my
    cxx = float((w * np.outer(dx**2, np.ones_like(ys))).sum() / total)
    cyy = float((w * np.outer(np.ones_like(xs), dy**2)).sum() / total)
    cxy = float((w * np.outer(dx, dy)).sum() / total)
    cov = np.array([[cxx, cxy], [cxy, cyy]])
    eigval, eigvec = np.linalg.eigh(cov)
    major = eigvec[:, 1]
    return GridStats(
        peak_cell=(float(xs[peak_ix]), float(ys[peak_iy])),
        centroid=(mx, my),
        principal_axes=(math.sqrt(max(eigval[1], 0.0)), math.sqrt(max(eigval[0], 0.0))),
        orientation=fold_axis(math.atan2(major[1], major[0])),
    )


def write_pgm(grid: SignatureGrid, path) -> None:
    """Plain-text PGM image of the grid, row-major with +y up."""
    maxval = max(1, int(grid.counts.max()))
    rows = []
    for iy in range(grid.counts.shape[1] - 1, -1, -1):
        rows.append(" ".join(str(int(v)) for v in grid.counts[:, iy]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("P2\n")
        fh.write("# format=vruradar.grid-pgm.v1\n")
        fh.write(f"{grid.counts.shape[0]} {grid.counts.shape[1]}\n")
        fh.write(f"{maxval}\n")
        fh.write("\n".join(rows) + "\n")


def write_grid_csv(grid: SignatureGrid, path) -> None:
    """Cell-center coordinates and counts as CSV, one row per cell, empty cells included."""
    xs, ys = grid.cell_centers()
    nx, ny = grid.counts.shape
    write_table(path, "vruradar.grid-csv.v1", table(
        ("x", "y", "count"), (np.repeat(xs, ny), np.tile(ys, nx), grid.counts.ravel())))
