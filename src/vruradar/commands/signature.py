"""`vruradar signature`: the object-centred signature grid of a labeled file."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .. import io, signature
from ..cli import EXIT_OK, ConfigError, _nearest, _read_truth_traj


def run(args) -> int:
    for option in ("resolution", "half_extent_x", "half_extent_y"):
        value = getattr(args, option)
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"--{option.replace('_', '-')} must be finite and > 0, got {value}")
    for axis in ("x", "y"):
        half = getattr(args, f"half_extent_{axis}")
        if 2.0 * half / args.resolution <= 0.5:  # `signature.accumulate`'s rule
            raise ConfigError(f"--resolution {args.resolution} leaves no cell across "
                              f"--half-extent-{axis} {half}")
    labeled = io.read_labeled_jsonl(args.labeled)
    states = None
    if args.truth_traj is not None:
        truth = _read_truth_traj(args.truth_traj, labeled.timestamp)
        rows = np.column_stack([truth["x"], truth["y"], truth["yaw"]])
        states = rows[_nearest(truth["timestamp"], labeled.timestamp)]
    grid = signature.accumulate(
        labeled,
        resolution=args.resolution,
        half_extents=(args.half_extent_x, args.half_extent_y),
        states=states,
    )
    out_prefix = Path(args.out)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    signature.write_pgm(grid, str(out_prefix) + ".pgm")
    signature.write_grid_csv(grid, str(out_prefix) + ".csv")
    report = {"total": grid.total, "overflow": grid.overflow}
    if grid.total > 0:
        stats = signature.grid_stats(grid)
        report.update(
            peak_cell=list(stats.peak_cell),
            centroid=list(stats.centroid),
            principal_axes=list(stats.principal_axes),
            orientation=stats.orientation,
        )
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK
