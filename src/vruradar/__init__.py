"""Radar-to-trajectory annotation for vulnerable road users.

Associates radar detections with GNSS+IMU-referenced tracks, accumulates
object-centered signature grids, evaluates assignment quality, and runs a
random-matrix extended-object tracker, all against a seeded scenario
simulator.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Each layer is in sys.modules and an attribute of this package from the start, but is
# compiled and run only when one of its attributes is first read.
for _name in ("annotation", "core", "eot", "evaluation", "io", "selection", "sidecar",
              "signature", "simulator", "trajectory"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _name, _spec
