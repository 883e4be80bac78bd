"""Host-speed probe: a fixed piece of work that involves no vruradar code.

    python3 perfbench/probe.py

`run.py` starts this in a fresh interpreter right before every command and
every set-up sample, and scales the run's end-to-end times by how long the
probe took (see `host_factor` in run.py).  The host is shared, and its speed
for this kind of code drifts by a third within minutes; the probe drifts with
it, while no change to the package can make it faster or slower.

Its work has the shape of a command's: interpreter start-up, the import of
numpy and of many other modules (the largest share of every command), then
JSON lines and small numpy operations in a Python loop, and a few array
operations over the whole batch.
"""

import argparse  # noqa: F401  (imported for their cost, like a command's imports)
import asyncio  # noqa: F401
import email.parser  # noqa: F401
import http.server  # noqa: F401
import json
import logging.handlers  # noqa: F401
import tarfile  # noqa: F401
import unittest  # noqa: F401
import xml.dom.minidom  # noqa: F401

import numpy as np

rng = np.random.default_rng(0)
polar = rng.normal(size=(1500, 2))
lines = [json.dumps({"t": k * 0.05, "r": float(r), "az": float(az)})
         for k, (r, az) in enumerate(polar)]
records = [json.loads(line) for line in lines]
rotation = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
points = np.empty((len(records), 2))
for k, rec in enumerate(records):
    r, az = rec["r"], rec["az"]
    points[k] = rotation @ np.array([r * np.cos(az), r * np.sin(az)]) + 1.0
inside = np.einsum("ij,ij->i", points, points) < 4.0
spread = np.cov(points[inside].T)
assert np.isfinite(spread).all()
