"""The names and result fields that perfbench/tracer.py relies on still exist, and the
files the CLI writes pass perfbench/run.py's own output checks.

`perfbench/run.py --trace 1` wraps package functions by name and counts
fields of their return values.  These checks load tracer.py without running
it, so a renamed function or a changed result type fails here in seconds
instead of in a traced benchmark run.  A short traced pipeline then runs the
real commands and checks their files as the benchmark does, so that a change
the benchmark would refuse as incorrect output fails here too.
"""

import importlib
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vruradar import cli
from vruradar.annotation import annotate_scenario
from vruradar.core import to_global
from vruradar.eot import run_tracker
from vruradar.signature import accumulate
from vruradar.simulator import preset, simulate_scenario
from vruradar.trajectory import build_fused_trajectory

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it executes
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


def test_every_traced_and_counted_name_resolves(tracer):
    traced = set()
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"vruradar.{layer}")
        if names is None:
            names = [n for n in vars(module) if n.startswith(("read_", "write_"))]
            assert names, f"vruradar.{layer} has no public reader or writer"
        for name in names:
            assert callable(getattr(module, name, None)), f"vruradar.{layer}.{name}"
            traced.add(f"{layer}.{name}")
    for layer, name in tracer.COUNTED:
        assert callable(getattr(importlib.import_module(f"vruradar.{layer}"), name, None))
    assert set(tracer.RESULT_COUNTS) <= traced


@pytest.fixture(scope="module")
def small_run():
    """A 4 s drive: config, simulated data, annotate arguments and result, tracker input."""
    cfg = replace(preset("cyclist-nominal", seed=3), duration=4.0)
    data = simulate_scenario(cfg)
    traj = build_fused_trajectory(data.gnss, data.imu)
    annotate_args = (data.scans, traj, cfg.vru_kind, cfg.mounts, cfg.ego_pose)
    annotated = annotate_scenario(*annotate_args)
    # as cmd_track builds it: the assigned rows, and each sensor's global position
    tracker_input = (annotated.scans.where(annotated.scans.assigned),
                     {m.sensor_id: to_global((m.pose_in_ego.x, m.pose_in_ego.y), cfg.ego_pose.x,
                                             cfg.ego_pose.y, cfg.ego_pose.yaw)
                      for m in cfg.mounts})
    return cfg, data, annotate_args, annotated, tracker_input


def test_result_counts_read_small_results(tracer, small_run, tmp_path):
    cfg, data, annotate_args, annotated, tracker_input = small_run
    grid = accumulate(annotated.scans)
    calls = {
        "simulator.simulate_scenario": ((cfg,), data),
        "annotation.annotate_scenario": (annotate_args, annotated),
        "signature.accumulate": ((annotated.scans,), grid),
        "eot.run_tracker": (tracker_input, run_tracker(*tracker_input)),
    }
    assert set(calls) == set(tracer.RESULT_COUNTS)
    counts = {}
    for name, (args, result) in calls.items():
        counts.update(tracer.RESULT_COUNTS[name](args, result))
    json.dumps(counts)  # the tracer writes them as JSON
    assert counts["simulator.scans"] == len(data.scans) > 0
    assert counts["simulator.detections"] == len(data.scans.detections) > 0
    for stream in ("gnss", "imu"):  # a stream's len() is its count of samples on file
        path = tmp_path / f"{stream}.csv"
        getattr(cli.io, f"write_{stream}_csv")(path, getattr(data, stream))
        written = len(path.read_text(encoding="utf-8").splitlines()) - 2  # tag and header
        assert counts[f"simulator.{stream}_samples"] == written > 0
    labeled_rows = counts["annotation.assigned"] + counts["annotation.rejected"]
    assert labeled_rows == len(annotated.scans.detections)
    assert counts["annotation.assigned"] == int(annotated.scans.n_assigned.sum()) > 0
    binned = counts["signature.points"] + counts["signature.overflow"]
    assert binned == counts["annotation.assigned"]
    assert counts["eot.scans"] == np.count_nonzero(annotated.scans.n_assigned) > 0


def test_counted_update_sees_every_tracker_update(tracer, small_run, monkeypatch):
    # The tracer swaps the counted functions in their modules, so run_tracker must call
    # eot.update through the module global; an inlined update would make eot.updates read 0.
    *_, annotated, tracker_input = small_run
    counting = tracer.Tracer()
    for (layer, fname), name in tracer.COUNTED.items():
        module = importlib.import_module(f"vruradar.{layer}")
        monkeypatch.setattr(module, fname, counting.counter(name, getattr(module, fname)))
    run_tracker(*tracker_input)
    updates = np.count_nonzero(annotated.scans.n_assigned) - 1
    assert counting.counts == {"eot.updates": updates}


def test_traced_pipeline_passes_the_benchmark_output_checks(tmp_path):
    # An 8 s drive shaped like the sparse-long workload: both annotate modes,
    # evaluate --compare, signature and track against the truth trajectory.
    run = _load("run")
    sparse = run.WORKLOADS["sparse-long"]
    w = replace(sparse, scenario={**sparse.scenario, "duration": 8.0})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**w.scenario, "seed": 0}), encoding="utf-8")
    tally = run.Tally()
    p = run.run_pipeline(w, cfg, tmp_path / "p", run.child_env(), True, tally)
    assert p is not None and not tally.failed, tally.failed
    run.check_outputs(w, p, tmp_path / "p" / "out", tally)
    # Precision and recall bounds are the benchmark's to judge on its full-length drives.
    formats = [name for name in tally.failed if "precision" not in name and "recall" not in name]
    assert tally.attempted - len(p.invocations) >= 4 and not formats, formats
