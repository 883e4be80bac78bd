import ast
import copy
import dataclasses
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import vruradar
from vruradar.core import (
    Detections,
    LabeledTable,
    Pose,
    RadarScan,
    ScanTable,
    SensorMount,
    VruKind,
    record,
    scan_offsets,
    to_global,
    to_local,
    wrap_angle,
    wrap_angles,
)

from conftest import global_to_polar, polar_to_global

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


def test_wrap_angles_matches_wrap_angle_to_the_bit():
    pi, two_pi = math.pi, 2 * math.pi
    edges = [0.0, pi, two_pi, 3 * pi, 1e15, 1e300, np.nextafter(pi, 0), np.nextafter(pi, 4),
             np.nextafter(two_pi, 0), np.nextafter(two_pi, 7), 5e-324]
    values = np.concatenate([edges, np.negative(edges),
                             np.random.default_rng(0).uniform(-1e4, 1e4, 20_000)])
    want = np.array([wrap_angle(a) for a in values.tolist()])
    assert wrap_angles(values).tobytes() == want.tobytes()
    assert np.isnan(wrap_angles([np.nan, 1.0])[0])
    with pytest.raises(ValueError, match="angle must be finite, got -inf"):
        wrap_angles([1.0, -np.inf, np.inf])


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


ORIGIN = Pose(0.0, 0.0, 0.0)


def _mount(x=0.0, y=0.0, yaw=0.0, sensor_id="r0"):
    return SensorMount(sensor_id, Pose(x, y, yaw), math.radians(60), 50.0)


def _scan(range_m, azimuth, sensor_id="r0"):
    """A one-point scan."""
    return RadarScan(0.0, sensor_id, Detections([range_m], [azimuth], [0.0], [10.0]))


def _ego(range_m, azimuth, mount) -> np.ndarray:
    """(n, 2) ego-frame positions of the detections that `mount` measures in polar."""
    return polar_to_global(np.atleast_1d(range_m), np.atleast_1d(azimuth), mount, ORIGIN)


def test_polar_to_ego_identity_mount():
    p = _ego(5.0, 0.0, _mount())
    assert p.shape == (1, 2)
    assert p[0] == pytest.approx([5.0, 0.0])


def test_polar_to_ego_rotated_mount():
    p = _ego(2.0, 0.0, _mount(1.0, 0.0, math.pi / 2))
    assert p[0] == pytest.approx([1.0, 2.0])


@pytest.mark.parametrize("yaw", [0.0, 0.2])
def test_polar_to_ego_matches_point_by_point_reference(yaw):
    rng = np.random.default_rng(3)
    pose = _mount(1.0, -0.5, yaw).pose_in_ego
    ranges, azimuths = rng.uniform(0.0, 40.0, 200), rng.uniform(-1.0, 1.0, 200)
    local = np.column_stack([ranges * np.cos(azimuths), ranges * np.sin(azimuths)])
    rows = np.column_stack(to_global(local, pose.x, pose.y, pose.yaw))
    # Elementwise: n points at once give the bits of n one-point calls, at any yaw.
    assert rows.tolist() == [list(map(float, to_global(p, pose.x, pose.y, pose.yaw)))
                             for p in local]
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    reference = [(pose.x + c * u - s * v, pose.y + s * u + c * v) for u, v in local.tolist()]
    np.testing.assert_allclose(rows, reference, rtol=0, atol=8 * np.finfo(float).eps * 41)


def test_polar_to_ego_empty_scan():
    assert _ego([], [], _mount()).shape == (0, 2)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scan_tables_reject_a_non_finite_timestamp(bad):
    # The JSONL writers would write it as a bare NaN or Infinity, which no reader accepts.
    d = Detections([1.0, 2.0], [0.0, 0.1], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="timestamps must be finite"):
        ScanTable([0.0, bad], ["r0", "r0"], [0, 1, 2], d)
    with pytest.raises(ValueError, match="timestamps must be finite"):
        LabeledTable([bad, 1.0], ["r0", "r0"], [0, 1, 2], d, [1, 0], np.zeros((2, 5)),
                     np.zeros((2, 5)), "vru-0", VruKind.CYCLIST)
    assert len(ScanTable([0.0, 1.0], ["r0", "r0"], [0, 1, 2], d)) == 2


def _table(counts, table_type=ScanTable, **labels) -> ScanTable:
    """Scans at t = 0, 1, ... holding `counts` rows; row i has range i and index i."""
    n = sum(counts)
    d = Detections(np.arange(n), np.zeros(n), np.zeros(n), np.zeros(n), index=np.arange(n),
                   global_xy=np.zeros((n, 2)))
    m = len(counts)
    return table_type(np.arange(float(m)), [f"r{k}" for k in range(m)], scan_offsets(counts), d,
                      **labels)


def test_where_keeps_masked_rows_in_order():
    scans = _table([3, 2, 4])
    got = scans.where(np.array([True, False, True, False, True, True, False, True, False]))
    assert got.timestamp.tolist() == [0.0, 1.0, 2.0]
    assert got.sensor_id.tolist() == ["r0", "r1", "r2"]
    assert got.offsets.tolist() == [0, 2, 3, 5]
    assert got.detections.index.tolist() == [0, 2, 4, 5, 7]
    assert got.detections.global_xy.shape == (5, 2)


def test_where_drops_scans_without_masked_rows():
    scans = _table([2, 0, 3, 1])
    got = scans.where(np.array([False, False, False, True, False, True]))
    assert got.timestamp.tolist() == [2.0, 3.0]
    assert got.offsets.tolist() == [0, 1, 2]
    assert got.detections.range_m.tolist() == [3.0, 5.0]


def test_where_all_false_gives_an_empty_table():
    got = _table([2, 3]).where(np.zeros(5, dtype=bool))
    assert len(got) == 0 and len(got.detections) == 0
    assert got.offsets.tolist() == [0]


def test_where_on_a_labeled_table_gives_a_plain_scan_table():
    labeled = _table([2, 2], LabeledTable, n_assigned=[1, 0], vru_state=np.zeros((2, 5)),
                     bounding=np.zeros((2, 5)), track_id="vru-0", vru_kind=VruKind.CYCLIST)
    got = labeled.where(labeled.assigned)
    assert type(got) is ScanTable
    assert got.timestamp.tolist() == [0.0] and got.detections.index.tolist() == [0]


@given(
    st.floats(0.1, 40.0),
    st.floats(-1.0, 1.0),
    st.floats(-5.0, 5.0),
    st.floats(-5.0, 5.0),
    finite_angles,
)
def test_polar_ego_round_trip(r, az, mx, my, myaw):
    mount = _mount(mx, my, myaw)
    r2, az2 = global_to_polar(_ego(r, az, mount), mount, ORIGIN)
    assert r2[0] == pytest.approx(r, abs=1e-9)
    assert wrap_angle(az2[0] - az) == pytest.approx(0.0, abs=1e-9)


def test_ego_to_global_examples():
    assert to_global([1.0, 2.0], 0.0, 0.0, 0.0) == pytest.approx((1.0, 2.0))
    assert to_global([1.0, 0.0], 10.0, 0.0, math.pi) == pytest.approx((9.0, 0.0))


@given(
    st.floats(-20, 20), st.floats(-20, 20),
    st.floats(-20, 20), st.floats(-20, 20), finite_angles,
)
def test_global_ego_round_trip(px, py, ex, ey, eyaw):
    p = np.array([px, py])
    back = to_local(np.array(to_global(p, ex, ey, eyaw)), ex, ey, eyaw)
    assert back == pytest.approx((px, py), abs=1e-9)


@given(
    st.floats(-10, 10), st.floats(-10, 10),
    st.floats(-10, 10), st.floats(-10, 10),
    st.floats(-20, 20), st.floats(-20, 20), finite_angles,
)
def test_transforms_are_rigid(ax, ay, bx, by, ex, ey, eyaw):
    a = np.array([[ax, ay], [bx, by]])
    d0 = np.linalg.norm(a[0] - a[1])
    for move in (to_global, to_local):
        u, v = move(a, ex, ey, eyaw)
        assert math.hypot(u[0] - u[1], v[0] - v[1]) == pytest.approx(d0, abs=1e-9)


def test_detection_cartesian_consistency():
    mount = _mount(1.0, -0.5, 0.2)
    r, az = global_to_polar(_ego(7.3, 0.4, mount), mount, ORIGIN)
    assert r[0] == pytest.approx(7.3, abs=1e-9)
    assert az[0] == pytest.approx(0.4, abs=1e-9)


def test_detection_rejects_negative_range():
    with pytest.raises(ValueError):
        _scan(-1.0, 0.0)


def test_mount_validation():
    with pytest.raises(ValueError):
        SensorMount("r0", Pose(0, 0, 0), 0.0, 10.0)
    with pytest.raises(ValueError):
        SensorMount("r0", Pose(0, 0, 0), 1.0, -1.0)


@given(st.floats(-20, 20), st.floats(-20, 20), finite_angles,
       st.floats(-5, 5), st.floats(-5, 5), finite_angles)
def test_compose_pose_chains_transforms(px, py, pyaw, cx, cy, cyaw):
    parent, child = Pose(px, py, pyaw), Pose(cx, cy, cyaw)
    # the child frame in the parent's parent: its origin carried over, the yaws added
    x, y = to_global([child.x, child.y], parent.x, parent.y, parent.yaw)
    composed = Pose(float(x), float(y), parent.yaw + child.yaw)
    p_local = np.array([[0.7, -0.2], [-3.0, 4.0]])
    direct = to_global(np.column_stack(to_global(p_local, child.x, child.y, child.yaw)),
                       parent.x, parent.y, parent.yaw)
    np.testing.assert_allclose(to_global(p_local, composed.x, composed.y, composed.yaw), direct,
                               rtol=0, atol=1e-9)


def test_composing_a_quarter_turn():
    parent = Pose(1.0, 2.0, math.pi / 2)
    x, y = to_global([1.0, 0.0], parent.x, parent.y, parent.yaw)
    assert (x, y) == pytest.approx((1.0, 3.0))


def _twin_namespace() -> dict:
    """The body of a class with a plain default, a default factory and a check."""
    def __post_init__(self):
        if self.a < 0:
            raise ValueError(f"a must be >= 0, got {self.a}")
    return {"__annotations__": {"a": "int", "b": "tuple", "c": "tuple"}, "__module__": __name__,
            "b": (1, 2), "c": dataclasses.field(default_factory=tuple),
            "__post_init__": __post_init__}


def _outcome(call):
    try:
        return "ok", repr(call())
    except Exception as exc:  # the type and message are what is compared
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("options", [{}, {"frozen": True}, {"eq": False},
                                     {"frozen": True, "eq": False}])
def test_a_record_behaves_as_the_dataclass_it_stands_for(options):
    made = record(**options)(type("Twin", (), _twin_namespace()))
    twin = dataclasses.dataclass(**options)(type("Twin", (), _twin_namespace()))
    for cls in (made, twin):
        assert cls.__qualname__ == "Twin"

    def behaviour(cls) -> list:
        x, y = cls(1), cls(a=1, c=(3,))
        calls = [
            lambda: [(f.name, f.type, f.default, f.default_factory) for f in
                     dataclasses.fields(cls)],
            lambda: str(inspect.signature(cls)), lambda: cls.__match_args__,
            lambda: (cls.__hash__ is None, cls.__hash__ is object.__hash__),
            lambda: hasattr(x, "__dict__"),
            lambda: x, lambda: y, lambda: cls(2, (3,), (4,)), lambda: cls(b=(), a=5),
            lambda: (x == cls(1), x == y, x != cls(1), x == (1, (1, 2), ())),
            lambda: hash(x) if cls.__hash__ not in (None, object.__hash__) else None,
            lambda: dataclasses.replace(y, a=7), lambda: dataclasses.replace(y, a=-1),
            lambda: dataclasses.astuple(y), lambda: dataclasses.asdict(y),
            lambda: (copy.copy(y), copy.deepcopy(y)),
            cls, lambda: cls(1, (), (), 4), lambda: cls(1, a=2), lambda: cls(1, d=2),
            lambda: cls(b=()), lambda: cls(-1),
            lambda: setattr(x, "a", 3), lambda: x, lambda: delattr(x, "b"), lambda: x,
            lambda: setattr(x, "other", 1),
        ]
        return [_outcome(call) for call in calls]

    assert behaviour(made) == behaviour(twin)


# Imports numpy, then counts the source texts that exec and eval are given while the
# package and every module of it and of its commands load.
_LOAD_PROBE = """
import builtins, importlib, pkgutil, sys
import numpy
sources = []
def spy(run):
    def counted(source, *args, **kwargs):
        if isinstance(source, (str, bytes)):
            sources.append(source)
        return run(source, *args, **kwargs)
    return counted
builtins.exec, builtins.eval = spy(builtins.exec), spy(builtins.eval)
import vruradar, vruradar.commands
for package in (vruradar, vruradar.commands):
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        vars(importlib.import_module(info.name))  # a lazy module runs when first read
print(repr(sources))
"""


def test_loading_the_package_compiles_no_source_text():
    src = str(Path(vruradar.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _LOAD_PROBE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    sources = ast.literal_eval(proc.stdout)
    # From Python 3.13, dataclass compiles a builder for a class's methods even when it
    # makes none: records leave it that one empty function.
    empty_builder = "def __create_fn__():\n\n return ()"
    if sys.version_info >= (3, 13):
        sources = [s for s in sources if s != empty_builder]
    assert sources == []
