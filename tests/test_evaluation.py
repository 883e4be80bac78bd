import math
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from scipy import stats as sps
from scipy.special import stdtr

import reference as ref
from vruradar import io
from vruradar.annotation import LabeledScan
from vruradar.core import Detections, LabeledTable, VruKind, scan_offsets
from vruradar.evaluation import (
    CYCLE_COLUMNS,
    cycle_stats,
    histogram,
    per_scan_counts,
    r4_compensate,
    score_assignment,
    student_t_two_sided_p,
    welch_t_test,
)

from conftest import conf_axes, labeled_table, truth_table


def make_scan(t, assigned_idx, rejected_idx, *, vr=None, amp=20.0, rng_m=10.0, pts=None):
    n = len(assigned_idx) + len(rejected_idx)
    dets = Detections(
        range_m=np.full(n, rng_m), azimuth=np.zeros(n),
        radial_velocity=np.zeros(n) if vr is None else vr,
        amplitude=np.full(n, amp),
        ego=np.zeros((n, 2)),
        global_xy=np.zeros((n, 2)) if pts is None else pts,
    )

    def rows(idx):
        return dets[np.asarray(idx, dtype=int)]

    state = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    return LabeledScan(
        timestamp=t, track_id="vru-0", vru_kind=VruKind.PEDESTRIAN, sensor_id="r0",
        assigned=rows(assigned_idx), rejected=rows(rejected_idx),
        bounding=None, vru_state=state,
    )


# --- scoring -----------------------------------------------------------------

def test_score_single_scan_definition():
    scan = make_scan(0.0, [0, 1, 2, 3], [4, 5])
    truth = {(0.0, i): "vru" for i in (0, 1, 2, 4, 5)}
    truth[(0.0, 3)] = "clutter"
    s = score_assignment(labeled_table([scan]), truth_table(truth))["micro"]
    assert (s.tp, s.fp, s.fn) == (3, 1, 2)
    assert s.precision == pytest.approx(0.75)
    assert s.recall == pytest.approx(0.6)


def test_score_perfect_agreement():
    scan = make_scan(0.0, [0, 1], [2])
    truth = {(0.0, 0): "vru", (0.0, 1): "vru", (0.0, 2): "clutter"}
    for s in score_assignment(labeled_table([scan]), truth_table(truth)).values():
        assert s.precision == 1.0 and s.recall == 1.0


def test_macro_differs_from_micro_with_unbalanced_scans():
    # scan A: 1 TP; scan B: 1 TP, 1 FP -> per-scan precisions {1.0, 0.5}
    scans = [make_scan(0.0, [0], []), make_scan(1.0, [0, 1], [])]
    truth = {(0.0, 0): "vru", (1.0, 0): "vru", (1.0, 1): "clutter"}
    scores = score_assignment(labeled_table(scans), truth_table(truth))
    macro, micro = scores["macro"], scores["micro"]
    assert macro.precision == pytest.approx(0.75)
    assert micro.precision == pytest.approx(2 / 3)


def test_macro_skips_undefined_scores():
    scans = [make_scan(0.0, [], []), make_scan(1.0, [0], [])]
    truth = {(1.0, 0): "vru"}
    s = score_assignment(labeled_table(scans), truth_table(truth))["macro"]
    assert s.precision == 1.0 and s.recall == 1.0


def test_score_misaligned_raises():
    scan = make_scan(0.0, [0], [])
    with pytest.raises(ValueError):
        score_assignment(labeled_table([scan]), truth_table({}))


def test_scores_bounded_and_monotone():
    # adding a false positive never raises precision; a false negative never
    # raises recall
    rng = np.random.default_rng(9)
    for _ in range(50):
        tp, fp, fn = (int(v) for v in rng.integers(0, 20, 3))
        if tp + fp == 0 or tp + fn == 0:
            continue
        base = make_scan(0.0, list(range(tp + fp)), list(range(tp + fp, tp + fp + fn)))
        truth = {(0.0, i): ("vru" if i < tp else "clutter") for i in range(tp + fp)}
        truth.update({(0.0, i): "vru" for i in range(tp + fp, tp + fp + fn)})
        s = score_assignment(labeled_table([base]), truth_table(truth))["micro"]
        assert 0.0 <= s.precision <= 1.0 and 0.0 <= s.recall <= 1.0
        more_fp = make_scan(
            0.0, list(range(tp + fp + fn, tp + fp + fn + 1)) + list(range(tp + fp)),
            list(range(tp + fp, tp + fp + fn)),
        )
        truth_fp = dict(truth)
        truth_fp[(0.0, tp + fp + fn)] = "clutter"
        s_fp = score_assignment(labeled_table([more_fp]), truth_table(truth_fp))["micro"]
        assert s_fp.precision <= s.precision
        more_fn = make_scan(
            0.0, list(range(tp + fp)),
            list(range(tp + fp, tp + fp + fn + 1)),
        )
        truth_fn = dict(truth)
        truth_fn[(0.0, tp + fp + fn)] = "vru"
        s_fn = score_assignment(labeled_table([more_fn]), truth_table(truth_fn))["micro"]
        assert s_fn.recall <= s.recall


def test_score_matches_hand_pooled_counts_on_random_data():
    rng = np.random.default_rng(0)
    scans, truth = [], {}
    tp = fp = fn = 0
    for k in range(30):
        t = float(k)
        n = int(rng.integers(1, 8))
        labels = rng.random(n) < 0.7
        assigned = rng.random(n) < 0.8
        scans.append(make_scan(t, list(np.where(assigned)[0]), list(np.where(~assigned)[0])))
        for i in range(n):
            truth[(t, i)] = "vru" if labels[i] else "clutter"
            tp += assigned[i] and labels[i]
            fp += assigned[i] and not labels[i]
            fn += (not assigned[i]) and labels[i]
    s = score_assignment(labeled_table(scans), truth_table(truth))["micro"]
    assert (s.tp, s.fp, s.fn) == (tp, fp, fn)


# Scan times, some of which share a key: -0.0, 0.0 and 1e-10 (0.0 to the nanosecond), and
# 1.0 and 1.0 + 1e-12.
KEY_TIMES = [-0.0, 0.0, 1e-10, 1.0, 1.0 + 1e-12, 2.5, 1e16]


@st.composite
def scan_rows(draw):
    """(times, counts, idx, is_vru) of a few scans; each scan's idx are distinct."""
    counts = draw(st.lists(st.integers(0, 4), max_size=6))
    ids = st.integers(0, 4) | st.sampled_from([-2**63, 2**63 - 1])
    index = [i for c in counts for i in draw(st.lists(ids, min_size=c, max_size=c, unique=True))]
    return (draw(st.lists(st.sampled_from(KEY_TIMES), min_size=len(counts),
                          max_size=len(counts))),
            counts, index, draw(st.lists(st.booleans(), min_size=len(index),
                                         max_size=len(index))))


@settings(max_examples=400, deadline=None)
@given(truth=scan_rows(), auto=scan_rows(), data=st.data())
def test_per_scan_counts_match_the_dict_oracle(truth, auto, data):
    # A scan time that recurs, a key that two scans hold, a labeled point without a truth
    # label and a truth label without a labeled point: the counts, or the first fault's
    # message, that looking up each point in a dict of labels gives.
    times, counts, index, is_vru = truth
    columns = {"timestamp": np.array(times, dtype=float), "offsets": scan_offsets(counts),
               "index": np.array(index, dtype=np.int64), "is_vru": np.array(is_vru, np.uint8)}
    try:
        oracle = ref.truth_labels(columns)
    except ValueError as exc:
        event("repeated key")
        with pytest.raises(io._Fault) as fault:
            io.truth_labels(columns)
        assert fault.value.args == exc.args
        return
    labels = io.truth_labels(columns)
    assert ref.truth_dict(labels) == oracle
    assert not (np.signbit(labels.timestamp) & (labels.timestamp == 0.0)).any()  # -0.0 is 0.0
    times, counts, index, _ = auto
    if data.draw(st.booleans()):  # the truth's scans at times of the same keys, each holding
        offsets = scan_offsets(truth[1]).tolist()  # some of its idx in any order
        rows = [data.draw(st.lists(st.sampled_from(truth[2][lo:hi]), unique=True))
                if hi > lo else [] for lo, hi in zip(offsets, offsets[1:])]
        times = [data.draw(st.sampled_from([u for u in KEY_TIMES if round(u, 9) == round(t, 9)]))
                 for t in truth[0]]
        counts, index = list(map(len, rows)), [i for scan in rows for i in scan]
    n = len(index)
    scans = LabeledTable(times, ["r0"] * len(times), scan_offsets(counts),
                         Detections(*np.zeros((4, n)), index=index, ego=np.zeros((n, 2)),
                                    global_xy=np.zeros((n, 2))),
                         [data.draw(st.integers(0, c)) for c in counts],
                         np.zeros((len(times), 5)), np.full((len(times), 5), np.nan), "vru-0",
                         VruKind.PEDESTRIAN)
    try:
        expected = ref.per_scan_counts(scans, oracle)
    except ValueError as exc:
        event("unlabeled point")
        with pytest.raises(ValueError) as err:
            per_scan_counts(scans, labels)
        assert str(err.value) == str(exc)
        return
    event("counts")
    assert per_scan_counts(scans, labels) == expected


# --- R^4 -----------------------------------------------------------------------

def test_r4_identity_at_ref_range():
    assert r4_compensate(13.0, 1.0) == 13.0
    assert r4_compensate(13.0, 7.0, ref_range=7.0) == 13.0


def test_r4_double_range_adds_12dB():
    assert r4_compensate(0.0, 2.0) == pytest.approx(40 * math.log10(2), abs=1e-12)
    assert r4_compensate(0.0, 2.0) == pytest.approx(12.0412, abs=1e-4)


def test_r4_columns_match_scalar_reference():
    rng = np.random.default_rng(8)
    amps, ranges = rng.normal(20.0, 5.0, 300), rng.uniform(0.15, 40.0, 300)
    expected = [a + 40.0 * math.log10(r) for a, r in zip(amps.tolist(), ranges.tolist())]
    assert r4_compensate(amps, ranges).tolist() == expected
    with pytest.raises(ValueError):
        r4_compensate(amps, np.append(ranges[1:], 0.0))


def test_r4_rejects_nonpositive_range():
    with pytest.raises(ValueError):
        r4_compensate(0.0, 0.0)
    with pytest.raises(ValueError):
        r4_compensate(0.0, -2.0)


def test_r4_additive_in_db():
    a = r4_compensate(r4_compensate(5.0, 3.0), 4.0)
    assert a == pytest.approx(r4_compensate(5.0, 12.0), abs=1e-10)


# --- confidence ellipse, as cycle_stats gives it for one scan -----------------------

def test_confidence_axes_ratio_matches_covariance():
    rng = np.random.default_rng(1)
    pts = rng.multivariate_normal([0, 0], np.diag([4.0, 1.0]), 20000)
    major, minor = conf_axes(pts)
    assert major / minor == pytest.approx(2.0, rel=0.05)
    assert major == pytest.approx(2 * math.sqrt(4 * 5.991), rel=0.05)


def test_confidence_isotropic_ratio_one():
    rng = np.random.default_rng(2)
    pts = rng.normal(0, 1.0, (10000, 2))
    major, minor = conf_axes(pts)
    assert major / minor == pytest.approx(1.0, rel=0.05)


def test_confidence_coverage_95():
    rng = np.random.default_rng(3)
    cov = np.array([[2.0, 0.7], [0.7, 1.0]])
    pts = rng.multivariate_normal([1.0, -2.0], cov, 100000)
    mean = pts.mean(axis=0)
    sample_cov = np.cov(pts, rowvar=False)
    d = pts - mean
    m2 = np.einsum("ij,jk,ik->i", d, np.linalg.inv(sample_cov), d)
    frac = float(np.mean(m2 <= sps.chi2.ppf(0.95, 2)))
    assert 0.94 <= frac <= 0.96


def test_confidence_rotation_invariant_scale_linear():
    rng = np.random.default_rng(4)
    pts = rng.multivariate_normal([0, 0], np.diag([3.0, 0.5]), 5000)
    major, minor = conf_axes(pts)
    c, s = math.cos(0.9), math.sin(0.9)
    rot = np.array([[c, -s], [s, c]])
    major_r, minor_r = conf_axes(pts @ rot.T)
    assert (major_r, minor_r) == pytest.approx((major, minor), rel=1e-9)
    major_s, minor_s = conf_axes(3.0 * pts)
    assert (major_s, minor_s) == pytest.approx((3 * major, 3 * minor), rel=1e-9)


def test_confidence_requires_3_noncollinear_points():
    assert np.isnan(conf_axes(np.array([(0.0, 0.0), (1.0, 1.0)]))).all()
    assert np.isnan(conf_axes(np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]))).all()


# --- cycle stats -------------------------------------------------------------------

def one_cycle(scan):
    """`cycle_stats` of a one-scan table, as one row of values."""
    stats = cycle_stats(labeled_table([scan]))
    return {name: stats[name][0] for name in (
        "n_assigned", "mean_comp_power", "doppler_std", "conf_major", "conf_minor",
        "weighted_count")}


def test_cycle_stats_single_detection():
    s = one_cycle(make_scan(0.0, [0], [], vr=[1.3]))
    assert s["doppler_std"] == 0.0
    assert np.isnan(s["conf_major"]) and np.isnan(s["conf_minor"])
    assert s["n_assigned"] == 1


def test_cycle_stats_two_detections_sample_std():
    s = one_cycle(make_scan(0.0, [0, 1], [], vr=[1.0, 2.0]))
    assert s["doppler_std"] == pytest.approx(math.sqrt(0.5), abs=1e-9)


def test_cycle_stats_weighted_count_reference():
    s = one_cycle(make_scan(0.0, list(range(10)), [], vr=[0.0] * 10, rng_m=10.0))
    assert s["weighted_count"] == pytest.approx(10.0)


def test_cycle_stats_mean_comp_power():
    s = one_cycle(make_scan(0.0, [0], [], vr=[0.0], amp=5.0, rng_m=10.0))
    assert s["mean_comp_power"] == pytest.approx(5.0 + 40.0, abs=1e-9)


def test_cycle_stats_without_assigned_detections_has_no_rows():
    stats = cycle_stats(labeled_table([make_scan(0.0, [], [0]), make_scan(0.1, [], [])]))
    assert len(stats) == 0 and stats.dtype.names == CYCLE_COLUMNS


def test_cycle_stats_conf_axes_from_positions():
    rng = np.random.default_rng(5)
    pts = rng.normal(0, 0.5, (40, 2))
    scan = make_scan(0.0, list(range(40)), [], vr=[0.0] * 40, pts=pts)
    s = one_cycle(scan)
    minor, major = 2.0 * np.sqrt(np.linalg.eigvalsh(np.cov(pts, rowvar=False)) * 5.991464547107979)
    assert s["conf_major"] == pytest.approx(major)
    assert s["conf_minor"] == pytest.approx(minor)
    assert s["conf_major"] >= s["conf_minor"]


@pytest.mark.parametrize("scale", [1.2e154, 1e200])
def test_cycle_stats_names_an_overflowing_confidence_ellipse(scale):
    # 1.2e154: the covariance is finite but its axes overflow; 1e200: the covariance does.
    square = np.array([[0.0, 0.0], [scale, 0.0], [0.0, scale], [scale, scale]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"^cycle statistic conf_major overflows at "
                                               r"scan t=0\.000000000$"):
            conf_axes(square)
    assert conf_axes(square / scale) == pytest.approx((2 * math.sqrt(5.991464547107979 / 3),) * 2)


# --- Welch t-test ---------------------------------------------------------------------

def test_welch_identical_samples():
    r = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert r.t == 0.0
    assert r.p_two_sided == pytest.approx(1.0)


def test_welch_reference_example():
    r = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert abs(r.t) == pytest.approx(1.0, abs=1e-12)
    assert r.dof == pytest.approx(8.0, abs=1e-12)
    assert r.p_two_sided == pytest.approx(0.347, abs=5e-4)


def test_welch_swap_negates_t_keeps_p():
    a, b = [1.0, 2.0, 4.0], [2.0, 5.0, 9.0, 3.0]
    r1, r2 = welch_t_test(a, b), welch_t_test(b, a)
    assert r1.t == pytest.approx(-r2.t, abs=1e-12)
    assert r1.p_two_sided == pytest.approx(r2.p_two_sided, abs=1e-12)


def test_welch_agrees_with_scipy_oracle():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), rng.integers(2, 40))
        b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), rng.integers(2, 40))
        mine = welch_t_test(a, b)
        ref = sps.ttest_ind(a, b, equal_var=False)
        assert mine.t == pytest.approx(ref.statistic, abs=1e-9)
        assert mine.p_two_sided == pytest.approx(ref.pvalue, abs=1e-6)


T_GRID = (0.0, 1e-8, 0.5, 2.0, 10.0, 40.0)


@pytest.mark.parametrize("dof", [1.0, 2.5, 30.0, 1e3, 1e5])
def test_student_t_p_matches_oracle(dof):
    for t in T_GRID:
        if dof == 1.0:
            # Cauchy closed form; stdtr(1, -1e-8) is itself off by 3e-9 relative.
            expect = 1.0 - 2.0 / math.pi * math.atan(t)
        else:
            expect = 2.0 * stdtr(dof, -t)
        for sign in (1.0, -1.0):
            assert student_t_two_sided_p(sign * t, dof) == pytest.approx(expect, rel=1e-10, abs=0)


@pytest.mark.parametrize("dof", [1.0, 2.5, 30.0, 1e3, 1e5])
def test_student_t_p_is_one_at_zero_and_falls_with_t(dof):
    assert student_t_two_sided_p(0.0, dof) == 1.0
    p = [student_t_two_sided_p(t, dof) for t in (*T_GRID, 100.0, 1e4, 1e200)]  # t^2 overflows
    assert all(0.0 <= v <= 1.0 for v in p)
    assert all(later <= earlier for earlier, later in zip(p, p[1:]))
    assert all(later < earlier for earlier, later in zip(p, p[1:]) if earlier > 0.0)


def test_welch_degenerate_raises():
    with pytest.raises(ValueError):
        welch_t_test([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        welch_t_test([2.0, 2.0], [3.0, 3.0])


# --- histogram -----------------------------------------------------------------------

def test_histogram_single_bin():
    h = histogram([0.1, 0.12, 0.18], 0.5, (0.0, 0.5))
    assert list(h.counts) == [3]


def test_histogram_conserves_in_range_values():
    rng = np.random.default_rng(7)
    vals = rng.uniform(-1, 3, 500)
    h = histogram(vals, 0.25, (0.0, 2.0))
    assert h.counts.sum() == int(np.sum((vals >= 0.0) & (vals < 2.0)))


def test_histogram_left_closed_right_open():
    h = histogram([0.0, 0.25, 0.5], 0.25, (0.0, 0.5))
    assert list(h.counts) == [1, 1]


def test_histogram_matches_naive_loop():
    rng = np.random.default_rng(8)
    vals = rng.normal(1.0, 0.8, 1000)
    width, lo, hi = 0.2, -1.0, 3.0
    h = histogram(vals, width, (lo, hi))
    n_bins = len(h.counts)
    naive = [0] * n_bins
    for v in vals:
        if lo <= v < hi:
            naive[min(int((v - lo) / width), n_bins - 1)] += 1
    assert list(h.counts) == naive


def test_histogram_validation():
    with pytest.raises(ValueError):
        histogram([1.0], 0.0, (0.0, 1.0))
    with pytest.raises(ValueError):
        histogram([1.0], 0.1, (1.0, 0.0))
