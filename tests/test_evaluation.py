import math

import numpy as np
import pytest
from scipy import stats as sps

from vruradar.annotation import LabeledScan
from vruradar.core import EmptyScanError, GLOBAL, Detections, Pose, VruKind
from vruradar.evaluation import (
    Averaging,
    confidence_ellipse,
    cycle_stats,
    histogram,
    r4_compensate,
    score_assignment,
    welch_t_test,
)
from vruradar.trajectory import TrajectoryState


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

    state = TrajectoryState(t, Pose(0, 0, 0, frame=GLOBAL), 1.0, 0.0)
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
    s = score_assignment([scan], truth, Averaging.MICRO)
    assert (s.tp, s.fp, s.fn) == (3, 1, 2)
    assert s.precision == pytest.approx(0.75)
    assert s.recall == pytest.approx(0.6)


def test_score_perfect_agreement():
    scan = make_scan(0.0, [0, 1], [2])
    truth = {(0.0, 0): "vru", (0.0, 1): "vru", (0.0, 2): "clutter"}
    for avg in (Averaging.MICRO, Averaging.MACRO):
        s = score_assignment([scan], truth, avg)
        assert s.precision == 1.0 and s.recall == 1.0


def test_macro_differs_from_micro_with_unbalanced_scans():
    # scan A: 1 TP; scan B: 1 TP, 1 FP -> per-scan precisions {1.0, 0.5}
    scans = [make_scan(0.0, [0], []), make_scan(1.0, [0, 1], [])]
    truth = {(0.0, 0): "vru", (1.0, 0): "vru", (1.0, 1): "clutter"}
    macro = score_assignment(scans, truth, Averaging.MACRO)
    micro = score_assignment(scans, truth, Averaging.MICRO)
    assert macro.precision == pytest.approx(0.75)
    assert micro.precision == pytest.approx(2 / 3)


def test_macro_skips_undefined_scores():
    scans = [make_scan(0.0, [], []), make_scan(1.0, [0], [])]
    truth = {(1.0, 0): "vru"}
    s = score_assignment(scans, truth, Averaging.MACRO)
    assert s.precision == 1.0 and s.recall == 1.0


def test_score_misaligned_raises():
    scan = make_scan(0.0, [0], [])
    with pytest.raises(ValueError):
        score_assignment([scan], {}, Averaging.MICRO)


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
        s = score_assignment([base], truth, Averaging.MICRO)
        assert 0.0 <= s.precision <= 1.0 and 0.0 <= s.recall <= 1.0
        more_fp = make_scan(
            0.0, list(range(tp + fp + fn, tp + fp + fn + 1)) + list(range(tp + fp)),
            list(range(tp + fp, tp + fp + fn)),
        )
        truth_fp = dict(truth)
        truth_fp[(0.0, tp + fp + fn)] = "clutter"
        s_fp = score_assignment([more_fp], truth_fp, Averaging.MICRO)
        assert s_fp.precision <= s.precision
        more_fn = make_scan(
            0.0, list(range(tp + fp)),
            list(range(tp + fp, tp + fp + fn + 1)),
        )
        truth_fn = dict(truth)
        truth_fn[(0.0, tp + fp + fn)] = "vru"
        s_fn = score_assignment([more_fn], truth_fn, Averaging.MICRO)
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
    s = score_assignment(scans, truth, Averaging.MICRO)
    assert (s.tp, s.fp, s.fn) == (tp, fp, fn)


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


# --- confidence ellipse ----------------------------------------------------------

def test_confidence_axes_ratio_matches_covariance():
    rng = np.random.default_rng(1)
    pts = rng.multivariate_normal([0, 0], np.diag([4.0, 1.0]), 20000)
    major, minor = confidence_ellipse(pts)
    assert major / minor == pytest.approx(2.0, rel=0.05)
    assert major == pytest.approx(2 * math.sqrt(4 * 5.991), rel=0.05)


def test_confidence_isotropic_ratio_one():
    rng = np.random.default_rng(2)
    pts = rng.normal(0, 1.0, (10000, 2))
    major, minor = confidence_ellipse(pts)
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
    major, minor = confidence_ellipse(pts)
    c, s = math.cos(0.9), math.sin(0.9)
    rot = np.array([[c, -s], [s, c]])
    major_r, minor_r = confidence_ellipse(pts @ rot.T)
    assert (major_r, minor_r) == pytest.approx((major, minor), rel=1e-9)
    major_s, minor_s = confidence_ellipse(3.0 * pts)
    assert (major_s, minor_s) == pytest.approx((3 * major, 3 * minor), rel=1e-9)


def test_confidence_requires_3_noncollinear_points():
    with pytest.raises(ValueError):
        confidence_ellipse([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        confidence_ellipse([(0, 0), (1, 1), (2, 2), (3, 3)])


# --- cycle stats -------------------------------------------------------------------

def test_cycle_stats_single_detection():
    s = cycle_stats(make_scan(0.0, [0], [], vr=[1.3]))
    assert s.doppler_std == 0.0
    assert s.conf_major is None and s.conf_minor is None
    assert s.n_assigned == 1


def test_cycle_stats_two_detections_sample_std():
    s = cycle_stats(make_scan(0.0, [0, 1], [], vr=[1.0, 2.0]))
    assert s.doppler_std == pytest.approx(math.sqrt(0.5), abs=1e-9)


def test_cycle_stats_weighted_count_reference():
    s = cycle_stats(make_scan(0.0, list(range(10)), [], vr=[0.0] * 10, rng_m=10.0))
    assert s.weighted_count == pytest.approx(10.0)


def test_cycle_stats_mean_comp_power():
    s = cycle_stats(make_scan(0.0, [0], [], vr=[0.0], amp=5.0, rng_m=10.0))
    assert s.mean_comp_power == pytest.approx(5.0 + 40.0, abs=1e-9)


def test_cycle_stats_empty_raises():
    with pytest.raises(EmptyScanError):
        cycle_stats(make_scan(0.0, [], [0]))


def test_cycle_stats_conf_axes_from_positions():
    rng = np.random.default_rng(5)
    pts = rng.normal(0, 0.5, (40, 2))
    scan = make_scan(0.0, list(range(40)), [], vr=[0.0] * 40, pts=pts)
    s = cycle_stats(scan)
    major, minor = confidence_ellipse(pts)
    assert s.conf_major == pytest.approx(major)
    assert s.conf_minor == pytest.approx(minor)
    assert s.conf_major >= s.conf_minor


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
