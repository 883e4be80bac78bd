"""Scoring and radar statistics: precision/recall, R^4 power compensation,
Doppler spread, confidence ellipses, distance-weighted counts, Welch t-tests,
and fixed-width histograms."""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .core import LabeledTable, TruthLabels, record, table

WEIGHTED_COUNT_REF_RANGE = 10.0  # m, reference for distance-weighted detection counts
# A covariance whose minor-to-major eigenvalue ratio is at most this is
# degenerate: collinear points leave only rounding noise of that size.
COLLINEAR_RATIO = 1e-12
# The columns of a cycle_stats table, as named in the header of cycle_stats.csv: mean_comp_power
# in dB, R^4-compensated; doppler_std in m/s, the sample std of radial velocities; the 95%
# confidence ellipse axes in m, NaN below 3 points or for collinear points.
CYCLE_COLUMNS = ("timestamp", "n_assigned", "mean_comp_power", "doppler_std", "conf_major",
                 "conf_minor", "weighted_count")


@record(frozen=True)
class AssignmentScore:
    """TP, FP and FN counts of labels against the truth, and their precision and recall."""

    tp: int
    fp: int
    fn: int
    precision: float
    recall: float


@record(frozen=True)
class TTestResult:
    """Welch's t statistic, its degrees of freedom and its two-sided p-value."""

    t: float
    dof: float
    p_two_sided: float


@record(frozen=True)
class Histogram:
    """The counts of a fixed-width histogram and its bin edges."""

    edges: np.ndarray  # len(counts) + 1, left-closed right-open bins
    counts: np.ndarray


def per_scan_counts(auto: LabeledTable, truth: TruthLabels) -> list[tuple[int, int, int]]:
    """Per-scan (TP, FP, FN) against truth labels.  A detection's label is the truth row of
    its scan's time to the nanosecond and its `index`; every detection must have one."""
    # Python's round, as the truth keys use it; numpy rounds differently.
    times = list(map(round, auto.timestamp.tolist(), repeat(9)))
    scan, index = auto.scan_of_row, auto.detections.index
    # A key (time, idx) as one int: its time's rank among both tables' times, times the
    # number of idx values, plus its idx's rank among them.  The truth's keys are sorted.
    all_times = np.sort(np.concatenate([truth.timestamp, times]))
    all_ids = np.sort(np.concatenate([truth.index, index]))

    def keys_of(scan_times, counts, idx) -> np.ndarray:
        ranks = np.searchsorted(all_times, scan_times) * len(all_ids)
        return np.repeat(ranks, counts) + np.searchsorted(all_ids, idx)
    truth_keys = keys_of(truth.timestamp, np.diff(truth.offsets), truth.index)
    keys = keys_of(times, np.diff(auto.offsets), index)
    row = np.searchsorted(truth_keys, keys)
    found = np.append(truth_keys, -1)[row] == keys
    if not found.all():
        k = int(found.argmin())
        raise ValueError(f"no truth label for scan t={times[scan[k]]} point {index[k]}")
    vru, assigned, m = truth.is_vru[row], auto.assigned, len(auto)
    tp = np.bincount(scan[vru & assigned], minlength=m)
    fn = np.bincount(scan[vru & ~assigned], minlength=m)
    return list(zip(tp.tolist(), (auto.n_assigned - tp).tolist(), fn.tolist()))


def score_from_counts(counts: list[tuple[int, int, int]]) -> dict[str, AssignmentScore]:
    """The "micro" and "macro" scores of per-scan (TP, FP, FN) counts, both with the pooled
    counts.  Micro takes precision and recall of the pooled counts; macro averages per-scan
    precision and recall, skipping scans where a score is undefined."""
    if not counts:
        raise ValueError("no scans to score")
    per_scan = np.asarray(counts, dtype=np.int64).reshape(-1, 3)
    pooled = per_scan.sum(axis=0, keepdims=True)
    tp, fp, fn = pooled[0].tolist()
    return {name: AssignmentScore(tp, fp, fn, _mean_ratio(t, t + f), _mean_ratio(t, t + m))
            for name, (t, f, m) in (("micro", pooled.T), ("macro", per_scan.T))}


def _mean_ratio(part: np.ndarray, whole: np.ndarray) -> float:
    """Mean of part / whole over the rows where whole > 0; NaN if there are none."""
    defined = whole > 0
    return float(np.mean(part[defined] / whole[defined])) if defined.any() else float("nan")


def score_assignment(auto: LabeledTable, truth: TruthLabels) -> dict[str, AssignmentScore]:
    """The "micro" and "macro" scores of an automatic assignment against truth labels."""
    return score_from_counts(per_scan_counts(auto, truth))


def r4_compensate(amplitude_db, range_m, ref_range: float = 1.0):
    """Free-space two-way path loss correction, +40*log10(range/ref) dB, on scalars or arrays."""
    range_m = np.asarray(range_m, dtype=float)
    if ref_range <= 0 or np.any(range_m <= 0):
        raise ValueError("range and ref_range must be > 0")
    ratio = range_m / ref_range
    # math.log10: numpy's SIMD log10 can differ in the last bit; written stats stay stable.
    log_ratio = np.fromiter(map(math.log10, ratio.ravel().tolist()), float, ratio.size)
    return amplitude_db + 40.0 * log_ratio.reshape(ratio.shape)


def _ellipse_axes(cxx, cyy, cxy, across, level: float):
    """Full (major, minor) confidence-ellipse axes of the 2x2 covariance(s)
    [[cxx, cxy], [cxy, cyy]], NaN where the covariance is degenerate.

    Axes are 2*sqrt(eigenvalue * q) with q the chi-square(2 dof) quantile at
    `level`.  The large eigenvalue is the closed form mean + radius; the small
    one is `across`, the variance of the points across the major axis, since
    mean - radius cancels for a thin set of points.
    """
    big = 0.5 * (cxx + cyy) + np.hypot(0.5 * (cxx - cyy), cxy)
    flat = np.isfinite(big) & ~(across > COLLINEAR_RATIO * big)  # an overflow is no degenerate one
    q = -2.0 * math.log1p(-level)  # chi-square(2) quantile, closed form
    major = 2.0 * np.sqrt(np.where(flat, np.nan, big) * q)
    minor = 2.0 * np.sqrt(np.where(flat, np.nan, across) * q)
    return major, minor


def cycle_stats(scans: LabeledTable) -> np.ndarray:
    """Radar statistics of every scan with assigned detections, over those detections: a
    table of CYCLE_COLUMNS, one row per such scan, and no rows when there is none.

    A RuntimeError names the first statistic, and its scan's `t`, that overflows.
    """
    cycles = scans.where(scans.assigned)
    n, k, first = np.diff(cycles.offsets), len(cycles), cycles.offsets[:-1]
    seg = cycles.scan_of_row
    d = cycles.detections

    def mean(values):  # about each scan's first value, so that equal values give it exactly
        return values[first] + np.bincount(seg, values - values[first][seg], k) / n

    def covariance(a, b):  # of values less their scan's mean: within each scan, 0 for one point
        return np.bincount(seg, a * b, k) / np.maximum(n - 1, 1)

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        x, y, v = (c - mean(c)[seg] for c in (*d.global_xy.T, d.radial_velocity))
        cov = np.array([covariance(x, x), covariance(y, y), covariance(x, y)])
        major_yaw = 0.5 * np.arctan2(2.0 * cov[2], cov[0] - cov[1])[seg]
        across = y * np.cos(major_yaw) - x * np.sin(major_yaw)
        conf_major, conf_minor = _ellipse_axes(*cov, covariance(across, across), 0.95)
        conf_major[n < 3] = conf_minor[n < 3] = np.nan
        stats = table(CYCLE_COLUMNS, (
            cycles.timestamp,
            n,
            mean(r4_compensate(d.amplitude, d.range_m)),
            np.sqrt(covariance(v, v)),
            conf_major,
            conf_minor,
            n * (mean(d.range_m) / WEIGHTED_COUNT_REF_RANGE) ** 2,
        ))
    # A degenerate covariance leaves the axes NaN; only one that overflows is a fault.
    finite = {name: np.isfinite(stats[name]) for name in CYCLE_COLUMNS[2:]}
    finite["conf_major"] = finite["conf_minor"] = (n < 3) | (
        np.isfinite(cov).all(axis=0) & ~np.isinf(stats["conf_major"]))
    for name, ok in finite.items():
        if not ok.all():
            raise RuntimeError(f"cycle statistic {name} overflows at scan "
                               f"t={cycles.timestamp[ok.argmin()]:.9f}")
    return stats


def student_t_two_sided_p(t: float, dof: float) -> float:
    """P(|T| >= |t|) for Student's t with `dof` > 0 degrees of freedom.

    This is the regularized incomplete beta function I_x(dof/2, 1/2) at
    x = dof / (dof + t^2).  Both x and 1 - x are formed from t^2 directly, so
    neither loses precision when t^2 is tiny or huge against `dof`, and a t^2
    that overflows gives p = 0.
    """
    if t == 0.0:
        return 1.0
    t2 = t * t
    a, b = 0.5 * dof, 0.5
    x, y = dof / (dof + t2), 1.0 / (1.0 + dof / t2)
    # x^a y^b / B(a, b), with B(a, 1/2) = Gamma(a) Gamma(1/2) / Gamma(a + 1/2)
    front = math.exp(_log_gamma_ratio_half(a) - 0.5 * math.log(math.pi)
                     - a * math.log1p(t2 / dof) + b * math.log(y))
    # The continued fraction converges fast on the side of the mean a / (a + b).
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, y) / b


def _log_gamma_ratio_half(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a).

    For large `a` the two lgamma values are large and nearly equal, and their
    difference keeps only about 1e-16 * a of absolute accuracy.  There the
    Stirling series is differenced term by term instead.
    """
    if a < 100.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)

    def stirling_tail(z: float) -> float:  # ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi) / 2
        z2 = z * z
        return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * z2)) / z2) / z

    return (0.5 * math.log(a) + (a * math.log1p(0.5 / a) - 0.5)
            + (stirling_tail(a + 0.5) - stirling_tail(a)))


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) by the modified Lentz method
    (Press et al., *Numerical Recipes*, 3rd ed., section 6.4)."""
    tiny = 1e-300

    def nonzero(v: float) -> float:
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 10_001):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for coef in (even, odd):
            d = 1.0 / nonzero(1.0 + coef * d)
            c = nonzero(1.0 + coef / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge (a={a}, b={b})")


def welch_t_test(a, b) -> TTestResult:
    """Welch's unequal-variance two-sample t-test with a two-sided p-value."""
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if len(xa) < 2 or len(xb) < 2:
        raise ValueError("each sample set needs at least 2 values")
    va = float(np.var(xa, ddof=1))
    vb = float(np.var(xb, ddof=1))
    if va <= 0.0 and vb <= 0.0:
        raise ValueError("both samples have zero variance")
    na, nb = len(xa), len(xb)
    sa, sb = va / na, vb / nb
    se = math.sqrt(sa + sb)
    t_stat = (float(np.mean(xa)) - float(np.mean(xb))) / se
    dof = (sa + sb) ** 2 / (sa**2 / (na - 1) + sb**2 / (nb - 1))
    return TTestResult(t=t_stat, dof=dof, p_two_sided=student_t_two_sided_p(t_stat, dof))


def histogram(values, bin_width: float, value_range: tuple[float, float]) -> Histogram:
    """Fixed-width left-closed right-open bins over [lo, hi); out-of-range values dropped."""
    if bin_width <= 0:
        raise ValueError("bin_width must be > 0")
    lo, hi = value_range
    if hi <= lo:
        raise ValueError("range must have hi > lo")
    n_bins = int(math.ceil((hi - lo) / bin_width))
    edges = lo + bin_width * np.arange(n_bins + 1)
    counts = np.zeros(n_bins, dtype=np.int64)
    arr = np.asarray(values, dtype=float)
    inside = (arr >= lo) & (arr < hi)
    idx = np.floor((arr[inside] - lo) / bin_width).astype(int)
    idx = np.minimum(idx, n_bins - 1)
    np.add.at(counts, idx, 1)
    return Histogram(edges=edges, counts=counts)
