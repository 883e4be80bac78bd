"""Scoring and radar statistics: precision/recall, R^4 power compensation,
Doppler spread, confidence ellipses, distance-weighted counts, Welch t-tests,
and fixed-width histograms."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np
from scipy.stats import chi2
from scipy.stats import t as student_t

from .annotation import LabeledScan
from .core import LABEL_VRU, EmptyScanError

WEIGHTED_COUNT_REF_RANGE = 10.0  # m, reference for distance-weighted detection counts


class Averaging(str, Enum):
    MICRO = "micro"
    MACRO = "macro"


@dataclass(frozen=True)
class AssignmentScore:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float


@dataclass(frozen=True)
class CycleStats:
    timestamp: float
    n_assigned: int
    mean_comp_power: float  # dB, R^4-compensated
    doppler_std: float  # m/s, sample std of radial velocities
    conf_major: float | None  # m, 95% confidence ellipse axes (None below 3 points)
    conf_minor: float | None
    weighted_count: float


@dataclass(frozen=True)
class TTestResult:
    t: float
    dof: float
    p_two_sided: float


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray  # len(counts) + 1, left-closed right-open bins
    counts: np.ndarray


def per_scan_counts(
    auto: Iterable[LabeledScan],
    truth: Mapping[tuple[float, int], str],
) -> list[tuple[int, int, int]]:
    """Per-scan (TP, FP, FN) against truth labels keyed by (time, index).

    Every detection of every scan must be present in `truth`.
    """
    counts = []
    for scan in auto:
        t = round(scan.timestamp, 9)
        idx = np.concatenate([scan.assigned.index, scan.rejected.index]).tolist()
        labels = [truth.get((t, i)) for i in idx]
        if None in labels:
            missing = idx[labels.index(None)]
            raise ValueError(f"no truth label for scan t={scan.timestamp} point {missing}")
        vru = [label == LABEL_VRU for label in labels]
        n = len(scan.assigned)
        tp = sum(vru[:n])
        counts.append((tp, n - tp, sum(vru[n:])))
    return counts


def score_from_counts(
    counts: list[tuple[int, int, int]],
    averaging: Averaging | str = Averaging.MACRO,
) -> AssignmentScore:
    """Micro pools TP/FP/FN; macro averages per-scan precision and recall,
    skipping scans where a score is undefined."""
    averaging = Averaging(averaging)
    if not counts:
        raise ValueError("no scans to score")
    tp = sum(c[0] for c in counts)
    fp = sum(c[1] for c in counts)
    fn = sum(c[2] for c in counts)
    if averaging == Averaging.MICRO:
        precision = tp / (tp + fp) if tp + fp > 0 else float("nan")
        recall = tp / (tp + fn) if tp + fn > 0 else float("nan")
    else:
        per_precision = [t / (t + f) for t, f, _ in counts if t + f > 0]
        per_recall = [t / (t + m) for t, _, m in counts if t + m > 0]
        precision = float(np.mean(per_precision)) if per_precision else float("nan")
        recall = float(np.mean(per_recall)) if per_recall else float("nan")
    return AssignmentScore(tp=tp, fp=fp, fn=fn, precision=precision, recall=recall)


def score_assignment(
    auto: Iterable[LabeledScan],
    truth: Mapping[tuple[float, int], str],
    averaging: Averaging | str = Averaging.MACRO,
) -> AssignmentScore:
    """Compare automatic assignment against truth labels keyed by (time, index)."""
    return score_from_counts(per_scan_counts(auto, truth), averaging)


def r4_compensate(amplitude_db, range_m, ref_range: float = 1.0):
    """Free-space two-way path loss correction, +40*log10(range/ref) dB, on scalars or arrays."""
    range_m = np.asarray(range_m, dtype=float)
    if ref_range <= 0 or np.any(range_m <= 0):
        raise ValueError("range and ref_range must be > 0")
    ratio = range_m / ref_range
    # math.log10: numpy's SIMD log10 can differ in the last bit; written stats stay stable.
    log_ratio = np.fromiter(map(math.log10, ratio.ravel().tolist()), float, ratio.size)
    return amplitude_db + 40.0 * log_ratio.reshape(ratio.shape)


def confidence_ellipse(points, level: float = 0.95) -> tuple[float, float]:
    """Full axis lengths (major, minor) of the sample confidence ellipse.

    Axes are 2*sqrt(eigenvalue * q) with q the chi-square(2 dof) quantile at
    `level`; requires at least 3 points and a non-degenerate covariance.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) < 3:
        raise ValueError("need at least 3 points for a confidence ellipse")
    cov = np.cov(pts, rowvar=False, ddof=1)
    eigval = np.linalg.eigvalsh(cov)
    if eigval[0] <= 0.0:
        raise ValueError("degenerate covariance; points are collinear")
    q = float(chi2.ppf(level, df=2))
    major = 2.0 * math.sqrt(eigval[1] * q)
    minor = 2.0 * math.sqrt(eigval[0] * q)
    return major, minor


def cycle_stats(scan: LabeledScan) -> CycleStats:
    """Per-cycle radar statistics over the scan's assigned detections."""
    d = scan.assigned
    if not d:
        raise EmptyScanError(f"scan at t={scan.timestamp} has no assigned detections")
    n = len(d)
    doppler_std = float(np.std(d.radial_velocity, ddof=1)) if n > 1 else 0.0
    conf_major = conf_minor = None
    if n >= 3:
        try:
            conf_major, conf_minor = confidence_ellipse(d.global_xy)
        except ValueError:
            pass  # collinear points: axes stay omitted
    mean_range = float(np.mean(d.range_m))
    return CycleStats(
        timestamp=scan.timestamp,
        n_assigned=n,
        mean_comp_power=float(np.mean(r4_compensate(d.amplitude, d.range_m))),
        doppler_std=doppler_std,
        conf_major=conf_major,
        conf_minor=conf_minor,
        weighted_count=n * (mean_range / WEIGHTED_COUNT_REF_RANGE) ** 2,
    )


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
    p = 2.0 * float(student_t.sf(abs(t_stat), df=dof))
    return TTestResult(t=t_stat, dof=dof, p_two_sided=p)


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
