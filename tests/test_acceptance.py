"""Acceptance suite: one test per criterion, each printing a pass/fail line."""

import json
import math
from dataclasses import replace

import numpy as np
from scipy import stats as sps

from vruradar import eot, io
from vruradar.cli import main
from vruradar.core import GLOBAL, Pose
from vruradar.evaluation import (
    Averaging,
    confidence_ellipse,
    per_scan_counts,
    r4_compensate,
    score_assignment,
    score_from_counts,
    welch_t_test,
)
from vruradar.selection import cyclist_rectangle, pedestrian_ellipse
from vruradar.signature import accumulate, grid_stats
from vruradar.simulator import preset, simulate_scenario
from vruradar.trajectory import TrajectoryState

from conftest import truth_assigned_scans


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def _state(v, w):
    return TrajectoryState(0.0, Pose(0.0, 0.0, 0.0, frame=GLOBAL), v, w)


def test_criterion_01_selection_shape_exactness():
    checks = []
    # branch boundary, both sides of v = 0.05 m/s
    e = pedestrian_ellipse(_state(0.05, 0.1))
    checks.append(e.ax_major == 1.5 + 0.05 and e.ax_minor == 1.2 + 0.5)
    e = pedestrian_ellipse(_state(0.04999999, 0.1))
    checks.append(e.ax_major == 1.5 and e.ax_minor == 1.5)
    # saturation: |v| >= 1 m/s and |yaw rate| >= 0.2 rad/s cap both terms at +1 m
    e = pedestrian_ellipse(_state(1.0, 0.2))
    checks.append(e.ax_major == 2.5 and e.ax_minor == 2.2)
    e = pedestrian_ellipse(_state(4.0, 1.5))
    checks.append(e.ax_major == 2.5 and e.ax_minor == 2.2)
    r = cyclist_rectangle(_state(3.0, 0.2), 0.0)
    checks.append(r.length == 2.5 and r.width == 2.2)
    r = cyclist_rectangle(_state(3.0, 0.06), 0.0)
    checks.append(r.length == 2.5 and r.width == 1.2 + 0.3)
    r = cyclist_rectangle(_state(0.04, 0.0), 0.77)
    checks.append(r.orientation == 0.77)
    _report(1, "selection shapes match the printed rules exactly", all(checks))


def test_criterion_02_nominal_association_quality(pedestrian_run, cyclist_run):
    counts = per_scan_counts(pedestrian_run.fused.scans, pedestrian_run.truth)
    counts += per_scan_counts(cyclist_run.fused.scans, cyclist_run.truth)
    score = score_from_counts(counts, Averaging.MACRO)
    elapsed = pedestrian_run.elapsed + cyclist_run.elapsed
    ok = (
        len(counts) >= 2000
        and score.precision >= 0.98
        and score.recall >= 0.98
        and elapsed <= 30.0
    )
    _report(
        2, "nominal macro precision/recall >= 0.98 on presets 1+2", ok,
        f"n={len(counts)} P={score.precision:.4f} R={score.recall:.4f} t={elapsed:.1f}s",
    )


def test_criterion_03_perturbation_robustness_ordering(perturbed_runs):
    deltas, precisions = [], []
    for run in perturbed_runs:
        s_imu = score_assignment(run.fused.scans, run.truth, Averaging.MACRO)
        s_gnss = score_assignment(run.gnss_only.scans, run.truth, Averaging.MACRO)
        deltas.append(s_imu.recall - s_gnss.recall)
        precisions.append(s_imu.precision)
    ok = all(d >= 0.05 for d in deltas) and all(p >= 0.98 for p in precisions)
    _report(
        3, "GNSS+IMU beats GNSS-only under perturbation on all 5 seeds", ok,
        f"min dR={min(deltas):.3f} min P={min(precisions):.4f}",
    )


def test_criterion_04_bounding_ellipse_invariant(pedestrian_run, cyclist_run, perturbed_runs):
    all_scans = list(pedestrian_run.fused.scans) + list(cyclist_run.fused.scans)
    for run in perturbed_runs:
        all_scans.extend(run.fused.scans)
        all_scans.extend(run.gnss_only.scans)
    checked = 0
    worst = 0.0
    for scan in all_scans:
        if scan.bounding is None:
            continue
        b = scan.bounding
        c, s = math.cos(b.orientation), math.sin(b.orientation)
        dx, dy = (scan.assigned.global_xy - b.center).T
        u, v = c * dx + s * dy, -s * dx + c * dy
        val = (u / (b.ax_major / 2)) ** 2 + (v / (b.ax_minor / 2)) ** 2
        worst = max(worst, float(val.max()))
        checked += len(scan.assigned)
    ok = checked > 10000 and worst <= 1.0 + 1e-9
    _report(4, "bounding ellipse covers 100% of assigned points", ok,
            f"points={checked} worst={worst:.12f}")


def test_criterion_05_signature_geometry(pedestrian_run, cyclist_run):
    ped_grid = accumulate(pedestrian_run.fused.scans)
    ped_stats = grid_stats(ped_grid)
    peak_dist = math.hypot(*ped_stats.peak_cell)
    cyc_grid = accumulate(cyclist_run.fused.scans)
    cyc_stats = grid_stats(cyc_grid)
    axis_deg = abs(math.degrees(cyc_stats.orientation))
    ped_ratio = ped_stats.principal_axes[0] / ped_stats.principal_axes[1]
    cyc_ratio = cyc_stats.principal_axes[0] / cyc_stats.principal_axes[1]
    ok = peak_dist <= 0.25 and axis_deg <= 15.0 and ped_ratio < cyc_ratio
    _report(
        5, "signature grids: pedestrian peak near origin, cyclist elongated along x", ok,
        f"peak@{peak_dist:.3f}m axis@{axis_deg:.1f}deg ratios {ped_ratio:.2f}<{cyc_ratio:.2f}",
    )


def test_criterion_06_confidence_ellipse_calibration():
    rng = np.random.default_rng(2024)
    cov = np.array([[2.0, 0.6], [0.6, 0.8]])
    pts = rng.multivariate_normal([3.0, -1.0], cov, 10000)
    major, minor = confidence_ellipse(pts, level=0.95)
    mean = pts.mean(axis=0)
    sample_cov = np.cov(pts, rowvar=False, ddof=1)
    eigval, eigvec = np.linalg.eigh(sample_cov)
    proj = (pts - mean) @ eigvec
    val = (proj[:, 1] / (major / 2)) ** 2 + (proj[:, 0] / (minor / 2)) ** 2
    frac = float(np.mean(val <= 1.0))
    ok = 0.94 <= frac <= 0.96
    _report(6, "95% confidence ellipse contains ~95% of samples", ok, f"coverage={frac:.4f}")


def test_criterion_07_rmm_filter_properties():
    rng = np.random.default_rng(7)
    params = eot.TrackerParams()
    # 10^4-step randomized soak keeps the extent SPD
    track = eot.initialize_track(rng.normal(0, 0.3, (6, 2)), 0.0, params)
    spd_ok = True
    for _ in range(10000):
        track = eot.predict(track, float(rng.uniform(0.01, 0.4)), params)
        pts = track.position + rng.normal(0, 0.5, (int(rng.integers(1, 12)), 2))
        track = eot.update(track, pts, params)
        if np.linalg.eigvalsh(track.extent)[0] <= 0.0:
            spd_ok = False
            break
    # noise-free constant-turn flow property
    noiseless = replace(
        params, q_pos=0.0, q_speed=0.0, q_heading=0.0, q_yaw_rate=0.0, dof_retain_per_s=1.0
    )
    semigroup_worst = 0.0
    for _ in range(200):
        tr = eot.RmmTrack(
            kin=np.array([
                rng.normal(0, 5), rng.normal(0, 5), rng.uniform(0, 5),
                rng.uniform(-3, 3), rng.uniform(-1.5, 1.5),
            ]),
            cov=np.eye(5) * 0.1,
            extent=np.diag(rng.uniform(0.05, 1.0, 2)),
            dof=10.0,
            timestamp=0.0,
        )
        a, b = rng.uniform(0.01, 2.0, 2)
        t1 = eot.predict(eot.predict(tr, float(a), noiseless), float(b), noiseless)
        t2 = eot.predict(tr, float(a + b), noiseless)
        semigroup_worst = max(semigroup_worst, float(np.max(np.abs(t1.kin - t2.kin))))
    # extract -> reconstruct round trip
    roundtrip_worst = 0.0
    for _ in range(200):
        m = rng.normal(0, 1, (2, 2))
        x = m @ m.T + 0.05 * np.eye(2)
        tr = eot.RmmTrack(kin=np.zeros(5), cov=np.eye(5), extent=x, dof=8.0, timestamp=0.0)
        e = eot.extract_extent(tr, 1.0)
        c, s = math.cos(e.orientation), math.sin(e.orientation)
        rot = np.array([[c, -s], [s, c]])
        rebuilt = rot @ np.diag([(e.length / 2) ** 2, (e.width / 2) ** 2]) @ rot.T
        roundtrip_worst = max(roundtrip_worst, float(np.max(np.abs(rebuilt - x))))
    ok = spd_ok and semigroup_worst < 1e-9 and roundtrip_worst < 1e-9
    _report(
        7, "RMM: SPD soak, constant-turn semigroup, extent round trip", ok,
        f"semigroup={semigroup_worst:.2e} roundtrip={roundtrip_worst:.2e}",
    )


def test_criterion_08_doppler_benefit():
    rms = {True: [], False: []}
    for seed in range(10):
        data = simulate_scenario(preset("cyclist-nominal", seed=seed))
        scans = truth_assigned_scans(data)
        for use_doppler in (True, False):
            points = eot.run_tracker(scans, eot.TrackerParams(), use_doppler=use_doppler)
            errs = [
                (p.x - data.course.state_at(p.timestamp).pose.x) ** 2
                + (p.y - data.course.state_at(p.timestamp).pose.y) ** 2
                for p in points
            ]
            rms[use_doppler].append(float(np.sqrt(np.mean(errs))))
    wins = sum(d < n for d, n in zip(rms[True], rms[False]))
    mean_d, mean_n = float(np.mean(rms[True])), float(np.mean(rms[False]))
    ok = mean_d <= mean_n and wins >= 8
    _report(
        8, "Doppler updates reduce centroid RMSE (10 seeds)", ok,
        f"mean {mean_d:.3f} vs {mean_n:.3f}, wins {wins}/10",
    )


def test_criterion_09_statistical_toolkit(pedestrian_run):
    rng = np.random.default_rng(99)
    worst_t = worst_p = 0.0
    for _ in range(100):
        a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), int(rng.integers(2, 50)))
        b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), int(rng.integers(2, 50)))
        mine = welch_t_test(a, b)
        ref = sps.ttest_ind(a, b, equal_var=False)
        worst_t = max(worst_t, abs(mine.t - float(ref.statistic)))
        worst_p = max(worst_p, abs(mine.p_two_sided - float(ref.pvalue)))
    assigned = [scan.assigned for scan in pedestrian_run.fused.scans]
    ranges = np.concatenate([d.range_m for d in assigned])
    comp = r4_compensate(np.concatenate([d.amplitude for d in assigned]), ranges)
    slope = float(np.polyfit(ranges, comp, 1)[0])
    ok = worst_t < 1e-9 and worst_p < 1e-6 and abs(slope) < 0.05
    _report(
        9, "Welch test matches oracle; R^4 compensation flattens range trend", ok,
        f"dt={worst_t:.1e} dp={worst_p:.1e} slope={slope:.4f} dB/m",
    )


def test_criterion_10_full_pipeline_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps({"preset": "cyclist-nominal", "seed": 31, "duration": 20.0}),
        encoding="utf-8",
    )
    digests = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        assert main(["simulate", "--config", str(cfg_path), "--out", str(root)]) == 0
        labeled = root / "labeled.jsonl"
        assert main([
            "annotate", "--scenario", str(root / "scenario.json"),
            "--radar", str(root / "radar.jsonl"),
            "--gnss", str(root / "gnss.csv"),
            "--imu", str(root / "imu.csv"),
            "--mode", "gnss-imu", "--out", str(labeled),
        ]) == 0
        assert main([
            "evaluate", "--labeled", str(labeled),
            "--truth-labels", str(root / "truth_labels.jsonl"),
            "--out", str(root / "eval"),
        ]) == 0
        assert main([
            "signature", "--labeled", str(labeled), "--out", str(root / "sig"),
        ]) == 0
        assert main([
            "track", "--labeled", str(labeled),
            "--scenario", str(root / "scenario.json"),
            "--truth-traj", str(root / "truth_traj.csv"),
            "--use-doppler", "--out", str(root / "trk"),
        ]) == 0
        blob = b""
        for f in sorted(root.rglob("*")):
            if f.is_file():
                blob += f.relative_to(root).as_posix().encode() + b"\0" + f.read_bytes()
        digests.append(blob)
    ok = digests[0] == digests[1]
    _report(10, "full pipeline is byte-identical under a fixed seed", ok)
