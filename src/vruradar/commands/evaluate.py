"""`vruradar evaluate`: scores, cycle statistics and histograms of a labeled file, and
Welch t-tests against a second one."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .. import evaluation, io
from ..cli import EXIT_OK
from ..core import table


def _write_histogram_csv(path, values) -> None:
    hist = evaluation.histogram(values, 0.05, (0.0, values.max() + 1e-9))
    io.write_table(path, "vruradar.histogram.v1", table(
        ("bin_left", "bin_right", "count"), (hist.edges[:-1], hist.edges[1:], hist.counts)))


def run(args) -> int:
    labeled = io.read_labeled_jsonl(args.labeled)
    truth = io.read_truth_labels_jsonl(args.truth_labels)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scores = [(name, *dataclasses.astuple(score))
              for name, score in evaluation.score_assignment(labeled, truth).items()]
    io.write_table(out / "scores.csv", "vruradar.scores.v1", table(
        ("averaging", "tp", "fp", "fn", "precision", "recall"), list(zip(*scores))))
    stats = evaluation.cycle_stats(labeled)
    # An undefined confidence ellipse is NaN in memory and an empty field on file.
    io.write_table(out / "cycle_stats.csv", "vruradar.cycle-stats.v1",
                   io.with_missing(stats, "conf_major", "conf_minor"))
    for name in ("conf_minor", "doppler_std"):
        values = stats[name][~np.isnan(stats[name])]
        if len(values):
            _write_histogram_csv(out / f"hist_{name}.csv", values)
    if args.compare is not None:
        other_stats = evaluation.cycle_stats(io.read_labeled_jsonl(args.compare))
        rows = []
        for name in evaluation.CYCLE_COLUMNS[2:]:
            a, b = (s[name][~np.isnan(s[name])] for s in (stats, other_stats))
            if len(a) >= 2 and len(b) >= 2:
                res = evaluation.welch_t_test(a, b)
                rows.append((name, res.t, res.dof, res.p_two_sided))
        columns = ("statistic", "t", "dof", "p_two_sided")
        io.write_table(out / "ttests.csv", "vruradar.ttests.v1",
                       table(columns, list(zip(*rows)) or [[]] * len(columns)))
    report = {"scans": len(labeled), "cycles_with_detections": len(stats)}
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK
