"""End-to-end benchmark of the vruradar command-line pipeline.

Each workload simulates one drive and runs the real CLI on it: one process
per command, started one after another from this script.  That is a closed
loop with one client and at most one child process at a time; the children
run with BLAS pinned to one thread.

    python3 perfbench/run.py --workload nominal-drive --seed 202 --seconds 41 --trace 0
    python3 perfbench/run.py --workload all --seconds 41

`--trace 0` repeats the untraced pipeline for `--seconds` and reports the
end-to-end metrics as medians over pipelines, in host-normalised seconds:
probe.py runs before every command, and each pipeline's times are scaled by
PROBE_REF_S over the mean of its probes.  `--trace 1` alternates
untraced and traced pipelines (see tracer.py) and reports per-layer self
times and counts from the traced pipeline with the median wall time.
Outputs are checked after each pipeline, outside its timed region.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it are a readable report.  Spans and a full
result record are written under `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
TRACER = Path(__file__).resolve().parent / "tracer.py"
PROBE = Path(__file__).resolve().parent / "probe.py"
# The probe's typical time on the host the benchmark was written on (2 vCPUs
# of a shared x86-64 VM, Python 3.11); end-to-end times are given as if every
# pipeline had seen that host speed.
PROBE_REF_S = 0.30
# An untraced command writes to stderr when its import of vruradar.cli ended,
# for set-up time.
IMPORTED = "perfbench.imported"
CLI_MAIN = ("import sys, time; from vruradar.cli import main; "
            f"print('{IMPORTED}', repr(time.perf_counter()), file=sys.stderr, flush=True); "
            "sys.exit(main())")
BLAS_THREADS = "1"
MIN_PRECISION_RECALL = 0.98


@dataclass(frozen=True)
class Workload:
    why: str
    scenario: dict  # `simulate --config` content, without the seed
    default_seed: int
    modes: tuple[str, ...]  # annotate modes; the first feeds evaluate, signature and track
    signature_truth: bool
    track_doppler: bool


# Each drive is a third as long as the scene it stands for (the presets run
# 60 s), so that one run fits two or three pipelines; see perfbench/README.md.
WORKLOADS = {
    "nominal-drive": Workload(
        why="paper reference scene: CLI start-up dominates, so start-up changes show most",
        scenario={"preset": "cyclist-nominal", "duration": 20.0},
        default_seed=202,
        modes=("gnss-imu",),
        signature_truth=False,
        track_doppler=True,
    ),
    "clutter-dense": Workload(
        why="75% clutter points: per-detection work (draws, frame chain, JSONL, scoring) dominates",
        scenario={"preset": "pedestrian-nominal", "duration": 20.0, "clutter_rate": 40.0},
        default_seed=101,
        modes=("gnss-imu",),
        signature_truth=False,
        track_doppler=True,
    ),
    "sparse-long": Workload(
        why="long sparse drive: per-scan and per-sample layers dominate; both annotate modes",
        scenario={"preset": "cyclist-perturbed", "duration": 60.0, "clutter_rate": 0.0,
                  "lambda0": 2.0},
        default_seed=0,
        modes=("gnss-imu", "gnss-only"),
        signature_truth=True,
        track_doppler=False,
    ),
}

COMMANDS = ("simulate", "annotate", "evaluate", "signature", "track")

# name -> unit, in report order
END_TO_END = {
    "pipeline_s": "s",
    "det_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ("simulator", "trajectory", "annotation", "evaluation", "signature", "eot", "io")
# Each command's wall time is here rather than end to end: a run holds only
# two or three of each, too few for a median that repeats within 0.25.
PER_LAYER = {
    **{f"{c}_s": "s" for c in COMMANDS},
    "cli.import_s": "s",
    "cli.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "simulator.simulate_scenario_s": "s",
    "simulator.det_per_s": "1/s",
    "simulator.scans": "count",
    "simulator.detections": "count",
    "simulator.imu_samples": "count",
    "simulator.gnss_samples": "count",
    "trajectory.build_fused_trajectory_s": "s",
    "trajectory.fuse_gnss_imu_s": "s",
    "annotation.annotate_scenario_s": "s",
    "annotation.det_per_s": "1/s",
    "annotation.assigned": "count",
    "annotation.rejected": "count",
    "annotation.skipped_scans": "count",
    "annotation.assigned_ratio": "ratio",
    "evaluation.score_assignment_s": "s",
    "evaluation.cycle_stats_s": "s",
    "evaluation.cycle_stats_calls": "count",
    "signature.accumulate_s": "s",
    "signature.write_s": "s",
    "signature.points": "count",
    "signature.overflow": "count",
    "eot.run_tracker_s": "s",
    "eot.tracking_metrics_s": "s",
    "eot.updates": "count",
    "eot.scans_per_s": "1/s",
    "io.read_labeled_jsonl_s": "s",
    "io.read_labeled_jsonl_calls": "count",
    "io.write_labeled_jsonl_s": "s",
    "io.read_radar_jsonl_s": "s",
    "io.write_radar_jsonl_s": "s",
    "io.read_truth_labels_jsonl_s": "s",
    "io.write_truth_labels_jsonl_s": "s",
    "io.csv_s": "s",
    "io.bytes_written": "byte",
    "trace.commands_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Tally:
    """Command invocations and output checks: attempted, and the names of those that failed."""

    attempted: int = 0
    failed: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(name)
        return ok


@dataclass
class Invocation:
    command: str
    start: float
    end: float
    maxrss_kb: int
    stdout: str
    imported: float | None = None  # untraced runs: when `import vruradar.cli` ended
    spans: list | None = None  # traced runs: [name, start, end, parent index]
    counts: dict | None = None

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Pipeline:
    invocations: list[Invocation]
    digest: str
    bytes_written: int
    probes: list[float]  # untraced runs: probe.py's wall time before each command

    @property
    def wall(self) -> float:
        """The commands' wall times, summed: the pipeline run back to back, without probes."""
        return sum(i.wall for i in self.invocations)

    def command_s(self, command: str) -> float:
        return sum(i.wall for i in self.invocations if i.command == command)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(argv: list[str], env: dict, log: Path) -> tuple[int, float, float, int]:
    """Run one child to completion; return (exit code, start, end, max RSS in KiB)."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        env["PERFBENCH_SPAWN_T"] = repr(start)
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        end = time.perf_counter()
    return os.waitstatus_to_exitcode(status), start, end, usage.ru_maxrss


def probe(env: dict, logs: Path) -> float:
    """Wall time of one run of probe.py in a fresh interpreter."""
    code, start, end, _ = spawn([sys.executable, str(PROBE)], env, logs / "probe")
    if code != 0:
        err = (logs / "probe.err").read_text(errors="replace")
        raise SystemExit(f"perfbench: the host probe failed:\n{err}")
    return end - start


def command_lines(w: Workload, cfg: Path, out: Path) -> list[tuple[str, list[str]]]:
    labeled = [out / f"labeled-{mode}.jsonl" for mode in w.modes]
    cmds = [("simulate", ["--config", cfg, "--out", out])]
    for mode, path in zip(w.modes, labeled):
        cmds.append(("annotate", ["--scenario", out / "scenario.json", "--radar", out / "radar.jsonl",
                                  "--gnss", out / "gnss.csv", "--imu", out / "imu.csv",
                                  "--mode", mode, "--out", path]))
    evaluate = ["--labeled", labeled[0], "--truth-labels", out / "truth_labels.jsonl",
                "--out", out / "eval"]
    if len(labeled) > 1:
        evaluate += ["--compare", labeled[1]]
    signature = ["--labeled", labeled[0], "--out", out / "sig"]
    if w.signature_truth:
        signature += ["--truth-traj", out / "truth_traj.csv"]
    track = ["--labeled", labeled[0], "--scenario", out / "scenario.json",
             "--truth-traj", out / "truth_traj.csv", "--out", out / "trk"]
    if w.track_doppler:
        track.append("--use-doppler")
    cmds += [("evaluate", evaluate), ("signature", signature), ("track", track)]
    return [(name, [str(a) for a in args]) for name, args in cmds]


def tree_digest(out: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        h.update(str(path.relative_to(out)).encode() + b"\0" + data)
    return h.hexdigest(), size


def run_pipeline(w: Workload, cfg: Path, workdir: Path, env: dict, traced: bool,
                 tally: Tally) -> Pipeline | None:
    """Run the workload's commands in order, writing under `workdir`; None if one fails.

    Untraced, the host probe runs before each command.
    """
    out, logs = workdir / "out", workdir / "log"
    out.mkdir(parents=True)
    logs.mkdir()
    invocations, probes = [], []
    for k, (command, args) in enumerate(command_lines(w, cfg, out)):
        log = logs / f"{k}-{command}"
        if traced:
            argv = [sys.executable, str(TRACER), str(log.with_suffix(".spans")), command, *args]
        else:
            argv = [sys.executable, "-c", CLI_MAIN, command, *args]
            probes.append(probe(env, logs))
        code, start, end, rss = spawn(argv, env, log)
        if not tally.check(f"{command} exit code", code == 0):
            err = log.with_suffix(".err").read_text(errors="replace").strip()
            print(f"# {command} exited {code}: {err[-400:]}", file=sys.stderr)
            return None
        inv = Invocation(command, start, end, rss, log.with_suffix(".out").read_text())
        if not traced:
            marks = [line.split()[1] for line in log.with_suffix(".err").read_text().splitlines()
                     if line.startswith(IMPORTED + " ")]
            inv.imported = float(marks[0])
        else:
            record = json.loads(log.with_suffix(".spans").read_text())
            inv.spans, inv.counts = record["spans"], record["counts"]
        invocations.append(inv)
    digest, size = tree_digest(out)
    return Pipeline(invocations, digest, size, probes)


# --- output checks ------------------------------------------------------------

def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        next(fh)  # format line
        return [json.loads(line) for line in fh if line.strip()]


def count_records(path: Path, header_lines: int) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - header_lines


def score(scans: list[dict], is_vru: dict) -> dict:
    """Micro and macro precision/recall of labeled scans, counted independently of evaluate."""
    per_scan = []
    for s in scans:
        tp = sum(is_vru[(s["t"], d["idx"])] for d in s["assigned"])
        fn = sum(is_vru[(s["t"], d["idx"])] for d in s["rejected"])
        per_scan.append((tp, len(s["assigned"]) - tp, fn))
    tp, fp, fn = (sum(c[i] for c in per_scan) for i in range(3))
    precisions = [t / (t + f) for t, f, _ in per_scan if t + f > 0]
    recalls = [t / (t + m) for t, _, m in per_scan if t + m > 0]
    return {
        "micro": (tp, fp, fn, tp / (tp + fp), tp / (tp + fn)),
        "macro": (tp, fp, fn, sum(precisions) / len(precisions), sum(recalls) / len(recalls)),
    }


def read_scores_csv(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh][2:]
    return {r[0]: (int(r[1]), int(r[2]), int(r[3]), float(r[4]), float(r[5])) for r in rows}


def same_score(a: tuple, b: tuple) -> bool:
    return a[:3] == b[:3] and abs(a[3] - b[3]) <= 1e-12 and abs(a[4] - b[4]) <= 1e-12


def check_outputs(w: Workload, p: Pipeline, out: Path, tally: Tally) -> None:
    """Check one pipeline's files against the drive, independently of the program's own reports."""
    n_scans = count_records(out / "radar.jsonl", 1)
    is_vru = {(r["t"], r["idx"]): r["label"] == "vru" for r in read_jsonl(out / "truth_labels.jsonl")}
    labeled = {mode: read_jsonl(out / f"labeled-{mode}.jsonl") for mode in w.modes}
    annotations = [i for i in p.invocations if i.command == "annotate"]
    for (mode, scans), inv in zip(labeled.items(), annotations):
        skipped = json.loads(inv.stdout)["skipped_scans"]
        tally.check(f"{mode}: labeled plus skipped scans equal simulated scans",
                    len(scans) + skipped == n_scans)
    with_points = sum(1 for s in labeled[w.modes[0]] if s["assigned"])
    tally.check("track has one row per scan with assigned points",
                count_records(out / "trk" / "track.csv", 2) == with_points)
    scores = {mode: score(scans, is_vru) for mode, scans in labeled.items()}
    fused = scores[w.modes[0]]
    reported = read_scores_csv(out / "eval" / "scores.csv")
    tally.check("evaluate scores match an independent count",
                all(same_score(reported[k], fused[k]) for k in ("micro", "macro")))
    _, _, _, precision, recall = fused["macro"]
    tally.check(f"macro precision >= {MIN_PRECISION_RECALL}", precision >= MIN_PRECISION_RECALL)
    if len(w.modes) == 1:
        tally.check(f"macro recall >= {MIN_PRECISION_RECALL}", recall >= MIN_PRECISION_RECALL)
    else:
        tally.check(f"{w.modes[0]} macro recall above {w.modes[1]}",
                    recall > scores[w.modes[1]]["macro"][4])


# --- metrics -----------------------------------------------------------------

def host_factor(p: Pipeline) -> float:
    """Scale that turns a pipeline's wall times into host-normalised seconds.

    A pipeline's time adds up the host's speed over its commands, so the
    probes taken between them are averaged, not their median taken.
    """
    return PROBE_REF_S / statistics.fmean(p.probes)


def setup_times(p: Pipeline) -> list[float]:
    """Each command's start-up: from its spawn until its import of vruradar.cli ended."""
    return [i.imported - i.start for i in p.invocations]


def end_to_end(pipes: list[Pipeline]) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count).  Times are host-normalised."""
    med = statistics.median
    setup = [host_factor(p) * t for p in pipes for t in setup_times(p)]
    detections = json.loads(pipes[0].invocations[0].stdout)["radar_points"]
    m = {"pipeline_s": (med(host_factor(p) * p.wall for p in pipes), len(pipes))}
    m["det_per_s"] = (detections / m["pipeline_s"][0], len(pipes))
    m["setup_s"] = (med(setup), len(setup))
    rss = [i.maxrss_kb for p in pipes for i in p.invocations]
    m["peak_rss_mb"] = (max(rss) / 1024.0, len(rss))
    return m


def self_times(p: Pipeline, tally: Tally) -> tuple[dict, dict, list]:
    """Per span name: summed self time and call count; and the spans as flat records.

    Each command's root span, `cli.<command>`, runs from spawn to exit as seen
    by run.py; the child's spans hang below it.  Self time is a span's
    duration minus that of its direct children.
    """
    self_s, calls, records = {}, {}, []
    nested = True
    for k, inv in enumerate(p.invocations):
        spans = [[f"cli.{inv.command}", inv.start, inv.end, -1]]
        spans += [[n, s, e, parent + 1] for n, s, e, parent in inv.spans]
        own = [e - s for _, s, e, _ in spans]
        for name, s, e, parent in spans[1:]:
            _, ps, pe, _ = spans[parent]
            nested &= ps <= s <= e <= pe
            own[parent] -= e - s
        for (name, s, e, parent), t in zip(spans, own):
            self_s[name] = self_s.get(name, 0.0) + t
            calls[name] = calls.get(name, 0) + 1
            records.append({"run": k, "name": name, "start": s, "end": e, "parent": parent})
    tally.check("traced spans nest within their parents", nested)
    return self_s, calls, records


def per_layer(p: Pipeline, untraced_wall: float, tally: Tally) -> tuple[dict, list]:
    self_s, calls, records = self_times(p, tally)
    counts = {}
    for inv in p.invocations:
        for name, value in inv.counts.items():
            counts[name] = counts.get(name, 0) + value

    def total(prefix: str, suffix: str = "") -> float:
        return sum(t for n, t in self_s.items() if n.startswith(prefix) and n.endswith(suffix))

    m = {"cli.import_s": self_s["cli.import"]}
    m["cli.self_s"] = total("cli.") - m["cli.import_s"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = total(f"{layer}.")
    for name in ("simulator.simulate_scenario", "trajectory.build_fused_trajectory",
                 "trajectory.fuse_gnss_imu", "annotation.annotate_scenario",
                 "evaluation.score_assignment", "evaluation.cycle_stats",
                 "signature.accumulate", "eot.run_tracker", "eot.tracking_metrics",
                 "io.read_labeled_jsonl", "io.write_labeled_jsonl", "io.read_radar_jsonl",
                 "io.write_radar_jsonl", "io.read_truth_labels_jsonl",
                 "io.write_truth_labels_jsonl"):
        m[f"{name}_s"] = self_s.get(name, 0.0)
    m["signature.write_s"] = total("signature.write_")
    m["io.csv_s"] = total("io.", "_csv")
    m.update(counts)
    m["simulator.det_per_s"] = counts["simulator.detections"] / m["simulator.simulate_scenario_s"]
    labeled = counts["annotation.assigned"] + counts["annotation.rejected"]
    m["annotation.det_per_s"] = labeled / m["annotation.annotate_scenario_s"]
    m["annotation.assigned_ratio"] = counts["annotation.assigned"] / labeled
    m["evaluation.cycle_stats_calls"] = calls.get("evaluation.cycle_stats", 0)
    m["eot.scans_per_s"] = m.pop("eot.scans") / m["eot.run_tracker_s"]
    m["io.read_labeled_jsonl_calls"] = calls.get("io.read_labeled_jsonl", 0)
    m["io.bytes_written"] = p.bytes_written
    m["trace.commands_s"] = sum(i.wall for i in p.invocations)
    m["trace.overhead_s"] = p.wall - untraced_wall
    return m, records


# --- runs -----------------------------------------------------------------------

def environment(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            sha = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "blas_threads": BLAS_THREADS,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; return its result record (see the module docstring)."""
    w = WORKLOADS[name]
    env = child_env()
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    plain: list[Pipeline] = []
    traced: list[Pipeline] = []
    reference = None  # output digest of the run's first pipeline
    cycles = []
    try:
        cfg = work / "scenario-config.json"
        cfg.write_text(json.dumps({**w.scenario, "seed": seed}), encoding="utf-8")
        deadline = time.perf_counter() + seconds
        ok = True
        while ok:
            began = time.perf_counter()
            for tracing in ((False, True) if trace else (False,)):
                pdir = work / f"p{len(plain) + len(traced)}"
                p = run_pipeline(w, cfg, pdir, env, tracing, tally)
                ok = p is not None
                if not ok:
                    break
                if reference is None:
                    reference = p.digest
                    check_outputs(w, p, pdir / "out", tally)
                else:
                    tally.check("output digest matches the run's first pipeline",
                                p.digest == reference)
                (traced if tracing else plain).append(p)
                shutil.rmtree(pdir)
            cycles.append(time.perf_counter() - began)
            if time.perf_counter() + statistics.median(cycles) > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"workload": name, "trace": int(trace), "env": environment(seed),
              "scenario": {**w.scenario, "seed": seed}, "pipelines": len(plain) + len(traced),
              "digest": reference}
    if reference is not None:
        for path in (STATE / "results").glob(f"{name}-seed{seed}-trace*.json"):
            earlier = json.loads(path.read_text(encoding="utf-8"))
            if (earlier.get("digest") and earlier["scenario"] == result["scenario"]
                    and earlier["env"]["src_sha256"] == result["env"]["src_sha256"]):
                tally.check(f"output digest matches {path.name}", earlier["digest"] == reference)
    metrics: dict[str, tuple[float, int]] = {}
    if trace and traced:
        chosen = sorted(traced, key=lambda p: p.wall)[(len(traced) - 1) // 2]
        layer, spans = per_layer(chosen, statistics.median(p.wall for p in plain), tally)
        metrics = {k: (layer[k], 1) for k in PER_LAYER if k in layer}
        for c in COMMANDS:  # from the untraced pipelines
            metrics[f"{c}_s"] = (statistics.median(p.command_s(c) for p in plain), len(plain))
        metrics = {k: metrics[k] for k in PER_LAYER}
        spans_path = STATE / "trace" / f"{name}-seed{seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text("".join(json.dumps(s) + "\n" for s in spans), encoding="utf-8")
    elif not trace and plain:
        metrics = end_to_end(plain)
    result.update(
        attempted=tally.attempted,
        failed=len(tally.failed),
        failed_checks=tally.failed,
        correct=not tally.failed and bool(metrics),
        metrics={k: {"value": v, "unit": (PER_LAYER if trace else END_TO_END)[k], "samples": n}
                 for k, (v, n) in metrics.items()},
        samples=[{"pipeline_s": p.wall, "traced": tracing,
                  **{f"{c}_s": p.command_s(c) for c in COMMANDS},
                  **({} if tracing else {"setup_s": setup_times(p), "probe_s": p.probes,
                                         "host_factor": host_factor(p)})}
                 for tracing, pipes in ((False, plain), (True, traced)) for p in pipes],
    )
    path = STATE / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def report(result: dict) -> None:
    print(f"# {result['workload']} seed={result['env']['seed']} trace={result['trace']}: "
          f"{result['pipelines']} pipelines, {result['attempted']} invocations and checks, "
          f"{result['failed']} failed, error_rate={result['failed'] / max(1, result['attempted'])}")
    for check in result["failed_checks"]:
        print(f"#   FAILED: {check}")
    factors = [s["host_factor"] for s in result["samples"] if "host_factor" in s]
    if factors:
        print(f"#   host factors by pipeline (probe.py {PROBE_REF_S} s / its mean time): "
              f"{', '.join(f'{f:.4f}' for f in factors)}")
    for name, m in result["metrics"].items():
        print(f"#   {name:38s} {m['value']:14.6f} {m['unit']:6s} n={m['samples']}")
    print(f"#   env {json.dumps(result['env'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=41.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vruradar" / "cli.py").is_file():
        print(f"perfbench: no vruradar sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
        results.append(run_workload(name, seed, args.seconds, bool(args.trace)))
        report(results[-1])
    prefix = len(names) > 1
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): {"value": m["value"], "unit": m["unit"]}
                    for r in results for k, m in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
