"""Run one vruradar command with spans around each layer's public functions.

    PERFBENCH_SPAWN_T=<t> python3 perfbench/tracer.py SPANS_PATH <command> [args...]

`run.py --trace 1` starts this in place of the plain CLI.  It imports
`vruradar.cli`, wraps the functions listed in TRACED so that every call
records a span (name, start, end, parent) in memory, runs the command, and at
exit writes the spans and the counts taken from return values to
SPANS_PATH as JSON.  Nothing in the package is modified on disk.

Times come from `time.perf_counter`, which on Linux reads CLOCK_MONOTONIC and
is shared by all processes, so the `cli.import` span can start at the
parent's spawn time, PERFBENCH_SPAWN_T; it covers interpreter start-up and
the import of `vruradar.cli`.
"""

import functools
import json
import os
import sys
import time

# Layer module -> functions that get a span.  Only per-run or per-scan calls
# are listed, so that the wrappers add little time; helpers they call count
# towards the caller's self time.
TRACED = {
    "simulator": ("simulate_scenario",),
    "trajectory": ("build_fused_trajectory", "fuse_gnss_imu", "build_trajectory"),
    "annotation": ("annotate_scenario",),
    "evaluation": ("score_assignment", "cycle_stats", "welch_t_test", "histogram"),
    "signature": ("accumulate", "grid_stats", "write_pgm", "write_grid_csv"),
    "eot": ("run_tracker", "tracking_metrics"),
    "io": None,  # every public reader and writer
}

# Functions whose calls are counted without a span.
COUNTED = {("eot", "update"): "eot.updates"}


# Span name -> counts taken from (positional arguments, return value).
RESULT_COUNTS = {
    "simulator.simulate_scenario": lambda args, r: {
        "simulator.scans": len(r.scans),
        "simulator.detections": sum(len(s.detections) for s in r.scans),
        "simulator.imu_samples": len(r.imu),
        "simulator.gnss_samples": len(r.gnss),
    },
    "annotation.annotate_scenario": lambda args, r: {
        "annotation.assigned": sum(len(s.assigned) for s in r.scans),
        "annotation.rejected": sum(len(s.rejected) for s in r.scans),
        "annotation.skipped_scans": r.skipped,
    },
    "signature.accumulate": lambda args, r: {
        "signature.points": r.total,
        "signature.overflow": r.overflow,
    },
    "eot.run_tracker": lambda args, r: {"eot.scans": len(args[0])},
}


class Tracer:
    """In-memory spans of one process; parents are indices into `spans`, -1 for the root."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def add(self, counts: dict) -> None:
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0) + value

    def span(self, name: str, fn):
        result_counts = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if result_counts is not None:
                self.add(result_counts(args, result))
            return result

        return traced

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.add({name: 1})
            return fn(*args, **kwargs)

        return counted

    def instrument(self, cli) -> None:
        """Replace the listed functions in their modules and in the CLI's namespace."""
        replaced = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"vruradar.{layer}"]
            if names is None:
                names = [n for n in vars(module) if n.startswith(("read_", "write_"))]
            for fname in names:
                fn = getattr(module, fname)
                replaced[fn] = self.span(f"{layer}.{fname}", fn)
                setattr(module, fname, replaced[fn])
        for (layer, fname), name in COUNTED.items():
            module = sys.modules[f"vruradar.{layer}"]
            setattr(module, fname, self.counter(name, getattr(module, fname)))
        for attr, value in list(vars(cli).items()):
            if callable(value) and value in replaced:
                setattr(cli, attr, replaced[value])


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    spawn_t = float(os.environ["PERFBENCH_SPAWN_T"])
    tracer = Tracer()
    try:
        import vruradar.cli as cli

        tracer.spans.append(["cli.import", spawn_t, time.perf_counter(), -1])
        tracer.instrument(cli)
        return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
