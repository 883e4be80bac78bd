"""Command-line front end: simulate, annotate, evaluate, signature, track.

Commands exchange data through the versioned files described in `io`; every
command is deterministic given identical inputs and seed.  Exit codes:
0 success, 1 runtime failure, 2 usage or config error.  This module holds the
parser, the dispatch, the exit codes and what several commands share; each
command's handler is the `run` of its module in `vruradar.commands`, which
`main` imports only for the command it runs.
"""

from __future__ import annotations

import gc

# No cyclic collection runs while the parser and numpy load.  Then every object in the
# process, about 31,000 of them and nearly all long-lived, is frozen, so that no later
# collection walks them.  A frozen object is never collected: the few hundred objects of
# cyclic garbage that these imports leave stay until exit.
_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    import argparse
    import importlib
    import sys

    import numpy as np

    # Lazy modules (see __init__): a command loads only the layers whose attributes it reads.
    from . import io, simulator

    gc.freeze()
finally:
    if _gc_was_enabled:
        gc.enable()

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    pass


def _read_truth_traj(path, timestamps) -> np.ndarray:
    """The --truth-traj table.  A ConfigError names a scan time outside its span, where its
    first or last row would stand in for the truth."""
    truth = io.read_traj_csv(path)
    times = truth["timestamp"]
    if len(times):
        outside = (timestamps < times[0]) | (timestamps > times[-1])
        if outside.any():
            raise ConfigError(f"--truth-traj spans t={times[0]:.9f} to {times[-1]:.9f} s, "
                              f"not scan t={timestamps[outside.argmax()]:.9f}")
    return truth


def _nearest(times, timestamps) -> np.ndarray:
    """Index of the time closest to each timestamp; the earlier one on a tie."""
    times, timestamps = np.asarray(times, dtype=float), np.asarray(timestamps, dtype=float)
    if len(times) < 2:
        if not len(times):
            raise ValueError("no states to match the timestamps with")
        return np.zeros(len(timestamps), dtype=np.int64)
    after = np.clip(np.searchsorted(times, timestamps), 1, len(times) - 1)
    return after - (timestamps - times[after - 1] <= times[after] - timestamps)


class _PresetNames:
    """`simulator.PRESET_NAMES`, read only when a --preset value is checked or shown."""

    def __contains__(self, name) -> bool:
        return name in simulator.PRESET_NAMES

    def __iter__(self):
        return iter(simulator.PRESET_NAMES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vruradar",
        description="Radar-to-trajectory annotation, signatures, evaluation, and tracking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scenario")
    scene = p.add_mutually_exclusive_group()
    scene.add_argument("--config", help="JSON scenario config")
    scene.add_argument("--preset", choices=_PresetNames(), metavar="NAME",
                       help="named scenario preset: %(choices)s")
    p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("annotate", help="assign radar detections to the reference track")
    p.add_argument("--scenario", required=True, help="scenario.json manifest")
    p.add_argument("--radar", required=True)
    p.add_argument("--gnss", required=True)
    p.add_argument("--imu", default=None)
    p.add_argument("--mode", choices=("gnss-only", "gnss-imu"), default="gnss-imu")
    p.add_argument("--out", required=True, help="labeled.jsonl output path")

    p = sub.add_parser("evaluate", help="score labeled scans and export statistics")
    p.add_argument("--labeled", required=True)
    p.add_argument("--truth-labels", required=True)
    p.add_argument("--compare", default=None, help="second labeled.jsonl for t-tests")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("signature", help="accumulate an object-centered signature grid")
    p.add_argument("--labeled", required=True)
    p.add_argument("--truth-traj", default=None, help="center on the truth trajectory instead")
    p.add_argument("--resolution", type=float, default=0.05)
    p.add_argument("--half-extent-x", type=float, default=2.5)
    p.add_argument("--half-extent-y", type=float, default=1.5)
    p.add_argument("--out", required=True, help="output path prefix (.pgm/.csv appended)")

    p = sub.add_parser("track", help="run the extended-object tracker over labeled scans")
    p.add_argument("--labeled", required=True)
    p.add_argument("--scenario", required=True, help="scenario.json manifest")
    p.add_argument("--truth-traj", default=None, help="enables the error series output")
    p.add_argument("--use-doppler", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return importlib.import_module(f"{__package__}.commands.{args.command}").run(args)
    except ValueError as exc:  # ConfigError and io.SchemaError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
