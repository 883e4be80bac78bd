"""Smoke test of the benchmark itself: one short run of each workload.

    python3 perfbench/smoke.py

For every workload in run.py it makes one untraced and two traced runs of
one pipeline each, and checks that

- each run exits 0 and its last line holds exactly correct, attempted,
  failed and metrics, with every output check passed;
- every end-to-end and per-layer metric named in BENCHMARK.json is emitted
  with its unit, and no other;
- every count repeats exactly across the two traced runs;
- the per-layer self times add up to the traced commands' wall time.

Exits 1 with a list of problems if any check fails.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

from run import LAYERS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SELF_TIMES = ("cli.import_s", "cli.self_s", *(f"{layer}.self_s" for layer in LAYERS))


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        results = {0: run(workload, 0), 1: run(workload, 1), 2: run(workload, 1)}
        for key, res in results.items():
            where = f"{workload} run {key}"
            if set(res) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(res)}")
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                problems.append(f"{where}: correct={res['correct']} failed={res['failed']}")
            units = {name: m["unit"] for name, m in res["metrics"].items()}
            if units != expected[min(key, 1)]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units.items()) ^ set(expected[min(key, 1)].items()))}")
        first, second = results[1]["metrics"], results[2]["metrics"]
        for name, unit in expected[1].items():
            if unit == "count" and first.get(name) != second.get(name):
                problems.append(f"{workload}: count {name} differs: {first.get(name)} vs "
                                f"{second.get(name)}")
        selves = sum(first[name]["value"] for name in SELF_TIMES)
        if not math.isclose(selves, first["trace.commands_s"]["value"], rel_tol=1e-9):
            problems.append(f"{workload}: self times sum to {selves}, commands took "
                            f"{first['trace.commands_s']['value']}")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
