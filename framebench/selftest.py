"""Fast self-test of the benchmark on a tiny run length.

    python3 framebench/selftest.py

Runs every workload of ``BENCHMARK.json`` with ``--quick`` (4-frame
segments): once untraced and twice traced, all with the same seed.  It
fails (exit 1) unless

* every run exits 0 and reports ``correct``;
* the untraced run emits exactly the ``end_to_end`` metrics and the
  traced runs exactly the ``per_layer`` metrics, each with its declared
  unit;
* ``ate_rmse_mm``, the simulated detection metrics and the pose digest
  repeat exactly across the runs.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
EXACT = ("ate_rmse_mm", "sim_detect_cycles_per_frame",
         "sim_detect_energy_nj_per_frame", "pim.detect_cycles.lpf",
         "pim.detect_cycles.hpf", "pim.detect_cycles.nms")


def run(workload: str, trace: int):
    cmd = [sys.executable, "framebench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:"
                             f"\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    digest = re.search(r"^# pose_sha256 = ([0-9a-f]{64})", proc.stdout,
                       re.M).group(1)
    return result, digest


def check_units(result: dict, declared: list, label: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"{label}: metrics {got} != declared {want}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            plain, digest = run(workload, 0)
            check_units(plain, spec["end_to_end"], f"{workload} untraced")
            traced = [run(workload, 1) for _ in range(2)]
            for result, _ in traced:
                check_units(result, spec["per_layer"], f"{workload} traced")
            for result, _ in [(plain, digest)] + traced:
                if not result["correct"] or result["failed"]:
                    raise AssertionError(f"{workload}: output checks "
                                         f"failed: {result}")
            digests = {digest} | {d for _, d in traced}
            if len(digests) != 1:
                raise AssertionError(f"{workload}: pose digests differ: "
                                     f"{digests}")
            for name in EXACT:
                values = {r["metrics"][name]["value"] for r, _ in traced}
                if len(values) != 1:
                    raise AssertionError(f"{workload}: {name} differs "
                                         f"across runs: {values}")
        except AssertionError as exc:
            failures.append(str(exc))
            print(f"FAIL {workload}: {exc}")
        else:
            print(f"ok   {workload}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
