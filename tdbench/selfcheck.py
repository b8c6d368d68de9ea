"""Self-check of the benchmark harness on tiny instances (about 15 s).

    python3 tdbench/selfcheck.py

For every workload it checks that:

- a tiny untraced run passes all its checks under two seeds;
- a run with one reference value corrupted on purpose counts a failure;
- a tiny traced run reports every per-layer metric in ``BENCHMARK.json``,
  and the layer self times plus ``bench.other.s`` add up to
  ``bench.traced_wall_s``.

Exits 1 when any of these does not hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Metrics that run.py adds from all samples rather than a traced worker.
RUN_LEVEL = {"failed_frac", "bench.trace_overhead_s"}


def worker(workload: str, seed: int, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--size", "tiny", "--spawned", repr(time.monotonic()), *flags]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]} - RUN_LEVEL
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in (1, 2):
            r = worker(workload, seed)
            if r["failed"] or not r["attempted"]:
                problems.append(f"{workload} seed {seed}: {r['failed']} of {r['attempted']} checks failed")
        r = worker(workload, 1, "--inject")
        if not r["failed"]:
            problems.append(f"{workload}: a corrupted reference was not counted as a failure")
        layers = worker(workload, 1, "--trace", "1")["layers"]
        self_times = sum(v for k, v in layers.items() if k.endswith((".s", ".self_s")) and k != "bench.other.s")
        missing = {k for k in layers if k.endswith((".s", ".self_s"))} - per_layer
        if missing:
            problems.append(f"{workload}: self times without a per-layer metric: {sorted(missing)}")
        if abs(self_times + layers["bench.other.s"] - layers["bench.traced_wall_s"]) > 1e-9:
            problems.append(f"{workload}: layer self times do not add up to the traced time")
        print(f"{workload}: checked, failed_frac with a corrupted reference = {r['failed']}/{r['attempted']}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
