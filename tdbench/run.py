"""tdgamelab benchmark: one workload, measured for a fixed time.

    python3 tdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  Each sample is one fresh worker interpreter
(``worker.py``), started one after another with no threads, so ``setup_s``
and ``peak_rss_mb`` belong to that workload alone.  Samples repeat until
``--seconds`` would be exceeded: at least three untraced samples, or one
untraced and one traced sample with ``--trace 1``.

With ``--trace 0`` the last line reports the medians of the end-to-end
metrics listed in ``BENCHMARK.json``.  ``wall_s`` and ``setup_s`` are in
seconds at a reference machine speed (see ``meter.py``).  With ``--trace 1`` untraced and
traced workers alternate, and the last line reports the per-layer metrics:
medians over the traced workers, ``failed_frac``, and
``bench.trace_overhead_s``, which is the traced minus the untraced median of
the in-process window (import through the end of the timed region).  The
lines before the last one give the run's seed and machine, and a table
of every metric with its unit.

Every output is checked against references (see ``workloads.py``).
``attempted``/``failed`` count those checks, and ``correct`` is true only
when none failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # a run must end within 180 s, workers included
MAX_SAMPLING_S = 150
MIN_UNTRACED = 3


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(workload: str, seed: int, trace: int, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {workload} did not finish within the run's {DEADLINE_S} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[dict], list[dict]]:
    """Untraced and traced worker results, sampled until the time is used."""
    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        step_start = time.monotonic()
        untraced.append(run_worker(workload, seed, 0, start + DEADLINE_S - time.monotonic()))
        if trace:
            traced.append(run_worker(workload, seed, 1, start + DEADLINE_S - time.monotonic()))
        now = time.monotonic()
        step = now - step_start
        enough = trace or len(untraced) >= MIN_UNTRACED
        if (enough and now - start + step > seconds) or now - start + step > MAX_SAMPLING_S:
            return untraced, traced


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": git_commit()}


def git_commit() -> str:
    """The checkout's commit, read from .git without running git; "unknown" outside a clone."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "tdgamelab" / "__init__.py").is_file():
        print(f"no tdgamelab source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        untraced, traced = collect(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    samples = untraced + traced
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = {m["name"]: statistics.median(s[m["name"]] for s in untraced) for m in spec["end_to_end"]}
    shown = dict(end_to_end)
    if args.trace:
        layers = {m["name"]: statistics.median(s["layers"].get(m["name"], 0) for s in traced)
                  for m in spec["per_layer"]}
        layers["failed_frac"] = failed / attempted
        layers["bench.trace_overhead_s"] = (statistics.median(s["window_s"] for s in traced)
                                            - statistics.median(s["window_s"] for s in untraced))
        shown.update(layers)
        reported = layers
    else:
        reported = end_to_end

    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "untraced_samples": len(untraced),
                      "traced_samples": len(traced), **machine(),
                      "samples": [{k: s[k] for k in ("wall_s", "raw_wall_s", "probes", "setup_s", "raw_setup_s", "peak_rss_mb")} for s in untraced]}))
    for name, value in shown.items():
        print(f"{name:44s} {value:>16.6f} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
