"""One tiny benchmark run end to end, so a wrong value or witness fails tier-1 too."""

import json
import subprocess
import sys
import time
from pathlib import Path

WORKER = Path(__file__).resolve().parent.parent / "tdbench" / "worker.py"


def test_subsets_deep_tiny_run_passes_its_checks():
    # Four of its five graphs have n >= 8, so Γt and ooir come from the
    # irredundant search there; the worker checks every value against its
    # frozen reference and every witness against its predicate.
    command = [sys.executable, str(WORKER), "--workload", "subsets-deep", "--seed", "1",
               "--spawned", str(time.monotonic()), "--size", "tiny"]
    run = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, run.stderr
