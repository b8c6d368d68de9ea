"""Run one workload once in this fresh interpreter and print one JSON line.

    python3 tdbench/worker.py --workload NAME --seed N --spawned T [--trace 1]
                              [--size tiny] [--inject]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, ``import tdgamelab``
and building the inputs.  Like ``wall_s``, it is corrected for machine
speed (see ``meter.py``); the raw times are reported beside them.  ``peak_rss_mb`` is read right after the timed
region, before the checks run.  With ``--trace 1`` the public layer
functions are wrapped (see ``spans.py``), the spans go to
``.bench_build/tdbench/``, and each game function's longest solve is
repeated afterwards, untimed, under tracemalloc to measure its peak
allocation.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "tdbench"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject", action="store_true", help="corrupt one reference value")
    args = parser.parse_args()

    from meter import Meter, probe, scale

    # Probing first lets set-up time be speed-corrected like the region.
    first_probe = probe() if not args.trace else 0.0
    window_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import tdgamelab
    from tdgamelab import families, games, graph, graphio, invariants, strategies, verify

    import_s = time.perf_counter() - window_start
    if not Path(tdgamelab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported tdgamelab from {tdgamelab.__file__}, not from {SRC}")
    lib = SimpleNamespace(families=families, games=games, graph=graph, graphio=graphio,
                          invariants=invariants, strategies=strategies, verify=verify)

    from spans import Tracer
    from workloads import WORKLOADS, Checker, Context, check_all

    workload = WORKLOADS[args.workload]
    references = json.loads((Path(__file__).parent / "reference.json").read_text())
    WORKDIR.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(f"{args.workload}-seed{args.seed}-{time.time_ns()}") if args.trace else None
    if tracer:
        tracer.install(lib)
        tracer.self_s["bench.import"] = import_s

    meter = Meter(probing=not tracer)
    ctx = Context(lib, random.Random(f"{args.workload}:{args.seed}"), workload.sizes[args.size], WORKDIR, meter)
    state = workload.setup(ctx)
    raw_setup_s = time.monotonic() - args.spawned - first_probe
    setup_end = time.perf_counter()
    start_probe = meter.start()
    out = workload.run(ctx, state)
    meter.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # The in-process window from import to the end of the region, probes left out.
    window_s = setup_end - window_start + meter.raw_s
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": scale(raw_setup_s, first_probe, start_probe) if meter.probing else raw_setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": meter.scaled_s,
        "raw_wall_s": meter.raw_s,
        "probes": meter.probes,
        "peak_rss_mb": peak_rss_mb,
        "window_s": window_s,
    }

    if tracer:
        tracer.uninstall()
        tracer.write(WORKDIR / f"trace-{args.workload}-seed{args.seed}.jsonl",
                     {"workload": args.workload, "seed": args.seed, "size": args.size})
        result["layers"] = layer_metrics(tracer, window_s)

    chk = Checker(inject=args.inject)
    check_all(workload, ctx, state, out, references[args.workload][args.size],
              args.seed == references["default_seed"], chk)
    result.update(attempted=chk.attempted, failed=chk.failed)
    for note in chk.notes[:20]:
        print(f"FAILED {args.workload}: {note}", file=sys.stderr)

    if tracer:
        result["layers"].update(tracer.measure_peaks())
    (WORKDIR / "survey7.g6").unlink(missing_ok=True)
    print(json.dumps(result))


def layer_metrics(tracer, traced_s: float) -> dict[str, float]:
    """Per-layer self times, call counts and counters, named module.function.measure."""
    metrics: dict[str, float] = {}
    for name, seconds in tracer.self_s.items():
        metrics["verify.survey.self_s" if name == "verify.survey" else f"{name}.s"] = seconds
    for name, calls in tracer.calls.items():
        metrics[f"{name}.calls"] = calls
    metrics.update(tracer.counts)
    metrics["bench.other.s"] = traced_s - sum(tracer.self_s.values())
    metrics["bench.traced_wall_s"] = traced_s
    return metrics


if __name__ == "__main__":
    main()
