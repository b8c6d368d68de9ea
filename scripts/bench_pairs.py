"""Paired tdbench runs of two commits, written as one BENCH_<name>.json.

    python3 scripts/bench_pairs.py --parent REV --change REV --name NAME \
        --workload positions:10 --workload survey7:10 --traced positions:3 \
        --seed-base 9100 --workdir DIR --claim "what should improve, and where"

Clones this repository twice into ``--workdir``, checks out each commit, and
runs ``tdbench/run.py`` inside each clone, so both sides are measured with
their own committed files.  For a workload given as ``NAME:PAIRS`` it runs
PAIRS pairs, one run after another: pair i (from 1) uses seed
``seed_base + 100 * k + i``, where k counts the workloads from 0, and the
parent runs first in odd pairs and the change in even ones.  A workload
given as ``--traced NAME:PAIRS`` gets PAIRS more pairs with ``--trace 1``,
pair j (from 1) on seed ``seed_base + 100 * k + 50 + j`` with the same
alternation; a bare ``--traced NAME`` means one pair.  The run length is
``run_seconds`` from the parent's ``BENCHMARK.json``, the same on both
sides.  Fewer than 2 pairs of a workload, fewer than 1 traced pair, a name
that this checkout's ``BENCHMARK.json`` does not list, a workload given
twice with the same flag, or a ``BENCH_<name>.json`` that already exists
is a usage error (exit 2) raised before anything is cloned.

The output keeps the last line of every run (``correct``, ``attempted``,
``failed``, ``metrics``) and, per workload and end-to-end metric, each
side's quartiles and median (inclusive method), the number of pairs in
which the change was better, ties counting for neither side, and two
verdicts (see ``verdict``): ``gain`` and ``within_bound``.  Per workload
it also gives each side's failed and attempted checks over its untraced
pairs, and per traced workload each side's median of every per-layer
metric.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def clone(commit: str, dest: Path) -> None:
    if dest.exists():
        raise SystemExit(f"{dest} already exists; give an empty --workdir")
    git("clone", "--quiet", "--no-checkout", str(ROOT), str(dest))
    git("checkout", "--quiet", "--detach", commit, cwd=dest)


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The info line and the result line of one ``tdbench/run.py`` run."""
    cmd = [sys.executable, "tdbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited with {proc.returncode}:\n{proc.stderr}")
    try:
        return json.loads(lines[0]), json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} printed a line that is not JSON:\n{exc.doc}") from None


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6)}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: each side's quartiles, the pairs the change won and the verdicts."""
    summary = {}
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        sign = 1 if metric["better"] == "lower" else -1
        better = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        entry = {**{side: quartiles(values[side]) for side in SIDES},
                 "change_better_pairs": better, "pairs": len(pairs)}
        summary[name] = {**entry, **verdict(metric, entry)}
    return summary


def verdict(metric: dict, entry: dict) -> dict:
    """Whether one summary entry shows a gain, and whether it stays within the metric's bound.

    ``gain``: the change was better in at least nine tenths of the pairs,
    and its median beats the parent's by more than the parent's q3 - q1.
    ``within_bound``: the change's median is worse than the parent's by
    at most the relative ``bound`` that ``BENCHMARK.json`` fixes.
    """
    parent, change = entry["parent"], entry["change"]
    sign = 1 if metric["better"] == "lower" else -1
    gap = sign * (parent["median"] - change["median"])  # > 0 when the change is better
    return {"gain": 10 * entry["change_better_pairs"] >= 9 * entry["pairs"]
                    and gap > parent["q3"] - parent["q1"],
            "within_bound": -gap <= metric["bound"] * parent["median"]}


def failures(pairs: list[dict]) -> dict:
    """Per side, the failed and the attempted checks summed over ``pairs``."""
    return {side: {key: sum(pair[side][key] for pair in pairs) for key in ("failed", "attempted")}
            for side in SIDES}


def layer_medians(pairs: list[dict], per_layer: list[dict]) -> dict:
    """Per side, the median of every per-layer metric over the traced pairs."""
    return {side: {metric["name"]: statistics.median(pair[side]["metrics"][metric["name"]]["value"]
                                                     for pair in pairs)
                   for metric in per_layer}
            for side in SIDES}


def counted(item: str) -> tuple[str, int]:
    """``NAME:PAIRS`` as (NAME, PAIRS); a bare NAME is one pair."""
    name, _, pairs = item.partition(":")
    return name, int(pairs or 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit measured as the parent")
    parser.add_argument("--change", required=True, help="commit measured as the change")
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json at the repository root")
    parser.add_argument("--claim", required=True, help="the claim the runs test, stored in the output")
    parser.add_argument("--workload", action="append", required=True, type=counted, metavar="NAME:PAIRS")
    parser.add_argument("--traced", action="append", default=[], type=counted, metavar="NAME[:PAIRS]")
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True, help="empty directory for the two clones")
    args = parser.parse_args()

    plan = [(k, name, count) for k, (name, count) in enumerate(args.workload)]
    traced_pairs = dict(args.traced)
    # Quartiles need two runs per side; medians over traced runs need one.
    too_few = [f"--workload {name}:{count}" for _, name, count in plan if count < 2]
    too_few += [f"--traced {name}:{count}" for name, count in traced_pairs.items() if count < 1]
    if too_few:
        parser.error(f"too few pairs in {', '.join(too_few)}: a workload needs 2, a traced one 1")
    given = [("--workload", name) for name, _ in args.workload] + [("--traced", name) for name, _ in args.traced]
    known = {workload["name"] for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    unknown = [f"{flag} {name}" for flag, name in given if name not in known]
    if unknown:
        parser.error(f"no such workload in BENCHMARK.json: {', '.join(unknown)}")
    # A repeat would overwrite the first entry's pairs.
    repeated = [f"{flag} {name}" for i, (flag, name) in enumerate(given) if (flag, name) in given[:i]]
    if repeated:
        parser.error(f"workload given twice: {', '.join(repeated)}")
    unknown = set(traced_pairs) - {name for _, name, _ in plan}
    if unknown:
        parser.error(f"--traced names workloads not given with --workload: {sorted(unknown)}")
    out_path = ROOT / f"BENCH_{args.name}.json"
    if out_path.exists():
        parser.error(f"{out_path.name} already exists; give a new --name")
    commits = {side: git("rev-parse", "--verify", getattr(args, side) + "^{commit}") for side in SIDES}
    args.workdir.mkdir(parents=True, exist_ok=True)
    checkouts = {side: args.workdir / side for side in SIDES}
    for side in SIDES:
        clone(commits[side], checkouts[side])
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    machine: dict = {}

    def pair(name: str, seed: int, first: str, trace: int) -> dict:
        out = {"seed": seed, "first": first}
        for side in (first, SIDES[1 - SIDES.index(first)]):
            info, out[side] = bench(checkouts[side], name, seed, seconds, trace)
            machine.update({key: info[key] for key in ("python", "nproc", "cpu")})
            print(f"{name} seed {seed} {side}: {json.dumps(out[side]['metrics'])[:160]}", file=sys.stderr)
        return out

    workloads, traced = {}, {}
    for k, name, count in plan:
        pairs = [pair(name, args.seed_base + 100 * k + i, SIDES[(i - 1) % 2], 0) for i in range(1, count + 1)]
        workloads[name] = {"pairs": pairs, "summary": summarize(pairs, spec["end_to_end"]),
                           "failed": failures(pairs)}
        if name in traced_pairs:
            pairs = [pair(name, args.seed_base + 100 * k + 50 + j, SIDES[(j - 1) % 2], 1)
                     for j in range(1, traced_pairs[name] + 1)]
            traced[name] = {"pairs": pairs, "medians": layer_medians(pairs, spec["per_layer"])}

    result = {
        "claim": args.claim,
        "command": (f"python3 tdbench/run.py --workload W --seed N --seconds {seconds} --trace T, "
                    "run in a clone of each commit, one run after another, alternating which commit runs first"),
        "machine": machine,
        "commits": commits,
        "workloads": workloads,
        "traced": traced,
    }
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
