"""Command-line surface of the laboratory.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 capacity or precondition error, 4 internal error (a witness that fails
revalidation, a policy that breaks the rules, a failed assertion, or a
``verify paper`` check that raised), 141 when the reader closes stdout
early, as ``| head`` does (128 + SIGPIPE, what a shell reports), with
nothing on stderr.
``NO_COLOR`` disables the pass/fail coloring of verification tables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .families import FamilySpecError, family, parse_family_spec
from .games import PolicyError, gti
from .graph import CapacityError, Graph, IsolatedVertexError, VertexSet
from .graphio import (
    EDGELIST,
    FORMATS,
    GRAPH6,
    GraphTextError,
    parse_graph,
    serialize_graph,
)
from .invariants import InvariantValue, WitnessError
from .verify import (
    INVARIANTS,
    TREE_ORDER_CAP,
    check_continuation,
    corpus_from_file,
    enumerate_trees,
    exhaustive_corpus,
    explore_trees,
    random_corpus,
    run_paper_suite,
    survey,
    write_rows,
)

def _use_color() -> bool:
    return sys.stdout.isatty() and "NO_COLOR" not in os.environ


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", metavar="SPEC", help="family spec, e.g. path:7 or gk:2")
    group.add_argument("--file", metavar="PATH", help="read the graph from a file")
    parser.add_argument(
        "--format", choices=FORMATS, default=EDGELIST, help="file format (with --file)"
    )


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.graph is not None:
        return family(parse_family_spec(args.graph))
    with open(args.file, encoding="ascii") as handle:
        return parse_graph(handle.read(), args.format)


def _parse_vertex_list(text: str, n: int) -> VertexSet:
    if not text:
        return VertexSet(n)
    try:
        vertices = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed vertex list {text!r}") from None
    return VertexSet.of(n, vertices)


def _witness_payload(value) -> list:
    witness = value.witness
    if hasattr(witness, "to_list"):
        return witness.to_list()
    return [list(edge) for edge in witness]


def cmd_family(args: argparse.Namespace) -> int:
    G = family(parse_family_spec(args.spec))
    print(serialize_graph(G, args.emit))
    return 0


def cmd_invariant(args: argparse.Namespace) -> int:
    G = _load_graph(args)
    # A key given twice is reported once, at its first place.
    which = tuple(INVARIANTS) if args.which == "all" else tuple(dict.fromkeys(args.which.split(",")))
    for key in which:
        if key not in INVARIANTS:
            raise ValueError(f"unknown invariant {key!r} (choose from {', '.join(INVARIANTS)})")
    declared = _parse_vertex_list(args.declared, G.n) if args.declared else None

    values: dict[str, int] = {}
    witnesses: dict[str, list] = {}
    for key in which:
        result = gti(G, declared) if key == "gti" else INVARIANTS[key](G)
        values[key] = int(result)
        if isinstance(result, InvariantValue):
            witnesses[key] = _witness_payload(result)

    if args.json:
        payload = {
            "graph": G.label or f"n={G.n}",
            "n": G.n,
            "declared": sorted(declared) if declared else [],
            "values": values,
            "witnesses": witnesses,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for key in which:
            line = f"{key} = {values[key]}"
            if key in witnesses and witnesses[key]:
                line += f"  witness={witnesses[key]}"
            print(line)
    return 0


def cmd_verify_paper(args: argparse.Namespace) -> int:
    criteria = None
    if args.only:
        criteria = []
        for tok in args.only.split(","):
            try:
                criteria.append(int(tok))
            except ValueError:
                raise ValueError(f"malformed --only criterion {tok!r} in {args.only!r}") from None
    report = run_paper_suite(criteria=criteria)
    print(report.render(color=_use_color()))
    if report.errors():
        return 4
    return 0 if report.ok else 1


def cmd_verify_continuation(args: argparse.Namespace) -> int:
    G = _load_graph(args)
    if args.samples is not None:
        report = check_continuation(G, mode="sampled", samples=args.samples, seed=args.seed)
    else:
        report = check_continuation(G, mode="exhaustive")
    print(
        f"{report.graph}: {report.pairs_checked} declared-set pairs checked "
        f"({report.mode}), {len(report.violations)} violations"
    )
    for a, b in report.violations:
        print(f"  violated for A={list(a)} B={list(b)}")
    return 0 if report.ok else 1


def cmd_survey(args: argparse.Namespace) -> int:
    if args.exhaustive is not None:
        corpus = exhaustive_corpus(args.exhaustive)
    elif args.random is not None:
        pieces = args.random.split(",")
        if len(pieces) != 4:
            raise ValueError("--random takes n,p,count,seed")
        corpus = random_corpus(int(pieces[0]), float(pieces[1]), int(pieces[2]), int(pieces[3]))
    else:
        corpus = corpus_from_file(args.file, args.format)
    # Each source checks its arguments at the call, so bad input fails
    # before any output; generated graphs are then made one row at a time.
    rows = survey(corpus)
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as handle:
            violated = write_rows(rows, args.emit, handle)
    else:
        violated = write_rows(rows, args.emit, sys.stdout)
    return 1 if violated else 0


def cmd_trees(args: argparse.Namespace) -> int:
    if not 2 <= args.max <= TREE_ORDER_CAP:  # checked before the first tree is printed
        raise ValueError(f"--max must lie in 2..{TREE_ORDER_CAP}")
    if args.probe:
        report = explore_trees(args.max)
        by_n: dict[int, int] = {}
        for row in report.rows:
            by_n[row.n] = by_n.get(row.n, 0) + 1
        for n in sorted(by_n):
            print(f"n={n}: {by_n[n]} trees probed")
        for line in report.summary_lines():
            print(line)
        return 1 if report.restricted_claim_violations else 0
    for n in range(2, args.max + 1):
        for T in enumerate_trees(n):
            print(serialize_graph(T, GRAPH6))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdgamelab",
        description="Exact total domination game solvers and verification tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_family = sub.add_parser("family", help="emit a generated family graph")
    p_family.add_argument("spec", help="family spec, e.g. path:7, gk:2, join:path4+path4")
    p_family.add_argument("--emit", choices=FORMATS, default=EDGELIST)
    p_family.set_defaults(handler=cmd_family)

    p_inv = sub.add_parser("invariant", help="compute invariants of one graph")
    _add_graph_source(p_inv)
    p_inv.add_argument(
        "--which",
        default="all",
        help=f"comma list from {','.join(INVARIANTS)} or 'all'",
    )
    p_inv.add_argument(
        "--declared",
        default="",
        metavar="V1,V2,...",
        help="vertices declared already dominated (affects gti)",
    )
    p_inv.add_argument("--json", action="store_true", help="emit one JSON object")
    p_inv.set_defaults(handler=cmd_invariant)

    p_verify = sub.add_parser("verify", help="run verification checks")
    verify_sub = p_verify.add_subparsers(dest="check", required=True)

    p_paper = verify_sub.add_parser("paper", help="recompute the frozen results table")
    p_paper.add_argument("--only", default="", metavar="N[,N...]", help="restrict to criteria")
    p_paper.set_defaults(handler=cmd_verify_paper)

    p_cont = verify_sub.add_parser("continuation", help="check declared-set monotonicity")
    _add_graph_source(p_cont)
    mode = p_cont.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", help="check all pairs (default)")
    mode.add_argument("--samples", type=int, default=None, help="check N sampled pairs")
    p_cont.add_argument("--seed", type=int, default=0)
    p_cont.set_defaults(handler=cmd_verify_continuation)

    p_survey = sub.add_parser("survey", help="batch invariant survey with chain checks")
    source = p_survey.add_mutually_exclusive_group(required=True)
    source.add_argument("--exhaustive", type=int, metavar="N", help="all isolate-free graphs up to N")
    source.add_argument("--random", metavar="n,p,count,seed", help="seeded random corpus")
    source.add_argument("--file", metavar="PATH", help="read a corpus from a file")
    p_survey.add_argument("--format", choices=FORMATS, default=GRAPH6, help="file format (with --file)")
    p_survey.add_argument("--out", default="-", metavar="PATH", help="output path, - for stdout")
    p_survey.add_argument("--emit", choices=("json", "csv"), default="csv")
    p_survey.set_defaults(handler=cmd_survey)

    p_trees = sub.add_parser("trees", help="enumerate free trees, optionally probing them")
    p_trees.add_argument("--max", type=int, required=True, help="largest order to enumerate")
    p_trees.add_argument("--probe", action="store_true", help="probe the open questions")
    p_trees.set_defaults(handler=cmd_trees)

    return parser


def main(argv: list[str] | None = None) -> int:
    if sys.stdout is None:  # started with fd 1 closed: output goes nowhere
        sys.stdout = open(os.devnull, "w")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the exit flush
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's last flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (CapacityError, IsolatedVertexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FamilySpecError, GraphTextError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (WitnessError, PolicyError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
