"""The four benchmark workloads: inputs, timed region and correctness checks.

Every workload has the same four steps:

- ``setup`` builds the inputs.  Each family graph gets a random vertex
  relabeling drawn from the workload seed, so the library sees only the
  relabeled graphs.
- ``run`` is the timed region.  It calls the library through ``ctx.call``
  and only through module attributes (``lib.games.gti``), so the tracer
  can wrap those calls and the meter can probe between them.  A call that
  raises is stored as a ``Failed`` output.
- ``observe`` reduces the outputs to values that a vertex relabeling
  leaves unchanged.  ``reference.json`` freezes them per size.
  Observations that depend on the seed, such as sampled continuation
  counts, are frozen for the default seed only.
- ``check`` applies the checks that need no frozen table: OEIS counts,
  closed forms for paths and cycles, witness predicates, sink round trips
  and policy bounds.

Each instance list comes in two sizes.  ``full`` is what the benchmark
times.  ``tiny`` runs in well under a second and serves the harness self-check.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import traceback
from dataclasses import dataclass
from typing import Callable

# OEIS A002494: graphs on n nodes with no isolated vertices.  It is an
# independent reference for the corpus counts.
A002494 = {2: 1, 3: 2, 4: 7, 5: 23, 6: 122, 7: 888}
# The survey CSV header as the README documents it.
CSV_HEADER = ["graph", "n", "gt", "ugt", "gti", "gtg", "grt", "ooir", "nui", "bipartite", "violations"]
ROW_FIELDS = CSV_HEADER[1:-2]
INVARIANTS = ("gamma_t", "upper_gamma_t", "ooir", "induced_matching_number")
GAMES = ("gti", "gtg", "grundy_t")


@dataclass
class Failed:
    """Stands in for the output of a call that raised."""

    error: str


@dataclass
class Context:
    lib: object  # namespace of the tdgamelab modules
    rng: object  # random.Random seeded from the workload and seed
    params: dict
    workdir: object  # pathlib.Path for files the workload writes
    meter: object  # meter.Meter timing the region

    def call(self, fn: Callable, *args):
        """Call into the library from the timed region; a call that raises yields ``Failed``."""
        try:
            return fn(*args)
        except Exception:
            return Failed(traceback.format_exc(limit=3))
        finally:
            self.meter.tick()


class Checker:
    """Counts checks attempted and failed.

    With ``inject`` set, the first reference compared by ``eq`` is made wrong
    on purpose, so a harness self-check can see a failure counted.
    """

    def __init__(self, inject: bool = False):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._inject = inject

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"{label}: {detail}")

    def eq(self, label: str, got, want) -> None:
        if self._inject:
            self._inject = False
            want = _perturbed(want)
        self.check(label, got == want, f"got {got!r}, want {want!r}")

    def guard(self, label: str, block: Callable[[], object]) -> None:
        """Run a block of checks; an exception in it counts as one failure."""
        try:
            block()
        except Exception:
            self.check(label, False, traceback.format_exc(limit=2))


def _perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return f"wrong-{value}"


def digest(items) -> str:
    """Order-free digest of JSON-serialisable items."""
    text = json.dumps(sorted(json.dumps(item, sort_keys=True) for item in items))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def relabel(lib, G, rng):
    perm = list(range(G.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in G.edges()]
    return lib.graph.build_graph(G.n, edges, label=G.label)


def family_graph(lib, spec: str):
    return lib.families.family(lib.families.parse_family_spec(spec))


def path_order(spec: str) -> int | None:
    kind, _, n = spec.partition(":")
    return int(n) if kind == "path" else None


# ---------------------------------------------------------------------------
# survey7: the `survey --exhaustive 7` pipeline, corpus generation cold


def survey7_setup(ctx):
    # Every CLI call generates the corpus afresh, so the timed region must too.
    ctx.lib.verify.isolate_free_graphs.cache_clear()
    return {}


def survey7_run(ctx, state):
    verify, graphio = ctx.lib.verify, ctx.lib.graphio
    out = {"corpus": []}
    for n in ctx.params["orders"]:
        graphs = out[("count", n)] = ctx.call(verify.isolate_free_graphs, n)
        if not isinstance(graphs, Failed):
            out["corpus"] += [(G.label, relabel(ctx.lib, G, ctx.rng)) for G in graphs]
    corpus = out["corpus"]
    rows = out["rows"] = ctx.call(lambda: list(verify.survey(corpus)))
    out["csv"] = ctx.call(verify.rows_to_csv, rows)
    out["json"] = ctx.call(verify.rows_to_json_lines, rows)
    path = ctx.workdir / "survey7.g6"

    def graph6_leg():
        with open(path, "w", encoding="ascii") as handle:
            handle.write("".join(graphio.serialize_graph6(G) + "\n" for _, G in corpus))
        return verify.corpus_from_file(str(path), "graph6")

    out["graph6"] = ctx.call(graph6_leg)
    return out


def _row_values(row) -> list:
    return [getattr(row, f) for f in ROW_FIELDS] + [row.bipartite]


def survey7_observe(ctx, state, out):
    by_n: dict[int, list] = {n: [] for n in ctx.params["orders"]}
    for row in out["rows"]:
        by_n[row.n].append(_row_values(row))
    return {f"rows digest n={n}": digest(values) for n, values in by_n.items()}, {}


def survey7_check(ctx, state, out, chk):
    corpus = out["corpus"]
    for n in ctx.params["orders"]:
        chk.guard(f"count n={n}", lambda n=n: chk.eq(f"count n={n}", len(out[("count", n)]), A002494[n]))

    def rows():
        chk.eq("row ids", [r.graph for r in out["rows"]], [gid for gid, _ in corpus])
        for r in out["rows"]:
            chk.eq(f"chain {r.graph}", tuple(r.violations), ())

    def csv_sink():
        records = list(csv.reader(io.StringIO(out["csv"])))
        want = [[r.graph] + [str(v) for v in _row_values(r)[:-1]] + [str(r.bipartite).lower(), ";".join(r.violations)]
                for r in out["rows"]]
        chk.eq("csv", records, [CSV_HEADER] + want)

    def json_sink():
        got = [json.loads(line) for line in out["json"].splitlines()]
        want = [dict(zip(CSV_HEADER, [r.graph] + _row_values(r) + [list(r.violations)])) for r in out["rows"]]
        chk.eq("json", got, want)

    def graph6():
        parsed = out["graph6"]
        chk.eq("graph6 count", len(parsed), len(corpus))
        for (gid, G), (_, H) in zip(corpus, parsed):
            chk.eq(f"graph6 {gid}", H.nbr, G.nbr)

    for label, block in (("rows", rows), ("csv", csv_sink), ("json", json_sink), ("graph6", graph6)):
        chk.guard(label, block)


# ---------------------------------------------------------------------------
# games-deep: root solves of the three games plus fixed-policy best responses


def games_setup(ctx):
    lib = ctx.lib
    p = ctx.params
    graphs = {spec: relabel(lib, family_graph(lib, spec), ctx.rng) for spec in p["graphs"]}
    # The path script is written for the path's own numbering, so that
    # instance keeps it; the partition policy gets a relabeled copy.
    path = family_graph(lib, f"path:{p['path']}")
    return {"graphs": graphs, "path": path, "path_relabeled": relabel(lib, path, ctx.rng)}


def games_run(ctx, state):
    games, strategies = ctx.lib.games, ctx.lib.strategies
    out = {}
    for spec, G in state["graphs"].items():
        for fn in GAMES:
            out[(spec, fn)] = ctx.call(getattr(games, fn), G)
    n = ctx.params["path"]
    dominator = ctx.call(strategies.dominator_path_policy, n)
    out["dominator"] = ctx.call(games.best_response_length, state["path"], None, dominator)
    G = state["path_relabeled"]
    staller = ctx.call(strategies.staller_partition_policy, G)
    out["staller"] = ctx.call(games.best_response_length, G, None, staller)
    return out


def games_observe(ctx, state, out):
    values = {f"{spec} {fn}": out[(spec, fn)] for spec in ctx.params["graphs"] for fn in GAMES}
    values["dominator script on path"] = out["dominator"]
    values["digest"] = digest(values.items())
    return values, {}


def games_check(ctx, state, out, chk):
    for spec in ctx.params["graphs"]:
        n = path_order(spec)
        if n is not None:
            chk.eq(f"{spec} gti closed form", out[(spec, "gti")], 2 * ((n + 1) // 3))
            chk.eq(f"{spec} grundy_t closed form", out[(spec, "grundy_t")], n if n % 2 == 0 else n - 1)
    bound = 2 * ((ctx.params["path"] + 1) // 3)
    chk.guard("dominator script", lambda: chk.check("dominator script <= bound", out["dominator"] <= bound,
                                                    f"{out['dominator']!r} > {bound}"))
    chk.guard("staller partition", lambda: chk.check("staller partition >= bound", out["staller"] >= bound,
                                                     f"{out['staller']!r} < {bound}"))


# ---------------------------------------------------------------------------
# subsets-deep: the four subset-search invariants with their witnesses


def subsets_setup(ctx):
    return {"graphs": {spec: relabel(ctx.lib, family_graph(ctx.lib, spec), ctx.rng)
                       for spec in ctx.params["graphs"]}}


def subsets_run(ctx, state):
    invariants = ctx.lib.invariants
    out = {}
    for spec, G in state["graphs"].items():
        for fn in INVARIANTS:
            out[(spec, fn)] = ctx.call(getattr(invariants, fn), G)
    return out


def subsets_observe(ctx, state, out):
    values = {f"{spec} {fn}": out[(spec, fn)].value for spec in ctx.params["graphs"] for fn in INVARIANTS}
    values["digest"] = digest(values.items())
    return values, {}


def subsets_check(ctx, state, out, chk):
    graph, invariants = ctx.lib.graph, ctx.lib.invariants
    predicates = {
        "gamma_t": graph.is_total_dominating,
        "upper_gamma_t": lambda G, w: graph.is_total_dominating(G, w) and graph.is_minimal_total_dominating(G, w),
        "ooir": graph.is_open_open_irredundant,
        "induced_matching_number": invariants.is_induced_matching,
    }
    for spec, G in state["graphs"].items():
        for fn in INVARIANTS:
            def witness(spec=spec, G=G, fn=fn):
                result = out[(spec, fn)]
                chk.check(f"{spec} {fn} witness", predicates[fn](G, result.witness) and len(result.witness) == result.value,
                          f"witness {result.witness!r} for value {result.value!r}")

            chk.guard(f"{spec} {fn} witness", witness)
        kind, _, n = spec.partition(":")
        if kind == "cycle":
            n = int(n)
            # Total domination and induced matching numbers of the cycle C_n.
            chk.guard(spec, lambda spec=spec, n=n: (
                chk.eq(f"{spec} gamma_t closed form", out[(spec, "gamma_t")].value, n // 2 + -(-n // 4) - n // 4),
                chk.eq(f"{spec} induced matching closed form", out[(spec, "induced_matching_number")].value, n // 3),
            ))


# ---------------------------------------------------------------------------
# positions: many game positions answered from one shared solver memo


def positions_setup(ctx):
    lib, p = ctx.lib, ctx.params
    corpus = [relabel(lib, G, ctx.rng) for n in p["orders"] for G in lib.verify.isolate_free_graphs(n)]
    sampled = {spec: (relabel(lib, family_graph(lib, spec), ctx.rng), ctx.rng.randrange(2**30))
               for spec in p["sampled"]}
    play = {spec: relabel(lib, family_graph(lib, spec), ctx.rng) for spec in p["play"]}
    return {"corpus": corpus, "sampled": sampled, "play": play}


def positions_run(ctx, state):
    verify, games = ctx.lib.verify, ctx.lib.games
    samples = ctx.params["samples"]
    out = {"exhaustive": [ctx.call(verify.check_continuation, G) for G in state["corpus"]]}
    for spec, (G, seed) in state["sampled"].items():
        out[("sampled", spec)] = ctx.call(verify.check_continuation, G, "sampled", samples, seed)
    role = games.Role
    for spec, G in state["play"].items():
        dominator = ctx.call(games.optimal_policy, G, role.DOMINATOR)
        staller = ctx.call(games.optimal_policy, G, role.STALLER)
        out[("play", spec)] = ctx.call(games.play_game, G, dominator, staller)
    return out


def positions_observe(ctx, state, out):
    by_n: dict[int, list] = {n: [] for n in ctx.params["orders"]}
    for G, report in zip(state["corpus"], out["exhaustive"]):
        by_n[G.n].append(len(report.violations))
    invariant = {}
    for n, counts in by_n.items():
        invariant[f"violations n={n}"] = sum(counts)
        invariant[f"violations digest n={n}"] = digest(counts)
    for spec in ctx.params["play"]:
        invariant[f"{spec} optimal rounds"] = len(out[("play", spec)])
    seeded = {f"{spec} sampled violations": len(out[("sampled", spec)].violations) for spec in ctx.params["sampled"]}
    return invariant, seeded


def positions_check(ctx, state, out, chk):
    for i, (G, report) in enumerate(zip(state["corpus"], out["exhaustive"])):
        chk.guard(f"exhaustive {i}", lambda G=G, report=report: chk.eq(
            f"exhaustive {G.label} pairs", report.pairs_checked, 3**G.n))
    for spec in ctx.params["sampled"]:
        def sampled(spec=spec):
            report = out[("sampled", spec)]
            chk.eq(f"{spec} sampled pairs", report.pairs_checked, ctx.params["samples"])
            chk.check(f"{spec} sampled pairs nested", all(set(b) <= set(a) for a, b in report.violations))

        chk.guard(spec, sampled)
    for spec, G in state["play"].items():
        chk.guard(spec, lambda spec=spec, G=G: chk.eq(
            f"{spec} optimal rounds = gti", len(out[("play", spec)]), ctx.lib.games.gti(G)))
        n = path_order(spec)
        if n is not None:
            chk.guard(spec, lambda spec=spec, n=n: chk.eq(
                f"{spec} optimal rounds = gti closed form", len(out[("play", spec)]), 2 * ((n + 1) // 3)))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    observe: Callable
    check: Callable
    sizes: dict


WORKLOADS = {
    "survey7": Workload(
        survey7_setup, survey7_run, survey7_observe, survey7_check,
        {"full": {"orders": range(2, 8)}, "tiny": {"orders": range(2, 6)}},
    ),
    "games-deep": Workload(
        games_setup, games_run, games_observe, games_check,
        {
            "full": {"graphs": ("path:19", "cycle:18", "substar:3,5", "corona:path10"), "path": 20},
            "tiny": {"graphs": ("path:8", "cycle:7", "substar:3,1", "corona:path3"), "path": 8},
        },
    ),
    "subsets-deep": Workload(
        subsets_setup, subsets_run, subsets_observe, subsets_check,
        {
            "full": {"graphs": ("cyclepower:18,3", "bk:8", "fk:8", "cycle:20", "substar:4,4")},
            "tiny": {"graphs": ("cyclepower:8,2", "bk:3", "fk:5", "cycle:8", "substar:3,1")},
        },
    ),
    "positions": Workload(
        positions_setup, positions_run, positions_observe, positions_check,
        {
            "full": {"orders": range(2, 8), "sampled": ("path:17", "cycle:17", "corona:path8"),
                     "samples": 3000, "play": ("path:16", "substar:3,4")},
            "tiny": {"orders": range(2, 5), "sampled": ("path:8", "corona:path3"),
                     "samples": 200, "play": ("path:6", "substar:3,1")},
        },
    ),
}


def check_all(workload: Workload, ctx, state, out, refs: dict, default_seed: bool, chk: Checker) -> None:
    """Compare observations with the frozen references, then run the direct checks."""
    observed: list[tuple[dict, dict]] = []
    chk.guard("observe", lambda: observed.append(workload.observe(ctx, state, out)))
    if observed:
        invariant, seeded = observed[0]
        frozen = [(invariant, refs["invariant"])]
        if default_seed:
            frozen.append((seeded, refs["default_seed"]))
        for got, want in frozen:
            for key in sorted(want.keys() | got.keys()):
                chk.eq(key, got.get(key), want.get(key))
    workload.check(ctx, state, out, chk)
