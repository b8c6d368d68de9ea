"""Verification harness: reproduction suite, monotonicity checks, and surveys.

This module owns the graph corpora (exhaustive isomorphism-free enumeration
at small orders, seeded random draws, and free trees, each generated once
as its centre-rooted level sequence), the continuation-principle checker,
the invariant-chain survey with CSV/JSON sinks, the open-question probes
over trees, and the suite that recomputes every published value the
package freezes as an expected result.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import random
import time
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, TextIO

from . import graphio
from .families import (
    complete_graph,
    corona,
    disjoint_union,
    family,
    parse_family_spec,
    path_graph,
    subdivided_star,
)
from .games import (
    IndicatedGameSolver,
    _byte_lanes,
    _columns,
    _downsets,
    _value_levels,
    best_response_length,
    grundy_t,
    gtg,
    gti,
)
from .graph import (
    SOLVER_CAP,
    CapacityError,
    Graph,
    bits,
    build_graph,
    is_bipartite,
    require_isolate_free,
)
from .invariants import (
    InvariantValue,
    WitnessError,
    gamma_t,
    has_perfect_matching,
    induced_matching_number,
    ooir,
    upper_gamma_t,
)
from .strategies import dominator_path_policy, staller_partition_policy

Edge = tuple[int, int]

EXHAUSTIVE_ORDER_CAP = 7
SAMPLED_LEVELS_ORDER_CAP = 17  # sampled checks read values off ``_value_levels`` up to this order
TREE_ORDER_CAP = 12


# ---------------------------------------------------------------------------
# Exhaustive corpora


@lru_cache(maxsize=None)
def isolate_free_graphs(n: int) -> tuple[Graph, ...]:
    """All isolate-free graphs on exactly n vertices, one per isomorphism class.

    A labeled graph is ranked by its edge mask, where slot (a, b) with a < b
    is bit ``combinations(range(n), 2).index((a, b))``.  Each class is given
    by its smallest-mask labeling, and the classes come in increasing mask
    order.  The slots of label k's edges to the labels above k come right
    after all the slots among those labels, so two labelings compare block
    by block from the top: for k = n-2, ..., 0, the adjacency of label k to
    labels n-1, ..., k+1, read from n-1 down.  Deleting label 0 from a
    smallest-mask graph thus leaves a smallest-mask graph on labels 1..n-1.

    Orderly generation (Read 1978; McKay 1998) follows from that: the
    smallest-mask graphs on m vertices, isolates included, are those on
    m - 1 vertices shifted up one label, each with a new vertex 0 joined to
    some set, kept when no relabeling gives a smaller mask (see
    ``_smallest_mask_extensions``).  Only the last level drops graphs with
    an isolated vertex.  Only the constant per-order bit columns of
    ``games._columns`` outlive a call, so after ``cache_clear()`` the next call
    still generates every graph.
    """
    _check_exhaustive_order(n)
    level: list[tuple[int, ...]] = [()]
    for m in range(1, n + 1):
        level = [G for H in level for G in _smallest_mask_extensions(H, m == n)]
    return tuple(Graph(n, nbr, label=f"exhaustive:n={n}:i={i}") for i, nbr in enumerate(level))


def _check_exhaustive_order(n: int) -> None:
    if not 1 <= n <= EXHAUSTIVE_ORDER_CAP:
        raise ValueError(f"exhaustive enumeration supports 1 <= n <= {EXHAUSTIVE_ORDER_CAP}")


def _smallest_mask_extensions(h: tuple[int, ...], isolate_free: bool) -> list[tuple[int, ...]]:
    """The smallest-mask graphs G whose vertices 1..n-1 induce h, in mask order.

    ``h`` is a smallest-mask graph as neighbourhood masks; its vertex i is
    vertex i + 1 of G, and vertex 0 of G is joined to ``s << 1`` for some s.
    All s are decided together, as bitmaps over the values of s.

    A relabeling is searched label by label from the top, and only while
    its blocks tie the identity's.  While vertex 0 is unplaced, the tied
    prefixes are h's own, the same for every s, so they are walked once.
    No vertex of h can beat the identity's block there, as h has the
    smallest mask; vertex 0 can, which rejects s, or tie, and then the
    search goes on below for that s alone.  Twins u < v in h are only
    worth placing in both orders for the s that hold u and not v; an s
    that holds v and not u is rejected outright, as swapping them lowers
    the mask.
    """
    n = len(h) + 1
    shifted = tuple(a << 1 for a in h)
    base = (0,) + shifted  # G's neighbourhoods, vertex 0 aside
    has = (0,) + _columns(n - 1)  # has[v]: the s joining v
    allowed = (1 << (1 << (n - 1))) - 1
    if isolate_free:
        allowed &= ~1
        for v in range(1, n):
            if not base[v]:
                allowed &= has[v]
    prev_twin = [0] * n  # the largest twin below v in h, or 0
    for v in range(2, n):
        for u in range(v - 1, 0, -1):
            if base[u] & ~(1 << v) == base[v] & ~(1 << u):
                prev_twin[v] = u
                allowed &= has[u] | ~has[v]
                break
    rejected = 0
    ties_of_zero = []  # (k, the s where vertex 0 ties at label k, placement, unplaced)
    place = [0] * n

    def walk(k: int, unplaced: int, scope: int) -> None:
        # Labels above k hold vertices of h, place[j] at label j, tying the
        # identity; scope is the set of s this prefix still stands for.
        # First vertex 0's block at label k is compared for every s at once.
        nonlocal rejected
        eq, smaller, ties = scope, 0, unplaced & ~1
        if k:
            row = base[k]
            for j in range(n - 1, k, -1):
                p = place[j]
                if row >> j & 1:  # no vertex of h lacks p here: it would beat h
                    smaller |= eq & ~has[p]
                    eq &= has[p]
                else:
                    eq &= ~has[p]
                    ties &= ~base[p]
        else:  # the identity's last block is s itself
            for j in range(n - 1, 0, -1):
                a, t = has[place[j]], has[j]
                smaller |= eq & t & ~a
                eq &= ~(a ^ t)
        rejected |= smaller
        if not k:
            return
        if eq:
            ties_of_zero.append((k, eq, tuple(place), unplaced & ~1))
        rest = ties
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            u = prev_twin[v]
            while u and not ties >> u & 1:
                u = prev_twin[u]
            sub = scope & has[u] & ~has[v] if u else scope
            if sub & ~rejected:
                place[k] = v
                walk(k - 1, unplaced ^ low, sub)

    walk(n - 1, (1 << n) - 1, allowed)
    alive = allowed & ~rejected
    # G's adjacency for each s still standing, built once for its tie
    # checks and for the result.
    joined = {}
    rest = alive
    while rest:
        low = rest & -rest
        rest ^= low
        s = low.bit_length() - 1
        joined[s] = (s << 1, *[a | s >> i & 1 for i, a in enumerate(shifted)])
    for k, eq, placed, unplaced in ties_of_zero:
        eq &= alive
        while eq:
            low = eq & -eq
            eq ^= low
            adj = joined[low.bit_length() - 1]
            cols = [adj[v] for v in placed]
            cols[k] = adj[0]
            if _smaller_below(adj, cols, k - 1, unplaced):
                alive ^= low
    return [adj for s, adj in joined.items() if alive >> s & 1]


def _smaller_below(adj: tuple[int, ...], cols: list[int], k: int, unplaced: int) -> bool:
    """Whether labels k..0 can be filled to beat the identity's mask.

    ``cols[j]`` is the neighbourhood of the vertex at label j for j > k,
    and those labels tie the identity's blocks.
    """
    row = adj[k]
    ties = unplaced
    for j in range(len(adj) - 1, k, -1):
        if row >> j & 1:
            if ties & ~cols[j]:
                return True
        else:
            ties &= ~cols[j]
    if k:
        while ties:
            low = ties & -ties
            ties ^= low
            cols[k] = adj[low.bit_length() - 1]
            if _smaller_below(adj, cols, k - 1, unplaced ^ low):
                return True
    return False


def exhaustive_corpus(n_max: int) -> Iterator[tuple[str, Graph]]:
    """All isolate-free graphs with 2 <= n <= n_max, labeled deterministically.

    ``n_max`` must lie in 1..EXHAUSTIVE_ORDER_CAP; it is checked at the
    call, before any graph is built.
    """
    _check_exhaustive_order(n_max)
    return ((G.label, G) for n in range(2, n_max + 1) for G in isolate_free_graphs(n))


# ---------------------------------------------------------------------------
# Random corpora


# How many G(n, p) draws ``random_isolate_free_graph`` makes before it gives up.
MAX_DRAWS = 1000


def random_isolate_free_graph(n: int, p: float, rng: random.Random) -> Graph:
    """One draw of G(n, p) conditioned on having no isolated vertex.

    Draws containing isolates are discarded and redrawn, up to
    ``MAX_DRAWS`` attempts.
    """
    _check_random_order(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    for _ in range(MAX_DRAWS):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        G = build_graph(n, edges)
        if G.is_isolate_free():
            return G
    raise ValueError(f"no isolate-free G({n}, {p}) draw within {MAX_DRAWS} retries")


def _check_random_order(n: int) -> None:
    if n < 2:
        raise ValueError("isolate-free graphs need n >= 2")
    if n > SOLVER_CAP:
        raise CapacityError(f"order {n} exceeds SOLVER_CAP = {SOLVER_CAP}")


def random_corpus(n: int, p: float, count: int, seed: int) -> Iterator[tuple[str, Graph]]:
    """``count`` seeded draws of ``random_isolate_free_graph(n, p)``, made as they are read.

    n, p and count are checked at the call, and the first graph is drawn
    there too, so a p too small to give an isolate-free graph fails before
    a caller writes anything.  p = 0 is rejected outright.
    """
    _check_random_order(n)
    if not 0.0 < p <= 1.0:
        raise ValueError("edge probability of a random corpus must lie in (0, 1]")
    if count < 0:
        raise ValueError(f"random corpus size must be >= 0, not {count}")
    rng = random.Random(seed)
    draws = (random_isolate_free_graph(n, p, rng) for _ in range(count))
    first = list(islice(draws, 1))
    return ((f"random:n={n}:p={p}:seed={seed}:i={i}", G) for i, G in enumerate(chain(first, draws)))


def corpus_from_file(path: str, fmt: str) -> list[tuple[str, Graph]]:
    with open(path, encoding="ascii") as handle:
        text = handle.read()
    if fmt == graphio.GRAPH6:
        return [
            (f"{path}:{i}", G) for i, G in enumerate(graphio.iter_graph6_lines(text))
        ]
    return [(f"{path}:0", graphio.parse_edgelist(text))]


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform labeled tree on n vertices via a random parent-code sequence."""
    if n < 2:
        raise ValueError("trees need n >= 2")
    code = [rng.randrange(n) for _ in range(n - 2)]
    return build_graph(n, _prufer_edges(code, n))


def _prufer_edges(code: list[int], n: int) -> list[Edge]:
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (v for v in range(n) if degree[v] == 1)
    edges.append((u, w))
    return edges


LEAF_SUPPORT_MAX_ORDER = 12


def random_leaf_support_tree(rng: random.Random) -> tuple[Graph, int]:
    """Random tree in which every vertex is a leaf or a support vertex.

    Builds a skeleton tree on 2 <= s <= 5 vertices and hangs at least one
    leaf on each of them, so the supports are exactly the skeleton vertices
    and the tree has diameter at least 3.  Returns the tree and s.
    """
    s = rng.randint(2, 5)
    skeleton = random_tree(s, rng)
    leaf_counts = [1] * s
    budget = LEAF_SUPPORT_MAX_ORDER - 2 * s
    for _ in range(rng.randint(0, budget)):
        leaf_counts[rng.randrange(s)] += 1
    edges = list(skeleton.edges())
    next_vertex = s
    for v in range(s):
        for _ in range(leaf_counts[v]):
            edges.append((v, next_vertex))
            next_vertex += 1
    return build_graph(next_vertex, edges), s


# ---------------------------------------------------------------------------
# Free tree enumeration


def _rooted_level_sequences(n: int) -> Iterator[list[int]]:
    # Canonical level sequences of rooted trees, generated in reverse
    # lexicographic order from the path down to the star.
    seq = list(range(1, n + 1))
    while True:
        yield seq
        p = next((i for i in range(n - 1, -1, -1) if seq[i] > 2), -1)
        if p < 0:
            return
        q = next(i for i in range(p - 1, -1, -1) if seq[i] == seq[p] - 1)
        seq = seq[:p]
        while len(seq) < n:
            seq.append(seq[len(seq) - (p - q)])


def _edges_from_levels(levels: list[int]) -> list[Edge]:
    last_at_level = {levels[0]: 0}
    edges = []
    for i in range(1, len(levels)):
        edges.append((last_at_level[levels[i] - 1], i))
        last_at_level[levels[i]] = i
    return edges


def _centre_rooted(seq: list[int]) -> bool:
    """True when the level sequence ``seq`` is its free tree's chosen rooting.

    Wright, Richmond, Odlyzko and McKay ("Constant time generation of free
    trees", SIAM J. Comput. 1986).  ``seq[0] == 1`` is the root.  A
    canonical rooted sequence lists the root's subtrees in decreasing
    order, so its first subtree ``left`` is a tallest one; ``rest`` is the
    root with its other subtrees.  The root is a centre exactly when
    ``rest`` is at least as tall as ``left``.  If it is taller, the root is
    the unique centre.  If they are as tall, the tree is bicentral, and
    ``left`` and ``rest`` are its two halves either side of the central
    edge, each rooted at its end of that edge.  Rooting at the other centre
    swaps them, so keeping only the rooting whose ``left`` is the smaller
    half, by size and then in list order, keeps one of the two; isomorphic
    halves give the same sequence both ways.  So every free tree passes on
    exactly one rooted sequence, and it is rooted at a centre.
    """
    n = len(seq)
    m = next((i for i in range(2, n) if seq[i] == 2), n)
    left = [s - 2 for s in seq[1:m]]
    rest = [0] + [s - 1 for s in seq[m:]]
    height, other = max(left), max(rest)
    if other > height:
        return True
    return other == height and (len(left), left) <= (len(rest), rest)


def enumerate_trees(n: int) -> tuple[Graph, ...]:
    """All non-isomorphic free trees on n vertices, each exactly once.

    Vertex 0 of each tree is a centre; see ``_centre_rooted``.
    """
    if not 2 <= n <= TREE_ORDER_CAP:
        raise ValueError(f"tree enumeration supports 2 <= n <= {TREE_ORDER_CAP}")
    seqs = filter(_centre_rooted, _rooted_level_sequences(n))
    return tuple(
        build_graph(n, _edges_from_levels(seq), label=f"tree:n={n}:i={i}")
        for i, seq in enumerate(seqs)
    )


# ---------------------------------------------------------------------------
# Continuation principle


@dataclass(frozen=True)
class ContinuationReport:
    graph: str
    n: int
    mode: str
    pairs_checked: int
    violations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_continuation(
    G: Graph, mode: str = "exhaustive", samples: int = 500, seed: int = 0
) -> ContinuationReport:
    """Check that declaring more vertices dominated never raises the game value.

    Exhaustive mode decides every pair B <= A of declared sets (3^n ordered
    pairs) and is cost-guarded to n <= 7 (``CapacityError`` above it).  It
    reads the whole value table as the threshold bitmaps of
    ``_value_levels``: a set A has a violating subset exactly when, for
    some k, A is in L_k and a subset of A is not, so only the sets of
    W = OR_k (L_k AND Up(NOT L_k)) are walked, where Up is the superset
    closure.  For each A in W, in increasing order, the violations are the
    subsets B of A that are not in L_value(A), read as the bits of
    Down(A) AND NOT L_value(A) from the highest down.  The closure's bit
    columns and the subset bitmaps Down(A) are the per-order tables
    ``games._columns(n)`` and ``games._downsets(n)``, and the violations'
    vertex tuples are lane 0 of ``games._byte_lanes()``, as every mask
    fits in one byte; ``games._value_levels`` builds the levels on the
    same tables and the superset bitmaps of ``games._upsets(n)``.
    Sampled mode, at n up to 26, draws ``samples`` seeded random pairs,
    at least one, and reports a pair when value(A) > value(B).  Up to
    n = SAMPLED_LEVELS_ORDER_CAP it reads every value off the levels,
    whatever the sample count; above it an ``IndicatedGameSolver``
    answers them, whose memo pays per draw instead of per mask.  Only the
    exhaustive orders' tables are cached.
    Violations are reported with the witnessing (A, B).
    """
    require_isolate_free(G)
    violations = []
    if mode == "exhaustive":
        if G.n > EXHAUSTIVE_ORDER_CAP:
            raise CapacityError(
                f"exhaustive continuation checks are limited to n <= {EXHAUSTIVE_ORDER_CAP}"
            )
        levels = _value_levels(G)
        columns = _columns(G.n)
        members = _byte_lanes()[0]
        down = _downsets(G.n)
        walk = 0
        for level in levels:
            # Up(NOT L_k); the bits of ~level past 2**n are dropped by the
            # final AND with level.
            up = ~level
            for i, column in enumerate(columns):
                up |= (up << (1 << i)) & column
            walk |= level & up
        pairs = 3**G.n
        value = _level_values(levels, G.n)
        for a in bits(walk):
            level = levels[value(a) - 1]
            bad = down[a] & ~level
            while bad:
                b = bad.bit_length() - 1
                bad ^= 1 << b
                violations.append((members[a], members[b]))
    elif mode == "sampled":
        if samples < 1:
            raise ValueError(f"sampled continuation checks need samples >= 1, not {samples}")
        if G.n <= SAMPLED_LEVELS_ORDER_CAP:
            value = _level_values(_value_levels(G), G.n)
        else:
            value = IndicatedGameSolver(G).value
        pairs = samples
        draws = _random_masks(seed, G.n)
        for _ in range(samples):
            a = next(draws)
            b = a & next(draws)
            if value(a) > value(b):
                violations.append((tuple(bits(a)), tuple(bits(b))))
    else:
        raise ValueError(f"unknown continuation mode {mode!r}")
    name = G.label or f"graph(n={G.n})"
    return ContinuationReport(name, G.n, mode, pairs, tuple(violations))


def _random_masks(seed: int, n: int) -> Iterator[int]:
    """``random.Random(seed).randrange(2**n)``'s draws, from the calls it makes in
    CPython 3.10-3.13: ``getrandbits(n + 1)``, drawn again while above ``full``."""
    draw, full = random.Random(seed).getrandbits, (1 << n) - 1
    while True:
        mask = draw(n + 1)
        if mask <= full:
            yield mask


def _level_values(levels: list[int], n: int) -> Callable[[int], int]:
    """The value of a mask M read off the nested levels of ``_value_levels``.

    Each level becomes a little-endian ``bytes`` view once, and value(M),
    the number of levels that hold M, is a binary search over the levels
    that reads one byte per step, so no query shifts a 2**n-bit int.
    """
    tables = [level.to_bytes(((1 << n) + 7) >> 3, "little") for level in levels]

    def value(mask: int) -> int:
        byte, bit = mask >> 3, mask & 7
        lo, hi = 0, len(tables)  # the first lo levels hold mask, level hi + 1 does not
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            if tables[mid - 1][byte] >> bit & 1:
                lo = mid
            else:
                hi = mid - 1
        return lo

    return value


# ---------------------------------------------------------------------------
# Invariant-chain survey


_CHAIN_CHECKS: tuple[tuple[str, Callable], ...] = (
    ("gt<=ugt", lambda r: r.gt <= r.ugt),
    ("ugt<=gti", lambda r: r.ugt <= r.gti),
    ("gti<=grt", lambda r: r.gti <= r.grt),
    ("ugt<=ooir", lambda r: r.ugt <= r.ooir),
    ("ooir<=grt", lambda r: r.ooir <= r.grt),
    ("gt<=gtg", lambda r: r.gt <= r.gtg),
    ("gtg<=grt", lambda r: r.gtg <= r.grt),
    ("2nui<=ooir", lambda r: 2 * r.nui <= r.ooir),
    ("bipartite:2nui==ooir", lambda r: not r.bipartite or 2 * r.nui == r.ooir),
)


@dataclass(frozen=True)
class SurveyRow:
    graph: str
    n: int
    gt: int
    ugt: int
    gti: int
    gtg: int
    grt: int
    ooir: int
    nui: int
    bipartite: bool
    violations: tuple[str, ...] = ()


CSV_HEADER = ",".join(f.name for f in fields(SurveyRow))

# The seven invariants, keyed and ordered like SurveyRow's columns; read a
# value with int().  Each entry looks its solver up as a module global when
# called, so a rebinding of ``verify.gti`` and the like is seen here too.
INVARIANTS: dict[str, Callable[[Graph], int | InvariantValue]] = {
    "gt": lambda G: gamma_t(G),
    "ugt": lambda G: upper_gamma_t(G),
    "gti": lambda G: gti(G),
    "gtg": lambda G: gtg(G),
    "grt": lambda G: grundy_t(G),
    "ooir": lambda G: ooir(G),
    "nui": lambda G: induced_matching_number(G),
}


def survey_row(graph_id: str, G: Graph) -> SurveyRow:
    """Compute all seven invariants for one graph and apply the chain checks."""
    row = SurveyRow(
        graph=graph_id,
        n=G.n,
        **{key: int(solve(G)) for key, solve in INVARIANTS.items()},
        bipartite=is_bipartite(G),
    )
    failed = tuple(label for label, check in _CHAIN_CHECKS if not check(row))
    return replace(row, violations=failed) if failed else row


def survey(corpus: Iterable[tuple[str, Graph]]) -> Iterator[SurveyRow]:
    """Survey a corpus of (id, graph) pairs; rows appear in source order."""
    for graph_id, G in corpus:
        yield survey_row(graph_id, G)


def write_rows(rows: Iterable[SurveyRow], emit: str, out: TextIO) -> bool:
    """Write survey rows as CSV or JSON lines, flushing after each row.

    Returns whether any row has violations.  Rows are written as they
    arrive, so a survey that stops early leaves the rows computed so far.
    """
    if emit == "json":
        write = lambda row: out.write(json.dumps(vars(row), sort_keys=True) + "\n")
    else:
        # Graph ids may contain commas (family specs like cyclepower:7,2), so
        # the writer quotes per RFC 4180; booleans print lower-case.
        writer = csv.writer(out, lineterminator="\n")
        names = CSV_HEADER.split(",")
        writer.writerow(names)
        out.flush()
        write = lambda row: writer.writerow([_csv_cell(getattr(row, name)) for name in names])
    written = violated = False
    for row in rows:
        write(row)
        out.flush()
        written = True
        violated = violated or bool(row.violations)
    if emit == "json" and not written:  # an empty JSON survey has always been one newline
        out.write("\n")
    return violated


def _csv_cell(value) -> object:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ";".join(value)
    return value


def rows_to_csv(rows: Iterable[SurveyRow]) -> str:
    out = io.StringIO()
    write_rows(rows, "csv", out)
    return out.getvalue()


def rows_to_json_lines(rows: Iterable[SurveyRow]) -> str:
    out = io.StringIO()
    write_rows(rows, "json", out)
    return out.getvalue()


# ---------------------------------------------------------------------------
# Open-question probes over trees


@dataclass(frozen=True)
class TreeProbeRow:
    n: int
    index: int
    upper_total: int
    indicated: int
    nu_induced: int
    gamma_equal: bool
    indicated_le_twice_matching: bool
    leaf_matching_attains_max: bool


@dataclass(frozen=True)
class TreeProbeReport:
    n_max: int
    rows: tuple[TreeProbeRow, ...]
    equality_counterexamples: tuple[str, ...]
    matching_bound_counterexamples: tuple[str, ...]
    restricted_claim_violations: tuple[str, ...]

    def summary_lines(self) -> list[str]:
        lines = []
        for found, prefix, none_line in (
            (self.equality_counterexamples, "upper-total/indicated equality counterexample",
             f"upper-total = indicated on trees: no counterexample found up to n={self.n_max}"),
            (self.matching_bound_counterexamples, "indicated <= 2*matching counterexample",
             f"indicated <= 2*matching on trees: no counterexample found up to n={self.n_max}"),
            (self.restricted_claim_violations, "VIOLATION of the leaf-ended-matching bound",
             "leaf-ended-matching bound verified on every qualifying tree"),
        ):
            lines += [f"{prefix}: {g}" for g in found] if found else [none_line]
        return lines


def explore_trees(n_max: int) -> TreeProbeReport:
    """Probe every free tree up to n_max against the open questions.

    Records whether the upper total domination number equals the indicated
    game value, and whether the game value is at most twice the induced
    matching number.  When some maximum induced matching consists entirely
    of pendant edges, the bound is a proven statement for that tree and a
    violation is reported separately.  The open questions themselves are
    only ever reported as "no counterexample found".
    """
    if not 2 <= n_max <= TREE_ORDER_CAP:
        raise ValueError(f"tree probing supports 2 <= n_max <= {TREE_ORDER_CAP}")
    rows, equality_bad, matching_bad, restricted_bad = [], [], [], []
    for n in range(2, n_max + 1):
        for index, T in enumerate(enumerate_trees(n)):
            ugt_val = upper_gamma_t(T).value
            gti_val = gti(T)
            nui_val = induced_matching_number(T).value
            pendant = [(u, v) for u, v in T.edges() if T.degree(u) == 1 or T.degree(v) == 1]
            leaf_max = induced_matching_number(T, pendant).value
            row = TreeProbeRow(
                n=n,
                index=index,
                upper_total=ugt_val,
                indicated=gti_val,
                nu_induced=nui_val,
                gamma_equal=ugt_val == gti_val,
                indicated_le_twice_matching=gti_val <= 2 * nui_val,
                leaf_matching_attains_max=leaf_max == nui_val,
            )
            rows.append(row)
            ident = T.label or f"tree:n={n}:i={index}"
            if not row.gamma_equal:
                equality_bad.append(ident)
            if not row.indicated_le_twice_matching:
                matching_bad.append(ident)
                if row.leaf_matching_attains_max:
                    restricted_bad.append(ident)
    return TreeProbeReport(
        n_max, tuple(rows), tuple(equality_bad), tuple(matching_bad), tuple(restricted_bad)
    )


# ---------------------------------------------------------------------------
# The reproduction suite


@dataclass(frozen=True)
class Claim:
    claim_id: str
    criterion: int
    instance: str
    quantity: str
    relation: str  # "==", "<=", ">="
    expected: int
    source: str
    compute: Callable[[], int] = field(compare=False, repr=False)


@dataclass(frozen=True)
class SuiteRow(Claim):
    computed: int | None
    ok: bool
    seconds: float
    error: str | None = None


@dataclass(frozen=True)
class SuiteReport:
    rows: tuple[SuiteRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def failures(self) -> list[SuiteRow]:
        return [row for row in self.rows if not row.ok]

    def errors(self) -> list[SuiteRow]:
        return [row for row in self.rows if row.error is not None]

    def render(self, color: bool = False) -> str:
        green, red, reset = ("\x1b[32m", "\x1b[31m", "\x1b[0m") if color else ("", "", "")
        lines = []
        for row in self.rows:
            if row.error is not None:
                tag, got = f"{red}ERROR{reset}", row.error
            else:
                tag = f"{green}PASS{reset}" if row.ok else f"{red}FAIL{reset}"
                got = f"got {row.computed:<3}"
            lines.append(
                f"[{tag}] {row.claim_id:<22} {row.instance:<16} "
                f"{row.quantity} {row.relation} {row.expected:<3} "
                f"{got} ({row.seconds:.3f}s)  [{row.source}]"
            )
        passed = sum(1 for row in self.rows if row.ok)
        errors = len(self.errors())
        tail = f", {errors} raised an error" if errors else ""
        lines.append(f"{passed}/{len(self.rows)} checks passed{tail}")
        return "\n".join(lines)


_RELATIONS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge}


def path_game_value(n: int) -> int:
    """The shared value of the path invariants: 2*floor((n+1)/3)."""
    return 2 * ((n + 1) // 3)


def _count_chain_violations(n: int) -> int:
    return sum(
        len(row.violations)
        for row in survey((G.label, G) for G in isolate_free_graphs(n))
    )


def _count_grundy_matching_mismatches(n: int) -> int:
    return sum(
        (grundy_t(T) == n) != bool(has_perfect_matching(T).value) for T in enumerate_trees(n)
    )


def _sampled_continuation_violations(seed: int, graphs: int, samples: int) -> int:
    rng = random.Random(seed)
    total = 0
    for _ in range(graphs):
        G = random_isolate_free_graph(rng.randint(3, 7), rng.uniform(0.3, 0.7), rng)
        report = check_continuation(G, mode="sampled", samples=samples, seed=rng.randrange(2**30))
        total += len(report.violations)
    return total


def _component_additivity_failures(seed: int, instances: int) -> int:
    rng = random.Random(seed)
    failures = 0
    for _ in range(instances):
        pieces = []
        budget = 10
        for _ in range(rng.randint(2, 3)):
            if budget < 2:
                break
            size = rng.randint(2, min(5, budget))
            budget -= size
            pieces.append(random_isolate_free_graph(size, rng.uniform(0.4, 0.9), rng))
        if len(pieces) < 2:
            pieces.append(random_isolate_free_graph(2, 1.0, rng))
        if gti(disjoint_union(pieces)) != sum(gti(piece) for piece in pieces):
            failures += 1
    return failures


def _witness_revalidation_errors(seed: int) -> int:
    rng = random.Random(seed)
    sample = [random_isolate_free_graph(rng.randint(3, 8), rng.uniform(0.3, 0.8), rng) for _ in range(25)]
    sample += [path_graph(9), corona(complete_graph(3)), subdivided_star(3, 1)]
    errors = 0
    for G in sample:
        try:
            gamma_t(G)
            upper_gamma_t(G)
            ooir(G)
            induced_matching_number(G)
            has_perfect_matching(G)
        except WitnessError:
            errors += 1
    return errors


def _round_trip_failures(seed: int, count: int) -> int:
    rng = random.Random(seed)
    failures = 0
    for _ in range(count):
        G = random_isolate_free_graph(rng.randint(2, 12), rng.uniform(0.2, 0.9), rng)
        for fmt in graphio.FORMATS:
            back = graphio.parse_graph(graphio.serialize_graph(G, fmt), fmt)
            if back.nbr != G.nbr:
                failures += 1
        # Serialization of a parsed graph must be canonical, i.e. idempotent.
        text = graphio.serialize_edgelist(G)
        if graphio.serialize_edgelist(graphio.parse_edgelist(text)) != text:
            failures += 1
    return failures


def _claim(
    criterion: int,
    instance: str,
    quantity: str,
    relation: str,
    expected: int,
    source: str,
    compute: Callable[[], int],
) -> Claim:
    return Claim(
        claim_id=f"A{criterion:02d}.{instance}.{quantity}",
        criterion=criterion,
        instance=instance,
        quantity=quantity,
        relation=relation,
        expected=expected,
        source=source,
        compute=compute,
    )


def _graph_claims(
    criterion: int, instance: str, G: Graph, source: str, **expected: int | tuple[str, int]
) -> list[Claim]:
    """One claim per keyword, in keyword order, each an ``INVARIANTS`` key of G.

    A value is an int, claimed with ``==``, or a ``(relation, value)`` pair:
    ``gti=3`` claims gti(G) == 3 and ``gtg=(">=", 10)`` claims gtg(G) >= 10.
    """
    claims = []
    for quantity, value in expected.items():
        relation, value = value if isinstance(value, tuple) else ("==", value)
        solve = INVARIANTS[quantity]
        compute = lambda solve=solve: int(solve(G))  # binds this quantity's solver
        claims.append(_claim(criterion, instance, quantity, relation, value, source, compute))
    return claims


def paper_claims() -> list[Claim]:
    """The full table of frozen expected values the suite recomputes."""
    claims: list[Claim] = []

    for n in range(2, 16):
        value = path_game_value(n)
        src = "gti(P_n) = UGT(P_n) = 2*floor((n+1)/3)"
        claims += _graph_claims(1, f"path{n}", path_graph(n), src, gti=value, ugt=value)

    for k in (2, 3, 4):
        spec = parse_family_spec(f"cyclepower:{2 * k + 3},{k}")
        src = "k-th power of the (2k+3)-cycle has UGT 2 < gti 3"
        claims += _graph_claims(2, spec.text(), family(spec), src, ugt=2, gti=3)

    for k, (v_gti, v_ugt, v_ooir) in ((1, (3, 2, 2)), (2, (6, 4, 4))):
        G = family(parse_family_spec(f"gk:{k}"))
        src = "joined-4-path chain: gti 3k, UGT 2k, OOIR 2k"
        claims += _graph_claims(3, f"gk{k}", G, src, gti=v_gti, ugt=v_ugt, ooir=v_ooir)

    for k in range(5, 9):
        G = family(parse_family_spec(f"fk:{k}"))
        src = "clique prism minus one rung: gti 4, OOIR k-1, gtg 3"
        claims += _graph_claims(4, f"fk{k}", G, src, gti=4, ooir=k - 1, gtg=3)

    for k in range(1, 6):
        G = family(parse_family_spec(f"bk:{k}"))
        src = "triangle bouquet with pendant: gti=gt=ugt=gtg=2, nui=k"
        claims += _graph_claims(5, f"bk{k}", G, src, gti=2, nui=k, gtg=2, gt=2, ugt=2)

    for k in range(1, 6):
        G = family(parse_family_spec(f"jk:{k}"))
        src = "4-cycle bouquet with pendant: gti k+1, nui k"
        claims += _graph_claims(6, f"jk{k}", G, src, gti=k + 1, nui=k)

    for k in range(3, 7):
        G = family(parse_family_spec(f"substar:{k},1"))
        src = "once-subdivided star: gti=UGT=2k, gtg=k+1"
        claims += _graph_claims(7, f"substar{k}-1", G, src, gti=2 * k, ugt=2 * k, gtg=k + 1)

    claims += _graph_claims(
        8,
        "substar4-3",
        family(parse_family_spec("substar:4,3")),
        "thrice-subdivided star, k=4: gti<=2k+2, OOIR=2k+2, nui=k+1, gtg>=5k/2",
        gti=("<=", 10),
        ooir=10,
        nui=5,
        gtg=(">=", 10),
    )

    for k in range(2, 6):
        G = family(parse_family_spec(f"corona:complete{k}"))
        src = "corona of the k-clique: gti=gt=ugt=k, gtg=k+1, 2*nui=2"
        claims += _graph_claims(9, f"corona-k{k}", G, src, gti=k, gt=k, ugt=k, gtg=k + 1, nui=1)

    rng = random.Random(0x1D5EED)
    for i in range(20):
        T, s = random_leaf_support_tree(rng)
        src = "leaf/support trees: gti = UGT = number of supports"
        claims += _graph_claims(10, f"lstree{i}", T, src, gti=s, ugt=s)

    src11 = "declaring more vertices dominated never raises the game value"
    for n in range(2, 6):
        claims.append(
            _claim(
                11,
                f"exhaustive-n{n}",
                "violations",
                "==",
                0,
                src11,
                lambda n=n: sum(
                    len(check_continuation(G, mode="exhaustive").violations)
                    for G in isolate_free_graphs(n)
                ),
            )
        )
    claims.append(
        _claim(
            11,
            "sampled-30x500",
            "violations",
            "==",
            0,
            src11,
            lambda: _sampled_continuation_violations(seed=0xC0317, graphs=30, samples=500),
        )
    )

    src12 = "invariant chain: gt<=ugt<=gti<=grt, ugt<=ooir<=grt, gt<=gtg<=grt, 2nui<=ooir (= if bipartite)"
    for n in range(2, 8):
        claims.append(
            _claim(12, f"exhaustive-n{n}", "violations", "==", 0, src12,
                   lambda n=n: _count_chain_violations(n))
        )

    src13 = "grundy value n on a tree exactly when a perfect matching exists"
    for n in range(2, 11):
        claims.append(
            _claim(13, f"trees-n{n}", "mismatches", "==", 0, src13,
                   lambda n=n: _count_grundy_matching_mismatches(n))
        )

    src14 = "scripted strategies pin the path value without the exact solver"
    for n in range(2, 16):
        bound = path_game_value(n)
        P = path_graph(n)
        claims.append(
            _claim(
                14,
                f"path{n}",
                "dominator-script",
                "<=",
                bound,
                src14,
                lambda P=P, n=n: best_response_length(P, None, dominator_path_policy(n)),
            )
        )
        claims.append(
            _claim(
                14,
                f"path{n}",
                "staller-script",
                ">=",
                bound,
                src14,
                lambda P=P: best_response_length(P, None, staller_partition_policy(P)),
            )
        )

    claims.append(
        _claim(
            15,
            "additivity-50",
            "failures",
            "==",
            0,
            "game value adds over disjoint components",
            lambda: _component_additivity_failures(seed=0xADD17, instances=50),
        )
    )
    claims.append(
        _claim(
            15,
            "witnesses",
            "errors",
            "==",
            0,
            "every optimisation witness revalidates against its predicate",
            lambda: _witness_revalidation_errors(seed=0x317255),
        )
    )
    claims.append(
        _claim(
            15,
            "round-trips",
            "failures",
            "==",
            0,
            "parse/serialize round-trips are exact for both formats",
            lambda: _round_trip_failures(seed=0x60D, count=100),
        )
    )
    return claims


def run_paper_suite(
    claims: list[Claim] | None = None, criteria: Iterable[int] | None = None
) -> SuiteReport:
    """Recompute every frozen expected value; failures become report rows.

    A claim whose computation raises becomes an error row (``computed`` is
    None, ``error`` names the exception) and the rest of the suite still
    runs.  The report is deterministic apart from the per-row timing field,
    and a run over the default claim table is the acceptance gate for the
    package.  A requested criterion with no claim raises ValueError.
    """
    if claims is None:
        claims = paper_claims()
    if criteria is not None:
        wanted = set(criteria)
        missing = wanted - {c.criterion for c in claims}
        if missing:
            raise ValueError(f"no claims for criterion {', '.join(map(str, sorted(missing)))}")
        claims = [c for c in claims if c.criterion in wanted]
    rows = []
    for claim in claims:
        start = time.perf_counter()
        computed, error = None, None
        try:
            computed = claim.compute()
        except Exception as exc:  # one broken claim must not hide the rest
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        ok = error is None and _RELATIONS[claim.relation](computed, claim.expected)
        rows.append(SuiteRow(**vars(claim), computed=computed, ok=ok, seconds=elapsed, error=error))
    return SuiteReport(tuple(rows))
