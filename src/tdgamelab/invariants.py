"""Exact computation of the non-game invariants.

Up to ``TABLE_ORDER_CAP`` (7) the four optimisation invariants, like the
three games, read whole tables: ``_subset_table`` builds, once per graph,
2**n-bit bitmaps over every vertex subset S of the TD-sets, the
OO-irredundant sets and the sets inducing a 1-regular subgraph, and
``_table_optimum`` reads each value off the size layers of
``games._subsets(n)`` and each witness by the same lexicographic
tie-break as the searches.  A one-entry cache shares the table across
the four calls that ``survey_row`` makes.  On tdbench's survey7 workload
this took the median wall time from 0.313 s to 0.240 s, faster in 10 of
10 alternated pairs (2-core Xeon VM, Python 3.11, 2026-10-21, commit
8cbbf92, ``BENCH_subset_tables.json``).

Above the cap they run branch-and-bound search over bitmask subsets;
every prune is exact and there are no special-case shortcuts, so the
returned values are exact for every graph within SOLVER_CAP.  γt is a
depth-first search through the sizes k = ⌈n/Δ⌉, ⌈n/Δ⌉ + 1, ... and, within
each size, the k-subsets in lexicographic order, cut by a degree bound and
a reach bound on the undominated vertices.  Γt and OOIR come from one
depth-first search over OO-irredundant sets in lexicographic order, which
keeps two bests side by side, the largest set that dominates V and the
largest set, and is cached for one graph, so ``upper_gamma_t`` and
``ooir`` of one graph search once.  It carries the vertices dominated once
and twice from node to node and is cut by three prunes: a candidate mask
of the later vertices that keep the set OO-irredundant (exact, as
OO-irredundance is closed under subsets), a cover limit per node past
which an undominated vertex has no neighbour among the candidates, so
only the second best can gain, and a size bound on the set plus its
candidates against the first best, or past the cover limit the second.
The search runs once per part of V under "shares a neighbour"
(``G.near``), e.g. once per colour class of a connected bipartite graph,
and adds the parts' sizes and joins their sets.  That is exact: the
neighbours of one vertex all lie in one part, so a set is OO-irredundant
(and dominates V) exactly when each part's share is OO-irredundant (and
dominates the part's neighbourhood); and as the parts are disjoint, the
union of each part's lexicographically first largest set is the whole
graph's.  Every optimum comes with a witness that is
re-checked against the defining predicate before being returned, and ties
are broken toward the lexicographically smallest witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .games import TABLE_ORDER_CAP, _byte_lanes, _columns, _subsets
from .graph import (
    Graph,
    VertexSet,
    bits,
    components,
    is_open_open_irredundant,
    is_total_dominating,
    max_degree,
    require_isolate_free,
)

Edge = tuple[int, int]

GAMMA_T = "gamma_t"
UPPER_GAMMA_T = "upper_gamma_t"
OOIR = "ooir"
INDUCED_MATCHING = "induced_matching"
PERFECT_MATCHING = "perfect_matching"


@dataclass(frozen=True)
class InvariantValue:
    """One computed invariant: its kind, optimal value, and certifying witness."""

    kind: str
    value: int | bool
    witness: VertexSet | tuple[Edge, ...] | None

    def __int__(self) -> int:
        return int(self.value)


class WitnessError(RuntimeError):
    """Internal consistency failure: a computed witness failed revalidation."""


def _certify(condition: bool, kind: str) -> None:
    if not condition:
        raise WitnessError(f"computed witness for {kind} failed revalidation")


@lru_cache(maxsize=1)
def _subset_table(nbr: tuple[int, ...]) -> tuple[int, int, int]:
    """TD, OOIR and IM: 2**n-bit bitmaps over the vertex subsets S of a graph.

    ``nbr`` is ``G.nbr`` with n = len(nbr) <= TABLE_ORDER_CAP.  With C_v
    column v of ``_columns(n)`` (the S holding v), once_w and exact_w are
    the S with at least one and exactly one neighbour of w.  TD, the
    TD-sets, is ⋀_w once_w.  A member's private neighbours are its
    neighbours w in exact_w, so OOIR, the OO-irredundant sets, is
    ⋀_s (¬C_s ∨ ⋁_{w ∈ N(s)} exact_w), and IM, the sets inducing a
    1-regular subgraph, is ⋀_v (¬C_v ∨ exact_v).  Neighbourhoods are read
    off lane 0 of ``_byte_lanes()``.  The cache holds one graph, so the
    four invariants of one ``survey_row`` build the table once.
    """
    n = len(nbr)
    cols, members = _columns(n), _byte_lanes()[0]
    td = oo = im = (1 << (1 << n)) - 1
    exact = []
    for w in range(n):
        once = twice = 0
        for u in members[nbr[w]]:
            twice |= once & cols[u]
            once |= cols[u]
        td &= once
        exact.append(once & ~twice)
    for s in range(n):
        private = 0
        for w in members[nbr[s]]:
            private |= exact[w]
        oo &= ~cols[s] | private
        im &= ~cols[s] | exact[s]
    return td, oo, im


def _table_optimum(G: Graph, kind: str) -> tuple[int, int]:
    """Value and witness mask of invariant ``kind`` off ``_subset_table``, for n <= TABLE_ORDER_CAP.

    The value is the least size layer (``_subsets(n).layers``) that TD
    meets for γt, and the largest that TD ∧ OOIR, OOIR or IM meets for Γt,
    ooir and νI (halved for νI).  The witness keeps the searches'
    tie-break.  The optimal sets X are cut to X ∧ C_v for v = 0, 1, ...,
    n - 1 whenever that is non-empty, which leaves the lexicographically
    first.  For νI the cuts are X ∧ C_a ∧ C_b over the edges (a, b) in
    ``G.edges()`` order, which leaves the matching whose tuple of edge
    indices is first.
    """
    n, nbr = G.n, G.nbr
    td, oo, im = _subset_table(nbr)
    layers, cuts = _subsets(n).layers, _columns(n)
    if kind == GAMMA_T:
        sets, size, step = td, 0, 1
    else:
        sets, size, step = {UPPER_GAMMA_T: td & oo, OOIR: oo, INDUCED_MATCHING: im}[kind], n, -1
    while not sets & layers[size]:
        size += step
    found = sets & layers[size]
    if kind == INDUCED_MATCHING:  # the edges (a, b), a < b, in G.edges() order
        cuts = [cuts[a] & cuts[b] for a in range(n) for b in _byte_lanes()[0][nbr[a] & -2 << a]]
        size //= 2
    for cut in cuts:
        if found & cut:
            found &= cut
    return size, found.bit_length() - 1


def gamma_t(G: Graph) -> InvariantValue:
    """Total domination number: minimum cardinality of a TD-set.

    The witness is the lexicographically first TD-set of the smallest size,
    read off the table up to TABLE_ORDER_CAP and found by the search in
    ``_first_smallest_td_set`` above it.
    """
    require_isolate_free(G)
    if G.n <= TABLE_ORDER_CAP:
        size, mask = _table_optimum(G, GAMMA_T)
    else:
        chosen = _first_smallest_td_set(G)
        size, mask = len(chosen), VertexSet.of(G.n, chosen).mask
    witness = VertexSet(G.n, mask)
    _certify(is_total_dominating(G, witness) and len(witness) == size, GAMMA_T)
    return InvariantValue(GAMMA_T, size, witness)


def _first_smallest_td_set(G: Graph) -> list[int]:
    """Members, in increasing order, of the lexicographically first smallest TD-set.

    Tries the sizes k = ⌈n/Δ⌉, ⌈n/Δ⌉ + 1, ... in turn, where Δ is the
    maximum degree; no smaller set dominates all n vertices.  For each k, a
    depth-first search picks the members in increasing order, so it meets
    the k-subsets in lexicographic order and the first TD-set it finds is
    the answer.  Two exact prunes cut a branch that can no longer be
    completed, with ``left`` picks still to make:

    - degree prune: the undominated vertices number at most ``left · Δ``;
    - reach prune: each undominated vertex has a neighbour among the
      candidates still open, tested as ``und & ~reach[v] == 0`` with the
      suffix unions ``reach[v] = nbr[v] | ... | nbr[n-1]``.

    ``G`` must be isolate-free; the order-0 graph gives the empty set.
    """
    n = G.n
    nbr = G.nbr
    chosen: list[int] = []
    if not n:
        return chosen
    delta = max_degree(G)
    reach = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        reach[v] = reach[v + 1] | nbr[v]

    def search(und: int, start: int, left: int) -> bool:
        """Push onto ``chosen`` the lexicographically first ``left``
        candidates from ``start`` on that dominate ``und``; True when they
        exist."""
        left -= 1
        cap = left * delta
        for v in range(start, n - left):
            if und & ~reach[v]:
                return False  # reach prune, for v and every later candidate
            rest = und & ~nbr[v]
            # The degree prune also ends each branch at its k-th pick: with
            # ``left`` at 0 the cap is 0, so a last pick that leaves a vertex
            # undominated is skipped.  Without it P_3 gets a TD-set of 3.
            if rest.bit_count() > cap:
                continue  # degree prune
            chosen.append(v)
            # No smaller TD-set exists, so ``rest`` empties only on the last pick.
            if not rest or search(rest, v + 1, left):
                return True
            chosen.pop()
        return False

    for k in range(-(-n // delta), n + 1):
        if search(G.full_mask, 0, k):
            return chosen
    raise AssertionError("isolate-free graph admits V(G) as a TD-set")


@lru_cache(maxsize=1)
def _irredundant_optima(G: Graph) -> tuple[tuple[int, int], tuple[int, int]]:
    """Size and mask of the first largest OO-irredundant set dominating N(V), and of the first largest.

    On an isolate-free graph the first pair is Γt, as the OO-irredundant
    TD-sets are the minimal TD-sets, and the second is ooir.  One
    depth-first search adds members in increasing order, so it meets the
    sets in lexicographic order, and keeps two bests side by side: ``td``,
    the largest set so far that dominates ``goal``, and ``any``, the
    largest so far.  Each is replaced only on a strict size gain, so the
    lexicographically smallest of the largest admitted sets is kept, and
    ``td`` is never larger than ``any``.  Each node carries ``once`` and
    ``twice``, the vertices with at least one and at least two neighbours
    in the set, updated per added vertex ``v`` as ``twice |= once & nbr[v]``
    and ``once |= nbr[v]``; a member's private neighbours are its
    neighbours in ``once & ~twice``.  Three exact prunes cut the search:

    - candidate mask: a node keeps only the later vertices whose addition
      leaves the set OO-irredundant.  OO-irredundance is closed under
      subsets, so a vertex that fails here fails in every superset too.
      Adding ``v`` can only take the last private neighbour of ``v`` itself
      or of a member whose private neighbours meet ``nbr[v]``, so a child
      re-checks only those members, and only the candidates sharing a
      neighbour with ``v`` for a private neighbour of their own;
    - cover limit: the least, over the vertices of ``goal`` outside
      ``once``, of their highest candidate neighbour.  Past it one of them
      has no neighbour left among the candidates, so no set there counts
      for ``td``;
    - size bound: a node's loop ends once its size plus its candidates is
      at most ``td``'s size, as neither best can gain, and past the cover
      limit once it is at most ``any``'s.  A child is searched when it can
      beat ``any``, or, at or before the cover limit, ``td``.

    The search runs once per part P of ``components(G.near, G.full_mask)``,
    with the candidates limited to P and ``goal`` to N(P), and the parts'
    sizes add and their masks join.  Two facts make this exact.  A vertex's
    neighbours all share it, so they lie in one part: a member's private
    neighbours and the vertices it dominates lie in N(P), which no vertex of
    another part touches, so a set is OO-irredundant (and dominates V)
    exactly when each part's share is OO-irredundant (and dominates N(P)).
    And the first difference of two unions over disjoint parts is the first
    difference within one part, so the lexicographically first largest set
    of the whole is the union of each part's.  A graph with one part, such
    as every connected graph with an odd cycle, runs one search.  The cache
    holds one graph, so ``upper_gamma_t`` and ``ooir`` of one graph search
    once.
    """
    n, nbr = G.n, G.nbr
    # near[v]: the vertices sharing a neighbour with v, the only candidates
    # whose own private neighbours adding v can take.
    near = G.near
    td_size = td_mask = any_size = any_mask = goal = 0

    def extend(size: int, mask: int, once: int, twice: int, cands: int) -> None:
        nonlocal td_size, td_mask, any_size, any_mask
        need = goal & ~once
        if size > any_size:
            any_size, any_mask = size, mask
        if size > td_size and not need:
            td_size, td_mask = size, mask
        limit = n
        while need and limit >= 0:  # at -1 a vertex of need has no candidate neighbour
            w = need.bit_length() - 1
            need ^= 1 << w
            top = (nbr[w] & cands).bit_length() - 1
            if top < limit:
                limit = top
        left = cands.bit_count()
        while cands:
            if size + left <= td_size:
                return  # size bound
            v = (cands & -cands).bit_length() - 1
            if v > limit and size + left <= any_size:
                return  # size bound past the cover limit, for v and every later candidate
            left -= 1
            cands ^= 1 << v
            nv = nbr[v]
            grown_twice = twice | once & nv
            grown_once = once | nv
            private = grown_once & ~grown_twice
            rest = cands
            probe = cands & near[v]
            while probe:
                w = probe.bit_length() - 1
                probe ^= 1 << w
                if not nbr[w] & ~grown_once:
                    rest ^= 1 << w  # w would have no private neighbour
            # v, and each member whose private neighbour v now dominates too.
            owners = 1 << v
            lost = once & nv & ~twice
            while lost:
                x = lost.bit_length() - 1
                lost ^= 1 << x
                owners |= nbr[x] & mask
            while owners:
                u = owners.bit_length() - 1
                owners ^= 1 << u
                # A candidate adjacent to all of u's private neighbours would
                # take the last of them.
                killers = rest
                own = nbr[u] & private
                while own and killers:
                    x = own.bit_length() - 1
                    own ^= 1 << x
                    killers &= nbr[x]
                rest &= ~killers
            room = size + rest.bit_count()
            # Else the child's size bound cuts it; past the limit only ``any`` counts.
            if room >= any_size or room >= td_size and v <= limit:
                extend(size + 1, mask | 1 << v, grown_once, grown_twice, rest)

    td_total = td_union = any_total = any_union = 0
    for part in components(near, G.full_mask):
        # A vertex with no neighbour has no private neighbour.
        cands = goal = 0
        rest = part
        while rest:
            low = rest & -rest
            rest ^= low
            m = nbr[low.bit_length() - 1]
            if m:
                cands |= low
                goal |= m  # N(P), which only members of P dominate
        td_size = td_mask = any_size = any_mask = 0
        extend(0, 0, 0, 0, cands)
        td_total += td_size
        td_union |= td_mask
        any_total += any_size
        any_union |= any_mask
    return (td_total, td_union), (any_total, any_union)


def upper_gamma_t(G: Graph) -> InvariantValue:
    """Upper total domination number: maximum cardinality of a minimal TD-set.

    A TD-set is minimal exactly when every member keeps an open private
    neighbor, i.e. when it is OO-irredundant.  So Γt is the largest
    OO-irredundant set that also totally dominates G, and the witness is
    the lexicographically smallest minimal TD-set of that size, both read
    off ``_irredundant_optima``, or up to TABLE_ORDER_CAP off the table.
    """
    require_isolate_free(G)
    if G.n <= TABLE_ORDER_CAP:
        size, mask = _table_optimum(G, UPPER_GAMMA_T)
    else:
        size, mask = _irredundant_optima(G)[0]
    witness = VertexSet(G.n, mask)
    # A minimal TD-set is an OO-irredundant TD-set; testing the two
    # conditions, rather than ``is_minimal_total_dominating``, tests
    # domination once, and a non-TD-set fails as a faulty search instead of
    # being rejected as a bad input.
    _certify(
        is_total_dominating(G, witness)
        and is_open_open_irredundant(G, witness)
        and len(witness) == size,
        UPPER_GAMMA_T,
    )
    return InvariantValue(UPPER_GAMMA_T, size, witness)


def ooir(G: Graph) -> InvariantValue:
    """Open-open irredundance number: maximum set where every member has an
    open private neighbor.

    The second best of ``upper_gamma_t``'s search, which admits every set;
    the witness is the lexicographically smallest OO-irredundant set of
    maximum size.  Up to TABLE_ORDER_CAP both are read off the table instead.
    """
    if G.n <= TABLE_ORDER_CAP:
        size, mask = _table_optimum(G, OOIR)
    else:
        size, mask = _irredundant_optima(G)[1]
    witness = VertexSet(G.n, mask)
    _certify(is_open_open_irredundant(G, witness) and len(witness) == size, OOIR)
    return InvariantValue(OOIR, size, witness)


def _matched_vertices(G: Graph, edges: tuple[Edge, ...]) -> int | None:
    """The mask of the ends of ``edges`` when they form a matching of G, else None."""
    seen = 0
    for u, v in edges:
        if not G.has_edge(u, v):
            return None
        pair = 1 << u | 1 << v
        if seen & pair:
            return None
        seen |= pair
    return seen


def is_induced_matching(G: Graph, edges: tuple[Edge, ...]) -> bool:
    """True when ``edges`` induce a 1-regular subgraph of G."""
    seen = _matched_vertices(G, edges)
    if seen is None:
        return False
    for u, v in edges:
        # No edge of G may leave {u, v} toward another matched vertex.
        if (G.nbr[u] | G.nbr[v]) & seen & ~(1 << u | 1 << v):
            return False
    return True


def _conflict_masks(G: Graph, edges: list[Edge]) -> list[int]:
    """Per edge (a, b), the mask of ``edges`` with an end in N[a] ∪ N[b], itself included."""
    ends = [0] * G.n  # ends[x]: the edges with an end at x
    for i, (a, b) in enumerate(edges):
        ends[a] |= 1 << i
        ends[b] |= 1 << i
    touch = []  # touch[x]: the edges with an end in N[x]
    for x, m in enumerate(G.nbr):
        reach = ends[x]
        while m:
            low = m & -m
            reach |= ends[low.bit_length() - 1]
            m ^= low
        touch.append(reach)
    return [touch[a] | touch[b] for a, b in edges]


def induced_matching_number(
    G: Graph, candidate_edges: list[Edge] | None = None
) -> InvariantValue:
    """Induced matching number: maximum set of edges no edge of G joins.

    ``candidate_edges`` optionally restricts the search to a subset of the
    edge set (used e.g. to probe matchings built from pendant edges only);
    the value is then the maximum over induced matchings inside that subset.
    Up to TABLE_ORDER_CAP, without ``candidate_edges``, the value and
    witness are read off the table; otherwise ``_first_largest_induced_matching``
    searches.  Either way the witness is the first largest induced matching
    by its tuple of edge indices.
    """
    if candidate_edges is None and G.n <= TABLE_ORDER_CAP:
        size, mask = _table_optimum(G, INDUCED_MATCHING)
        witness = tuple((a, b) for a in bits(mask) for b in bits(G.nbr[a] & mask & -2 << a))
    else:
        if candidate_edges is None:
            edges = G.edges()
        else:
            edges = sorted({tuple(sorted(e)) for e in candidate_edges})
            for u, v in edges:
                if not G.has_edge(u, v):
                    raise ValueError(f"candidate edge ({u}, {v}) is not an edge of the graph")
        witness = _first_largest_induced_matching(G, edges)
        size = len(witness)
    _certify(is_induced_matching(G, witness) and len(witness) == size, INDUCED_MATCHING)
    return InvariantValue(INDUCED_MATCHING, size, witness)


def _first_largest_induced_matching(G: Graph, edges: list[Edge]) -> tuple[Edge, ...]:
    """The largest induced matching within ``edges`` whose tuple of edge indices is first.

    The search adds edges in index order and drops from the candidates the
    edges with an end in the closed neighbourhood of an added edge's end.
    A best set is replaced only on a strict size gain, so the first of the
    largest is kept.
    """
    conflict = _conflict_masks(G, edges)

    best_size = 0
    best: tuple[int, ...] = ()

    def extend(chosen: tuple[int, ...], cand: int) -> None:
        nonlocal best_size, best
        if len(chosen) > best_size:
            best_size, best = len(chosen), chosen
        while cand:
            if len(chosen) + cand.bit_count() <= best_size:
                return
            i = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            extend(chosen + (i,), cand & ~conflict[i])

    extend((), (1 << len(edges)) - 1)
    return tuple(edges[i] for i in best)


def is_perfect_matching(G: Graph, edges: tuple[Edge, ...]) -> bool:
    return _matched_vertices(G, edges) == G.full_mask


def has_perfect_matching(G: Graph) -> InvariantValue:
    """Perfect-matching existence with a witness matching when one exists.

    Exhaustive search matching the lowest unmatched vertex first, memoised
    on the set of unmatched vertices; exact at this scale.
    """
    if G.n % 2 == 1 or not G.is_isolate_free():
        return InvariantValue(PERFECT_MATCHING, False, None)
    nbr = G.nbr
    memo: dict[int, tuple[Edge, ...] | None] = {}

    def solve(mask: int) -> tuple[Edge, ...] | None:
        if mask == 0:
            return ()
        if mask in memo:
            return memo[mask]
        v = (mask & -mask).bit_length() - 1
        result = None
        for u in bits(nbr[v] & mask):
            rest = solve(mask & ~(1 << v) & ~(1 << u))
            if rest is not None:
                result = ((v, u),) + rest
                break
        memo[mask] = result
        return result

    matching = solve(G.full_mask)
    if matching is None:
        return InvariantValue(PERFECT_MATCHING, False, None)
    _certify(is_perfect_matching(G, matching), PERFECT_MATCHING)
    return InvariantValue(PERFECT_MATCHING, True, matching)
