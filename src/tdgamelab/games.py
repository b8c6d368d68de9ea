"""Exact engines for the sequential total domination invariants.

All three games run over bitmask states.  The key observation for the
indicated game is that the dominated mask alone determines the rest of the
game: legal indications depend only on the mask, the replies available for
an indicated vertex are its whole open neighborhood regardless of what was
played before, and every round grows the built set by exactly one vertex.
Tables therefore key on the dominated mask (plus the player to move for
the alternating game), are private to one solve, and are discarded
afterward.

Up to ``TABLE_ORDER_CAP`` (7) no engine runs: ``gti``, ``gtg`` and
``grundy_t`` read their values off whole tables over all 2**n dominated
masks, one 2**n-bit int per table and round (``_value_levels``,
``_gtg_rounds``, ``_grundy_rounds``).  A round costs one or two
big-integer products per neighbourhood, all three games' from one list
(``_move_products``), where the engines pay memo reads, splits and move
sorting per position.  Over a relabeled copy of the 1,043 graphs with
n <= 7 (in-process, best of 9), γti took 12.6 ms against 24 ms through
the engine, γtg 9.0 against 28-29 ms and γgrt 9.3 against 15 ms.  The
cap is the last order whose per-order tables (``_columns`` and
``_subsets``: 2**n bitmaps of 2**n bits) are cached, and
``_value_levels`` reads vertex tuples off one byte lane, which holds
only n <= 8.  Above it the gain shrinks, and γgrt's is gone by n = 10:
on 40 random G(n, p) per order with the cap raised, γgrt's rounds took
43 µs a graph against the engine's 43-46 µs at n = 10 and 123-129
against 53-59 µs at n = 11, while γti's (40-42 against 103-106 µs) and
γtg's (48-51 against 136-153 µs) still won at n = 10.  These timings
are from a 2-core Xeon VM under Python 3.11, 2026-10-20, against the
engines of commit 9e51b4a.

The indicated game (γti) and the Grundy sequence (γgrt) run on one
engine, ``_SplitMemo``: an exact value per mask, where a position whose
undominated vertices fall into components is the sum of its components'
values (see its docstring).  Each game adds only the scan of a position
that does not split.  One ``IndicatedGameSolver`` answers queries for many
masks off the same table, and a table of bounds would send those queries
back into re-searches.  The alternating game (γtg) runs a fail-soft
negamax alpha-beta search, ``_alphabeta``, because only the root value is
wanted: one rule serves both players, and per-turn tables keep proven
lower and upper bounds on each position's score (its value at turn 0,
minus its value at turn 1).  The mask search runs it over dominated
masks and the class search, on graphs that split, over component
classes (see below); both return the tables with the value.

γtg splits in a weaker sense.  Its positions are move-count positions: a
move plays some w with N(w) ∩ U non-empty and removes that set from U, so
a position matters only through its residual, the set system
{N(w) ∩ U}, up to a relabeling of U.  The residual falls into the
components of ``_SplitMemo``, and a move changes only the component of
the set it removes.  The class search therefore keeps a position as its
turn and the sorted tuple of its components' classes.  A class is a
component's distinct sets, relabeled breadth-first from its lowest vertex
of least signature and sorted, and interned to a small int per solve.
The code is a relabeling of the component, so equal codes are isomorphic
set systems and sharing a value between them is exact whatever the
start; a code that gave more isomorphic copies one code would only share
more.  γtg has no sum rule (Dorbec, Košmrlj and Renault, Discrete
Math. 2015), but its value is a function of the turn and the multiset of
classes, which ``_alphabeta`` keys on.

The class search also drops moves that cannot be best.  Henning,
Klavžar and Rall (Graphs Combin. 2015) prove the Total Continuation
Principle: γtg(G|A) <= γtg(G|B) whenever B ⊆ A, with either player to
start.  For two sets e ⊊ f of one class, playing f leaves a dominated
superset of what playing e leaves, at the same turn, so the position
after f is worth at most the one after e.  Staller, the maximiser, thus
needs only a class's inclusion-minimal sets and Dominator only its
inclusion-maximal ones; sets of different classes touch disjoint
vertices and are never compared.  Each dropped child is bounded by a
kept one, so the value and every stored bound stay exact.  On
``path:19`` the search reads 3,180 children instead of 4,894, and on
``corona:path10`` 1,291 instead of 3,862.  The mask search keeps every
move, as a filter per mask costs more there than it saves.

The class search pays for canonical codes and tuple keys, which only
sharing repays.  Unless V itself splits, the root is one class and most
positions stay one large class: on G(22, 0.15) γtg took 0.8 s against
0.08 s, while odd cycles and coronas of odd cycles ran 10-670x faster,
and no static test found so far tells the two kinds apart.  Hence the
rule above ``TABLE_ORDER_CAP``: γtg takes the class search exactly when
V splits, that is when G is bipartite or disconnected, and the mask
search otherwise.  On split graphs of order 8-10 (random trees,
bipartite graphs with edge probability 0.25 and 0.6 across the sides,
unions of two G(k, 0.5) parts; 20 relabeled ones per row and seed, three
seeds, best of 3) the class search took a median of 1.0-3.6x the mask
search's time per row, and at most 0.9 ms more a graph.  These timings
are from a 2-core Xeon VM under Python 3.11, 2026-10-21, commit c2e829d.

A ``Policy`` plays one side of the indicated game.  It sees a position as
its dominated mask, which is what the best-response memo keys on.  The
mask fixes the rest of the game, so each side has an optimal strategy that
reads it alone (``best_indication`` and ``best_selection``), and a policy
that read the history could certify no bound beyond a positional one's.
``best_response_length`` solves the other side exactly against a policy,
and ``play_game`` plays two policies out.  The best response consults the
policy at every position it reaches, so its cost is the walk over each
position's vertices: it reads them a byte of the mask at a time from a
table of vertex tuples built once (``_byte_lanes``), not bit by bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache
from typing import Callable, NamedTuple, Sequence

from .graph import (
    SOLVER_CAP,
    Graph,
    VertexSet,
    bits,
    components,
    lowest_component,
    max_degree,
    require_isolate_free,
)


class Role(Enum):
    DOMINATOR = "dominator"
    STALLER = "staller"


class PolicyError(RuntimeError):
    """A policy was built for another graph or returned an illegal move; names the position."""


@dataclass(frozen=True)
class Policy:
    """Deterministic move rule for one player on ``graph``.

    A Dominator chooser maps ``dominated`` to the vertex to indicate, which
    must not be dominated yet; a Staller chooser maps ``(dominated,
    indicated)`` to its reply, a neighbour of the indicated vertex.
    ``dominated`` is the int mask of the declared set and the open
    neighbourhoods of everything played, which fixes the rest of the game.
    Both drivers reject a policy whose graph has other neighbourhoods than
    the game's, once, before the first consultation.
    """

    role: Role
    name: str
    graph: Graph
    chooser: Callable


class _SplitMemo:
    """An exact value per dominated mask, split over the components of a position.

    ``value(M)`` is the value of the position whose dominated mask is M.
    A round of the indicated game that indicates v ends with a reply x in
    N(v), which newly dominates only vertices of N(x), and each of those
    shares the neighbour x with v.  A γgrt move plays some w and removes
    N(w) ∩ U from the undominated set U, and each vertex of that set shares
    the neighbour w.  So U falls into components under "shares a
    neighbour", a round or a move changes only one component, and the
    moves played in one component leave the others as they were.  In the
    indicated game Staller answers inside the component Dominator chose and
    every round counts one; a longest sequence is a longest sequence in
    each component.  Either way the value of a position is the sum of the
    values of its components, each played alone: the same additivity as
    over disjoint unions, applied inside one graph.  On a bipartite graph no
    two vertices of different colour share a neighbour, so paths, cycles
    and trees fall into small pieces.

    So when U splits, the value is that of the lowest vertex's component K
    played alone plus that of the rest, value(V - K) + value(M | K), each
    read through the same memo.  A position that does not split goes to the
    subclass's ``_scan(mask, undominated)``, which scans its moves and may
    stop once the remaining choices cannot change the value.  Every
    recursion goes through ``self.value``.
    """

    def __init__(self, G: Graph):
        require_isolate_free(G)
        self._nbr = G.nbr
        # near[v] = N(N(v)): the vertices that share a neighbour with v,
        # which are all that a reply to v can newly dominate.
        self._near = G.near
        self._full = G.full_mask
        self._memo: dict[int, int] = {self._full: 0}

    def value(self, mask: int) -> int:
        memo = self._memo
        cached = memo.get(mask)
        if cached is not None:
            return cached
        full = self._full
        if not 0 <= mask <= full:
            raise ValueError(f"mask {mask} is outside 0..{full}")
        undominated = ~mask & full
        part = lowest_component(self._near, undominated)
        if part != undominated:
            best = self.value(full ^ part) + self.value(mask | part)
        else:
            best = self._scan(mask, undominated)
        memo[mask] = best
        return best

    def _scan(self, mask: int, undominated: int) -> int:
        raise NotImplementedError


class IndicatedGameSolver(_SplitMemo):
    """Minimax value of the indicated game from any dominated mask.

    ``value(M)`` is the number of further selections under optimal play
    when the vertices of M are already totally dominated, i.e. the game
    value of the partially total dominated graph.  One instance answers
    queries for every mask of the same graph off a shared memo table.  The
    split (see ``_SplitMemo``) changes no value, so ``best_indication`` and
    ``best_selection``, which compare the values of the positions after
    each move, keep their smallest-index choices.  A mask outside
    0..full_mask or a vertex outside 0..n-1 raises ValueError.
    """

    def __init__(self, G: Graph):
        super().__init__(G)
        self._delta = max_degree(G)

    def _scan(self, mask: int, undominated: int) -> int:
        nbr = self._nbr
        best = self._full.bit_count() + 1
        # Each selection dominates at most Delta new vertices.
        floor = -(-undominated.bit_count() // self._delta)
        rest = undominated
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            # Staller answers with any neighbor of v.  A reply that was
            # already played cannot occur here: a played vertex has its whole
            # neighborhood dominated, so v would not have been indicatable.
            worst = 0
            replies = nbr[v]
            while replies:
                u = (replies & -replies).bit_length() - 1
                replies &= replies - 1
                sub = self.value(mask | nbr[u])
                if sub > worst:
                    worst = sub
                    if worst + 1 >= best:
                        break  # v cannot beat the best indication so far
            if worst + 1 < best:
                best = worst + 1
                if best <= floor:
                    break
        return best

    def best_indication(self, mask: int) -> int:
        """Smallest-index optimal vertex for Dominator to indicate."""
        if mask == self._full:
            raise ValueError("game already complete")
        target = self.value(mask)
        for v in bits(~mask & self._full):
            worst = 0
            for u in bits(self._nbr[v]):
                worst = max(worst, self.value(mask | self._nbr[u]))
                if worst + 1 > target:
                    break  # v is not optimal; its other replies cannot help it
            if worst + 1 == target:
                return v
        raise AssertionError("no indication achieves the minimax value")

    def best_selection(self, mask: int, indicated: int) -> int:
        """Smallest-index optimal reply for Staller to the indicated vertex."""
        if not 0 <= indicated < len(self._nbr):
            raise ValueError(f"vertex {indicated} is outside 0..{len(self._nbr) - 1}")
        if not 0 <= mask <= self._full:
            raise ValueError(f"mask {mask} is outside 0..{self._full}")
        if mask >> indicated & 1:
            raise ValueError(f"vertex {indicated} is already dominated")
        best_u = -1
        worst = -1
        for u in bits(self._nbr[indicated]):
            val = self.value(mask | self._nbr[u])
            if val > worst:
                worst = val
                best_u = u
        if best_u < 0:
            raise AssertionError("indicated vertex has no neighbors")
        return best_u


def gti(G: Graph, declared: VertexSet | None = None) -> int:
    """Indicated total domination number of G, or of G with a declared set.

    Dominator indicates undominated vertices to minimise, Staller selects
    replies from their neighborhoods to maximise, and the value counts the
    selections made when both play optimally.  Up to ``TABLE_ORDER_CAP``
    ``_level_values`` reads the value off the levels of ``_value_levels(G)``;
    above it an ``IndicatedGameSolver`` answers.
    """
    if G.n > TABLE_ORDER_CAP:
        solver = IndicatedGameSolver(G)  # rejects isolated vertices
        return solver.value(_declared_mask(G, declared))
    require_isolate_free(G)
    mask = _declared_mask(G, declared)
    return _level_values(_value_levels(G), G.n)(mask)


def _declared_mask(G: Graph, declared: VertexSet | None) -> int:
    if declared is None:
        return 0
    if declared.n != G.n:
        raise ValueError("declared set capacity does not match the graph")
    return declared.mask


def gtg(G: Graph) -> int:
    """Game total domination number (Dominator-start game).

    Players alternate, every move must totally dominate a new vertex,
    Dominator minimises and Staller maximises the total number of moves.
    Up to ``TABLE_ORDER_CAP`` the value is read off ``_gtg_rounds``.
    Above it, a graph whose vertex set splits under "shares a neighbour"
    (a bipartite or disconnected one) takes the class search, and any
    other graph the mask search.
    """
    require_isolate_free(G)
    if G.n <= TABLE_ORDER_CAP:
        return _gtg_rounds(G)
    parts = components(G.near, G.full_mask)
    if len(parts) > 1:
        return _class_search(G, parts)[0]
    return _mask_search(G)[0]

# One of ``_alphabeta``'s lower or upper tables: score bounds per position, indexed by turn.
_Bounds = tuple[dict, dict]


def _alphabeta(root, count: int, moves: Callable, delta: int) -> tuple[int, _Bounds, _Bounds]:
    """Exact γtg move count from ``root``, which has ``count`` undominated vertices, and the tables.

    ``moves(pos, turn)`` maps children of a position to their numbers of
    undominated vertices.  It may leave out a child at a turn only if a
    child it keeps is worth at least as much to the player to move, so the
    best kept child is a best child and every bound proved over the kept
    children holds over all of them.  The maximiser (turn 0) and the
    minimiser (turn 1) alternate, and the minimiser starts.  A position's
    score is its value at turn 0 and minus its value at turn 1, so with
    ``sign`` +1 or -1 for those turns it is the best of
    ``sign - score(child)``: one negamax rule for both turns.  Every
    position starts inside an admissible window: a move dominates at least
    one and at most ``delta`` new vertices, so
    ceil(count / delta) <= value <= count.  A search that fails low or high
    stores only the score bound it proved, in per-turn ``lower`` and
    ``upper`` tables, so later visits with other windows reuse it.  The
    root is searched with a window wider than any score.
    """
    lower: _Bounds = ({}, {})
    upper: _Bounds = ({}, {})

    def search(pos, count: int, turn: int, alpha: int, beta: int) -> int:
        sign = 1 - 2 * turn
        floor = -(-count // delta)
        lo, hi = (floor, count) if turn == 0 else (-count, -floor)
        lo = lower[turn].get(pos, lo)
        hi = upper[turn].get(pos, hi)
        if lo >= beta or lo == hi:
            return lo
        if hi <= alpha:
            return hi
        alpha = max(alpha, lo)
        beta = min(beta, hi)
        after = turn ^ 1
        # Likely-best first: the least proven upper score (every stored one
        # is below ``count``, so unknown children go last), then the fewest
        # undominated vertices left at turn 1 and the most at turn 0.
        known = upper[after]
        order = sorted((known.get(child, count), -sign * left, child, left)
                       for child, left in moves(pos, turn).items())
        a = alpha
        g = lo - 1
        for _, _, child, left in order:
            sub = sign - search(child, left, after, sign - beta, sign - a)
            if sub > g:
                g = sub
                if g >= beta:
                    break
                a = max(a, g)
        if g > alpha:
            lower[turn][pos] = g
        if g < beta:
            upper[turn][pos] = g
        return g

    return -search(root, count, 1, -count - 1, 1), lower, upper


def _mask_moves(G: Graph) -> Callable[..., dict[int, int]]:
    """Each distinct child of a dominated mask, mapped to its number of undominated vertices."""
    nbr = G.nbr
    full = G.full_mask

    def moves(mask: int, turn: int = 0) -> dict[int, int]:
        # Every move is kept at either turn.
        undominated = full ^ mask
        children = {}
        for m in nbr:
            if m & undominated:
                children[mask | m] = (undominated & ~m).bit_count()
        return children

    return moves


def _mask_search(G: Graph) -> tuple[int, _Bounds, _Bounds]:
    """γtg and its tables over the dominated mask; moves that reach the same mask are one child."""
    return _alphabeta(0, G.n, _mask_moves(G), max_degree(G))


def grundy_t(G: Graph) -> int:
    """Grundy total domination number: longest total dominating sequence.

    Up to ``TABLE_ORDER_CAP`` the value is read off ``_grundy_rounds``.
    """
    if G.n > TABLE_ORDER_CAP:
        return _LongestSequence(G).value(0)  # rejects isolated vertices
    require_isolate_free(G)
    return _grundy_rounds(G)


class _LongestSequence(_SplitMemo):
    """The most further moves from a dominated mask, each dominating a new vertex.

    A position that does not split is worth 1 plus its best child, scanned
    from the most undominated vertices left down: a child with ``left`` of
    them is worth at most ``left``, so the scan stops at the first ``left``
    below the best.
    """

    def __init__(self, G: Graph):
        super().__init__(G)
        self._moves = _mask_moves(G)

    def _scan(self, mask: int, undominated: int) -> int:
        children = self._moves(mask)
        best = 0
        for child in sorted(children, key=children.__getitem__, reverse=True):
            if children[child] < best:
                break
            sub = self.value(child)
            if sub >= best:
                best = sub + 1
        return best


def _canonical_code(edges: tuple[int, ...]) -> tuple[int, ...]:
    """A relabeling of one connected residual, shared by many of its isomorphic copies.

    ``edges`` are the distinct sets N(w) & K of a component K.  The lowest
    vertex of least signature (its number of edges, then their total size)
    starts a breadth-first relabeling to 0, 1, ..., in which each vertex
    labels its unlabeled edge-mates in order of signature; the code is the
    sorted tuple of relabeled edges.  The code is the set system itself
    under a bijection, so equal codes are isomorphic and sharing a value
    between them is exact; isomorphic residuals with different codes only
    share less.  Vertices are handled as their one-bit masks.
    """
    members = []
    sig: dict[int, int] = {}
    reach: dict[int, int] = {}
    for e in edges:
        size = e.bit_count()
        vs = []
        m = e
        while m:
            v = m & -m
            m ^= v
            vs.append(v)
            sig[v] = sig.get(v, 0) + 64 + size  # sizes are below 64
            reach[v] = reach.get(v, 0) | e
        members.append(vs)
    least = min(sig.values())
    start = min(v for v, s in sig.items() if s == least)
    label = {start: 1}
    order = [start]
    seen = start
    for v in order:
        m = reach[v] & ~seen
        seen |= m
        fresh = []
        while m:
            u = m & -m
            m ^= u
            fresh.append(u)
        if len(fresh) > 1:
            fresh.sort(key=sig.__getitem__)
        for u in fresh:
            label[u] = 1 << len(order)
            order.append(u)
    code = []
    for vs in members:
        e = 0
        for v in vs:
            e |= label[v]
        code.append(e)
    code.sort()
    return tuple(code)


class _ClassTable:
    """The component classes met in one solve, interned to small ints.

    Class c is the set system ``codes[c]`` over the vertices 0..sizes[c]-1.
    ``moves(c)`` gives, once per class, two tuples of the sorted tuples of
    classes that its moves leave: at turn 0 the moves on its
    inclusion-minimal sets, at turn 1 those on its inclusion-maximal ones.
    Each residual met is coded once: ``_ids`` maps both the residuals and
    their codes to classes.
    """

    def __init__(self):
        self._ids: dict[tuple[int, ...], int] = {}
        self.codes: list[tuple[int, ...]] = []
        self.sizes: list[int] = []
        self._moves: list[tuple[tuple[tuple[int, ...], ...], ...] | None] = []

    def intern(self, edges: tuple[int, ...]) -> int:
        """The class of a connected residual given by its distinct sorted edges."""
        ids = self._ids
        c = ids.get(edges)
        if c is None:
            code = _canonical_code(edges)
            c = ids.get(code)
            if c is None:
                c = ids[code] = len(self.codes)
                span = 0
                for e in code:
                    span |= e
                self.codes.append(code)
                self.sizes.append(span.bit_length())
                self._moves.append(None)
            ids[edges] = c
        return c

    def split(self, edges: Sequence[int], parts: Sequence[int]) -> tuple[int, ...]:
        """The sorted classes of the residuals of ``edges`` on the component masks ``parts``."""
        return tuple(sorted(
            self.intern(tuple(sorted({e & part for e in edges if e & part})))
            for part in parts
        ))

    def moves(self, c: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Class c's children at turns 0 and 1, found on first use (see the class docstring)."""
        found = self._moves[c]
        if found is None:
            code, size = self.codes[c], self.sizes[c]
            near = [0] * size  # near[v]: the union of the edges holding v
            for e in code:
                for v in bits(e):
                    near[v] |= e
            full = (1 << size) - 1
            # Staller keeps the sets with no other set inside, Dominator
            # those inside no other set (the module docstring's prune).  The
            # code is sorted, so a proper subset comes before its superset.
            minimal = [e for i, e in enumerate(code) if not any(f & e == f for f in code[:i])]
            maximal = [e for i, e in enumerate(code) if not any(f & e == e for f in code[i + 1:])]
            left = {e: self.split(code, components(near, full & ~e))
                    for e in dict.fromkeys(minimal + maximal)}
            found = self._moves[c] = (tuple(dict.fromkeys(left[e] for e in minimal)),
                                      tuple(dict.fromkeys(left[e] for e in maximal)))
        return found


def _class_search(G: Graph, parts: Sequence[int]) -> tuple[int, _Bounds, _Bounds]:
    """The mask search's value and ``_alphabeta``'s tables, over multisets of component classes.

    ``parts`` are the components of V(G) under "shares a neighbour".  A
    position is the sorted tuple of the classes of its residual's
    components (see the module docstring).
    """
    table = _ClassTable()
    sizes = table.sizes
    root = table.split(G.nbr, parts)

    def moves(key: tuple[int, ...], turn: int) -> dict[tuple[int, ...], int]:
        count = 0
        for c in key:
            count += sizes[c]
        children = {}
        previous = -1
        for i, c in enumerate(key):
            if c == previous:
                continue
            previous = c
            rest = key[:i] + key[i + 1:]
            for left in table.moves(c)[turn]:
                remaining = count - sizes[c]
                for x in left:
                    remaining += sizes[x]
                children[tuple(sorted(rest + left))] = remaining
        return children

    return _alphabeta(root, G.n, moves, max_degree(G))


@cache
def _byte_lanes() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The vertices of each byte of a mask, one lane of 256 tuples per byte.

    Entry b of lane k is the tuple of vertices 8k + i for the set bits i of
    b, in increasing order, so the lanes' entries for the bytes of a mask
    below ``2**SOLVER_CAP`` list its vertices in increasing order.  Built
    on first use by doubling, about 70 KB, and kept for the process.
    """
    lanes = []
    for base in range(0, SOLVER_CAP, 8):
        lane: list[tuple[int, ...]] = [()]
        for v in range(base, base + 8):
            lane += [part + (v,) for part in lane]
        lanes.append(tuple(lane))
    return tuple(lanes)


# ---------------------------------------------------------------------------
# Whole tables over every dominated mask, up to TABLE_ORDER_CAP

# The last order whose per-order tables are cached, and up to which gti,
# gtg, grundy_t and the four subset invariants read their values off
# whole tables (see the module docstrings).  At most 8, as
# ``_value_levels`` and ``invariants._subset_table`` read one byte lane there.
TABLE_ORDER_CAP = 7


@cache
def _columns(m: int) -> tuple[int, ...]:
    """Column i is the bitmap over s in range(2**m) of the s with bit i set.

    Only orders m <= TABLE_ORDER_CAP are cached; ``_value_levels``
    builds larger orders through ``_columns.__wrapped__`` for one graph.
    """
    columns = []
    for i in range(m):
        column = ((1 << (1 << i)) - 1) << (1 << i)  # 2**i values without bit i, then 2**i with it
        width = 2 << i
        while width < 1 << m:
            column |= column << width
            width <<= 1
        columns.append(column)
    return tuple(columns)


class _Subsets(NamedTuple):
    """The per-order bitmaps of ``_subsets(n)``, each 2**n bits over the subsets of range(n)."""

    down: tuple[int, ...]  # entry a, for a in range(2**n): the subsets of a
    up: tuple[int, ...]  # entry a: the supersets of a
    layers: tuple[int, ...]  # entry k, for k in range(n + 1): the k-subsets


@cache
def _subsets(n: int) -> _Subsets:
    """The subsets and supersets of each subset of range(n), and its size layers.

    Built by doubling over t = 0, ..., n - 1.  For a < 2**t: the subsets of
    a | 2**t are those of a and those of a with bit t set, that is the
    bitmap shifted by 2**t; the supersets of a among t + 1 bits are those
    of a and those with bit t set, and the supersets of a | 2**t are only
    the latter; and the k-subsets are those without t and, shifted by
    2**t, the (k - 1)-subsets without it.  Only orders up to
    TABLE_ORDER_CAP build it.
    """
    down, up, layers = [1], [1], [1]
    for t in range(n):
        shift = 1 << t
        down += [d | d << shift for d in down]
        up = [u | u << shift for u in up] + [u << shift for u in up]
        layers = [a | b << shift for a, b in zip(layers + [0], [0] + layers)]
    return _Subsets(tuple(down), tuple(up), tuple(layers))


@lru_cache(maxsize=1)
def _move_products(nbr: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """(Up(S), the proper subsets of S, S) for S = N(w), one per vertex w in order.

    For a 2**n-bit bitmap L over masks, ``((L & up) * below) >> S`` is
    pre_w(L) minus Up(S): the masks M that do not contain S and have
    M | S in L.  The masks p of L that contain S, times the proper subsets
    T of S, put a bit at p + T, and shifting right by S moves it to
    p - (S - T), that is p with the vertices of S outside T cleared.
    Distinct (p, T) land on distinct bits, so nothing carries.  Up(S) is
    also the set of masks where playing w dominates nothing new.  Only
    orders up to TABLE_ORDER_CAP read it: above the cap the product of
    two 2**n-bit ints costs far more than ``_preimages``' walk.  The cache
    holds one graph, so the three games of one survey row build it once.
    """
    subsets = _subsets(len(nbr))
    return tuple((subsets.up[s], subsets.down[s] ^ 1 << s, s) for s in nbr)


def _value_levels(G: Graph) -> list[int]:
    """The indicated game's value table over every mask, as threshold bitmaps.

    Entry k - 1 is L_k, a 2**n-bit int whose bit M is set when the value
    from dominated mask M is at least k; the levels are nested, the first
    empty one ends the list, and the value of M is the number of levels
    that hold it (``_level_values``).  L_1 is every mask but V.  M is in
    L_{k+1} when M != V and every undominated v has a reply u in N(v) with
    M | N(u) in L_k.  The undominated v are read off column v of
    ``_columns(n)``.  Up to TABLE_ORDER_CAP the masks answered by u are
    ``_move_products``' entry u, which leaves out the masks that contain
    N(u); those hold v, as v is in N(u), so column v answers them already.
    The replies u in N(v) are read off lane 0 of ``_byte_lanes()``, as
    every neighbourhood fits in one byte.  Above the cap the columns are
    built uncached for the one graph, the masks answered by u are
    ``_preimages``' entry u, and the replies are its neighbourhoods'
    vertex tuples.  Every round plays a new vertex, so at most n levels
    are non-empty: a level not inside the one before it, or an
    (n + 1)-th, raises ``AssertionError``, so that a wrong reply step
    fails at once instead of growing the list without end.
    """
    n, nbr = G.n, G.nbr
    products = None
    if n <= TABLE_ORDER_CAP:
        cols, members = _columns(n), _byte_lanes()[0]
        products = _move_products(nbr)
    else:
        cols, members = _columns.__wrapped__(n), {s: tuple(bits(s)) for s in nbr}
    open_masks = (1 << G.full_mask) - 1  # every mask but V, the highest
    levels = []
    level = last = open_masks
    while level:
        if len(levels) == n or level & last != level:
            k = len(levels) + 1  # level is L_k
            broken = f"non-empty, but n = {n}" if k > n else f"not inside L_{k - 1}"
            raise AssertionError(f"{_name(G)}: gti level L_{k} is {broken}")
        levels.append(level)
        if products is None:
            replies = _preimages(level, nbr, cols)
        else:
            replies = [((level & up) * below) >> s for up, below, s in products]
        last, level = level, open_masks
        for v in range(n):
            answered = cols[v]
            for u in members[nbr[v]]:
                answered |= replies[u]
            level &= answered
    return levels


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


def _preimages(level: int, nbr: tuple[int, ...], cols: tuple[int, ...]) -> list[int]:
    """Entry u is the bitmap of the masks M with M | nbr[u] in ``level``, above TABLE_ORDER_CAP.

    ``level`` is a 2**n-bit bitmap over masks, n = len(nbr), and ``cols``
    is ``_columns(n)``.  Each vertex i of S = nbr[u] keeps the masks
    holding i (column i) and adds each with i cleared.
    """
    replies = []
    for rest in nbr:
        reply = level
        while rest:
            low = rest & -rest
            rest ^= low
            reply &= cols[low.bit_length() - 1]
            reply |= reply >> low
        replies.append(reply)
    return replies


def _name(G: Graph) -> str:
    return G.label or f"graph(n={G.n})"


def _gtg_rounds(G: Graph) -> int:
    """γtg (Dominator starts) off whole-table rounds, for n <= TABLE_ORDER_CAP.

    D_k and S_k are the 2**n-bit bitmaps of the masks from which the game
    ends within k more moves, with Dominator or Staller to move.  With
    pre_w(L) the masks M with M | N(w) in L and Up(S) the supersets of S,
    D_0 = S_0 = {V},
    D_k = {V} ∪ ⋃_w (pre_w(S_{k-1}) minus Up(N(w))) and
    S_k = ⋂_w (pre_w(D_{k-1}) ∪ Up(N(w))), which holds V without a
    union, as every Up(N(w)) does.  The value is the least k whose D_k
    holds the root, mask 0.  It is at most n, so a D_n without the root,
    or a D_k that does not contain D_{k-1}, raises ``AssertionError``.
    """
    n = G.n
    moves = _move_products(G.nbr)
    done = 1 << G.full_mask
    every = (done << 1) - 1
    dominator = staller = done
    k = 0
    while not dominator & 1:
        if k == n:
            raise AssertionError(f"{_name(G)}: gtg level D_{n} misses the root, but n = {n}")
        k += 1
        new_d, new_s = done, every
        for up, below, shift in moves:
            new_d |= ((staller & up) * below) >> shift
            new_s &= (((dominator & up) * below) >> shift) | up
        if new_d & dominator != dominator:
            raise AssertionError(f"{_name(G)}: gtg level D_{k} does not contain D_{k - 1}")
        dominator, staller = new_d, new_s
    return k


def _grundy_rounds(G: Graph) -> int:
    """γgrt off whole-table rounds, for n <= TABLE_ORDER_CAP.

    G_k is the 2**n-bit bitmap of the masks from which k more moves, each
    dominating a new vertex, can be played: G_0 is every mask, and
    G_k = ⋃_w (pre_w(G_{k-1}) minus Up(N(w))) in ``_gtg_rounds``' terms.
    The value is the last k whose G_k holds the root.  Every move
    dominates a new vertex, so the levels are nested and G_{n+1} is
    empty; a G_k not inside G_{k-1}, or a G_{n+1} that holds the root,
    raises ``AssertionError``.
    """
    n = G.n
    moves = _move_products(G.nbr)
    level = (2 << G.full_mask) - 1
    k = 0
    while level & 1:
        if k > n:
            raise AssertionError(f"{_name(G)}: grt level G_{k} holds the root, but n = {n}")
        deeper = 0
        for up, below, shift in moves:
            deeper |= ((level & up) * below) >> shift
        k += 1
        if deeper & ~level:
            raise AssertionError(f"{_name(G)}: grt level G_{k} is not inside G_{k - 1}")
        level = deeper
    return k - 1


def best_response_length(G: Graph, declared: VertexSet | None, fixed: Policy) -> int:
    """Game length when ``fixed`` plays one side and the other side is optimal.

    The fixed side's branching collapses to the policy's single choice; the
    free side is solved exactly against it.  Raises PolicyError when the
    policy was built for another graph or returns an illegal move.  Every
    reachable mask consults the policy, so there are no cut-offs here.  A
    reply that the policy gives to several indications of one mask is
    searched at the first and read from the memo at the others.  A
    position's vertices (the undominated ones against a fixed Staller, the
    indicated vertex's neighbours against a fixed Dominator) are walked in
    increasing order, one byte of the mask at a time, through the tuples of
    ``_byte_lanes``.
    """
    require_isolate_free(G)
    if not isinstance(fixed.role, Role):
        raise ValueError(f"policy {fixed.name!r} has role {fixed.role!r}, not a Role")
    _check_graph(G, fixed)
    start = _declared_mask(G, declared)
    nbr = G.nbr
    full = G.full_mask
    n = G.n
    choose = fixed.chooser
    lane0, lane1, lane2, lane3 = _byte_lanes()
    # The memo is seeded with the finished game, as in ``_SplitMemo``.  The
    # children are read from it before recursing, and the inline legality
    # tests hand anything they do not accept to the checks, which decide
    # and raise.  A neighbour bit already implies u < n.
    memo: dict[int, int] = {full: 0}

    def dominator(mask: int) -> int:
        v = choose(mask)
        if type(v) is not int or not 0 <= v < n or mask >> v & 1:
            _check_indication(fixed, G, start, mask, v)
        best = 0
        replies = nbr[v]
        for part in (lane0[replies & 255], lane1[replies >> 8 & 255],
                     lane2[replies >> 16 & 255], lane3[replies >> 24]):
            for u in part:
                child = mask | nbr[u]
                sub = memo.get(child)
                if sub is None:
                    sub = dominator(child)
                if sub > best:
                    best = sub
        memo[mask] = best + 1
        return best + 1

    def staller(mask: int) -> int:
        best = n
        undominated = ~mask & full
        for part in (lane0[undominated & 255], lane1[undominated >> 8 & 255],
                     lane2[undominated >> 16 & 255], lane3[undominated >> 24]):
            for v in part:
                u = choose(mask, v)
                if type(u) is not int or u < 0 or not nbr[v] >> u & 1:
                    _check_selection(fixed, G, start, mask, v, u)
                child = mask | nbr[u]
                sub = memo.get(child)
                if sub is None:
                    sub = staller(child)
                if sub < best:
                    best = sub
        memo[mask] = best + 1
        return best + 1

    if start == full:
        return 0
    return (dominator if fixed.role is Role.DOMINATOR else staller)(start)


def _check_graph(G: Graph, policy: Policy) -> None:
    if policy.graph.nbr != G.nbr:
        raise PolicyError(f"policy {policy.name!r} was built for {policy.graph!r}, not {G!r}")


def _position(G: Graph, declared: int, mask: int) -> str:
    return f"dominated={list(bits(mask))}, declared={list(bits(declared))} on {G!r}"


def _check_indication(policy: Policy, G: Graph, declared: int, mask: int, v: object) -> None:
    if not (isinstance(v, int) and 0 <= v < G.n) or mask >> v & 1:
        raise PolicyError(
            f"policy {policy.name!r} indicated illegal vertex {v!r} at "
            + _position(G, declared, mask)
        )


def _check_selection(policy: Policy, G: Graph, declared: int, mask: int, v: int, u: object) -> None:
    if not (isinstance(u, int) and 0 <= u < G.n) or not G.nbr[v] >> u & 1:
        raise PolicyError(
            f"policy {policy.name!r} selected illegal vertex {u!r} for "
            f"indicated {v} at " + _position(G, declared, mask)
        )


def optimal_policy(G: Graph, role: Role) -> Policy:
    """Policy that replays the exact solver's smallest-index optimal move."""
    solver = IndicatedGameSolver(G)
    if role is Role.DOMINATOR:
        return Policy(role, "optimal-dominator", G, solver.best_indication)
    return Policy(role, "optimal-staller", G, solver.best_selection)


def play_game(
    G: Graph,
    dominator: Policy,
    staller: Policy,
    declared: VertexSet | None = None,
) -> list[tuple[int, int]]:
    """Play one full indicated game; returns the (indicated, selected) rounds.

    Checks both policies' graphs once, then every move against the legality
    rules, including the no-replay invariant: the selected vertex can never
    have been played before, because a played vertex has its whole
    neighborhood dominated and the indicated vertex would not have been
    legal.
    """
    require_isolate_free(G)
    if dominator.role is not Role.DOMINATOR or staller.role is not Role.STALLER:
        raise ValueError("policies passed for the wrong roles")
    _check_graph(G, dominator)
    _check_graph(G, staller)
    start = mask = _declared_mask(G, declared)
    played = 0
    rounds: list[tuple[int, int]] = []
    while mask != G.full_mask:
        v = dominator.chooser(mask)
        _check_indication(dominator, G, start, mask, v)
        u = staller.chooser(mask, v)
        _check_selection(staller, G, start, mask, v, u)
        if played >> u & 1:
            raise AssertionError(
                f"replayed vertex {u}: indicated {v} should already be dominated"
            )
        played |= 1 << u
        mask |= G.nbr[u]
        rounds.append((v, u))
    return rounds
