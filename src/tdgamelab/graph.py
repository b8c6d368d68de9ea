"""Immutable simple graphs over dense vertex indices 0..n-1.

Adjacency is stored as one open-neighborhood bitmask per vertex, so the
solvers in this package can treat every vertex set (dominating sets,
dominated regions, game masks) as a machine-word integer.  Graphs beyond
``SOLVER_CAP`` vertices are rejected at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

# Masks over 0..SOLVER_CAP-1 fit a single machine word on every target the
# solvers care about; every constructor enforces the bound.
SOLVER_CAP = 26

INFINITE_DISTANCE = math.inf


class CapacityError(ValueError):
    """Raised when a graph would exceed SOLVER_CAP vertices."""


class IsolatedVertexError(ValueError):
    """Raised when a solver that needs an isolate-free graph gets one with an isolated vertex."""


def _mask_of(vertices: Iterable[int], n: int) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for order {n}")
        mask |= 1 << v
    return mask


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, slots=True)
class VertexSet:
    """Fixed-capacity set of vertex indices backed by a bitmask.

    Set algebra (``|``, ``&``, ``-``, ``<=``) is exact; operands must share
    the same capacity ``n``.  Slotted, so an instance carries no ``__dict__``:
    game searches build one per policy snapshot.
    """

    n: int
    mask: int = 0

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError(f"mask {self.mask:#x} has members >= {self.n}")

    @classmethod
    def of(cls, n: int, vertices: Iterable[int] = ()) -> "VertexSet":
        return cls(n, _mask_of(vertices, n))

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(n, (1 << n) - 1)

    def _check(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise ValueError(f"capacity mismatch: {self.n} != {other.n}")

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask & ~other.mask)

    def __le__(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def to_list(self) -> list[int]:
        return list(self)

    def __repr__(self) -> str:
        return f"VertexSet({self.n}, {{{', '.join(map(str, self))}}})"


@dataclass(frozen=True)
class Graph:
    """Simple loop-free graph with per-vertex open-neighborhood masks."""

    n: int
    nbr: tuple[int, ...]
    label: str | None = None

    def __post_init__(self):
        n, nbr = self.n, self.nbr
        if n > SOLVER_CAP:
            raise CapacityError(f"order {n} exceeds SOLVER_CAP = {SOLVER_CAP}")
        if len(nbr) != n:
            raise ValueError("adjacency length does not match order")
        full = (1 << n) - 1
        for v, m in enumerate(nbr):
            if m & ~full:
                raise ValueError(f"neighborhood of {v} mentions vertices >= {n}")
            if m >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, m in enumerate(nbr):
            bit = 1 << v
            while m:
                low = m & -m
                u = low.bit_length() - 1
                if not nbr[u] & bit:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
                m ^= low

    @cached_property
    def near(self) -> tuple[int, ...]:
        """``near[v] = N(N(v))``, built on first read and kept on the graph (see ``near_masks``).

        Every solver of one graph reads this one tuple.
        """
        return near_masks(self)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError("vertex out of range")

    def neighbors(self, v: int) -> VertexSet:
        self._check_vertex(v)
        return VertexSet(self.n, self.nbr[v])

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.nbr[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with u < v, sorted lexicographically."""
        out = []
        for u, m in enumerate(self.nbr):
            m &= -2 << u  # the neighbours above u
            while m:
                low = m & -m
                out.append((u, low.bit_length() - 1))
                m ^= low
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.nbr) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.nbr[u] >> v & 1)

    def is_isolate_free(self) -> bool:
        return all(m != 0 for m in self.nbr)

    def __repr__(self) -> str:
        name = self.label or f"graph(n={self.n})"
        return f"<Graph {name}: n={self.n}, m={self.edge_count()}>"


def build_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    label: str | None = None,
) -> Graph:
    """Build a simple graph from an edge list.

    Duplicate edges collapse; self-loops and out-of-range endpoints are
    rejected, as is any order above ``SOLVER_CAP``.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    if n > SOLVER_CAP:
        raise CapacityError(f"order {n} exceeds SOLVER_CAP = {SOLVER_CAP}")
    nbr = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return Graph(n, tuple(nbr), label=label)


def require_isolate_free(G: Graph) -> None:
    for v in range(G.n):
        if G.nbr[v] == 0:
            raise IsolatedVertexError(f"vertex {v} is isolated")


def neighborhood_of_set(G: Graph, S: VertexSet) -> VertexSet:
    """Open neighborhood of a set: union of N(v) over v in S."""
    return VertexSet(G.n, neighborhood_mask(G, S.mask))


def neighborhood_mask(G: Graph, mask: int) -> int:
    nbr = G.nbr
    out = 0
    while mask:
        low = mask & -mask
        out |= nbr[low.bit_length() - 1]
        mask ^= low
    return out


def max_degree(G: Graph) -> int:
    """Maximum degree Δ, the most vertices one vertex dominates; 1 on the order-0 graph."""
    return max((m.bit_count() for m in G.nbr), default=1)


def near_masks(G: Graph) -> tuple[int, ...]:
    """``near[v] = N(N(v))``: the vertices that share a neighbor with v.

    Solvers read ``G.near``, which calls this once per graph.
    """
    nbr = G.nbr
    near = []
    for m in nbr:
        reach = 0
        while m:
            low = m & -m
            reach |= nbr[low.bit_length() - 1]
            m ^= low
        near.append(reach)
    return tuple(near)


def exactly_one_neighbor_mask(G: Graph, mask: int) -> int:
    """Mask of vertices with exactly one neighbor inside ``mask``."""
    nbr = G.nbr
    once = twice = 0
    while mask:
        low = mask & -mask
        m = nbr[low.bit_length() - 1]
        twice |= once & m
        once |= m
        mask ^= low
    return once & ~twice


def private_neighborhoods(G: Graph, S: VertexSet, v: int) -> tuple[VertexSet, VertexSet, VertexSet]:
    """Open private neighborhoods of v with respect to S.

    Returns ``(pn, epn, ipn)`` where pn is the set of vertices whose only
    neighbor in S is v, epn its part outside S and ipn its part inside S.
    """
    if v not in S:
        raise ValueError(f"vertex {v} is not a member of S")
    # w is private to v exactly when w has a single S-neighbor and that
    # neighbor is v, i.e. w lies in N(v) and has exactly one S-neighbor.
    pn = G.nbr[v] & exactly_one_neighbor_mask(G, S.mask)
    return (
        VertexSet(G.n, pn),
        VertexSet(G.n, pn & ~S.mask),
        VertexSet(G.n, pn & S.mask),
    )


def is_total_dominating(G: Graph, D: VertexSet) -> bool:
    """True when every vertex of G has a neighbor in D."""
    return neighborhood_mask(G, D.mask) == G.full_mask


def _every_member_has_private(G: Graph, mask: int) -> bool:
    nbr = G.nbr
    private_ok = exactly_one_neighbor_mask(G, mask)
    while mask:
        low = mask & -mask
        if not nbr[low.bit_length() - 1] & private_ok:
            return False
        mask ^= low
    return True


def is_minimal_total_dominating(G: Graph, D: VertexSet) -> bool:
    """Minimality test for a TD-set via open private neighborhoods.

    A TD-set is minimal exactly when every member keeps a non-empty open
    private neighborhood; this is the route used in hot enumeration paths.
    ``is_minimal_total_dominating_by_removal`` is the definitional cross-check.
    """
    if not is_total_dominating(G, D):
        raise ValueError("D is not a total dominating set")
    return _every_member_has_private(G, D.mask)


def is_minimal_total_dominating_by_removal(G: Graph, D: VertexSet) -> bool:
    """Definitional minimality: no proper TD-subset.

    Total domination is preserved under supersets, so it suffices to check
    that dropping any single member breaks domination.
    """
    if not is_total_dominating(G, D):
        raise ValueError("D is not a total dominating set")
    for v in bits(D.mask):
        if neighborhood_mask(G, D.mask & ~(1 << v)) == G.full_mask:
            return False
    return True


def is_open_open_irredundant(G: Graph, S: VertexSet) -> bool:
    """True when every v in S has some neighbor with no other S-neighbor.

    The defining condition N(v) \\ N(S - v) != {} coincides with v having a
    non-empty open private neighborhood, so minimal TD-sets always qualify.
    """
    return _every_member_has_private(G, S.mask)


def distance(G: Graph, u: int, v: int) -> int | float:
    """Shortest-path hop count; INFINITE_DISTANCE when disconnected."""
    if not (0 <= u < G.n and 0 <= v < G.n):
        raise ValueError("vertex out of range")
    seen = frontier = 1 << u
    hops = 0
    while not seen >> v & 1:
        frontier = neighborhood_mask(G, frontier) & ~seen
        if not frontier:
            return INFINITE_DISTANCE
        seen |= frontier
        hops += 1
    return hops


def lowest_component(links: Sequence[int], mask: int) -> int:
    """The component of ``mask``'s lowest vertex, where v is joined to ``links[v] & mask``.

    The growth stops as soon as it holds all of ``mask``.
    """
    frontier = mask & -mask
    rest = mask ^ frontier
    while frontier and rest:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        grown = links[v] & rest
        rest ^= grown
        frontier |= grown
    return mask ^ rest


def components(links: Sequence[int], mask: int) -> list[int]:
    """The masks of the components of ``mask`` under ``links``, ordered by smallest member."""
    parts = []
    while mask:
        part = lowest_component(links, mask)
        parts.append(part)
        mask ^= part
    return parts


def connected_components(G: Graph) -> list[VertexSet]:
    """Vertex sets of the connected components, ordered by smallest member."""
    return [VertexSet(G.n, part) for part in components(G.nbr, G.full_mask)]


def is_connected(G: Graph) -> bool:
    return G.n <= 1 or len(connected_components(G)) == 1


def bipartition(G: Graph) -> tuple[VertexSet, VertexSet] | None:
    """A 2-coloring as a pair of sides, or None when an odd cycle exists.

    Each component's lowest vertex is on side 0.  Vertices that share a
    neighbor get the same color, and in a connected bipartite graph each
    color class is connected under "shares a neighbor" (``G.near``).  So
    side 0 of a component C is its lowest vertex's component under that
    relation, and that reaches all of C, with |C| >= 2, only through an odd
    cycle.
    """
    side0 = 0
    for part in components(G.nbr, G.full_mask):
        side = lowest_component(G.near, part)
        if side == part and part & (part - 1):
            return None
        side0 |= side
    return VertexSet(G.n, side0), VertexSet(G.n, G.full_mask ^ side0)


def is_bipartite(G: Graph) -> bool:
    return bipartition(G) is not None
