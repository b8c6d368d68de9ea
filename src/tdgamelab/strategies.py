"""Scripted player policies extracted from constructive strategy arguments.

Each policy is certified by playing it against an exactly-solved opponent
via ``games.best_response_length``; none of them consults the exact solver
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .families import path_graph, support_vertices
from .games import GameState, Policy, PolicyError, Role
from .graph import (
    Graph,
    VertexSet,
    bits,
    is_connected,
    is_minimal_total_dominating,
    private_neighborhoods,
    require_isolate_free,
)
from .invariants import upper_gamma_t


@dataclass(frozen=True)
class PartitionWitness:
    """A minimal TD-set S with a partition of V assigning every vertex an owner.

    Part i contains the open private neighborhood of the i-th member and is
    contained in that member's open neighborhood, so selecting the owner of
    any indicated vertex is always a legal reply.
    """

    base_set: VertexSet
    order: tuple[int, ...]
    parts: tuple[VertexSet, ...]
    owner: tuple[int, ...]

    def validate(self, G: Graph) -> None:
        union = 0
        for i, part in enumerate(self.parts):
            if union & part.mask:
                raise PolicyError("partition parts overlap")
            union |= part.mask
            v = self.order[i]
            pn, _, _ = private_neighborhoods(G, self.base_set, v)
            if not (pn.mask & ~part.mask == 0 and part.mask & ~G.nbr[v] == 0):
                raise PolicyError(f"part {i} violates pn({v}) <= V_{i} <= N({v})")
        if union != G.full_mask:
            raise PolicyError("partition does not cover the vertex set")


def build_partition_witness(G: Graph, S: VertexSet) -> PartitionWitness:
    """Partition V(G) so each vertex is owned by a member of the minimal TD-set S.

    Private neighbors are forced into their owner's part; every remaining
    vertex goes to its smallest-index neighbor in S (one exists because S is
    a TD-set).
    """
    if not is_minimal_total_dominating(G, S):
        raise ValueError("partition witnesses require a minimal TD-set")
    order = tuple(sorted(S))
    owner = [-1] * G.n
    for i, v in enumerate(order):
        pn, _, _ = private_neighborhoods(G, S, v)
        for w in pn:
            owner[w] = i
    for w in range(G.n):
        if owner[w] >= 0:
            continue
        for i, v in enumerate(order):
            if G.nbr[v] >> w & 1:
                owner[w] = i
                break
        if owner[w] < 0:
            raise PolicyError(f"vertex {w} has no neighbor in the TD-set")
    parts = tuple(
        VertexSet.of(G.n, (w for w in range(G.n) if owner[w] == i))
        for i in range(len(order))
    )
    witness = PartitionWitness(S, order, parts, tuple(owner))
    witness.validate(G)
    return witness


def staller_partition_policy(G: Graph) -> Policy:
    """Staller policy that only ever selects vertices of a largest minimal TD-set.

    Whenever a vertex is indicated, Staller answers with the owner of that
    vertex in the partition witness.  Each owner keeps an open private
    neighbor, so the game cannot end before every member of the set has been
    selected; the policy therefore forces at least that many moves against
    any Dominator.
    """
    require_isolate_free(G)
    S = upper_gamma_t(G).witness
    witness = build_partition_witness(G, S)

    def select(state: GameState, indicated: int) -> int:
        return witness.order[witness.owner[indicated]]

    return Policy(Role.STALLER, "staller-partition", select, data=witness)


def _path_scripted_opening(n: int) -> tuple[int, ...]:
    # 0-based openings along the path v1..vn; every third vertex starting at
    # the end, with one extra indication reaching the far endpoint when
    # n = 3k+1.  Residue 2 mod 3 keeps the same script as residue 0.
    if n % 3 == 1:
        return tuple(range(0, n, 3))
    return tuple(range(0, n - 2, 3))


def dominator_path_policy(n: int) -> Policy:
    """Dominator policy achieving the known game value on the path of order n.

    Opens by indicating every third path vertex, which pins Staller's
    replies to interior vertices that each dominate two fresh vertices, then
    cleans up by indicating the smallest-index vertex that is still
    undominated until the game ends.
    """
    if n < 2:
        raise ValueError("paths need order >= 2")
    script = _path_scripted_opening(n)
    choose = _scripted_chooser(path_graph(n), script, f"path policy for order {n}")
    return Policy(Role.DOMINATOR, f"dominator-path-{n}", choose, data=script)


def dominator_leaf_policy(T: Graph) -> Policy:
    """Dominator policy for trees in which every vertex is a leaf or a support.

    Indicates one leaf per support vertex in index order, forcing Staller to
    select every support; for stars one extra cleanup indication finishes
    the game.
    """
    require_isolate_free(T)
    if not (is_connected(T) and T.edge_count() == T.n - 1):
        raise ValueError("leaf policy requires a tree")
    supports = support_vertices(T)
    for v in range(T.n):
        if T.degree(v) != 1 and v not in supports:
            raise ValueError(f"vertex {v} is neither a leaf nor a support vertex")
    script = []
    for v in supports:
        leaf = min(u for u in bits(T.nbr[v]) if T.degree(u) == 1)
        script.append(leaf)
    script_t = tuple(script)
    choose = _scripted_chooser(T, script_t, "leaf policy")
    return Policy(Role.DOMINATOR, "dominator-leaf", choose, data=script_t)


def _scripted_chooser(G: Graph, script: tuple[int, ...], name: str) -> Callable[[GameState], int]:
    """Indicate the first undominated vertex of ``script``, else the lowest undominated one.

    Played on a graph other than G, the chooser raises PolicyError naming
    the policy as ``name``.
    """

    def choose(state: GameState) -> int:
        if state.graph.n != G.n or state.graph.nbr != G.nbr:
            raise PolicyError(f"{name} was invoked on a different graph at " + state.describe())
        mask = state.dominated.mask
        for v in script:
            if not mask >> v & 1:
                return v
        undominated = ~mask & state.graph.full_mask
        return (undominated & -undominated).bit_length() - 1

    return choose
