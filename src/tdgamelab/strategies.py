"""Scripted player policies extracted from constructive strategy arguments.

Each policy is certified by playing it against an exactly-solved opponent
via ``games.best_response_length``; none of them consults the exact solver
itself.  A policy sees a position as its dominated mask, which fixes the
rest of the game, so it loses no certifying power (see ``games``); the
drivers check its graph once per game.

Staller's partition policy is the paper's proof that γti ≥ Γt.  Take a
minimal TD-set S with |S| = Γt.  Staller answers every indicated vertex
with a neighbour of it inside S, so the set D of selected vertices stays
inside S.  Every v in S has an open private neighbour: a vertex whose only
neighbour in S is v, which is dominated only once v is in D.  So the game
cannot end before D = S.  No answer repeats, as an indicated vertex is
undominated and so has no neighbour in D; from no declared set the game
therefore lasts exactly |S| rounds, whatever Dominator indicates.
"""

from __future__ import annotations

from typing import Callable

from .families import path_graph, support_vertices
from .games import Policy, Role
from .graph import Graph, bits, is_connected, require_isolate_free
from .invariants import upper_gamma_t


def staller_partition_policy(G: Graph) -> Policy:
    """Staller answers each indicated w with min(N(w) ∩ S), S the witness of Γt.

    The parts V_v = {w : Staller answers w with v}, one per v in S,
    partition V(G) with pn(v) ⊆ V_v ⊆ N(v): a private neighbour of v has v
    as its only neighbour in S, and every answer is a neighbour.  That is
    the paper's partition, so the game lasts exactly Γt rounds from no
    declared set (see the module docstring).
    """
    require_isolate_free(G)
    S = upper_gamma_t(G).witness.mask
    owner = tuple((m & S & -(m & S)).bit_length() - 1 for m in G.nbr)
    return Policy(Role.STALLER, "staller-partition", G, lambda dominated, indicated: owner[indicated])


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
    P = path_graph(n)
    return Policy(Role.DOMINATOR, f"dominator-path-{n}", P, _scripted_chooser(P, _path_scripted_opening(n)))


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
    return Policy(Role.DOMINATOR, "dominator-leaf", T, _scripted_chooser(T, tuple(script)))


def _scripted_chooser(G: Graph, script: tuple[int, ...]) -> Callable[[int], int]:
    """Indicate the first undominated vertex of ``script``, else the lowest undominated one."""
    full = G.full_mask

    def choose(dominated: int) -> int:
        for v in script:
            if not dominated >> v & 1:
                return v
        undominated = ~dominated & full
        return (undominated & -undominated).bit_length() - 1

    return choose
