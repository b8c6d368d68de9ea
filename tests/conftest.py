"""Shared strategies and fixtures for the test suite."""

from itertools import combinations

import pytest
from hypothesis import strategies as st

from tdgamelab import build_graph, is_induced_matching
from tdgamelab.families import disjoint_union, path_graph
from tdgamelab.verify import random_isolate_free_graph


@st.composite
def graphs(draw, min_n=2, max_n=7):
    """Arbitrary simple graphs drawn from a uniform edge mask."""
    n = draw(st.integers(min_n, max_n))
    slots = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(slots)) - 1))
    edges = [e for i, e in enumerate(slots) if mask >> i & 1]
    return build_graph(n, edges)


@st.composite
def isolate_free_graphs_st(draw, min_n=2, max_n=7):
    """Isolate-free graphs: arbitrary draws padded with a perfect-ish matching."""
    G = draw(graphs(min_n, max_n))
    extra = []
    for v in range(G.n):
        if G.degree(v) == 0:
            extra.append((v, (v + 1) % G.n))
    if not extra:
        return G
    return build_graph(G.n, G.edges() + extra)


def relabeled(G, rng):
    """G under a random permutation of its vertices drawn from ``rng``."""
    perm = list(range(G.n))
    rng.shuffle(perm)
    return build_graph(G.n, [(perm[u], perm[v]) for u, v in G.edges()])


def random_split_graphs(rng, count, low, high):
    """Relabeled random trees, bipartite graphs and disjoint unions, in turn."""
    graphs = []
    for i in range(count):
        n = rng.randint(low, high)
        if i % 3 == 0:
            G = build_graph(n, [(v, rng.randrange(v)) for v in range(1, n)])
        elif i % 3 == 1:
            side = rng.randint(1, n - 1)
            edges = [(u, v) for u in range(side) for v in range(side, n) if rng.random() < 0.35]
            # A vertex left isolated gets one edge to the other side.
            for v in range(n):
                if not any(v in e for e in edges):
                    edges.append((v, rng.randrange(side, n)) if v < side else (rng.randrange(side), v))
            G = build_graph(n, edges)
        else:
            k = rng.randint(2, n - 2)
            G = disjoint_union([random_isolate_free_graph(k, 0.5, rng),
                                random_isolate_free_graph(n - k, 0.5, rng)])
        graphs.append(relabeled(G, rng))
    return graphs


def brute_induced_matching_witness(G):
    """Size and edges of the first largest induced matching, by edge index.

    Walks every induced matching of G, one size at a time, as the increasing
    tuples of edge indices that ``is_induced_matching`` accepts, and keeps
    the least tuple of the last size.  Edge order is not vertex order:
    {(0, 3), (4, 6)} comes before {(0, 5), (1, 2)}.
    """
    edges = G.edges()
    level, first = [()], ()
    while level:
        first = min(level)
        level = [
            chosen + (j,)
            for chosen in level
            for j in range(chosen[-1] + 1 if chosen else 0, len(edges))
            if is_induced_matching(G, tuple(edges[i] for i in chosen + (j,)))
        ]
    return len(first), tuple(edges[i] for i in first)


class CountingMasks(tuple):
    """Neighbour masks that count every mask read, by index or by iteration.

    ``Graph(G.n, CountingMasks(G.nbr))`` is G with counted masks; reset
    ``CountingMasks.reads`` after building it, as the build reads them too.
    The count measures a search's work deterministically, so a prune that
    is weakened without changing any value still shows.
    """

    reads = 0

    def __getitem__(self, v):
        CountingMasks.reads += 1
        return tuple.__getitem__(self, v)

    def __iter__(self):
        for m in tuple.__iter__(self):
            CountingMasks.reads += 1
            yield m


@pytest.fixture(scope="session")
def small_paths():
    return {n: path_graph(n) for n in range(2, 11)}
