"""Graph core: construction, neighborhoods, private neighborhoods, TD predicates."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdgamelab import (
    SOLVER_CAP,
    CapacityError,
    VertexSet,
    bipartition,
    build_graph,
    connected_components,
    distance,
    is_bipartite,
    is_minimal_total_dominating,
    is_minimal_total_dominating_by_removal,
    is_open_open_irredundant,
    is_total_dominating,
    neighborhood_of_set,
    private_neighborhoods,
)
from tdgamelab import graph as graph_module
from tdgamelab.families import cycle_graph, path_graph
from tdgamelab.games import grundy_t, gtg, gti
from tdgamelab.graph import INFINITE_DISTANCE, max_degree, near_masks
from tdgamelab.invariants import ooir, upper_gamma_t

from conftest import graphs, isolate_free_graphs_st


def brute_private_neighborhoods(G, S, v):
    """Definition scan: pn(v,S) = vertices whose only S-neighbor is v."""
    pn = {w for w in range(G.n) if set(G.neighbors(w)) & set(S) == {v}}
    return pn, pn - set(S), pn & set(S)


class TestBuildGraph:
    def test_k2(self):
        G = build_graph(2, [(0, 1)])
        assert set(G.neighbors(0)) == {1}
        assert set(G.neighbors(1)) == {0}

    def test_p3_degree_sequence(self):
        G = build_graph(3, [(0, 1), (1, 2)])
        assert sorted(G.degree(v) for v in range(3)) == [1, 1, 2]

    def test_duplicate_edges_collapse(self):
        G = build_graph(3, [(0, 1), (1, 0), (1, 2)])
        assert G.edge_count() == 2
        assert G.edges() == [(0, 1), (1, 2)]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            build_graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_graph(3, [(0, 3)])

    @pytest.mark.parametrize("u, v", [(0, -1), (-1, 0), (0, 3), (3, 0), (-1, -1)])
    def test_has_edge_out_of_range_is_false(self, u, v):
        assert not build_graph(3, [(0, 1), (1, 2), (0, 2)]).has_edge(u, v)

    @pytest.mark.parametrize("method", ["neighbors", "degree"])
    @pytest.mark.parametrize("v", [-1, -3, -4, 3, 4])
    def test_vertex_out_of_range_rejected(self, method, v):
        # Negative indices must not answer for another vertex.
        with pytest.raises(ValueError, match="vertex out of range"):
            getattr(path_graph(3), method)(v)

    def test_capacity_rejected_with_distinct_error(self):
        with pytest.raises(CapacityError):
            build_graph(SOLVER_CAP + 1, [])

    def test_capacity_boundary_allowed(self):
        G = build_graph(SOLVER_CAP, [(i, i + 1) for i in range(SOLVER_CAP - 1)])
        assert G.n == SOLVER_CAP

    @given(graphs())
    def test_construction_invariants(self, G):
        for v in range(G.n):
            assert v not in G.neighbors(v)
            for u in G.neighbors(v):
                assert v in G.neighbors(u)


class TestVertexSet:
    def test_algebra(self):
        a = VertexSet.of(5, [0, 2, 4])
        b = VertexSet.of(5, [2, 3])
        assert sorted(a | b) == [0, 2, 3, 4]
        assert sorted(a & b) == [2]
        assert sorted(a - b) == [0, 4]
        assert b <= (a | b)
        assert not (a <= b)

    def test_membership_and_len(self):
        s = VertexSet.of(4, [1, 3])
        assert 1 in s and 3 in s and 0 not in s
        assert len(s) == 2

    def test_out_of_range_member_rejected(self):
        with pytest.raises(ValueError):
            VertexSet.of(3, [3])

    def test_capacity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VertexSet.of(3, [0]) | VertexSet.of(4, [0])


class TestNeighborhoods:
    def test_center_of_p3(self):
        G = path_graph(3)
        assert sorted(neighborhood_of_set(G, VertexSet.of(3, [1]))) == [0, 2]

    def test_empty_set(self):
        G = path_graph(3)
        assert len(neighborhood_of_set(G, VertexSet(3))) == 0

    def test_middle_pair_of_p4(self):
        G = path_graph(4)
        assert sorted(neighborhood_of_set(G, VertexSet.of(4, [1, 2]))) == [0, 1, 2, 3]

    @given(graphs(min_n=0))
    def test_near_masks_and_max_degree_match_definitions(self, G):
        # G.near is the cached near_masks(G): the same tuple on every read.
        assert type(G.near) is tuple and G.near == near_masks(G) and G.near is G.near
        for v, near in enumerate(G.near):
            expected = {x for w in G.neighbors(v) for x in G.neighbors(w)}
            assert set(VertexSet(G.n, near)) == expected
        assert max_degree(G) == max((G.degree(v) for v in range(G.n)), default=1)

    def test_solvers_compute_near_once_per_graph(self, monkeypatch):
        calls = []
        monkeypatch.setattr(graph_module, "near_masks", lambda G: calls.append(G) or near_masks(G))
        G = cycle_graph(10)  # above the table cap, so gtg reads G.near too
        for solve in (gti, grundy_t, upper_gamma_t, ooir, gtg):
            solve(G)
        assert calls == [G]
        assert G == cycle_graph(10) and hash(G) == hash(cycle_graph(10))


class TestPrivateNeighborhoods:
    def test_p4_middle_pair(self):
        G = path_graph(4)
        S = VertexSet.of(4, [1, 2])
        pn, epn, ipn = private_neighborhoods(G, S, 1)
        assert sorted(pn) == [0, 2]
        assert sorted(epn) == [0]
        assert sorted(ipn) == [2]

    def test_k2_each_end_private(self):
        G = build_graph(2, [(0, 1)])
        pn, epn, ipn = private_neighborhoods(G, VertexSet.of(2, [0, 1]), 0)
        assert sorted(pn) == [1]
        assert len(epn) == 0
        assert sorted(ipn) == [1]

    def test_c4_full_set_has_no_privates(self):
        G = cycle_graph(4)
        pn, _, _ = private_neighborhoods(G, VertexSet.full(4), 0)
        assert len(pn) == 0

    def test_requires_membership(self):
        G = path_graph(4)
        with pytest.raises(ValueError):
            private_neighborhoods(G, VertexSet.of(4, [1]), 0)

    @settings(max_examples=150)
    @given(graphs(max_n=8), st.data())
    def test_matches_definition_scan(self, G, data):
        mask = data.draw(st.integers(1, (1 << G.n) - 1))
        S = VertexSet(G.n, mask)
        v = data.draw(st.sampled_from(sorted(S)))
        pn, epn, ipn = private_neighborhoods(G, S, v)
        bpn, bepn, bipn = brute_private_neighborhoods(G, S, v)
        assert set(pn) == bpn and set(epn) == bepn and set(ipn) == bipn
        assert set(pn) == set(epn) | set(ipn)
        assert not (set(epn) & set(ipn))


class TestTotalDomination:
    def test_middle_edge_dominates_p4(self):
        G = path_graph(4)
        assert is_total_dominating(G, VertexSet.of(4, [1, 2]))

    def test_endpoints_do_not_dominate_p4(self):
        G = path_graph(4)
        assert not is_total_dominating(G, VertexSet.of(4, [0, 3]))

    def test_empty_set_never_dominates(self):
        assert not is_total_dominating(path_graph(3), VertexSet(3))

    def test_minimal_gamma_set_on_p4(self):
        G = path_graph(4)
        assert is_minimal_total_dominating(G, VertexSet.of(4, [1, 2]))

    def test_oversized_set_not_minimal(self):
        G = path_graph(4)
        assert not is_minimal_total_dominating(G, VertexSet.of(4, [0, 1, 2]))

    def test_k2_unique_td_set_minimal(self):
        G = build_graph(2, [(0, 1)])
        assert is_minimal_total_dominating(G, VertexSet.of(2, [0, 1]))

    def test_rejects_non_td_sets(self):
        G = path_graph(4)
        with pytest.raises(ValueError):
            is_minimal_total_dominating(G, VertexSet.of(4, [0]))

    @settings(max_examples=60, deadline=None)
    @given(isolate_free_graphs_st(max_n=8))
    def test_minimality_routes_agree(self, G):
        # Private-neighborhood characterisation vs subset-removal definition,
        # exhaustively over every TD-set of the drawn graph.
        for size in range(1, G.n + 1):
            for combo in combinations(range(G.n), size):
                D = VertexSet.of(G.n, combo)
                if not is_total_dominating(G, D):
                    continue
                assert is_minimal_total_dominating(G, D) == (
                    is_minimal_total_dominating_by_removal(G, D)
                )

    @settings(max_examples=60, deadline=None)
    @given(isolate_free_graphs_st(max_n=7))
    def test_minimal_td_sets_are_open_open_irredundant(self, G):
        for size in range(1, G.n + 1):
            for combo in combinations(range(G.n), size):
                D = VertexSet.of(G.n, combo)
                if is_total_dominating(G, D) and is_minimal_total_dominating(G, D):
                    assert is_open_open_irredundant(G, D)


class TestDistance:
    def test_path_ends(self):
        assert distance(path_graph(4), 0, 3) == 3

    def test_reflexive(self):
        assert distance(cycle_graph(5), 2, 2) == 0

    def test_cycle_shorter_arc(self):
        assert distance(cycle_graph(7), 0, 4) == 3

    def test_disconnected_sentinel(self):
        G = build_graph(4, [(0, 1), (2, 3)])
        assert distance(G, 0, 3) == INFINITE_DISTANCE

    @settings(max_examples=80)
    @given(graphs(max_n=7))
    def test_matches_networkx(self, G):
        nx = pytest.importorskip("networkx")
        H = nx.Graph()
        H.add_nodes_from(range(G.n))
        H.add_edges_from(G.edges())
        lengths = dict(nx.all_pairs_shortest_path_length(H))
        for u in range(G.n):
            for v in range(G.n):
                expected = lengths.get(u, {}).get(v, INFINITE_DISTANCE)
                assert distance(G, u, v) == expected


class TestStructure:
    def test_components(self):
        G = build_graph(5, [(0, 1), (2, 3)])
        comps = connected_components(G)
        assert [sorted(c) for c in comps] == [[0, 1], [2, 3], [4]]

    @settings(max_examples=80)
    @given(graphs(min_n=0, max_n=9))
    def test_components_match_networkx(self, G):
        nx = pytest.importorskip("networkx")
        H = nx.Graph()
        H.add_nodes_from(range(G.n))
        H.add_edges_from(G.edges())
        expected = sorted(sorted(c) for c in nx.connected_components(H))
        assert [sorted(c) for c in connected_components(G)] == expected

    def test_bipartite(self):
        assert is_bipartite(cycle_graph(6))
        assert not is_bipartite(cycle_graph(5))

    @settings(max_examples=150)
    @given(graphs(max_n=8))
    def test_bipartition_matches_networkx(self, G):
        # graphs() keeps isolated vertices, which are one-vertex components.
        nx = pytest.importorskip("networkx")
        H = nx.Graph()
        H.add_nodes_from(range(G.n))
        H.add_edges_from(G.edges())
        sides = bipartition(G)
        assert (sides is None) == (not nx.is_bipartite(H))
        if sides is not None:
            side0, side1 = sides
            assert side0.mask & side1.mask == 0 and side0.mask | side1.mask == G.full_mask
            assert all((u in side0) != (v in side0) for u, v in G.edges())
            assert all(min(c) in side0 for c in nx.connected_components(H))
