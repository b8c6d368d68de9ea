"""Edgelist and graph6 codecs, cross-checked against the networkx reference."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from tdgamelab import SOLVER_CAP, CapacityError, GraphTextError, build_graph, parse_graph, serialize_graph
from tdgamelab.families import path_graph
from tdgamelab.graphio import (
    iter_graph6_lines,
    parse_edgelist,
    parse_graph6,
    serialize_edgelist,
    serialize_graph6,
)
from tdgamelab.verify import isolate_free_graphs

from conftest import graphs

nx = pytest.importorskip("networkx")


def to_nx(G):
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    return H


class TestEdgelist:
    def test_parse_p3(self):
        G = parse_edgelist("3\n0 1\n1 2")
        assert G.edges() == [(0, 1), (1, 2)]

    def test_serialize_k2(self):
        assert serialize_edgelist(build_graph(2, [(0, 1)])) == "2\n0 1"

    def test_comments_and_blank_lines(self):
        G = parse_edgelist("# a path\n3\n\n0 1  # first edge\n1 2\n")
        assert G.edges() == [(0, 1), (1, 2)]

    def test_malformed_header(self):
        with pytest.raises(GraphTextError):
            parse_edgelist("x\n0 1")

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphTextError):
            parse_edgelist("2\n0 5")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphTextError):
            parse_edgelist("2\n1 1")

    def test_serialize_then_parse_is_canonical(self):
        messy = "4\n2 3\n0 1\n1 0\n1 2"
        canonical = serialize_edgelist(parse_edgelist(messy))
        assert canonical == "4\n0 1\n1 2\n2 3"
        assert serialize_edgelist(parse_edgelist(canonical)) == canonical


class TestGraph6:
    def test_k2(self):
        assert serialize_graph6(build_graph(2, [(0, 1)])) == "A_"
        assert parse_graph6("A_").edges() == [(0, 1)]

    def test_header_prefix_accepted(self):
        assert parse_graph6(">>graph6<<A_").edges() == [(0, 1)]

    def test_length_mismatch(self):
        with pytest.raises(GraphTextError):
            parse_graph6("D")  # order 5 needs payload bytes

    def test_bad_data_byte(self):
        with pytest.raises(GraphTextError):
            parse_graph6("B\x20")

    def test_nonzero_padding_rejected(self):
        # n(n-1)/2 data bits leave 0, 2, 3 or 5 padding bits in the last
        # byte; setting any one of them must be rejected.
        widths = set()
        for n in range(SOLVER_CAP + 1):
            good = serialize_graph6(build_graph(n, combinations(range(n), 2)))
            width = -(n * (n - 1) // 2) % 6
            widths.add(width)
            for bit in range(width):
                value = ord(good[-1]) - 63
                bad = good[:-1] + chr((value | 1 << bit) + 63)
                assert bad != good
                with pytest.raises(GraphTextError, match="padding bits are not zero"):
                    parse_graph6(bad)
        assert widths == {0, 2, 3, 5}

    def test_non_ascii_rejected(self):
        # A lossy encoding would turn "é" into "?", a valid data byte.
        with pytest.raises(GraphTextError):
            parse_graph6("Bé")

    def test_large_order_capacity_error(self):
        with pytest.raises(CapacityError):
            parse_graph6("~" + "?" * 10)
        with pytest.raises(CapacityError):
            parse_graph6(chr(63 + 40) + "?" * 200)

    def test_stream_errors_name_the_line(self):
        # "_??" encodes order 32; the error keeps its type, so the CLI exits 3.
        with pytest.raises(CapacityError, match=r"^line 2: graph6 order 32 exceeds SOLVER_CAP"):
            list(iter_graph6_lines("A_\n_??\n"))
        with pytest.raises(GraphTextError, match=r"^line 3: "):
            list(iter_graph6_lines("A_\n\nA\n"))

    def test_all_four_vertex_graphs_from_reference_codec(self):
        # Every 4-vertex graph, encoded by networkx, parses back identically.
        payloads = []
        seen = set()
        for H in nx.graph_atlas_g():
            if H.number_of_nodes() == 4:
                code = nx.to_graph6_bytes(H, header=False).strip().decode()
                if code not in seen:
                    seen.add(code)
                    payloads.append((code, H))
        assert len(payloads) == 11
        for code, H in payloads:
            G = parse_graph6(code)
            assert G.n == 4
            assert set(G.edges()) == {tuple(sorted(e)) for e in H.edges()}

    @settings(max_examples=100, deadline=None)
    @given(graphs(min_n=1, max_n=12))
    def test_round_trip_against_networkx(self, G):
        ours = serialize_graph6(G)
        theirs = nx.to_graph6_bytes(to_nx(G), header=False).strip().decode()
        assert ours == theirs
        back = parse_graph6(theirs)
        assert back.nbr == G.nbr

    @pytest.mark.parametrize("n", range(SOLVER_CAP + 1))
    def test_every_order_matches_networkx(self, n):
        # The empty graph, the complete graph and one seeded random graph.
        rng = random.Random(n)
        cases = [
            build_graph(n, []),
            build_graph(n, combinations(range(n), 2)),
            build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5]),
        ]
        for G in cases:
            ours = serialize_graph6(G)
            assert ours == nx.to_graph6_bytes(to_nx(G), header=False).strip().decode()
            assert parse_graph6(ours) == G

    def test_enumeration_interop(self):
        # A whole exhaustive corpus survives a graph6 file round-trip.
        text = "\n".join(serialize_graph6(G) for G in isolate_free_graphs(5))
        parsed = list(iter_graph6_lines(text))
        assert [g.nbr for g in parsed] == [g.nbr for g in isolate_free_graphs(5)]

    def test_dense_family_payload(self):
        from tdgamelab import family, parse_family_spec

        G = family(parse_family_spec("gk:1"))
        back = parse_graph6(serialize_graph6(G))
        assert back.n == 8 and back.edge_count() == 22


class TestDispatch:
    @settings(max_examples=60, deadline=None)
    @given(graphs(min_n=2, max_n=10))
    def test_both_formats_round_trip(self, G):
        for fmt in ("edgelist", "graph6"):
            assert parse_graph(serialize_graph(G, fmt), fmt).nbr == G.nbr

    def test_unknown_format(self):
        with pytest.raises(GraphTextError):
            serialize_graph(path_graph(3), "dot")
