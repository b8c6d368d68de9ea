"""Family generators: exact shapes, counts, labels, and spec text round-trips."""

import re
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from tdgamelab import (
    SOLVER_CAP,
    FamilySpec,
    FamilySpecError,
    Graph,
    distance,
    family,
    graph_join,
    graph_power,
    is_bipartite,
    parse_family_spec,
)
from tdgamelab.families import (
    _KINDS,
    bk_graph,
    complete_graph,
    cycle_graph,
    fk_graph,
    gk_graph,
    jk_graph,
    leaves,
    path_graph,
    star_graph,
    subdivided_star,
    support_vertices,
    validate_spec,
)
from tdgamelab.graph import CapacityError

README = Path(__file__).resolve().parents[1] / "README.md"


def has_triangle(G: Graph) -> bool:
    return any(
        G.has_edge(u, v) and G.has_edge(v, w) and G.has_edge(u, w)
        for u in range(G.n)
        for v in range(u + 1, G.n)
        for w in range(v + 1, G.n)
    )


class TestSpecText:
    @pytest.mark.parametrize(
        "text",
        [
            "path:7",
            "cycle:5",
            "complete:4",
            "star:3",
            "cyclepower:7,2",
            "gk:2",
            "fk:5",
            "bk:3",
            "jk:4",
            "substar:4,3",
            "join:path4+path4",
            "corona:complete3",
            "union:path4+cycle3",
        ],
    )
    def test_round_trip(self, text):
        spec = parse_family_spec(text)
        assert spec.text() == text
        assert parse_family_spec(spec.text()) == spec

    def test_nested_colon_form_accepted(self):
        assert parse_family_spec("join:path:4+path:4") == parse_family_spec("join:path4+path4")

    @pytest.mark.parametrize(
        "text",
        ["nope:3", "path", "path:", "path:one", "cyclepower:7", "substar:2,1",
         "path:1", "cycle:2", "fk:4", "join:path4", "corona:path4+path4",
         "join:substar4,3+path4"],
    )
    def test_bad_specs_rejected(self, text):
        with pytest.raises(FamilySpecError):
            parse_family_spec(text)

    def test_capacity_enforced_through_generator(self):
        with pytest.raises(CapacityError):
            family(parse_family_spec("gk:4"))

    @pytest.mark.parametrize(
        "text", ["path:200000", "gk:20000", "complete:1000", "union:path100000+path4"]
    )
    def test_oversized_spec_fails_before_building(self, text):
        spec = parse_family_spec(text)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                family(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def table_order(spec: FamilySpec) -> int:
    row = _KINDS[spec.kind]
    values = [getattr(spec, attr) for attr, _ in row.params]
    return row.order(*values, *map(table_order, spec.parts))


def table_specs(kind: str) -> list[FamilySpec]:
    """Specs of ``kind`` over a range of parameters or nested-spec counts."""
    row = _KINDS[kind]
    if row.params:
        attrs = [attr for attr, _ in row.params]
        span = 27 if len(attrs) == 1 else 9
        ranges = [range(low, low + span) for _, low in row.params]
        return [FamilySpec(kind, **dict(zip(attrs, values))) for values in product(*ranges)]
    nested = [
        FamilySpec(k, **{r.params[0][0]: r.params[0][1]})
        for k, r in _KINDS.items()
        if len(r.params) == 1
    ]
    counts = range(row.nested[0], min(row.nested[1], 3) + 1)
    return [FamilySpec(kind, parts=parts) for c in counts for parts in product(nested, repeat=c)]


class TestKindTable:
    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_order_matches_builder_and_text_round_trips(self, kind):
        built = 0
        for spec in table_specs(kind):
            assert parse_family_spec(spec.text()) == spec
            order = table_order(spec)
            if order > SOLVER_CAP:
                with pytest.raises(CapacityError):
                    family(spec)
            else:
                assert family(spec).n == order, spec.text()
                built += 1
        assert built > 0

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_below_each_minimum_rejected(self, kind):
        row = _KINDS[kind]
        lowest = {attr: low for attr, low in row.params}
        bad = [FamilySpec(kind, **{**lowest, attr: low - 1}) for attr, low in row.params]
        if not row.params:
            fewest, most = row.nested
            bad += [FamilySpec(kind, parts=(FamilySpec("path", n=2),) * count)
                    for count in (fewest - 1, most + 1) if 0 <= count < 4]
        assert bad
        for spec in bad:
            with pytest.raises(FamilySpecError):
                validate_spec(spec)
            with pytest.raises(FamilySpecError):
                parse_family_spec(spec.text())

    def test_readme_lists_every_kind(self):
        section = README.read_text(encoding="utf-8").split("## Family specs")[1].split("\n## ")[0]
        assert sorted(re.findall(r"^\| `([a-z]+):", section, re.M)) == sorted(_KINDS)


class TestBasicFamilies:
    def test_path_edge_count(self):
        for n in range(2, 9):
            assert path_graph(n).edge_count() == n - 1

    def test_cycle_edge_count(self):
        for n in range(3, 9):
            assert cycle_graph(n).edge_count() == n

    def test_star_shape(self):
        G = star_graph(4)
        assert G.n == 5
        assert G.degree(0) == 4
        assert all(G.degree(v) == 1 for v in range(1, 5))

    def test_complete(self):
        assert complete_graph(5).edge_count() == 10


class TestJoinAndPower:
    def test_k1_join_k1_is_k2(self):
        G = graph_join(complete_graph(1), complete_graph(1))
        assert G.n == 2 and G.edge_count() == 1

    def test_p4_join_p4_counts(self):
        G = graph_join(path_graph(4), path_graph(4))
        assert G.n == 8 and G.edge_count() == 22

    def test_k2_join_k2_is_k4(self):
        G = graph_join(complete_graph(2), complete_graph(2))
        assert G.edge_count() == 6

    def test_power_identity(self):
        G = cycle_graph(6)
        assert graph_power(G, 1).nbr == G.nbr

    def test_p4_squared(self):
        G = graph_power(path_graph(4), 2)
        assert set(G.edges()) == {(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)}

    def test_c7_cubed_is_complete(self):
        G = graph_power(cycle_graph(7), 3)
        assert G.edge_count() == 21

    def test_cycle_power_degrees_match_distance(self):
        C = cycle_graph(7)
        G = family(parse_family_spec("cyclepower:7,2"))
        assert all(G.degree(v) == 4 for v in range(7))
        for u in range(7):
            for v in range(u + 1, 7):
                assert G.has_edge(u, v) == (distance(C, u, v) <= 2)


class TestPaperFamilies:
    def test_gk1_is_plain_join_block(self):
        G = gk_graph(1)
        assert G.n == 8 and G.edge_count() == 22

    def test_gk2_counts(self):
        G = gk_graph(2)
        assert G.n == 16
        # 22 block edges per copy plus the two linking edges, checked two ways.
        assert G.edge_count() == 46
        assert sum(G.degree(v) for v in range(G.n)) == 2 * 46

    def test_gk2_link_edges(self):
        G = gk_graph(2)
        assert G.has_edge(6, 10)  # second-path w of block 1 to first-path w of block 2
        assert G.has_edge(14, 2)  # and back around

    def test_gk_vertex_counts(self):
        for k in (1, 2, 3):
            assert gk_graph(k).n == 8 * k

    def test_fk5_counts(self):
        G = fk_graph(5)
        assert G.n == 10 and G.edge_count() == 24

    def test_fk_matching_omits_last_pair(self):
        G = fk_graph(5)
        assert G.has_edge(0, 5) and G.has_edge(3, 8)
        assert not G.has_edge(4, 9)

    def test_bk_shape(self):
        G = bk_graph(4)
        assert G.n == 10
        assert G.degree(0) == 2 * 4 + 1  # hub
        assert G.degree(1) == 1  # pendant
        assert has_triangle(G)

    def test_bk_vertex_counts(self):
        for k in range(1, 6):
            assert bk_graph(k).n == 2 * k + 2

    def test_jk_vertex_counts(self):
        for k in range(1, 6):
            assert jk_graph(k).n == 3 * k + 2

    def test_jk_is_bipartite_bk_is_not(self):
        for k in range(1, 5):
            assert is_bipartite(jk_graph(k))
            assert not is_bipartite(bk_graph(k))
        for k in (1, 2, 3):
            assert not is_bipartite(gk_graph(k))

    def test_substar_counts_and_shape(self):
        G = subdivided_star(3, 1)
        assert G.n == 7 and G.edge_count() == 6
        assert sorted(G.degree(v) for v in range(7)) == [1, 1, 1, 2, 2, 2, 3]
        assert is_bipartite(G)

    def test_substar_vertex_count_formula(self):
        for k in (3, 4, 5):
            for t in (1, 2, 3):
                assert subdivided_star(k, t).n == k * (t + 1) + 1

    def test_corona_of_k3(self):
        G = family(parse_family_spec("corona:complete3"))
        assert G.n == 6
        assert sorted(G.degree(v) for v in range(6)) == [1, 1, 1, 3, 3, 3]

    def test_union_components(self):
        G = family(parse_family_spec("union:path4+cycle3"))
        assert G.n == 7 and G.edge_count() == 6

    def test_all_generated_graphs_pass_invariants(self):
        specs = [
            "path:6", "cycle:5", "complete:4", "star:4", "cyclepower:9,3",
            "gk:2", "fk:6", "bk:3", "jk:3", "substar:4,3",
            "join:path4+path4", "corona:complete4", "union:path4+path4",
        ]
        for text in specs:
            G = family(parse_family_spec(text))
            assert G.is_isolate_free()
            assert G.label == text

    def test_supports_and_leaves(self):
        G = subdivided_star(3, 1)
        assert sorted(leaves(G)) == [2, 4, 6]
        assert sorted(support_vertices(G)) == [1, 3, 5]

