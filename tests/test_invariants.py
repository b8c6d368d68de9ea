"""Exact invariants against brute-force oracles and frozen known values."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from tdgamelab import (
    IsolatedVertexError,
    VertexSet,
    build_graph,
    family,
    gamma_t,
    has_perfect_matching,
    induced_matching_number,
    is_induced_matching,
    is_minimal_total_dominating,
    is_minimal_total_dominating_by_removal,
    is_open_open_irredundant,
    is_perfect_matching,
    is_total_dominating,
    ooir,
    parse_family_spec,
    upper_gamma_t,
)
from tdgamelab import invariants
from tdgamelab.families import disjoint_union, path_graph
from tdgamelab.games import TABLE_ORDER_CAP
from tdgamelab.graph import Graph, components
from tdgamelab.invariants import WitnessError
from tdgamelab.verify import exhaustive_corpus, random_isolate_free_graph

from conftest import (
    CountingMasks,
    brute_induced_matching_witness,
    isolate_free_graphs_st,
    random_split_graphs,
    relabeled,
)


def brute_upper_gamma_t(G):
    best = 0
    for k in range(1, G.n + 1):
        for combo in combinations(range(G.n), k):
            D = VertexSet.of(G.n, combo)
            if is_total_dominating(G, D) and is_minimal_total_dominating(G, D):
                best = max(best, k)
    return best


def brute_ooir(G):
    best = 0
    for k in range(1, G.n + 1):
        for combo in combinations(range(G.n), k):
            if is_open_open_irredundant(G, VertexSet.of(G.n, combo)):
                best = max(best, k)
    return best


def first_smallest(G, predicate):
    """Size and mask of the lexicographically first smallest set passing ``predicate``.

    Ascends through the subset sizes from 0 and scans each size in
    ``combinations`` order, so ties go to the lexicographically smallest set.
    """
    for k in range(G.n + 1):
        for combo in combinations(range(G.n), k):
            D = VertexSet.of(G.n, combo)
            if predicate(G, D):
                return k, D.mask
    raise AssertionError("no set passes the predicate")


def first_largest(G, predicate):
    """Size and mask of the lexicographically first largest set passing ``predicate``.

    Descends through the subset sizes from n and scans each size in
    ``combinations`` order, so ties go to the lexicographically smallest set.
    """
    for k in range(G.n, 0, -1):
        for combo in combinations(range(G.n), k):
            D = VertexSet.of(G.n, combo)
            if predicate(G, D):
                return k, D.mask
    return 0, 0


def brute_gamma_t_witness(G):
    return first_smallest(G, is_total_dominating)


def brute_upper_gamma_t_witness(G):
    return first_largest(
        G, lambda G, D: is_total_dominating(G, D) and is_minimal_total_dominating_by_removal(G, D)
    )


def brute_ooir_witness(G):
    return first_largest(G, is_open_open_irredundant)


def brute_induced_matching(G):
    edges = G.edges()
    best = 0
    for k in range(1, len(edges) + 1):
        for combo in combinations(edges, k):
            if is_induced_matching(G, combo):
                best = max(best, k)
    return best


def pairwise_conflicts(G, edges):
    """Entry i: the other edges with an end in N[a] ∪ N[b], for edges[i] = (a, b),
    found by testing every pair of edges."""
    m = len(edges)
    conflict = [0] * m
    for i in range(m):
        a, b = edges[i]
        cover_i = G.nbr[a] | G.nbr[b] | 1 << a | 1 << b
        for j in range(i + 1, m):
            c, d = edges[j]
            if cover_i & (1 << c | 1 << d):
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    return conflict


def brute_has_perfect_matching(G):
    if G.n % 2:
        return False
    edges = G.edges()
    for combo in combinations(edges, G.n // 2):
        if is_perfect_matching(G, combo):
            return True
    return False


class TestGammaT:
    def test_k2(self):
        assert gamma_t(build_graph(2, [(0, 1)])).value == 2

    def test_p4(self):
        assert gamma_t(path_graph(4)).value == 2

    def test_corona_k3(self):
        G = family(parse_family_spec("corona:complete3"))
        assert gamma_t(G).value == 3

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertexError):
            gamma_t(build_graph(3, [(0, 1)]))

    def test_witness_is_lex_smallest(self):
        # P_5 has several optimal TD-sets; {1, 2, 3} is the lexicographically first.
        result = gamma_t(path_graph(5))
        assert result.value == 3
        assert sorted(result.witness) == [1, 2, 3]

    def test_order_zero(self):
        result = gamma_t(build_graph(0, []))
        assert (result.value, result.witness.mask) == (0, 0)

    @pytest.mark.parametrize(
        "spec, value",
        [("path:24", 12), ("cycle:22", 12), ("corona:path12", 12), ("substar:4,4", 10)],
    )
    def test_frozen_values(self, spec, value):
        G = family(parse_family_spec(spec))
        result = gamma_t(G)
        assert result.value == value
        assert is_total_dominating(G, result.witness) and len(result.witness) == value

    def test_witness_matches_ascent_on_relabeled_random_graphs(self):
        # Relabeling moves the lexicographically first TD-set around, so the
        # search's order is tested, not only its value.
        rng = random.Random(0x67A3)
        for n in range(8, 15):
            for _ in range(4):
                G = relabeled(random_isolate_free_graph(n, rng.uniform(0.15, 0.6), rng), rng)
                gt = gamma_t(G)
                assert (gt.value, gt.witness.mask) == brute_gamma_t_witness(G), G.edges()


class TestUpperGammaT:
    def test_p10_formula(self):
        assert upper_gamma_t(path_graph(10)).value == 6

    def test_cycle_power_7_2(self):
        assert upper_gamma_t(family(parse_family_spec("cyclepower:7,2"))).value == 2

    def test_gk2(self):
        assert upper_gamma_t(family(parse_family_spec("gk:2"))).value == 4

    def test_non_dominating_witness_is_a_witness_error(self, monkeypatch):
        # {0} does not dominate P_4; the check must report a faulty table
        # read, not reject the set as a bad input.
        monkeypatch.setattr(invariants, "_table_optimum", lambda G, kind: (1, 1))
        with pytest.raises(WitnessError, match="upper_gamma_t"):
            upper_gamma_t(path_graph(4))

    def test_non_dominating_search_witness_is_a_witness_error(self, monkeypatch):
        # Above the table cap the search answers, and {0} does not dominate P_8.
        monkeypatch.setattr(invariants, "_irredundant_optima", lambda G: ((1, 1), (1, 1)))
        with pytest.raises(WitnessError, match="upper_gamma_t"):
            upper_gamma_t(path_graph(TABLE_ORDER_CAP + 1))

    def test_witness_is_minimal(self):
        result = upper_gamma_t(path_graph(8))
        assert is_minimal_total_dominating(path_graph(8), result.witness)


class TestOoir:
    def test_fk5(self):
        assert ooir(family(parse_family_spec("fk:5"))).value == 4

    def test_gk1(self):
        assert ooir(family(parse_family_spec("gk:1"))).value == 2

    def test_substar_4_3(self):
        assert ooir(family(parse_family_spec("substar:4,3"))).value == 10


class TestIrredundantSearch:
    """Γt and ooir beyond the exhaustive n <= 7 corpus, relabeled so that
    the lexicographic tie-break lands on different vertices."""

    def test_witnesses_match_descent_on_relabeled_random_graphs_8_to_12(self):
        rng = random.Random(0x1A7E)
        for n in range(8, 13):
            for _ in range(4):
                G = relabeled(random_isolate_free_graph(n, rng.uniform(0.15, 0.7), rng), rng)
                ugt, oo = upper_gamma_t(G), ooir(G)
                assert (ugt.value, ugt.witness.mask) == brute_upper_gamma_t_witness(G), G.edges()
                assert (oo.value, oo.witness.mask) == brute_ooir_witness(G), G.edges()

    def test_witnesses_match_descent_on_split_graphs_8_to_12(self):
        # Trees, bipartite graphs and two-part unions, relabeled, so that V
        # falls into interleaved parts under "shares a neighbour" and the
        # search runs once per part; G(n, p) above is rarely bipartite.
        for G in random_split_graphs(random.Random(0x5B17), 24, 8, 12):
            assert len(components(G.near, G.full_mask)) > 1, G.edges()
            ugt, oo = upper_gamma_t(G), ooir(G)
            assert (ugt.value, ugt.witness.mask) == brute_upper_gamma_t_witness(G), G.edges()
            assert (oo.value, oo.witness.mask) == brute_ooir_witness(G), G.edges()

    @pytest.mark.parametrize(
        "spec, ugt, oo",
        [
            ("cyclepower:18,3", 6, 6),
            ("bk:8", 2, 16),
            ("fk:8", 4, 7),
            ("cycle:20", 12, 12),
            ("substar:4,4", 16, 16),
        ],
    )
    def test_frozen_values_under_relabeling(self, spec, ugt, oo):
        G0 = family(parse_family_spec(spec))
        for seed in range(3):
            G = relabeled(G0, random.Random(seed))
            got_ugt, got_oo = upper_gamma_t(G), ooir(G)
            assert (got_ugt.value, got_oo.value) == (ugt, oo), seed
            assert is_minimal_total_dominating(G, got_ugt.witness)
            assert is_open_open_irredundant(G, got_oo.witness)

    @pytest.mark.parametrize(
        "spec, solve, value, limit",
        [
            # Γt(bk:8) = 2 lies far below ooir = 16, so the cover limit does
            # the work: 5,233 reads; with the limit taken over every vertex
            # from the lowest candidate on instead of the candidates, 136,994.
            ("bk:8", upper_gamma_t, 2, 8_000),
            # cycle:20 and path:20 are bipartite, so each colour class is a
            # part of its own under "shares a neighbour" and is searched
            # alone.  ooir(cycle:20): 2,982 reads; with ``<`` for ``<=`` in
            # the size bounds, 3,965, without the bounds inside the loop,
            # 5,629, with per-node lists of the candidates and the unions of
            # their neighbourhoods in place of the cover limit, 3,027, and
            # with one search over all of V, 92,474.
            ("cycle:20", ooir, 12, 3_010),
            # Γt(cycle:20) runs the same search and checks another witness:
            # 3,078 reads; with ``<`` for ``<=``, 4,061, without the bounds
            # inside the loop, 5,725, and over all of V, 92,570.
            ("cycle:20", upper_gamma_t, 12, 3_300),
            # Γt(path:20): 2,089 reads; with ``<`` for ``<=``, 2,649, without
            # the bounds inside the loop, 3,918, with the cover limit taken
            # from the lowest candidate on, 2,161, and over all of V, 22,975.
            ("path:20", upper_gamma_t, 14, 2_130),
            # ooir(cyclepower:18,3), whose V is one part: 57,792 reads; with
            # the per-node lists, 59,760.
            ("cyclepower:18,3", ooir, 6, 59_000),
            # Γt(fk:8) = 4 lies below ooir = 7: 23,653 reads; with the
            # per-node lists, 24,807, and with the cover limit taken from the
            # lowest candidate on, 25,148.
            ("fk:8", upper_gamma_t, 4, 24_400),
        ],
        # From the spec and the solver only, so re-measuring a limit keeps the name.
        ids=["bk:8-upper_gamma_t", "cycle:20-ooir", "cycle:20-upper_gamma_t", "path:20-upper_gamma_t",
             "cyclepower:18,3-ooir", "fk:8-upper_gamma_t"],
    )
    def test_prunes_bound_the_work(self, spec, solve, value, limit):
        # Reads of the neighbour masks count the search's work
        # deterministically, so a prune weakened without changing any value
        # still fails.  Either call runs the one search for Γt and ooir.  A
        # search that re-checks each set from scratch, with only a size
        # bound on the vertices left, reads 21.8 million masks for Γt on ten
        # relabelings of bk:8.
        G0 = family(parse_family_spec(spec))
        graphs = [relabeled(G0, random.Random(seed)) for seed in range(3)]
        counted = [Graph(G.n, CountingMasks(G.nbr)) for G in graphs]
        # A counted graph equals its plain twin, which an earlier test may
        # have left in the cache.
        invariants._irredundant_optima.cache_clear()
        CountingMasks.reads = 0
        assert [solve(G).value for G in counted] == [value] * 3
        assert CountingMasks.reads <= limit, CountingMasks.reads

    def test_second_call_reads_the_cache(self):
        # Above the cap, ooir after upper_gamma_t on the same graph reads
        # no mask beyond its own witness check.
        G = relabeled(family(parse_family_spec("fk:8")), random.Random(4))
        counted = Graph(G.n, CountingMasks(G.nbr))
        invariants._irredundant_optima.cache_clear()
        ugt = upper_gamma_t(counted)
        CountingMasks.reads = 0
        oo = ooir(counted)
        reads = CountingMasks.reads
        CountingMasks.reads = 0
        assert is_open_open_irredundant(counted, oo.witness) and len(oo.witness) == oo.value
        assert reads == CountingMasks.reads, reads
        assert is_minimal_total_dominating(counted, ugt.witness) and len(ugt.witness) == ugt.value
        assert (ugt.value, oo.value) == (4, 7)
        assert invariants._irredundant_optima.cache_info().hits == 1

    def test_merged_search_matches_brute_force_8_to_12(self):
        # Γt and ooir come from one search that keeps both bests, so a
        # prune of one best that cuts the other's branches shows here:
        # sparse draws put Γt below ooir.  A lone vertex, which only ooir
        # accepts, joins half of the graphs.
        rng = random.Random(0x2B35)
        lone = build_graph(1, [])
        for n in range(8, 13):
            for i in range(6):
                p = rng.uniform(0.12, 0.7)
                if i % 2:
                    G = relabeled(disjoint_union([random_isolate_free_graph(n - 1, p, rng), lone]), rng)
                    assert invariants._irredundant_optima(G)[1] == brute_ooir_witness(G), G.edges()
                else:
                    G = relabeled(random_isolate_free_graph(n, p, rng), rng)
                    assert invariants._irredundant_optima(G) == (
                        brute_upper_gamma_t_witness(G), brute_ooir_witness(G)
                    ), G.edges()

    def test_additive_over_disjoint_unions(self):
        # The sets of a disjoint union are the unions of sets of its parts,
        # and the first part's vertices come first, so the first smallest or
        # largest set is the first such set of each part side by side.  The
        # same holds for induced matchings, whose edges of the first part
        # sort first.  At most three parts of at most 8 vertices keep the
        # union within SOLVER_CAP.
        rng = random.Random(0xAD)
        for _ in range(12):
            parts = [
                relabeled(random_isolate_free_graph(rng.randint(2, 8), rng.uniform(0.2, 0.7), rng), rng)
                for _ in range(rng.randint(2, 3))
            ]
            whole = disjoint_union(parts)
            for solve in (gamma_t, upper_gamma_t, ooir):
                offset, value, mask = 0, 0, 0
                for part in parts:
                    result = solve(part)
                    value += result.value
                    mask |= result.witness.mask << offset
                    offset += part.n
                result = solve(whole)
                assert (result.value, result.witness.mask) == (value, mask), [p.edges() for p in parts]
            offset, value, edges = 0, 0, ()
            for part in parts:
                result = induced_matching_number(part)
                value += result.value
                edges += tuple((u + offset, v + offset) for u, v in result.witness)
                offset += part.n
            result = induced_matching_number(whole)
            assert (result.value, result.witness) == (value, edges), [p.edges() for p in parts]


class TestInducedMatching:
    def test_bk3(self):
        assert induced_matching_number(family(parse_family_spec("bk:3"))).value == 3

    def test_substar_4_3(self):
        assert induced_matching_number(family(parse_family_spec("substar:4,3"))).value == 5

    def test_k2(self):
        assert induced_matching_number(build_graph(2, [(0, 1)])).value == 1

    def test_candidate_edge_restriction(self):
        # Restricting to pendant edges of the once-subdivided star keeps the
        # optimum; restricting to a single edge caps the value at one.
        G = family(parse_family_spec("substar:3,1"))
        pendant = [(u, v) for u, v in G.edges() if G.degree(u) == 1 or G.degree(v) == 1]
        assert induced_matching_number(G, pendant).value == 3
        assert induced_matching_number(G, [G.edges()[0]]).value == 1

    def test_witnesses_match_brute_force_on_dense_relabeled_graphs_8_to_16(self):
        # Dense graphs, where most pairs of edges conflict, so the conflict
        # table does most of the work.
        rng = random.Random(0x1D)
        for n in range(8, 17):
            for _ in range(3):
                G = relabeled(random_isolate_free_graph(n, rng.uniform(0.5, 0.8), rng), rng)
                result = induced_matching_number(G)
                assert (result.value, result.witness) == brute_induced_matching_witness(G), G.edges()

    def test_conflict_masks_match_pairwise_loop(self):
        # The table also sets bit i in entry i; the search has taken edge i
        # out of its candidates before it reads that entry.
        rng = random.Random(0xC0)
        for _ in range(40):
            G = random_isolate_free_graph(rng.randint(2, 16), rng.uniform(0.1, 0.8), rng)
            for edges in (G.edges(), [e for e in G.edges() if rng.random() < 0.5]):
                expected = [mask | 1 << i for i, mask in enumerate(pairwise_conflicts(G, edges))]
                assert invariants._conflict_masks(G, edges) == expected, G.edges()

    def test_duplicate_and_reversed_candidates(self):
        rng = random.Random(0xD0)
        for _ in range(30):
            G = random_isolate_free_graph(rng.randint(4, 12), rng.uniform(0.2, 0.8), rng)
            edges = [e for e in G.edges() if rng.random() < 0.6] or G.edges()[:1]
            messy = [
                (v, u) if rng.random() < 0.5 else (u, v)
                for u, v in edges
                for _ in range(rng.randint(1, 3))
            ]
            rng.shuffle(messy)
            expected, got = induced_matching_number(G, edges), induced_matching_number(G, messy)
            assert (got.value, got.witness) == (expected.value, expected.witness), messy

    def test_non_edge_candidates_rejected(self):
        with pytest.raises(ValueError):
            induced_matching_number(path_graph(4), [(0, 3)])

    @pytest.mark.parametrize("edges", [((0, -1),), ((-1, 0),), ((2, 4),), ((0, 1), (3, -1))])
    def test_out_of_range_edges_are_not_a_matching(self, edges):
        assert not is_induced_matching(path_graph(4), edges)


class TestPerfectMatching:
    def test_p4_true(self):
        result = has_perfect_matching(path_graph(4))
        assert result.value is True
        assert result.witness == ((0, 1), (2, 3))

    def test_p3_false(self):
        assert has_perfect_matching(path_graph(3)).value is False

    def test_p6_true(self):
        assert has_perfect_matching(path_graph(6)).value is True

    def test_even_star_false(self):
        G = family(parse_family_spec("star:3"))
        assert has_perfect_matching(G).value is False


class TestAgainstBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(isolate_free_graphs_st(max_n=6))
    def test_all_invariants_match_oracles(self, G):
        gt = gamma_t(G)
        assert (gt.value, gt.witness.mask) == brute_gamma_t_witness(G)
        assert upper_gamma_t(G).value == brute_upper_gamma_t(G)
        assert ooir(G).value == brute_ooir(G)
        assert induced_matching_number(G).value == brute_induced_matching(G)
        assert bool(has_perfect_matching(G).value) == brute_has_perfect_matching(G)

    def test_witness_tie_break_on_every_graph_up_to_7(self):
        for graph_id, G in exhaustive_corpus(7):
            gt, ugt, oo, im = gamma_t(G), upper_gamma_t(G), ooir(G), induced_matching_number(G)
            assert (gt.value, gt.witness.mask) == brute_gamma_t_witness(G), graph_id
            assert (ugt.value, ugt.witness.mask) == brute_upper_gamma_t_witness(G), graph_id
            assert (oo.value, oo.witness.mask) == brute_ooir_witness(G), graph_id
            assert (im.value, im.witness) == brute_induced_matching_witness(G), graph_id

    @settings(max_examples=40, deadline=None)
    @given(isolate_free_graphs_st(max_n=7))
    def test_witnesses_certify_values(self, G):
        gt = gamma_t(G)
        assert is_total_dominating(G, gt.witness) and len(gt.witness) == gt.value
        ugt = upper_gamma_t(G)
        assert is_minimal_total_dominating(G, ugt.witness)
        assert len(ugt.witness) == ugt.value
        oo = ooir(G)
        assert is_open_open_irredundant(G, oo.witness) and len(oo.witness) == oo.value
        im = induced_matching_number(G)
        assert is_induced_matching(G, im.witness) and len(im.witness) == im.value
        pm = has_perfect_matching(G)
        if pm.value:
            assert is_perfect_matching(G, pm.witness)

    @settings(max_examples=40, deadline=None)
    @given(isolate_free_graphs_st(max_n=7))
    def test_classical_chain(self, G):
        gt = gamma_t(G).value
        ugt = upper_gamma_t(G).value
        oo = ooir(G).value
        nui = induced_matching_number(G).value
        assert gt <= ugt <= oo
        assert 2 * nui <= oo


def search_optima(G):
    """(value, witness) of γt, Γt, ooir and νI from the searches, which answer above the cap."""
    chosen = invariants._first_smallest_td_set(G)
    matching = invariants._first_largest_induced_matching(G, G.edges())
    return (
        (len(chosen), VertexSet.of(G.n, chosen).mask),
        *invariants._irredundant_optima(G),
        (len(matching), matching),
    )


def public_optima(G):
    """The same from the public calls, which read the table up to the cap."""
    sets = [(r.value, r.witness.mask) for r in (gamma_t(G), upper_gamma_t(G), ooir(G))]
    im = induced_matching_number(G)
    return (*sets, (im.value, im.witness))


class TestSubsetTable:
    """Up to the cap the four invariants read one subset table per graph;
    the searches stay its oracle there, as the game engines do for the rounds."""

    def test_matches_the_searches_on_every_graph_up_to_7(self):
        rng = random.Random(0x7AB1)
        for graph_id, G in exhaustive_corpus(TABLE_ORDER_CAP):
            for H in (G, relabeled(G, rng)):
                assert public_optima(H) == search_optima(H), (graph_id, H.edges())

    def test_matches_the_searches_with_isolated_vertices(self):
        # ooir and νI accept isolated vertices, which no admitted set holds:
        # the edgeless graphs, and each graph up to order 6 with one more
        # vertex, relabeled.
        rng = random.Random(0x150)
        lone = build_graph(1, [])
        graphs = [build_graph(n, []) for n in range(TABLE_ORDER_CAP + 1)]
        graphs += [relabeled(disjoint_union([G, lone]), rng) for _, G in exhaustive_corpus(TABLE_ORDER_CAP - 1)]
        for G in graphs:
            oo, im = ooir(G), induced_matching_number(G)
            assert (oo.value, oo.witness.mask) == invariants._irredundant_optima(G)[1], G.edges()
            matching = invariants._first_largest_induced_matching(G, G.edges())
            assert (im.value, im.witness) == (len(matching), matching), G.edges()

    def test_searches_run_above_the_cap(self, monkeypatch):
        G = path_graph(TABLE_ORDER_CAP + 1)
        monkeypatch.setattr(invariants, "_table_optimum", None)
        assert public_optima(G) == (
            (4, 0b01100110), (6, 0b11011011), (6, 0b11011011), (3, ((0, 1), (3, 4), (6, 7)))
        )


def test_classical_chain_on_seeded_corpus():
    # 200 seeded draws up to n = 9, including the bipartite equality case.
    from tdgamelab import is_bipartite

    rng = random.Random(0xC0FFEE)
    for _ in range(200):
        G = random_isolate_free_graph(rng.randint(3, 9), rng.uniform(0.25, 0.8), rng)
        gt = gamma_t(G).value
        ugt = upper_gamma_t(G).value
        oo = ooir(G).value
        nui = induced_matching_number(G).value
        assert gt <= ugt <= oo
        assert 2 * nui <= oo
        if is_bipartite(G):
            assert 2 * nui == oo
