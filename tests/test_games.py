"""Game engines against rule-level brute force, frozen values, and properties."""

import random

import pytest
from hypothesis import given, settings

from tdgamelab import (
    IndicatedGameSolver,
    IsolatedVertexError,
    Policy,
    PolicyError,
    Role,
    VertexSet,
    best_response_length,
    build_graph,
    family,
    grundy_t,
    gtg,
    gti,
    optimal_policy,
    parse_family_spec,
    play_game,
)
from tdgamelab.families import cycle_graph, disjoint_union, path_graph
from tdgamelab import games
from tdgamelab.games import (
    _check_indication,
    _check_selection,
    _class_search,
    _declared_mask,
    _LongestSequence,
    _mask_search,
)
from tdgamelab.graph import (
    Graph,
    bipartition,
    bits,
    components,
    is_bipartite,
    is_connected,
    max_degree,
    near_masks,
    require_isolate_free,
)
from tdgamelab.strategies import dominator_path_policy, staller_partition_policy
from tdgamelab.verify import exhaustive_corpus, isolate_free_graphs, random_isolate_free_graph

from conftest import CountingMasks, isolate_free_graphs_st, random_split_graphs, relabeled


def brute_gti(G, declared=frozenset()):
    """Direct game tree from the rules, tracking the played set explicitly."""
    nbr = {v: set(G.neighbors(v)) for v in range(G.n)}
    vertices = set(range(G.n))

    def dominated(played):
        out = set(declared)
        for u in played:
            out |= nbr[u]
        return out

    def value(played):
        dom = dominated(played)
        if dom == vertices:
            return 0
        best = None
        for v in vertices - dom:
            worst = 0
            for u in nbr[v]:
                assert u not in played  # no-replay is automatic
                worst = max(worst, 1 + value(played + (u,)))
            best = worst if best is None else min(best, worst)
        return best

    return value(())


def brute_gtg(G):
    nbr = {v: set(G.neighbors(v)) for v in range(G.n)}
    vertices = set(range(G.n))

    def value(dom, dominators_turn):
        if dom == vertices:
            return 0
        options = [u for u in range(G.n) if nbr[u] - dom]
        results = [1 + value(dom | nbr[u], not dominators_turn) for u in options]
        return min(results) if dominators_turn else max(results)

    return value(frozenset(), True)


def brute_grundy(G):
    nbr = {v: set(G.neighbors(v)) for v in range(G.n)}
    vertices = set(range(G.n))

    def value(dom):
        if dom == vertices:
            return 0
        return max(
            1 + value(dom | nbr[u]) for u in range(G.n) if nbr[u] - dom
        )

    return value(frozenset())


class OracleIndicatedGame:
    """Plain memo recursion for the indicated game, expanding every indication and reply."""

    def __init__(self, G):
        self.nbr = G.nbr
        self.neighbors = [sorted(G.neighbors(v)) for v in range(G.n)]
        self.full = G.full_mask
        self.memo = {self.full: 0}
        self.first_best = {}  # mask -> smallest optimal indication

    def value(self, mask):
        cached = self.memo.get(mask)
        if cached is not None:
            return cached
        best = self.full.bit_count() + 1
        for v in range(len(self.nbr)):
            if not mask >> v & 1:
                sub = 1 + self.reply_value(mask, v)
                if sub < best:
                    best = sub
                    self.first_best[mask] = v
        self.memo[mask] = best
        return best

    def reply_value(self, mask, v):
        return max(self.value(mask | self.nbr[u]) for u in self.neighbors[v])

    def best_indication(self, mask):
        self.value(mask)
        return self.first_best[mask]

    def best_selection(self, mask, v):
        target = self.reply_value(mask, v)
        return next(u for u in self.neighbors[v] if self.value(mask | self.nbr[u]) == target)


def oracle_gtg(G):
    """Plain memo recursion for the alternating game, over every legal move."""
    nbr, full, memo = G.nbr, G.full_mask, {}

    def value(mask, dominators_turn):
        if mask == full:
            return 0
        key = (mask, dominators_turn)
        if key not in memo:
            subs = [1 + value(mask | nbr[u], not dominators_turn) for u in range(G.n) if nbr[u] & ~mask]
            memo[key] = min(subs) if dominators_turn else max(subs)
        return memo[key]

    return value(0, True)


def gtg_tables(G):
    """γtg from every dominated mask, Staller (turn 0) and Dominator (turn 1) to move: two lists by mask.

    Filled from the full mask down, as every move only adds to the mask.
    """
    nbr, full = G.nbr, G.full_mask
    tables = ([0] * (full + 1), [0] * (full + 1))
    for mask in range(full - 1, -1, -1):
        subs = [mask | m for m in nbr if m & ~mask]
        tables[0][mask] = 1 + max(tables[1][child] for child in subs)
        tables[1][mask] = 1 + min(tables[0][child] for child in subs)
    return tables


def oracle_grundy(G, start=0):
    """Plain memo recursion for the longest total dominating sequence from the dominated mask ``start``."""
    nbr, full, memo = G.nbr, G.full_mask, {}

    def value(mask):
        if mask == full:
            return 0
        if mask not in memo:
            memo[mask] = max(1 + value(mask | nbr[u]) for u in range(G.n) if nbr[u] & ~mask)
        return memo[mask]

    return value(start)


def oracle_best_response(G, declared, fixed):
    """The plain recursion over dominated masks: one policy call, check and frame per position."""
    require_isolate_free(G)
    start = 0 if declared is None else _declared_mask(G, declared)
    nbr = G.nbr
    full = G.full_mask
    memo: dict[int, int] = {}

    def value(mask: int) -> int:
        if mask == full:
            return 0
        cached = memo.get(mask)
        if cached is not None:
            return cached
        if fixed.role is Role.DOMINATOR:
            v = fixed.chooser(mask)
            _check_indication(fixed, G, start, mask, v)
            best = 0
            for u in bits(nbr[v]):
                best = max(best, 1 + value(mask | nbr[u]))
        else:
            best = -1
            for v in bits(~mask & full):
                u = fixed.chooser(mask, v)
                _check_selection(fixed, G, start, mask, v, u)
                sub = 1 + value(mask | nbr[u])
                if best < 0 or sub < best:
                    best = sub
        memo[mask] = best
        return best

    return value(start)


class TestAgainstPlainRecursions:
    def test_every_graph_up_to_7(self):
        # The public solvers read whole tables here; the engines that they
        # use above the cap are held to the same recursions.
        for graph_id, G in exhaustive_corpus(7):
            value = OracleIndicatedGame(G).value(0)
            assert gti(G) == IndicatedGameSolver(G).value(0) == value, graph_id
            value = oracle_gtg(G)
            assert gtg(G) == _mask_search(G)[0] == value, graph_id
            value = oracle_grundy(G)
            assert grundy_t(G) == _LongestSequence(G).value(0) == value, graph_id

    def test_seeded_graphs_8_to_11(self):
        rng = random.Random(0x6A3E)
        for _ in range(60):
            G = random_isolate_free_graph(rng.randint(8, 11), rng.uniform(0.2, 0.7), rng)
            assert gti(G) == OracleIndicatedGame(G).value(0), G.edges()
            assert gtg(G) == oracle_gtg(G), G.edges()
            assert grundy_t(G) == oracle_grundy(G), G.edges()

    def test_relabeled_paths_and_cycles_13_to_16(self):
        # Many transpositions and deep windows: a bound stored on the wrong
        # side of a window shows here first.
        rng = random.Random(0xC7C1E)
        for spec in ["path:13", "path:14", "path:15", "path:16",
                     "cycle:13", "cycle:14", "cycle:15", "cycle:16"]:
            G = family(parse_family_spec(spec))
            H = relabeled(G, rng)
            assert gtg(H) == oracle_gtg(H), (spec, H.edges())
            assert grundy_t(H) == oracle_grundy(H), (spec, H.edges())

    def test_values_and_best_moves_on_every_mask_up_to_6(self):
        for graph_id, G in exhaustive_corpus(6):
            solver, oracle = IndicatedGameSolver(G), OracleIndicatedGame(G)
            for mask in range(G.full_mask):
                assert solver.value(mask) == oracle.value(mask), (graph_id, mask)
                assert gti(G, VertexSet(G.n, mask)) == oracle.value(mask), (graph_id, mask)
                assert solver.best_indication(mask) == oracle.best_indication(mask), (graph_id, mask)
                for v in range(G.n):
                    if not mask >> v & 1:
                        assert solver.best_selection(mask, v) == oracle.best_selection(mask, v), (
                            graph_id, mask, v)

    def test_values_and_best_indications_on_every_mask_at_7(self):
        for G in isolate_free_graphs(7):
            solver, oracle = IndicatedGameSolver(G), OracleIndicatedGame(G)
            for mask in range(G.full_mask):
                assert solver.value(mask) == oracle.value(mask), (G.label, mask)
                assert solver.best_indication(mask) == oracle.best_indication(mask), (G.label, mask)

    def test_sampled_masks_of_relabeled_graphs_8_to_11(self):
        # Sparse draws and relabeled bipartite families split often, and in
        # every order of their labels.
        rng = random.Random(0x5B117)
        graphs = [relabeled(family(parse_family_spec(spec)), rng)
                  for spec in ["path:11", "cycle:10", "substar:3,2", "corona:path5", "bk:4"]]
        graphs += [random_isolate_free_graph(rng.randint(8, 11), rng.uniform(0.15, 0.6), rng)
                   for _ in range(15)]
        for G in graphs:
            solver, oracle = IndicatedGameSolver(G), OracleIndicatedGame(G)
            for _ in range(40):
                mask = rng.getrandbits(G.n) & rng.getrandbits(G.n)
                if mask == G.full_mask:
                    continue
                assert solver.value(mask) == oracle.value(mask), (G.edges(), mask)
                assert solver.best_indication(mask) == oracle.best_indication(mask), (G.edges(), mask)
                for v in range(G.n):
                    if not mask >> v & 1:
                        assert solver.best_selection(mask, v) == oracle.best_selection(mask, v), (
                            G.edges(), mask, v)

    @pytest.mark.parametrize(
        "spec, value", [("path:24", 16), ("path:26", 18), ("cycle:22", 14), ("cycle:26", 18)]
    )
    def test_frozen_relabeled_gti(self, spec, value):
        G = relabeled(family(parse_family_spec(spec)), random.Random(spec))
        assert gti(G) == value

    @pytest.mark.parametrize(
        "spec, gtg_value, grundy_value",
        [("path:19", 13, 18), ("cycle:18", 12, 16), ("substar:3,5", 13, 18), ("corona:path10", 14, 20)],
    )
    def test_frozen_deep_instances(self, spec, gtg_value, grundy_value):
        G = family(parse_family_spec(spec))
        assert gtg(G) == gtg_value
        assert grundy_t(G) == grundy_value


def products_with_every_subset(nbr):
    """``games._move_products`` with S's own bit kept: moves that dominate nothing new count too."""
    subsets = games._subsets(len(nbr))
    return [(subsets.up[s], subsets.down[s], s) for s in nbr]


class TestWholeTableRounds:
    # A wrong step must fail at once instead of looping: ``_value_levels``
    # carried no bound once, and a wrong reply step grew a run to 2 GB.
    def test_gtg_rounds_stop_after_n(self, monkeypatch):
        # No mask contains a neighbourhood, so no move is read and D_k stays {V}.
        subsets = games._subsets
        monkeypatch.setattr(games, "_subsets", lambda n: subsets(n)._replace(up=(0,) * (1 << n)))
        with pytest.raises(AssertionError, match=r"^path:5: gtg level D_5 misses the root, but n = 5$"):
            gtg(path_graph(5))

    def test_grundy_rounds_stop_after_n(self, monkeypatch):
        # G_k stays every mask.
        monkeypatch.setattr(games, "_move_products", products_with_every_subset)
        with pytest.raises(AssertionError, match=r"^path:5: grt level G_6 holds the root, but n = 5$"):
            grundy_t(path_graph(5))

    def test_gti_levels_equal_with_every_subset(self, monkeypatch):
        # The products above break γgrt, but not γti's levels: a mask that
        # holds N(u) holds the undominated v it answers, as v is in N(u), so
        # column v of ``_columns(n)`` answers it already.
        rng = random.Random(37)
        graphs = [G for _, G in exhaustive_corpus(7)]
        graphs += [relabeled(G, rng) for G in graphs]
        expected = [games._value_levels(G) for G in graphs]
        monkeypatch.setattr(games, "_move_products", products_with_every_subset)
        for G, levels in zip(graphs, expected):
            assert games._value_levels(G) == levels, G.edges()

    def test_grundy_level_outside_the_last_fails(self, monkeypatch):
        # One "move" doubles every mask, which leaves the 2**n masks.
        monkeypatch.setattr(games, "_move_products", lambda nbr: [(-1, 2, 0)])
        with pytest.raises(AssertionError, match=r"^path:5: grt level G_1 is not inside G_0$"):
            grundy_t(path_graph(5))

    def test_engines_run_above_the_cap(self, monkeypatch):
        G = path_graph(games.TABLE_ORDER_CAP + 1)
        for rounds in ("_value_levels", "_gtg_rounds", "_grundy_rounds"):
            monkeypatch.setattr(games, rounds, None)
        assert (gti(G), gtg(G), grundy_t(G)) == (6, 6, 8)


def splits(G):
    """Whether V falls into more than one component under "shares a neighbour"."""
    return len(components(near_masks(G), G.full_mask)) > 1


def class_search(G):
    """``_class_search`` for γtg and its tables on G's own components, whether or not V splits."""
    return _class_search(G, components(near_masks(G), G.full_mask))


def counted_relabelings(spec):
    """Three seeded relabelings of ``spec`` with counted neighbour masks, the count reset."""
    G0 = family(parse_family_spec(spec))
    counted = [Graph(G0.n, CountingMasks(relabeled(G0, random.Random(seed)).nbr)) for seed in range(3)]
    CountingMasks.reads = 0
    return counted


class TestClassSearch:
    """The search over residual component classes, against the mask search and the oracles."""

    def test_matches_mask_search_on_every_split_graph_up_to_7(self):
        split = [(graph_id, G) for graph_id, G in exhaustive_corpus(7) if splits(G)]
        assert len(split) == 119
        # The oracles share no code with the alpha-beta that both searches run.
        for graph_id, G in split:
            assert class_search(G)[0] == _mask_search(G)[0] == oracle_gtg(G), graph_id
            assert grundy_t(G) == oracle_grundy(G), graph_id

    @pytest.mark.parametrize("low, high", [(10, 14), (8, 9)])
    def test_seeded_split_graphs(self, low, high):
        for G in random_split_graphs(random.Random(0xC1A55), 24, low, high):
            assert splits(G), G.edges()
            assert gtg(G) == class_search(G)[0] == oracle_gtg(G), G.edges()
            assert grundy_t(G) == oracle_grundy(G), G.edges()

    def test_vertex_set_splits_exactly_on_bipartite_and_disconnected_graphs(self):
        for graph_id, G in exhaustive_corpus(7):
            assert splits(G) == (is_bipartite(G) or not is_connected(G)), graph_id

    def test_rule(self, monkeypatch):
        # Above the table cap, γtg takes the class search exactly when V
        # splits.  The stand-in class search returns 0, so a positive value
        # comes from the tables or the mask search.
        calls = []
        monkeypatch.setattr(games, "_class_search", lambda G, parts: (calls.append(G.n) or 0, None, None))
        n = games.TABLE_ORDER_CAP + 1
        assert gtg(path_graph(n - 1)) > 0  # tables
        assert gtg(cycle_graph(n | 1)) > 0  # odd: V does not split
        assert gtg(path_graph(n)) == 0 and gtg(disjoint_union([cycle_graph(3), cycle_graph(n - 3)])) == 0
        assert calls == [n, n]

    def test_closed_forms_on_relabeled_paths_and_cycles(self):
        # γtg: Dorbec and Henning, "Game total domination for cycles and
        # paths" (Discrete Appl. Math. 2016); the mask search agrees to n =
        # 22.  Odd cycles do not split, so gtg would take the mask search.
        # γgrt: a longest total dominating sequence of P_n has 2⌊n/2⌋
        # vertices and one of C_n has 2⌊(n-1)/2⌋.
        rng = random.Random(0xD0B)
        for n in range(2, 27):
            P = relabeled(path_graph(n), rng)
            assert class_search(P)[0] == 2 * (n + 1) // 3 - (n % 6 == 5), n
            assert grundy_t(P) == 2 * (n // 2), n
            if n >= 3:
                C = relabeled(cycle_graph(n), rng)
                assert class_search(C)[0] == (2 * n + 1) // 3 - (n % 6 == 4), n
                assert grundy_t(C) == 2 * ((n - 1) // 2), n

    def test_every_class_code_is_a_relabeling(self, monkeypatch):
        # Positions whose classes have equal codes share one value, which
        # is exact only if each code is its residual under a bijection:
        # the incidence graphs of the two set systems, vertices and sets
        # kept apart, are isomorphic.
        nx = pytest.importorskip("networkx")
        coded = {}
        code_of = games._canonical_code
        monkeypatch.setattr(games, "_canonical_code", lambda edges: coded.setdefault(edges, code_of(edges)))
        for _, G in exhaustive_corpus(7):
            if splits(G):
                class_search(G)
        for spec in ("path:19", "cycle:18", "substar:3,5", "corona:path10"):
            G = family(parse_family_spec(spec))
            for seed in range(3):
                class_search(relabeled(G, random.Random(seed)))

        def incidence(edges):
            H = nx.Graph()
            for i, e in enumerate(edges):
                H.add_node(("set", i), side=0)
                for v in bits(e):
                    H.add_node(v, side=1)
                    H.add_edge(("set", i), v)
            return H

        same_side = nx.algorithms.isomorphism.categorical_node_match("side", None)
        assert len(coded) > 300  # 324 edge systems
        for edges, code in coded.items():
            assert nx.is_isomorphic(incidence(edges), incidence(code), node_match=same_side), (edges, code)

    def test_total_continuation_principle_on_every_graph_up_to_6(self):
        # Henning, Klavžar and Rall (Graphs Combin. 2015): a larger
        # dominated set is never worth more, with either player to move.
        # The class search's prune trusts it, so it is checked here on
        # tables from a plain recursion that shares no code with the
        # searches: gtg_tables(G)[turn][A] for every A, turn 1 Dominator's.
        pairs = 0
        for graph_id, G in exhaustive_corpus(6):
            tables = gtg_tables(G)
            assert tables[1][0] == oracle_gtg(G), graph_id
            for table in tables:
                for a, value in enumerate(table):
                    b = a
                    while b:
                        b = (b - 1) & a
                        assert value <= table[b], (graph_id, a, b)
                        pairs += 1
        assert pairs == 172_962

    @pytest.mark.parametrize("spec", ["corona:path6", "corona:path7", "corona:path8", "substar:3,3", "substar:4,3"])
    def test_matches_oracle_where_the_prune_cuts_most(self, spec):
        # Coronas and subdivided stars have nested neighbourhoods (a leaf's
        # lies inside its neighbour's), so the prune drops most there.
        G = relabeled(family(parse_family_spec(spec)), random.Random(spec))
        assert class_search(G)[0] == oracle_gtg(G)

    def test_prune_keeps_minimal_sets_for_staller_and_maximal_for_dominator(self, monkeypatch):
        tables = []

        class Recorded(games._ClassTable):
            def __init__(self):
                super().__init__()
                tables.append(self)

        monkeypatch.setattr(games, "_ClassTable", Recorded)
        assert gtg(family(parse_family_spec("path:19"))) == 13
        [table] = tables
        dropped = 0
        c = 0
        while c < len(table.codes):  # moves(c) may intern new classes
            code = table.codes[c]
            size = table.sizes[c]
            near = [0] * size
            for e in code:
                for v in bits(e):
                    near[v] |= e
            left = {e: table.split(code, components(near, ((1 << size) - 1) & ~e)) for e in code}
            inside = {e: [f for f in code if f != e and f | e == e] for e in code}
            outside = {e: [f for f in code if f != e and f | e == f] for e in code}
            staller, dominator = table.moves(c)
            assert set(staller) == {left[e] for e in code if not inside[e]}, code
            assert set(dominator) == {left[e] for e in code if not outside[e]}, code
            dropped += 2 * len(set(left.values())) - len(staller) - len(dominator)
            c += 1
        assert dropped > 0

    @pytest.mark.parametrize("spec, value", [("cycle:18", 12), ("path:19", 13)])
    def test_classes_bound_the_work(self, spec, value):
        # The class search reads the neighbour masks only to build the
        # root's classes: 378 reads on cycle:18 and 393 on path:19 over
        # three relabelings, where the mask search reads 317,358 and 584,364.
        counted = counted_relabelings(spec)
        assert [gtg(G) for G in counted] == [value] * 3
        assert CountingMasks.reads <= 2_000, CountingMasks.reads

    @pytest.mark.parametrize(
        "solve, value, limit", [(gtg, 10, 54_930), (grundy_t, 14, 855)], ids=["gtg", "grundy_t"]
    )
    def test_window_and_move_order_bound_the_mask_search(self, solve, value, limit):
        # cycle:15 is odd, so V does not split: gtg takes the mask search,
        # bounded by its alpha-beta window and move orders, and grundy_t
        # scans its memo's unsplit positions most undominated first and
        # stops once no child left can beat the best.  They read 54,885 and
        # 810 masks; the limits leave 45 reads of slack, and dropping the
        # window, the scan's stop or either key of the move order (the
        # child's upper score, then its undominated count) reads more
        # (grundy_t without its stop reads 9,000).
        counted = counted_relabelings("cycle:15")
        assert [solve(G) for G in counted] == [value] * 3
        assert CountingMasks.reads <= limit, CountingMasks.reads


def score_window(count, delta, turn):
    """The admissible score window of a position with ``count`` undominated vertices.

    Its value lies in ceil(count / delta)..count; its score is the value at
    turn 0 and minus the value at turn 1.
    """
    floor = -(-count // delta)
    return (floor, count) if turn == 0 else (-count, -floor)


def assert_tables_consistent(graph_id, value, lower, upper, root, n, delta):
    """The root's score bounds are -value, and no position's lower bound exceeds its upper one.

    A root bound at the edge of its admissible window is never stored, as
    the search narrows its window to that edge, so it is read with the
    window's default.
    """
    lo, hi = score_window(n, delta, 1)
    if lo < hi:
        assert lower[1].get(root, lo) == upper[1].get(root, hi) == -value, graph_id
    else:
        assert value == n and not any(lower + upper), graph_id
    for turn in (0, 1):
        for pos, g in lower[turn].items():
            assert g <= upper[turn].get(pos, g), (graph_id, turn, pos)


class TestSearchTables:
    """The score bounds that ``_alphabeta`` hands back with the value."""

    def test_mask_search_on_every_graph_up_to_7(self):
        for graph_id, G in exhaustive_corpus(7):
            delta = max_degree(G)
            value, lower, upper = _mask_search(G)
            assert_tables_consistent(graph_id, value, lower, upper, 0, G.n, delta)
            for turn in (0, 1):
                for table in (lower, upper):
                    for mask, g in table[turn].items():
                        lo, hi = score_window(G.n - mask.bit_count(), delta, turn)
                        assert lo <= g <= hi, (graph_id, turn, mask, g)

    def test_class_search_on_every_split_graph_up_to_7(self):
        split = [(graph_id, G) for graph_id, G in exhaustive_corpus(7) if splits(G)]
        assert len(split) == 119
        for graph_id, G in split:
            parts = components(near_masks(G), G.full_mask)
            value, lower, upper = _class_search(G, parts)
            root = games._ClassTable().split(G.nbr, parts)
            assert_tables_consistent(graph_id, value, lower, upper, root, G.n, max_degree(G))

    @pytest.mark.parametrize(
        "spec, search, sizes",
        [("path:20", class_search, [470, 222, 74, 187]),
         ("cycle:21", _mask_search, [29_197, 2_657, 791, 7_555])],
        ids=["path:20", "cycle:21"],
    )
    def test_table_sizes(self, spec, search, sizes):
        # Lower bounds at turns 0 and 1, then upper bounds at turns 0 and
        # 1: 953 and 40,200 entries in all.
        value, lower, upper = search(family(parse_family_spec(spec)))
        assert value == 14
        assert [len(table) for table in lower + upper] == sizes


class TestGrundyMemo:
    """γgrt's split memo from positions other than the root, and the work its split saves."""

    def test_every_mask_up_to_6(self):
        for graph_id, G in exhaustive_corpus(6):
            solver = _LongestSequence(G)
            for mask in range(G.full_mask):
                assert solver.value(mask) == oracle_grundy(G, mask), (graph_id, mask)

    @pytest.mark.parametrize(
        "spec, value, limit", [("cycle:18", 16, 1_125), ("path:19", 18, 1_300)], ids=["cycle:18", "path:19"]
    )
    def test_split_bounds_the_work(self, spec, value, limit):
        # Even cycles and paths split after a move or two.  The memo reads
        # 1,080 and 1,248 masks over three relabelings, and 7,938 and 3,300
        # with the split turned off.
        counted = counted_relabelings(spec)
        assert [grundy_t(G) for G in counted] == [value] * 3
        assert CountingMasks.reads <= limit, CountingMasks.reads


class TestIndicatedGame:
    def test_p7(self):
        assert gti(path_graph(7)) == 4

    def test_cycle_power(self):
        assert gti(family(parse_family_spec("cyclepower:7,2"))) == 3

    def test_gk1(self):
        assert gti(family(parse_family_spec("gk:1"))) == 3

    def test_fk5(self):
        assert gti(family(parse_family_spec("fk:5"))) == 4

    def test_jk3(self):
        assert gti(family(parse_family_spec("jk:3"))) == 4

    def test_fully_declared_game_is_over(self):
        G = path_graph(5)
        assert gti(G, VertexSet.full(5)) == 0

    def test_isolates_rejected(self):
        with pytest.raises(IsolatedVertexError):
            gti(build_graph(3, [(0, 1)]))

    @pytest.mark.parametrize(
        "query, message",
        [
            (lambda s: s.value(1 << 5), "mask 32 is outside 0..7"),
            (lambda s: s.value(-1), "mask -1 is outside 0..7"),
            (lambda s: s.best_indication(1 << 5), "mask 32 is outside 0..7"),
            (lambda s: s.best_indication(-1), "mask -1 is outside 0..7"),
            (lambda s: s.best_selection(0, 7), "vertex 7 is outside 0..2"),
            (lambda s: s.best_selection(0, -1), "vertex -1 is outside 0..2"),
            (lambda s: s.best_selection(1 << 5, 0), "mask 32 is outside 0..7"),
            (lambda s: s.best_selection(-1, 0), "mask -1 is outside 0..7"),
        ],
        ids=["value-high", "value-negative", "indication-high", "indication-negative",
             "selection-vertex-high", "selection-vertex-negative", "selection-mask-high", "selection-mask-negative"],
    )
    def test_solver_rejects_out_of_range_input(self, query, message):
        # These used to answer for another position (value(1 << 5) gave 5 on
        # path:3, whose empty mask is worth 2) or fail deep inside the scan.
        solver = IndicatedGameSolver(path_graph(3))
        with pytest.raises(ValueError) as raised:
            query(solver)
        assert str(raised.value) == message
        assert solver.value(0) == 2

    @settings(max_examples=30, deadline=None)
    @given(isolate_free_graphs_st(max_n=6))
    def test_matches_rule_level_brute_force(self, G):
        assert gti(G) == brute_gti(G)

    def test_declared_sets_match_brute_force(self):
        # Paw graph: the hub forcing move disappears once the pendant is declared.
        G = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        for declared in [set(), {0}, {0, 3}, {1, 2}, {3}]:
            assert gti(G, VertexSet.of(4, declared)) == brute_gti(G, frozenset(declared))

    def test_declared_pendant_can_raise_the_value(self):
        # Frozen finding: declaring a superset dominated may increase the game
        # value, because Dominator loses the forcing indication of the pendant.
        G = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert gti(G, VertexSet.of(4, [0])) == 1
        assert gti(G, VertexSet.of(4, [0, 3])) == 2

    @pytest.mark.parametrize(
        "spec, value, limit", [("cycle:18", 12, 3_200), ("path:19", 12, 2_300)], ids=["cycle:18", "path:19"]
    )
    def test_split_bounds_the_work(self, spec, value, limit):
        # Even cycles and paths split after a round or two.  The solver
        # reads 3,111 and 2,211 masks over three relabelings, and 676,961
        # and 1,623,949 with the split turned off.
        counted = counted_relabelings(spec)
        assert [gti(G) for G in counted] == [value] * 3
        assert CountingMasks.reads <= limit, CountingMasks.reads

    def test_monotone_on_neighborhood_union_masks(self):
        # On masks of the form N(X) -- every position reachable in play --
        # declaring more can only shorten the game.
        for G in [path_graph(6), cycle_graph(6), family(parse_family_spec("bk:2"))]:
            solver = IndicatedGameSolver(G)
            masks = set()
            for sub in range(1 << G.n):
                m = 0
                for v in range(G.n):
                    if sub >> v & 1:
                        m |= G.nbr[v]
                masks.add(m)
            values = {m: solver.value(m) for m in masks}
            for a in masks:
                for b in masks:
                    if b & ~a == 0:
                        assert values[a] <= values[b]


class TestAlternatingGame:
    def test_substar_4_1(self):
        assert gtg(family(parse_family_spec("substar:4,1"))) == 5

    def test_fk5(self):
        assert gtg(family(parse_family_spec("fk:5"))) == 3

    def test_corona_k3(self):
        assert gtg(family(parse_family_spec("corona:complete3"))) == 4

    def test_bk4(self):
        assert gtg(family(parse_family_spec("bk:4"))) == 2

    @settings(max_examples=25, deadline=None)
    @given(isolate_free_graphs_st(max_n=5))
    def test_matches_brute_force(self, G):
        assert gtg(G) == brute_gtg(G)


class TestGrundy:
    def test_p4_has_full_sequence(self):
        assert grundy_t(path_graph(4)) == 4

    def test_p3(self):
        assert grundy_t(path_graph(3)) == 2

    def test_k2(self):
        assert grundy_t(build_graph(2, [(0, 1)])) == 2

    @settings(max_examples=25, deadline=None)
    @given(isolate_free_graphs_st(max_n=5))
    def test_matches_brute_force(self, G):
        assert grundy_t(G) == brute_grundy(G)


class TestChains:
    @settings(max_examples=30, deadline=None)
    @given(isolate_free_graphs_st(max_n=6))
    def test_game_chain(self, G):
        from tdgamelab import gamma_t, ooir, upper_gamma_t

        gt = gamma_t(G).value
        ugt = upper_gamma_t(G).value
        gti_v = gti(G)
        gtg_v = gtg(G)
        grt_v = grundy_t(G)
        oo = ooir(G).value
        assert gt <= ugt <= gti_v <= grt_v
        assert ugt <= oo <= grt_v
        assert gt <= gtg_v <= grt_v

    def test_game_chain_on_seeded_corpus(self):
        import random

        from tdgamelab import gamma_t, ooir, upper_gamma_t
        from tdgamelab.verify import random_isolate_free_graph

        rng = random.Random(0x5EEDED)
        for _ in range(200):
            G = random_isolate_free_graph(rng.randint(3, 9), rng.uniform(0.25, 0.8), rng)
            gt = gamma_t(G).value
            ugt = upper_gamma_t(G).value
            gti_v = gti(G)
            grt_v = grundy_t(G)
            assert gt <= ugt <= gti_v <= grt_v
            assert ugt <= ooir(G).value <= grt_v
            assert gt <= gtg(G) <= grt_v


BIPARTITE_UP_TO_7 = 1 + 1 + 4 + 6 + 22 + 53  # bipartite isolate-free graphs, n = 2..7


def bipartite_sides(n_max):
    """Each bipartite graph of the corpus up to ``n_max``, with its two colour-class masks."""
    for graph_id, G in exhaustive_corpus(n_max):
        sides = bipartition(G)
        if sides is not None:
            a, b = (side.mask for side in sides)
            yield graph_id, G, a, b


class TestComponentAdditivity:
    def test_union_of_families(self):
        parts = [path_graph(4), cycle_graph(3)]
        whole = disjoint_union(parts)
        assert gti(whole) == sum(gti(p) for p in parts)

    def test_union_family_spec(self):
        whole = family(parse_family_spec("union:path4+path4"))
        assert gti(whole) == 2 * gti(path_graph(4))

    @settings(max_examples=20, deadline=None)
    @given(isolate_free_graphs_st(max_n=4), isolate_free_graphs_st(max_n=4))
    def test_random_unions(self, A, B):
        whole = disjoint_union([A, B])
        assert gti(whole) == gti(A) + gti(B)

    # The identities below are what the split memo rests on: a position is
    # the sum of its parts when no two of them share a neighbour.  They use
    # the plain recursions alone, so they hold whatever the solvers do.
    def test_colour_classes_split_every_bipartite_graph_up_to_7(self):
        checked = 0
        for graph_id, G, a, b in bipartite_sides(7):
            oracle = OracleIndicatedGame(G)
            assert oracle.value(0) == oracle.value(a) + oracle.value(b), graph_id
            checked += 1
        assert checked == BIPARTITE_UP_TO_7

    def test_colour_classes_split_grundy_on_every_bipartite_graph_up_to_7(self):
        checked = 0
        for graph_id, G, a, b in bipartite_sides(7):
            assert oracle_grundy(G, 0) == oracle_grundy(G, a) + oracle_grundy(G, b), graph_id
            checked += 1
        assert checked == BIPARTITE_UP_TO_7

    @settings(max_examples=30, deadline=None)
    @given(isolate_free_graphs_st(max_n=5), isolate_free_graphs_st(max_n=5))
    def test_disjoint_parts_split_in_the_oracle(self, A, B):
        whole = disjoint_union([A, B])
        oracle = OracleIndicatedGame(whole)
        part_a = A.full_mask
        part_b = whole.full_mask ^ part_a
        assert oracle.value(0) == oracle.value(part_a) + oracle.value(part_b)


class TestPoliciesAndDeterminism:
    def test_optimal_policies_reproduce_solver_value(self):
        for spec in ["path:7", "cyclepower:7,2", "bk:3", "jk:2"]:
            G = family(parse_family_spec(spec))
            exact = gti(G)
            assert best_response_length(G, None, optimal_policy(G, Role.DOMINATOR)) == exact
            assert best_response_length(G, None, optimal_policy(G, Role.STALLER)) == exact

    def test_full_optimal_play_transcript(self):
        G = family(parse_family_spec("jk:2"))
        rounds = play_game(G, optimal_policy(G, Role.DOMINATOR), optimal_policy(G, Role.STALLER))
        assert len(rounds) == gti(G)
        played = [u for _, u in rounds]
        assert len(played) == len(set(played))  # no vertex is ever replayed

    def test_non_integer_indication_is_a_policy_error(self):
        G = path_graph(5)
        dominator = Policy(Role.DOMINATOR, "float-dominator", G, lambda mask: 1.0)
        with pytest.raises(PolicyError, match=r"'float-dominator' indicated illegal vertex 1\.0 at dominated=\[\], "):
            play_game(G, dominator, optimal_policy(G, Role.STALLER))

    def test_missing_selection_is_a_policy_error(self):
        G = path_graph(5)
        staller = Policy(Role.STALLER, "silent-staller", G, lambda mask, v: None)
        with pytest.raises(PolicyError, match=r"'silent-staller' selected illegal vertex None for indicated \d+ at dominated=\[\], "):
            play_game(G, optimal_policy(G, Role.DOMINATOR), staller)

    def test_repeat_solves_are_reproducible(self):
        G = family(parse_family_spec("fk:5"))
        first = IndicatedGameSolver(G)
        second = IndicatedGameSolver(G)
        assert first.value(0) == second.value(0)
        assert first.best_indication(0) == second.best_indication(0)
        v = first.best_indication(0)
        assert first.best_selection(0, v) == second.best_selection(0, v)


def lowest(mask):
    return (mask & -mask).bit_length() - 1


def logged(policy, log):
    """``policy`` with every consultation appended to ``log`` as (dominated, indicated)."""

    def chooser(mask, *indicated):
        log.append((mask, *indicated))
        return policy.chooser(mask, *indicated)

    return Policy(policy.role, policy.name, policy.graph, chooser)


def sample_policies(G):
    """Policies for the oracle comparison, two of which switch on the parity of the position."""
    nbr, full = G.nbr, G.full_mask

    def alternating_staller(mask, v):
        # Smallest neighbour when an even number of vertices is dominated, largest otherwise.
        return lowest(nbr[v]) if mask.bit_count() % 2 == 0 else nbr[v].bit_length() - 1

    def alternating_dominator(mask):
        undominated = ~mask & full
        return lowest(undominated) if mask.bit_count() % 2 == 0 else undominated.bit_length() - 1

    def bool_staller(mask, v):
        # The checks accept True as vertex 1, so the inline tests must too.
        u = lowest(nbr[v])
        return True if u == 1 else u

    return [
        optimal_policy(G, Role.DOMINATOR),
        optimal_policy(G, Role.STALLER),
        staller_partition_policy(G),
        Policy(Role.STALLER, "alternating-staller", G, alternating_staller),
        Policy(Role.DOMINATOR, "alternating-dominator", G, alternating_dominator),
        Policy(Role.STALLER, "bool-staller", G, bool_staller),
    ]


class TestBestResponse:
    def test_matches_plain_recursion_on_every_graph_up_to_6(self):
        # Same value, and the same consultations in the same order, so the
        # first illegal move found is the same too.
        for graph_id, G in exhaustive_corpus(6):
            for declared in (None, VertexSet.of(G.n, [G.n - 1])):
                for policy in sample_policies(G):
                    seen, expected = [], []
                    value = best_response_length(G, declared, logged(policy, seen))
                    assert value == oracle_best_response(G, declared, logged(policy, expected)), (graph_id, policy.name)
                    assert seen == expected, (graph_id, policy.name)

    @pytest.mark.parametrize("spec", ["path:26", "cycle:25", "corona:path12"])
    def test_matches_plain_recursion_above_the_first_byte(self, spec):
        # Declared vertices count as dominated, so declaring all but 8-10
        # vertices in bits 8-25 (24 and 25 where the graph has them) leaves
        # positions whose every byte is walked.
        G = family(parse_family_spec(spec))
        if spec != "path:26":
            G = relabeled(G, random.Random(spec))
        left = [v for v in (8, 10, 11, 13, 16, 19, 21, 23, 24, 25) if v < G.n]
        declared = VertexSet.of(G.n, [v for v in range(G.n) if v not in left])
        for policy in sample_policies(G):
            seen, expected = [], []
            value = best_response_length(G, declared, logged(policy, seen))
            assert value == oracle_best_response(G, declared, logged(policy, expected)), policy.name
            assert seen == expected, policy.name

    def test_consultations_on_path_20(self):
        G = path_graph(20)
        for policy, count in ((staller_partition_policy(G), 139_264), (dominator_path_policy(20), 115)):
            log = []
            assert best_response_length(G, None, logged(policy, log)) == 14
            assert len(log) == count, policy.name

    def test_one_consultation_per_position(self):
        # The memo keys on the dominated mask, so a Dominator policy is asked
        # once per mask and a Staller policy once per (mask, indicated).
        P = path_graph(20)
        cases = [(P, None, staller_partition_policy(P)), (P, None, dominator_path_policy(20))]
        for _, G in exhaustive_corpus(6):
            for declared in (None, VertexSet.of(G.n, [G.n - 1])):
                cases += [(G, declared, policy) for policy in sample_policies(G)]
        for G, declared, policy in cases:
            log = []
            best_response_length(G, declared, logged(policy, log))
            assert len(set(log)) == len(log), (G, policy.name)

    def test_late_illegal_indication(self):
        G = path_graph(6)
        dominator = Policy(
            Role.DOMINATOR,
            "late-dominator",
            G,
            lambda mask: lowest(mask if mask.bit_count() >= 3 else ~mask & G.full_mask),
        )
        with pytest.raises(PolicyError) as raised:
            best_response_length(G, None, dominator)
        assert str(raised.value) == (
            "policy 'late-dominator' indicated illegal vertex 0 at dominated=[0, 1, 2], "
            "declared=[] on <Graph path:6: n=6, m=5>"
        )

    def test_late_non_neighbour_selection(self):
        G = path_graph(6)
        staller = Policy(
            Role.STALLER, "stray-staller", G, lambda mask, v: v if mask.bit_count() == 2 else lowest(G.nbr[v])
        )
        with pytest.raises(PolicyError) as raised:
            best_response_length(G, None, staller)
        assert str(raised.value) == (
            "policy 'stray-staller' selected illegal vertex 1 for indicated 1 at dominated=[0, 2], "
            "declared=[] on <Graph path:6: n=6, m=5>"
        )

    def test_missing_selection(self):
        G = path_graph(6)
        staller = Policy(Role.STALLER, "silent-staller", G, lambda mask, v: None)
        with pytest.raises(PolicyError) as raised:
            best_response_length(G, None, staller)
        assert str(raised.value) == (
            "policy 'silent-staller' selected illegal vertex None for indicated 0 at dominated=[], "
            "declared=[] on <Graph path:6: n=6, m=5>"
        )

    @pytest.mark.parametrize(
        "role, move, text",
        [(Role.STALLER, -1, "selected illegal vertex -1 for indicated 0"),
         (Role.STALLER, 6, "selected illegal vertex 6 for indicated 0"),
         (Role.STALLER, 2**40, "selected illegal vertex 1099511627776 for indicated 0"),
         (Role.STALLER, 2, "selected illegal vertex 2 for indicated 0"),
         (Role.DOMINATOR, -1, "indicated illegal vertex -1"),
         (Role.DOMINATOR, 6, "indicated illegal vertex 6")],
    )
    def test_illegal_integer_moves(self, role, move, text):
        # Out of range, far out of range or not a neighbour: both drivers
        # raise the checks' message, never a ValueError from a negative shift.
        G = path_graph(6)
        expected = f"policy 'stray' {text} at dominated=[], declared=[] on <Graph path:6: n=6, m=5>"
        if role is Role.STALLER:
            policy = Policy(role, "stray", G, lambda mask, v: move)
            first = Policy(Role.DOMINATOR, "first-dominator", G, lambda mask: lowest(~mask & G.full_mask))
            players = (first, policy)
        else:
            policy = Policy(role, "stray", G, lambda mask: move)
            players = (policy, optimal_policy(G, Role.STALLER))
        for run in (lambda: best_response_length(G, None, policy), lambda: play_game(G, *players)):
            with pytest.raises(PolicyError) as raised:
                run()
            assert str(raised.value) == expected

    def test_illegal_indication_names_the_declared_set(self):
        # Declared vertices count as dominated, so indicating one is illegal;
        # both drivers describe the position alike.
        G = path_graph(6)
        dominator = Policy(Role.DOMINATOR, "declared-dominator", G, lambda mask: 5)
        expected = (
            "policy 'declared-dominator' indicated illegal vertex 5 at dominated=[5], "
            "declared=[5] on <Graph path:6: n=6, m=5>"
        )
        declared = VertexSet.of(6, [5])
        with pytest.raises(PolicyError) as raised:
            best_response_length(G, declared, dominator)
        assert str(raised.value) == expected
        with pytest.raises(PolicyError) as raised:
            play_game(G, dominator, optimal_policy(G, Role.STALLER), declared)
        assert str(raised.value) == expected

    @pytest.mark.parametrize("role", ["staller", None, 1])
    def test_role_must_be_a_role(self, role):
        # Any other value used to take the Staller branch silently.
        G = path_graph(4)
        log = []
        policy = logged(Policy(role, "roleless", G, lambda mask, v: lowest(G.nbr[v])), log)
        with pytest.raises(ValueError, match="not a Role"):
            best_response_length(G, None, policy)
        assert log == []
