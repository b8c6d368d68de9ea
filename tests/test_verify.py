"""Verification harness: corpora, trees, continuation, survey, and the suite."""

import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import deque
from itertools import combinations, islice, permutations, product
from pathlib import Path

import pytest

import tdgamelab
from tdgamelab import build_graph, check_continuation, games, gti, invariants, verify
from tdgamelab.cli import main
from tdgamelab.families import cycle_graph, family, parse_family_spec, path_graph
from tdgamelab.games import IndicatedGameSolver, _byte_lanes
from tdgamelab.graph import CapacityError, Graph, bits
from tdgamelab.graphio import serialize_graph6
from tdgamelab.invariants import WitnessError
from tdgamelab.verify import (
    CSV_HEADER,
    INVARIANTS,
    enumerate_trees,
    exhaustive_corpus,
    explore_trees,
    isolate_free_graphs,
    paper_claims,
    random_corpus,
    random_isolate_free_graph,
    random_leaf_support_tree,
    rows_to_csv,
    rows_to_json_lines,
    run_paper_suite,
    survey,
    survey_row,
    write_rows,
)
import random

from conftest import relabeled


# --- independent canonical form for trees (test-local oracle) ---------------


def _ecc_centers(edges, n):
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    ecc = {}
    for s in range(n):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            w = queue.popleft()
            for x in adj[w]:
                if x not in dist:
                    dist[x] = dist[w] + 1
                    queue.append(x)
        ecc[s] = max(dist.values())
    best = min(ecc.values())
    return [v for v in range(n) if ecc[v] == best], adj


def tree_code(edges, n):
    centers, adj = _ecc_centers(edges, n)

    def encode(v, parent):
        return "(" + "".join(sorted(encode(u, v) for u in adj[v] if u != parent)) + ")"

    if len(centers) == 1:
        return encode(centers[0], -1)
    c1, c2 = centers
    return "|".join(sorted([encode(c1, c2), encode(c2, c1)]))


def prufer_tree_codes(n):
    """Dedup oracle: decode every parent-code sequence and canonicalise."""
    codes = set()
    if n == 2:
        return {tree_code([(0, 1)], 2)}
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        deg = list(degree)
        for v in seq:
            leaf = min(u for u in range(n) if deg[u] == 1)
            edges.append((leaf, v))
            deg[leaf] -= 1
            deg[v] -= 1
        a, b = (u for u in range(n) if deg[u] == 1)
        edges.append((a, b))
        codes.add(tree_code(edges, n))
    return codes


class TestExhaustiveEnumeration:
    def test_counts_match_atlas(self):
        nx = pytest.importorskip("networkx")
        expected = {}
        for H in nx.graph_atlas_g():
            n = H.number_of_nodes()
            if n >= 1 and H.number_of_nodes() and all(d > 0 for _, d in H.degree()):
                expected[n] = expected.get(n, 0) + 1
        for n in range(2, 8):
            assert len(isolate_free_graphs(n)) == expected.get(n, 0)

    def test_all_graphs_isolate_free_and_distinct(self):
        for n in range(2, 6):
            batch = isolate_free_graphs(n)
            assert all(G.is_isolate_free() for G in batch)
            assert len({G.nbr for G in batch}) == len(batch)

    def test_pairwise_non_isomorphic_small(self):
        nx = pytest.importorskip("networkx")
        for n in range(2, 6):
            batch = [nx.Graph(G.edges()) for G in isolate_free_graphs(n)]
            for g in batch:
                g.add_nodes_from(range(n))
            for i in range(len(batch)):
                for j in range(i + 1, len(batch)):
                    assert not nx.is_isomorphic(batch[i], batch[j])

    @pytest.mark.parametrize("n_max", [0, -1, 8])
    def test_corpus_order_checked_at_the_call(self, n_max):
        with pytest.raises(ValueError, match="supports 1 <= n <= 7"):
            exhaustive_corpus(n_max)

    def test_corpus_labels(self):
        ids = [gid for gid, _ in exhaustive_corpus(3)]
        assert ids == ["exhaustive:n=2:i=0", "exhaustive:n=3:i=0", "exhaustive:n=3:i=1"]

    def test_order_cap(self):
        with pytest.raises(ValueError):
            isolate_free_graphs(8)
        with pytest.raises(ValueError):
            isolate_free_graphs(0)
        assert isolate_free_graphs(1) == ()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_orbit_marking_oracle(self, n):
        assert isolate_free_graphs(n) == orbit_marking_graphs(n)

    def test_frozen_corpus_digest(self):
        # The ordered corpus for n = 2..7: labels, graphs and order.
        text = "".join(
            f"{G.label} {serialize_graph6(G)}\n" for _, G in exhaustive_corpus(7)
        )
        assert text.count("\n") == 1043
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "03e4f39971e1e7a4cc15c676d12025647af5cc3f2fd00a335d4aca39f66e3b05"
        )

    def test_one_order_past_the_cap(self):
        # The generator itself has no order cap.  Extending every graph on 7
        # vertices, isolates included, gives the isolate-free graphs on 8;
        # ties are commonest here, so this pins the tie checks.
        level = [()]
        for _ in range(7):
            level = [G for H in level for G in verify._smallest_mask_extensions(H, False)]
        assert len(level) == 1044  # OEIS A000088
        extended = [G for H in level for G in verify._smallest_mask_extensions(H, True)]
        assert len(extended) == 11302  # OEIS A002494
        text = "".join(serialize_graph6(Graph(8, nbr)) + "\n" for nbr in extended)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "d364ac22f85c7bc95fc13c271b9eda78788d01d21c5e8bfc81ce2917700a22eb"
        )

    def test_cache_clear_rebuilds_equal_graphs(self):
        first = isolate_free_graphs(5)
        isolate_free_graphs.cache_clear()
        again = isolate_free_graphs(5)
        assert again == first and again is not first


def orbit_marking_graphs(n):
    """Reference enumeration: walk every labeled edge mask in increasing order,
    keep the first mask of each isomorphism class and mark its whole
    relabeling orbit as seen."""
    slots = list(combinations(range(n), 2))
    slot_bit = {e: 1 << i for i, e in enumerate(slots)}
    relabel = [
        [slot_bit[tuple(sorted((p[a], p[b])))] for a, b in slots]
        for p in permutations(range(n))
    ]
    seen = bytearray(1 << len(slots))
    graphs = []
    for mask in range(1 << len(slots)):
        if seen[mask]:
            continue
        on = [i for i in range(len(slots)) if mask >> i & 1]
        for row in relabel:
            seen[sum(row[i] for i in on)] = 1
        G = build_graph(n, [slots[i] for i in on], label=f"exhaustive:n={n}:i={len(graphs)}")
        if G.is_isolate_free():
            graphs.append(G)
    return tuple(graphs)


def test_runtime_imports_stdlib_only():
    # The runtime is stdlib-only; a fresh interpreter shows what the import
    # pulls in: every new top-level module is tdgamelab or the stdlib's.
    src = str(Path(tdgamelab.__file__).resolve().parents[1])
    code = (
        "import sys; before = set(sys.modules); import tdgamelab, tdgamelab.cli; "
        "print(' '.join(sorted({name.partition('.')[0] for name in set(sys.modules) - before})))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    new = set(result.stdout.split())
    assert "tdgamelab" in new
    assert new - {"tdgamelab"} <= sys.stdlib_module_names, sorted(new - sys.stdlib_module_names)


class TestTreeEnumeration:
    def test_counts(self):
        expected = [1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
        assert [len(enumerate_trees(n)) for n in range(2, 13)] == expected

    def test_counts_match_networkx(self):
        nx = pytest.importorskip("networkx")
        for n in range(2, 13):
            assert len(enumerate_trees(n)) == sum(1 for _ in nx.nonisomorphic_trees(n))

    def test_trees_are_trees(self):
        nx = pytest.importorskip("networkx")
        for n in range(2, 10):
            for T in enumerate_trees(n):
                assert T.edge_count() == n - 1
                H = nx.Graph(T.edges())
                H.add_nodes_from(range(n))
                assert nx.is_connected(H)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_pairwise_non_isomorphic(self, n):
        codes = [tree_code(T.edges(), n) for T in enumerate_trees(n)]
        assert len(set(codes)) == len(codes)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_vertex_zero_is_a_centre(self, n):
        for T in enumerate_trees(n):
            centers, _ = _ecc_centers(T.edges(), n)
            assert 0 in centers, T.label

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_matches_prufer_dedup_oracle(self, n):
        ours = {tree_code(T.edges(), n) for T in enumerate_trees(n)}
        assert ours == prufer_tree_codes(n)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            enumerate_trees(13)
        with pytest.raises(ValueError):
            enumerate_trees(1)


def plain_continuation_violations(G):
    """Every pair B <= A with a larger value at A, walked over all 3^n pairs."""
    solver = IndicatedGameSolver(G)
    violations = []
    for a in range(G.full_mask + 1):
        b = a
        while True:
            if solver.value(a) > solver.value(b):
                violations.append((tuple(bits(a)), tuple(bits(b))))
            if b == 0:
                break
            b = (b - 1) & a
    return tuple(violations)


class TestContinuationChecker:
    def test_matches_plain_walk_on_every_graph_up_to_6(self):
        paw = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        for graph_id, G in [*exhaustive_corpus(6), ("paw", paw)]:
            report = check_continuation(G, mode="exhaustive")
            assert report.pairs_checked == 3**G.n
            assert report.violations == plain_continuation_violations(G), graph_id

    def test_p5_exhaustive_clean(self):
        report = check_continuation(path_graph(5), mode="exhaustive")
        assert report.ok
        assert report.pairs_checked == 3**5

    def test_c6_exhaustive_clean(self):
        assert check_continuation(cycle_graph(6), mode="exhaustive").ok

    def test_sampled_mode_reproducible(self):
        G = cycle_graph(7)
        first = check_continuation(G, mode="sampled", samples=200, seed=11)
        second = check_continuation(G, mode="sampled", samples=200, seed=11)
        assert first == second

    def test_random_masks_are_randrange_draws(self):
        # The sampled pairs, and so every pinned sampled report, are those
        # that ``randrange(2**n)`` draws from the same seed.
        for n in range(27):
            for seed in range(40):
                rng = random.Random(seed)
                expected = [rng.randrange(2**n) for _ in range(30)]
                assert list(islice(verify._random_masks(seed, n), 30)) == expected, (n, seed)

    def test_cost_guard(self):
        with pytest.raises(CapacityError, match="limited to n <= 7"):
            check_continuation(build_graph(8, [(i, (i + 1) % 8) for i in range(8)]))

    def test_frozen_violations_up_to_7(self):
        # Per-order violation totals on the unrelabeled corpus, and every
        # n = 7 violation tuple in order, frozen from the solver-walk checker.
        found = {
            n: [check_continuation(G).violations for G in isolate_free_graphs(n)]
            for n in range(2, 8)
        }
        totals = {n: sum(map(len, violations)) for n, violations in found.items()}
        assert totals == {2: 0, 3: 0, 4: 1, 5: 20, 6: 444, 7: 11772}
        text = "".join(
            f"{G.label} {violations}\n" for G, violations in zip(isolate_free_graphs(7), found[7])
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b04fcc548ca87137d35373b35808547a59a093220e83f39b11ed5374e98249b6"
        )

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sampled_needs_a_sample(self, samples):
        with pytest.raises(ValueError, match="samples >= 1"):
            check_continuation(path_graph(5), mode="sampled", samples=samples)

    def test_violations_carry_witnessing_pair(self):
        # The checker honestly reports the paw-graph counterexample, where
        # declaring the pendant dominated removes Dominator's forcing move.
        G = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        report = check_continuation(G, mode="exhaustive")
        assert not report.ok
        assert ((0, 3), (0,)) in report.violations


def solver_sampled_report(G, samples, seed):
    """The sampled report with every value read from an ``IndicatedGameSolver``."""
    solver = IndicatedGameSolver(G)
    draws = verify._random_masks(seed, G.n)
    violations = []
    for _ in range(samples):
        a = next(draws)
        b = a & next(draws)
        if solver.value(a) > solver.value(b):
            violations.append((tuple(bits(a)), tuple(bits(b))))
    name = G.label or f"graph(n={G.n})"
    return verify.ContinuationReport(name, G.n, "sampled", samples, tuple(violations))


class TestSampledLevels:
    """Sampled reports read off the level tables equal the solver's, pair for pair."""

    @pytest.fixture
    def level_builds(self, monkeypatch):
        built = []
        build = verify._value_levels

        def counted(G):
            built.append(G.n)
            return build(G)

        monkeypatch.setattr(verify, "_value_levels", counted)
        return built

    def assert_matches_solver(self, cases, level_builds):
        """Each (G, samples, seed) gives the solver's report; the violations found."""
        found = 0
        for G, samples, seed in cases:
            del level_builds[:]
            report = check_continuation(G, mode="sampled", samples=samples, seed=seed)
            assert report == solver_sampled_report(G, samples, seed), (G, samples, seed)
            reads_levels = G.n <= 17
            assert level_builds == ([G.n] if reads_levels else []), (G, samples)
            found += len(report.violations)
        return found

    def test_every_graph_up_to_7(self, level_builds):
        cases = [(G, samples, seed) for n in range(2, 8) for seed, G in enumerate(isolate_free_graphs(n))
                 for samples in (2**n - 1, 500)]
        assert self.assert_matches_solver(cases, level_builds) > 0

    def test_relabeled_families_8_to_18(self, level_builds):
        rng = random.Random(28)
        # The solver is slow on squared cycles, so they get fewer draws.
        specs = [(f"{kind}:{n}", 3000) for n in range(8, 19) for kind in ("path", "cycle")]
        specs += [(f"corona:path{k}", 3000) for k in range(4, 10)]
        specs += [(f"cyclepower:{n},2", 300) for n in range(8, 19)]
        cases = [(relabeled(family(parse_family_spec(spec)), rng), samples, rng.randrange(2**30))
                 for spec, samples in specs]
        # Just below and at as many draws as masks: both read the levels,
        # as do more draws than masks on dense graphs.
        cases += [(relabeled(path_graph(8), rng), samples, 5) for samples in (255, 256)]
        cases += [(relabeled(family(parse_family_spec(f"cyclepower:{n},2")), rng), samples, rng.randrange(2**30))
                  for n in range(8, 13) for samples in (2**n, 2**n + 1000)]
        assert self.assert_matches_solver(cases, level_builds) > 0

    def test_corona_path8_has_violations(self, level_builds):
        G = family(parse_family_spec("corona:path8"))
        assert self.assert_matches_solver([(G, 3000, 5)], level_builds) == 41

    def test_seeded_random_graphs_8_to_17(self, level_builds):
        rng = random.Random(2817)
        cases = [(random_isolate_free_graph(n, p, rng), 500, rng.randrange(2**30))
                 for n in range(8, 18) for p in (0.2, 0.4)]
        cases += [(random_isolate_free_graph(n, 0.6, rng), 2**n, rng.randrange(2**30)) for n in range(8, 13)]
        self.assert_matches_solver(cases, level_builds)

    def test_order_zero_graph(self, level_builds):
        cases = [(build_graph(0, []), samples, 3) for samples in (1, 4)]
        assert self.assert_matches_solver(cases, level_builds) == 0


def assert_levels_match_solver(G):
    levels = verify._value_levels(G)
    value = games._level_values(levels, G.n)
    solver = IndicatedGameSolver(G)
    for mask in range(G.full_mask + 1):
        assert sum(level >> mask & 1 for level in levels) == solver.value(mask), (G, mask)
        # Only V has value 0 and no sampled verdict turns on it, so the
        # reader is tied to the solver here, on every mask.
        assert value(mask) == solver.value(mask), (G, mask)
    assert all(level and not level >> G.full_mask & 1 for level in levels)
    assert all(upper & ~lower == 0 for lower, upper in zip(levels, levels[1:]))


def _move_products_without_upsets(nbr):
    """``games._move_products`` with ``& up`` dropped: masks lacking S are shifted in too."""
    down = games._subsets(len(nbr)).down
    return [(-1, down[s] ^ 1 << s, s) for s in nbr]


class TestValueLevels:
    @pytest.mark.parametrize(
        "products, broken",
        [(_move_products_without_upsets, "gti level L_3 is not inside L_2"),
         # Every reply answers the whole level, so no level ever shrinks.
         (lambda nbr: [(-1, 1, 0)] * len(nbr), "gti level L_5 is non-empty, but n = 4")],
    )
    def test_wrong_reply_step_fails_at_once(self, monkeypatch, products, broken):
        # Without the checks these loop on, growing the level list.
        monkeypatch.setattr(games, "_move_products", products)
        with pytest.raises(AssertionError, match=f"^path:4: {broken}$"):
            verify._value_levels(path_graph(4))

    def test_wrong_reply_step_is_an_internal_error(self, monkeypatch, capsys):
        monkeypatch.setattr(games, "_move_products", _move_products_without_upsets)
        assert main(["verify", "continuation", "--graph", "path:4"]) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "internal error: path:4: gti level L_3 is not inside L_2\n")

    def test_every_mask_up_to_7(self):
        for _, G in exhaustive_corpus(7):
            assert_levels_match_solver(G)

    def test_relabeled_order_7(self):
        rng = random.Random(7)
        for G in isolate_free_graphs(7)[::40]:
            assert_levels_match_solver(relabeled(G, rng))

    def test_relabeled_orders_8_to_12(self):
        # Sampled checks read the levels up to n = 17; here they meet the
        # solver on every mask above the exhaustive cap, on bipartite
        # graphs, on graphs with odd cycles and on a dense G(12, 0.7).
        rng = random.Random(812)
        graphs = [family(parse_family_spec(spec)) for spec in ("path:8", "cycle:9", "corona:path5", "cyclepower:11,2")]
        graphs.append(random_isolate_free_graph(12, 0.7, rng))
        for G in graphs:
            assert_levels_match_solver(relabeled(G, rng))

    def test_neighbourhood_continuation_on_every_graph_up_to_7(self):
        # The Indicated Total Continuation Principle in neighbourhood form:
        # gti(G | B ∪ N(x)) <= gti(G | B) for every dominated mask B and
        # vertex x, read off the level tables that the tests above tie to
        # the solver.
        pairs = 0
        for _, G in exhaustive_corpus(7):
            values = [0] * (G.full_mask + 1)
            for level in verify._value_levels(G):
                for mask in bits(level):
                    values[mask] += 1
            for x in range(G.n):
                nx = G.nbr[x]
                for B, value in enumerate(values):
                    if values[B | nx] > value:
                        pytest.fail(
                            f"{serialize_graph6(G)}: B={list(bits(B))}, x={x}: "
                            f"gti(G | B ∪ N(x)) = {values[B | nx]} > gti(G | B) = {value}"
                        )
            pairs += len(values) * G.n
        assert pairs == 846_680


class TestOrderTables:
    def test_columns_match_definition(self):
        for m in range(verify.EXHAUSTIVE_ORDER_CAP + 1):
            columns = games._columns(m)
            assert len(columns) == m
            for i, column in enumerate(columns):
                assert column >> (1 << m) == 0
                assert all(column >> s & 1 == s >> i & 1 for s in range(1 << m)), (m, i)

    def test_downsets_match_definition(self):
        for n in range(verify.EXHAUSTIVE_ORDER_CAP + 1):
            down = games._subsets(n).down
            assert len(down) == 1 << n
            for a, subsets in enumerate(down):
                assert subsets >> (1 << n) == 0
                assert all(subsets >> b & 1 == (b & ~a == 0) for b in range(1 << n)), (n, a)

    def test_upsets_match_definition(self):
        for n in range(verify.EXHAUSTIVE_ORDER_CAP + 1):
            up = games._subsets(n).up
            assert len(up) == 1 << n
            for s, supersets in enumerate(up):
                assert supersets >> (1 << n) == 0
                assert all(supersets >> a & 1 == (s & ~a == 0) for a in range(1 << n)), (n, s)

    def test_size_layers_match_definition(self):
        for n in range(verify.EXHAUSTIVE_ORDER_CAP + 1):
            layers = games._subsets(n).layers
            assert len(layers) == n + 1
            for k, sets in enumerate(layers):
                assert sets >> (1 << n) == 0
                assert all(sets >> s & 1 == (s.bit_count() == k) for s in range(1 << n)), (n, k)

    def test_first_byte_lane_matches_bits(self):
        # The exhaustive orders read the vertex tuple of a mask below 2**7 here.
        assert _byte_lanes()[0] == tuple(tuple(bits(m)) for m in range(256))

    def test_table_cap_fits_the_first_byte_lane(self):
        # Up to the cap ``_value_levels`` and ``invariants._subset_table``
        # read each neighbourhood's vertex tuple from lane 0, and exhaustive
        # continuation checks read each violation's sets there, so a cap
        # past 8 needs a wider read first.
        assert (1 << games.TABLE_ORDER_CAP) - 1 < len(_byte_lanes()[0])
        assert (1 << verify.EXHAUSTIVE_ORDER_CAP) - 1 < len(_byte_lanes()[0])

    def test_caches_stay_bounded(self):
        # Sampled checks run far above the cap, and up to n = 17 build the
        # 2**n-bit levels of the one graph they check, but cache no table
        # of those orders, so after them only the exhaustive orders are.
        tables = (games._columns, games._subsets)
        for table in tables:
            table.cache_clear()
        orders = range(2, verify.EXHAUSTIVE_ORDER_CAP + 1)
        for n in orders:
            check_continuation(path_graph(n))
        for G in (path_graph(17), cycle_graph(26)):
            check_continuation(G, mode="sampled", samples=50, seed=3)
        # The seven invariants read whole tables up to the cap and search
        # above it; the subset table, the product list and the irredundant
        # search are kept for the last graph only.
        graphs = [path_graph(17), cycle_graph(26)] + [path_graph(n) for n in orders]
        list(survey((G.label, G) for G in graphs))
        for one in (invariants._subset_table, games._move_products, invariants._irredundant_optima):
            assert one.cache_info().currsize == 1, one
        for table in tables:
            cached = table.cache_info()
            assert cached.currsize == len(orders)
            for n in orders:
                table(n)
            assert table.cache_info().misses == cached.misses  # exactly those orders


class TestSurvey:
    def test_empty_corpus(self):
        assert list(survey([])) == []

    def test_exhaustive_four_passes_chains(self):
        rows = list(survey(exhaustive_corpus(4)))
        assert rows and all(not row.violations for row in rows)

    def test_incomparability_directions(self):
        from tdgamelab import family, parse_family_spec

        values = {
            spec: survey_row(spec, family(parse_family_spec(spec)))
            for spec in ("gk:1", "fk:6", "substar:3,1", "substar:4,3")
        }
        assert values["gk:1"].gti > values["gk:1"].ooir
        assert values["fk:6"].ooir > values["fk:6"].gti
        assert values["substar:3,1"].gti > values["substar:3,1"].gtg
        assert values["substar:4,3"].gtg > values["substar:4,3"].gti

    def test_csv_shape(self):
        rows = list(survey(exhaustive_corpus(3)))
        text = rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(rows) + 1
        assert lines[1].startswith("exhaustive:n=2:i=0,2,")

    def test_empty_sinks(self):
        assert rows_to_csv([]) == CSV_HEADER + "\n"
        assert rows_to_json_lines([]) == "\n"
        out = io.StringIO()
        assert write_rows([], "json", out) is False
        assert out.getvalue() == "\n"

    def test_write_rows_matches_sinks(self):
        rows = list(survey(exhaustive_corpus(4)))
        rows[1] = dataclasses.replace(rows[1], graph="cyclepower:7,2", violations=("a", "b"))
        for emit, sink in (("csv", rows_to_csv), ("json", rows_to_json_lines)):
            out = io.StringIO()
            assert write_rows(rows, emit, out) is True
            assert out.getvalue() == sink(rows)

    def test_json_lines_parse_back(self):
        rows = list(survey(exhaustive_corpus(3)))
        parsed = [json.loads(line) for line in rows_to_json_lines(rows).strip().splitlines()]
        assert [p["graph"] for p in parsed] == [r.graph for r in rows]
        assert all(p["violations"] == [] for p in parsed)

    def test_rows_deterministic(self):
        once = list(survey(exhaustive_corpus(4)))
        twice = list(survey(exhaustive_corpus(4)))
        assert once == twice


class TestInvariantTable:
    SOLVERS = ("gamma_t", "upper_gamma_t", "gti", "gtg", "grundy_t", "ooir", "induced_matching_number")

    def test_keys_are_the_survey_columns(self):
        assert tuple(INVARIANTS) == tuple(CSV_HEADER.split(",")[2:9])

    def test_each_key_calls_its_own_solver(self, monkeypatch):
        # Seven distinct values: a claim or column wired to another key's
        # solver, or a table entry that captured the function object instead
        # of the module global, reads the wrong one.
        expected = {}
        for value, (key, name) in enumerate(zip(INVARIANTS, self.SOLVERS), start=101):
            monkeypatch.setattr(tdgamelab.verify, name, lambda *args, value=value: value)
            expected[key] = value
        claims = [c for c in paper_claims() if c.criterion <= 10]
        assert {c.quantity for c in claims} == set(INVARIANTS) - {"grt"}  # no graph claim on grt
        for claim in claims:
            assert claim.compute() == expected[claim.quantity], claim.claim_id
        row = survey_row("path:4", path_graph(4))
        assert {key: getattr(row, key) for key in INVARIANTS} == expected

    def test_corpus_values_unchanged_under_relabeling(self):
        rng = random.Random(0x5EED)
        for graph_id, G in islice(exhaustive_corpus(7), 0, None, 10):
            H = relabeled(G, rng)
            for key, solve in INVARIANTS.items():
                assert int(solve(H)) == int(solve(G)), (graph_id, key, H.edges())

    @pytest.mark.parametrize(
        "spec, values",
        [
            # gt, ugt, gti, gtg, grt, ooir, nui of the subsets-deep graphs
            ("cyclepower:18,3", (4, 6, 6, 6, 12, 6, 3)),
            ("bk:8", (2, 2, 2, 2, 18, 16, 8)),
            ("fk:8", (2, 4, 4, 3, 9, 7, 2)),
            ("cycle:20", (10, 12, 14, 13, 18, 12, 6)),
            ("substar:4,4", (10, 16, 16, 14, 18, 16, 8)),
        ],
    )
    def test_family_values_unchanged_under_relabeling(self, spec, values):
        H = relabeled(family(parse_family_spec(spec)), random.Random(spec))
        assert tuple(int(solve(H)) for solve in INVARIANTS.values()) == values


class TestRandomCorpus:
    def test_reproducible(self):
        a = random_corpus(6, 0.5, 5, seed=42)
        b = random_corpus(6, 0.5, 5, seed=42)
        assert [(gid, G.nbr) for gid, G in a] == [(gid, G.nbr) for gid, G in b]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="size must be >= 0"):
            random_corpus(6, 0.5, -1, seed=42)
        assert list(random_corpus(6, 0.5, 0, seed=42)) == []

    @pytest.mark.parametrize(
        "n, p, error, message",
        [(1, 0.5, ValueError, "n >= 2"), (27, 0.5, CapacityError, "SOLVER_CAP"),
         (6, 0.0, ValueError, r"\(0, 1\]"), (6, 1.5, ValueError, r"\(0, 1\]"),
         (6, float("nan"), ValueError, r"\(0, 1\]")],
    )
    def test_order_and_probability_checked_at_the_call(self, n, p, error, message):
        # Raised before any graph is drawn, so an empty corpus is no excuse.
        with pytest.raises(error, match=message):
            random_corpus(n, p, 0, seed=42)

    def test_draws_one_graph_per_item(self, monkeypatch):
        real_draw = verify.random_isolate_free_graph
        draws = []

        def counted(n, p, rng):
            draws.append(n)
            return real_draw(n, p, rng)

        monkeypatch.setattr(verify, "random_isolate_free_graph", counted)
        corpus = random_corpus(6, 0.5, 1000, seed=42)
        assert len(draws) == 1  # the first draw is made at the call
        first_three = list(islice(corpus, 3))
        assert len(draws) == 3
        assert first_three == list(random_corpus(6, 0.5, 3, seed=42))

    def test_hopeless_probability_fails_at_the_call(self):
        with pytest.raises(ValueError, match="no isolate-free G"):
            random_corpus(6, 1e-9, 3, seed=42)

    def test_isolate_free(self):
        rng = random.Random(3)
        for _ in range(20):
            assert random_isolate_free_graph(6, 0.3, rng).is_isolate_free()

    def test_retry_bound(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            random_isolate_free_graph(6, 0.0, rng)

    def test_leaf_support_trees(self):
        rng = random.Random(9)
        for _ in range(25):
            T, s = random_leaf_support_tree(rng)
            assert T.n <= 12
            assert T.edge_count() == T.n - 1
            supports = {
                v for v in range(T.n) if any(T.degree(u) == 1 for u in T.neighbors(v))
            }
            assert len(supports) == s >= 2
            for v in range(T.n):
                assert T.degree(v) == 1 or v in supports


class TestTreeProbes:
    def test_small_report_shape(self):
        report = explore_trees(5)
        assert len(report.rows) == 1 + 1 + 2 + 3
        assert not report.restricted_claim_violations
        lines = report.summary_lines()
        assert any("no counterexample found up to n=5" in line for line in lines)

    def test_summary_lines_name_each_counterexample(self):
        report = verify.TreeProbeReport(9, (), ("tree:n=9:i=3",), ("tree:n=8:i=1", "tree:n=9:i=0"), ("tree:n=7:i=2",))
        assert report.summary_lines() == [
            "upper-total/indicated equality counterexample: tree:n=9:i=3",
            "indicated <= 2*matching counterexample: tree:n=8:i=1",
            "indicated <= 2*matching counterexample: tree:n=9:i=0",
            "VIOLATION of the leaf-ended-matching bound: tree:n=7:i=2",
        ]
        assert verify.TreeProbeReport(9, (), (), (), ()).summary_lines() == [
            "upper-total = indicated on trees: no counterexample found up to n=9",
            "indicated <= 2*matching on trees: no counterexample found up to n=9",
            "leaf-ended-matching bound verified on every qualifying tree",
        ]

    def test_path_rows_have_equality(self):
        report = explore_trees(7)
        for row in report.rows:
            tree = enumerate_trees(row.n)[row.index]
            degrees = sorted(tree.degree(v) for v in range(tree.n))
            is_path = degrees == [1, 1] + [2] * (tree.n - 2)
            if is_path:
                assert row.gamma_equal

    def test_leaf_support_trees_have_equality(self):
        rng = random.Random(5)
        for _ in range(10):
            T, s = random_leaf_support_tree(rng)
            from tdgamelab import gti, upper_gamma_t

            assert gti(T) == upper_gamma_t(T).value == s

    def test_no_restricted_violations_up_to_ten(self):
        report = explore_trees(10)
        assert not report.restricted_claim_violations
        # Observational columns: report, never assert, the open questions.
        assert isinstance(report.equality_counterexamples, tuple)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            explore_trees(13)


def family_claims_to_the_cap():
    """The paper's family claims (criteria 1-9) at every parameter that fits in 26 vertices.

    ``verify paper`` checks them at small parameters only; these are the
    larger ones, as (spec, {invariant: value}).
    """
    for n in range(16, 27):
        yield f"path:{n}", dict(gti=2 * ((n + 1) // 3), ugt=2 * ((n + 1) // 3))
    for k in range(5, 12):
        yield f"cyclepower:{2 * k + 3},{k}", dict(ugt=2, gti=3)
    yield "gk:3", dict(gti=9, ugt=6, ooir=6)
    for k in range(9, 14):
        yield f"fk:{k}", dict(gti=4, ooir=k - 1, gtg=3)
    for k in range(6, 13):
        yield f"bk:{k}", dict(gti=2, gt=2, ugt=2, gtg=2, nui=k)
    for k in range(6, 9):
        yield f"jk:{k}", dict(gti=k + 1, nui=k)
    for k in range(7, 13):
        yield f"substar:{k},1", dict(gti=2 * k, ugt=2 * k, gtg=k + 1)
    for k in range(3, 7):
        yield f"substar:{k},3", dict(ooir=2 * k + 2, nui=k + 1)
    for k in range(6, 14):
        yield f"corona:complete{k}", dict(gti=k, gt=k, ugt=k, gtg=k + 1, nui=1)


FAMILY_CLAIMS_TO_THE_CAP = dict(family_claims_to_the_cap())

# Lab results, not paper claims: on substar:k,3 the paper gives only the
# bounds gti <= 2k + 2 and gtg >= 5k/2 (criterion 8), and these are the
# computed values.
SUBSTAR_3_LAB_VALUES = {
    f"substar:{k},3": dict(gti=2 * k + 2, gtg=gtg) for k, gtg in zip(range(3, 7), (9, 11, 14, 16))
}


def computed(spec, keys):
    G = family(parse_family_spec(spec))
    return {key: int(INVARIANTS[key](G)) for key in keys}


class TestFamilyClaimsToTheCap:
    def test_instance_and_claim_counts(self):
        assert len(FAMILY_CLAIMS_TO_THE_CAP) == 52
        tables = [FAMILY_CLAIMS_TO_THE_CAP, SUBSTAR_3_LAB_VALUES]
        assert sum(len(claims) for table in tables for claims in table.values()) == 169

    @pytest.mark.parametrize("spec", FAMILY_CLAIMS_TO_THE_CAP)
    def test_paper_claim(self, spec):
        expected = FAMILY_CLAIMS_TO_THE_CAP[spec]
        assert computed(spec, expected) == expected, spec

    @pytest.mark.parametrize("spec", SUBSTAR_3_LAB_VALUES)
    def test_lab_value(self, spec):
        expected = SUBSTAR_3_LAB_VALUES[spec]
        assert computed(spec, expected) == expected, spec


@pytest.fixture(scope="module")
def quick_criteria():
    return run_paper_suite(criteria=[2, 5, 6, 9])


class TestSuite:
    def test_quick_criteria_pass(self, quick_criteria):
        assert quick_criteria.ok

    def test_report_is_deterministic_modulo_timing(self):
        once = run_paper_suite(criteria=[5, 6])
        twice = run_paper_suite(criteria=[5, 6])
        strip = lambda rows: [dataclasses.replace(r, seconds=0.0) for r in rows]
        assert strip(once.rows) == strip(twice.rows)

    def test_perturbed_expected_value_fails_exactly_that_row(self):
        claims = [c for c in paper_claims() if c.criterion in (5, 9)]
        target = claims[3]
        perturbed = [
            dataclasses.replace(c, expected=c.expected + 1) if c is target else c
            for c in claims
        ]
        baseline = run_paper_suite(claims=claims)
        report = run_paper_suite(claims=perturbed)
        assert baseline.ok
        assert [r.claim_id for r in report.failures()] == [target.claim_id]

    def test_frozen_claim_table_digest(self):
        claims = paper_claims()
        text = "".join(
            f"{c.claim_id}|{c.criterion}|{c.instance}|{c.quantity}|{c.relation}|{c.expected}|{c.source}\n"
            for c in claims
        )
        assert len(claims) == 214
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f943e3e3ba2ad3c6a94752c56332946411f67c94e0db59010798ab6d3a090603"
        )

    def test_unknown_criterion_raises(self):
        with pytest.raises(ValueError, match="no claims for criterion 16, 99"):
            run_paper_suite(criteria=[5, 99, 16])

    def test_all_criteria_present(self):
        criteria = {c.criterion for c in paper_claims()}
        assert criteria == set(range(1, 16))

    def test_raising_claim_becomes_error_row(self):
        claims = [c for c in paper_claims() if c.criterion == 5][:3]

        def broken():
            raise WitnessError("injected")

        claims[1] = dataclasses.replace(claims[1], compute=broken)
        report = run_paper_suite(claims=claims)
        assert [r.claim_id for r in report.rows] == [c.claim_id for c in claims]
        row = report.rows[1]
        assert (row.computed, row.ok, row.error) == (None, False, "WitnessError: injected")
        assert report.errors() == [row]
        assert report.failures() == [row]
        assert report.rows[0].ok and report.rows[2].ok
        assert report.rows[0].error is report.rows[2].error is None
        text = report.render()
        assert text.splitlines()[1].startswith("[ERROR] ")
        assert "WitnessError: injected" in text
        assert text.endswith("2/3 checks passed, 1 raised an error")

    def test_render_mentions_failures(self):
        claims = [c for c in paper_claims() if c.criterion == 5][:2]
        bad = [dataclasses.replace(c, expected=99) for c in claims]
        report = run_paper_suite(claims=bad)
        text = report.render()
        assert "FAIL" in text and "0/2 checks passed" in text
