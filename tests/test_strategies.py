"""Scripted policies: legality, guaranteed bounds, and certification."""

from dataclasses import replace

import pytest

from tdgamelab import (
    PolicyError,
    Role,
    best_response_length,
    build_graph,
    dominator_leaf_policy,
    dominator_path_policy,
    family,
    gti,
    optimal_policy,
    parse_family_spec,
    play_game,
    private_neighborhoods,
    staller_partition_policy,
    upper_gamma_t,
)
from tdgamelab.families import cycle_graph, path_graph, star_graph, support_vertices
from tdgamelab.verify import exhaustive_corpus, path_game_value


class TestStallerPartitionPolicy:
    @pytest.mark.parametrize(
        "spec,lower",
        [("path:5", 4), ("gk:1", 2), ("cycle:6", 4), ("bk:2", 2)],
    )
    def test_forces_at_least_upper_gamma(self, spec, lower):
        G = family(parse_family_spec(spec))
        assert upper_gamma_t(G).value == lower
        assert best_response_length(G, None, staller_partition_policy(G)) >= lower

    def test_k2_forced_game(self):
        G = build_graph(2, [(0, 1)])
        assert best_response_length(G, None, staller_partition_policy(G)) == 2

    def test_never_selects_outside_base_set(self):
        G = family(parse_family_spec("substar:3,1"))
        policy = staller_partition_policy(G)
        base = set(upper_gamma_t(G).witness)
        rounds = play_game(G, optimal_policy(G, Role.DOMINATOR), policy)
        assert {u for _, u in rounds} <= base

    def test_partition_rule_on_every_graph_up_to_7(self):
        # Staller answers w with min(N(w) & S); the parts V_v of those
        # answers satisfy pn(v) <= V_v <= N(v), with pn from
        # private_neighborhoods, and the best response lasts exactly |S|.
        for graph_id, G in exhaustive_corpus(7):
            S = upper_gamma_t(G).witness
            policy = staller_partition_policy(G)
            answers = [policy.chooser(0, w) for w in range(G.n)]
            assert answers == [min(set(G.neighbors(w)) & set(S)) for w in range(G.n)], graph_id
            for v in S:
                part = {w for w in range(G.n) if answers[w] == v}
                pn, _, _ = private_neighborhoods(G, S, v)
                assert set(pn) <= part <= set(G.neighbors(v)), (graph_id, v)
            assert best_response_length(G, None, policy) == len(S), graph_id

    def test_forces_upper_gamma_on_arbitrary_graphs(self):
        # The partition guarantee is graph-independent: every member of the
        # chosen set keeps a private neighbor, so the game cannot end early.
        import random

        from tdgamelab.verify import random_isolate_free_graph

        rng = random.Random(0xBEEF)
        for _ in range(40):
            G = random_isolate_free_graph(rng.randint(3, 8), rng.uniform(0.3, 0.8), rng)
            assert (
                best_response_length(G, None, staller_partition_policy(G))
                >= upper_gamma_t(G).value
            )


class TestDominatorPathPolicy:
    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_residue_cases(self, n):
        # The three opening scripts, one per residue of n mod 3.
        assert best_response_length(path_graph(n), None, dominator_path_policy(n)) <= path_game_value(n)

    def test_all_orders_meet_bound(self):
        for n in range(2, 16):
            achieved = best_response_length(path_graph(n), None, dominator_path_policy(n))
            assert achieved <= path_game_value(n)

    def test_rejects_other_graphs(self):
        with pytest.raises(PolicyError):
            best_response_length(cycle_graph(6), None, dominator_path_policy(6))

    def test_rejects_tiny_orders(self):
        with pytest.raises(ValueError):
            dominator_path_policy(1)


class TestDominatorLeafPolicy:
    def test_double_star(self):
        T = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        assert len(support_vertices(T)) == 2
        assert best_response_length(T, None, dominator_leaf_policy(T)) <= 2

    def test_star(self):
        T = star_graph(4)
        assert best_response_length(T, None, dominator_leaf_policy(T)) == 2

    def test_k2(self):
        T = build_graph(2, [(0, 1)])
        assert best_response_length(T, None, dominator_leaf_policy(T)) <= 2

    def test_rejects_trees_with_internal_non_support(self):
        # P_5's middle vertex is neither a leaf nor a support vertex.
        with pytest.raises(ValueError):
            dominator_leaf_policy(path_graph(5))

    def test_rejects_non_trees(self):
        with pytest.raises(ValueError):
            dominator_leaf_policy(cycle_graph(5))

    def test_rejects_other_graphs(self):
        # P_5 has the order of star:4 but other edges.
        with pytest.raises(PolicyError, match=r"^policy 'dominator-leaf' was built for <Graph star:4: n=5, m=4>, not "):
            best_response_length(path_graph(5), None, dominator_leaf_policy(star_graph(4)))


class TestJointCertification:
    def test_scripts_pin_path_values_without_exact_solver(self):
        for n in range(2, 16):
            P = path_graph(n)
            bound = path_game_value(n)
            upper = best_response_length(P, None, dominator_path_policy(n))
            lower = best_response_length(P, None, staller_partition_policy(P))
            assert upper <= bound <= lower
            # Cross-check the pinned value against the exact solver.
            assert gti(P) == bound

    def test_policies_always_return_legal_moves(self):
        for spec in ["path:9", "substar:3,1", "star:4"]:
            G = family(parse_family_spec(spec))
            staller = staller_partition_policy(G)
            rounds = play_game(G, optimal_policy(G, Role.DOMINATOR), staller)
            assert rounds  # play_game validates legality of every move


def counted(policy, calls):
    """``policy`` with every chooser call appended to ``calls``."""

    def chooser(*args):
        calls.append(args)
        return policy.chooser(*args)

    return replace(policy, chooser=chooser)


# Each constructor's policy, and a graph of the same order with other edges.
FOREIGN = [
    (lambda: optimal_policy(path_graph(5), Role.DOMINATOR), star_graph(4)),
    (lambda: optimal_policy(path_graph(5), Role.STALLER), star_graph(4)),
    (lambda: staller_partition_policy(path_graph(5)), star_graph(4)),
    (lambda: dominator_path_policy(5), cycle_graph(5)),
    (lambda: dominator_leaf_policy(star_graph(4)), path_graph(5)),
]
FOREIGN_IDS = ["optimal-dominator", "optimal-staller", "staller-partition", "dominator-path", "dominator-leaf"]


class TestDriversCheckTheGraph:
    """Both drivers reject a policy built for another graph before consulting it."""

    @pytest.mark.parametrize("build, H", FOREIGN, ids=FOREIGN_IDS)
    def test_best_response_rejects_a_foreign_policy(self, build, H):
        calls = []
        policy = counted(build(), calls)
        with pytest.raises(PolicyError) as raised:
            best_response_length(H, None, policy)
        assert str(raised.value) == f"policy {policy.name!r} was built for {policy.graph!r}, not {H!r}"
        assert calls == []

    @pytest.mark.parametrize("build, H", FOREIGN, ids=FOREIGN_IDS)
    def test_play_game_rejects_a_foreign_policy(self, build, H):
        calls = []
        policy = counted(build(), calls)
        other = Role.STALLER if policy.role is Role.DOMINATOR else Role.DOMINATOR
        partner = counted(optimal_policy(H, other), calls)
        dominator, staller = (policy, partner) if policy.role is Role.DOMINATOR else (partner, policy)
        with pytest.raises(PolicyError, match=f"^policy {policy.name!r} was built for "):
            play_game(H, dominator, staller)
        assert calls == []

    def test_same_adjacency_under_another_label_is_accepted(self):
        P = path_graph(7)
        H = build_graph(7, P.edges())
        assert H.label != P.label and H.nbr == P.nbr
        dominator, staller = dominator_path_policy(7), staller_partition_policy(P)
        assert best_response_length(H, None, dominator) == best_response_length(P, None, dominator)
        assert best_response_length(H, None, staller) == best_response_length(P, None, staller)
        assert play_game(H, dominator, staller) == play_game(P, dominator, staller)
