import itertools

import pytest
from hypothesis import given, settings

from rolemine import (
    AUTOMORPHISM_NODE_LIMIT,
    Graph,
    NodePartition,
    apply_permutation,
    automorphic_orbits,
    load_edge_list,
    regular_refinement,
    structural_classes,
)

from strategies import graph_with_permutation, graphs, neighbor_lists

P3 = load_edge_list("0 1\n1 2")
P4 = load_edge_list("0 1\n1 2\n2 3")
P5 = load_edge_list("0 1\n1 2\n2 3\n3 4")
K3 = load_edge_list("0 1\n1 2\n0 2")
C4 = load_edge_list("0 1\n1 2\n2 3\n3 0")
S3 = load_edge_list("0 1\n0 2\n0 3")


def exhaustive_orbits(g):
    """Independent oracle: merge orbits over every edge-preserving bijection."""
    edges = set(map(tuple, g.edges.tolist()))
    labels = list(range(g.n))

    def find(x):
        while labels[x] != x:
            labels[x] = labels[labels[x]]
            x = labels[x]
        return x

    for perm in itertools.permutations(range(g.n)):
        mapped = {(perm[u], perm[v]) for u, v in edges}
        if not g.directed:
            mapped = {(min(e), max(e)) for e in mapped}
        if mapped != edges:
            continue
        for u in range(g.n):
            ru, rv = find(u), find(perm[u])
            if ru != rv:
                labels[max(ru, rv)] = min(ru, rv)
    return NodePartition.from_labels([find(u) for u in range(g.n)])


class TestStructural:
    def test_star_leaves_share_class(self):
        assert structural_classes(S3).classes == ((0,), (1, 2, 3))

    def test_triangle_strict_all_singletons(self):
        assert structural_classes(K3, variant="strict").classes == ((0,), (1,), (2,))

    def test_triangle_weak_one_class(self):
        assert structural_classes(K3, variant="weak").classes == ((0, 1, 2),)

    def test_path_ends_pair_under_both_variants(self):
        assert structural_classes(P3, variant="strict").classes == ((0, 2), (1,))
        assert structural_classes(P3, variant="weak").classes == ((0, 2), (1,))

    def test_weak_adjacent_twins(self):
        # 0 and 1 adjacent with the same other neighbors
        g = load_edge_list("0 1\n0 2\n1 2")
        weak = structural_classes(g, variant="weak")
        assert weak.assignment[0] == weak.assignment[1]

    def test_directed_uses_in_and_out_neighborhoods(self):
        g = Graph(n=4, edges=[(0, 2), (1, 2), (2, 3)], directed=True)
        p = structural_classes(g)
        assert p.assignment[0] == p.assignment[1]
        assert p.assignment[0] != p.assignment[2]

    def test_weak_variant_rejects_directed(self):
        g = load_edge_list("0 1", directed=True)
        with pytest.raises(ValueError):
            structural_classes(g, variant="weak")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            structural_classes(P3, variant="loose")

    @given(graphs(max_n=6))
    def test_strict_members_have_equal_neighbor_sets(self, g):
        p = structural_classes(g)
        nbrs = neighbor_lists(g)
        for cls in p.classes:
            base = set(nbrs[cls[0]])
            for u in cls[1:]:
                assert set(nbrs[u]) == base

    @given(graphs(max_n=6, directed=True))
    def test_directed_members_have_equal_out_and_in_sets(self, g):
        p = structural_classes(g)
        out_in = [(set(), set()) for _ in range(g.n)]
        for u, v in g.edges.tolist():
            out_in[u][0].add(v)
            out_in[v][1].add(u)
        for cls in p.classes:
            assert all(out_in[u] == out_in[cls[0]] for u in cls)
        keys = [out_in[cls[0]] for cls in p.classes]
        assert all(a != b for a, b in itertools.combinations(keys, 2))


class TestAutomorphic:
    def test_cycle_is_one_orbit(self):
        assert automorphic_orbits(C4).classes == ((0, 1, 2, 3),)

    def test_path_of_four_pairs_ends_and_middles(self):
        assert automorphic_orbits(P4).classes == ((0, 3), (1, 2))

    def test_two_disjoint_edges_one_orbit(self):
        g = load_edge_list("0 1\n2 3")
        assert automorphic_orbits(g).classes == ((0, 1, 2, 3),)

    def test_complete_graph_one_orbit(self):
        g = load_edge_list("\n".join(f"{u} {v}" for u in range(5) for v in range(u + 1, 5)))
        assert automorphic_orbits(g).classes == ((0, 1, 2, 3, 4),)

    def test_size_cap_enforced(self):
        big = load_edge_list("\n".join(f"{i} {i + 1}" for i in range(AUTOMORPHISM_NODE_LIMIT)))
        assert big.n == AUTOMORPHISM_NODE_LIMIT + 1
        with pytest.raises(ValueError):
            automorphic_orbits(big)

    @given(graphs(max_n=6))
    @settings(max_examples=60)
    def test_matches_exhaustive_permutation_oracle(self, g):
        assert automorphic_orbits(g).classes == exhaustive_orbits(g).classes

    @given(graphs(max_n=5, directed=True))
    @settings(max_examples=60)
    def test_matches_exhaustive_oracle_directed(self, g):
        assert automorphic_orbits(g).classes == exhaustive_orbits(g).classes


class TestRegular:
    def test_connected_single_class_is_fixed_point(self):
        for g in (P3, P4, P5, K3, C4, S3):
            assert regular_refinement(g).classes == (tuple(range(g.n)),)

    def test_isolated_node_splits_from_single_class(self):
        g = Graph(n=3, edges=[(1, 2)])
        assert regular_refinement(g).classes == ((0,), (1, 2))

    @given(graphs(max_n=7))
    def test_idempotent(self, g):
        # a fixed point: one more refinement would split no class, as the
        # members of each class see equal sets of neighbor classes
        labels = regular_refinement(g).assignment
        seen = [set() for _ in range(g.n)]
        for u, v in g.edges.tolist():
            seen[u].add(labels[v])
            seen[v].add(labels[u])
        for u, v in itertools.combinations(range(g.n), 2):
            if labels[u] == labels[v]:
                assert seen[u] == seen[v]

    @given(graphs(max_n=7, directed=True))
    def test_directed_classes_see_equal_out_and_in_classes(self, g):
        labels = regular_refinement(g).assignment
        seen = [(set(), set()) for _ in range(g.n)]
        for u, v in g.edges.tolist():
            seen[u][0].add(labels[v])
            seen[v][1].add(labels[u])
        for u, v in itertools.combinations(range(g.n), 2):
            if labels[u] == labels[v]:
                assert seen[u] == seen[v]


class TestHierarchy:
    @given(graphs(max_n=7))
    @settings(max_examples=80)
    def test_strict_refines_orbits_refines_regular(self, g):
        strict = structural_classes(g)
        orbits = automorphic_orbits(g)
        regular = regular_refinement(g)
        assert strict.refines(orbits)
        assert orbits.refines(regular)


class TestEquivariance:
    @given(graph_with_permutation(max_n=6))
    @settings(max_examples=60)
    def test_partitions_relabel_with_the_graph(self, case):
        g, perm = case
        h = apply_permutation(g, perm)
        for oracle in (structural_classes, automorphic_orbits, regular_refinement):
            p_g = oracle(g)
            p_h = oracle(h)
            relabeled = [None] * g.n
            for u in range(g.n):
                relabeled[perm[u]] = p_g.assignment[u]
            assert NodePartition.from_labels(relabeled).classes == p_h.classes
