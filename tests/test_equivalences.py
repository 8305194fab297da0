import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from rolemine import (
    AUTOMORPHISM_NODE_LIMIT,
    Graph,
    apply_permutation,
    automorphic_orbits,
    load_edge_list,
    regular_refinement,
    structural_classes,
)

from oracles import classes, refines
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
        mapped = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges}
        if mapped != edges:
            continue
        for u in range(g.n):
            ru, rv = find(u), find(perm[u])
            if ru != rv:
                labels[max(ru, rv)] = min(ru, rv)
    return np.array([find(u) for u in range(g.n)])


def regular_fixed_point(g):
    """The refinement loop regular_refinement replaced, kept as its
    reference: from one class, split classes by the set of neighbor classes
    their members see, until no class splits. Classes are numbered by
    first appearance."""
    nbrs = neighbor_lists(g)
    labels = [0] * g.n
    while True:
        sigs = [(labels[u], frozenset(labels[v] for v in nbrs[u])) for u in range(g.n)]
        number = {}
        refined = [number.setdefault(sig, len(number)) for sig in sigs]
        if refined == labels:
            return labels
        labels = refined


class TestStructural:
    def test_star_leaves_share_class(self):
        assert classes(structural_classes(S3)) == ((0,), (1, 2, 3))

    def test_triangle_strict_all_singletons(self):
        assert classes(structural_classes(K3, variant="strict")) == ((0,), (1,), (2,))

    def test_triangle_weak_one_class(self):
        assert classes(structural_classes(K3, variant="weak")) == ((0, 1, 2),)

    def test_path_ends_pair_under_both_variants(self):
        assert classes(structural_classes(P3, variant="strict")) == ((0, 2), (1,))
        assert classes(structural_classes(P3, variant="weak")) == ((0, 2), (1,))

    def test_weak_adjacent_twins(self):
        # 0 and 1 adjacent with the same other neighbors
        g = load_edge_list("0 1\n0 2\n1 2")
        weak = structural_classes(g, variant="weak")
        assert weak[0] == weak[1]

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            structural_classes(P3, variant="loose")

    @given(graphs(max_n=6))
    def test_strict_members_have_equal_neighbor_sets(self, g):
        nbrs = neighbor_lists(g)
        for cls in classes(structural_classes(g)):
            base = set(nbrs[cls[0]])
            for u in cls[1:]:
                assert set(nbrs[u]) == base


    def test_closed_twin_labels_stay_apart_from_open_ones(self):
        # node 2 has no twin; its closed-neighborhood class must not take
        # the label of the open-twin class {0, 5}
        g = Graph(n=8, edges=[(0, 1), (0, 6), (1, 4), (1, 5), (1, 7), (2, 6), (5, 6)])
        assert classes(structural_classes(g, variant="weak")) == (
            (0, 5), (1,), (2,), (3,), (4, 7), (6,))

    def test_both_variants_match_the_pairwise_relations(self):
        # seeded G(n, p) with n <= 9 and isolated nodes allowed: u and v share
        # a strict class iff N(u) = N(v), a weak one iff N(u)\{v} = N(v)\{u}
        rng = np.random.default_rng(27)
        for _ in range(2000):
            n = int(rng.integers(1, 10))
            upper = np.triu(rng.random((n, n)) < rng.random(), 1)
            g = Graph(n=n, edges=np.argwhere(upper))
            nbrs = [set(row) for row in neighbor_lists(g)]
            strict = structural_classes(g, variant="strict").tolist()
            weak = structural_classes(g, variant="weak").tolist()
            for u, v in itertools.combinations(range(n), 2):
                assert (strict[u] == strict[v]) == (nbrs[u] == nbrs[v]), (g.edges.tolist(), u, v)
                assert (weak[u] == weak[v]) == (nbrs[u] - {v} == nbrs[v] - {u}), (
                    g.edges.tolist(), u, v)


class TestAutomorphic:
    def test_cycle_is_one_orbit(self):
        assert classes(automorphic_orbits(C4)) == ((0, 1, 2, 3),)

    def test_path_of_four_pairs_ends_and_middles(self):
        assert classes(automorphic_orbits(P4)) == ((0, 3), (1, 2))

    def test_two_disjoint_edges_one_orbit(self):
        g = load_edge_list("0 1\n2 3")
        assert classes(automorphic_orbits(g)) == ((0, 1, 2, 3),)

    def test_complete_graph_one_orbit(self):
        g = load_edge_list("\n".join(f"{u} {v}" for u in range(5) for v in range(u + 1, 5)))
        assert classes(automorphic_orbits(g)) == ((0, 1, 2, 3, 4),)

    def test_size_cap_enforced(self):
        big = load_edge_list("\n".join(f"{i} {i + 1}" for i in range(AUTOMORPHISM_NODE_LIMIT)))
        assert big.n == AUTOMORPHISM_NODE_LIMIT + 1
        with pytest.raises(ValueError):
            automorphic_orbits(big)

    @given(graphs(max_n=6))
    @settings(max_examples=60)
    def test_matches_exhaustive_permutation_oracle(self, g):
        assert classes(automorphic_orbits(g)) == classes(exhaustive_orbits(g))


class TestRegular:
    def test_connected_single_class_is_fixed_point(self):
        for g in (P3, P4, P5, K3, C4, S3):
            assert classes(regular_refinement(g)) == (tuple(range(g.n)),)

    def test_isolated_node_splits_from_single_class(self):
        g = Graph(n=3, edges=[(1, 2)])
        assert classes(regular_refinement(g)) == ((0,), (1, 2))

    @given(graphs(max_n=7))
    def test_matches_the_refinement_loop(self, g):
        assert regular_refinement(g).tolist() == regular_fixed_point(g)

    @given(graphs(max_n=7))
    def test_idempotent(self, g):
        # a fixed point: one more refinement would split no class, as the
        # members of each class see equal sets of neighbor classes
        labels = regular_refinement(g).tolist()
        seen = [set() for _ in range(g.n)]
        for u, v in g.edges.tolist():
            seen[u].add(labels[v])
            seen[v].add(labels[u])
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
        assert refines(strict, orbits)
        assert refines(orbits, regular)


class TestEquivariance:
    @given(graph_with_permutation(max_n=6))
    @settings(max_examples=60)
    def test_partitions_relabel_with_the_graph(self, case):
        g, perm = case
        h = apply_permutation(g, perm)
        for oracle in (structural_classes, automorphic_orbits, regular_refinement):
            relabeled = np.empty(g.n, dtype=np.int64)
            relabeled[list(perm)] = oracle(g)
            assert classes(relabeled) == classes(oracle(h))


class TestLabels:
    def test_every_oracle_numbers_its_classes_by_first_appearance(self):
        # seeded G(n, p), n = 0..9 with isolated nodes allowed: each oracle
        # gives an int64 label per node, 0..k-1 in order of first appearance
        rng = np.random.default_rng(43)
        for i in range(300):
            n = i % 10
            upper = np.triu(rng.random((n, n)) < rng.random(), 1)
            g = Graph(n=n, edges=np.argwhere(upper))
            for labels in (structural_classes(g), structural_classes(g, variant="weak"),
                           automorphic_orbits(g), regular_refinement(g)):
                assert labels.dtype == np.int64 and labels.shape == (n,)
                seen = list(dict.fromkeys(labels.tolist()))
                assert seen == list(range(len(seen))), (g.edges.tolist(), labels)

    def test_refines_compares_classes_not_their_numbers(self):
        fine, coarse = np.array([0, 1, 2, 2]), np.array([1, 1, 0, 0])
        assert refines(fine, coarse)
        assert refines(fine, fine)
        assert not refines(coarse, fine)
