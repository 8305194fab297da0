import numpy as np
import pytest

from rolemine import erdos_renyi, planted_role_graph


def scalar_erdos_renyi(n, p, seed):
    """The per-pair loop the row-at-a-time generator replaced, kept as an
    oracle: one draw per candidate pair, in row-major order."""
    rng = np.random.default_rng(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append([u, v])
    return edges


class TestErdosRenyi:
    @pytest.mark.parametrize(
        "n, p, seed",
        [(1, 0.5, 1), (2, 1.0, 2), (3, 0.0, 7), (7, 0.5, 7), (40, 8 / 39, 1), (150, 0.05, 2)],
    )
    def test_same_edges_as_the_scalar_loop(self, n, p, seed):
        g = erdos_renyi(n, p, seed=seed)
        assert g.n == n
        assert g.edges.tolist() == scalar_erdos_renyi(n, p, seed)

    def test_bad_arguments_rejected(self):
        # True ran as n = 1 or seed 1; 5.5, 1.5 and "3" failed as a raw TypeError
        for n, p, seed in ((0, 0.5, 1), (3, 1.5, 1), (True, 0.5, 1), (5.5, 0.5, 1),
                           (3, 0.5, True), (3, 0.5, 1.5), (3, 0.5, "3"), (3, 0.5, -1)):
            with pytest.raises(ValueError):
                erdos_renyi(n, p, seed=seed)


class TestPlantedRoleGraph:
    # True ran as one unit and 2.5 failed as a raw TypeError
    @pytest.mark.parametrize("units", [0, True, 2.5])
    def test_units_must_be_a_positive_integer(self, units):
        with pytest.raises(ValueError, match="units"):
            planted_role_graph(seed=1, units=units)

    # True ran as seed 1; 1.5 and "3" failed as a raw TypeError
    @pytest.mark.parametrize("seed", [True, 1.5, "3", -1])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            planted_role_graph(seed=seed, units=1)

    def test_labels_are_an_int64_array_matching_each_roles_degree(self):
        # clique member 5 + 1 bridge, center 6 leaves + 6 bridges, leaf 1, bridge 2
        g, labels = planted_role_graph(seed=4, units=5)
        assert labels.dtype == np.int64 and labels.shape == (95,)
        assert np.diff(g.csr.indptr).tolist() == np.array([6, 12, 1, 2])[labels].tolist()
        assert np.bincount(labels).tolist() == [30, 5, 30, 30]
