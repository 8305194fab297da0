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
        # True ran as n = 1 and 5.5 failed as a raw TypeError
        for n, p in ((0, 0.5), (3, 1.5), (True, 0.5), (5.5, 0.5)):
            with pytest.raises(ValueError):
                erdos_renyi(n, p)


class TestPlantedRoleGraph:
    # True ran as one unit and 2.5 failed as a raw TypeError
    @pytest.mark.parametrize("units", [0, True, 2.5])
    def test_units_must_be_a_positive_integer(self, units):
        with pytest.raises(ValueError, match="units"):
            planted_role_graph(seed=1, units=units)
