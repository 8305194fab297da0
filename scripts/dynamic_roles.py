"""Role drift over an evolving graph.

Starts from a seeded random graph, rewires a fraction of edges per snapshot,
fits a role model on the first snapshot, and tracks memberships across the
sequence. Prints per-snapshot role mass and the estimated role-transition
matrix between the first and last snapshots; can dump series.csv and
transition.json for downstream plotting.
"""

import argparse
from pathlib import Path

import numpy as np

from rolemine import (
    Graph,
    estimate_transition_model,
    learn_features,
    erdos_renyi,
    select_rank,
    series_to_csv,
    transfer_memberships,
    transition_to_json,
)


def rewire(g: Graph, fraction: float, rng) -> Graph:
    """Replace a fraction of edges with uniformly random non-edges."""
    m = len(g.edges)
    doomed = rng.choice(m, size=int(m * fraction), replace=False)
    edges = set(map(tuple, np.delete(g.edges, doomed, axis=0).tolist()))
    while len(edges) < m:
        u, v = int(rng.integers(g.n)), int(rng.integers(g.n))
        if u == v:
            continue
        edges.add((min(u, v), max(u, v)))
    return Graph(n=g.n, edges=list(edges))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=60)
    ap.add_argument("--degree", type=float, default=6.0)
    ap.add_argument("--snapshots", type=int, default=5)
    ap.add_argument("--rewire", type=float, default=0.1, help="edge fraction replaced per step")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--output-dir", type=Path, default=None)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    snaps = [erdos_renyi(args.nodes, args.degree / (args.nodes - 1), seed=args.seed)]
    for _ in range(args.snapshots - 1):
        snaps.append(rewire(snaps[-1], args.rewire, rng))

    x = learn_features(snaps[0])
    model = select_rank(x.values, descriptors=x.descriptors)
    print(f"fit on snapshot 0: {x.f} features, r={model.r}")

    memberships = [transfer_memberships(g, model) for g in snaps]
    print("\nrole mass per snapshot (column sums of memberships):")
    for t, w in enumerate(memberships):
        mass = " ".join(f"{v:8.2f}" for v in w.sum(axis=0))
        print(f"  t={t}: {mass}")

    t_mat = estimate_transition_model(memberships[0], memberships[-1])
    print(f"\ntransition from t=0 to t={len(memberships) - 1}:")
    for row in t_mat:
        print("  " + " ".join(f"{v:6.3f}" for v in row))

    if args.output_dir is not None:
        args.output_dir.mkdir(parents=True, exist_ok=True)
        series = series_to_csv(range(len(memberships)), memberships)
        (args.output_dir / "series.csv").write_text(series)
        (args.output_dir / "transition.json").write_text(transition_to_json(t_mat))
        print(f"\nwrote series.csv and transition.json to {args.output_dir}")


if __name__ == "__main__":
    main()
