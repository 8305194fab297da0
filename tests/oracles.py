"""Independent references for learn_features, shared by the unit and
acceptance suites: the all-at-once round, its prune below lambda = 1, the
rank rule written out and the equitable partition its rows are constant on."""

import itertools

import numpy as np

from rolemine import (
    DEFAULT_PRIMITIVES,
    FeatureDescriptor,
    FeatureLearnConfig,
    FeatureMatrix,
    compute_primitive,
)
from rolemine import features as features_module
from rolemine.features import _aggregate_slots, _degree_groups, log_bin_rows


def aggregate_rows(g, rows, ops, in_sequence):
    """Every op of the library kernel over each node's neighbors, for every
    feature row of rows (f x n); ops are not checked."""
    return _aggregate_slots(g.n, _degree_groups(*g.csr[:2]), rows, ops, in_sequence)


def equitable_partition(g):
    """Colour refinement from the default primitives' rows: each round
    splits nodes by their class and their count of neighbors in each class,
    until no class splits. The result Q is the coarsest equitable partition
    that refines the primitives' rows. Returns a class id per node."""
    rows = np.column_stack([compute_primitive(g, kind) for kind in DEFAULT_PRIMITIVES])
    labels = np.unique(rows, axis=0, return_inverse=True)[1].ravel()
    src, dst = np.concatenate([g.edges, g.edges[:, ::-1]]).T
    while True:
        counts = np.zeros((g.n, labels.max() + 1), dtype=np.int64)
        np.add.at(counts, (src, labels[dst]), 1)
        keys = np.column_stack([labels, counts])
        refined = np.unique(keys, axis=0, return_inverse=True)[1].ravel()
        if refined.max() == labels.max():
            return refined
        labels = refined


def normalized_singular_values(columns):
    """Singular values of a node-by-feature matrix after scaling each
    nonzero column to maximum 1, and the tolerance np.linalg.matrix_rank
    would use on it: sigma_1 max(n, f) eps."""
    columns = np.asarray(columns, dtype=float)
    top = columns.max(axis=0)
    scaled = columns[:, top > 0] / top[top > 0]
    s = np.linalg.svd(scaled, compute_uv=False) if scaled.size else np.zeros(0)
    tol = (s[0] if s.size else 0.0) * max(columns.shape) * np.finfo(float).eps
    return s, tol


def has_full_row_rank(columns):
    """The rank rule: n >= 1 nodes, f >= n features, and n singular values
    above the tolerance."""
    n, f = np.shape(columns)
    if n == 0 or f < n:
        return False
    s, tol = normalized_singular_values(columns)
    return s.size == n and s[-1] > tol


def truncated_at_full_rank(x):
    """A learn at threshold 1.0 run without the rank rule, cut after its
    first round whose survivors, a prefix of its columns, have rank n."""
    for t, f in enumerate(x.iteration_sizes):
        if has_full_row_rank(x.values[:, :f]):
            return FeatureMatrix(
                x.values[:, :f], x.descriptors[:f], x.iteration_sizes[: t + 1], "rank"
            )
    return x


def agreement(a, b):
    """The share of nodes on which bin rows a and b agree."""
    return (a == b).mean()


def pairwise_feature_graph(bins, lam):
    """The all-pairs feature graph that the prune below lambda = 1 replaced,
    kept as an oracle: edge (i, j), i < j, carries the agreement of bin rows
    i and j and exists iff it is at least lam."""
    edges = {}
    for i, j in itertools.combinations(range(len(bins)), 2):
        sim = agreement(bins[i], bins[j])
        if sim >= lam:
            edges[(i, j)] = sim
    return edges


def earliest_per_component(f, edges):
    """Smallest vertex of each connected component, by min-label propagation."""
    label = list(range(f))
    changed = True
    while changed:
        changed = False
        for i, j in edges:
            low = min(label[i], label[j])
            if label[i] != low or label[j] != low:
                label[i] = label[j] = low
                changed = True
    return sorted(set(label))


def with_bases(by_id, kept):
    """kept ids plus the base of every kept composite, repeated until no
    base joins."""
    while True:
        bases = {by_id[i].base for i in kept if by_id[i].kind == "composite"}
        if bases <= kept:
            return kept
        kept = kept | bases


def all_at_once_learn(g, config=FeatureLearnConfig(), rank_stop=True):
    """learn_features as it was before rounds streamed their candidates:
    every candidate of a round is aggregated, binned and pruned at once.
    Kept as an oracle for the streamed loop; rank_stop=False runs it as it
    was before the rank rule, to maxiter or a fixed point."""
    features_module._check_config(config)
    primitives = config.primitives
    cache = {}
    columns = [compute_primitive(g, kind, cache) for kind in primitives]
    cand_descs = [
        FeatureDescriptor(id=j, kind="primitive", primitive=kind) for j, kind in enumerate(primitives)
    ]
    all_by_id = {d.id: d for d in cand_descs}
    next_id = len(cand_descs)
    rows = np.zeros((0, g.n))
    bins = log_bin_rows(rows, config.bin_fraction)
    descriptors = []
    seen = set()

    def prune(cand_rows, cands):
        nonlocal rows, bins, descriptors
        cand_bins = log_bin_rows(cand_rows, config.bin_fraction)
        if config.threshold == 1.0 or g.n == 0:
            keep = []
            for j, b in enumerate(cand_bins):
                if b.tobytes() not in seen:
                    seen.add(b.tobytes())
                    keep.append(j)
            rows = np.concatenate([rows, cand_rows[keep]])
            descriptors = descriptors + [cands[j] for j in keep]
            return
        rows = np.concatenate([rows, cand_rows])
        bins = np.concatenate([bins, cand_bins])
        descriptors = descriptors + cands
        roots = earliest_per_component(len(bins), pairwise_feature_graph(bins, config.threshold))
        kept = with_bases(all_by_id, {descriptors[j].id for j in roots})
        idx = [j for j, d in enumerate(descriptors) if d.id in kept]
        rows, bins, descriptors = rows[idx], bins[idx], [descriptors[j] for j in idx]

    def result(stopped):
        return FeatureMatrix(np.ascontiguousarray(rows.T), tuple(descriptors), tuple(sizes), stopped)

    prune(np.array(columns).reshape(len(columns), g.n), cand_descs)
    sizes = [len(descriptors)]
    if rank_stop and has_full_row_rank(rows.T):
        return result("rank")
    for iteration in range(1, config.maxiter + 1):
        prior_ids = {d.id for d in descriptors}
        cands = []
        for op in config.operators:
            for d in descriptors:
                cands.append(FeatureDescriptor(
                    id=next_id, kind="composite", operator=op, base=d.id, iteration=iteration
                ))
                all_by_id[next_id] = cands[-1]
                next_id += 1
        aggregated = aggregate_rows(g, rows, config.operators, len(rows) > 1)
        prune(np.concatenate([rows[:0], *aggregated]), cands)
        sizes.append(len(descriptors))
        if {d.id for d in descriptors} == prior_ids:
            return result("fixed-point")
        if rank_stop and has_full_row_rank(rows.T):
            return result("rank")
    return result("maxiter")
