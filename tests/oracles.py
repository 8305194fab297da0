"""Independent references for learn_features, shared by the unit and
acceptance suites: the all-at-once round, the span rule checked by least
squares and the equitable partition its rows are constant on; and the
classes of a label array and whether one label array refines another."""

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


def aggregate_rows(g, rows, ops):
    """Every op of the library kernel over each node's neighbors, for every
    feature row of rows (f x n); ops are not checked."""
    return _aggregate_slots(g.n, _degree_groups(*g.csr[:2]), rows, ops)


def classes(labels):
    """The classes of a label array, each a sorted tuple of nodes, ordered
    by smallest member."""
    return tuple(tuple(np.flatnonzero(labels == c).tolist()) for c in dict.fromkeys(labels.tolist()))


def refines(fine, coarse):
    """Whether each class of the label array fine lies within one class of
    the label array coarse."""
    return len(np.unique(np.column_stack([fine, coarse]), axis=0)) == len(np.unique(fine))


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


def lstsq_residuals(basis, v):
    """v (one vector per row) minus its np.linalg.lstsq fit by the rows of
    basis, refined by one more solve on the residual: without it the
    residual of a vector in the span stays near eps times the condition
    number of basis, too close to _SPAN_TOL."""
    r = v
    for _ in range(2):
        r = r - np.linalg.lstsq(basis.T, r.T, rcond=None)[0].T @ basis
    return r


def span_admitted(kept, cand, ratios=None):
    """Positions of the rows of cand (one feature per row) that the span rule
    admits after kept (k x n): each row, scaled to maximum 1, is admitted iff
    its least-squares residual against the scaled kept rows and the rows
    admitted before it exceeds _SPAN_TOL times its norm. The residual is
    taken against kept first, then against the admitted rows' residuals;
    rows between two admissions share those, so they are solved together.
    ratios, when given, gets (admitted, residual over norm) per row."""
    def scaled(x):
        return x / np.maximum(x.max(axis=1, initial=0.0, keepdims=True), np.finfo(float).tiny)

    v = scaled(cand)
    norm = np.maximum(np.linalg.norm(v, axis=1), np.finfo(float).tiny)
    r = lstsq_residuals(scaled(kept), v)
    admitted, j = [], 0
    while j < len(v):
        ratio = np.linalg.norm(lstsq_residuals(r[admitted], r[j:]), axis=1) / norm[j:]
        over = np.flatnonzero(ratio > features_module._SPAN_TOL)
        stop = int(over[0]) if over.size else len(ratio)
        if ratios is not None:
            ratios += [(False, x) for x in ratio[:stop].tolist()]
            ratios += [(True, float(ratio[stop]))] if over.size else []
        if over.size:
            admitted.append(j + stop)
        j += stop + 1
    return admitted


def all_at_once_learn(g, config=FeatureLearnConfig(), span=True, ratios=None):
    """learn_features as it was before rounds streamed their candidates:
    every candidate of a round is aggregated, binned and pruned at once,
    and the span rule is checked by least squares (see span_admitted).
    Kept as an oracle for the streamed loop; span=False runs it as it was
    before the span rule, to maxiter or a fixed point."""
    features_module._check_config(config)
    primitives = config.primitives
    cache = {}
    columns = [compute_primitive(g, kind, cache) for kind in primitives]
    cand_descs = [
        FeatureDescriptor(id=j, kind="primitive", primitive=kind) for j, kind in enumerate(primitives)
    ]
    next_id = len(cand_descs)
    rows = np.zeros((0, g.n))
    descriptors = []
    seen = set()

    def prune(cand_rows, cands):
        nonlocal rows, descriptors
        keep = []
        for j, b in enumerate(log_bin_rows(cand_rows, config.bin_fraction)):
            if b.tobytes() not in seen:
                seen.add(b.tobytes())
                keep.append(j)
        if span:
            admitted = span_admitted(rows, cand_rows[keep], ratios)
            if keep and not descriptors and admitted[:1] != [0]:
                admitted.insert(0, 0)  # the first survivor, zero
            keep = [keep[j] for j in admitted]
        rows = np.concatenate([rows, cand_rows[keep]])
        descriptors = descriptors + [cands[j] for j in keep]

    def full_rank():
        # the span rule admits only independent rows, and a zero row only first
        return span and 0 < g.n == np.count_nonzero(rows.any(axis=1))

    def result(stopped):
        return FeatureMatrix(np.ascontiguousarray(rows.T), tuple(descriptors), tuple(sizes), stopped)

    prune(np.array(columns).reshape(len(columns), g.n), cand_descs)
    sizes = [len(descriptors)]
    if full_rank():
        return result("rank")
    for iteration in range(1, config.maxiter + 1):
        prior_ids = {d.id for d in descriptors}
        cands = []
        for op in config.operators:
            for d in descriptors:
                cands.append(FeatureDescriptor(
                    id=next_id, kind="composite", operator=op, base=d.id, iteration=iteration
                ))
                next_id += 1
        aggregated = aggregate_rows(g, rows, config.operators)
        prune(np.concatenate([rows[:0], *aggregated]), cands)
        sizes.append(len(descriptors))
        if {d.id for d in descriptors} == prior_ids:
            return result("fixed-point")
        if full_rank():
            return result("rank")
    return result("maxiter")
