"""Recursive structural feature learning with redundancy pruning.

Primitives (degree, wedge, triangle, egonet, core) seed the feature set;
neighbor-aggregation operators grow it one round at a time. Every new column
is vertically log-binned once, when it is made. A column survives unless
its bin vector equals that of an earlier column (a group-by on the bin
bytes); below the default agreement threshold of 1.0 the components of the
>= lambda agreement graph over what is left then keep their earliest member.
Descriptors record how to rebuild every surviving column on any other graph.

A round streams its candidates: survivor columns go through in blocks, and
each block is aggregated (every operator off one shared sort), binned and
checked against the bin vectors already seen, so only the columns that may
survive outlive their block. The stash is resolved in candidate-id order, so
the group-by keeps the same columns as a prune over the whole round. The
survivors grow in place, one feature per row, and the returned matrix is a
view of them; a round holds the survivors, one candidate block and the kept
columns, not the whole candidate set.

Growth also stops once a round's survivors have numerical rank n, the node
count: every later candidate is then a linear combination of them, which a
low-rank factorization of the features cannot use.

Everything runs on the graph's CSR arrays. Aggregations sort each node's
neighbor values once and every operator, mode included, reduces them sorted,
so equal value multisets produce bitwise-equal results; feature rows of
automorphically equivalent nodes are therefore exactly equal, not merely
close.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .graph import Graph

PRIMITIVE_KINDS = DEFAULT_PRIMITIVES = (
    "degree",
    "weighted-degree",
    "wedge-count",
    "triangle-count",
    "egonet-internal-edges",
    "egonet-external-edges",
    "core-number",
)
OPERATOR_KINDS = ("sum", "mean", "max", "min", "mode")
DEFAULT_OPERATORS = ("sum", "mean")


def _check_count(name: str, value, least: int = 0) -> None:
    """Reject a value that is not an int >= least. A bool is refused too,
    though True == 1: JSON would write it as true."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class FeatureDescriptor:
    """Reproducible recipe for one feature column.

    kind "primitive" names a structural primitive; "composite" applies an
    aggregation operator to the column of an earlier descriptor (base id).
    """

    id: int
    kind: str
    primitive: str | None = None
    operator: str | None = None
    base: int | None = None
    iteration: int = 0

    def __post_init__(self):
        _check_count("descriptor id", self.id)
        _check_count("descriptor iteration", self.iteration)
        if self.base is not None:
            _check_count("descriptor base", self.base)
        if self.kind == "primitive":
            if self.primitive not in PRIMITIVE_KINDS:
                raise ValueError(f"unknown primitive {self.primitive!r}")
            if (self.operator, self.base, self.iteration) != (None, None, 0):
                raise ValueError("a primitive descriptor has no operator or base, and iteration 0")
        elif self.kind == "composite":
            if self.primitive is not None:
                raise ValueError("a composite descriptor has no primitive")
            if self.operator not in OPERATOR_KINDS:
                raise ValueError(f"unknown operator {self.operator!r}")
            if self.base is None or self.base >= self.id:
                raise ValueError("composite base id must precede its own id")
        else:
            raise ValueError(f"unknown descriptor kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Non-negative node-by-feature values plus the recipes that made them.

    iteration_sizes records the surviving feature count after each pruning
    round when produced by learn_features (index 0 = pruned primitives), and
    stopped why its loop ended: "fixed-point", "rank" or "maxiter".
    """

    values: np.ndarray
    descriptors: tuple[FeatureDescriptor, ...]
    iteration_sizes: tuple[int, ...] | None = None
    stopped: str | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be a 2-d array")
        if values.shape[1] != len(self.descriptors):
            raise ValueError("one descriptor per column required")
        if values.size and (not np.isfinite(values).all() or (values < 0).any()):
            raise ValueError("feature values must be finite and non-negative")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "descriptors", tuple(self.descriptors))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def f(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FeatureLearnConfig:
    primitives: tuple[str, ...] = DEFAULT_PRIMITIVES
    operators: tuple[str, ...] = DEFAULT_OPERATORS
    bin_fraction: float = 0.5
    threshold: float = 1.0
    maxiter: int = 10


# Elements in one temporary block of binning or aggregation, and in one
# block of a round's candidates; bounds memory.
_BLOCK_ELEMENTS = 1 << 17


def _check_fraction(p: float) -> None:
    if not 0 < p < 1:
        raise ValueError("bin fraction p must lie strictly between 0 and 1")


def _check_threshold(lam: float) -> None:
    if not 0 < lam <= 1:
        raise ValueError("lambda threshold must lie in (0, 1]")


def _check_primitive(kind: str) -> None:
    if kind not in PRIMITIVE_KINDS:
        raise ValueError(f"unknown primitive {kind!r}")


def _triangle_counts(g: Graph) -> np.ndarray:
    """Triangles at each node.

    Every edge points from its endpoint of lower (degree, id) rank to the
    higher one, so each triangle is found once, at its lowest corner, as an
    adjacent pair of forward neighbors; forward lists stay short at hubs.
    """
    indptr, indices, _ = g.csr
    n = g.n
    deg = np.diff(indptr)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
    src = np.repeat(np.arange(n), deg)
    forward = rank[indices] > rank[src]
    head = indices[forward]
    fdeg = np.bincount(src[forward], minlength=n)
    fptr = np.concatenate([[0], np.cumsum(fdeg)])
    keys = src * n + indices  # ascending, one per adjacent ordered pair
    tri = np.zeros(n)
    for d in np.unique(fdeg[fdeg > 1]):
        a_pos, b_pos = np.triu_indices(d, 1)
        nodes = np.flatnonzero(fdeg == d)
        step = max(1, _BLOCK_ELEMENTS // a_pos.size)
        for lo in range(0, nodes.size, step):
            chunk = nodes[lo : lo + step]
            fw = head[fptr[chunk][:, None] + np.arange(d)]
            a, b = fw[:, a_pos], fw[:, b_pos]
            q = a * n + b
            hit = keys[np.minimum(np.searchsorted(keys, q), keys.size - 1)] == q
            corner = np.broadcast_to(chunk[:, None], q.shape)[hit]
            tri += np.bincount(np.concatenate([corner, a[hit], b[hit]]), minlength=n)
    return tri


def _core_numbers(g: Graph) -> np.ndarray:
    """Batagelj-Zaversnik bucket peel (arXiv cs/0310049), O(n + m).

    Nodes sit in an array ordered by current degree; removing the node of
    least degree moves each higher-degree neighbor one bucket down by a swap.
    """
    indptr, indices, _ = g.csr
    ptr, nbrs = indptr.tolist(), indices.tolist()
    deg = np.diff(indptr)
    vert = np.argsort(deg, kind="stable").tolist()
    pos = [0] * g.n
    for i, v in enumerate(vert):
        pos[v] = i
    start = np.concatenate([[0], np.cumsum(np.bincount(deg))]).tolist()  # bucket heads
    deg = deg.tolist()
    for i in range(g.n):
        v = vert[i]
        for u in nbrs[ptr[v] : ptr[v + 1]]:
            du = deg[u]
            if du > deg[v]:
                pu, pw = pos[u], start[du]
                w = vert[pw]
                vert[pu], vert[pw] = w, u
                pos[u], pos[w] = pw, pu
                start[du] += 1
                deg[u] = du - 1
    return np.array(deg, dtype=float)


def compute_primitive(g: Graph, kind: str, cache: dict | None = None) -> np.ndarray:
    """Evaluate a structural primitive at every node.

    All values are non-negative and depend only on the graph up to
    relabeling. cache, when given, keeps triangle counts between calls on
    the same graph.
    """
    _check_primitive(kind)
    indptr, indices, weights = g.csr
    deg = np.diff(indptr).astype(float)
    if kind == "degree":
        return deg
    if kind == "weighted-degree":
        # summed like a lone column: sorted, then numpy's pairwise sum
        groups = _degree_groups(indptr, np.arange(indices.size))
        return _aggregate_slots(g.n, groups, weights[None, :], ("sum",), False)[0][0]
    if kind == "wedge-count":
        return deg * (deg - 1) / 2.0
    if kind == "core-number":
        return _core_numbers(g)
    if cache is None:
        cache = {}
    if "triangles" not in cache:
        cache["triangles"] = _triangle_counts(g)
    triangles = cache["triangles"]
    if kind == "triangle-count":
        return triangles
    # edges inside ego(u) = u's incident edges plus edges between neighbors;
    # the latter equal the triangle count at u
    internal = deg + triangles
    if kind == "egonet-internal-edges":
        return internal
    ego_degree_sum = deg + np.bincount(
        np.repeat(np.arange(g.n), np.diff(indptr)), weights=deg[indices], minlength=g.n
    )
    return ego_degree_sum - 2.0 * internal


def _degree_groups(indptr, slot_rows) -> list[tuple[np.ndarray, np.ndarray]]:
    """Nodes bucketed by degree: for each degree d > 0, the nodes of that
    degree and their (nodes x d) slot ids slot_rows[indptr[u]:indptr[u + 1]]."""
    deg = np.diff(indptr)
    order = np.argsort(deg, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(deg[order])) + 1) if order.size else []
    return [
        (nodes, slot_rows[indptr[nodes][:, None] + np.arange(deg[nodes[0]])])
        for nodes in groups
        if deg[nodes[0]]
    ]


def _sorted_mode(v: np.ndarray) -> np.ndarray:
    """Most frequent floored value along the last axis of v, whose values
    are sorted ascending; a tie goes to the earliest run, the smallest
    value. Flooring keeps them sorted, so equal values form runs."""
    v = np.floor(v)
    slot = np.arange(v.shape[-1])
    opens = np.ones(v.shape, dtype=bool)  # a run of equal values opens here
    opens[..., 1:] = v[..., 1:] != v[..., :-1]
    # slots before this one in its run; the first maximum ends the earliest longest run
    run = slot - np.maximum.accumulate(np.where(opens, slot, 0), axis=-1)
    return np.take_along_axis(v, run.argmax(axis=-1)[..., None], -1)[..., 0]


def _aggregate_slots(n, groups, rows, ops, in_sequence):
    """Reduce each row of rows (f x slots) over every node's slots in groups
    (see _degree_groups), per op; returns one (f x n) array per op, with 0
    at a node in no group. Callers check ops: any op not named is mode.

    Each node's values are sorted ascending once, for every op. Sums match
    np.sort(block, axis=0).sum(axis=0) on a node's (degree x f) block bit
    for bit when in_sequence says how numpy would add it: in sequence when
    f > 1, pairwise for a lone column. Rows go through in blocks.
    """
    f = rows.shape[0]
    outs = [np.zeros((f, n)) for _ in ops]
    for nodes, slots in groups:
        d = slots.shape[1]
        step = max(1, _BLOCK_ELEMENTS // slots.size)
        for lo in range(0, f, step):
            v = rows[lo : lo + step][:, slots]  # (rows, nodes, d)
            v.sort(axis=-1)
            if in_sequence:
                total = v[..., 0].copy()
                for k in range(1, d):
                    total += v[..., k]
            else:
                total = v.sum(axis=-1)
            for op, out in zip(ops, outs):
                block = out[lo : lo + step]
                if op == "sum":
                    block[:, nodes] = total
                elif op == "mean":
                    block[:, nodes] = total / d
                elif op == "max":
                    block[:, nodes] = v[..., -1]
                elif op == "min":
                    block[:, nodes] = v[..., 0]
                else:
                    block[:, nodes] = _sorted_mode(v)
    return outs


def log_bin_rows(rows, p: float = 0.5) -> np.ndarray:
    """Vertical log bins of every row of rows (one feature per row, f x n).

    Each successive bin of a row takes the ceil(p * remaining) smallest of
    its values; values tying a bin's top value join it, so equal values
    never split across bins. Each row is sorted once, then the bin
    boundaries (about log n of them) are walked for all rows together; a
    value's bin is the number of bins whose top value it exceeds. Rows go
    through in blocks to bound the temporaries.
    """
    _check_fraction(p)
    rows = np.asarray(rows, dtype=float)
    f, n = rows.shape
    # last[i]: the sorted position a bin starting at position i must reach to
    # hold ceil(p * (n - i)) values; last[n] = n - 1
    last = np.arange(n + 1) + np.ceil(p * np.arange(n, -1, -1)).astype(np.int64) - 1
    # a row without ties has the most bins, the length of the chain from 0;
    # a tie only moves a cut later, and last never decreases
    count, cut = 0, 0
    while cut < n:
        count, cut = count + 1, int(last[cut]) + 1
    bins = np.zeros((f, n), dtype=np.min_scalar_type(count))
    if n == 0:
        return bins
    step = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(0, f, step):
        block, out = rows[lo : lo + step], bins[lo : lo + step]
        lanes = np.arange(block.shape[0])
        ranked = np.sort(block, axis=1)
        # end[r, t]: one past the last sorted position tying with position t,
        # so ties at the top of a bin join it
        end = np.full(ranked.shape, n, dtype=np.int64)
        end[:, :-1] = np.where(ranked[:, 1:] != ranked[:, :-1], np.arange(1, n), n)
        end = np.minimum.accumulate(end[:, ::-1], axis=1)[:, ::-1]
        cut = np.zeros(lanes.size, dtype=np.int64)  # where each row's next bin starts
        while True:
            top = last[cut]
            cut = end[lanes, top]
            if cut.min() == n:
                break
            # a row past its last bin sits at its maximum and gains nothing
            out += block > ranked[lanes, top][:, None]
    return bins


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        self.parent[max(ra, rb)] = min(ra, rb)


def _agreement_roots(bins: np.ndarray, lam: float) -> list[int]:
    """Rows of bins (f x n, n > 0) that survive a prune below threshold 1.0:
    each connected component of the graph joining rows whose bins agree on
    at least lam of the nodes keeps its earliest row. Agreement is computed
    in blocks of rows to bound memory at O(n * block * f)."""
    uf = _UnionFind(len(bins))
    step = max(1, (1 << 24) // bins.size)
    for lo in range(0, len(bins), step):
        agree = (bins[lo : lo + step, None, :] == bins[None, :, :]).mean(axis=2)
        ii, jj = np.nonzero(agree >= lam)
        for i, j in zip((ii + lo).tolist(), jj.tolist()):
            uf.union(i, j)
    return [j for j in range(len(bins)) if uf.find(j) == j]


def _required_ancestors(descriptors_by_id: dict[int, FeatureDescriptor], kept: set[int]) -> set[int]:
    needed = set()
    stack = list(kept)
    while stack:
        d = descriptors_by_id[stack.pop()]
        if d.kind == "composite" and d.base not in kept and d.base not in needed:
            needed.add(d.base)
            stack.append(d.base)
    return needed


def _spans_nodes(rows: np.ndarray) -> bool:
    """Whether the survivors (one feature per row, f x n) have numerical rank
    n >= 1: the singular values of the column-max-normalized features
    against np.linalg.matrix_rank's default tolerance, sigma_1 max(n, f) eps.
    Run only when f >= n, as fewer features cannot reach rank n."""
    f, n = rows.shape
    if n == 0 or f < n:
        return False
    top = rows.max(axis=1, keepdims=True)
    return np.linalg.matrix_rank(rows / np.where(top > 0, top, 1.0)) == n


def _check_config(config: FeatureLearnConfig) -> None:
    """Check config before any feature is computed."""
    if config.maxiter < 1:
        raise ValueError("maxiter must be >= 1")
    if not config.primitives:
        raise ValueError("primitive set must not be empty")
    _check_fraction(config.bin_fraction)
    _check_threshold(config.threshold)
    for op in config.operators:
        if op not in OPERATOR_KINDS:
            raise ValueError(f"unknown operator {op!r}")
    for kind in config.primitives:
        _check_primitive(kind)


def _candidate_block(g: Graph, groups, rows: np.ndarray, lo: int, hi: int, ops, p: float):
    """One block of a round's candidates: every op applied to survivor rows
    lo:hi of rows (f x n), op-major, one candidate per row.

    Returns (index, cand, bins): index is each candidate's place in the
    round's candidate-id order (op-major over all f survivors) and bins are
    cand's log bins. Sums run in sequence iff the round has more than one
    survivor, whatever the block's width, as recompute assumes.
    """
    f = rows.shape[0]
    hi = min(hi, f)
    cand = np.concatenate(_aggregate_slots(g.n, groups, rows[lo:hi], ops, f > 1))
    index = (np.arange(len(ops))[:, None] * f + np.arange(lo, hi)).ravel()
    return index, cand, log_bin_rows(cand, p)


def _unseen_candidates(blocks, seen: set[bytes]):
    """The candidates of one round whose bin vectors are not in seen, the
    earliest per bin vector, as (index, row) pairs in index order; blocks
    yields the round's candidates as (index, rows, bins) blocks (see
    _candidate_block). Their bin vectors join seen.

    The stash maps bin bytes to the earliest candidate seen so far with
    them; a later block can hold an earlier candidate, made by a lower
    operator, so it is resolved only once every block is through.
    """
    stash: dict[bytes, tuple[int, np.ndarray]] = {}
    for index, cand, bins in blocks:
        picked: dict[bytes, tuple[int, int]] = {}  # a block runs in index order
        for pos, (i, b) in enumerate(zip(index.tolist(), bins)):
            key = b.tobytes()
            if key in seen or key in picked or (key in stash and stash[key][0] < i):
                continue
            picked[key] = (i, pos)
        kept = cand[[pos for _, pos in picked.values()]]  # a copy, so cand can go
        for r, (key, (i, _)) in enumerate(picked.items()):
            stash[key] = (i, kept[r])
        del cand, bins, kept  # before the next block is made
    seen.update(stash)
    return sorted(stash.values(), key=lambda entry: entry[0])


def learn_features(g: Graph, config: FeatureLearnConfig = FeatureLearnConfig()) -> FeatureMatrix:
    """Run the recursive feature-learning loop.

    Round 0's candidates are the primitives; a later round's are every
    operator applied to every surviving feature. At threshold 1.0 a round
    after round 1 aggregates only the survivors the previous round added,
    unless that round had one survivor and summed pairwise: the older
    survivors' candidates would have the same bits, all already seen.
    Every round prunes its candidates against the survivors the same way.
    The loop stops, and the result's stopped says why, at the first of: a
    round that leaves the survivors as they were ("fixed-point"); a round
    whose f >= n survivors have numerical rank n ("rank"; see _spans_nodes),
    past which every candidate is a linear combination of them; or the
    maxiter cap on the rounds after round 0 ("maxiter"). The rank stop only
    truncates: the result is the uncapped run's first rounds, bit for bit.

    Every column is binned once, when it is made. A column survives unless
    its bin vector equals that of an earlier column; the candidates stream
    through in survivor blocks and only the unseen ones are kept until the
    round ends. Below threshold 1.0 the components of the >= threshold
    agreement graph over the survivors and those unseen candidates then
    keep their earliest member; a pruned old feature could orphan the
    recipe of a surviving composite, so such ancestors are re-protected
    after each prune and every returned descriptor list stays evaluable via
    recompute.

    The returned values are column-major: each feature's column is
    contiguous, as the survivors are grown in place.
    """
    _check_config(config)
    cache: dict = {}
    columns = np.array([compute_primitive(g, kind, cache) for kind in config.primitives])
    first = [
        FeatureDescriptor(id=j, kind="primitive", primitive=kind)
        for j, kind in enumerate(config.primitives)
    ]
    ops, p = config.operators, config.bin_fraction
    groups = _degree_groups(*g.csr[:2])
    # survivor rows per candidate block: a block holds about _BLOCK_ELEMENTS
    width = max(1, _BLOCK_ELEMENTS // max(g.n * len(ops), 1))
    rows = np.zeros((0, g.n))  # the survivors, one feature per row
    seen: set[bytes] = set()  # bin vectors of the survivors
    descriptors: list[FeatureDescriptor] = []
    next_id = 0
    sizes = []
    stopped = "maxiter"
    start = 0  # survivors below start gave their candidates last round

    for iteration in range(config.maxiter + 1):
        f = len(descriptors)
        if iteration == 0:
            count, describe = len(first), first.__getitem__
            blocks = [(np.arange(count), columns, log_bin_rows(columns, p))]
        else:
            count = len(ops) * f
            # lazy: each block reads rows, which must not change until all are made
            blocks = (
                _candidate_block(g, groups, rows, lo, lo + width, ops, p)
                for lo in range(start, f if ops else 0, width)
            )

            def describe(i: int) -> FeatureDescriptor:
                return FeatureDescriptor(
                    id=next_id + i,
                    kind="composite",
                    operator=ops[i // f],
                    base=descriptors[i % f].id,
                    iteration=iteration,
                )

        prior_ids = [d.id for d in descriptors]
        new = _unseen_candidates(blocks, seen)
        # rows owns its buffer and no view of it outlived the round, so it
        # can grow where it lies
        rows.resize((f + len(new), g.n), refcheck=False)
        for r, (_, row) in enumerate(new):
            rows[f + r] = row
        descriptors += [describe(i) for i, _ in new]
        del new  # the stashed rows, before a prune or a rank check copies the survivors
        if config.threshold < 1.0 and g.n:  # empty columns agree vacuously
            # a candidate dropped above agrees with every row as its earlier
            # twin does, so it would have changed no component and no root
            bins = log_bin_rows(rows, p)
            kept = {descriptors[j].id for j in _agreement_roots(bins, config.threshold)}
            kept |= _required_ancestors({d.id: d for d in descriptors}, kept)
            idx = [j for j, d in enumerate(descriptors) if d.id in kept]
            rows, descriptors = rows[idx], [descriptors[j] for j in idx]
            seen = {b.tobytes() for b in bins[idx]}
        next_id += count
        start = f if config.threshold == 1.0 and f > 1 else 0
        sizes.append(len(descriptors))
        changed = [d.id for d in descriptors] != prior_ids
        if not changed or _spans_nodes(rows):
            stopped = "rank" if changed else "fixed-point"
            break

    return FeatureMatrix(rows.T, tuple(descriptors), tuple(sizes), stopped)


def recompute(g: Graph, descriptors) -> FeatureMatrix:
    """Evaluate a descriptor list on a graph, in id order, with no pruning.

    Composite bases must appear earlier in the list (malformed DAGs are
    rejected).

    Values equal learn_features' bit for bit: a composite of iteration t
    was made in round t, whose survivors were the descriptors with an
    earlier iteration, and that round sums in sequence when it has more
    than one survivor, so its base is summed the same way here.
    """
    descriptors = tuple(descriptors)
    iterations = np.sort([d.iteration for d in descriptors])
    values: dict[int, np.ndarray] = {}
    cache: dict = {}
    groups = None
    last_id = -1
    for d in descriptors:
        if d.id <= last_id:
            raise ValueError("descriptor ids must be strictly increasing")
        last_id = d.id
        if d.kind == "primitive":
            col = compute_primitive(g, d.primitive, cache)
        else:
            if d.base not in values:
                raise ValueError(f"descriptor {d.id} references missing base {d.base}")
            if groups is None:
                groups = _degree_groups(*g.csr[:2])
            width = np.searchsorted(iterations, d.iteration)
            col = _aggregate_slots(g.n, groups, values[d.base][None], (d.operator,), width > 1)[0][0]
        values[d.id] = col
    return FeatureMatrix(
        values=np.column_stack(list(values.values())) if values else np.zeros((g.n, 0)),
        descriptors=descriptors,
    )


def descriptors_to_json(descriptors) -> str:
    """One JSON object per descriptor: its fields, in field order. vars, not
    dataclasses.asdict, which deep-copies every value: on 551 descriptors
    (2-vCPU VM) asdict took 11.6 ms and vars 4.3 ms."""
    return json.dumps([vars(d) for d in descriptors], indent=2) + "\n"


def descriptors_from_json(text: str) -> tuple[FeatureDescriptor, ...]:
    """The inverse of descriptors_to_json; a row with a key that is not a
    field is refused."""
    return tuple(FeatureDescriptor(**row) for row in json.loads(text))


def _byte_rows(x: np.ndarray) -> np.ndarray:
    """The rows of the 2-d x, at least one column wide, as one void scalar
    each, so that np.unique compares rows as bytes: -0.0 and 0.0 differ."""
    x = np.ascontiguousarray(x)
    return x.view(np.dtype((np.void, x.itemsize * x.shape[1]))).ravel()


def _row_texts(x: np.ndarray, sep: str) -> list[str]:
    """sep.join of the repr of each value, for each row of the 2-d float
    array x. Each distinct row is formatted once; equal bytes give equal
    text."""
    if not x.shape[1]:
        return [""] * len(x)
    _, first, inverse = np.unique(_byte_rows(x), return_index=True, return_inverse=True)
    texts = [sep.join(map(repr, row)) for row in x[first].tolist()]
    return [texts[i] for i in inverse.tolist()]


def csv_rows(x: np.ndarray, node: int = 0, prefix: str = "") -> str:
    """The row format of every matrix CSV: a CSV line for each row of the
    2-d float array x, its node id, counted from node and after prefix,
    then its values as repr floats."""
    comma = "," if x.shape[1] else ""
    return "".join([f"{prefix}{u}{comma}{text}\n" for u, text in enumerate(_row_texts(x, ","), node)])


# features.csv rows go to forked children in parts of at least this many
# values, so a second part starts at 2**17, the measured break-even. On 2
# vCPUs, one write per fresh process, 10-12 alternating pairs per size, rows
# of the perfbench er-deep-features matrices (seeds 1, 2), median ms of two
# parts against one: 83/74 at 65450 values, 144/133 at 114304, 114/150 at
# 131271, 116/185 at 163419, 222/414 at 340000. Two parts won 0-3 pairs up
# to 114304 values and 8-12 from 130900 up. Below that the fork's fixed cost
# (about 9 ms more than one part at 4250 values) and a child that starts on
# its parent's CPU outweigh the halved formatting.
_VALUES_PER_WORKER = 1 << 16


def _cpu_count() -> int:
    """CPUs this process may run on, or 1 where it cannot fork: every
    process rolemine starts is forked."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _write_rows(values: np.ndarray, lo: int, hi: int, out) -> None:
    """CSV lines of rows lo:hi of values to the text file out, in blocks of
    about 2**16 values, then flushed: a forked child leaves through
    os._exit, which flushes nothing."""
    step = max(1, (1 << 16) // max(values.shape[1], 1))
    for a in range(lo, hi, step):
        out.write(csv_rows(values[a : min(a + step, hi)], a))
    out.flush()


def features_to_csv(x: FeatureMatrix, out) -> None:
    """features.csv: a node,feat_0,... header, then one line per node with
    repr floats, streamed to the text file out in row blocks.

    A matrix of n*f values is cut into up to min(CPUs, n*f // 2**16)
    contiguous row parts, so a second part starts at 2**17 values. This
    process formats the first; each other part is formatted by a forked
    child, which reads x copy-on-write, into a temporary file opened before
    the fork. The files are appended in row
    order, so the bytes do not depend on the number of parts. An unfinished
    child is killed and joined when the write ends early."""
    out.write(",".join(["node"] + [f"feat_{j}" for j in range(x.f)]) + "\n")
    parts = max(1, min(_cpu_count(), x.n * x.f // _VALUES_PER_WORKER))
    bounds = [x.n * i // parts for i in range(parts + 1)]
    with ExitStack() as stack:
        children = []
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            output = stack.enter_context(tempfile.TemporaryFile("w+", encoding="ascii"))
            child = multiprocessing.get_context("fork").Process(
                target=_write_rows, args=(x.values, lo, hi, output)
            )
            child.start()
            stack.callback(child.join)
            stack.callback(child.kill)  # runs first; does nothing once the child has been joined
            children.append((child, output))
        _write_rows(x.values, 0, bounds[1], out)
        for child, output in children:
            child.join()
            if child.exitcode != 0:
                raise RuntimeError(f"features.csv worker exited with code {child.exitcode}")
            output.seek(0)
            shutil.copyfileobj(output, out, 1 << 20)


# every character of a features.csv row: node ids, repr of finite floats,
# commas and line breaks
_ROW_BYTES = b"0123456789.e+-,\r\n"


def features_from_csv(text: str) -> np.ndarray:
    """Parse features.csv as features_to_csv writes it: row i is node i and
    its values, each a finite non-negative float. Anything else, or a file
    without rows or feature columns, raises ValueError."""
    header, *lines = text.splitlines() or [""]
    names = header.split(",")
    if names[0] != "node" or len(names) < 2:
        raise ValueError("expected a 'node,feat_0,...' header row")
    if text[len(header):].encode().translate(None, _ROW_BYTES):
        raise ValueError("a row holds a character that features_to_csv never writes")
    data = np.empty((len(lines), len(names) - 1))
    i = 0
    for row in (line.split(",") for line in lines if line):
        if len(row) != len(names):
            raise ValueError(f"row {i} has {len(row)} columns; the header has {len(names)}")
        if row[0] != str(i):
            raise ValueError(f"row {i} has node id {row[0]!r}, expected {i}")
        data[i] = row[1:]  # float() of each value, bit for bit
        i += 1
    if not i:
        raise ValueError("no node rows")
    bad = np.argwhere(~(np.isfinite(data[:i]) & (data[:i] >= 0)))
    if bad.size:
        r, c = bad[0]
        raise ValueError(f"row {r}, column {names[c + 1]}: {data[r, c]} is not finite and non-negative")
    return data[:i]
