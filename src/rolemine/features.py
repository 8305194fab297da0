"""Recursive structural feature learning with redundancy pruning.

Primitives (degree, wedge, triangle, egonet, core) seed the feature set;
neighbor-aggregation operators grow it one round at a time. Every new column
is vertically log-binned once, when it is made. A column survives unless
its bin vector equals that of an earlier column (a group-by on the bin
bytes) or it lies in the span of the survivors, all that the role
factorization can use, so f <= n. Sum and mean are linear, so a dropped
column's descendants lie in the span of the survivors' own, which only the
bin group-by can lose; under max, min and mode, not linear, they could add
rank.
Descriptors record how to rebuild every surviving column on any other graph.

A round streams its candidates: survivor columns go through in blocks, and
each block is aggregated (every operator off one shared sort), binned and
checked against the bin vectors already seen, so only the columns that may
survive outlive their block. They are decided in candidate-id order, as
soon as no later block can hold an earlier one, so the group-by and the
span rule keep the same columns as a prune over the whole round. The
survivors grow in place, one feature per row, and the returned matrix is a
view of them; a round holds the survivors, a basis of their span, one
candidate block and the columns still waiting, not the whole candidate set.

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

from .graph import Graph, _check_count

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
            _check_primitive(self.primitive)
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
    maxiter: int = 10


# Elements in one temporary block of aggregation, and in one block of a
# round's candidates, which are binned whole; bounds memory.
_BLOCK_ELEMENTS = 1 << 17

# a residual at most this share of a candidate's norm lies in the span; midway (log scale)
# from rounding, up to 2.8e-13 on noisy planted graphs, to 3.1e-11 kept on ER(3000)
_SPAN_TOL = 3e-12
_SPAN_BLOCK = 64  # candidates projected together


def _check_fraction(p: float) -> None:
    if not 0 < p < 1:
        raise ValueError("bin fraction p must lie strictly between 0 and 1")


def _check_primitive(kind: str) -> None:
    if kind not in PRIMITIVE_KINDS:
        raise ValueError(f"unknown primitive {kind!r}")


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The ranges starts[i]..stops[i] - 1 end to end; starts is not empty."""
    lens = stops - starts
    ends = np.cumsum(lens)
    return np.arange(ends[-1]) + np.repeat(starts - ends + lens, lens)


def _triangle_counts(g: Graph) -> np.ndarray:
    """Triangles at each node.

    Every edge points from its endpoint of lower (degree, id) rank to the
    higher one, so each triangle is found once, at its lowest corner, as an
    adjacent pair of forward neighbors; forward lists stay short at hubs.
    Each forward arc is paired with the later forward arcs of its tail, in
    blocks of about _BLOCK_ELEMENTS pairs, each tested by one searchsorted.
    """
    indptr, indices, _ = g.csr
    n = g.n
    deg = np.diff(indptr)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
    src = np.repeat(np.arange(n), deg)
    forward = rank[indices] > rank[src]
    tail, head = src[forward], indices[forward]
    # forward arc p pairs with the arcs after it up to its tail's last one
    fptr = np.concatenate([[0], np.cumsum(np.bincount(tail, minlength=n))])
    later = fptr[tail + 1] - np.arange(tail.size) - 1
    done = np.concatenate([[0], np.cumsum(later)])  # pairs before each arc
    keys = src * n + indices  # ascending, one per adjacent ordered pair
    tri = np.zeros(n)
    lo = 0
    while lo < tail.size:
        hi = max(lo + 1, int(np.searchsorted(done, done[lo] + _BLOCK_ELEMENTS, "right")) - 1)
        arcs = np.arange(lo, hi)
        p = np.repeat(arcs, later[lo:hi])
        a, b = head[p], head[_ranges(arcs + 1, fptr[tail[lo:hi] + 1])]
        q = a * n + b
        hit = keys[np.minimum(np.searchsorted(keys, q), keys.size - 1)] == q
        tri += np.bincount(np.concatenate([tail[p[hit]], a[hit], b[hit]]), minlength=n)
        lo = hi
    return tri


def _core_numbers(g: Graph) -> np.ndarray:
    """Core numbers by a level-synchronous peel.

    At level k every live node of degree <= k is removed in waves: a wave
    lowers its neighbors' degrees, and the live ones that fall to <= k form
    the next wave. When a wave is empty the level rises to the least live
    degree. A removed node's degree is lifted past every level, so no wave
    takes it again; only a new level scans all n nodes.
    """
    indptr, indices, _ = g.csr
    deg = np.diff(indptr)
    removed = 2 * g.n  # less its later-removed neighbors, still above every level (< n)
    core = np.zeros(g.n)
    left = g.n
    while left:
        k = deg.min()
        wave = np.flatnonzero(deg == k)
        while wave.size:
            core[wave] = k
            deg[wave] = removed
            left -= wave.size
            nbrs = indices[_ranges(indptr[wave], indptr[wave + 1])]
            np.subtract.at(deg, nbrs, 1)
            wave = np.unique(nbrs[deg[nbrs] <= k])
    return core


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
        if g.weights is None:  # a sum of d ones is exactly d
            return deg
        groups = _degree_groups(indptr, np.arange(indices.size))
        return _aggregate_slots(g.n, groups, weights[None, :], ("sum",))[0][0]
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


def _aggregate_slots(n, groups, rows, ops):
    """Reduce each row of rows (f x slots) over every node's slots in groups
    (see _degree_groups), per op; returns one (f x n) array per op, with 0
    at a node in no group. Callers check ops: any op not named is mode.

    Each node's values are sorted ascending once, for every op, and summed
    in sequence, so a row's result does not depend on the rows beside it.
    Rows go through in blocks.
    """
    f = rows.shape[0]
    outs = [np.zeros((f, n)) for _ in ops]
    for nodes, slots in groups:
        d = slots.shape[1]
        step = max(1, _BLOCK_ELEMENTS // slots.size)
        for lo in range(0, f, step):
            v = rows[lo : lo + step][:, slots]  # (rows, nodes, d)
            v.sort(axis=-1)
            total = v[..., 0].copy()
            for k in range(1, d):
                total += v[..., k]
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
    value's bin is the number of bins whose top value it exceeds. All rows
    go through at once, so callers bound them (learn_features by block).
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
    if not bins.size:
        return bins
    lanes = np.arange(f)
    ranked = np.sort(rows, axis=1)
    # end[r, t]: one past the last sorted position tying with position t,
    # so ties at the top of a bin join it
    end = np.full(ranked.shape, n, dtype=np.int64)
    end[:, :-1] = np.where(ranked[:, 1:] != ranked[:, :-1], np.arange(1, n), n)
    end = np.minimum.accumulate(end[:, ::-1], axis=1)[:, ::-1]
    cut = np.zeros(f, dtype=np.int64)  # where each row's next bin starts
    while True:
        top = last[cut]
        cut = end[lanes, top]
        if cut.min() == n:
            break
        # a row past its last bin sits at its maximum and gains nothing
        bins += rows > ranked[lanes, top][:, None]
    return bins


def _span_residuals(basis: np.ndarray, rows):
    """rows scaled to maximum 1, projected off basis twice (CGS2), and the
    norm above which each lies outside its span: _SPAN_TOL of its own."""
    v = np.array(rows, dtype=float)
    v /= np.maximum(v.max(axis=1, initial=0.0, keepdims=True), np.finfo(float).tiny)
    limit = _SPAN_TOL * np.linalg.norm(v, axis=1)
    for _ in range(2):
        v -= (v @ basis.T) @ basis
    return v, limit


def _full(basis: np.ndarray) -> bool:
    """Whether basis (k x n, orthonormal rows) spans all of R^n, n > 0."""
    return 0 < basis.shape[1] == len(basis)


def _extend_basis(basis: np.ndarray, rows) -> list[int]:
    """Grow basis (k x n, orthonormal rows, owning its buffer) in place by the
    rows outside its span, in order, and return their positions (see
    _span_residuals). Each block is projected off the basis, then row by row
    off its own kept rows. Once the basis spans R^n the remaining rows lie in
    it, and are not projected."""
    kept: list[int] = []
    for lo in range(0, len(rows), _SPAN_BLOCK):
        if _full(basis):
            break
        v, limit = _span_residuals(basis, rows[lo : lo + _SPAN_BLOCK])
        m = 0  # v[:m] holds the block's kept rows, orthonormal
        for j, w in enumerate(v):
            for _ in range(2):
                w -= (v[:m] @ w) @ v[:m]
            norm = np.linalg.norm(w)
            if norm > limit[j]:
                v[m] = w / norm
                m += 1
                kept.append(lo + j)
        v[:m] -= (v[:m] @ basis.T) @ basis  # the row steps mix some basis back in
        basis.resize((len(basis) + m, basis.shape[1]), refcheck=False)
        basis[len(basis) - m :] = v[:m]
    return kept


def _check_config(config: FeatureLearnConfig) -> None:
    """Check config before any feature is computed."""
    _check_count("maxiter", config.maxiter, 1)
    if not config.primitives:
        raise ValueError("primitive set must not be empty")
    _check_fraction(config.bin_fraction)
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
    cand's log bins.
    """
    f = rows.shape[0]
    hi = min(hi, f)
    cand = np.concatenate(_aggregate_slots(g.n, groups, rows[lo:hi], ops))
    index = (np.arange(len(ops))[:, None] * f + np.arange(lo, hi)).ravel()
    return index, cand, log_bin_rows(cand, p)


def _admitted_candidates(blocks, seen: set[bytes], basis: np.ndarray, first: bool):
    """The (index, row) pairs, in index order, of the candidates of one round
    (see _candidate_block) that survive: the earliest per bin vector not in
    seen, outside the span of basis and the rows admitted before it, or a
    zero first survivor when first. basis grows; the bin vectors join seen.

    A later block can hold an earlier candidate, made by a lower operator.
    So once 4 * _SPAN_BLOCK rows wait, those below the next block's first
    index are final and go through _extend_basis; if most lay in the span,
    the rest are dropped if in the span of the basis, which only grows.
    Once the basis spans every row, all that waits is dropped and no
    further block is read.
    """
    earliest: dict[bytes, int] = {}  # unseen bin vector -> its earliest candidate so far
    pending: dict[bytes, np.ndarray] = {}  # rows neither admitted nor dropped
    fresh, admitted = [], []  # keys pending since the last check; (index, row)

    def check(below) -> None:
        ready = sorted((earliest[key], key) for key in pending if earliest[key] < below)
        rows = [pending.pop(key) for _, key in ready]
        keep = _extend_basis(basis, rows)
        if first and ready and keep[:1] != [0]:
            keep.insert(0, 0)  # a zero first survivor, outside the basis
        admitted.extend((ready[j][0], rows[j]) for j in keep)
        if _full(basis):
            pending.clear()
        late = [key for key in dict.fromkeys(fresh) if key in pending]
        if late and 2 * len(keep) < len(ready):  # most lay in the span; the rest may too
            v, limit = _span_residuals(basis, [pending[key] for key in late])
            for key in np.array(late, dtype=object)[np.linalg.norm(v, axis=1) <= limit]:
                del pending[key]
        fresh.clear()

    for index, cand, bins in blocks:
        if len(fresh) >= 4 * _SPAN_BLOCK:
            check(index[0])
        if _full(basis):
            break
        for pos, (i, b) in enumerate(zip(index.tolist(), bins)):
            key = b.tobytes()
            if key not in seen and earliest.get(key, i + 1) > i:
                earliest[key], pending[key] = i, cand[pos].copy()  # one buffer per row, so cand can go
                fresh.append(key)
        del cand, bins  # before the next block is made
    check(np.inf)
    seen.update(earliest)
    return admitted


def learn_features(g: Graph, config: FeatureLearnConfig = FeatureLearnConfig()) -> FeatureMatrix:
    """Run the recursive feature-learning loop.

    Round 0's candidates are the primitives; a later round's are every
    operator applied to every surviving feature. A round after round 1
    aggregates only the survivors the previous round added: the older
    survivors' candidates would have the same bits, all already seen.
    The loop stops, and the result's stopped says why, at the first of: a
    round that admits nothing ("fixed-point"); a round that brings the
    survivors to n ("rank"), when they span every later candidate; or the
    maxiter cap on the rounds after round 0 ("maxiter").

    The candidates stream through in survivor blocks; those with unseen bin
    vectors are kept, in candidate-id order, only outside the survivors'
    span or as a zero first survivor (_admitted_candidates). No survivor is
    ever dropped, so every composite's base stays among them.
    The returned values are column-major, each feature's column contiguous,
    as the survivors are grown in place.
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
    basis = np.zeros((0, g.n))  # an orthonormal basis of their span
    seen: set[bytes] = set()  # bin vectors of the survivors
    descriptors: list[FeatureDescriptor] = []
    next_id = 0
    sizes = []
    stopped = "maxiter"
    f = 0  # survivors below f gave their candidates last round

    for iteration in range(config.maxiter + 1):
        start, f = f, len(descriptors)
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

        new = _admitted_candidates(blocks, seen, basis, not descriptors)
        # rows owns its buffer and no view of it outlived the round, so it
        # can grow where it lies
        rows.resize((f + len(new), g.n), refcheck=False)
        for r, (_, row) in enumerate(new):
            rows[f + r] = row
        descriptors += [describe(i) for i, _ in new]
        next_id += count
        sizes.append(len(descriptors))
        if not new or _full(basis):
            stopped = "rank" if new else "fixed-point"
            break
        del new  # the stashed rows, before the next round's are made

    return FeatureMatrix(rows.T, tuple(descriptors), tuple(sizes), stopped)


def recompute(g: Graph, descriptors) -> FeatureMatrix:
    """Evaluate a descriptor list on a graph, in id order, with no pruning.

    Composite bases must appear earlier in the list (malformed DAGs are
    rejected). Values equal learn_features' bit for bit: a composite's
    bits depend only on its base column and its operator.
    """
    descriptors = tuple(descriptors)
    values: dict[int, np.ndarray] = {}
    cache: dict = {}
    groups = _degree_groups(*g.csr[:2])
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
            col = _aggregate_slots(g.n, groups, values[d.base][None], (d.operator,))[0][0]
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


def _first_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, inverse, counts) for the byte-distinct rows of the 2-d x, at
    least one column wide, in order of first appearance: the row where each
    first appears, the place of each row of x among them, and how many rows
    each stands for. Rows are compared as bytes: on a 1000 x 1872 matrix
    (2-vCPU VM) that sorts in 9 ms, where np.unique(axis=0), comparing
    column by column, takes 69 ms."""
    _, first, inverse, counts = np.unique(
        _byte_rows(x), return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse], counts[order]


def csv_rows(x: np.ndarray, node: int = 0, prefix: str = "") -> str:
    """The row format of every matrix CSV: a CSV line for each row of the
    2-d float array x, its node id, counted from node and after prefix,
    then its values as repr floats. Each distinct row is formatted once;
    equal bytes give equal text."""
    if not x.shape[1]:
        return "".join([f"{prefix}{u}\n" for u in range(node, node + len(x))])
    first, inverse, _ = _first_rows(x)
    texts = [",".join(map(repr, row)) for row in x[first].tolist()]
    return "".join([f"{prefix}{u},{texts[i]}\n" for u, i in enumerate(inverse.tolist(), node)])


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
    without rows or feature columns, raises ValueError. Every row's node id
    and width are checked; each distinct value text is parsed and checked
    once, and a value out of range is named at the first row holding it."""
    header, *lines = text.splitlines() or [""]
    names = header.split(",")
    if names[0] != "node" or len(names) < 2:
        raise ValueError("expected a 'node,feat_0,...' header row")
    if text[len(header):].encode().translate(None, _ROW_BYTES):
        raise ValueError("a row holds a character that features_to_csv never writes")
    data = np.empty((len(lines), len(names) - 1))
    rows: dict[str, int] = {}  # each distinct value text -> its row of data
    firsts, index = [], []  # the first line of each row of data; each line's row
    for i, line in enumerate(line for line in lines if line):
        node, comma, values = line.partition(",")
        if node != str(i):
            raise ValueError(f"row {i} has node id {node!r}, expected {i}")
        k = rows.get(values)
        if k is None:
            row = values.split(",") if comma else []
            if len(row) + 1 != len(names):
                raise ValueError(f"row {i} has {len(row) + 1} columns; the header has {len(names)}")
            k = rows[values] = len(firsts)
            data[k] = row  # float() of each value, bit for bit
            firsts.append(i)
        index.append(k)
    if not index:
        raise ValueError("no node rows")
    data = data[: len(firsts)]
    bad = np.argwhere(~(np.isfinite(data) & (data >= 0)))
    if bad.size:
        k, c = bad[0]
        raise ValueError(f"row {firsts[k]}, column {names[c + 1]}: {data[k, c]} is not finite and non-negative")
    return data[index]
