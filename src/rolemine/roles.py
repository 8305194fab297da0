"""Role assignment: low-rank factorization of the feature matrix.

NMF with multiplicative updates is the factorization (W rows are per-node
role memberships, H rows define roles over features); the SVD gives only
the floors that skip ranks. Rank is chosen by a greedy sweep that scores
each rank with an information criterion and stops after a run of
non-improving ranks.

The sweep fits its ranks in batches: the ranks it must try whatever their
costs (the next `trials - failed` of them). A fixed rank r (select_rank's
rank) is the one-rank batch range(r, r + 1), from a start drawn at rank r.
A stack of ranks runs through one multiplicative-update kernel, _nmf_batch,
as zero-padded factor pairs that share x, with the objective read off Gram
identities. A batch of two or more ranks is cut, by its ranks alone, into
two stacks: the narrower half (one more when the count is odd) runs in
process, and the wider half in a worker forked once per sweep when the
distinct rows are large enough and two CPUs are free, or else in process
afterwards. BLAS rounding depends on the stacked width, so fixed stacks
give the same bits on any CPU count. The ranks tried, the iterates and the
stop rule are those of fitting one rank at a time, a one-slice stack.

When the d distinct rows number at most f, rank d is fitted exactly with no
iteration: W one-hot per distinct row, H those rows. Its batch skips each
rank whose Eckart-Young bound (the cost at the least squared error of any
rank-r fit) exceeds that cost and the best before the batch: such a rank
cannot be the model, and counts as non-improving.

Nodes with equal feature rows must share a role, so both fits factorize the
distinct rows of the normalized matrix, in order of first appearance, each
scaled by the square root of its count: for tied rows the objective
sum_i count_i * ||u_i - w_i H||^2 is the same. The start is drawn for all n
rows, and each distinct row starts at sqrt(count) times the mean of its
members' drawn rows. W is expanded back by dividing by sqrt(count) and
indexing by the inverse; costs are those of the full matrix. When every row
is distinct each step is exact, so the bits are those of the full-row fit.

Cost criteria: "aic" (default) is 2*(n*r + r*f) + n*f*ln(SSE/(n*f) + 1e-12).
"mdl" is b*(n*r + r*f) + max(0, (n*f/2)*log2(SSE/(n*f) + 1e-12)); note that
on column-normalized input the MDL error term floors to zero (MSE never
exceeds 1), which makes the sweep degenerate to r=1, hence the AIC default.
"""

from __future__ import annotations

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from .features import FeatureDescriptor, _cpu_count, _first_rows, _row_texts
from .graph import _check_count

_EPS0 = 1e-12
# a sweep forks its fit worker only for an x of at least this many values:
# with one BLAS thread on 2 CPUs, the forked sweep broke even between 1125
# and 1410 values of G(n, 8/(n-1)) features (12% slower at 25 x 45, 10%
# faster at 30 x 47, 28% faster at 40 x 48)
_VALUES_PER_FIT_WORKER = 1250


@dataclass(frozen=True, eq=False)
class RoleModel:
    """A fitted role factorization X_normalized ~ W @ H."""

    r: int
    w: np.ndarray
    h: np.ndarray
    column_scales: np.ndarray
    descriptors: tuple[FeatureDescriptor, ...] | None
    cost: float
    criterion: str
    b: int
    seed: int

    def __post_init__(self):
        _check_count("model r", self.r, 1)
        _check_count("model seed", self.seed)
        _check_criterion(self.criterion, self.b)
        w = np.asarray(self.w, dtype=float)
        h = np.asarray(self.h, dtype=float)
        scales = np.asarray(self.column_scales, dtype=float)
        if w.ndim != 2 or h.ndim != 2:
            raise ValueError("factors must be 2-d")
        if not (np.isfinite(w).all() and np.isfinite(h).all() and np.isfinite(scales).all()):
            raise ValueError("factors and column scales must be finite")
        if not (1 <= self.r == w.shape[1] == h.shape[0]):
            raise ValueError("rank must be >= 1 and match factor shapes")
        if self.r > min(w.shape[0], h.shape[1]):
            raise ValueError("rank must not exceed min(n, f)")
        if (w < 0).any() or (h < 0).any():
            raise ValueError("factors must be non-negative")
        if (scales <= 0).any():
            raise ValueError("column scales must be positive")
        if h.shape[1] != scales.shape[0]:
            raise ValueError("one scale per feature column required")
        if not np.isfinite(self.cost):
            raise ValueError("model cost must be finite")
        if self.descriptors is not None and len(self.descriptors) != h.shape[1]:
            raise ValueError(
                f"{len(self.descriptors)} descriptors for {h.shape[1]} feature columns"
            )
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "column_scales", scales)
        if self.descriptors is not None:
            object.__setattr__(self, "descriptors", tuple(self.descriptors))


def normalize_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each column so its max is 1; all-zero columns are untouched
    (scale 1). Returns (scaled matrix, per-column scales). The scaled
    matrix is row-major whatever the layout of x, so the factorizations
    of learned (column-major) and of read-back features agree bit for bit."""
    x = np.asarray(x, dtype=float)
    scales = x.max(axis=0) if x.size else np.ones(x.shape[1])
    scales = np.where(scales > 0, scales, 1.0)
    return np.divide(x, scales, order="C"), scales


def _validate_input(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError("x must be a non-empty 2-d matrix")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    if (x < 0).any():
        raise ValueError("x must be non-negative")
    return x


def _nmf_batch(
    x: np.ndarray, w0s, h0s, maxiter: int, tol: float
) -> list[tuple[np.ndarray, np.ndarray, list[float]]]:
    """Multiplicative-update NMF (Lee & Seung) on a stack of starts that
    share x; start i is (w0s[i], h0s[i]) at its own rank.

    W transposed is stored as (k, R, n) and H as (k, R, f), zero-padded to
    the largest rank R; padded rows stay exactly zero under the updates. An
    iteration makes two n*f*R products (W^T X and H X^T) and reads the
    objective 0.5*||X - WH||^2 off Gram identities,
    0.5*(||X||^2 - 2<W^T, H X^T> + <W^T W, H H^T>), clamped at 0; W^T W is
    reused by the next H update. history[0] is the direct objective of the
    start. Each slice stops on its own rule and then leaves the batch.
    Returns (W, H, history) per start.
    """
    n, f = x.shape
    ranks = [w0.shape[1] for w0 in w0s]
    wt = np.zeros((len(ranks), max(ranks), n))
    h = np.zeros((len(ranks), max(ranks), f))
    histories = []
    for i, (w0, h0) in enumerate(zip(w0s, h0s)):
        wt[i, : ranks[i]] = w0.T
        h[i, : ranks[i]] = h0
        histories.append([0.5 * float(((x - w0 @ h0) ** 2).sum())])
    xt = np.ascontiguousarray(x.T)
    xx = float((x * x).sum())
    eps = 1e-12
    live = list(range(len(ranks)))
    out: list = [None] * len(ranks)
    wtw = wt @ wt.transpose(0, 2, 1)
    while live:
        h *= (wt @ x) / (wtw @ h + eps)
        hxt = h @ xt
        hht = h @ h.transpose(0, 2, 1)
        wt *= hxt / (hht @ wt + eps)
        wtw = wt @ wt.transpose(0, 2, 1)
        k = len(live)
        cross = (wt.reshape(k, 1, -1) @ hxt.reshape(k, -1, 1)).ravel().tolist()
        fit = (wtw.reshape(k, 1, -1) @ hht.reshape(k, -1, 1)).ravel().tolist()
        keep = []
        for j, i in enumerate(live):
            history = histories[i]
            prev = history[-1]
            obj = max(0.5 * (xx - 2.0 * cross[j] + fit[j]), 0.0)
            history.append(obj)
            if prev == 0.0 or (prev - obj) / prev < tol or len(history) > maxiter:
                out[i] = (wt[j, : ranks[i]].T.copy(), h[j, : ranks[i]].copy(), history)
            else:
                keep.append(j)
        if len(keep) < k:
            live = [live[j] for j in keep]
            width = max((ranks[i] for i in live), default=0)
            wt, h, wtw = wt[keep, :width], h[keep, :width], wtw[keep, :width, :width]
    return out


def _fit_stack(x, w_full, h_full, ranks, maxiter, tol):
    """_nmf_batch on the starts of the given ranks, sliced from one full draw."""
    return _nmf_batch(x, [w_full[:, :r] for r in ranks], [h_full[:r] for r in ranks], maxiter, tol)


def _start(x: np.ndarray, r: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The random start of a rank-r fit of x: W, then H, each |N(0,1)|
    scaled by max(x), drawn from seed."""
    n, f = x.shape
    rng = np.random.default_rng(seed)
    scale = x.max() if x.max() > 0 else 1.0
    return np.abs(rng.standard_normal((n, r))) * scale, np.abs(rng.standard_normal((r, f))) * scale


def _check_criterion(criterion: str, b: int) -> None:
    _check_count("b", b, 1)
    if criterion not in ("aic", "mdl"):
        raise ValueError(f"unknown criterion {criterion!r}")


def model_cost(x: np.ndarray, w: np.ndarray, h: np.ndarray, criterion: str = "aic", b: int = 16) -> float:
    """Score a factorization: parameter-count complexity plus an error term
    driven by log mean squared error."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    h = np.asarray(h, dtype=float)
    if w.shape[0] != x.shape[0] or h.shape[1] != x.shape[1] or w.shape[1] != h.shape[0]:
        raise ValueError("shape mismatch between x, w, h")
    _check_criterion(criterion, b)
    return _cost(float(((x - w @ h) ** 2).sum()), *x.shape, w.shape[1], criterion, b)


def _cost(sse: float, n: int, f: int, r: int, criterion: str, b: int) -> float:
    """The cost of a rank-r fit of an n x f matrix with squared error sse;
    it never falls as sse grows."""
    mse = sse / (n * f)
    if criterion == "mdl":
        error_bits = (n * f / 2.0) * np.log2(mse + _EPS0)
        return float(b * (n * r + r * f) + max(0.0, error_bits))
    return float(2.0 * (n * r + r * f) + (n * f) * np.log(mse + _EPS0))


def _floors(u: np.ndarray) -> list[float]:
    """For r = 0..min(u.shape), the least squared error of any rank-r fit
    of u (Eckart-Young): its squared singular values past the r-th."""
    s2 = np.linalg.svd(u, compute_uv=False) ** 2
    return [float(s2[r:].sum()) for r in range(len(s2) + 1)]


@dataclass(frozen=True)
class RankFit:
    """One fitted rank: NMF iterations run, whether they hit maxiter, and
    the model cost; 0 iterations is the exact fit at the distinct-row count."""

    rank: int
    iterations: int
    capped: bool
    cost: float


@dataclass
class RankSweep:
    """What a rank search did, filled in by select_rank: one RankFit per
    fitted rank in fitting order; why the sweep stopped: "trials" (that many
    non-improving ranks in a row), "rmax" (reached min(distinct rows, f)) or
    "rank" (a fixed rank, no sweep); the number of distinct rows of the
    normalized matrix, the rows it fitted; and the ranks left unfitted, as
    their cost bounds showed they could not be the model."""

    fits: list[RankFit] = field(default_factory=list)
    stopped: str | None = None
    distinct_rows: int | None = None
    skipped: list[int] = field(default_factory=list)


def select_rank(
    x: np.ndarray,
    criterion: str = "aic",
    b: int = 16,
    trials: int = 5,
    seed: int = 1,
    descriptors=None,
    maxiter: int = 500,
    tol: float = 1e-6,
    sweep: RankSweep | None = None,
    rank: int | None = None,
) -> RoleModel:
    """Greedy rank search over column-normalized x, or with rank given, a
    fit at that rank alone (CLI --rank).

    The sweep fits the distinct rows of the normalized x, each scaled by
    sqrt(count), and expands W back to every node, so equal rows get equal
    W rows. One random (W0, H0) pair is drawn at rank min(n, f), or at the
    given rank, for all n rows; each distinct row starts at sqrt(count)
    times its members' mean row of W0, and the start is sliced to the first
    r columns/rows for each candidate rank. The sweep stops after `trials`
    consecutive ranks without a cost improvement or at r = min(distinct
    rows, f), and the cheapest model, scored on the full matrix, wins. A
    given rank may be up to min(n, f) and is the one-rank batch
    range(rank, rank + 1), stopped "rank". Rank d = distinct rows is exact
    (module docstring). `sweep`, when given, records each fit and skip.

    After `failed` non-improving ranks the next `trials - failed` ranks are
    tried whatever their costs, so they are fitted together as one batch
    (two stacks, see the module docstring), then accepted or counted as
    failures in rank order; the model and the sweep are the same bits on
    any CPU count.
    """
    _check_count("trials", trials, 1)
    _check_criterion(criterion, b)
    _check_count("seed", seed)
    xn, scales = normalize_columns(_validate_input(x))
    top = min(xn.shape) if rank is None else rank  # the rank of the drawn start
    _check_count("rank", top)
    if not 1 <= top <= min(xn.shape):
        raise ValueError(f"rank {top} outside 1..min(n,f)={min(xn.shape)}")
    _check_count("maxiter", maxiter, 1)
    # the byte-distinct rows, first seen first, each scaled by sqrt(count)
    first, inverse, counts = _first_rows(xn)
    root = np.sqrt(counts)[:, None]
    u = xn[first] * root
    lo, rmax = (1, min(u.shape)) if rank is None else (rank, rank)
    sweep = RankSweep() if sweep is None else sweep
    sweep.distinct_rows = len(u)

    w_drawn, h_full = _start(xn, top, seed)
    # each distinct row starts at sqrt(count) times its members' mean drawn row
    w_full = np.zeros((len(u), top))
    np.add.at(w_full, inverse, w_drawn)
    w_full /= root
    best = (np.inf, 0, None, None)
    failed = 0
    with ExitStack() as stack:
        pool = None
        while failed < trials and lo <= rmax:
            ranks = range(lo, min(lo + trials - failed, rmax + 1))
            todo, fits = list(ranks), {}
            if ranks[-1] == len(u):  # rank d: W one-hot, H the distinct rows
                fits[todo.pop()] = (np.eye(len(u)) * root, xn[first], [0.0])
                # no rank-r fit of xn (U^T U = xn^T xn) has less squared
                # error than U's floor; 1e-8 of ||U||^2, far above the
                # floors' rounding, is taken off
                limit = min(best[0], _cost(0.0, *xn.shape, len(u), criterion, b))
                floors = _floors(u)
                margin = 1e-8 * floors[0]
                todo = [r for r in todo
                        if _cost(max(floors[r] - margin, 0.0), *xn.shape, r, criterion, b) <= limit]
            # two stacks fixed by the ranks alone: the narrower half here,
            # the wider one in the worker when it forks, else after it
            cut = (len(todo) + 1) // 2
            narrow, wide = todo[:cut], todo[cut:]
            args = (u, w_full[:, : ranks[-1]], h_full[: ranks[-1]], wide, maxiter, tol)
            future = None
            if wide and u.size >= _VALUES_PER_FIT_WORKER and _cpu_count() >= 2:
                if pool is None:
                    # fork, not spawn: a spawned worker would spend a large
                    # share of a small sweep importing numpy
                    pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"))
                    stack.callback(pool.shutdown, cancel_futures=True)
                future = pool.submit(_fit_stack, *args)
            if narrow:
                fits.update(zip(narrow, _fit_stack(u, w_full, h_full, narrow, maxiter, tol)))
            if wide:
                fits.update(zip(wide, _fit_stack(*args) if future is None else future.result()))
            for r in ranks:
                if r not in fits:  # its bound shows it cannot be the model
                    sweep.skipped.append(r)
                    failed += 1
                    continue
                w, h, history = fits[r]
                w = (w / root)[inverse]
                cost = model_cost(xn, w, h, criterion=criterion, b=b)
                iterations = len(history) - 1
                sweep.fits.append(RankFit(r, iterations, iterations == maxiter, cost))
                if cost < best[0]:
                    best = (cost, r, w, h)
                    failed = 0
                else:
                    failed += 1
            lo = ranks.stop
    sweep.stopped = "rank" if rank is not None else "trials" if failed >= trials else "rmax"
    cost, r, w, h = best
    return RoleModel(
        r=r,
        w=w,
        h=h,
        column_scales=scales,
        descriptors=tuple(descriptors) if descriptors is not None else None,
        cost=cost,
        criterion=criterion,
        b=b,
        seed=seed,
    )


def soft_memberships(w: np.ndarray) -> np.ndarray:
    """Row-normalize memberships to distributions; all-zero rows become
    uniform."""
    w = np.asarray(w, dtype=float)
    if (w < 0).any():
        raise ValueError("memberships must be non-negative")
    sums = w.sum(axis=1, keepdims=True)
    r = w.shape[1]
    out = np.where(sums > 0, w / np.where(sums > 0, sums, 1.0), 1.0 / r)
    return out


def hard_assignment(w: np.ndarray) -> np.ndarray:
    """One role per node: the argmax membership, ties to the smallest role id."""
    w = np.asarray(w, dtype=float)
    if (w < 0).any():
        raise ValueError("memberships must be non-negative")
    return np.argmax(w, axis=1)


def _json_matrix(x: np.ndarray) -> str:
    """json.dumps(x.tolist(), indent=2) as the value of a top-level key, for
    a finite 2-d float x of at least one row and column: each distinct row
    is formatted once, and repr is json's text for a finite float."""
    rows = "\n    ],\n    [\n      ".join(_row_texts(x, ",\n      "))
    return f"[\n    [\n      {rows}\n    ]\n  ]"


def model_to_json(model: RoleModel) -> str:
    """The model in json.dumps(..., indent=2) layout. "W" holds the
    byte-distinct rows of W in order of first appearance and "W_index" the
    row of each node, so W is W_rows[W_index]. W, W_index and H are written
    here: json's indent encoder is pure Python."""
    first, inverse, _ = _first_rows(model.w)
    head = json.dumps({
        "r": model.r,
        "criterion": model.criterion,
        "b": model.b,
        "seed": model.seed,
        "column_scales": model.column_scales.tolist(),
        "descriptors": None if model.descriptors is None else [vars(d) for d in model.descriptors],
    }, indent=2).removesuffix("\n}")
    index = ",\n    ".join(map(str, inverse.tolist()))
    return (f'{head},\n  "W": {_json_matrix(model.w[first])},\n  "W_index": [\n    {index}\n  ],\n'
            f'  "H": {_json_matrix(model.h)},\n  "cost": {float(model.cost)!r}\n}}\n')


def model_from_json(text: str) -> RoleModel:
    doc = json.loads(text)
    descriptors = doc.get("descriptors")
    if descriptors is not None:
        descriptors = tuple(FeatureDescriptor(**row) for row in descriptors)
    w, index = np.array(doc["W"], dtype=float), doc["W_index"]
    # one row of W per node: ints (not true or 1.0) in range
    if (not isinstance(index, list) or set(map(type, index)) != {int}
            or not 0 <= min(index) <= max(index) < len(w)):
        raise ValueError("W_index must list a row number of W for each node")
    return RoleModel(
        r=doc["r"],
        w=w[index],
        h=np.array(doc["H"], dtype=float),
        column_scales=np.array(doc["column_scales"], dtype=float),
        descriptors=descriptors,
        cost=doc["cost"],
        criterion=doc["criterion"],
        b=doc["b"],
        seed=doc["seed"],
    )
