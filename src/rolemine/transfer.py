"""Role transfer: score new graphs against a fitted role model.

The role definitions H (and the feature recipe) come from the fitted model;
only the memberships W are re-estimated on the new graph, by non-negative
least squares. Rows of W decouple and the start point is a constant, so
relabeling the nodes permutes the membership rows; blocked BLAS kernels can
shift the result by a few ulp across lane boundaries, nothing more.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import json

import numpy as np

from .features import recompute
from .graph import Graph
from .roles import RoleModel

_NNLS_TOL = 1e-8
_NNLS_MAXITER = 2000


def _nnls_multi(ata: np.ndarray, aty: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """Coordinate descent for min_B ||Y - A B||_F, B >= 0, given ata = A^T A
    and aty = A^T Y. Columns of B are independent problems; one sweep updates
    each coordinate row exactly. Degenerate rows (ata[k,k] ~ 0) are pinned
    at zero."""
    b = np.array(b0, dtype=float)
    k = ata.shape[0]
    dead = np.diag(ata) <= 1e-16
    b[dead] = 0.0
    for _ in range(_NNLS_MAXITER):
        delta = 0.0
        for i in range(k):
            if dead[i]:
                continue
            new = np.maximum((aty[i] - ata[i] @ b) / ata[i, i] + b[i], 0.0)
            delta = max(delta, float(np.abs(new - b[i]).max(initial=0.0)))
            b[i] = new
        if delta < _NNLS_TOL:
            break
    return b


def transfer_memberships(
    g2: Graph,
    model: RoleModel,
    attributes: np.ndarray | None = None,
    clamp: float | None = 10.0,
    seed: int = 1,
    init: str = "ones",
) -> np.ndarray:
    """Estimate memberships W for g2 under a fitted model.

    Features are recomputed from the model's descriptors, scaled by the
    model's training column scales, and clamped post-normalization (values
    above `clamp` are cut to it; None disables). W solves the non-negative
    least-squares fit to the fixed H.
    """
    if model.descriptors is None:
        raise ValueError("model carries no feature descriptors; cannot recompute features")
    if clamp is not None and clamp <= 0:
        raise ValueError("clamp must be positive")
    x2 = recompute(g2, model.descriptors, attributes=attributes)
    x2n = x2.values / model.column_scales
    if clamp is not None:
        x2n = np.minimum(x2n, clamp)
    return memberships_for_matrix(x2n, model.h, seed=seed, init=init)


def memberships_for_matrix(
    x2n: np.ndarray,
    h: np.ndarray,
    seed: int = 1,
    init: str = "ones",
) -> np.ndarray:
    """NNLS memberships for an already normalized feature matrix against
    fixed role definitions h."""
    x2n = np.asarray(x2n, dtype=float)
    h = np.asarray(h, dtype=float)
    if x2n.ndim != 2 or x2n.shape[1] != h.shape[1]:
        raise ValueError("feature matrix width must match role definitions")
    r, n = h.shape[0], x2n.shape[0]
    if init == "ones":
        b0 = np.ones((r, n))
    elif init == "random":
        rng = np.random.default_rng(seed)
        b0 = np.abs(rng.standard_normal((r, n)))
    else:
        raise ValueError(f"unknown init {init!r}")
    # min_W ||X - W H|| == min_B ||X^T - H^T B|| with B = W^T
    ata = h @ h.T
    aty = h @ x2n.T
    return _nnls_multi(ata, aty, b0).T


@dataclass(frozen=True, eq=False)
class MembershipSeries:
    """Membership matrices for a sequence of graph snapshots, sharing one
    role model. `model` is None for series loaded from CSV."""

    timestamps: tuple[int, ...]
    memberships: tuple[np.ndarray, ...]
    model: RoleModel | None = None

    def __post_init__(self):
        if len(self.timestamps) != len(self.memberships):
            raise ValueError("one membership matrix per timestamp required")
        if len(self.timestamps) == 0:
            raise ValueError("series must be non-empty")
        if len(set(self.timestamps)) != len(self.timestamps):
            raise ValueError("timestamps must be distinct")
        widths = {m.shape[1] for m in self.memberships}
        if len(widths) != 1:
            raise ValueError("all snapshots must share the model rank")
        if self.model is not None and widths != {self.model.r}:
            raise ValueError("membership width must equal the model rank")
        if any((m < 0).any() for m in self.memberships):
            raise ValueError("memberships must be non-negative")
        object.__setattr__(self, "timestamps", tuple(int(t) for t in self.timestamps))
        object.__setattr__(
            self, "memberships", tuple(np.asarray(m, dtype=float) for m in self.memberships)
        )

    @property
    def r(self) -> int:
        return self.memberships[0].shape[1]


def role_time_series(
    graphs,
    model: RoleModel,
    timestamps=None,
    attributes=None,
    clamp: float | None = 10.0,
) -> MembershipSeries:
    """Transfer one model across snapshots; timestamps default to 0, 1, ...

    `attributes` may be None or a sequence with one entry (array or None)
    per snapshot.
    """
    graphs = list(graphs)
    if timestamps is None:
        timestamps = range(len(graphs))
    if attributes is None:
        attributes = [None] * len(graphs)
    ws = [
        transfer_memberships(g, model, attributes=a, clamp=clamp)
        for g, a in zip(graphs, attributes, strict=True)
    ]
    return MembershipSeries(timestamps=tuple(timestamps), memberships=tuple(ws), model=model)


def estimate_transition_model(w_a: np.ndarray, w_b: np.ndarray) -> np.ndarray:
    """Non-negative r x r transition T minimizing ||W_b - W_a T||_F.

    Snapshots must cover the same node set in the same order. Roles W_a
    never expresses (all-zero columns) get all-zero transition rows.
    """
    w_a = np.asarray(w_a, dtype=float)
    w_b = np.asarray(w_b, dtype=float)
    if w_a.shape != w_b.shape:
        raise ValueError("membership matrices must have equal shapes")
    r = w_a.shape[1]
    ata = w_a.T @ w_a
    aty = w_a.T @ w_b
    return _nnls_multi(ata, aty, np.ones((r, r)))


def series_to_csv(series: MembershipSeries) -> str:
    out = io.StringIO()
    r = series.r
    out.write("timestamp,node," + ",".join(f"role_{k}" for k in range(r)) + "\n")
    for t, w in zip(series.timestamps, series.memberships):
        for node in range(w.shape[0]):
            row = ",".join(repr(float(v)) for v in w[node])
            out.write(f"{t},{node},{row}\n")
    return out.getvalue()


def series_from_csv(text: str) -> MembershipSeries:
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or not lines[0].startswith("timestamp,node,"):
        raise ValueError("expected a 'timestamp,node,role_0,...' header row")
    r = len(lines[0].split(",")) - 2
    by_time: dict[int, list[tuple[int, list[float]]]] = {}
    order: list[int] = []
    for ln in lines[1:]:
        parts = ln.split(",")
        t, node = int(parts[0]), int(parts[1])
        if t not in by_time:
            by_time[t] = []
            order.append(t)
        by_time[t].append((node, [float(v) for v in parts[2:]]))
    mats = []
    for t in order:
        rows = by_time[t]
        if [node for node, _ in rows] != list(range(len(rows))):
            raise ValueError(f"snapshot {t} rows must cover nodes 0..n-1 in order")
        mats.append(np.array([vals for _, vals in rows], dtype=float).reshape(len(rows), r))
    return MembershipSeries(timestamps=tuple(order), memberships=tuple(mats))


def transition_to_json(t: np.ndarray) -> str:
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("transition model must be square")
    return json.dumps([[float(v) for v in row] for row in t], indent=2) + "\n"


def transition_from_json(text: str) -> np.ndarray:
    t = np.array(json.loads(text), dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("transition model must be square")
    return t
