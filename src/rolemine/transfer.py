"""Role transfer: score new graphs against a fitted role model.

The role definitions H (and the feature recipe) come from the fitted model;
only the memberships W are re-estimated on the new graph, by exact
non-negative least squares (Lawson-Hanson active sets, no iteration cap and
no start point to choose). Rows of W decouple, so relabeling the nodes
permutes the membership rows; blocked BLAS kernels can shift the result by
a few ulp across lane boundaries, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass

import json

import numpy as np

from .features import _first_rows, csv_rows, recompute
from .graph import Graph
from .roles import RoleModel

_BLOCK_ELEMENTS = 1 << 20  # Gram-sized systems solved at once: bounds the stack


def _solve_set(g: np.ndarray, c: np.ndarray, p: np.ndarray):
    """Rows of passive set p (a mask) and the minimizer over them for every
    column of c: one solve of G's p-block, or its least-norm minimizer when
    that block is singular."""
    idx = np.flatnonzero(p)
    block, rhs = g[np.ix_(idx, idx)], c[idx]
    try:
        return idx, np.linalg.solve(block, rhs)
    except np.linalg.LinAlgError:
        return idx, np.linalg.pinv(block) @ rhs


def _passive_solve(g: np.ndarray, c: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Per column of c, the minimizer of 1/2 s'Gs - c's over its passive
    coordinates with the rest held at 0. Columns that share a passive set
    share one solve; the columns alone in theirs go through one masked
    batched solve. Only a singular set takes the least-norm minimizer."""
    s = np.zeros(c.shape)
    first, group, count = _first_rows(passive.T)
    lone = np.flatnonzero(count[group] == 1)
    if lone.size:
        p = passive[:, lone]
        m = np.where(p.T[:, :, None] & p.T[:, None, :], g, np.eye(len(g)))
        try:
            sol = np.linalg.solve(m, np.where(p, c[:, lone], 0.0).T[:, :, None])
            s[:, lone] = np.where(p, sol[:, :, 0].T, 0.0)
        except np.linalg.LinAlgError:
            for j in lone:
                idx, sol = _solve_set(g, c[:, j], passive[:, j])
                s[idx, j] = sol
    order = np.argsort(group, kind="stable")
    ends = np.cumsum(count)
    for k in np.flatnonzero(count > 1):
        cols = order[ends[k] - count[k] : ends[k]]
        idx, sol = _solve_set(g, c[:, cols], passive[:, first[k]])
        s[np.ix_(idx, cols)] = sol
    return s


@dataclass
class NnlsReport:
    """What one exact NNLS solve did, filled in when passed as report= to
    memberships_for_matrix, transfer_memberships or
    estimate_transition_model: its active-set steps (each admits one role
    into every open column; summed over column blocks) and the Frobenius
    norm of its residual at the optimum."""

    steps: int = 0
    residual: float = 0.0


def _nnls(g: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact min 1/2 b'Gb - c'b over b >= 0 for every column of c (r x k),
    sharing the r x r Gram g: Lawson & Hanson's (1974) active sets. Returns
    b and the number of steps taken.

    All open columns advance together. Each step moves the role with the
    largest positive gradient into a column's passive set (its roles > 0),
    solves that set, and steps back toward feasibility until the passive
    solution is positive. A gradient counts as positive above its rounding
    bound 10 r eps (|c| + |G| b), so a role with a zero Gram diagonal stays
    at 0. A step that does not lower the objective is undone and its role
    refused until the column moves: the objective falls strictly, so no
    passive set recurs and every column stops at its optimum.
    """
    r, k = c.shape
    step = max(1, _BLOCK_ELEMENTS // (r * r + 1))
    if k > step:
        parts = [_nnls(g, c[:, lo : lo + step]) for lo in range(0, k, step)]
        return np.hstack([b for b, _ in parts]), sum(steps for _, steps in parts)
    b, refused, loss = np.zeros((r, k)), np.zeros((r, k), dtype=bool), np.zeros(k)
    slack = 10 * r * np.finfo(float).eps
    cols = np.arange(k)
    steps = 0
    while True:
        bo, co = b[:, cols], c[:, cols]
        grad = co - g @ bo
        ok = (bo == 0) & ~refused[:, cols] & (grad > slack * (np.abs(co) + np.abs(g) @ bo))
        keep = ok.any(axis=0)
        if not keep.any():
            return b, steps
        steps += 1
        cols, bo, co, grad, ok = cols[keep], bo[:, keep], co[:, keep], grad[:, keep], ok[:, keep]
        enter = np.argmax(np.where(ok, grad, -np.inf), axis=0)
        p = bo > 0
        p[enter, np.arange(cols.size)] = True
        s = _passive_solve(g, co, p)
        bad = np.flatnonzero((p & (s <= 0)).any(axis=0))
        while bad.size:  # step from bo toward s until a passive role hits 0
            zb, sb, pb = bo[:, bad], s[:, bad], p[:, bad]
            hit = pb & (sb <= 0)
            ratio = np.where(hit, zb / np.where(zb > sb, zb - sb, 1.0), np.inf)
            alpha = ratio.min(axis=0)
            zb += alpha * (sb - zb)
            pb &= (ratio != alpha) & (zb > 0)
            bo[:, bad], p[:, bad] = np.where(pb, zb, 0.0), pb
            s[:, bad] = _passive_solve(g, co[:, bad], pb)
            bad = bad[(pb & (s[:, bad] <= 0)).any(axis=0)]
        new = (s * (0.5 * (g @ s) - co)).sum(axis=0)
        better = new < loss[cols]
        b[:, cols[better]], loss[cols[better]] = s[:, better], new[better]
        refused[:, cols[better]] = False
        refused[enter[~better], cols[~better]] = True


def transfer_memberships(
    g2: Graph,
    model: RoleModel,
    clamp: float | None = 10.0,
    seed: int = 1,
    report: NnlsReport | None = None,
) -> np.ndarray:
    """Estimate memberships W for g2 under a fitted model.

    Features are recomputed from the model's descriptors, scaled by the
    model's training column scales, and clamped post-normalization (values
    above `clamp` are cut to it; None disables). W solves the non-negative
    least-squares fit to the fixed H exactly. `seed` is accepted for old
    callers and unused: nothing here is random. `report`, when given,
    records the solve (see NnlsReport).
    """
    if model.descriptors is None:
        raise ValueError("model carries no feature descriptors; cannot recompute features")
    if clamp is not None and not clamp > 0:  # NaN too
        raise ValueError("clamp must be positive")
    x2 = recompute(g2, model.descriptors)
    x2n = x2.values / model.column_scales
    if clamp is not None:
        x2n = np.minimum(x2n, clamp)
    return memberships_for_matrix(x2n, model.h, report)


def memberships_for_matrix(
    x2n: np.ndarray, h: np.ndarray, report: NnlsReport | None = None
) -> np.ndarray:
    """Exact NNLS memberships (n x r) for an already normalized feature
    matrix against fixed role definitions h; `report`, when given, records
    the solve and the residual X - W H over every row. Each byte-distinct
    row of the matrix is solved once, so equal rows get equal memberships."""
    x2n = np.asarray(x2n, dtype=float)
    h = np.asarray(h, dtype=float)
    if x2n.ndim != 2 or x2n.shape[1] != h.shape[1]:
        raise ValueError("feature matrix width must match role definitions")
    if not (np.isfinite(x2n).all() and np.isfinite(h).all()):
        raise ValueError("feature matrix and role definitions must be finite")
    first, inverse, _ = _first_rows(x2n)
    # min_W ||X - W H|| == min_B ||X^T - H^T B|| with B = W^T
    b, steps = _nnls(h @ h.T, h @ x2n[first].T)
    w = b.T[inverse]
    if report is not None:
        report.steps, report.residual = steps, float(np.linalg.norm(x2n - w @ h))
    return w


def estimate_transition_model(
    w_a: np.ndarray, w_b: np.ndarray, report: NnlsReport | None = None
) -> np.ndarray:
    """Non-negative r x r transition T minimizing ||W_b - W_a T||_F.

    Snapshots must cover the same node set in the same order. Roles W_a
    never expresses (all-zero columns) get all-zero transition rows.
    `report`, when given, records the solve and the residual W_b - W_a T.
    """
    # C order for both, so the BLAS products' bits depend on the values alone
    w_a = np.ascontiguousarray(w_a, dtype=float)
    w_b = np.ascontiguousarray(w_b, dtype=float)
    if w_a.shape != w_b.shape:
        raise ValueError("membership matrices must have equal shapes")
    if not (np.isfinite(w_a).all() and np.isfinite(w_b).all()):
        raise ValueError("membership matrices must be finite")
    t, steps = _nnls(w_a.T @ w_a, w_a.T @ w_b)
    if report is not None:
        report.steps, report.residual = steps, float(np.linalg.norm(w_b - w_a @ t))
    return t


def series_to_csv(timestamps, memberships) -> str:
    """series.csv: a timestamp,node,role_0,... header, then each snapshot's
    membership rows (n x r, one matrix per timestamp) after its timestamp."""
    header = "timestamp,node," + ",".join(f"role_{k}" for k in range(memberships[0].shape[1]))
    return header + "\n" + "".join(
        csv_rows(w, prefix=f"{t},") for t, w in zip(timestamps, memberships, strict=True)
    )


def transition_to_json(t: np.ndarray) -> str:
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("transition model must be square")
    if not np.isfinite(t).all():
        raise ValueError("transition model must be finite")
    return json.dumps(t.tolist(), indent=2) + "\n"
