"""Spans around the library's public functions, recorded from outside ``src/``.

Each target is wrapped in the module that calls it (``rolemine.cli`` imports
``learn_features`` by name, so the CLI's call goes through
``rolemine.cli.learn_features``). A target that a later change renames or
deletes is reported as absent instead of failing the run. Spans stay in
memory; the runner writes them out when it ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from functools import cached_property


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    pass_id: int
    index: int
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _kind(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["kind"]


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    name: str
    counter: object = None  # (args, kwargs, result) -> counts
    suffix: object = None  # (args, kwargs) -> span name suffix


TARGETS = (
    Target("rolemine.cli", "execute", "cli.execute"),
    Target("rolemine.cli", "load_edge_list", "graph.load",
           lambda a, k, g: {"nodes": g.n, "edges": len(g.edges)}),
    Target("rolemine.graph", "Graph.neighbors", "graph.adjacency"),
    Target("rolemine.cli", "learn_features", "features.learn",
           lambda a, k, x: {"rounds": len(x.iteration_sizes) - 1,
                            "stopped_at_cap": int(len(x.iteration_sizes) - 1 == a[1].maxiter
                                                  and any(d.iteration == a[1].maxiter
                                                          for d in x.descriptors))}),
    Target("rolemine.features", "compute_primitive", "features.primitive", suffix=_kind),
    Target("rolemine.features", "create_feature_graph", "features.feature_graph",
           lambda a, k, fg: {"candidates": a[0].f}),
    Target("rolemine.features", "vertical_log_bin", "features.bin"),
    Target("rolemine.features", "prune_feature_set", "features.prune_set",
           lambda a, k, x: {"survivors": x.f}),
    Target("rolemine.transfer", "recompute", "features.recompute",
           lambda a, k, x: {"columns": x.f}),
    Target("rolemine.cli", "select_rank", "roles.select_rank", lambda a, k, m: {"rank": m.r}),
    Target("rolemine.roles", "nmf_factorize", "roles.nmf",
           lambda a, k, res: {"iters": len(res[2]) - 1,
                              "capped": int(len(res[2]) - 1 >= k.get("maxiter", 500))}),
    Target("rolemine.roles", "model_cost", "roles.cost"),
    Target("rolemine.transfer", "memberships_for_matrix", "transfer.nnls",
           lambda a, k, w: {"rows": w.shape[0]}),
    Target("rolemine.cli", "estimate_transition_model", "transfer.transition"),
    Target("rolemine.cli", "features_to_csv", "cli.features_csv_write"),
    Target("rolemine.cli", "features_from_csv", "cli.features_csv_read"),
    Target("rolemine.cli", "model_to_json", "cli.model_json"),
    Target("rolemine.cli", "model_from_json", "cli.model_json"),
)


class Tracer:
    """Installs the wrappers on enter and removes them on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self.pass_id = 0
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self):
        for target in TARGETS:
            owner, leaf = _resolve(target.module, target.attr)
            if owner is None:
                self.absent.add(target.name)
                continue
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            if isinstance(original, cached_property):
                wrapped = cached_property(self._wrap(original.func, target))
                wrapped.__set_name__(owner, leaf)
            elif isinstance(original, property):
                wrapped = property(self._wrap(original.fget, target))
            else:
                wrapped = self._wrap(original, target)
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, wrapped)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)
        self._stack.clear()
        self.pass_id += 1
        return False

    def _wrap(self, fn, target: Target):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = target.name
            if target.suffix is not None:
                name = f"{name}.{target.suffix(args, kwargs)}"
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), None if parent is None else parent.index,
                        self.pass_id, len(self.spans))
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if target.counter is not None:
                try:
                    span.counts = target.counter(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    span.counts = {}
            return result

        return wrapper

    def records(self) -> list[dict]:
        return [
            {"pass": s.pass_id, "id": s.index, "parent": s.parent, "name": s.name,
             "start": s.start, "end": s.end, "self_s": s.self_s, **s.counts}
            for s in self.spans
        ]


def _resolve(module: str, attr: str):
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, leaf):
        return None, None
    return owner, leaf


def layer_metrics(spans: list[Span], primitives, absent: set[str]) -> tuple[dict, list[str]]:
    """Per-layer numbers of one traced pass, and the metrics whose targets
    are all absent. Times are self times."""

    def self_s(*names):
        return sum(s.self_s for s in spans if s.name in names)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def ratio(a, b):
        return a / b if b else 0.0

    candidates = count("features.feature_graph", "candidates")
    survivors = count("features.prune_set", "survivors")
    nmf_s = self_s("roles.nmf")
    nmf_iters = count("roles.nmf", "iters")
    nmf_calls = calls("roles.nmf")
    rank = count("roles.select_rank", "rank")
    # metric -> (value, the spans it is built from)
    table = {
        "graph.load_s": (self_s("graph.load"), ("graph.load",)),
        "graph.adjacency_s": (self_s("graph.adjacency"), ("graph.adjacency",)),
        "graph.nodes": (count("graph.load", "nodes"), ("graph.load",)),
        "graph.edges": (count("graph.load", "edges"), ("graph.load",)),
    }
    for kind in primitives:
        table[f"features.primitive.{kind}_s"] = (
            self_s(f"features.primitive.{kind}"), ("features.primitive",))
    table.update({
        "features.bin_s": (self_s("features.bin"), ("features.bin",)),
        "features.bin_calls": (calls("features.bin"), ("features.bin",)),
        "features.prune_s": (self_s("features.feature_graph", "features.prune_set"),
                             ("features.feature_graph", "features.prune_set")),
        "features.aggregate_s": (self_s("features.learn"), ("features.learn",)),
        "features.candidates": (candidates, ("features.feature_graph",)),
        "features.survivors": (survivors, ("features.prune_set",)),
        "features.survivor_ratio": (ratio(survivors, candidates),
                                    ("features.feature_graph", "features.prune_set")),
        "features.rounds": (count("features.learn", "rounds"), ("features.learn",)),
        "features.stopped_at_cap": (count("features.learn", "stopped_at_cap"),
                                    ("features.learn",)),
        "features.recompute_s": (self_s("features.recompute"), ("features.recompute",)),
        "features.recompute_columns": (count("features.recompute", "columns"),
                                       ("features.recompute",)),
        "roles.nmf_s": (nmf_s, ("roles.nmf",)),
        "roles.nmf_calls": (nmf_calls, ("roles.nmf",)),
        "roles.nmf_iters": (nmf_iters, ("roles.nmf",)),
        "roles.nmf_capped": (count("roles.nmf", "capped"), ("roles.nmf",)),
        "roles.nmf_iter_ms": (1000.0 * ratio(nmf_s, nmf_iters), ("roles.nmf",)),
        "roles.cost_s": (self_s("roles.cost"), ("roles.cost",)),
        "roles.rank": (rank, ("roles.select_rank",)),
        "roles.rank_useful_ratio": (ratio(rank, nmf_calls), ("roles.select_rank", "roles.nmf")),
        "transfer.nnls_s": (self_s("transfer.nnls"), ("transfer.nnls",)),
        "transfer.nnls_rows": (count("transfer.nnls", "rows"), ("transfer.nnls",)),
        "transfer.transition_s": (self_s("transfer.transition"), ("transfer.transition",)),
        "cli.features_csv_write_s": (self_s("cli.features_csv_write"),
                                     ("cli.features_csv_write",)),
        "cli.features_csv_read_s": (self_s("cli.features_csv_read"),
                                    ("cli.features_csv_read",)),
        "cli.model_json_s": (self_s("cli.model_json"), ("cli.model_json",)),
    })
    values = {name: float(v) for name, (v, _) in table.items()}
    gone = sorted(name for name, (_, src) in table.items() if absent.issuperset(src))
    return values, gone
