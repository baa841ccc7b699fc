"""In-memory spans around calls into the uqagg layers.

A :class:`Tracer` replaces public functions of the uqagg modules with thin
wrappers that record one span per call: name, start, end, parent span and the
CLI stage it ran under. Functions are wrapped where their caller looks them
up, so a name that ``cli`` imported into its own namespace is wrapped there.
Strategies are wrapped at ``Strategy.__call__`` and named by strategy key.
Nothing is wrapped outside :meth:`Tracer.installed`, so untraced runs pay no
cost. Spans stay in memory; :func:`summarize` derives self time from them.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time

# Layer name of each strategy of the default bank: "plm:20" -> intensity.plm20.
SPATIAL_KEYS = ("mor", "eds", "ent")


def strategy_layer(key: str) -> str:
    family = "spatial" if key in SPATIAL_KEYS else "intensity"
    return f"{family}.{key.replace(':', '').replace('.', '')}"


class Span:
    __slots__ = ("sid", "name", "parent", "stage", "t0", "t1", "extra")

    def __init__(self, sid, name, parent, stage, t0):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.stage = stage
        self.t0 = t0
        self.t1 = None
        self.extra = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def as_row(self, origin: float) -> list:
        return [self.sid, self.name, self.parent, self.stage,
                round(self.t0 - origin, 9), round(self.t1 - origin, 9), self.extra]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Span of the running CLI stage; worker threads hang their spans on it.
        self._stage_span = None
        self.stage = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].sid if stack else (
            self._stage_span.sid if self._stage_span is not None else None)
        span = Span(next(self._ids), name, parent, self.stage, time.perf_counter())
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    @contextlib.contextmanager
    def stage_span(self, stage: str):
        """Span of one CLI call; spans opened while it runs carry ``stage``."""
        self.stage = stage
        s = self.open(f"cli.{stage}")
        self._stage_span = s
        try:
            yield s
        finally:
            self.close(s)
            self._stage_span = None
            self.stage = None

    def _wrap(self, fn, name, extra=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if extra is not None:
                span.extra = extra(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_strategy_call(self, fn):
        tracer = self
        names = {}

        def __call__(strat, u, mask=None):
            name = names.get(strat.key)
            if name is None:
                name = names[strat.key] = strategy_layer(strat.key)
            span = tracer.open(name)
            try:
                return fn(strat, u, mask)
            finally:
                tracer.close(span)

        return __call__

    def _targets(self, uq):
        first_arg = lambda a, k, r: a[0] if a else None  # noqa: E731
        return [
            (uq.io, "read_npy", "io.read_npy", first_arg),
            (uq.io, "read_manifest", "io.read_manifest", first_arg),
            (uq.io, "read_scores", "io.read_scores", first_arg),
            (uq.io, "write_scores", "io.write_scores", None),
            (uq.io, "write_npy", "io.write_npy", None),
            (uq.io, "write_manifest", "io.write_manifest", None),
            # cli imported validate_map by name; wrap the name cli calls.
            (uq.cli, "validate_map", "core.validate_map", None),
            (uq.meta, "fit_meta", "meta.fit_meta", lambda a, k, r: r.k),
            (uq.meta, "em_fit", "meta.em_fit",
             lambda a, k, r: [int(a[1]), int(r.n_iter)]),
            (uq.meta, "meta_score_matrix", "meta.score_matrix", None),
            (uq.meta, "save_model", "meta.model_io", None),
            (uq.meta, "load_model", "meta.model_io", None),
            (uq.evaluation, "bootstrap_table", "evaluation.bootstrap_table",
             lambda a, k, r: [a[2], int(k.get("b", a[3] if len(a) > 3 else 0))]),
            (uq.evaluation, "auroc", "evaluation.auroc", None),
            (uq.evaluation, "eaurc", "evaluation.eaurc", None),
            (uq.evaluation, "wilcoxon_one_sided", "evaluation.wilcoxon", None),
            (uq.evaluation, "significance_matrix", "evaluation.significance_matrix",
             None),
            (uq.evaluation, "mean_rank", "evaluation.mean_rank", None),
            # Each module bound rng.stream by name.
            (uq.evaluation, "stream", "rng.stream", None),
            (uq.meta, "stream", "rng.stream", None),
            (uq.synth, "stream", "rng.stream", None),
            (uq.synth, "gen_benchmark", "synth.gen_benchmark", None),
        ]

    @contextlib.contextmanager
    def installed(self, uq):
        """Wrap the layer functions of the uqagg namespace ``uq`` while open."""
        saved = []
        try:
            for owner, attr, name, extra in self._targets(uq):
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, extra))
            strategy = uq.strategies.Strategy
            saved.append((strategy, "__call__", strategy.__call__))
            strategy.__call__ = self._wrap_strategy_call(strategy.__call__)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def self_times(spans) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered = 0.0
        end = s.t0
        for a, b in sorted(children.get(s.sid, ())):
            a = max(a, end)
            b = min(b, s.t1)
            if b > a:
                covered += b - a
                end = b
        out[s.sid] = s.duration - covered
    return out


def summarize(spans) -> dict[str, dict]:
    """Calls, total time and self time per span name."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += selfs[s.sid]
    return dict(sorted(table.items()))
