"""Spans and oracle accounting for the traced benchmark run.

All instrumentation lives here, outside the library: a wrapper oracle that
counts and times every ``value``/``marginal`` call, a stream generator that
timestamps each element pull, and wrappers installed over the library's
public entry points for the duration of a traced section.  Oracle time is
charged to the innermost open span, so a span's self time is its duration
minus its children and minus the oracle time charged to it.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

from regsubmax import (baselines, core, datasets, distributed, modefinding,
                       objectives, streaming)

perf = time.perf_counter

# (owner, attribute, span name) for every entry point a traced section wraps.
FUNCTIONS = [
    (streaming, "distorted_streaming", "streaming.distorted_streaming"),
    (baselines, "sieve_streaming", "baselines.sieve_streaming"),
    (baselines, "vanilla_greedy", "baselines.vanilla_greedy"),
    (distributed, "distorted_greedy", "distributed.distorted_greedy"),
    (distributed, "run_distributed", "distributed.run_distributed"),
    (modefinding, "surrogate_instance", "modefinding.surrogate_instance"),
    (objectives, "similarity_from_features", "objectives.similarity_from_features"),
    (datasets, "load_edge_list", "datasets.load_edge_list"),
]
METHODS = [
    (distributed.RoundAssignment, "draw", "distributed.RoundAssignment.draw"),
    (distributed.RoundAssignment, "shard", "distributed.RoundAssignment.shard"),
    (core.Solution, "evaluate", "core.Solution.evaluate"),
]


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.track_queries = False
        self._window: set = set()
        self.distinct_queries = 0

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "start": perf(), "end": None, "oracle_s": 0.0,
                "value_calls": 0, "marginal_calls": 0}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = perf()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def new_window(self) -> None:
        """Start a new distinct-query window (one stream element or solve)."""
        self._window = set()

    def note_query(self, u: int, S) -> None:
        key = (u, frozenset(S))
        if key not in self._window:
            self._window.add(key)
            self.distinct_queries += 1

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if name.endswith(".shard"):
                    s["size"] = len(out)
                    s["round"] = args[0].round_index
                elif isinstance(out, list):
                    s["picked"] = len(out)
                return out
        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point in FUNCTIONS and METHODS until exit."""
        saved = []
        try:
            for owner, attr, name in FUNCTIONS:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(fn, name))
            for cls, attr, name in METHODS:
                raw = cls.__dict__[attr]
                saved.append((cls, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(raw.__func__, name)))
                else:
                    setattr(cls, attr, self.wrap(raw, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class TracedOracle(core.SubmodularOracle):
    """Counts and times calls into an inner oracle; charges the open span.

    ``totals`` is [value calls, marginal calls, seconds] for this oracle.
    """

    def __init__(self, inner: core.SubmodularOracle, tracer: Tracer):
        self.inner = inner
        self.n = inner.n
        self.tracer = tracer
        self.totals = [0, 0, 0.0]

    def _charge(self, kind: int, seconds: float) -> None:
        self.totals[kind] += 1
        self.totals[2] += seconds
        if self.tracer.stack:
            span = self.tracer.stack[-1]
            span["value_calls" if kind == 0 else "marginal_calls"] += 1
            span["oracle_s"] += seconds

    def value(self, S) -> float:
        t0 = perf()
        out = self.inner.value(S)
        self._charge(0, perf() - t0)
        return out

    def marginal(self, u, S) -> float:
        if self.tracer.track_queries:
            self.tracer.note_query(u, S)
        t0 = perf()
        out = self.inner.marginal(u, S)
        self._charge(1, perf() - t0)
        return out


def timed_stream(order, stamps: list, tracer: Tracer | None = None):
    """Yield ``order``, appending a timestamp at each pull and at exhaustion."""
    for u in order:
        stamps.append(perf())
        if tracer is not None:
            tracer.new_window()
        yield u
    stamps.append(perf())
