"""Span recorder for the traced benchmark run.

Nothing here is imported by the program under test: the recorder wraps
the public callables of each layer from the outside (``install``) and
restores them afterwards (``uninstall``).  An untraced run never
creates a :class:`Recorder`, so nothing is patched.

Each span is ``[id, name, parent, request, start_ns, end_ns, attrs,
phase]``.  The current span and the current request id live in
``contextvars``, which ``asyncio`` tasks and ``asyncio.to_thread``
copy, so spans opened in a worker thread nest under the coroutine that
handed the work off.  A span opened with no request id current starts
a new request (the server side of an HTTP connection, whose task does
not inherit the client's context).
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import inspect
import itertools
import json
from collections import defaultdict
from time import perf_counter_ns

_SPAN = contextvars.ContextVar("perfbench_span", default=None)
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)

ID, NAME, PARENT, REQUEST, START, END, ATTRS, PHASE = range(8)


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = True
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def begin_request(self) -> None:
        """Give the calling task's following spans a fresh request id."""
        _REQUEST.set(next(self._ids))

    def _open(self, name: str):
        if not self.enabled:
            return None, None
        sid = next(self._ids)
        request = _REQUEST.get()
        if request is None:
            request = sid
            _REQUEST.set(request)
        record = [sid, name, _SPAN.get(), request, perf_counter_ns(), 0, None,
                  self.phase]
        return record, _SPAN.set(sid)

    def _close(self, record, token, attrs=None) -> None:
        record[END] = perf_counter_ns()
        record[ATTRS] = attrs
        _SPAN.reset(token)
        self.spans.append(record)

    def wrap(self, func, name: str, attrs=None):
        """``func`` traced as span ``name``; ``attrs(result, args)``
        may return a dict stored on the span."""
        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def traced(*args, **kwargs):
                record, token = self._open(name)
                if record is None:
                    return await func(*args, **kwargs)
                result = None
                try:
                    result = await func(*args, **kwargs)
                    return result
                finally:
                    self._close(record, token,
                                attrs(result, args) if attrs and result is not None else None)
        else:
            @functools.wraps(func)
            def traced(*args, **kwargs):
                record, token = self._open(name)
                if record is None:
                    return func(*args, **kwargs)
                result = None
                try:
                    result = func(*args, **kwargs)
                    return result
                finally:
                    self._close(record, token,
                                attrs(result, args) if attrs and result is not None else None)
        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, attrs=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(raw.__func__, name, attrs))
        else:
            replacement = self.wrap(raw, name, attrs)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def install(self) -> None:
        """Wrap every traced layer boundary (see the module docstring)."""
        from repro.algorithms import incremental
        from repro.api import DiversifyRequest, DiversifyResponse
        from repro.core.instance import DiversificationInstance
        from repro.engine import engine as engine_module
        from repro.engine.kernel import ScoringKernel
        from repro.retrieval import CandidateRetriever
        from repro.service.core import DiversificationService
        from repro.service.registry import StreamingWorkload, WorkloadRegistry

        p = self._patch
        p(DiversificationService, "diversify", "service.core.diversify")
        p(DiversificationService, "delta", "service.core.delta")
        p(DiversifyRequest, "from_dict", "api.from_dict")
        p(DiversifyResponse, "to_dict", "api.to_dict")
        p(WorkloadRegistry, "handle", "service.registry.handle")
        p(DiversificationInstance, "answers", "service.registry.answers")
        p(StreamingWorkload, "apply_updates", "workloads.update")
        p(CandidateRetriever, "from_rows", "retrieval.index_build")
        p(CandidateRetriever, "retrieve", "retrieval.cut",
          lambda result, args: dict(result.timings))
        p(engine_module.DiversificationEngine, "run", "engine.run")
        p(engine_module, "kernel_for_instance", "engine.kernel.build",
          lambda kernel, args: {"rows": kernel.n})
        p(ScoringKernel, "apply_delta", "engine.kernel.patch")
        p(incremental, "repair_after_delta", "algorithms.repair",
          lambda repair, args: {"reran": bool(repair.reran)})
        self._patch_kernel_lookup(engine_module.DiversificationEngine)
        algorithms = engine_module.ALGORITHMS
        originals = dict(algorithms)
        for algo, func in originals.items():
            algorithms[algo] = self.wrap(func, f"algorithms.select.{algo}")
        self._undo.append(lambda: algorithms.update(originals))
        self._patch_to_thread()

    def _patch_kernel_lookup(self, engine_cls) -> None:
        """``kernel_for`` tagged with its outcome (hit / patch / miss)."""
        raw = engine_cls.__dict__["kernel_for"]

        def outcome(engine, before):
            stats = engine.stats
            after = (stats.hits, stats.patches, stats.misses)
            moved = [name for name, a, b in zip(("hit", "patch", "miss"), after, before)
                     if a != b]
            return {"outcome": moved[0] if moved else "error"}

        @functools.wraps(raw)
        def kernel_for(engine, *args, **kwargs):
            record, token = self._open("engine.kernel_lookup")
            if record is None:
                return raw(engine, *args, **kwargs)
            stats = engine.stats
            before = (stats.hits, stats.patches, stats.misses)
            try:
                return raw(engine, *args, **kwargs)
            finally:
                self._close(record, token, outcome(engine, before))

        engine_cls.kernel_for = kernel_for
        self._undo.append(lambda: setattr(engine_cls, "kernel_for", raw))

    def _patch_to_thread(self) -> None:
        """The service hands engine work to a thread with
        ``asyncio.to_thread``; the compute itself becomes span
        ``service.core.compute``, so lock wait and hand-off show as the
        rest of the service span."""
        raw = asyncio.to_thread

        async def to_thread(func, /, *args, **kwargs):
            return await raw(self.wrap(func, "service.core.compute"), *args, **kwargs)

        asyncio.to_thread = to_thread
        self._undo.append(lambda: setattr(asyncio, "to_thread", raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path) -> None:
        """Dump every span as one JSON array per line."""
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


# -- aggregation -------------------------------------------------------------

#: Span name → the layer metric it feeds.
LAYERS = {
    "api.from_dict": "api.wire",
    "api.to_dict": "api.wire",
    "service.registry.handle": "service.registry.materialize",
    "service.registry.answers": "service.registry.materialize",
    "workloads.update": "workloads.update",
    "retrieval.cut": "retrieval.cut",
    "engine.kernel_lookup": "engine.kernel_lookup",
    "engine.kernel.build": "engine.kernel.build",
    "engine.kernel.patch": "engine.kernel.patch",
    "algorithms.repair": "algorithms.repair",
}


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id → self time in ms: duration minus the part of its
    interval its child spans cover."""
    children = defaultdict(list)
    for record in spans:
        if record[PARENT] is not None:
            children[record[PARENT]].append((record[START], record[END]))
    result = {}
    for record in spans:
        start, end = record[START], record[END]
        covered, cursor = 0, start
        for child_start, child_end in sorted(children.get(record[ID], ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[record[ID]] = (end - start - covered) / 1e6
    return result


def layer_of(name: str) -> str | None:
    if name.startswith("algorithms.select."):
        return name
    return LAYERS.get(name)


def summarize(spans: list[list], request_ms_total: float) -> dict:
    """Per-layer figures from one traced run: ``layers`` (metric name →
    value), ``calls`` per layer and the ``attrs`` recorded per span name.

    ``<layer>_ms`` is the layer's self time per request that reached it
    (setup and measured phase); ``<layer>.share`` is the layer's
    measured-phase self time over ``request_ms_total``, the summed
    client latency of the measured phase.
    """
    own = self_times(spans)
    per_request = defaultdict(lambda: defaultdict(float))
    measured = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(list)
    for record in spans:
        layer = layer_of(record[NAME])
        if record[ATTRS]:
            attrs[record[NAME]].append(record[ATTRS])
        if layer is None:
            continue
        per_request[layer][record[REQUEST]] += own[record[ID]]
        calls[layer] += 1
        if record[PHASE] == "measure":
            measured[layer] += own[record[ID]]
    layers = {"service.core.wait_ms": _wait_ms(spans)}
    for layer, by_request in per_request.items():
        layers[f"{layer}_ms"] = sum(by_request.values()) / len(by_request)
        layers[f"{layer}.share"] = (
            measured[layer] / request_ms_total if request_ms_total else 0.0
        )
    return {"layers": layers, "calls": dict(calls), "attrs": attrs}


def _wait_ms(spans: list[list]) -> float:
    """Mean over service requests of span duration minus the compute
    the request itself handed to a worker thread: lock wait, thread
    hand-off, and waiting on a coalesced leader."""
    compute = defaultdict(int)
    for record in spans:
        if record[NAME] == "service.core.compute" and record[PARENT] is not None:
            compute[record[PARENT]] += record[END] - record[START]
    waits = [
        (record[END] - record[START] - compute[record[ID]]) / 1e6
        for record in spans
        if record[NAME] in ("service.core.diversify", "service.core.delta")
    ]
    return sum(waits) / len(waits) if waits else 0.0
