"""Workload registry: wire-friendly names → shared base instances.

An HTTP request cannot carry Python ``Query``/``Database``/callable
objects, and the engine's kernel cache is keyed on their *identity* —
so the serving layer needs one place that (a) maps a workload name plus
a params object to a concrete
:class:`~repro.core.instance.DiversificationInstance`, and (b) hands
*the same* underlying query/db/function objects back for every request
naming the same corpus.  That identity-stability is what lets N
concurrent requests (and every ``k``/``λ`` variant) share one kernel.

Two handle shapes:

* :class:`StaticWorkload` — an immutable corpus; the base instance is
  built once per ``(name, params)`` and memoized;
* :class:`StreamingWorkload` — wraps a session with an update feed
  (:class:`~repro.workloads.streaming.StreamingWebSearch`); the handle
  supports ``apply_updates`` (the ``/delta`` endpoint) and builds a
  *fresh* instance per request so the answer-set cache is never stale,
  while the session's query/db/function identities keep the engine on
  its delta-patching path.

:func:`default_registry` registers the built-ins (``synthetic``,
``websearch``, ``corpus``, ``streaming``); deployments register their
own factories
with :meth:`WorkloadRegistry.register`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import Any

from ..api import ApiError, canonical_params
from ..core.instance import DiversificationInstance
from ..core.objectives import Objective, ObjectiveKind
from ..workloads import corpus, streaming, synthetic, websearch

#: Wire names of the objective kinds (shared with the CLI).
OBJECTIVE_KINDS: dict[str, ObjectiveKind] = {
    "max-sum": ObjectiveKind.MAX_SUM,
    "max-min": ObjectiveKind.MAX_MIN,
    "mono": ObjectiveKind.MONO,
}


class RegistryError(LookupError):
    """Raised for unknown workload names (the service maps it to 404)."""


#: Lower bounds of the numeric params: a corpus size below 1 has no
#: meaningful instance behind it, and the generators' random streams
#: take only non-negative seeds.
_PARAM_MINIMUMS = {"n": 1, "num_docs": 1, "num_intents": 1, "num_topics": 1, "seed": 0}

#: Default type → (accepted wire types, what the error message says).
_PARAM_TYPES: dict[type, tuple[tuple[type, ...], str]] = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def _take(params: Mapping[str, Any], allowed: dict[str, Any], workload: str) -> dict:
    """Validate a wire params object against a workload's parameter
    table (name → default) and return the merged values.

    Each value must have its default's type (ints for int defaults, any
    number for float defaults; never a bool), corpus sizes must be
    >= 1 and seeds >= 0 — so a malformed request is rejected here, naming the
    parameter, rather than failing deep inside a generator."""
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ApiError(
            f"unknown parameter(s) {unknown} for workload {workload!r}; "
            f"allowed: {sorted(allowed)}"
        )
    for name, value in params.items():
        accepted, expected = _PARAM_TYPES[type(allowed[name])]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ApiError(
                f"parameter {name!r} of workload {workload!r} must be "
                f"{expected}, got {value!r}"
            )
        minimum = _PARAM_MINIMUMS.get(name)
        if minimum is not None and value < minimum:
            raise ApiError(
                f"parameter {name!r} of workload {workload!r} must be "
                f">= {minimum}, got {value!r}"
            )
    merged = dict(allowed)
    merged.update(params)
    return merged


class StaticWorkload:
    """An immutable corpus: one base instance, built lazily, shared by
    every request (identity-stable → one kernel)."""

    supports_updates = False

    def __init__(self, build: Callable[[], DiversificationInstance]):
        self._build = build
        self._base: DiversificationInstance | None = None

    def base_instance(self) -> DiversificationInstance:
        if self._base is None:
            self._base = self._build()
        return self._base

    def apply_updates(self, count: int):
        raise ApiError("this workload has no update feed")


class StreamingWorkload:
    """A corpus under a live insert/delete feed.

    ``base_instance`` builds a fresh instance per call — the session's
    query/db/relevance/distance objects are reused (same kernel-cache
    key, so post-update requests take the engine's ``apply_delta``
    path), but the instance-level ``Q(D)`` cache starts empty, so a
    mutated database is never served a stale answer set.
    """

    supports_updates = True

    def __init__(self, session: streaming.StreamingWebSearch):
        self.session = session

    def base_instance(self) -> DiversificationInstance:
        return self.session.make_instance()

    def apply_updates(self, count: int) -> list[streaming.UpdateEvent]:
        if count < 1:
            raise ApiError(f"events must be a positive integer, got {count}")
        return [self.session.step() for _ in range(count)]


def _build_synthetic(params: Mapping[str, Any]) -> StaticWorkload:
    p = _take(
        params,
        {"n": 80, "seed": 0, "objective": "max-sum", "lam": 0.5},
        "synthetic",
    )
    kind = OBJECTIVE_KINDS.get(p["objective"])
    if kind is None:
        raise ApiError(
            f"unknown objective {p['objective']!r}; "
            f"choose one of {sorted(OBJECTIVE_KINDS)}"
        )
    return StaticWorkload(
        lambda: synthetic.random_instance(
            n=int(p["n"]), kind=kind, lam=float(p["lam"]), seed=int(p["seed"])
        )
    )


def _build_websearch(params: Mapping[str, Any]) -> StaticWorkload:
    p = _take(
        params,
        {"num_docs": 40, "num_intents": 4, "seed": 17, "objective": "max-sum"},
        "websearch",
    )
    kind = OBJECTIVE_KINDS.get(p["objective"])
    if kind is None:
        raise ApiError(
            f"unknown objective {p['objective']!r}; "
            f"choose one of {sorted(OBJECTIVE_KINDS)}"
        )

    def build() -> DiversificationInstance:
        db = websearch.generate(
            num_docs=int(p["num_docs"]),
            num_intents=int(p["num_intents"]),
            seed=int(p["seed"]),
        )
        objective = Objective.from_provider(
            kind, websearch.scoring_provider(db), lam=0.5
        )
        return DiversificationInstance(
            websearch.documents_query(), db, k=10, objective=objective
        )

    return StaticWorkload(build)


def _build_corpus(params: Mapping[str, Any]) -> StaticWorkload:
    p = _take(
        params,
        {
            "num_docs": 400,
            "num_topics": 8,
            "seed": 17,
            "objective": "max-sum",
            "lam": 0.5,
        },
        "corpus",
    )
    kind = OBJECTIVE_KINDS.get(p["objective"])
    if kind is None:
        raise ApiError(
            f"unknown objective {p['objective']!r}; "
            f"choose one of {sorted(OBJECTIVE_KINDS)}"
        )

    def build() -> DiversificationInstance:
        documents = corpus.generate(
            num_docs=int(p["num_docs"]),
            num_topics=int(p["num_topics"]),
            seed=int(p["seed"]),
        )
        return documents.full_instance(k=10, kind=kind, lam=float(p["lam"]))

    return StaticWorkload(build)


def _build_streaming(params: Mapping[str, Any]) -> StreamingWorkload:
    p = _take(
        params,
        {"num_docs": 50, "num_intents": 4, "seed": 17, "insert_fraction": 0.5},
        "streaming",
    )
    return StreamingWorkload(
        streaming.StreamingWebSearch(
            num_docs=int(p["num_docs"]),
            num_intents=int(p["num_intents"]),
            seed=int(p["seed"]),
            insert_fraction=float(p["insert_fraction"]),
        )
    )


class WorkloadRegistry:
    """Named workload factories plus the memoized handles they build.

    Handles are memoized per canonical ``(name, params)`` so every
    request naming the same corpus gets the same handle — and therefore
    the same query/db/function identities, the engine's kernel-cache
    key.
    """

    def __init__(self):
        self._factories: dict[str, Callable[[Mapping[str, Any]], Any]] = {}
        self._handles: dict[tuple, Any] = {}

    def register(
        self, name: str, factory: Callable[[Mapping[str, Any]], Any]
    ) -> None:
        """Register ``factory(params) -> handle``.  Re-registering a
        name replaces the factory and drops its memoized handles."""
        self._factories[name] = factory
        self._handles = {
            key: handle for key, handle in self._handles.items() if key[0] != name
        }

    def names(self) -> list[str]:
        return sorted(self._factories)

    def handle(self, name: str | None, params: Mapping[str, Any] | None = None):
        if not name:
            raise RegistryError(
                f"request names no workload; registered: {self.names()}"
            )
        key = (name, canonical_params(params))
        handle = self._handles.get(key)
        if handle is None:
            factory = self._factories.get(name)
            if factory is None:
                raise RegistryError(
                    f"unknown workload {name!r}; registered: {self.names()}"
                )
            handle = factory(dict(params or {}))
            self._handles[key] = handle
        return handle


def default_registry() -> WorkloadRegistry:
    """A registry with the built-in workloads installed."""
    registry = WorkloadRegistry()
    registry.register("synthetic", _build_synthetic)
    registry.register("websearch", _build_websearch)
    registry.register("corpus", _build_corpus)
    registry.register("streaming", _build_streaming)
    return registry
