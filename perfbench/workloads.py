"""The benchmark's three workloads, each a closed loop against the
public serving API (``repro.service``).

* ``select-warm``: one in-process caller of
  ``DiversificationService.diversify`` over two warm synthetic corpora
  (n = 1000, max-sum and max-min); selection dominates.
* ``retrieve-cut``: one in-process caller over a 50,000-document
  ``corpus`` workload, every request cut to a 300-row pool by
  ``query_text``; retrieval, pool materialization and pool kernels
  dominate.
* ``delta-http``: a real ``ServiceServer`` on loopback with two
  closed-loop HTTP clients over a 300-document ``streaming`` workload,
  about one request in five a ``POST /delta``.

Inputs derive from the seed alone.  Requests are scheduled in blocks
of fixed composition (shuffled inside the block) and λ values come from
per-cell low-discrepancy sequences, so two seeds see the same mix of
work and the objective mean does not wander with the draw.  A run
measures for its nominal seconds and past them until it has
``MIN_REQUESTS`` requests and its objective prefix.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
import time
from collections.abc import Iterator

from repro.api import DiversifyRequest, row_to_dict
from repro.engine.engine import DiversificationEngine
from repro.service.core import DiversificationService, ServiceConfig
from repro.service.http import ServiceServer
from repro.service.registry import default_registry

#: Result-cache TTL: long enough that wall-clock expiry never decides a
#: hit inside one run, so a slow host does not change the reuse ratio.
RESULT_TTL_S = 86400.0
#: A run completes at least this many requests, so p95 has ten samples
#: beyond it.
MIN_REQUESTS = 200
#: A measured phase stops at this multiple of its nominal length even
#: when it is short of requests.
HARD_STOP = 3
#: Golden-ratio step of the λ sequences.
GOLDEN = 0.6180339887498949


class LambdaStream:
    """A fresh λ in [0.1, 0.9] per call, evenly spread per cell.

    The m-th λ of a cell is the same for every seed: the objective mean
    then moves with the corpus only, not with how the λ draws fell.  No
    value is 0.5, the λ of the set-up requests, so none is a repeat."""

    def __init__(self):
        self._counts: dict = {}

    def next(self, cell) -> float:
        count = self._counts.get(cell, 0)
        self._counts[cell] = count + 1
        return 0.1 + 0.8 * ((0.25 + count * GOLDEN) % 1.0)


class Clock:
    """Seconds since creation, excluding paused (off-clock) spans."""

    def __init__(self):
        self._origin = time.perf_counter()
        self._paused_at = None

    def __call__(self) -> float:
        return time.perf_counter() - self._origin

    def pause(self) -> None:
        self._paused_at = time.perf_counter()

    def resume(self) -> None:
        self._origin += time.perf_counter() - self._paused_at
        self._paused_at = None


class Outcome:
    """Per-request records of one measured phase."""

    def __init__(self):
        self.latency_ms: list[float] = []
        self.done_at: list[float] = []
        self.kinds: list[str] = []
        #: The server's own ``elapsed_ms`` per HTTP response (else None).
        self.server_ms: list[float | None] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.objective: list[float] = []

    def record(self, kind: str, latency_ms: float, done_at: float,
               server_ms: float | None = None) -> None:
        self.latency_ms.append(latency_ms)
        self.done_at.append(done_at)
        self.kinds.append(kind)
        self.server_ms.append(server_ms)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def same_selection(served, result) -> bool:
    """A served ``DiversifyResponse`` equals an engine result float for
    float: value, rows and snapshot indices."""
    return (
        result is not None
        and served.value == result.value
        and served.rows == result.rows
        and served.indices == result.indices
    )


class Workload:
    """Shared state of one workload run; subclasses define set-up, the
    request loop and the correctness checks."""

    name = ""
    #: Requests whose objective values form ``objective_mean``.
    objective_prefix = 100

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.lams = LambdaStream()
        self.service = DiversificationService(ServiceConfig(result_ttl=RESULT_TTL_S))
        self.diversify_ok = 0
        self.outcome = Outcome()
        self.clock = Clock()
        self.recorder = None

    def keep_going(self, seconds: float) -> bool:
        now = self.clock()
        if now >= HARD_STOP * seconds:
            return False
        return now < seconds or self.outcome.attempted < max(
            MIN_REQUESTS, self.objective_prefix)

    def begin_request(self) -> None:
        if self.recorder is not None:
            self.recorder.begin_request()

    @contextlib.contextmanager
    def off_clock(self):
        """Context for checks: the clock pauses and tracing stops."""
        self.clock.pause()
        if self.recorder is not None:
            self.recorder.enabled = False
        try:
            yield
        finally:
            if self.recorder is not None:
                self.recorder.enabled = True
            self.clock.resume()

    async def serve(self, request: DiversifyRequest):
        """One in-process request, timed and checked for success."""
        out = self.outcome
        out.attempted += 1
        self.begin_request()
        start = time.perf_counter()
        try:
            response = await self.service.diversify(request)
        except Exception as exc:  # a failed op is counted, not raised
            out.fail(f"{type(exc).__name__}: {exc}")
            return None
        latency = (time.perf_counter() - start) * 1000.0
        self.diversify_ok += 1
        if not response.feasible:
            out.fail(f"infeasible response to {request.key()!r}")
            return None
        out.record("read", latency, self.clock())
        if len(out.objective) < self.objective_prefix:
            out.objective.append(response.value)
        return response

    async def ready(self, pending) -> None:
        """Await one set-up request; set-up fails unless it succeeded."""
        if await pending is None:
            raise RuntimeError(f"{self.name} set-up failed: {self.outcome.failures}")

    async def stats(self) -> dict:
        return self.service.stats()

    async def close(self) -> None:
        pass


class SelectWarm(Workload):
    """Warm selection over two synthetic corpora."""

    name = "select-warm"
    WINDOW = 10
    KS = (5, 10, 20)
    CHECK_EVERY = 10

    def __init__(self, seed: int):
        super().__init__(seed)
        self.params = {
            "max-sum": {"n": 1000, "seed": seed, "objective": "max-sum"},
            "max-min": {"n": 1000, "seed": seed + 1, "objective": "max-min"},
        }
        self.samples = []

    def request(self, objective: str, algorithm: str | None, k: int,
                lam: float) -> DiversifyRequest:
        return DiversifyRequest(workload="synthetic", params=self.params[objective],
                                k=k, lam=lam, algorithm=algorithm)

    def schedule(self) -> Iterator[DiversifyRequest]:
        """Blocks of ten: six ``auto`` on max-sum (two per k), two
        ``auto`` on max-min and two ``mmr``, one per corpus."""
        ks = self.KS
        for block in range(10**9):
            cells = [("max-sum", None, k) for k in ks] * 2 + [
                ("max-min", None, ks[block % 3]),
                ("max-min", None, ks[(block + 1) % 3]),
                ("max-sum", "mmr", ks[(block + 2) % 3]),
                ("max-min", "mmr", ks[block % 3]),
            ]
            self.rng.shuffle(cells)
            for cell in cells:
                yield self.request(*cell, self.lams.next(cell))

    async def setup(self) -> None:
        for objective in self.params:
            await self.ready(self.serve(self.request(objective, None, 5, 0.5)))

    async def measure(self, seconds: float) -> Outcome:
        self.outcome = out = Outcome()
        self.clock = Clock()
        schedule = self.schedule()
        while self.keep_going(seconds):
            request = next(schedule)
            response = await self.serve(request)
            if response is not None and out.attempted % self.CHECK_EVERY == 0:
                self.samples.append((request, response))
        return out

    async def check(self) -> None:
        """Sampled requests re-solved by a fresh engine over a fresh
        registry."""
        registry = default_registry()
        engine = DiversificationEngine()
        for request, response in self.samples:
            handle = registry.handle(request.workload, request.params)
            result = engine.run(request.resolve(handle.base_instance()),
                                request.algorithm)
            if not same_selection(response, result):
                self.outcome.fail(f"select-warm mismatch on {request.key()!r}")


class RetrieveCut(Workload):
    """Retrieval cuts of a 50,000-document corpus to 300-row pools."""

    name = "retrieve-cut"
    objective_prefix = 200
    WINDOW = 20
    POOL = 300
    TOPICS = 8
    WORDS = 32
    CHECK_EVERY = 25

    def __init__(self, seed: int):
        super().__init__(seed)
        self.params = {"num_docs": 50000, "num_topics": self.TOPICS, "seed": seed}
        self.recent: list[str] = []
        self.repeats = 0
        self.check_pool_hits = 0

    def fresh_query(self, terms: int, cross: bool) -> str:
        rng = self.rng
        topic = rng.randrange(self.TOPICS)
        words = [f"t{topic}w{w}" for w in rng.sample(range(self.WORDS), terms)]
        if cross:
            other = (topic + 1 + rng.randrange(self.TOPICS - 1)) % self.TOPICS
            words.insert(rng.randrange(terms + 1), f"t{other}w{rng.randrange(self.WORDS)}")
        return " ".join(words)

    def request(self, query: str, k: int) -> DiversifyRequest:
        return DiversifyRequest(workload="corpus", params=self.params, k=k,
                                lam=self.lams.next(k), query_text=query,
                                pool_size=self.POOL)

    def schedule(self) -> Iterator[tuple[DiversifyRequest, bool]]:
        """Blocks of twenty: five repeat one of the last four distinct
        queries at a new (k, λ); fifteen are fresh 2–4 term topic
        queries, four of them with one cross-topic term."""
        for _ in range(10**9):
            slots = [("repeat", None)] * 5 + [
                ("fresh", (2 + i % 3, i < 4)) for i in range(15)
            ]
            self.rng.shuffle(slots)
            for index, (kind, shape) in enumerate(slots):
                k = (5, 10)[index % 2]
                if kind == "repeat" and self.recent:
                    yield self.request(self.rng.choice(self.recent[-4:]), k), True
                    continue
                query = self.fresh_query(*(shape or (3, False)))
                self.recent = (self.recent + [query])[-4:]
                yield self.request(query, k), False

    async def setup(self) -> None:
        """One request at the API's default (k, λ).  That resolves to
        the registry's base instance itself, whose Q(D) later requests
        copy; a request at other (k, λ) on a base that was never
        materialized evaluates all 50,000 rows again (about a second),
        as every select-warm request does at n = 1000."""
        query = self.fresh_query(3, False)
        self.recent.append(query)
        await self.ready(self.serve(DiversifyRequest(
            workload="corpus", params=self.params, query_text=query,
            pool_size=self.POOL)))

    async def measure(self, seconds: float) -> Outcome:
        self.outcome = out = Outcome()
        self.clock = Clock()
        schedule = self.schedule()
        while self.keep_going(seconds):
            request, repeat = next(schedule)
            self.repeats += repeat
            response = await self.serve(request)
            if response is not None and out.attempted % self.CHECK_EVERY == 0:
                with self.off_clock():
                    self.check_pooled(request, response)
        return out

    def check_pooled(self, request: DiversifyRequest, response) -> None:
        """The served answer equals ``engine.run`` on the memoized pool."""
        engine = self.service.engine_for(request.tenant)
        handle = self.service.registry.handle(request.workload, request.params)
        before = engine.retrieval_stats["pool_hits"]
        pool, _cut = engine.pool_for(request.resolve(handle.base_instance()),
                                     request.query_text, request.pool_size)
        self.check_pool_hits += engine.retrieval_stats["pool_hits"] - before
        result = DiversificationEngine().run(pool, request.algorithm)
        if not same_selection(response, result):
            self.outcome.fail(f"retrieve-cut mismatch on {request.key()!r}")

    async def check(self) -> None:
        pass


class DeltaHttp(Workload):
    """Reads and deltas over loopback HTTP on one streaming corpus."""

    name = "delta-http"
    READS = [(5, 0.3), (5, 0.7), (10, 0.3), (10, 0.7)]
    #: The (k, λ) every write repairs; no read uses it, so the repair's
    #: previous selection depends on the write sequence alone.
    WRITE_K, WRITE_LAM = 7, 0.45
    STATS_EVERY = 25

    def __init__(self, seed: int):
        super().__init__(seed)
        # One corpus and update stream for every seed (the registry's
        # default stream seed): the live corpus size random-walks with
        # the stream, and request cost grows with it, so a per-seed
        # stream made throughput move ±20% with the seed.  The seed
        # drives the request mix and the events per write.
        self.params = {"num_docs": 300, "seed": 17}
        self.server = ServiceServer(self.service, port=0)
        self.last_write = None
        self.writes = 0

    async def call(self, method: str, path: str, body: dict | None = None):
        """One HTTP/1.1 request on a fresh connection: (status, payload)."""
        reader, writer = await asyncio.open_connection("127.0.0.1", self.server.port)
        try:
            data = json.dumps(body).encode() if body is not None else b""
            writer.write(
                f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
                "Connection: close\r\n\r\n".encode() + data
            )
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        head, _, payload = raw.partition(b"\r\n\r\n")
        return int(head.split(b" ", 2)[1]), json.loads(payload)

    def read_body(self, k: int, lam: float) -> dict:
        return {"workload": "streaming", "params": self.params, "k": k, "lam": lam}

    def write_body(self, events: int) -> dict:
        return {"workload": "streaming", "params": self.params, "events": events,
                "k": self.WRITE_K, "lam": self.WRITE_LAM}

    async def send(self, kind: str, method: str, path: str, body=None):
        """One timed request; non-2xx, exceptions and infeasible
        selections are failed ops."""
        out = self.outcome
        out.attempted += 1
        self.begin_request()
        start = time.perf_counter()
        try:
            status, payload = await self.call(method, path, body)
        except (OSError, ValueError, asyncio.IncompleteReadError) as exc:
            out.fail(f"{path}: {type(exc).__name__}: {exc}")
            return None
        latency = (time.perf_counter() - start) * 1000.0
        if not 200 <= status < 300:
            out.fail(f"{path}: HTTP {status}: {payload}")
            return None
        if kind == "read":
            self.diversify_ok += 1
        selection = payload.get("selection") if kind == "write" else payload
        if kind != "stats" and not (selection and selection.get("feasible")):
            out.fail(f"{path}: infeasible selection")
            return None
        out.record(kind, latency, self.clock(), payload.get("elapsed_ms"))
        if kind == "write":
            self.writes += 1
            self.last_write = payload
            if len(out.objective) < self.objective_prefix:
                out.objective.append(selection["value"])
        return payload

    async def setup(self) -> None:
        await self.server.start()
        await self.ready(self.send("read", "POST", "/diversify", self.read_body(10, 0.3)))

    async def writer_loop(self, seconds: float, stop: asyncio.Event) -> None:
        """Connection 0: every write, in blocks of three writes and two
        reads, so the write sequence is fixed by the seed."""
        rng = random.Random(self.seed * 31 + 0)
        hard_stop = HARD_STOP * seconds
        while not stop.is_set():
            block = ["write"] * 3 + ["read"] * 2
            rng.shuffle(block)
            for kind in block:
                if kind == "write":
                    await self.send("write", "POST", "/delta",
                                     self.write_body(rng.choice((1, 2, 3))))
                else:
                    await self.send("read", "POST", "/diversify",
                                     self.read_body(*rng.choice(self.READS)))
            enough = (self.writes >= self.objective_prefix
                      and self.outcome.attempted >= MIN_REQUESTS)
            if (self.clock() >= seconds and enough) or self.clock() >= hard_stop:
                stop.set()

    async def reader_loop(self, stop: asyncio.Event) -> None:
        """Connection 1: reads only, and a ``GET /stats`` now and then."""
        rng = random.Random(self.seed * 31 + 1)
        count = 0
        while not stop.is_set():
            count += 1
            if count % self.STATS_EVERY == 0:
                await self.send("stats", "GET", "/stats")
            else:
                await self.send("read", "POST", "/diversify",
                                 self.read_body(*rng.choice(self.READS)))

    async def measure(self, seconds: float) -> Outcome:
        self.outcome = out = Outcome()
        self.clock = Clock()
        stop = asyncio.Event()
        await asyncio.gather(self.writer_loop(seconds, stop), self.reader_loop(stop))
        return out

    async def check(self) -> None:
        """The last served write selection and a final read both equal a
        fresh solve on the final snapshot."""
        handle = self.service.registry.handle("streaming", self.params)
        engine = DiversificationEngine()
        final_read = await self.call("POST", "/diversify", self.read_body(10, 0.7))
        if final_read[0] == 200:
            self.diversify_ok += 1
        served = [("write", self.last_write and self.last_write["selection"],
                   self.WRITE_K, self.WRITE_LAM),
                  ("read", final_read[1], 10, 0.7)]
        for label, selection, k, lam in served:
            request = DiversifyRequest(workload="streaming", params=self.params,
                                       k=k, lam=lam)
            result = engine.run(request.resolve(handle.base_instance()))
            if (
                not selection
                or result is None
                or selection["value"] != result.value
                or selection["rows"] != [row_to_dict(r) for r in result.rows]
            ):
                self.outcome.fail(f"delta-http final {label} differs from a fresh solve")

    async def stats(self) -> dict:
        status, payload = await self.call("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"GET /stats answered {status}")
        return payload

    async def close(self) -> None:
        await self.server.stop()


WORKLOADS = {cls.name: cls for cls in (SelectWarm, RetrieveCut, DeltaHttp)}
